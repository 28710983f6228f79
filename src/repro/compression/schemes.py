"""Compression schemes: drivers that re-encode a program image.

Every scheme consumes a :class:`~repro.isa.image.ProgramImage`, builds its
per-program Huffman dictionaries from the *static* code (the favourable
embedded-systems circumstance the paper points out: the whole image is
available to the compression algorithm), and produces a
:class:`CompressedImage` whose blocks are byte aligned so the first op of a
block is addressable by normal memories (Section 3.3).

Every scheme can also *decompress* what it compressed; tests verify the
round trip bit-exactly, standing in for the hardware decoder's
correctness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.compression.alphabets import StreamConfig
from repro.compression.huffman import HuffmanCode, HuffmanDecoder
from repro.errors import CompressionError
from repro.isa.formats import OP_BITS
from repro.isa.image import OP_BYTES, ProgramImage
from repro.utils.bitstream import BitWriter

#: Hardware-imposed ceiling on Huffman code length (Section 2.2: codes
#: "incompatible with IFetch hardware" are avoided by bounding).
DEFAULT_MAX_CODE_LENGTH = 16


@dataclass(frozen=True)
class StreamTable:
    """One compression stream: its code and decoder-model parameters."""

    code: HuffmanCode
    symbol_bits: int  # m: widest dictionary entry for this stream

    @property
    def n(self) -> int:
        return self.code.max_code_length

    @property
    def k(self) -> int:
        return self.code.num_entries

    @property
    def m(self) -> int:
        return self.symbol_bits

    @property
    def table_bits(self) -> int:
        """Static dictionary storage: k entries of m bits."""
        return self.k * self.m


class CompressedImage:
    """A program image re-encoded under one scheme.

    Holds the per-block payload bytes and sizes; the fetch simulators and
    the power model consume these, and :meth:`decode_block` verifies them.
    """

    def __init__(
        self,
        scheme: "CompressionScheme",
        image: ProgramImage,
        block_payloads: Sequence[bytes],
        block_bit_lengths: Sequence[int],
        streams: Sequence[StreamTable],
    ) -> None:
        if len(block_payloads) != len(image):
            raise CompressionError("payload count != block count")
        self.scheme = scheme
        self.image = image
        self.block_payloads = list(block_payloads)
        self.block_bit_lengths = list(block_bit_lengths)
        self.streams = list(streams)
        offsets = []
        cursor = 0
        for payload in self.block_payloads:
            offsets.append(cursor)
            cursor += len(payload)
        self.block_offsets = offsets
        self.total_code_bytes = cursor

    @property
    def scheme_name(self) -> str:
        return self.scheme.name

    @property
    def scheme_tag_bits(self) -> int:
        """ATT bits per entry spent naming the block's decoder.

        Single-scheme images need none; per-block adaptive images (see
        :mod:`repro.compression.adaptive`) override this, and
        :func:`repro.fetch.atb.att_entry_bits` charges it.
        """
        return 0

    def block_scheme_tags(self) -> Optional[Sequence[str]]:
        """Per-block fetch-scheme tags, or ``None`` for uniform images.

        When present, entry ``i`` names the penalty family
        (``"tailored"`` or ``"compressed"``) block ``i`` decodes and is
        accounted under; the reference fetch model and the columnar
        engine both honor it.
        """
        return None

    def block_bytes(self, block_id: int) -> bytes:
        return self.block_payloads[block_id]

    def block_size(self, block_id: int) -> int:
        """Byte size of a block in this encoding (byte aligned)."""
        return len(self.block_payloads[block_id])

    def block_offset(self, block_id: int) -> int:
        """Byte address of a block within the compressed code segment."""
        return self.block_offsets[block_id]

    @property
    def table_bytes(self) -> int:
        """Static dictionary storage shipped in ROM, in bytes."""
        total_bits = sum(s.table_bits for s in self.streams)
        return (total_bits + 7) // 8

    def ratio_percent(self) -> float:
        """Code-segment size as % of the baseline (the Figure 5 metric)."""
        return 100.0 * self.total_code_bytes / self.image.baseline_code_bytes

    def decode_block(self, block_id: int) -> list[int]:
        """Decompress one block back to its 40-bit op words."""
        return self.scheme.decode_block(self, block_id)

    def verify(self) -> None:
        """Round-trip every block; raises on any mismatch."""
        for block in self.image:
            expected = [op.encode() for op in block.ops]
            actual = self.decode_block(block.block_id)
            if actual != expected:
                raise CompressionError(
                    f"scheme {self.scheme_name!r} mis-decodes block "
                    f"{block.block_id} ({block.label})"
                )


class CompressionScheme:
    """Base class: compress a program image block by block."""

    #: Short identifier used in reports (e.g. ``full``, ``byte``).
    name: str = "abstract"

    def __init__(
        self, max_code_length: Optional[int] = DEFAULT_MAX_CODE_LENGTH
    ) -> None:
        self.max_code_length = max_code_length

    def compress(self, image: ProgramImage) -> CompressedImage:
        raise NotImplementedError

    def decode_block(
        self, compressed: CompressedImage, block_id: int
    ) -> list[int]:
        raise NotImplementedError

    # ------------------------------------------------------------ helpers
    def _build_code(self, frequencies: Counter) -> HuffmanCode:
        return HuffmanCode.from_frequencies(
            frequencies, max_length=self.max_code_length
        )

    @staticmethod
    def _finish_block(writer_bits: list[tuple[int, int]]) -> bytes:
        raise NotImplementedError


class BaselineScheme(CompressionScheme):
    """The identity encoding: baseline 40-bit TEPIC (the paper's "Base")."""

    name = "base"

    def __init__(self) -> None:
        super().__init__(max_code_length=None)

    def compress(self, image: ProgramImage) -> CompressedImage:
        payloads = [block.encode_baseline() for block in image]
        bits = [block.op_count * OP_BITS for block in image]
        return CompressedImage(self, image, payloads, bits, streams=())

    def decode_block(
        self, compressed: CompressedImage, block_id: int
    ) -> list[int]:
        payload = compressed.block_bytes(block_id)
        return [
            int.from_bytes(payload[i : i + OP_BYTES], "big")
            for i in range(0, len(payload), OP_BYTES)
        ]


class ByteHuffmanScheme(CompressionScheme):
    """Wolfe-style byte-alphabet Huffman: smallest decoder, ~72% size.

    Byte-oriented decompressors keep their code words short — the
    "limited input width and dictionary size" the paper credits for the
    small decoder — so this scheme bounds code lengths to 10 bits by
    default (Wolfe's designs used comparably short bounded codes).
    """

    name = "byte"

    #: Default code-length bound for the byte alphabet.
    BYTE_MAX_CODE_LENGTH = 10

    def __init__(
        self, max_code_length: Optional[int] = BYTE_MAX_CODE_LENGTH
    ) -> None:
        super().__init__(max_code_length)

    def compress(self, image: ProgramImage) -> CompressedImage:
        histogram: Counter = Counter()
        for block in image:
            histogram.update(block.encode_baseline())
        code = self._build_code(histogram)
        payloads = []
        bit_lengths = []
        for block in image:
            writer = BitWriter()
            for byte in block.encode_baseline():
                code.encode_symbol(byte, writer)
            bit_lengths.append(writer.bit_length)
            writer.align_to_byte()
            payloads.append(writer.to_bytes())
        streams = (StreamTable(code, symbol_bits=8),)
        return CompressedImage(self, image, payloads, bit_lengths, streams)

    def decode_block(
        self, compressed: CompressedImage, block_id: int
    ) -> list[int]:
        from repro.utils.bitstream import BitReader

        decoder = compressed.streams[0].code.make_decoder()
        reader = BitReader(compressed.block_bytes(block_id))
        n_bytes = (
            compressed.image.block(block_id).op_count * OP_BYTES
        )
        raw = bytes(decoder.decode_symbol(reader) for _ in range(n_bytes))
        return [
            int.from_bytes(raw[i : i + OP_BYTES], "big")
            for i in range(0, len(raw), OP_BYTES)
        ]


class StreamHuffmanScheme(CompressionScheme):
    """Fixed-boundary stream Huffman (paper Figure 3).

    Each op contributes one symbol to each stream; streams have independent
    per-program dictionaries.  Symbols are written op-sequentially (all of
    op i's streams before op i+1) so a block decompresses front to back.
    """

    def __init__(
        self,
        config: StreamConfig,
        max_code_length: Optional[int] = DEFAULT_MAX_CODE_LENGTH,
    ) -> None:
        super().__init__(max_code_length)
        self.config = config
        self.name = config.name

    def compress(self, image: ProgramImage) -> CompressedImage:
        histograms = [Counter() for _ in range(self.config.num_streams)]
        for op in image.all_operations():
            for i, symbol in enumerate(self.config.split(op.encode())):
                histograms[i][symbol] += 1
        codes = [self._build_code(h) for h in histograms]
        payloads = []
        bit_lengths = []
        for block in image:
            writer = BitWriter()
            for op in block.ops:
                for i, symbol in enumerate(
                    self.config.split(op.encode())
                ):
                    codes[i].encode_symbol(symbol, writer)
            bit_lengths.append(writer.bit_length)
            writer.align_to_byte()
            payloads.append(writer.to_bytes())
        streams = tuple(
            StreamTable(code, symbol_bits=width)
            for code, width in zip(codes, self.config.widths)
        )
        return CompressedImage(self, image, payloads, bit_lengths, streams)

    def decode_block(
        self, compressed: CompressedImage, block_id: int
    ) -> list[int]:
        from repro.utils.bitstream import BitReader

        decoders = [s.code.make_decoder() for s in compressed.streams]
        reader = BitReader(compressed.block_bytes(block_id))
        words = []
        for _ in range(compressed.image.block(block_id).op_count):
            symbols = tuple(d.decode_symbol(reader) for d in decoders)
            words.append(self.config.join(symbols))
        return words


class FullOpHuffmanScheme(CompressionScheme):
    """Whole-op alphabet: one symbol per 40-bit operation.

    The paper's best compressor (~30% of original): "the size of the
    popular ADD instruction often went down from 40 to 6 bits, and none of
    the codes exceed the original op size" — the latter holds for any
    Huffman code whose alphabet has at most 2^40 entries, and tests check
    it directly.
    """

    name = "full"

    def __init__(
        self, max_code_length: Optional[int] = DEFAULT_MAX_CODE_LENGTH
    ) -> None:
        super().__init__(max_code_length)

    def compress(self, image: ProgramImage) -> CompressedImage:
        histogram: Counter = Counter(
            op.encode() for op in image.all_operations()
        )
        code = self._build_code(histogram)
        payloads = []
        bit_lengths = []
        for block in image:
            writer = BitWriter()
            for op in block.ops:
                code.encode_symbol(op.encode(), writer)
            bit_lengths.append(writer.bit_length)
            writer.align_to_byte()
            payloads.append(writer.to_bytes())
        streams = (StreamTable(code, symbol_bits=OP_BITS),)
        return CompressedImage(self, image, payloads, bit_lengths, streams)

    def decode_block(
        self, compressed: CompressedImage, block_id: int
    ) -> list[int]:
        from repro.utils.bitstream import BitReader

        decoder: HuffmanDecoder = compressed.streams[0].code.make_decoder()
        reader = BitReader(compressed.block_bytes(block_id))
        return [
            decoder.decode_symbol(reader)
            for _ in range(compressed.image.block(block_id).op_count)
        ]

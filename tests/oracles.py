"""Reference implementations kept as test oracles.

Production code has one bit writer (``repro.utils.bitstream.BitWriter``)
and one Huffman decoder (``HuffmanDecoder.decode_symbol``).  The readable
versions they replaced live here, so the differential tests always have
a known-good baseline to compare the fast paths against.
"""

from __future__ import annotations

from repro.compression.huffman import HuffmanCode
from repro.errors import CompressionError
from repro.utils.bitstream import BitReader


class ReferenceBitWriter:
    """The original chunk-list writer.

    ``to_int`` left-shifts a growing big integer once per chunk, which is
    O(n²) in total stream bits — the behavior ``BitWriter`` replaces.
    """

    __slots__ = ("_chunks", "_bit_length")

    def __init__(self) -> None:
        self._chunks: list[tuple[int, int]] = []
        self._bit_length = 0

    @property
    def bit_length(self) -> int:
        return self._bit_length

    def write(self, value: int, width: int) -> None:
        """Append ``width`` bits holding ``value`` (big-endian bit order)."""
        if width < 0:
            raise ValueError(f"negative width {width}")
        if value < 0:
            raise ValueError(f"negative value {value}; encode sign explicitly")
        if width == 0:
            if value:
                raise ValueError("nonzero value with zero width")
            return
        if value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._chunks.append((value, width))
        self._bit_length += width

    def align_to_byte(self) -> int:
        """Pad with zero bits to the next byte boundary; return pad count."""
        pad = (-self._bit_length) % 8
        if pad:
            self.write(0, pad)
        return pad

    def to_int(self) -> int:
        """Return the stream as a single integer (MSB = first bit written)."""
        acc = 0
        for value, width in self._chunks:
            acc = (acc << width) | value
        return acc

    def to_bytes(self) -> bytes:
        """Return the stream as bytes, zero-padded at the end to a byte."""
        total = self._bit_length
        acc = self.to_int()
        pad = (-total) % 8
        acc <<= pad
        return acc.to_bytes((total + pad) // 8, "big") if total else b""

    def to_bitstring(self) -> str:
        """Return the stream as a '0'/'1' string (debugging, tests)."""
        out = []
        for value, width in self._chunks:
            out.append(format(value, f"0{width}b") if width else "")
        return "".join(out)


class ReferenceHuffmanDecoder:
    """The original per-length dictionary walk over a Huffman code.

    Extends the word to each code length in use in turn and probes that
    length's ``{code word: symbol}`` table — the decode
    ``HuffmanDecoder``'s canonical first-code table replaces.
    """

    def __init__(self, code: HuffmanCode) -> None:
        self._by_length: dict[int, dict[int, int]] = {}
        for symbol, (word, length) in code.codes.items():
            self._by_length.setdefault(length, {})[word] = symbol
        self._lengths = sorted(self._by_length)

    def decode_symbol(self, reader: BitReader) -> int:
        """Consume one code word from ``reader`` and return its symbol."""
        word = 0
        consumed = 0
        for length in self._lengths:
            word = (word << (length - consumed)) | reader.read(
                length - consumed
            )
            consumed = length
            table = self._by_length[length]
            if word in table:
                return table[word]
        raise CompressionError(
            f"bit pattern {word:b} ({consumed} bits) matches no code word"
        )

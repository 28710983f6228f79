"""Access-pattern-adaptive compression schemes.

Two scheme families that use more than a static, memoryless view of the
image:

* :class:`HybridScheme` — consumes a fetch-trace heat profile and
  assigns a per-block encoding: blocks above the hotness threshold stay
  in the tailored (fixed-width, dictionary-free) encoding so fetching
  them pays the cheap tailored penalties, while cold blocks take
  context-modeled full-op Huffman and keep the size win (Ozturk et al.,
  "Access Pattern-Based Code Compression").  The cold dictionaries are
  built from the cold blocks alone, so what the hot set gives up in
  size the sharper cold model buys back.  The resulting
  :class:`HybridImage` carries per-block scheme tags that the ATT
  stores (one bit per entry) and the fetch engine and its reference
  honor for decompression-penalty and L0-buffer accounting.
* :class:`ContextHuffmanScheme` — a fifth scheme family: full-op
  symbols whose codebook is conditioned on the class of the previous
  symbol (Hirvola's previous-symbol context modeling).  The class is
  the op's fixed ``(opt, opcode)`` prefix — the same bits that select
  the format, and hence the register/immediate layout — so runs of
  same-class ops (the register-reuse window) share a sharper
  conditional distribution than one memoryless dictionary.

Both schemes keep the paper's block addressability: every block is
byte aligned and decodes independently (context state resets at block
entry).
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from repro.compression.huffman import HuffmanCode
from repro.compression.registry import HYBRID_DEFAULT_HOTNESS, hybrid_key
from repro.compression.schemes import (
    CompressedImage,
    CompressionScheme,
    DEFAULT_MAX_CODE_LENGTH,
    StreamTable,
)
from repro.errors import CompressionError, ConfigurationError
from repro.isa.formats import OP_BITS
from repro.isa.image import ProgramImage
from repro.utils.bitstream import BitWriter

#: Per-block tag values: the fetch-penalty family the block is accounted
#: under.  Hot blocks are tailored-encoded (fixed width, no dictionary);
#: cold blocks are Huffman-encoded and fetch like the compressed
#: organization (serialized decode, L0-buffer eligible).
HOT_TAG = "tailored"
COLD_TAG = "compressed"


def heat_profile(
    block_trace: Sequence[int], num_blocks: int
) -> tuple[int, ...]:
    """Dynamic fetch count per block from one program trace."""
    counts = [0] * num_blocks
    for block_id in block_trace:
        counts[block_id] += 1
    return tuple(counts)


def hot_block_ids(
    profile: Sequence[int], hotness: float
) -> frozenset[int]:
    """The hot set: fewest blocks covering ``hotness`` of all fetches.

    Blocks are taken in descending dynamic-count order (block id breaks
    ties, so the set is deterministic) until the cumulative count
    reaches ``hotness`` × total.  Never-executed blocks are always
    cold; ``hotness == 0`` keeps the whole image Huffman-compressed.
    """
    total = sum(profile)
    if total == 0 or hotness <= 0.0:
        return frozenset()
    need = hotness * total
    order = sorted(
        range(len(profile)), key=lambda bid: (-profile[bid], bid)
    )
    hot = set()
    covered = 0
    for block_id in order:
        if covered >= need or profile[block_id] == 0:
            break
        hot.add(block_id)
        covered += profile[block_id]
    return frozenset(hot)


#: Context id for the first op of every block: decode starts with no
#: history, which keeps blocks independently addressable.
BLOCK_START_CONTEXT = -1

#: The context class is the previous op's (opt, opcode) prefix — 7 bits
#: shared by every TEPIC format directly below the t/s flags.
_CONTEXT_SHIFT = OP_BITS - 9
_CONTEXT_MASK = 0x7F


def context_of(word: int) -> int:
    """Symbol class a 40-bit op word contributes as left-context."""
    return (word >> _CONTEXT_SHIFT) & _CONTEXT_MASK


class HybridImage(CompressedImage):
    """A per-block hot/cold encoding with its spec, tags, and profile.

    Cold blocks share per-context codebooks; stream ``i`` holds the
    dictionary for context ``context_ids[i]``.
    """

    def __init__(
        self,
        spec,
        block_tags: Sequence[str],
        profile: Sequence[int],
        hotness: float,
        context_ids: Sequence[int],
        *args,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.spec = spec
        self.block_tags = tuple(block_tags)
        self.profile = tuple(profile)
        self.hotness = hotness
        self.context_ids = tuple(context_ids)
        self.context_index = {
            ctx: i for i, ctx in enumerate(self.context_ids)
        }
        if len(self.block_tags) != len(self.image):
            raise CompressionError("tag count != block count")

    @property
    def scheme_tag_bits(self) -> int:
        # One ATT bit selects between the two block decoders.
        return 1

    def block_scheme_tags(self) -> Sequence[str]:
        return self.block_tags


class HybridScheme(CompressionScheme):
    """Hot blocks tailored, cold blocks full-op Huffman, per a profile.

    The scheme is constructed from a hotness threshold and a profile
    source alone (so scheme *keys* stay pure); the heat profile itself
    is attached with :meth:`with_profile` before :meth:`compress` —
    ``ProgramStudy.compressed("hybrid")`` does this from the study's own
    fetch trace, ``compressed("hybrid:static")`` from the compile-time
    estimate of :func:`repro.analysis.freq.static_heat_profile`.  The
    scheme itself is agnostic to where the counts came from; ``source``
    only selects the provider and keeps the key/name canonical.
    """

    def __init__(
        self,
        hotness: float = HYBRID_DEFAULT_HOTNESS,
        max_code_length: Optional[int] = DEFAULT_MAX_CODE_LENGTH,
        *,
        source: str = "trace",
    ) -> None:
        super().__init__(max_code_length)
        self.hotness = float(hotness)
        self.source = source
        self.name = hybrid_key(self.hotness, source)
        self._profile: Optional[tuple[int, ...]] = None

    def with_profile(self, profile: Sequence[int]) -> "HybridScheme":
        self._profile = tuple(profile)
        return self

    # ------------------------------------------------------------ encode
    def compress(self, image: ProgramImage) -> HybridImage:
        from repro.tailored.analysis import analyze_image
        from repro.tailored.encoding import TailoredScheme

        if self._profile is None:
            raise ConfigurationError(
                "hybrid compression needs a heat profile; attach one "
                "with with_profile() or go through "
                "ProgramStudy.compressed('hybrid')"
            )
        if len(self._profile) != len(image):
            raise CompressionError(
                "heat profile length != block count"
            )
        hot = hot_block_ids(self._profile, self.hotness)
        tags = [
            HOT_TAG if block.block_id in hot else COLD_TAG
            for block in image
        ]
        # Cold dictionaries are per-context and built from cold blocks
        # only: the hot set is out of the alphabet, so the sharper cold
        # model buys back what the hot blocks give up in size.
        histograms: dict[int, Counter] = {}
        for block in image:
            if tags[block.block_id] != COLD_TAG:
                continue
            ctx = BLOCK_START_CONTEXT
            for op in block.ops:
                word = op.encode()
                histograms.setdefault(ctx, Counter())[word] += 1
                ctx = context_of(word)
        codes = {
            ctx: self._build_code(histogram)
            for ctx, histogram in histograms.items()
        }
        spec = analyze_image(image)
        tailored = TailoredScheme()
        payloads = []
        bit_lengths = []
        for block in image:
            writer = BitWriter()
            if tags[block.block_id] == HOT_TAG:
                for op in block.ops:
                    tailored._encode_op(spec, op, writer)
            else:
                ctx = BLOCK_START_CONTEXT
                for op in block.ops:
                    word = op.encode()
                    codes[ctx].encode_symbol(word, writer)
                    ctx = context_of(word)
            bit_lengths.append(writer.bit_length)
            writer.align_to_byte()
            payloads.append(writer.to_bytes())
        context_ids = tuple(sorted(codes))
        streams = tuple(
            StreamTable(codes[ctx], symbol_bits=OP_BITS)
            for ctx in context_ids
        )
        return HybridImage(
            spec, tags, self._profile, self.hotness, context_ids,
            self, image, payloads, bit_lengths, streams,
        )

    # ------------------------------------------------------------ decode
    def decode_block(
        self, compressed: CompressedImage, block_id: int
    ) -> list[int]:
        from repro.tailored.encoding import TailoredScheme
        from repro.utils.bitstream import BitReader

        if not isinstance(compressed, HybridImage):
            raise CompressionError("hybrid decode requires a HybridImage")
        reader = BitReader(compressed.block_bytes(block_id))
        op_count = compressed.image.block(block_id).op_count
        if compressed.block_tags[block_id] == HOT_TAG:
            tailored = TailoredScheme()
            spec = compressed.spec
            return [
                tailored._decode_op(spec, reader)
                for _ in range(op_count)
            ]
        decoders = [s.code.make_decoder() for s in compressed.streams]
        words = []
        ctx = BLOCK_START_CONTEXT
        for _ in range(op_count):
            decoder = decoders[compressed.context_index[ctx]]
            word = decoder.decode_symbol(reader)
            words.append(word)
            ctx = context_of(word)
        return words


# ----------------------------------------------------------------------
class ContextImage(CompressedImage):
    """A context-coded image; stream ``i`` is context ``context_ids[i]``."""

    def __init__(
        self, context_ids: Sequence[int], *args, **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        self.context_ids = tuple(context_ids)
        self.context_index = {
            ctx: i for i, ctx in enumerate(self.context_ids)
        }


class ContextHuffmanScheme(CompressionScheme):
    """Full-op Huffman conditioned on the previous symbol's class."""

    name = "context"

    def __init__(
        self, max_code_length: Optional[int] = DEFAULT_MAX_CODE_LENGTH
    ) -> None:
        super().__init__(max_code_length)

    def compress(self, image: ProgramImage) -> ContextImage:
        histograms: dict[int, Counter] = {}
        for block in image:
            ctx = BLOCK_START_CONTEXT
            for op in block.ops:
                word = op.encode()
                histograms.setdefault(ctx, Counter())[word] += 1
                ctx = context_of(word)
        codes: dict[int, HuffmanCode] = {
            ctx: self._build_code(histogram)
            for ctx, histogram in histograms.items()
        }
        payloads = []
        bit_lengths = []
        for block in image:
            writer = BitWriter()
            ctx = BLOCK_START_CONTEXT
            for op in block.ops:
                word = op.encode()
                codes[ctx].encode_symbol(word, writer)
                ctx = context_of(word)
            bit_lengths.append(writer.bit_length)
            writer.align_to_byte()
            payloads.append(writer.to_bytes())
        context_ids = tuple(sorted(codes))
        streams = tuple(
            StreamTable(codes[ctx], symbol_bits=OP_BITS)
            for ctx in context_ids
        )
        return ContextImage(
            context_ids, self, image, payloads, bit_lengths, streams
        )

    def decode_block(
        self, compressed: CompressedImage, block_id: int
    ) -> list[int]:
        from repro.utils.bitstream import BitReader

        if not isinstance(compressed, ContextImage):
            raise CompressionError(
                "context decode requires a ContextImage"
            )
        decoders = [s.code.make_decoder() for s in compressed.streams]
        reader = BitReader(compressed.block_bytes(block_id))
        words = []
        ctx = BLOCK_START_CONTEXT
        for _ in range(compressed.image.block(block_id).op_count):
            decoder = decoders[compressed.context_index[ctx]]
            word = decoder.decode_symbol(reader)
            words.append(word)
            ctx = context_of(word)
        return words

"""Adaptive compression: hybrid per-block tags and the context coder.

Covers the scheme registry (one key authority for CLI/sweep/study),
round-trips under randomized heat profiles, per-block tag semantics
(every block must decode under exactly its tagged scheme), the fetch
engine/reference differential on hybrid images, and the bus flip
accounting hybrid's mixed-width payload mix exercises.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.adaptive import (
    BLOCK_START_CONTEXT,
    COLD_TAG,
    HOT_TAG,
    ContextHuffmanScheme,
    HybridScheme,
    context_of,
    heat_profile,
    hot_block_ids,
)
from repro.compression.registry import (
    HYBRID_DEFAULT_HOTNESS,
    UnknownSchemeError,
    hybrid_key,
    hybrid_profile_source,
    normalize_scheme_key,
    parse_hybrid_key,
    scheme_factory,
)
from repro.errors import CompressionError, ConfigurationError
from repro.power.busmodel import BusModel


# ------------------------------------------------------------- registry
class TestRegistry:
    def test_plain_keys_normalize_to_themselves(self):
        for key in ("base", "byte", "full", "tailored", "context"):
            assert normalize_scheme_key(key) == key

    def test_default_hybrid_key_folds(self):
        assert normalize_scheme_key("hybrid") == "hybrid"
        assert (
            normalize_scheme_key(f"hybrid@{HYBRID_DEFAULT_HOTNESS}")
            == "hybrid"
        )
        assert hybrid_key(HYBRID_DEFAULT_HOTNESS) == "hybrid"

    def test_parameterized_hybrid_keys(self):
        assert parse_hybrid_key("hybrid@0.5") == 0.5
        assert normalize_scheme_key("hybrid@0.5") == "hybrid@0.5"
        assert parse_hybrid_key("tailored") is None

    @pytest.mark.parametrize(
        "key", ["hybrid@", "hybrid@x", "hybrid@1.5", "hybrid@-0.1"]
    )
    def test_malformed_hybrid_keys_rejected(self, key):
        with pytest.raises(UnknownSchemeError):
            normalize_scheme_key(key)

    def test_unknown_key_rejected(self):
        with pytest.raises(UnknownSchemeError):
            normalize_scheme_key("zstd")

    def test_factory_builds_adaptive_schemes(self):
        assert isinstance(scheme_factory("context"), ContextHuffmanScheme)
        hybrid = scheme_factory("hybrid@0.75")
        assert isinstance(hybrid, HybridScheme)
        assert hybrid.hotness == 0.75
        assert hybrid.name == "hybrid@0.75"

    def test_static_suffix_parses_and_folds(self):
        assert parse_hybrid_key("hybrid:static") == HYBRID_DEFAULT_HOTNESS
        assert parse_hybrid_key("hybrid@0.5:static") == 0.5
        assert normalize_scheme_key("hybrid:static") == "hybrid:static"
        assert (
            normalize_scheme_key(f"hybrid@{HYBRID_DEFAULT_HOTNESS}:static")
            == "hybrid:static"
        )
        assert (
            normalize_scheme_key("hybrid@0.5:static") == "hybrid@0.5:static"
        )

    def test_profile_source_classification(self):
        assert hybrid_profile_source("hybrid") == "trace"
        assert hybrid_profile_source("hybrid@0.5") == "trace"
        assert hybrid_profile_source("hybrid:static") == "static"
        assert hybrid_profile_source("hybrid@0.5:static") == "static"
        assert hybrid_profile_source("tailored") is None
        assert hybrid_key(0.5, "static") == "hybrid@0.5:static"
        assert (
            hybrid_key(HYBRID_DEFAULT_HOTNESS, "static") == "hybrid:static"
        )
        with pytest.raises(UnknownSchemeError):
            hybrid_key(0.5, "psychic")

    def test_factory_builds_static_hybrid(self):
        scheme = scheme_factory("hybrid@0.75:static")
        assert isinstance(scheme, HybridScheme)
        assert scheme.hotness == 0.75
        assert scheme.source == "static"
        assert scheme.name == "hybrid@0.75:static"

    @pytest.mark.parametrize(
        "key", ["hybrid@:static", "hybrid@1.5:static", "tailored:static"]
    )
    def test_malformed_static_keys_rejected(self, key):
        with pytest.raises(UnknownSchemeError):
            normalize_scheme_key(key)

    def test_unknown_key_error_lists_known_and_suggests(self):
        with pytest.raises(UnknownSchemeError) as exc:
            normalize_scheme_key("hybird@0.3")
        message = str(exc.value)
        assert "did you mean 'hybrid@0.3'?" in message
        for known in ("base", "byte", "full", "tailored", "context"):
            assert known in message

    def test_typo_without_close_match_gets_no_suggestion(self):
        with pytest.raises(UnknownSchemeError) as exc:
            normalize_scheme_key("zstd")
        assert "did you mean" not in str(exc.value)


# ------------------------------------------------------------- hot sets
class TestHotSet:
    def test_heat_profile_counts(self):
        assert heat_profile([0, 1, 1, 3], 5) == (1, 2, 0, 1, 0)

    def test_hot_set_covers_threshold(self):
        profile = (10, 5, 1, 0)
        # 10/16 already covers 60% of the dynamic fetches.
        assert hot_block_ids(profile, 0.6) == {0}
        # 95% needs all three executed blocks; block 3 never runs.
        assert hot_block_ids(profile, 0.95) == {0, 1, 2}

    def test_zero_threshold_and_dead_blocks(self):
        assert hot_block_ids((3, 2, 1), 0.0) == frozenset()
        assert hot_block_ids((0, 0), 1.0) == frozenset()
        # Never-executed blocks stay cold at any threshold.
        assert 3 not in hot_block_ids((5, 4, 3, 0), 1.0)

    def test_deterministic_tie_break(self):
        # Equal counts break ties toward the lower block id.
        assert hot_block_ids((2, 2, 2), 0.4) == {0, 1}


# ----------------------------------------------------------- roundtrips
@pytest.fixture(scope="module")
def tiny_image(tiny_program):
    return tiny_program[0].image


@pytest.fixture(scope="module")
def tiny_trace(tiny_run):
    return tiny_run[1].block_trace


def test_context_scheme_roundtrips(tiny_image):
    compressed = ContextHuffmanScheme().compress(tiny_image)
    compressed.verify()
    # One stream per context class the image's encode walk visits.
    seen = set()
    for block in tiny_image:
        ctx = BLOCK_START_CONTEXT
        for op in block.ops:
            seen.add(ctx)
            ctx = context_of(op.encode())
    assert set(compressed.context_ids) == seen
    assert list(compressed.context_ids) == sorted(seen)


def test_hybrid_requires_profile(tiny_image):
    with pytest.raises(ConfigurationError):
        HybridScheme(0.5).compress(tiny_image)
    with pytest.raises(CompressionError):
        HybridScheme(0.5).with_profile((1,)).compress(tiny_image)


def test_hybrid_roundtrips_with_trace_profile(tiny_image, tiny_trace):
    profile = heat_profile(tiny_trace, len(tiny_image))
    compressed = (
        HybridScheme(0.5).with_profile(profile).compress(tiny_image)
    )
    compressed.verify()
    assert compressed.scheme_tag_bits == 1
    tags = compressed.block_scheme_tags()
    assert len(tags) == len(tiny_image)
    assert set(tags) <= {HOT_TAG, COLD_TAG}
    assert {b for b, t in enumerate(tags) if t == HOT_TAG} == set(
        hot_block_ids(profile, 0.5)
    )


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hybrid_roundtrips_under_random_profiles(tiny_program, data):
    """Any profile/hotness pair must produce a decodable tagged image."""
    image = tiny_program[0].image
    profile = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=50),
            min_size=len(image),
            max_size=len(image),
        )
    )
    hotness = data.draw(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    )
    compressed = (
        HybridScheme(hotness).with_profile(profile).compress(image)
    )
    compressed.verify()
    tags = compressed.block_scheme_tags()
    assert {b for b, t in enumerate(tags) if t == HOT_TAG} == set(
        hot_block_ids(profile, hotness)
    )


def test_every_block_decodes_under_its_tagged_scheme(
    tiny_image, tiny_trace
):
    """Hot blocks are pure tailored payloads; cold blocks are pure
    context-Huffman payloads — each decodes with only its tagged
    decoder, independently of the hybrid dispatch."""
    from repro.tailored.encoding import TailoredScheme
    from repro.utils.bitstream import BitReader

    profile = heat_profile(tiny_trace, len(tiny_image))
    compressed = (
        HybridScheme(0.5).with_profile(profile).compress(tiny_image)
    )
    tags = compressed.block_scheme_tags()
    assert HOT_TAG in tags and COLD_TAG in tags
    tailored = TailoredScheme()
    decoders = [s.code.make_decoder() for s in compressed.streams]
    for block in tiny_image:
        expected = [op.encode() for op in block.ops]
        reader = BitReader(compressed.block_bytes(block.block_id))
        if tags[block.block_id] == HOT_TAG:
            got = [
                tailored._decode_op(compressed.spec, reader)
                for _ in range(block.op_count)
            ]
        else:
            got = []
            ctx = BLOCK_START_CONTEXT
            for _ in range(block.op_count):
                decoder = decoders[compressed.context_index[ctx]]
                word = decoder.decode_symbol(reader)
                got.append(word)
                ctx = context_of(word)
        assert got == expected


def test_att_entry_grows_by_exactly_the_tag_bit(tiny_image, tiny_trace):
    from repro.compression.schemes import CompressedImage
    from repro.fetch.atb import att_entry_bits
    from repro.fetch.config import COMPRESSED_CACHE_SCALED

    profile = heat_profile(tiny_trace, len(tiny_image))
    hybrid = (
        HybridScheme(0.5).with_profile(profile).compress(tiny_image)
    )
    # An untagged twin with byte-identical payloads: the only ATT
    # difference left is the 1-bit decoder tag.
    twin = CompressedImage(
        hybrid.scheme,
        tiny_image,
        hybrid.block_payloads,
        hybrid.block_bit_lengths,
        hybrid.streams,
    )
    assert hybrid.scheme_tag_bits == 1
    assert twin.scheme_tag_bits == 0
    geometry = COMPRESSED_CACHE_SCALED
    assert (
        att_entry_bits(hybrid, geometry)
        == att_entry_bits(twin, geometry) + 1
    )


# ------------------------------------------------- fetch differentials
@pytest.fixture(scope="module")
def hybrid_study(compress_study):
    # Materialize the tagged images once for the differential tests.
    compress_study.compressed("hybrid")
    compress_study.compressed("hybrid:static")
    return compress_study


def test_kernel_matches_reference_on_hybrid(hybrid_study):
    import random

    from repro.fetch.config import FetchConfig
    from repro.fetch.engine import simulate_fetch, simulate_fetch_reference

    rng = random.Random(8)
    for scheme in ("hybrid", "hybrid@0.6", "hybrid:static"):
        compressed = hybrid_study.compressed(scheme)
        blocks = len(compressed.image)
        trace = [rng.randrange(blocks) for _ in range(1500)]
        config = FetchConfig.for_scheme(scheme, scaled=True)
        fast = simulate_fetch(compressed, trace, config)
        reference = simulate_fetch_reference(compressed, trace, config)
        assert asdict(fast) == asdict(reference)
        assert fast.scheme == scheme


def test_sweep_matches_engine_on_hybrid_grid(hybrid_study):
    import random

    from repro.core.sweep import expand_grid
    from repro.fetch.engine import simulate_fetch_reference
    from repro.fetch.sweep import simulate_fetch_sweep_multi

    images = {
        key: hybrid_study.compressed(key)
        for key in ("hybrid", "hybrid@0.6")
    }
    rng = random.Random(9)
    blocks = len(images["hybrid"].image)
    trace = [rng.randrange(blocks) for _ in range(1000)]
    grid = expand_grid(
        ("hybrid",),
        hotness_thresholds=(HYBRID_DEFAULT_HOTNESS, 0.6),
        l0_capacities=(4, 32),
        bus_widths=(4, 8),
    )
    assert {c.scheme for c in grid} == {"hybrid", "hybrid@0.6"}
    batch = simulate_fetch_sweep_multi(images, trace, grid)
    assert len(batch) == len(grid)
    for config, metrics in zip(grid, batch):
        assert asdict(metrics) == asdict(
            simulate_fetch_reference(images[config.scheme], trace, config)
        )


def test_hybrid_fetch_requires_tagged_image(hybrid_study):
    from repro.fetch.config import FetchConfig
    from repro.fetch.engine import simulate_fetch_reference

    full = hybrid_study.compressed("full")
    config = FetchConfig.for_scheme("hybrid", scaled=True)
    with pytest.raises(ConfigurationError):
        simulate_fetch_reference(full, [0, 1], config)


def test_hybrid_probes_l0_only_for_cold_blocks(hybrid_study):
    from repro.fetch.config import FetchConfig
    from repro.fetch.engine import simulate_fetch_reference

    compressed = hybrid_study.compressed("hybrid")
    tags = compressed.block_scheme_tags()
    hot = [b for b, t in enumerate(tags) if t == HOT_TAG]
    assert hot, "default threshold must produce a non-empty hot set"
    config = FetchConfig.for_scheme("hybrid", scaled=True)
    # A trace of only hot blocks never touches the L0 buffer.
    metrics = simulate_fetch_reference(compressed, hot * 50, config)
    assert metrics.buffer_hits == 0
    assert metrics.buffer_misses == 0


# ------------------------------------------------------------ bus model
class TestBusFlipRegression:
    def test_mixed_width_beats_pin_exact_flips(self):
        """Hybrid blocks have mixed payload widths (tailored hot vs
        Huffman cold), so transfers routinely end in partial beats.
        Pin the zero-padded beat framing and cross-transfer state."""
        bus = BusModel(4)
        # 5 bytes on a 4-byte bus: beats ff00ff00 (16 flips from the
        # idle bus) then ff000000 (xor 0x0000ff00 -> 8 flips).
        assert bus.transfer(b"\xff\x00\xff\x00\xff") == 24
        # 2 bytes: one padded beat 0ff00000 (xor ff000000 ->
        # f0f00000 -> 8 flips); state persists across transfers.
        assert bus.transfer(b"\x0f\xf0") == 8
        assert (bus.beats, bus.bytes_transferred, bus.bit_flips) == (
            3,
            7,
            32,
        )

    def test_hybrid_fetch_flips_match_bus_model_replay(
        self, hybrid_study
    ):
        """The engine's flip accounting over one hot and one cold miss
        equals a standalone BusModel replay of the same payloads."""
        from repro.fetch.config import FetchConfig
        from repro.fetch.engine import (
            simulate_fetch,
            simulate_fetch_reference,
        )

        compressed = hybrid_study.compressed("hybrid")
        tags = compressed.block_scheme_tags()
        config = FetchConfig.for_scheme("hybrid", scaled=True)

        def lines_of(bid):
            start = compressed.block_offset(bid)
            end = start + max(1, compressed.block_size(bid)) - 1
            width = config.cache.line_bytes
            return set(range(start // width, end // width + 1))

        hot = next(b for b, t in enumerate(tags) if t == HOT_TAG)
        # Pick a cold block sharing no cache line with the hot one, so
        # each first touch is a genuine L1 miss with a bus transfer.
        cold = next(
            b
            for b, t in enumerate(tags)
            if t == COLD_TAG and not (lines_of(b) & lines_of(hot))
        )
        trace = [hot] * 5 + [cold] * 5
        metrics = simulate_fetch_reference(compressed, trace, config)
        hot_payload = compressed.block_bytes(hot)
        cold_payload = compressed.block_bytes(cold)
        # Each block misses the L1 exactly once, in trace order.
        assert metrics.bus_bytes == len(hot_payload) + len(cold_payload)
        bus = BusModel(config.bus_bytes)
        expected_flips = bus.transfer(hot_payload) + bus.transfer(
            cold_payload
        )
        assert metrics.bus_beats == bus.beats
        assert metrics.bus_bit_flips == expected_flips
        fast = simulate_fetch(compressed, trace, config)
        assert fast.bus_bit_flips == expected_flips


# --------------------------------------------------------------- study
def test_study_accepts_hybrid_keys(hybrid_study):
    default = hybrid_study.compressed("hybrid")
    folded = hybrid_study.compressed(f"hybrid@{HYBRID_DEFAULT_HOTNESS}")
    assert folded is default  # same normalized key, same artifact
    metrics = hybrid_study.fetch_metrics("hybrid")
    assert metrics.scheme == "hybrid"
    assert metrics.cycles > 0

"""Property and unit tests for the columnar multi-config sweep engine.

The contract under test: every element of
``simulate_fetch_sweep(compressed, trace, configs)`` is bit-identical
to ``simulate_fetch_reference(compressed, trace, config)`` — the
readable oracle, not the engine itself (``simulate_fetch`` is a one-point
sweep) — including configurations the factored engine cannot model (a subclassed
penalty table), which must fall back per-config without poisoning the
rest of the batch.  Hypothesis drives randomized grids over geometry,
scheme, predictor, ATB shape, L0 capacity and bus width; the unit tests
cover the degenerate shapes and the store-backed ``run_sweep`` wrapper.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sweep import expand_grid, run_sweep
from repro.errors import ConfigurationError
from repro.fetch.config import CacheGeometry, FetchConfig, PenaltyTable
from repro.fetch.engine import simulate_fetch, simulate_fetch_reference
from repro.fetch.sweep import (
    config_from_json,
    config_to_json,
    simulate_fetch_sweep,
    simulate_fetch_sweep_multi,
    sweep_supported,
)

#: fetch scheme -> compression-scheme key of the image it runs on.
SCHEME_IMAGE = {"base": "base", "tailored": "tailored",
                "compressed": "full"}

#: Valid geometries (power-of-two set counts) spanning the axes.
GEOMETRIES = [
    (512, 2, 16), (640, 2, 40), (1280, 2, 40),
    (1024, 2, 32), (2048, 4, 32), (4096, 4, 64),
]


class TracingPenaltyTable(PenaltyTable):
    """A subclass with stock behavior — unsupported *by type*, so the
    engine must route configs carrying it through the reference."""


def _geometry(point):
    capacity, ways, line = point
    return CacheGeometry(
        name=f"t{capacity}x{ways}x{line}",
        capacity_bytes=capacity,
        ways=ways,
        line_bytes=line,
    )


@st.composite
def fetch_configs(draw, schemes=tuple(SCHEME_IMAGE)):
    scheme = draw(st.sampled_from(schemes))
    atb_entries, atb_ways = draw(
        st.sampled_from([(32, 4), (64, 4), (128, 4), (256, 8)])
    )
    return FetchConfig(
        scheme=scheme,
        cache=_geometry(draw(st.sampled_from(GEOMETRIES))),
        atb_entries=atb_entries,
        atb_ways=atb_ways,
        atb_miss_penalty=draw(st.integers(min_value=0, max_value=4)),
        l0_capacity_ops=draw(st.sampled_from([4, 8, 32, 128])),
        bus_bytes=draw(st.sampled_from([4, 8, 16])),
        predictor=draw(st.sampled_from(["block", "gshare"])),
        gshare_history_bits=draw(st.integers(min_value=2, max_value=14)),
    )


@pytest.fixture(scope="module")
def sweep_images(compress_study):
    return {
        scheme: compress_study.compressed(key)
        for scheme, key in SCHEME_IMAGE.items()
    }


@pytest.fixture(scope="module")
def nblocks(sweep_images):
    return len(sweep_images["compressed"].image)


# ------------------------------------------------------------ properties
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sweep_matches_sequential_on_random_grids(
    data, sweep_images, nblocks
):
    trace = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=nblocks - 1),
            min_size=0,
            max_size=300,
        )
    )
    grid = data.draw(
        st.lists(fetch_configs(), min_size=1, max_size=6)
    )
    batch = simulate_fetch_sweep_multi(sweep_images, trace, grid)
    assert len(batch) == len(grid)
    for config, metrics in zip(grid, batch):
        expected = simulate_fetch_reference(
            sweep_images[config.scheme], trace, config
        )
        assert metrics == expected


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_unsupported_configs_fall_back_without_poisoning(
    data, sweep_images, nblocks
):
    """Mix supported points with subclassed-penalty points: the batch
    must answer both exactly, the latter via per-config fallback."""
    trace = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=nblocks - 1),
            min_size=1,
            max_size=200,
        )
    )
    grid = data.draw(
        st.lists(fetch_configs(), min_size=2, max_size=5)
    )
    odd_table = TracingPenaltyTable()
    unsupported_at = data.draw(
        st.integers(min_value=0, max_value=len(grid) - 1)
    )
    grid = [
        config
        if index != unsupported_at
        else FetchConfig(
            scheme=config.scheme,
            cache=config.cache,
            atb_entries=config.atb_entries,
            atb_ways=config.atb_ways,
            atb_miss_penalty=config.atb_miss_penalty,
            l0_capacity_ops=config.l0_capacity_ops,
            bus_bytes=config.bus_bytes,
            predictor=config.predictor,
            gshare_history_bits=config.gshare_history_bits,
            penalties=odd_table,
        )
        for index, config in enumerate(grid)
    ]
    assert not sweep_supported(grid[unsupported_at])
    batch = simulate_fetch_sweep_multi(sweep_images, trace, grid)
    for config, metrics in zip(grid, batch):
        assert metrics == simulate_fetch_reference(
            sweep_images[config.scheme], trace, config
        )


@settings(max_examples=30, deadline=None)
@given(config=fetch_configs())
def test_config_json_roundtrip(config):
    rebuilt = config_from_json(config_to_json(config))
    assert config_to_json(rebuilt) == config_to_json(config)
    assert rebuilt.scheme == config.scheme
    assert rebuilt.cache.capacity_bytes == config.cache.capacity_bytes
    assert rebuilt.cache.ways == config.cache.ways
    assert rebuilt.cache.line_bytes == config.cache.line_bytes


# ------------------------------------------------------------ degenerate
def test_single_config_grid_is_one_simulate_fetch(sweep_images):
    trace = list(range(len(sweep_images["base"].image))) * 3
    config = FetchConfig.for_scheme("base", scaled=True)
    batch = simulate_fetch_sweep(sweep_images["base"], trace, [config])
    assert batch == [
        simulate_fetch(sweep_images["base"], trace, config)
    ]
    assert batch == [
        simulate_fetch_reference(sweep_images["base"], trace, config)
    ]


def test_empty_trace_and_empty_grid(sweep_images):
    config = FetchConfig.for_scheme("compressed", scaled=True)
    batch = simulate_fetch_sweep(
        sweep_images["compressed"], [], [config]
    )
    assert batch == [
        simulate_fetch_reference(sweep_images["compressed"], [], config)
    ]
    assert simulate_fetch_sweep_multi(sweep_images, [0, 1], []) == []


def test_multi_requires_an_image_per_scheme(sweep_images):
    config = FetchConfig.for_scheme("tailored", scaled=True)
    with pytest.raises(ConfigurationError, match="tailored"):
        simulate_fetch_sweep_multi(
            {"base": sweep_images["base"]}, [0], [config]
        )


def test_unknown_scheme_raises(sweep_images):
    config = FetchConfig.for_scheme("base", scaled=True)
    bad = FetchConfig(
        scheme="ideal",
        cache=config.cache,
    )
    with pytest.raises(ConfigurationError, match="ideal"):
        simulate_fetch_sweep(sweep_images["base"], [0], [bad])


def test_config_json_rejects_subclassed_table():
    config = FetchConfig.for_scheme("base", scaled=True)
    odd = FetchConfig(
        scheme="base", cache=config.cache,
        penalties=TracingPenaltyTable(),
    )
    with pytest.raises(ConfigurationError, match="PenaltyTable"):
        config_to_json(odd)


def test_config_from_json_rejects_malformed():
    with pytest.raises(ConfigurationError):
        config_from_json({"scheme": "base"})  # no cache
    with pytest.raises(ConfigurationError):
        config_from_json("not a dict")


# ------------------------------------------------------------ expand_grid
def test_expand_grid_collapses_inert_axes():
    grid = expand_grid(
        ("base", "compressed"),
        caches=[(1280, 2, 40)],
        l0_capacities=(8, 32),
        predictors=("block",),
        gshare_bits=(4, 8, 12),
    )
    base = [c for c in grid if c.scheme == "base"]
    comp = [c for c in grid if c.scheme == "compressed"]
    # L0 only matters under compressed; gshare width not under block.
    assert len(base) == 1
    assert sorted(c.l0_capacity_ops for c in comp) == [8, 32]


def test_expand_grid_rejects_unknown_scheme():
    with pytest.raises(ConfigurationError, match="ideal"):
        expand_grid(("ideal",))


# --------------------------------------------------------- run_sweep/store
def test_run_sweep_matches_study_and_warms_store(compress_study):
    grid = expand_grid(
        ("base", "tailored", "compressed"),
        caches=[(1280, 2, 40), (1024, 2, 32)],
        predictors=("block", "gshare"),
    )
    results = run_sweep(
        "compress", grid, scale=compress_study.scale
    )
    assert len(results) == len(grid)
    for config, metrics in zip(grid, results):
        # Same store digests, same values as the figure-study path.
        assert metrics == compress_study.fetch_metrics(
            config.scheme, config
        )
    # Duplicate points answer from the first occurrence.
    doubled = list(grid) + [grid[0]]
    again = run_sweep("compress", doubled, scale=compress_study.scale)
    assert again[-1] == again[0]
    assert again[: len(grid)] == results

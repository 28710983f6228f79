"""The columnar sweep engine must beat one replay per config.

A 64-point cache/ATB/L0/predictor grid on ``compress@6`` (the trace
repeated twice) runs through ``simulate_fetch_sweep_multi`` and through
one ``simulate_fetch`` call per config.  Every point must match, four
seeded points must match ``simulate_fetch_reference``, and the batched
run must be at least 3× faster, best of two timings each.  The engine's
whole point is the factored pass, so a collapse to ~1× is a regression
even when every output stays identical; the 3× floor leaves slack for
noisy shared runners.

Run it with::

    PYTHONPATH=src python -m pytest -q benchmarks/test_sweep_speed.py
"""

from __future__ import annotations

import random
import time

from repro.core.study import study_for
from repro.core.sweep import expand_grid
from repro.fetch.engine import simulate_fetch, simulate_fetch_reference
from repro.fetch.sweep import simulate_fetch_sweep_multi
from repro.runtime.tasks import FETCH_IMAGE_KEYS

_SEED = 0x1999
_SCHEMES = ("base", "tailored", "compressed")
_REFERENCE_SAMPLES = 4
_REPEATS = 2
_MIN_SPEEDUP = 3.0


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_sweep_grid_is_identical_and_faster():
    study = study_for("compress", 6)
    images = {
        scheme: study.compressed(FETCH_IMAGE_KEYS[scheme])
        for scheme in _SCHEMES
    }
    trace = list(study.run.block_trace) * 2
    # 3 schemes × 2 caches × 4 ATBs × 2 predictors, with the L0 axis
    # expanding only under the compressed scheme: 16 + 16 + 32 points.
    grid = expand_grid(
        _SCHEMES,
        caches=[(1280, 2, 40), (1024, 2, 32)],
        atbs=[(32, 4), (64, 4), (128, 4), (256, 8)],
        predictors=("block", "gshare"),
        l0_capacities=(8, 32),
    )
    assert len(grid) == 64

    def sequential():
        return [
            simulate_fetch(images[config.scheme], trace, config)
            for config in grid
        ]

    def batched():
        return simulate_fetch_sweep_multi(images, trace, grid)

    # The identity pass doubles as the warm-up for both sides.
    expected = sequential()
    actual = batched()
    assert actual == expected
    # Both sides run the columnar engine (simulate_fetch is a one-point
    # sweep), so sampled points are also checked against the oracle.
    for index in random.Random(_SEED).sample(
        range(len(grid)), _REFERENCE_SAMPLES
    ):
        config = grid[index]
        assert actual[index] == simulate_fetch_reference(
            images[config.scheme], trace, config
        ), config

    sequential_s = _best_of(sequential)
    batched_s = _best_of(batched)
    speedup = sequential_s / batched_s
    print(
        f"\nsweep_grid: {len(grid)} configs identical, "
        f"{sequential_s:.3f} s sequential vs {batched_s:.3f} s batched "
        f"({speedup:.2f}x)"
    )
    assert speedup >= _MIN_SPEEDUP, (
        f"sweep speedup collapsed to {speedup:.2f}x "
        f"(floor {_MIN_SPEEDUP}x)"
    )

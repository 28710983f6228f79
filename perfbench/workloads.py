"""The three workloads: what a pass requests and how it is checked.

Each workload has a one-off :meth:`setup`, a per-pass :meth:`prepare`
(both counted as set-up), the timed :meth:`run`, and :meth:`check`,
which runs the oracle checks on a pass's results outside the timed
region and returns the keys of the requests that failed.  A request
fails when it raised, when an oracle check on its benchmark or its row
failed, or when its result differs from the first pass's.
"""

from __future__ import annotations

import functools
import gc
import pathlib
import random
import sys
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from perfbench import oracle

#: Fetch results per pass compared with the reference model.
FETCH_SAMPLES = 2

#: Design-sweep grid: 2 cache shapes x 2 ATBs x 2 predictors, times
#: 1 L0 size for base and tailored and 3 for compressed and hybrid.
GRID_POINTS = 64


@dataclass
class Context:
    """What every workload is built from."""

    seed: int
    benchmarks: Sequence[str]
    scale: Optional[int]
    workdir: pathlib.Path
    inject: Optional[str] = None
    rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)


class Workload:
    """Shared bookkeeping: oracle expectations and first-pass digests."""

    #: Does every pass compress afresh (so every pass's images are new)?
    produces_images_each_pass = False

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.first_digests: Dict[str, str] = {}
        self._expected: Dict[str, int] = {}

    def run(self, tracer) -> Dict[str, object]:
        """One pass: every request of :meth:`calls`, in order."""
        results: Dict[str, object] = {}
        for key, call in self.calls():
            if tracer is not None:
                tracer.request = key
            try:
                results[key] = call()
            except Exception as exc:  # a failed request, counted
                _log_exception(key, exc)
                results[key] = exc
        return results

    # ---------------------------------------------------------- helpers
    def _store_dir(self, index: int) -> pathlib.Path:
        return self.ctx.workdir / f"store-{index}"

    def _use_store(self, path: pathlib.Path) -> None:
        from repro import runtime

        runtime.configure(cache_dir=path)

    def store_entries(self) -> int:
        from repro import runtime

        return runtime.default_store().stats().entries

    def expected_checksum(self, bench: str) -> int:
        if bench not in self._expected:
            value = oracle.expected_checksum(bench, self.ctx.scale)
            corrupt = self.ctx.inject == "checksum"
            if corrupt and bench == self.ctx.benchmarks[0]:
                value += 1
            self._expected[bench] = value
        return self._expected[bench]

    def _bad_benchmarks(self, index: int) -> Set[str]:
        """Benchmarks whose trace or compressed images fail an oracle."""
        from repro.core.study import study_for

        verify_images = self.produces_images_each_pass or index == 0
        bad = set()
        for bench in self.ctx.benchmarks:
            study = study_for(bench, self.ctx.scale)
            if not oracle.checksum_ok(study, self.expected_checksum(bench)):
                _log(f"oracle: {bench} checksum mismatch")
                bad.add(bench)
            if verify_images:
                for key in oracle.bad_images(study):
                    _log(f"oracle: {bench} {key} image mis-decodes")
                    bad.add(bench)
        return bad

    def _fetch_ok(self, bench: str, config, got) -> bool:
        from repro.core.study import study_for

        study = study_for(bench, self.ctx.scale)
        if oracle.fetch_matches_reference(study, config, got):
            return True
        _log(f"oracle: {bench} {config.scheme} fetch differs from reference")
        return False

    def _compare_digests(self, results: Dict[str, object]) -> Set[str]:
        """Keys whose result differs from the first pass's."""
        changed = set()
        for key, value in results.items():
            if isinstance(value, Exception):
                continue
            value_digest = oracle.digest(value)
            first = self.first_digests.setdefault(key, value_digest)
            if first != value_digest:
                _log(f"oracle: {key} differs from the first pass")
                changed.add(key)
        return changed

    def rows_digest(self) -> str:
        """One digest over every request's first result, order-free."""
        return oracle.digest(sorted(self.first_digests.items()))


class PaperWorkload(Workload):
    """Every registered experiment x benchmark, one row per request."""

    def __init__(self, ctx: Context, *, warm: bool) -> None:
        from repro.core.experiments import EXPERIMENTS

        super().__init__(ctx)
        self.warm = warm
        self.produces_images_each_pass = not warm
        self.experiments = EXPERIMENTS
        self.requests = [
            (exp_id, bench) for exp_id in EXPERIMENTS
            for bench in ctx.benchmarks
        ]
        ctx.rng.shuffle(self.requests)

    def setup(self) -> None:
        if self.warm:
            self._use_store(self._store_dir(0))
            self.run(None)  # fills the store the timed passes read

    def prepare(self, index: int) -> None:
        from repro import runtime
        from repro.core.study import clear_caches

        if not self.warm:
            self._use_store(self._store_dir(index))
        clear_caches()
        runtime.source_fingerprint()
        gc.collect()

    def calls(self):
        for exp_id, bench in self.requests:
            runner = self.experiments[exp_id].runner
            yield f"{exp_id}/{bench}", functools.partial(
                runner, benchmarks=[bench], scale=self.ctx.scale
            )

    def check(self, index: int, results: Dict[str, object]) -> Set[str]:
        from repro.core.sweep import expand_grid, run_sweep

        bad = self._bad_benchmarks(index)
        schemes = ("base", "tailored", "compressed", "hybrid", "hybrid:static")
        pairs = [(b, s) for b in self.ctx.benchmarks for s in schemes]
        for bench, scheme in self.ctx.rng.sample(pairs, FETCH_SAMPLES):
            config = expand_grid((scheme,))[0]
            got = run_sweep(bench, [config], scale=self.ctx.scale)[0]
            if not self._fetch_ok(bench, config, got):
                bad.add(bench)
        failed = self._compare_digests(results)
        for key, value in results.items():
            exp_id, bench = key.split("/")
            if isinstance(value, Exception) or bench in bad:
                failed.add(key)
            elif exp_id == "static" and not oracle.static_row_bracketed(
                value
            ):
                _log(f"oracle: {key} simulated cycles outside the bounds")
                failed.add(key)
        return failed


class SweepWorkload(Workload):
    """One seeded ``run_sweep`` grid per benchmark, into an empty store."""

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.grid = design_grid(ctx.rng)

    def setup(self) -> None:
        from repro.core.study import study_for
        from repro.runtime.tasks import fetch_image_key

        self._use_store(self._store_dir(0))
        schemes = {fetch_image_key(c.scheme) for c in self.grid}
        for bench in self.ctx.benchmarks:
            study = study_for(bench, self.ctx.scale)
            study.run
            for scheme in sorted(schemes):
                study.compressed(scheme)

    def prepare(self, index: int) -> None:
        self._use_store(self._store_dir(index + 1))
        gc.collect()

    def calls(self):
        from repro.core.sweep import run_sweep

        for bench in self.ctx.benchmarks:
            yield bench, functools.partial(
                run_sweep, bench, self.grid, scale=self.ctx.scale
            )

    def check(self, index: int, results: Dict[str, object]) -> Set[str]:
        bad = self._bad_benchmarks(index)
        pairs = [
            (bench, point)
            for bench in self.ctx.benchmarks
            for point in range(len(self.grid))
        ]
        for bench, point in self.ctx.rng.sample(pairs, FETCH_SAMPLES):
            got = results[bench]
            if isinstance(got, Exception):
                continue
            if not self._fetch_ok(bench, self.grid[point], got[point]):
                bad.add(bench)
        failed = self._compare_digests(results)
        for bench, value in results.items():
            if isinstance(value, Exception) or bench in bad:
                failed.add(bench)
        return failed


def design_grid(rng: random.Random) -> List:
    """A seeded design-space grid of exactly :data:`GRID_POINTS` points.

    Each axis draws a fixed number of distinct values, so the point
    count, and the number of distinct predictor, ATB, cache and L0
    components the engine shares, is the same for every seed.  Base
    lines hold 40-bit ops (40 bytes), the others 32 bytes, at the same
    set count and associativity.
    """
    from repro.core.sweep import expand_grid

    shapes = rng.sample(
        [(sets, ways) for sets in (8, 16, 32, 64, 128) for ways in (1, 2, 4)],
        2,
    )
    axes = dict(
        atbs=rng.sample([(32, 2), (64, 4), (128, 4), (256, 4)], 2),
        predictors=("block", "gshare"),
        gshare_bits=(rng.choice((8, 10, 12)),),
        l0_capacities=sorted(rng.sample((8, 16, 32, 64), 3)),
    )

    def caches(line: int):
        return [(sets * ways * line, ways, line) for sets, ways in shapes]

    grid = expand_grid(("base",), caches=caches(40), **axes)
    grid += expand_grid(
        ("tailored", "compressed", "hybrid"), caches=caches(32), **axes
    )
    if len(grid) != GRID_POINTS:
        raise RuntimeError(
            f"design grid has {len(grid)} points, expected {GRID_POINTS}"
        )
    return grid


def make(name: str, ctx: Context) -> Workload:
    if name == "paper-cold":
        return PaperWorkload(ctx, warm=False)
    if name == "paper-warm":
        return PaperWorkload(ctx, warm=True)
    if name == "design-sweep":
        return SweepWorkload(ctx)
    raise ValueError(f"unknown workload {name!r}")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _log_exception(key: str, exc: Exception) -> None:
    _log(f"request {key} raised:")
    traceback.print_exception(type(exc), exc, exc.__traceback__)

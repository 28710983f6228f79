"""End-to-end benchmark of the paper pipeline, with a traced layer breakdown.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 16 \
        --trace 0

Workloads (single process, ``--jobs 1``):

``paper-cold``
    Every registered experiment over every benchmark, one request per
    (experiment, benchmark) row, against an empty store and fresh
    in-process state: what a user pays after any source edit.
``paper-warm``
    The same requests against a store filled during set-up, with
    ``clear_caches()`` before each pass as a new CLI process would.
``design-sweep``
    One seeded :data:`~perfbench.workloads.GRID_POINTS`-point
    ``run_sweep`` grid per benchmark, with the studies prewarmed during
    set-up and the results published into an empty store each pass.

The seed orders the requests, draws the sweep grid and picks which
fetch results are compared with the reference model.  A run repeats
passes until ``--seconds`` of timed passes are spent (at least three),
runs the oracle checks after each pass outside the timed region, and
prints a report followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are end to end:

* ``setup_s``: seconds from process start to the end of the one-off
  set-up (imports, environment, inputs, the warm prefill or the sweep
  prewarm), plus the median per-pass preparation (fresh store,
  ``clear_caches()``, source fingerprint);
* ``wall_s`` / ``cpu_s``: median wall and user+system CPU seconds
  (children included) of a timed pass;
* ``peak_rss_mb``: peak resident memory of this process;
* ``ok_frac``: requests that neither raised nor failed an oracle check,
  over requests attempted (``1 - failed_frac``).

The three times are given at a reference host speed.  A shared host's
speed drifts by a quarter or more over minutes, for this process and
for any other, so each pass is bracketed by two rounds of a fixed
pure-Python workload (:func:`calibrate`), and its times are scaled by
``CALIBRATION_REF_S`` over their mean: a pass that ran while the host
was slow is scaled down by as much as the calibration slowed.  The
log prints the unscaled times and every calibration as well.

With ``--trace 1`` untraced and traced passes alternate; the layer
wrappers of :mod:`perfbench.tracing` record spans only in the traced
ones, the metrics are the per-layer numbers of the median traced pass,
and the spans are written as Chrome trace-event JSON under
``.perfbench/``.

The run pins every ``REPRO_*`` knob, keeps its artifact store in a
fresh directory under ``.perfbench/`` that it removes at exit, and
refuses to run against the user's ``~/.cache/repro``.
"""

import time

T0 = time.perf_counter()  # set-up is timed from process start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("paper-cold", "paper-warm", "design-sweep")

#: Later passes are compared with the first, and a median needs a
#: middle: at least three passes run whatever ``--seconds`` says.
MIN_PASSES = 3

#: Environment the program runs under, whatever the caller exported.
PINNED_ENV = {
    "REPRO_KERNEL": "kernel",
    "REPRO_CACHE": "1",
    "REPRO_JOBS": "1",
    "REPRO_ANALYZE": "0",
    "REPRO_STUDY_CACHE_CAP": "16",
    "REPRO_CACHE_MAX_BYTES": str(512 * 1024 * 1024),
}

#: Seconds one :func:`calibrate` round takes at the reference speed.
CALIBRATION_REF_S = 0.2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class SetupError(Exception):
    """The benchmark cannot run here; nothing is measured."""


@dataclass
class Pass:
    traced: bool
    prep_s: float
    wall_s: float
    cpu_s: float
    #: ``CALIBRATION_REF_S`` over the calibration around the pass.
    scale: float
    attempted: int
    failed: int
    layers: Optional[Dict[str, float]] = None


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--benchmarks",
        help="comma-separated subset of the suite (default: all eight)",
    )
    parser.add_argument(
        "--scale", type=int, help="program scale (default: each one's own)"
    )
    parser.add_argument(
        "--inject",
        choices=("checksum",),
        help="corrupt one oracle expectation, to prove failures count",
    )
    return parser.parse_args(argv)


def pin_environment(store: pathlib.Path, tmp: pathlib.Path) -> Dict[str, str]:
    os.environ.update(PINNED_ENV)
    os.environ["REPRO_CACHE_DIR"] = str(store)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    return {
        name: os.environ[name]
        for name in sorted(PINNED_ENV) + ["REPRO_CACHE_DIR"]
    }


def import_program(store: pathlib.Path) -> None:
    """Import ``repro`` from this checkout's ``src`` and guard its store."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    import repro
    from repro import runtime

    found = pathlib.Path(repro.__file__).resolve().parent
    if found != src / "repro":
        raise SetupError(f"imported repro from {found}, not from {src}")
    active = runtime.runtime_config().cache_dir.resolve()
    user_cache = (pathlib.Path.home() / ".cache" / "repro").resolve()
    if active != store.resolve() or user_cache in (active, *active.parents):
        raise SetupError(f"artifact store resolved to {active}")


def calibrate() -> float:
    """Seconds a fixed round of pure-Python work takes right now.

    Integer arithmetic and dictionary updates, the interpreter work the
    program itself is made of.  It reads no file and touches nothing
    the program uses, so a change to the program cannot change it.
    """
    started = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i & 7
    counts: Dict[int, int] = {}
    for i in range(200_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
    return time.perf_counter() - started


def cpu_seconds() -> float:
    """User + system CPU seconds of this process and its children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def measure(args, workload, tracer) -> List[Pass]:
    """Timed passes until ``args.seconds`` of them are spent."""
    passes: List[Pass] = []
    measured = 0.0
    while len(passes) < MIN_PASSES or (
        measured + measured / len(passes) / 2 < args.seconds
    ):
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        started = time.perf_counter()
        workload.prepare(index)
        prep_s = time.perf_counter() - started
        before = calibrate()
        if traced:
            tracer.begin_pass(index)
        cpu0 = cpu_seconds()
        started = time.perf_counter()
        results = workload.run(tracer if traced else None)
        wall_s = time.perf_counter() - started
        cpu_s = cpu_seconds() - cpu0
        layers = None
        if traced:
            tracer.end_pass()
            layers = tracer.layer_metrics(wall_s)
        after = calibrate()
        scale = 2 * CALIBRATION_REF_S / (before + after)
        if traced:
            layers["store.entries"] = workload.store_entries()
        started = time.perf_counter()
        failed = workload.check(index, results)
        check_s = time.perf_counter() - started
        passes.append(
            Pass(
                traced, prep_s, wall_s, cpu_s, scale,
                len(results), len(failed), layers,
            )
        )
        measured += wall_s
        print(
            f"pass {index} {'traced' if traced else 'untraced'}: "
            f"wall {wall_s:.3f} s, cpu {cpu_s:.3f} s, prep {prep_s:.3f} s, "
            f"checks {check_s:.3f} s, "
            f"calibration {before:.3f}/{after:.3f} s, "
            f"{len(results)} requests, {len(failed)} failed"
        )
    return passes


def end_to_end(
    passes: List[Pass], setup: float, attempted: int, failed: int
) -> Dict[str, float]:
    """The declared metrics; ``setup`` is the scaled one-off set-up."""
    untraced = [p for p in passes if not p.traced]
    return {
        "setup_s": setup + statistics.median(
            p.prep_s * p.scale for p in passes
        ),
        "wall_s": statistics.median(p.wall_s * p.scale for p in untraced),
        "cpu_s": statistics.median(p.cpu_s * p.scale for p in untraced),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(passes: List[Pass]) -> Dict[str, float]:
    """Layer numbers of the median traced pass, plus tracing overhead.

    The overhead compares the traced pass with the untraced median
    rescaled to the host speed the traced pass ran at.
    """
    traced = sorted(
        (p for p in passes if p.traced), key=lambda p: p.wall_s * p.scale
    )
    chosen = traced[len(traced) // 2]
    untraced_wall = statistics.median(
        p.wall_s * p.scale for p in passes if not p.traced
    )
    metrics = dict(chosen.layers)
    metrics["trace.wall_s"] = chosen.wall_s
    metrics["trace.overhead_s"] = chosen.wall_s - untraced_wall / chosen.scale
    return metrics


def print_layer_table(metrics: Dict[str, float]) -> None:
    from perfbench.tracing import LAYERS

    wall = metrics["trace.wall_s"]
    print(f"{'layer':<22}{'calls':>8}{'self_s':>10}{'share':>8}")
    for layer in LAYERS + ("core",):
        calls = metrics.get(f"{layer}.calls", "")
        self_s = metrics[f"{layer}.self_s"]
        print(
            f"{layer:<22}{calls:>8}{self_s:>10.3f}"
            f"{100 * self_s / wall:>7.1f}%"
        )
    print(
        f"{'traced wall':<22}{'':>8}{wall:>10.3f}"
        f"   (tracing overhead {metrics['trace.overhead_s']:+.3f} s)"
    )


def run(args, tmp: pathlib.Path) -> int:
    first_calibration = calibrate()
    store = tmp / "store-0"
    env = pin_environment(store, tmp)
    import_program(store)

    from perfbench import tracing, workloads
    from repro.programs.suite import BENCHMARK_NAMES

    benchmarks = (
        tuple(args.benchmarks.split(",")) if args.benchmarks
        else BENCHMARK_NAMES
    )
    ctx = workloads.Context(
        args.seed, benchmarks, args.scale, tmp, args.inject
    )
    workload = workloads.make(args.workload, ctx)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload.setup()
    once_s = time.perf_counter() - T0 - first_calibration
    setup_scale = 2 * CALIBRATION_REF_S / (first_calibration + calibrate())

    passes = measure(args, workload, tracer)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics = per_layer(passes)
        units = tracing.per_layer_units()
        print_layer_table(metrics)
        path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump_chrome(path)
        print(f"{len(tracer.spans)} spans in {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(passes, once_s * setup_scale, attempted, failed)
        untraced = [p for p in passes if not p.traced]
        print(
            f"unscaled: one-off set-up {once_s:.3f} s, median pass wall "
            f"{statistics.median(p.wall_s for p in untraced):.3f} s, cpu "
            f"{statistics.median(p.cpu_s for p in untraced):.3f} s; "
            f"set-up scale {setup_scale:.3f}"
        )
        units = END_TO_END
    for name, value in sorted(env.items()):
        print(f"env {name}={value}")
    print(f"rows_digest {workload.rows_digest()}")
    print(f"failed_frac {failed / attempted}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    # A terminated run still removes its store (``finally`` below).
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return run(args, tmp)
    except SetupError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

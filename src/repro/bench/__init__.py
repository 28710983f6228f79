"""Continuous fast-path-vs-reference benchmarks (``repro bench``).

Each benchmark times one production fast path (the harness calls it the
*kernel* side) against the reference oracle it replaces, after checking
that both produce identical outputs.

See :mod:`repro.bench.harness` for the differential timing harness and
:mod:`repro.bench.suite` for the named workloads.  The checked-in
``BENCH_fetch.json`` at the repo root is this package's report for the
full (non-quick) run.
"""

from repro.bench.harness import (
    BenchResult,
    Benchmark,
    report_json,
    result_rows,
    run_benchmark,
    run_benchmarks,
    summarize,
)
from repro.bench.suite import BENCHMARKS, BY_NAME

__all__ = [
    "BENCHMARKS",
    "BY_NAME",
    "BenchResult",
    "Benchmark",
    "report_json",
    "result_rows",
    "run_benchmark",
    "run_benchmarks",
    "summarize",
]

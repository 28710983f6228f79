"""Stage instrumentation: wall-time, hit/miss counters, artifact sizes.

Every pass through :func:`repro.runtime.get_or_compute` records into the
process-global :data:`REPORT`; scheduler workers return their report as
JSON and the parent merges it, so ``repro run figN --jobs 8`` still ends
with one coherent :class:`RuntimeReport`.

:func:`capture` additionally tees everything recorded against
:data:`REPORT` *in the current execution context* into a private report,
so a caller can see exactly the stage activity of one block of work
(the ``static`` check scope uses it to prove ``hybrid:static`` runs no
trace stage) while the process-global totals keep accumulating.  The
tee is a :class:`contextvars.ContextVar`, so concurrent threads capture
only their own stage activity.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.utils.tables import format_table

#: Reports that the current execution context tees :data:`REPORT`
#: records into (innermost last); managed only by :func:`capture`.
_captures: ContextVar[Tuple["RuntimeReport", ...]] = ContextVar(
    "repro_metric_captures", default=()
)

#: Stage presentation order in reports (pipeline order).
STAGE_ORDER = ("compile", "trace", "compress", "fetch")


@dataclass
class StageMetrics:
    """Counters for one pipeline stage."""

    stage: str
    hits: int = 0
    misses: int = 0
    errors: int = 0
    seconds: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "seconds": self.seconds,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }


@dataclass
class RuntimeReport:
    """Aggregated stage metrics for one run (mergeable across processes)."""

    stages: Dict[str, StageMetrics] = field(default_factory=dict)
    #: Task failures: ``{"stage", "task_id", "error"}`` per failed task,
    #: where ``error`` is the worker's formatted traceback.
    failures: List[dict] = field(default_factory=list)

    def stage(self, name: str) -> StageMetrics:
        if name not in self.stages:
            self.stages[name] = StageMetrics(name)
        return self.stages[name]

    def _tees(self) -> Tuple["RuntimeReport", ...]:
        """Capture reports to mirror into (only the global REPORT tees)."""
        if self is REPORT:
            return _captures.get()
        return ()

    def record(
        self,
        stage: str,
        *,
        hit: bool,
        seconds: float,
        bytes_read: int = 0,
        bytes_written: int = 0,
    ) -> None:
        metrics = self.stage(stage)
        if hit:
            metrics.hits += 1
        else:
            metrics.misses += 1
        metrics.seconds += seconds
        metrics.bytes_read += bytes_read
        metrics.bytes_written += bytes_written
        for tee in self._tees():
            tee.record(
                stage,
                hit=hit,
                seconds=seconds,
                bytes_read=bytes_read,
                bytes_written=bytes_written,
            )

    def record_failure(
        self, stage: str, task_id: str, error: str
    ) -> None:
        """Count a task failure against its stage and keep the traceback."""
        self.stage(stage).errors += 1
        self.failures.append(
            {"stage": stage, "task_id": task_id, "error": error}
        )
        for tee in self._tees():
            tee.record_failure(stage, task_id, error)

    # ------------------------------------------------------- aggregates
    @property
    def total_hits(self) -> int:
        return sum(m.hits for m in self.stages.values())

    @property
    def total_misses(self) -> int:
        return sum(m.misses for m in self.stages.values())

    @property
    def total_errors(self) -> int:
        return sum(m.errors for m in self.stages.values())

    def _ordered(self):
        known = [s for s in STAGE_ORDER if s in self.stages]
        extra = sorted(set(self.stages) - set(STAGE_ORDER))
        return [self.stages[s] for s in known + extra]

    # -------------------------------------------------------- rendering
    def as_rows(self):
        headers = [
            "stage", "hits", "misses", "hit%", "seconds",
            "read_kb", "written_kb",
        ]
        rows = []
        for m in self._ordered():
            rows.append(
                [
                    m.stage,
                    m.hits,
                    m.misses,
                    100.0 * m.hit_rate,
                    m.seconds,
                    m.bytes_read / 1024.0,
                    m.bytes_written / 1024.0,
                ]
            )
        if rows:
            rows.append(
                [
                    "total",
                    self.total_hits,
                    self.total_misses,
                    100.0 * (
                        self.total_hits
                        / max(1, self.total_hits + self.total_misses)
                    ),
                    sum(m.seconds for m in self.stages.values()),
                    sum(m.bytes_read for m in self.stages.values()) / 1024.0,
                    sum(m.bytes_written for m in self.stages.values())
                    / 1024.0,
                ]
            )
        return headers, rows

    def render(self, title: str = "Runtime report") -> str:
        headers, rows = self.as_rows()
        if not rows:
            return f"{title}: no stage activity"
        return format_table(headers, rows, title=title)

    def to_json(self) -> dict:
        return {
            "stages": {m.stage: m.as_dict() for m in self._ordered()},
            "failures": list(self.failures),
            "totals": {
                "hits": self.total_hits,
                "misses": self.total_misses,
                "errors": self.total_errors,
                "seconds": sum(m.seconds for m in self.stages.values()),
            },
        }

    def merge_json(self, payload: dict) -> None:
        """Fold a worker's ``to_json()`` output into this report."""
        for tee in self._tees():
            tee.merge_json(payload)
        for name, counters in (payload or {}).get("stages", {}).items():
            metrics = self.stage(name)
            metrics.hits += int(counters.get("hits", 0))
            metrics.misses += int(counters.get("misses", 0))
            metrics.errors += int(counters.get("errors", 0))
            metrics.seconds += float(counters.get("seconds", 0.0))
            metrics.bytes_read += int(counters.get("bytes_read", 0))
            metrics.bytes_written += int(counters.get("bytes_written", 0))
        self.failures.extend((payload or {}).get("failures", ()))

    def reset(self) -> None:
        self.stages.clear()
        self.failures.clear()


#: Process-global collector.
REPORT = RuntimeReport()


def reset_metrics() -> None:
    REPORT.reset()


@contextmanager
def capture():
    """Tee everything recorded against :data:`REPORT` into a new report.

    Yields the private :class:`RuntimeReport`; on exit the tee is
    removed.  Captures nest (inner captures see the same records) and
    are context-local, so concurrent threads never see each other's
    stage activity.  The global :data:`REPORT` keeps recording
    normally — a capture observes, it does not divert.
    """
    report = RuntimeReport()
    token = _captures.set(_captures.get() + (report,))
    try:
        yield report
    finally:
        _captures.reset(token)

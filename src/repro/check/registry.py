"""Declarative invariant registry for `repro check`.

An *invariant* is a named predicate over the repository's own artifacts
(compressed images, ATT sizing, fetch metrics, the artifact store).  A
check function receives a :class:`CheckContext` (which artifacts to look
at, deterministic randomness, tamper hooks) and a :class:`Recorder`, and
reports what it examined and every violation it found.  Violations are
*data*, not exceptions — the runner collects them into a report and the
CLI turns them into an exit code.

Registering is declarative::

    @invariant(
        "huffman-roundtrip",
        scope="compression",
        description="every scheme decodes back to the original ops",
    )
    def _roundtrip(ctx: CheckContext, rec: Recorder) -> None:
        ...

Import order defines report order; :mod:`repro.check.invariants` and
:mod:`repro.check.faults` populate the registry on import.
"""

from __future__ import annotations

import hashlib
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import CheckError

#: Registry scopes, in presentation order.
SCOPES = (
    "compression",
    "att",
    "fetch",
    "sweep",
    "emulator",
    "structure",
    "store",
    "analysis",
    "static",
)

#: Recognized ``--inject`` tamper tags (CI uses these to prove the
#: checker actually fails on a seeded violation).
INJECT_TAGS = ("roundtrip", "conservation")


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    invariant: str
    subject: str
    message: str

    def render(self) -> str:
        return f"{self.invariant}[{self.subject}]: {self.message}"


class Recorder:
    """Collects what one invariant examined and what it found wrong."""

    def __init__(self, invariant_name: str) -> None:
        self.invariant_name = invariant_name
        self.checked = 0
        self.violations: list = []

    def checked_one(self, count: int = 1) -> None:
        """Note that ``count`` more subjects were examined."""
        self.checked += count

    def violation(self, subject: str, message: str) -> None:
        self.violations.append(
            Violation(self.invariant_name, subject, message)
        )

    def expect(self, condition: bool, subject: str, message: str) -> bool:
        """Count one check; record a violation unless ``condition``."""
        self.checked += 1
        if not condition:
            self.violation(subject, message)
        return condition

    def expect_equal(
        self, actual, expected, subject: str, what: str
    ) -> bool:
        return self.expect(
            actual == expected,
            subject,
            f"{what}: expected {expected!r}, got {actual!r}",
        )


@dataclass
class CheckContext:
    """Everything a check function may consult.

    ``seed`` drives *all* randomness through :meth:`rng` — two runs with
    the same seed examine identical random traces and fault patterns
    (Python's own ``hash()`` is salted per process, so tags are folded
    in with sha256 instead).
    """

    benchmarks: Tuple[str, ...]
    scale: Optional[int] = None
    seed: int = 1999
    quick: bool = True
    #: Active ``--inject`` tamper tags; checks consult
    #: :meth:`tampered` to corrupt their own observations, proving the
    #: harness detects what it claims to detect.
    inject: frozenset = frozenset()

    def rng(self, tag: str) -> random.Random:
        """A fresh deterministic generator for one (seed, tag) pair."""
        digest = hashlib.sha256(
            f"{self.seed}:{tag}".encode("utf-8")
        ).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def tampered(self, tag: str) -> bool:
        return tag in self.inject

    def study(self, benchmark: str):
        from repro.core.study import study_for

        return study_for(benchmark, self.scale)


@dataclass(frozen=True)
class Invariant:
    """One registered check."""

    name: str
    scope: str
    description: str
    func: Callable[[CheckContext, Recorder], None]
    #: Quick-mode invariants run under ``repro check --quick``; the rest
    #: only under ``--full``.
    quick: bool = True


#: Name -> invariant, in registration order.
REGISTRY: "OrderedDict[str, Invariant]" = OrderedDict()


def invariant(
    name: str,
    *,
    scope: str,
    description: str,
    quick: bool = True,
) -> Callable:
    """Class-level decorator registering a check function."""
    if scope not in SCOPES:
        raise CheckError(
            f"invariant {name!r} has unknown scope {scope!r} "
            f"(expected one of {SCOPES})"
        )

    def register(func: Callable[[CheckContext, Recorder], None]):
        if name in REGISTRY:
            raise CheckError(f"duplicate invariant name {name!r}")
        REGISTRY[name] = Invariant(
            name=name,
            scope=scope,
            description=description,
            func=func,
            quick=quick,
        )
        return func

    return register


def select(
    *,
    quick: bool = True,
    scopes: Optional[Iterable[str]] = None,
    names: Optional[Sequence[str]] = None,
) -> Dict[str, Invariant]:
    """The invariants one run should execute, in registration order."""
    wanted_scopes = None if scopes is None else set(scopes)
    if names is not None:
        unknown = [n for n in names if n not in REGISTRY]
        if unknown:
            raise CheckError(
                f"unknown invariant(s): {', '.join(unknown)} "
                f"(known: {', '.join(REGISTRY)})"
            )
    selected = OrderedDict()
    for name, inv in REGISTRY.items():
        if names is not None and name not in names:
            continue
        if wanted_scopes is not None and inv.scope not in wanted_scopes:
            continue
        if quick and not inv.quick:
            continue
        selected[name] = inv
    return selected

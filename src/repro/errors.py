"""Exception hierarchy for the repro package.

All package-specific failures derive from :class:`ReproError` so callers can
catch the library's own errors without masking programming mistakes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class EncodingError(ReproError):
    """A value does not fit an instruction field or format."""


class DecodingError(ReproError):
    """A bit pattern cannot be decoded under the active encoding."""


class CompilerError(ReproError):
    """The compiler was given an ill-formed program."""


class ScheduleError(CompilerError):
    """Instruction scheduling could not satisfy machine constraints."""

class RegisterAllocationError(CompilerError):
    """Register allocation ran out of architectural registers."""


class EmulationError(ReproError):
    """The emulator encountered an invalid machine state."""


class CompressionError(ReproError):
    """A compression scheme could not encode or verify an image."""


class ConfigurationError(ReproError):
    """A simulator or study was configured inconsistently."""


class SchedulerError(ReproError, RuntimeError):
    """A task failed inside the scheduler.

    Carries the failing tasks' worker tracebacks in its message and, on
    the inline path, chains the original exception.  Also a
    :class:`RuntimeError` so callers that predate the dedicated class
    keep working.
    """


class CheckError(ReproError):
    """The invariant-checking subsystem could not run a check.

    Distinct from a check *failing* — violations are data
    (:class:`repro.check.registry.Violation`), not exceptions.
    """


class AnalysisError(ReproError):
    """The static-analysis subsystem was used inconsistently, or the
    ``REPRO_ANALYZE`` post-compile gate rejected an image.

    Ordinary verifier findings are data
    (:class:`repro.analysis.diagnostics.Diagnostic`), not exceptions;
    this is raised only for malformed analysis inputs and for the
    opt-in gate, which promotes error-severity diagnostics to a hard
    failure."""

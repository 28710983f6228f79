"""The TEPIC emulator (the paper's YULA stand-in).

Executes a compiled :class:`~repro.isa.image.ProgramImage` with VLIW
semantics — within a MultiOp all sources are read before any destination
is written — and emits the block-level instruction-address trace the
cache studies consume, exactly the role of the paper's compiler-inserted
trace annotations ("these annotations are not included when determining
instruction addresses or performing compression" — here the trace is a
side channel by construction).

:func:`emulate` is the production entry point: it runs the threaded-code
kernel (:func:`~repro.emulator.kernel.run_image_kernel`) and is what the
study pipeline calls.  The interpretive :func:`run_image` is the
behavioral definition of the machine, kept as the oracle that checks,
tests and benches compare the kernel against.
"""

from repro.emulator.machine import (
    DEFAULT_MAX_MOPS,
    Machine,
    RunResult,
    emulate,
    run_image,
)

__all__ = [
    "DEFAULT_MAX_MOPS",
    "Machine",
    "RunResult",
    "emulate",
    "run_image",
]

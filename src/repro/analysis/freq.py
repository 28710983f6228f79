"""Static (profile-free) block-frequency estimation.

Ball–Larus-style heuristics assign each CFG edge a branch probability —
loop back edges are strongly taken, everything else splits the residual
mass — and an iterative flow fixpoint propagates an entry frequency of
1.0 through the graph: ``f(b) = [b = entry] + sum over preds p of
f(p) * prob(p -> b)``.  On a reducible graph this converges to the
closed-form loop-nest weights (a depth-d block under 0.9 back-edge
probability sits near ``10^d``); irreducible regions and structurally
infinite loops are handled by an iteration cap plus a clamp, which
costs accuracy but never termination.

:func:`static_heat_profile` packages the result in the exact shape
:func:`repro.compression.adaptive.heat_profile` produces from a trace —
a per-block tuple of non-negative *integers* (quantized at 1e6 per
entry visit), so hot-set selection, ``HybridImage`` digests and the
store all work unchanged with zero trace runs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.dataflow import (
    predecessors,
    reachable,
    reverse_postorder,
)
from repro.analysis.imagecfg import interprocedural_cfg
from repro.analysis.loops import back_edges

Cfg = Dict[int, Sequence[int]]
Edge = Tuple[int, int]

#: Probability mass a conditional's loop back edges share (Ball–Larus
#: "loop branch heuristic": backward branches are usually taken).
BACK_EDGE_MASS = 0.9

#: Fixpoint iteration cap.  Reducible nests of realistic depth converge
#: far sooner; the cap only bites on irreducible or infinite loops.
MAX_ITERATIONS = 120

#: Convergence tolerance (max absolute per-block delta).
EPSILON = 1e-9

#: Frequency ceiling — keeps structurally infinite loops finite.
FREQUENCY_CLAMP = 1e12

#: Quantization step for the integer heat profile.
HEAT_QUANTUM = 1_000_000


def branch_probabilities(cfg: Cfg, entry: int) -> Dict[Edge, float]:
    """``{(u, v): probability}`` for every edge among reachable blocks.

    Back edges at a branch split :data:`BACK_EDGE_MASS` between them,
    the remaining successors split the residue; a branch whose
    successors are all back edges (or none are) splits uniformly.
    Parallel edges cannot occur (successor lists are deduplicated).
    """
    live = reachable(cfg, entry)
    backs = set(back_edges(cfg, entry))
    probs: Dict[Edge, float] = {}
    for u in sorted(live):
        succs = [v for v in cfg.get(u, ()) if v in live]
        if not succs:
            continue
        if len(succs) == 1:
            probs[(u, succs[0])] = 1.0
            continue
        back = [v for v in succs if (u, v) in backs]
        other = [v for v in succs if (u, v) not in backs]
        if not back or not other:
            share = 1.0 / len(succs)
            for v in succs:
                probs[(u, v)] = share
            continue
        for v in back:
            probs[(u, v)] = BACK_EDGE_MASS / len(back)
        for v in other:
            probs[(u, v)] = (1.0 - BACK_EDGE_MASS) / len(other)
    return probs


def block_frequencies(
    cfg: Cfg,
    entry: int,
    probabilities: Optional[Dict[Edge, float]] = None,
) -> Dict[int, float]:
    """Expected visit count per reachable block (entry normalized to 1).

    Gauss–Seidel in reverse postorder: within one sweep a block reads
    the already-updated frequencies of its earlier predecessors, so a
    reducible loop nest converges geometrically.  Stops at
    :data:`EPSILON` stability or :data:`MAX_ITERATIONS`, clamping at
    :data:`FREQUENCY_CLAMP` so infinite loops stay finite.
    """
    if probabilities is None:
        probabilities = branch_probabilities(cfg, entry)
    order = reverse_postorder(cfg, entry)
    preds = predecessors(cfg)
    freq = {block: 0.0 for block in order}
    freq[entry] = 1.0
    for _ in range(MAX_ITERATIONS):
        delta = 0.0
        for block in order:
            inflow = 1.0 if block == entry else 0.0
            for pred in preds.get(block, ()):
                prob = probabilities.get((pred, block))
                if prob is not None and pred in freq:
                    inflow += freq[pred] * prob
            inflow = min(inflow, FREQUENCY_CLAMP)
            delta = max(delta, abs(inflow - freq[block]))
            freq[block] = inflow
        if delta <= EPSILON:
            break
    return freq


def static_heat_profile(image) -> Tuple[int, ...]:
    """Per-block integer heat estimate, shaped like a trace profile.

    Runs the frequency fixpoint over the interprocedural CFG (so
    callee bodies inherit their call sites' heat) and quantizes each
    frequency at :data:`HEAT_QUANTUM` per entry visit.  Unreachable
    blocks get 0, exactly like blocks a trace never touched.
    """
    cfg = interprocedural_cfg(image)
    profile = [0] * len(image)
    if not profile:
        return ()
    freq = block_frequencies(cfg, image.entry_block)
    for block_id, value in freq.items():
        profile[block_id] = int(round(value * HEAT_QUANTUM))
    return tuple(profile)


__all__ = [
    "BACK_EDGE_MASS",
    "HEAT_QUANTUM",
    "block_frequencies",
    "branch_probabilities",
    "static_heat_profile",
]

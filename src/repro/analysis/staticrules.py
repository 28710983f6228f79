"""Verifier rules over the predictive static analyses.

Three rules keep the loop/frequency/cache-bound machinery honest on
every analyzed program:

* ``loop-structure`` (machine) — natural loops are well-formed
  (header in body, body reachable, header dominates the body) and
  irreducible regions are surfaced as warnings, since loop depths
  around them are heuristic;
* ``static-frequency`` (machine) — the static heat profile has the
  trace-profile shape (one entry per block, non-negative, zero exactly
  where a trace could never go);
* ``cache-bounds`` (encoding) — the must/may classification is
  consistent (no block both always-hit and always-miss, classified
  blocks reachable) and the cycle bracket is non-degenerate.

The *soundness* of the bounds against the simulator is enforced
separately by the ``static`` check scope, which replays real and
randomized traces; these rules are the cheap per-image gate.
"""

from __future__ import annotations

from repro.analysis.dataflow import dominators, reachable
from repro.analysis.freq import HEAT_QUANTUM, static_heat_profile
from repro.analysis.imagecfg import interprocedural_cfg, return_continuations
from repro.analysis.loops import irreducible_edges, loops
from repro.analysis.verifier import RuleContext, rule


@rule(
    "loop-structure",
    kind="machine",
    description="natural loops are well-formed; irreducible flow flagged",
)
def _loop_structure(ctx: RuleContext) -> None:
    image = ctx.image
    if not len(image):
        return
    cfg = interprocedural_cfg(image)
    entry = image.entry_block
    doms = dominators(cfg, entry)
    for loop in loops(cfg, entry):
        ctx.checked()
        if loop.header not in loop.body:
            ctx.error(
                f"loop header {loop.header} missing from its own body",
                block=image.block(loop.header),
            )
        for member in sorted(loop.body):
            if member not in doms:
                ctx.error(
                    f"loop body block {member} is unreachable",
                    block=image.block(member),
                )
            elif loop.header not in doms[member]:
                ctx.error(
                    f"natural-loop header {loop.header} does not "
                    f"dominate body block {member}",
                    block=image.block(member),
                    hint="back-edge detection and dominators disagree",
                )
    # RET-continuation edges on recursive programs retreat without being
    # dominator back edges; that is recursion, not irreducible flow.
    returns = return_continuations(image)
    for tail, header in irreducible_edges(cfg, entry):
        ctx.checked()
        if header in returns.get(tail, ()):
            continue
        ctx.warning(
            f"irreducible control flow: retreating edge {tail} -> "
            f"{header} is not a dominator back edge",
            block=image.block(tail),
            hint="loop depths around this region are heuristic",
        )


@rule(
    "static-frequency",
    kind="machine",
    description="static heat profile is shaped like a trace profile",
)
def _static_frequency(ctx: RuleContext) -> None:
    image = ctx.image
    if not len(image):
        return
    profile = static_heat_profile(image)
    ctx.checked()
    if len(profile) != len(image):
        ctx.error(
            f"static heat profile has {len(profile)} entries for "
            f"{len(image)} blocks"
        )
        return
    cfg = interprocedural_cfg(image)
    entry = image.entry_block
    live = set(dominators(cfg, entry))
    ctx.checked()
    if profile[entry] < HEAT_QUANTUM:
        ctx.error(
            f"entry block heat {profile[entry]} is below one visit "
            f"({HEAT_QUANTUM})",
            block=image.block(entry),
        )
    for block_id, heat in enumerate(profile):
        ctx.checked()
        if heat < 0:
            ctx.error(
                f"negative static heat {heat}", block=image.block(block_id)
            )
        elif heat and block_id not in live:
            ctx.error(
                f"unreachable block has nonzero static heat {heat}",
                block=image.block(block_id),
                hint="a trace can never fetch this block",
            )


@rule(
    "cache-bounds",
    kind="encoding",
    description="must/may classification consistent, bounds bracket sane",
)
def _cache_bounds(ctx: RuleContext) -> None:
    if ctx.geometry is None or not len(ctx.image):
        return  # the baseline fetches untranslated: nothing to bound
    from repro.analysis.cachebound import cycle_bounds
    from repro.compression.registry import fetch_scheme_base
    from repro.fetch.config import FetchConfig

    scheme = ctx.scheme or "compressed"
    if fetch_scheme_base(scheme) not in (
        "base", "tailored", "compressed", "hybrid"
    ):
        scheme = "compressed"
    config = FetchConfig(scheme=scheme, cache=ctx.geometry)
    # One visit per reachable block: exactly the blocks the
    # classification analyzes.
    image = ctx.compressed.image
    live = reachable(interprocedural_cfg(image), image.entry_block)
    counts = [1 if b in live else 0 for b in range(len(image))]
    report = cycle_bounds(ctx.compressed, counts, config)
    classification = report.classification
    for label, cls in (
        ("cache", classification.cache),
        ("atb", classification.atb),
    ):
        ctx.checked()
        both = cls.always_hit & cls.always_miss
        if both:
            ctx.error(
                f"{label}: blocks {sorted(both)} classified both "
                "always-hit and always-miss"
            )
        stray = (cls.always_hit | cls.always_miss) - cls.analyzed
        if stray:
            ctx.error(
                f"{label}: classified blocks {sorted(stray)} were "
                "never analyzed (unreachable)"
            )
    ctx.checked()
    if report.lower > report.upper:
        ctx.error(
            f"degenerate cycle bracket: lower {report.lower} > "
            f"upper {report.upper}"
        )
    if report.fetches and report.lower <= 0:
        ctx.error(
            f"nonpositive lower bound {report.lower} for "
            f"{report.fetches} fetches"
        )

"""Static I-cache/ATB classification and sound fetch-cycle bounds.

Ferdinand-style abstract interpretation over the interprocedural image
CFG: two abstract LRU domains per cache set —

* **must** (ages are upper bounds): a line present in the must state is
  present in *every* concrete cache reaching this point, so a block
  whose lines are all in the must in-state is **always-hit**;
* **may** (ages are lower bounds): a line absent from the may state is
  absent from *every* concrete cache, so a block with any line outside
  the may in-state is **always-miss**.

Everything else is *unclassified* — both outcomes feasible.  The same
machinery classifies the ATB (set = ``block_id & mask``, one "line" per
block).  The L0 buffer is modeled conservatively: an L0-eligible block
may or may not reach the cache, so its cache transfer is the join of
"accessed" and "untouched" — sound without tracking the buffer's
op-count capacity.

:func:`cycle_bounds` combines the classification with the fetch engine's
own per-block cost columns (:func:`~repro.fetch.sweep.penalty_pair`,
:func:`~repro.fetch.sweep.block_span_pairs` — queried, not
re-derived, so the bounds can never drift from Table 1) into per-fetch
feasible-outcome sets, yielding ``lower <= simulated <= upper`` for any
trace with the given per-block visit counts.  The ``static`` check
scope enforces exactly that bracket against the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.dataflow import predecessors, reverse_postorder
from repro.analysis.imagecfg import interprocedural_cfg
from repro.compression.registry import fetch_scheme_base
from repro.errors import ConfigurationError
from repro.fetch.config import FetchConfig

#: One abstract cache: ``{set_index: {line: age}}`` (empty sets omitted
#: so structurally equal states compare equal).  A state is immutable
#: once produced: the domain operations below build new outer dicts,
#: rebuild only the set buckets they change and share every other
#: bucket with their inputs, so a bucket may belong to many states.
State = Dict[int, Dict[int, int]]
Access = Tuple[int, int]


# ------------------------------------------------------------------ domain
def _touch_must(state: State, accesses: Sequence[Access], ways: int) -> State:
    """Must-domain LRU update for a sequence of line accesses.

    Ages are upper bounds: lines strictly younger than the accessed
    line's (upper-bound) age got reordered below it, so only they age.
    """
    out = dict(state)
    for set_index, line in accesses:
        bucket = out.get(set_index, {})
        age = bucket.get(line, ways)
        if not age:
            continue  # already youngest: nothing ages, nothing moves
        new_bucket = {}
        for other, a in bucket.items():
            if other == line:
                continue
            na = a + 1 if a < age else a
            if na < ways:
                new_bucket[other] = na
        new_bucket[line] = 0
        out[set_index] = new_bucket
    return out


def _touch_may(state: State, accesses: Sequence[Access], ways: int) -> State:
    """May-domain LRU update (ages are lower bounds).

    A line at (lower-bound) age at most the accessed line's age may sit
    below it concretely and therefore may age; when the accessed line
    is not in the may state at all the access is a guaranteed concrete
    miss and *every* resident line ages.
    """
    out = dict(state)
    for set_index, line in accesses:
        bucket = out.get(set_index, {})
        age = bucket.get(line)
        new_bucket = {}
        for other, a in bucket.items():
            if other == line:
                continue
            na = a + 1 if age is None or a <= age else a
            if na < ways:
                new_bucket[other] = na
        new_bucket[line] = 0
        out[set_index] = new_bucket
    return out


def _join_must(a: State, b: State) -> State:
    """Intersection with maximal ages (the weaker guarantee survives).

    Returns ``a`` itself when ``b`` weakens none of its guarantees.
    """
    if a is b:
        return a
    out = a
    for set_index, da in a.items():
        db = b.get(set_index)
        if db is da:
            continue
        merged = {}
        if db:
            for line, age in da.items():
                other = db.get(line)
                if other is not None:
                    merged[line] = other if other > age else age
        if merged == da:
            continue
        if out is a:
            out = dict(a)
        if merged:
            out[set_index] = merged
        else:
            del out[set_index]
    return out


def _join_may(a: State, b: State) -> State:
    """Union with minimal ages (any possibility survives).

    Returns ``a`` itself when ``b`` adds no line and lowers no age.
    """
    if a is b:
        return a
    out = a
    for set_index, db in b.items():
        da = a.get(set_index)
        if da is db:
            continue
        if da is None:
            merged = db
        elif da == db:
            continue
        else:
            merged = da
            for line, age in db.items():
                cur = da.get(line)
                if cur is None or age < cur:
                    if merged is da:
                        merged = dict(da)
                    merged[line] = age
            if merged is da:
                continue
            if merged == db:
                merged = db  # share it, so later joins end on ``is``
        if out is a:
            out = dict(a)
        out[set_index] = merged
    return out


def _holds(state: State, accesses: Sequence[Access]) -> bool:
    return all(
        line in state.get(set_index, ()) for set_index, line in accesses
    )


# ------------------------------------------------------------------ solver
def _solve(
    cfg: Dict[int, Sequence[int]],
    order: Sequence[int],
    preds: Dict[int, Sequence[int]],
    transfer: Callable[[int, State], State],
    join: Callable[[State, State], State],
) -> Dict[int, State]:
    """Fixpoint in-state of one domain (must or may) per reachable block.

    ``order`` lists the blocks reachable from the entry ``order[0]`` in
    reverse postorder; ``preds`` maps each block to its predecessors.
    The boundary at the entry is the cold cache — empty must (nothing
    guaranteed resident) *and* empty may (nothing possibly resident):
    the simulator builds its structures empty, so this is both sound
    and precise (first touches classify as compulsory misses).  A block
    joins only predecessors already computed, and the worklist always
    runs the earliest block in reverse postorder, so a loop body
    settles before the code after it runs.  The transfers are monotone
    over a finite lattice, so the fixpoint is unique and the visit
    order changes only its cost.
    """
    entry = order[0]
    rank = {node: index for index, node in enumerate(order)}
    ins: Dict[int, State] = {}
    outs: Dict[int, State] = {}
    heap = [0]
    queued = {0}
    while heap:
        index = heappop(heap)
        queued.discard(index)
        node = order[index]
        state = {} if node == entry else None
        for pred in preds[node]:
            out = outs.get(pred)
            if out is None:
                continue
            state = out if state is None else join(state, out)
        ins[node] = state
        new = transfer(node, state)
        if node in outs and outs[node] == new:
            continue
        outs[node] = new
        for succ in cfg[node]:
            succ_index = rank[succ]
            if succ_index not in queued:
                heappush(heap, succ_index)
                queued.add(succ_index)
    return ins


# ----------------------------------------------------------- classification
@dataclass(frozen=True)
class Classification:
    """Always-hit / always-miss block sets for one structure."""

    always_hit: FrozenSet[int]
    always_miss: FrozenSet[int]
    analyzed: FrozenSet[int]

    @property
    def unclassified(self) -> FrozenSet[int]:
        return self.analyzed - self.always_hit - self.always_miss


@dataclass(frozen=True)
class FetchClassification:
    """Joint I-cache + ATB classification for one (image, config)."""

    cache: Classification
    atb: Classification


def _l0_possible(compressed, config: FetchConfig) -> List[bool]:
    """Can each block's fetch be served by the L0 buffer?

    Mirrors the fetch engine: the buffer exists for compressed/hybrid, serves
    Huffman-tagged blocks, and never holds a block wider than its
    capacity (an oversized block is probed but can never be resident).
    """
    base_scheme = fetch_scheme_base(config.scheme)
    nblocks = len(compressed.image)
    has_buffer = base_scheme in ("compressed", "hybrid")
    if not has_buffer:
        return [False] * nblocks
    if base_scheme == "hybrid":
        tags = compressed.block_scheme_tags()
        if tags is None:
            raise ConfigurationError(
                "hybrid fetch needs an image with per-block scheme tags"
            )
        eligible = [tag == "compressed" for tag in tags]
    else:
        eligible = [True] * nblocks
    cap = config.l0_capacity_ops
    return [
        eligible[bid] and compressed.image.block(bid).op_count <= cap
        for bid in range(nblocks)
    ]


def classify_fetch(
    compressed,
    config: FetchConfig,
    *,
    span_pairs: Optional[Sequence[Sequence[Access]]] = None,
    l0_possible: Optional[Sequence[bool]] = None,
) -> FetchClassification:
    """Must/may classification of the I-cache and the ATB.

    Classification uses each block's *in*-state (the abstract cache
    before the block's own access), matching the simulator's
    probe-then-install order.  ``span_pairs`` and ``l0_possible`` are
    the per-block cache lines and L0 eligibility; a caller that already
    built them for this config passes them in.
    """
    from repro.fetch.sweep import block_span_pairs

    image = compressed.image
    if span_pairs is None:
        span_pairs = block_span_pairs(compressed, config.cache)
    if l0_possible is None:
        l0_possible = _l0_possible(compressed, config)
    cfg = interprocedural_cfg(image)
    order = reverse_postorder(cfg, image.entry_block)
    preds = predecessors(cfg)
    live = frozenset(order)

    def classify(
        accesses: Sequence[Sequence[Access]],
        ways: int,
        buffered: Sequence[bool],
    ) -> Classification:
        def must(bid: int, state: State) -> State:
            updated = _touch_must(state, accesses[bid], ways)
            return _join_must(updated, state) if buffered[bid] else updated

        def may(bid: int, state: State) -> State:
            updated = _touch_may(state, accesses[bid], ways)
            return _join_may(updated, state) if buffered[bid] else updated

        must_in = _solve(cfg, order, preds, must, _join_must)
        may_in = _solve(cfg, order, preds, may, _join_may)
        return Classification(
            always_hit=frozenset(
                b for b in live if _holds(must_in[b], accesses[b])
            ),
            always_miss=frozenset(
                b for b in live if not _holds(may_in[b], accesses[b])
            ),
            analyzed=live,
        )

    # The ATB has no buffer in front of it; FetchConfig guarantees a
    # power-of-two set count.
    atb_mask = config.atb_entries // config.atb_ways - 1
    atb_access = [((bid & atb_mask, bid),) for bid in range(len(image))]
    return FetchClassification(
        cache=classify(span_pairs, config.cache.ways, l0_possible),
        atb=classify(atb_access, config.atb_ways, [False] * len(image)),
    )


# ----------------------------------------------------------------- bounds
@dataclass(frozen=True)
class BoundsReport:
    """Sound fetch-cycle bracket for one (image, config, visit counts)."""

    scheme: str
    lower: int
    upper: int
    fetches: int
    classification: FetchClassification

    def bracket(self, simulated_cycles: int) -> bool:
        return self.lower <= simulated_cycles <= self.upper

    def to_json(self) -> dict:
        cache = self.classification.cache
        atb = self.classification.atb
        return {
            "scheme": self.scheme,
            "lower_cycles": self.lower,
            "upper_cycles": self.upper,
            "fetches": self.fetches,
            "cache_always_hit": len(cache.always_hit),
            "cache_always_miss": len(cache.always_miss),
            "cache_unclassified": len(cache.unclassified),
            "atb_always_hit": len(atb.always_hit),
            "atb_always_miss": len(atb.always_miss),
            "atb_unclassified": len(atb.unclassified),
        }


def cycle_bounds(
    compressed,
    counts: Sequence[int],
    config: FetchConfig,
) -> BoundsReport:
    """``lower <= cycles(any trace with these visit counts) <= upper``.

    ``counts`` is a per-block fetch count (a trace heat profile).  Per
    fetch, the feasible outcome costs are enumerated from the
    classification — L0 hit (when possible), cache hit, cache miss,
    each under both prediction outcomes — and the per-block min/max is
    weighted by the count.  The ATB contribution is additive: the upper
    bound charges every non-always-hit fetch, the lower bound the
    larger of guaranteed always-miss fetches and compulsory first
    touches (one per distinct fetched block).
    """
    from repro.fetch.sweep import block_span_pairs, penalty_pair

    image = compressed.image
    nblocks = len(image)
    if len(counts) != nblocks:
        raise ConfigurationError(
            f"counts length {len(counts)} != block count {nblocks}"
        )
    scheme = config.scheme
    base_scheme = fetch_scheme_base(scheme)
    if base_scheme not in ("base", "tailored", "compressed", "hybrid"):
        raise ConfigurationError(f"unknown fetch scheme {scheme!r}")
    is_hybrid = base_scheme == "hybrid"
    block_tags = compressed.block_scheme_tags() if is_hybrid else None
    if is_hybrid and block_tags is None:
        raise ConfigurationError(
            "hybrid fetch needs an image with per-block scheme tags"
        )

    span_pairs = block_span_pairs(compressed, config.cache)
    l0_possible = _l0_possible(compressed, config)
    classification = classify_fetch(
        compressed, config, span_pairs=span_pairs, l0_possible=l0_possible
    )
    cache_cls = classification.cache
    atb_cls = classification.atb

    penalties = config.penalties
    pen_rows = {
        pen_scheme: (
            penalty_pair(penalties, pen_scheme, True, True),
            penalty_pair(penalties, pen_scheme, False, True),
            penalty_pair(penalties, pen_scheme, True, False),
            penalty_pair(penalties, pen_scheme, False, False),
        )
        for pen_scheme in (
            ("tailored", "compressed") if is_hybrid else (base_scheme,)
        )
    }
    has_buffer = base_scheme in ("compressed", "hybrid")
    buf_hit_cycles = (
        penalties.initiation_cycles(
            "compressed", pred_correct=True, cache_hit=True,
            buffer_hit=True, n=1,
        )
        if has_buffer
        else 0
    )

    lower = upper = 0
    fetches = 0
    for bid in range(nblocks):
        count = counts[bid]
        if not count:
            continue
        fetches += count
        block = image.block(bid)
        tail = block.mop_count - 1
        extra = len(span_pairs[bid]) - 1
        hit_t, hit_f, miss_t, miss_f = pen_rows[
            block_tags[bid] if is_hybrid else base_scheme
        ]
        outcomes = []
        if l0_possible[bid]:
            outcomes.append(buf_hit_cycles + tail)
        hit_possible = bid not in cache_cls.always_miss
        miss_possible = bid not in cache_cls.always_hit
        if not hit_possible and not miss_possible:  # defensive: ⊥ block
            hit_possible = miss_possible = True
        if hit_possible:
            outcomes.append(hit_t[0] + hit_t[1] * extra + tail)
            outcomes.append(hit_f[0] + hit_f[1] * extra + tail)
        if miss_possible:
            outcomes.append(miss_t[0] + miss_t[1] * extra + tail)
            outcomes.append(miss_f[0] + miss_f[1] * extra + tail)
        lower += count * min(outcomes)
        upper += count * max(outcomes)

    atb_penalty = config.atb_miss_penalty
    upper_misses = sum(
        counts[b]
        for b in range(nblocks)
        if counts[b] and b not in atb_cls.always_hit
    )
    guaranteed_misses = sum(
        counts[b]
        for b in range(nblocks)
        if counts[b] and b in atb_cls.always_miss
    )
    distinct = sum(1 for b in range(nblocks) if counts[b])
    lower += atb_penalty * max(guaranteed_misses, distinct)
    upper += atb_penalty * upper_misses

    return BoundsReport(
        scheme=scheme,
        lower=lower,
        upper=upper,
        fetches=fetches,
        classification=classification,
    )


__all__ = [
    "BoundsReport",
    "Classification",
    "FetchClassification",
    "classify_fetch",
    "cycle_bounds",
]

"""Columnar fetch engine: the one fast path of the fetch machine.

:func:`repro.fetch.engine.simulate_fetch_reference` is the readable,
object-per-structure model of the fetch machine.  This module restates
it as a factored machine over flat per-block columns so a whole grid of
:class:`~repro.fetch.config.FetchConfig` points shares one trace pass
per independent component; :func:`~repro.fetch.engine.simulate_fetch`
is the one-config case of the same engine.

* **Shared columns** — block kinds/targets/fallthroughs and MultiOp/op
  counts come from :func:`block_meta_columns`, and the
  delivered-ops/MultiOps/blocks totals of a trace are computed once
  for every configuration.
* **Predictor components** — the ATB and its resident predictor state
  never observe the cache, so their entire evolution depends only on
  ``(atb_entries, atb_ways, predictor, gshare_history_bits)``.  One
  trace pass per *distinct* tuple yields the ATB hit/miss counts, the
  prediction-accuracy counters, and a per-position "was the prediction
  correct" bitmap.
* **Cache components** — the L0 buffer, banked L1, and bus never
  observe the predictor, so their evolution depends only on
  ``(geometry, scheme, l0 capacity, bus width)``.  One trace pass per
  distinct tuple yields the hit/miss/bus counters, per-position
  buffer-hit and cache-miss bitmaps, and the mispredicted-path cycle
  total ``cycles_f`` (every position charged at its pred-incorrect
  Table 1 row).
* **Combine** — Table 1 rows for one (scheme, outcome) differ between
  correct and incorrect prediction by a *constant* (their per-extra-line
  slopes are equal — checked, not assumed), so each configuration's
  exact cycle count is recovered from its two components with two
  bitmap intersections (an L0 buffer hit costs 1 cycle either way, so
  correctly-predicted cache *hits* are the remainder)::

      pm = |pred_ok & cache_miss|
      pb = |pred_ok & buffer_hit|
      cycles = cycles_f
               - dh * (pred_correct - pm - pb)
               - dm * pm
               + atb_miss_penalty * atb_misses

  The bitmaps are Python big-ints (one bit per trace position), so the
  intersections run at C speed via ``int.bit_count``.

Table 1 is never hard-coded here: :func:`penalty_pair` derives each
row's ``(base, per_extra_line)`` pair by *querying* the config's own
:class:`~repro.fetch.config.PenaltyTable`, so the engine cannot drift
from the table it replaces.

:func:`simulate_fetch_sweep_multi` extends the sharing across schemes:
the predictor machine never observes the compressed image (only the
block metadata of the underlying program), so one grid that mixes
``base``/``tailored``/``compressed``/``hybrid`` points over the same
program computes each distinct predictor component once, not once per
scheme.  Hybrid keys carry their profile source (``hybrid@T`` vs
``hybrid@T:static``) into the image key, so trace-profiled and
static-profiled points in one grid sweep different images under the
same machinery.  Hybrid points charge each block at its ATT scheme tag
("tailored" hot rows, "compressed" cold rows) and probe the L0 only for
cold blocks; the constant-discount combine stays exact because the
correct/incorrect discounts ``dh``/``dm`` are equal across the two tag
families in the stock Table 1 (checked per call, not assumed).

Every per-config result is **bit-identical** to
:func:`~repro.fetch.engine.simulate_fetch_reference` — enforced by the
``sweep`` check scope, ``tests/test_kernel_differential.py``,
``tests/test_fetch_sweep.py``, ``tests/test_adaptive.py`` and
``benchmarks/test_sweep_speed.py``.  A configuration the factored
engine cannot model (a subclassed penalty table, an unknown predictor,
unequal penalty slopes) falls back to the reference for that
configuration only; it never poisons the rest of the batch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.compression.registry import fetch_scheme_base
from repro.compression.schemes import CompressedImage
from repro.errors import ConfigurationError
from repro.fetch.atb import att_bytes
from repro.fetch.branch_predict import BlockMeta
from repro.fetch.config import CacheGeometry, FetchConfig, PenaltyTable

__all__ = [
    "config_from_json",
    "config_to_json",
    "simulate_fetch_sweep",
    "simulate_fetch_sweep_multi",
    "sweep_supported",
]

#: BlockMeta terminator kinds, mirrored locally (see branch_predict).
_FALLTHROUGH, _COND, _JUMP, _CALL, _RET, _HALT = range(6)

#: 2-bit counter thresholds (branch_predict.WEAK_TAKEN / STRONG_TAKEN).
_WEAK_TAKEN = 2
_STRONG_TAKEN = 3


def sweep_supported(config: FetchConfig) -> bool:
    """Can the factored engine model this configuration exactly?

    The stock :class:`PenaltyTable` and the block/gshare predictors; the
    additional equal-slope requirement on Table 1 is re-checked per call
    (it holds for the stock table).
    """
    return (
        type(config.penalties) is PenaltyTable
        and config.predictor in ("block", "gshare")
    )


# ------------------------------------------------------- block columns
def penalty_pair(
    penalties: PenaltyTable, scheme: str, pred: bool, hit: bool
) -> tuple[int, int]:
    """(base_cycles, cycles_per_extra_line) for one Table 1 row.

    Derived by evaluating the table at n=1 and n=2, so any edit to
    Table 1 flows into the engine automatically.
    """
    base = penalties.initiation_cycles(
        scheme, pred_correct=pred, cache_hit=hit, buffer_hit=False, n=1
    )
    slope = (
        penalties.initiation_cycles(
            scheme, pred_correct=pred, cache_hit=hit, buffer_hit=False, n=2
        )
        - base
    )
    return base, slope


def block_meta_columns(image) -> tuple:
    """``(kinds, targets, falls, mop_counts, op_counts)`` flat columns.

    One pass over :class:`BlockMeta` per block; ``-1`` encodes "no
    target"/"no fallthrough".
    """
    nblocks = len(image)
    kinds = [0] * nblocks
    targets = [-1] * nblocks
    falls = [-1] * nblocks
    mop_counts = [0] * nblocks
    op_counts = [0] * nblocks
    for block in image:
        meta = BlockMeta.from_block(block)
        bid = meta.block_id
        kinds[bid] = meta.kind
        targets[bid] = -1 if meta.target is None else meta.target
        falls[bid] = -1 if meta.fallthrough is None else meta.fallthrough
        mop_counts[bid] = meta.mop_count
        op_counts[bid] = meta.op_count
    return kinds, targets, falls, mop_counts, op_counts


def block_span_pairs(compressed: CompressedImage, geometry) -> list:
    """Per-block ``((set_index, line), ...)`` tuples for one geometry.

    Mirrors ``BankedCache``'s odd/even banking: line parity selects the
    bank, the halved line number selects the set within it.
    """
    line_bytes = geometry.line_bytes
    half_sets = geometry.num_sets >> 1
    span_pairs = []
    for bid in range(len(compressed.image)):
        start = compressed.block_offset(bid)
        size = max(1, compressed.block_size(bid))
        first = start // line_bytes
        last = (start + size - 1) // line_bytes
        span_pairs.append(tuple(
            ((((line >> 1) % half_sets) << 1) | (line & 1), line)
            for line in range(first, last + 1)
        ))
    return span_pairs


def block_bus_beats(
    compressed: CompressedImage, bus_width: int
) -> tuple[list, list]:
    """``(beats_by_block, payload_lens)`` for one bus width.

    Beats are big-endian words padded exactly like ``BusModel``.
    """
    if bus_width <= 0:
        raise ConfigurationError(
            f"bus width must be positive, got {bus_width}"
        )
    beats_by_block: list[list[int]] = []
    payload_lens: list[int] = []
    for bid in range(len(compressed.image)):
        payload = bytes(compressed.block_payloads[bid])
        payload_lens.append(len(payload))
        beats = []
        for i in range(0, len(payload), bus_width):
            chunk = payload[i : i + bus_width]
            if len(chunk) < bus_width:
                chunk = chunk + b"\x00" * (bus_width - len(chunk))
            beats.append(int.from_bytes(chunk, "big"))
        beats_by_block.append(beats)
    return beats_by_block, payload_lens


# ------------------------------------------------------------ wire form
def config_to_json(config: FetchConfig) -> dict:
    """A JSON-serializable dict capturing one :class:`FetchConfig`.

    Only configurations with the stock :class:`PenaltyTable` have a
    wire form — a subclassed table's behavior cannot ride in a dict.
    """
    if type(config.penalties) is not PenaltyTable:
        raise ConfigurationError(
            "only the stock PenaltyTable is JSON-representable, got "
            f"{type(config.penalties).__qualname__}"
        )
    return {
        "scheme": config.scheme,
        "cache": {
            "name": config.cache.name,
            "capacity_bytes": config.cache.capacity_bytes,
            "ways": config.cache.ways,
            "line_bytes": config.cache.line_bytes,
        },
        "atb_entries": config.atb_entries,
        "atb_ways": config.atb_ways,
        "atb_miss_penalty": config.atb_miss_penalty,
        "l0_capacity_ops": config.l0_capacity_ops,
        "bus_bytes": config.bus_bytes,
        "predictor": config.predictor,
        "gshare_history_bits": config.gshare_history_bits,
    }


def config_from_json(payload: dict) -> FetchConfig:
    """Rebuild a :class:`FetchConfig` from :func:`config_to_json` output."""
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"config point must be an object, got {type(payload).__name__}"
        )
    try:
        cache = payload["cache"]
        geometry = CacheGeometry(
            name=str(cache.get("name", "sweep")),
            capacity_bytes=int(cache["capacity_bytes"]),
            ways=int(cache["ways"]),
            line_bytes=int(cache["line_bytes"]),
        )
        return FetchConfig(
            scheme=str(payload["scheme"]),
            cache=geometry,
            atb_entries=int(payload.get("atb_entries", 128)),
            atb_ways=int(payload.get("atb_ways", 4)),
            atb_miss_penalty=int(payload.get("atb_miss_penalty", 2)),
            l0_capacity_ops=int(payload.get("l0_capacity_ops", 32)),
            bus_bytes=int(payload.get("bus_bytes", 8)),
            predictor=str(payload.get("predictor", "block")),
            gshare_history_bits=int(
                payload.get("gshare_history_bits", 10)
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"malformed sweep config point: {exc!r}"
        ) from exc


# --------------------------------------------------- predictor component
def _predictor_component(
    kinds: Sequence[int],
    targets: Sequence[int],
    falls: Sequence[int],
    nblocks: int,
    trace: Sequence[int],
    atb_entries: int,
    atb_ways: int,
    predictor: str,
    history_bits: int,
) -> Tuple[int, int, int, int]:
    """One trace pass of the ATB + predictor machine.

    Returns ``(pred_ok_mask, pred_correct, atb_hits, atb_misses)``
    where ``pred_ok_mask`` holds one bit per trace position (the i-th
    position's bit is set iff fetch predicted that block).  The ATB
    and predictors are inlined behind local bindings: an ATB set is an
    insertion-ordered dict (LRU first) of ``block_id -> [counter,
    last_target]``, and that two-slot list *is* the per-entry predictor
    state.  The ATB shape and history width come from a
    :class:`FetchConfig`, which has already validated them.
    """
    num_atb_sets = atb_entries // atb_ways
    atb_mask = num_atb_sets - 1
    atb_sets: List[Dict[int, list]] = [{} for _ in range(num_atb_sets)]
    atb_bucket_of = [atb_sets[bid & atb_mask] for bid in range(nblocks)]

    use_gshare = predictor == "gshare"
    if use_gshare:
        g_mask = (1 << history_bits) - 1
        g_history = 0
        g_counters = [_WEAK_TAKEN] * (1 << history_bits)

    pred_right = 0
    atb_hits = atb_misses = 0
    # One byte per position; 0x01 bytes survive int conversion as the
    # position bitmap the combine step intersects at C speed.
    pred_bits = bytearray(len(trace))

    # Cold start counts as a correct prediction (reference semantics),
    # expressed by seeding ``predicted`` with the first trace entry.
    predicted = trace[0] if len(trace) else -1
    # Predictor training is deferred by one iteration: the successor a
    # block trains on *is* the next trace entry, so training block i at
    # the top of iteration i+1 needs no lookahead indexing.  State-wise
    # this is identical to the reference (prediction for a block always
    # happens before that block's own training, in both orderings).
    prev_kind = -1  # sentinel: nothing to train yet
    prev_block = -1
    prev_entry = [0, -1]

    for position, block_id in enumerate(trace):
        if prev_kind == _COND:
            if use_gshare:
                index = (prev_block ^ g_history) & g_mask
                if block_id == targets[prev_block]:
                    if g_counters[index] < _STRONG_TAKEN:
                        g_counters[index] += 1
                    g_history = ((g_history << 1) | 1) & g_mask
                else:
                    if g_counters[index] > 0:
                        g_counters[index] -= 1
                    g_history = (g_history << 1) & g_mask
            elif block_id == targets[prev_block]:
                if prev_entry[0] < _STRONG_TAKEN:
                    prev_entry[0] += 1
                prev_entry[1] = block_id
            else:
                if prev_entry[0] > 0:
                    prev_entry[0] -= 1
        elif prev_kind == _RET or prev_kind == _CALL:
            prev_entry[1] = block_id

        if predicted == block_id:
            pred_right += 1
            pred_bits[position] = 1

        bucket = atb_bucket_of[block_id]
        entry = bucket.pop(block_id, None)
        if entry is not None:
            bucket[block_id] = entry
            atb_hits += 1
        else:
            atb_misses += 1
            if len(bucket) >= atb_ways:
                del bucket[next(iter(bucket))]
            entry = [_WEAK_TAKEN, -1]
            bucket[block_id] = entry

        kind = kinds[block_id]
        if kind == _FALLTHROUGH:
            predicted = falls[block_id]
        elif kind == _HALT:
            predicted = -1
        elif kind == _RET:
            predicted = entry[1]
        elif kind == _JUMP or kind == _CALL:
            predicted = targets[block_id]
        elif use_gshare:
            predicted = (
                targets[block_id]
                if g_counters[(block_id ^ g_history) & g_mask]
                >= _WEAK_TAKEN
                else falls[block_id]
            )
        else:
            predicted = (
                targets[block_id]
                if entry[0] >= _WEAK_TAKEN
                else falls[block_id]
            )
        prev_kind = kind
        prev_block = block_id
        prev_entry = entry

    return (
        int.from_bytes(bytes(pred_bits), "big"),
        pred_right,
        atb_hits,
        atb_misses,
    )


# ------------------------------------------------------- cache component
class _CacheComponent:
    """Everything one (geometry, scheme, L0, bus) tuple produced.

    Only the miss and buffer-hit bitmaps are kept — a position that is
    in neither is a cache hit, so the combine step never needs a hit
    bitmap (``ph = pred_correct - pm - pb``).
    """

    __slots__ = (
        "miss_mask", "buf_mask", "cycles_f",
        "cache_hits", "cache_misses", "lines_fetched",
        "buffer_hits", "buffer_misses",
        "bus_bytes", "bus_beats", "bus_flips",
    )

    def __init__(self) -> None:
        self.miss_mask = 0
        self.buf_mask = 0
        self.cycles_f = 0
        self.cache_hits = self.cache_misses = self.lines_fetched = 0
        self.buffer_hits = self.buffer_misses = 0
        self.bus_bytes = self.bus_beats = self.bus_flips = 0


def _cache_component(
    compressed: CompressedImage,
    trace: Sequence[int],
    span_pairs: Sequence[tuple],
    geometry: CacheGeometry,
    has_buffer: bool,
    l0_elig: Optional[Sequence[bool]],
    l0_cap: int,
    op_counts: Sequence[int],
    beats_by_block: Sequence[list],
    payload_lens: Sequence[int],
    hit_cost_f: Sequence[int],
    miss_cost_f: Sequence[int],
    buf_cost: Sequence[int],
) -> _CacheComponent:
    """One trace pass of the L0 + banked L1 + bus machine.

    Charges every position at its pred-*incorrect* Table 1 cost (the
    combine step subtracts the constant correct-prediction discount per
    intersected position).  ``l0_elig`` restricts L0 probes to
    tagged-cold blocks for hybrid images (``None`` = every block probes,
    the Compressed rule).  Multi-line blocks probe every line before
    touching any (like ``BankedCache.access_block``), so an install
    cannot evict a sibling line that should have counted as resident.
    """
    cache_ways = geometry.ways
    cache_sets: List[Dict[int, bool]] = [
        {} for _ in range(geometry.num_sets)
    ]
    span_buckets = [
        tuple((cache_sets[set_index], line) for set_index, line in pairs)
        for pairs in span_pairs
    ]
    span_single_bucket = [
        (cache_sets[pairs[0][0]], pairs[0][1]) if len(pairs) == 1
        else None
        for pairs in span_pairs
    ]

    l0: Dict[int, int] = {}
    l0_used = 0
    if has_buffer and l0_cap <= 0:
        raise ConfigurationError(
            f"L0 capacity must be positive, got {l0_cap}"
        )

    out = _CacheComponent()
    cycles_f = 0
    cache_hits = cache_misses = lines_fetched = 0
    buffer_hits = buffer_misses = 0
    bus_state = 0
    bus_beats = bus_bytes = bus_flips = 0
    miss_bits = bytearray(len(trace))
    buf_bits = bytearray(len(trace)) if has_buffer else b""

    for position, block_id in enumerate(trace):
        buffer_hit = False
        if has_buffer and (l0_elig is None or l0_elig[block_id]):
            resident = l0.pop(block_id, None)
            if resident is not None:
                l0[block_id] = resident
                buffer_hits += 1
                buffer_hit = True
            else:
                buffer_misses += 1
                op_count = op_counts[block_id]
                if op_count <= l0_cap:
                    while l0_used + op_count > l0_cap:
                        l0_used -= l0.pop(next(iter(l0)))
                    l0[block_id] = op_count
                    l0_used += op_count

        if buffer_hit:
            cycles_f += buf_cost[block_id]
            buf_bits[position] = 1
        else:
            single = span_single_bucket[block_id]
            if single is not None:
                bucket, line = single
                if bucket.pop(line, False):
                    bucket[line] = True
                    missing = 0
                else:
                    missing = 1
                    if len(bucket) >= cache_ways:
                        del bucket[next(iter(bucket))]
                    bucket[line] = True
            else:
                spans = span_buckets[block_id]
                missing = 0
                for bucket, line in spans:
                    if line not in bucket:
                        missing += 1
                for bucket, line in spans:
                    if line in bucket:
                        del bucket[line]
                    elif len(bucket) >= cache_ways:
                        del bucket[next(iter(bucket))]
                    bucket[line] = True
            if missing:
                cache_misses += 1
                lines_fetched += missing
                beats = beats_by_block[block_id]
                for beat in beats:
                    bus_flips += (beat ^ bus_state).bit_count()
                    bus_state = beat
                bus_beats += len(beats)
                bus_bytes += payload_lens[block_id]
                cycles_f += miss_cost_f[block_id]
                miss_bits[position] = 1
            else:
                cache_hits += 1
                cycles_f += hit_cost_f[block_id]

    out.miss_mask = int.from_bytes(bytes(miss_bits), "big")
    out.buf_mask = (
        int.from_bytes(bytes(buf_bits), "big") if has_buffer else 0
    )
    out.cycles_f = cycles_f
    out.cache_hits = cache_hits
    out.cache_misses = cache_misses
    out.lines_fetched = lines_fetched
    out.buffer_hits = buffer_hits
    out.buffer_misses = buffer_misses
    out.bus_bytes = bus_bytes
    out.bus_beats = bus_beats
    out.bus_flips = bus_flips
    return out


# -------------------------------------------------------------- the sweep
def _geometry_key(geometry: CacheGeometry) -> tuple:
    """Behavioral identity of a geometry (the name is presentation)."""
    return (geometry.capacity_bytes, geometry.ways, geometry.line_bytes)


def _sweep_engine(
    image_for,
    trace: Sequence[int],
    configs: Sequence[FetchConfig],
) -> List["FetchMetrics"]:
    """Shared body of the two public sweep entry points.

    ``image_for(scheme)`` resolves the :class:`CompressedImage` a config
    of that scheme replays against.  Memo tables are keyed so that
    anything derived from the compressed *payload* (spans, bus beats,
    cache components) is per-image while anything derived only from the
    underlying *program* (block metadata, predictor components,
    delivered-op totals) is shared across images of the same program —
    a mixed-scheme grid pays for each distinct predictor once.
    """
    from repro.fetch.engine import FetchMetrics, simulate_fetch_reference

    results: List[Optional[FetchMetrics]] = [None] * len(configs)
    blocks_fetched = len(trace)

    # ----------------------------------------------------- memo tables
    meta_memo: Dict[int, tuple] = {}        # id(program image)
    # Distinct ProgramImage objects with identical block metadata (the
    # per-scheme images of one study round-trip the store as separate
    # copies) share one predictor token, so mixed-scheme grids compute
    # each predictor component once, not once per scheme.
    pred_tokens: Dict[tuple, int] = {}      # meta columns -> token
    pred_comps: Dict[tuple, tuple] = {}     # (program token, pred key)
    cache_comps: Dict[tuple, _CacheComponent] = {}
    span_memo: Dict[tuple, list] = {}       # (id(image), line, sets)
    beats_memo: Dict[tuple, tuple] = {}     # (id(image), bus width)
    att_memo: Dict[tuple, int] = {}         # (id(image), geo key)
    joint_memo: Dict[tuple, tuple] = {}

    for index, config in enumerate(configs):
        scheme = config.scheme
        base_scheme = fetch_scheme_base(scheme)
        if base_scheme not in ("base", "tailored", "compressed", "hybrid"):
            raise ConfigurationError(f"unknown fetch scheme {scheme!r}")
        compressed = image_for(scheme)
        is_hybrid = base_scheme == "hybrid"
        if is_hybrid:
            block_tags = compressed.block_scheme_tags()
            if block_tags is None:
                raise ConfigurationError(
                    "hybrid fetch needs an image with per-block scheme"
                    " tags"
                )
        else:
            block_tags = None
        if not sweep_supported(config):
            results[index] = simulate_fetch_reference(
                compressed, trace, config
            )
            continue

        image = compressed.image
        meta = meta_memo.get(id(image))
        if meta is None:
            kinds, targets, falls, mop_counts, op_counts = (
                block_meta_columns(image)
            )
            delivered_mops = delivered_ops = 0
            for block_id in trace:
                delivered_mops += mop_counts[block_id]
                delivered_ops += op_counts[block_id]
            columns = (tuple(kinds), tuple(targets), tuple(falls))
            program_token = pred_tokens.setdefault(
                columns, len(pred_tokens)
            )
            meta = (
                kinds, targets, falls, mop_counts, op_counts,
                delivered_mops, delivered_ops, len(image),
                program_token,
            )
            meta_memo[id(image)] = meta
        (
            kinds, targets, falls, mop_counts, op_counts,
            delivered_mops, delivered_ops, nblocks, program_token,
        ) = meta

        # Table 1, resolved per config (the table instance is the stock
        # class, but deriving from *this* config's table keeps the
        # engine honest).  Unequal correct/incorrect slopes would break
        # the constant-discount combine — fall back, don't approximate.
        # Hybrid points charge two penalty families (one per block tag),
        # so the single dh/dm discount must additionally agree *across*
        # the families; the stock Table 1 satisfies both (dh=1, dm=7).
        penalties = config.penalties
        pen_families = (
            ("tailored", "compressed") if is_hybrid else (base_scheme,)
        )
        pen_rows = {
            family: (
                penalty_pair(penalties, family, True, True),
                penalty_pair(penalties, family, False, True),
                penalty_pair(penalties, family, True, False),
                penalty_pair(penalties, family, False, False),
            )
            for family in pen_families
        }
        slopes_equal = all(
            rows[0][1] == rows[1][1] and rows[2][1] == rows[3][1]
            for rows in pen_rows.values()
        )
        dh_set = {rows[1][0] - rows[0][0] for rows in pen_rows.values()}
        dm_set = {rows[3][0] - rows[2][0] for rows in pen_rows.values()}
        if not slopes_equal or len(dh_set) != 1 or len(dm_set) != 1:
            results[index] = simulate_fetch_reference(
                compressed, trace, config
            )
            continue
        dh = dh_set.pop()
        dm = dm_set.pop()

        has_buffer = base_scheme in ("compressed", "hybrid")
        buf_hit_cycles = (
            penalties.initiation_cycles(
                "compressed", pred_correct=True, cache_hit=True,
                buffer_hit=True, n=1,
            )
            if has_buffer
            else 0
        )

        geometry = config.cache
        geo_key = _geometry_key(geometry)

        pred_key = (
            program_token,
            config.atb_entries,
            config.atb_ways,
            config.predictor,
            config.gshare_history_bits
            if config.predictor == "gshare"
            else None,
        )
        pred = pred_comps.get(pred_key)
        if pred is None:
            pred = _predictor_component(
                kinds, targets, falls, nblocks, trace,
                config.atb_entries, config.atb_ways,
                config.predictor, config.gshare_history_bits,
            )
            pred_comps[pred_key] = pred
        pred_mask, pred_right, atb_hits, atb_misses = pred

        bus_width = config.bus_bytes
        pen_sig = tuple(
            (family, pen_rows[family][1], pen_rows[family][3])
            for family in pen_families
        )
        cache_key = (
            id(compressed),
            geo_key,
            base_scheme,
            config.l0_capacity_ops if has_buffer else None,
            bus_width,
            pen_sig, buf_hit_cycles,
        )
        comp = cache_comps.get(cache_key)
        if comp is None:
            span_key = (
                id(compressed), geometry.line_bytes, geometry.num_sets
            )
            span_pairs = span_memo.get(span_key)
            if span_pairs is None:
                span_pairs = block_span_pairs(compressed, geometry)
                span_memo[span_key] = span_pairs

            beats_key = (id(compressed), bus_width)
            beats = beats_memo.get(beats_key)
            if beats is None:
                beats = block_bus_beats(compressed, bus_width)
                beats_memo[beats_key] = beats
            beats_by_block, payload_lens = beats

            # Per-block pred-incorrect costs (streaming tail folded
            # in), each block charged at its own penalty family.
            hit_cost_f = [0] * nblocks
            miss_cost_f = [0] * nblocks
            buf_cost = [0] * nblocks
            for bid in range(nblocks):
                _, hit_pen_f, _, miss_pen_f = pen_rows[
                    block_tags[bid] if is_hybrid else base_scheme
                ]
                extra = len(span_pairs[bid]) - 1
                tail = mop_counts[bid] - 1
                hit_cost_f[bid] = (
                    hit_pen_f[0] + hit_pen_f[1] * extra + tail
                )
                miss_cost_f[bid] = (
                    miss_pen_f[0] + miss_pen_f[1] * extra + tail
                )
                buf_cost[bid] = buf_hit_cycles + tail

            l0_elig = (
                [tag == "compressed" for tag in block_tags]
                if is_hybrid
                else None
            )
            comp = _cache_component(
                compressed, trace, span_pairs, geometry,
                has_buffer, l0_elig, config.l0_capacity_ops,
                op_counts, beats_by_block, payload_lens,
                hit_cost_f, miss_cost_f, buf_cost,
            )
            cache_comps[cache_key] = comp

        joint_key = (pred_key, cache_key)
        joint = joint_memo.get(joint_key)
        if joint is None:
            joint = (
                (pred_mask & comp.miss_mask).bit_count(),
                (pred_mask & comp.buf_mask).bit_count()
                if has_buffer
                else 0,
            )
            joint_memo[joint_key] = joint
        pred_ok_misses, pred_ok_bufs = joint
        pred_ok_hits = pred_right - pred_ok_misses - pred_ok_bufs

        att_key = (id(compressed), geo_key)
        att = att_memo.get(att_key)
        if att is None:
            att = att_bytes(compressed, geometry)
            att_memo[att_key] = att

        metrics = FetchMetrics(scheme=scheme)
        metrics.code_bytes = compressed.total_code_bytes
        metrics.att_bytes = att
        metrics.cycles = (
            comp.cycles_f
            - dh * pred_ok_hits
            - dm * pred_ok_misses
            + config.atb_miss_penalty * atb_misses
        )
        metrics.delivered_ops = delivered_ops
        metrics.delivered_mops = delivered_mops
        metrics.blocks_fetched = blocks_fetched
        metrics.cache_hits = comp.cache_hits
        metrics.cache_misses = comp.cache_misses
        metrics.lines_fetched = comp.lines_fetched
        metrics.buffer_hits = comp.buffer_hits
        metrics.buffer_misses = comp.buffer_misses
        metrics.pred_correct = pred_right
        metrics.pred_incorrect = blocks_fetched - pred_right
        metrics.atb_hits = atb_hits
        metrics.atb_misses = atb_misses
        metrics.bus_bytes = comp.bus_bytes
        metrics.bus_beats = comp.bus_beats
        metrics.bus_bit_flips = comp.bus_flips
        metrics.extra["line_bytes"] = geometry.line_bytes
        results[index] = metrics

    return results  # type: ignore[return-value]


def simulate_fetch_sweep(
    compressed: CompressedImage,
    trace: Sequence[int],
    configs: Sequence[FetchConfig],
) -> List["FetchMetrics"]:
    """Replay ``trace`` once for many configurations at once.

    Returns one :class:`~repro.fetch.engine.FetchMetrics` per entry of
    ``configs``, in order, each bit-identical to
    ``simulate_fetch_reference(compressed, trace, config)``.
    Configurations the factored engine cannot model exactly fall back to
    the reference individually.
    """
    return _sweep_engine(lambda scheme: compressed, trace, configs)


def simulate_fetch_sweep_multi(
    images: Dict[str, CompressedImage],
    trace: Sequence[int],
    configs: Sequence[FetchConfig],
) -> List["FetchMetrics"]:
    """Sweep a mixed-scheme grid, one image per scheme.

    ``images`` maps each scheme appearing in ``configs`` to the
    compressed image its points replay against (typically the per-scheme
    images of one :class:`~repro.core.study.ProgramStudy`).  Equivalent
    to concatenating per-scheme :func:`simulate_fetch_sweep` calls,
    except predictor components — which depend only on the underlying
    program — are shared across schemes whose images wrap the same
    program.
    """

    def image_for(scheme: str) -> CompressedImage:
        try:
            return images[scheme]
        except KeyError:
            raise ConfigurationError(
                f"no compressed image supplied for scheme {scheme!r}"
            ) from None

    return _sweep_engine(image_for, trace, configs)

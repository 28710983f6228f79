"""Trace-driven fetch simulation realizing Table 1 (paper Section 5).

For every block in the dynamic trace the engine consults the ATB (whose
entry hosts the block's predictor and whose miss charges an ATT fetch),
probes the L1 (and, for Compressed, the L0 buffer first), charges the
Table 1 initiation cycles plus one cycle per additional MultiOp, and
drives miss traffic through the bit-flip bus model.

The headline metric matches Figure 13: operations delivered per cycle
at issue width 6, with "Ideal" = perfect cache + perfect prediction
(one MultiOp per cycle, limited only by schedule density).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.compression.registry import fetch_scheme_base
from repro.compression.schemes import CompressedImage
from repro.errors import ConfigurationError
from repro.fetch.atb import ATB, att_bytes
from repro.fetch.banked_cache import BankedCache
from repro.fetch.branch_predict import BlockMeta
from repro.fetch.config import FetchConfig
from repro.fetch.l0buffer import L0Buffer
from repro.fetch.sweep import simulate_fetch_sweep
from repro.power.busmodel import BusModel


@dataclass
class FetchMetrics:
    """Everything one fetch simulation produced."""

    scheme: str
    cycles: int = 0
    delivered_ops: int = 0
    delivered_mops: int = 0
    blocks_fetched: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    lines_fetched: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    pred_correct: int = 0
    pred_incorrect: int = 0
    atb_hits: int = 0
    atb_misses: int = 0
    bus_bytes: int = 0
    bus_beats: int = 0
    bus_bit_flips: int = 0
    code_bytes: int = 0
    att_bytes: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Operations delivered per cycle (the Figure 13 metric)."""
        return self.delivered_ops / self.cycles if self.cycles else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def prediction_accuracy(self) -> float:
        total = self.pred_correct + self.pred_incorrect
        return self.pred_correct / total if total else 0.0

    @property
    def atb_hit_rate(self) -> float:
        total = self.atb_hits + self.atb_misses
        return self.atb_hits / total if total else 0.0


def ideal_metrics(
    compressed: CompressedImage, trace: Sequence[int]
) -> FetchMetrics:
    """The paper's "Ideal": perfect cache and predictor, 1 MultiOp/cycle."""
    image = compressed.image
    mop_counts = [b.mop_count for b in image]
    op_counts = [b.op_count for b in image]
    metrics = FetchMetrics(scheme="ideal")
    for block_id in trace:
        metrics.cycles += mop_counts[block_id]
        metrics.delivered_mops += mop_counts[block_id]
        metrics.delivered_ops += op_counts[block_id]
        metrics.blocks_fetched += 1
    return metrics


def _resolve_config(
    compressed: CompressedImage, config: Optional[FetchConfig]
) -> FetchConfig:
    if config is not None:
        return config
    name = compressed.scheme_name
    if name not in ("base", "tailored") and not name.startswith("hybrid"):
        name = "compressed"
    return FetchConfig.for_scheme(name)


def simulate_fetch(
    compressed: CompressedImage,
    trace: Sequence[int],
    config: Optional[FetchConfig] = None,
) -> FetchMetrics:
    """Replay ``trace`` against one fetch organization.

    ``compressed`` supplies the address-space geometry (block offsets and
    sizes in the scheme's ROM encoding) and the payload bytes for the bus
    model.  The scheme is taken from the config (``base`` / ``tailored``
    / ``compressed`` / ``hybrid``).

    Runs the columnar engine of :mod:`repro.fetch.sweep` on a one-point
    grid; it is bit-identical to :func:`simulate_fetch_reference`, which
    it also falls back to for configs it cannot model (e.g. a subclassed
    penalty table).
    """
    config = _resolve_config(compressed, config)
    return simulate_fetch_sweep(compressed, trace, [config])[0]


def simulate_fetch_reference(
    compressed: CompressedImage,
    trace: Sequence[int],
    config: Optional[FetchConfig] = None,
) -> FetchMetrics:
    """The retained straight-line model (one object per structure).

    This is the behavioral definition of the fetch machine and the
    oracle the columnar engine behind :func:`simulate_fetch` is
    differentially tested against; only checks, tests and benches call
    it directly.
    """
    config = _resolve_config(compressed, config)
    scheme = config.scheme
    base_scheme = fetch_scheme_base(scheme)
    if base_scheme not in ("base", "tailored", "compressed", "hybrid"):
        raise ConfigurationError(f"unknown fetch scheme {scheme!r}")

    image = compressed.image
    metas = [BlockMeta.from_block(b) for b in image]
    offsets = array("q", (compressed.block_offset(i) for i in range(len(image))))
    sizes = array(
        "q", (max(1, compressed.block_size(i)) for i in range(len(image)))
    )
    payloads = compressed.block_payloads

    # Per-block penalty family: uniform organizations charge their own
    # scheme everywhere; the hybrid organization charges each block's
    # ATT tag ("tailored" for hot blocks, "compressed" for cold).
    if base_scheme == "hybrid":
        block_schemes = compressed.block_scheme_tags()
        if block_schemes is None:
            raise ConfigurationError(
                "hybrid fetch needs an image with per-block scheme tags"
            )
    else:
        block_schemes = None

    atb = ATB(config.atb_entries, config.atb_ways)
    cache = BankedCache(config.cache)
    # Only Huffman-decoded blocks go through the L0 decompression
    # buffer: every block for Compressed, the cold blocks for hybrid
    # (hot blocks decode in-line from the L1, like Tailored).
    buffer = (
        L0Buffer(config.l0_capacity_ops)
        if base_scheme in ("compressed", "hybrid")
        else None
    )
    bus = BusModel(config.bus_bytes)
    penalties = config.penalties
    if config.predictor == "gshare":
        from repro.fetch.branch_predict import GshareUnit

        gshare: Optional[GshareUnit] = GshareUnit(
            config.gshare_history_bits
        )
    elif config.predictor == "block":
        gshare = None
    else:
        raise ConfigurationError(
            f"unknown predictor {config.predictor!r}"
        )

    metrics = FetchMetrics(scheme=scheme)
    metrics.code_bytes = compressed.total_code_bytes
    metrics.att_bytes = att_bytes(compressed, config.cache)

    predicted_next: Optional[int] = None
    line_bytes = config.cache.line_bytes

    for position, block_id in enumerate(trace):
        meta = metas[block_id]
        block_scheme = (
            block_schemes[block_id]
            if block_schemes is not None
            else base_scheme
        )
        # Was this block the one fetch predicted?  (Cold start counts as
        # correct: there was no pipeline to flush.)
        pred_correct = (
            predicted_next == block_id if position > 0 else True
        )
        entry, atb_hit = atb.access(block_id)
        if not atb_hit:
            # Fault the ATT entry: one memory line of table traffic.
            metrics.cycles += config.atb_miss_penalty

        buffer_hit = False
        probed_buffer = (
            buffer is not None and block_scheme == "compressed"
        )
        if probed_buffer:
            buffer_hit = buffer.access(block_id, meta.op_count)

        # (cache_hit, total_lines) is bound explicitly in each branch: a
        # buffer hit must charge exactly one line, never a line count
        # left over from an earlier iteration's cache probe.
        if buffer_hit:
            # L0 has priority over the L1; no cache state change.
            cache_hit, total_lines = True, 1
        else:
            cache_hit, total_lines, _missing = cache.access_block(
                offsets[block_id], sizes[block_id]
            )
            if not cache_hit:
                bus.transfer(payloads[block_id])

        n = total_lines if not cache_hit else (
            total_lines if block_scheme == "compressed" else 1
        )
        metrics.cycles += penalties.initiation_cycles(
            block_scheme,
            pred_correct=pred_correct,
            cache_hit=cache_hit,
            buffer_hit=buffer_hit,
            n=max(1, n),
        )
        metrics.cycles += meta.mop_count - 1
        metrics.delivered_mops += meta.mop_count
        metrics.delivered_ops += meta.op_count
        metrics.blocks_fetched += 1
        if pred_correct:
            metrics.pred_correct += 1
        else:
            metrics.pred_incorrect += 1
        if buffer_hit:
            metrics.buffer_hits += 1
        else:
            if probed_buffer:
                metrics.buffer_misses += 1
            if cache_hit:
                metrics.cache_hits += 1
            else:
                metrics.cache_misses += 1

        if gshare is not None:
            predicted_next = gshare.predict(meta, entry.predictor)
            if position + 1 < len(trace):
                gshare.update(meta, entry.predictor, trace[position + 1])
        else:
            predicted_next = entry.predictor.predict(meta)
            if position + 1 < len(trace):
                entry.predictor.update(meta, trace[position + 1])

    metrics.lines_fetched = cache.lines_fetched
    metrics.atb_hits = atb.hits
    metrics.atb_misses = atb.misses
    metrics.bus_bytes = bus.bytes_transferred
    metrics.bus_beats = bus.beats
    metrics.bus_bit_flips = bus.bit_flips
    metrics.extra["line_bytes"] = line_bytes
    return metrics

"""Instruction-fetch simulation (paper Sections 3–5).

Trace-driven models of the three fetch organizations the paper compares:

* **Base** — the banked cache of [7,8] holding uncompressed 40-bit ops
  (block size a multiple of the op size, so its 16KB configuration is
  effectively 20KB),
* **Tailored** — the banked cache holding tailored ops, with an extra
  miss-path stage for extraction/placement (Figure 12),
* **Compressed** — compressed ops in the L1, a Huffman decompressor on
  the hit path, and a 32-op fully-associative L0 buffer of decompressed
  ops (Figure 11).

All three share the ATB (Address Translation Buffer, backed by the
compiler-generated ATT) and its per-block branch predictor — a 2-bit
saturating counter plus last-target prediction (Section 3.4).  Blocks are
atomic units of fetch under the restricted placement model; the cycle
accounting implements Table 1 exactly.
"""

from repro.fetch.atb import ATB, att_bytes, att_overhead_percent
from repro.fetch.banked_cache import BankedCache
from repro.fetch.branch_predict import BlockPredictor
from repro.fetch.config import (
    BASE_CACHE,
    COMPRESSED_CACHE,
    CacheGeometry,
    FetchConfig,
    PenaltyTable,
    TAILORED_CACHE,
)
from repro.fetch.engine import (
    FetchMetrics,
    simulate_fetch,
    simulate_fetch_reference,
)
from repro.fetch.l0buffer import L0Buffer
from repro.fetch.sweep import (
    config_from_json,
    config_to_json,
    simulate_fetch_sweep,
    simulate_fetch_sweep_multi,
    sweep_supported,
)

__all__ = [
    "ATB",
    "BASE_CACHE",
    "BankedCache",
    "BlockPredictor",
    "COMPRESSED_CACHE",
    "CacheGeometry",
    "FetchConfig",
    "FetchMetrics",
    "L0Buffer",
    "PenaltyTable",
    "TAILORED_CACHE",
    "att_bytes",
    "att_overhead_percent",
    "config_from_json",
    "config_to_json",
    "simulate_fetch",
    "simulate_fetch_reference",
    "simulate_fetch_sweep",
    "simulate_fetch_sweep_multi",
    "sweep_supported",
]

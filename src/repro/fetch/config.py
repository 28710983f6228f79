"""Fetch-path configuration and the paper's Table 1 penalty matrix.

Cache geometry follows Section 5: "moderately sized caches on scale
suitable for an embedded system: 16KB, 2-way set associative.  The
baseline requires a block size that is a multiple of the TEPIC 40-bit op
size, so its effective size is slightly larger: 20KB, 2-way."  Both have
256 sets; Base uses 40-byte lines (8 ops), the others 32-byte lines.

``n`` in the penalty formulas is the number of storage lines the block
occupies at the level servicing the request: memory lines on a cache
miss, L1 lines for the Compressed scheme's hit-path decompression
(one line feeds the decompressor per cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CacheGeometry:
    """One set-associative instruction-cache geometry."""

    name: str
    capacity_bytes: int
    ways: int
    line_bytes: int

    def __post_init__(self) -> None:
        for what, value in (
            ("capacity", self.capacity_bytes),
            ("ways", self.ways),
            ("line size", self.line_bytes),
        ):
            if value <= 0:
                raise ConfigurationError(
                    f"cache {self.name!r}: {what} must be positive, "
                    f"got {value}"
                )
        if self.capacity_bytes % (self.ways * self.line_bytes):
            raise ConfigurationError(
                f"cache {self.name!r}: capacity {self.capacity_bytes} not "
                f"divisible by ways*line ({self.ways}*{self.line_bytes})"
            )
        if self.num_sets & (self.num_sets - 1):
            raise ConfigurationError(
                f"cache {self.name!r}: {self.num_sets} sets is not a "
                "power of two"
            )
        if self.num_sets < 2:
            raise ConfigurationError(
                f"cache {self.name!r}: the odd/even banked cache needs "
                f"at least 2 sets, got {self.num_sets}"
            )

    @property
    def num_sets(self) -> int:
        return self.capacity_bytes // (self.ways * self.line_bytes)

    def lines_of(self, start_byte: int, size_bytes: int) -> range:
        """Line numbers a [start, start+size) block occupies."""
        if size_bytes <= 0:
            raise ConfigurationError(f"block of {size_bytes} bytes")
        first = start_byte // self.line_bytes
        last = (start_byte + size_bytes - 1) // self.line_bytes
        return range(first, last + 1)


#: Baseline banked cache: 2-way, 40-byte lines (8 ops) — 20KB effective.
BASE_CACHE = CacheGeometry("base", 20 * 1024, 2, 40)

#: Tailored/compressed caches: 16KB, 2-way, 32-byte lines.
TAILORED_CACHE = CacheGeometry("tailored", 16 * 1024, 2, 32)
COMPRESSED_CACHE = CacheGeometry("compressed", 16 * 1024, 2, 32)

#: Pressure-scaled pair for the cache study: the paper's 16KB holds only a
#: small fraction of a SPEC code image; these 64-set geometries hold a
#: comparable fraction of this repo's miniature benchmarks while keeping
#: the paper's exact 20:16 effective-size ratio and 2-way associativity.
BASE_CACHE_SCALED = CacheGeometry("base", 1280, 2, 40)
TAILORED_CACHE_SCALED = CacheGeometry("tailored", 1024, 2, 32)
COMPRESSED_CACHE_SCALED = CacheGeometry("compressed", 1024, 2, 32)


class PenaltyTable:
    """Table 1: block-initiation cycle counts.

    The value is the cycle in which the block's *first* MultiOp is
    delivered; streaming then supplies one MultiOp per cycle.  Base and
    Tailored have no buffer, so their rows ignore ``buffer_hit``.
    """

    #: (scheme, pred_correct, cache_hit) -> (base_cycles, uses_n)
    _NO_BUFFER = {
        ("base", True, True): (1, False),
        ("base", True, False): (1, True),
        ("base", False, True): (2, False),
        ("base", False, False): (8, True),
        ("tailored", True, True): (1, False),
        ("tailored", True, False): (2, True),
        ("tailored", False, True): (2, False),
        ("tailored", False, False): (9, True),
    }

    #: compressed, buffer miss: (pred_correct, cache_hit) -> (base, uses_n)
    _COMPRESSED_BUFFER_MISS = {
        (True, True): (1, True),
        (True, False): (3, True),
        (False, True): (2, True),
        (False, False): (10, True),
    }

    def initiation_cycles(
        self,
        scheme: str,
        *,
        pred_correct: bool,
        cache_hit: bool,
        buffer_hit: bool,
        n: int,
    ) -> int:
        """Cycles to deliver the first MultiOp of a block."""
        if n < 1:
            raise ConfigurationError(f"line count n={n} must be >= 1")
        if scheme == "compressed":
            if buffer_hit:
                return 1  # every compressed buffer-hit row is 1 cycle
            base, uses_n = self._COMPRESSED_BUFFER_MISS[
                (pred_correct, cache_hit)
            ]
        else:
            try:
                base, uses_n = self._NO_BUFFER[
                    (scheme, pred_correct, cache_hit)
                ]
            except KeyError:
                raise ConfigurationError(
                    f"unknown fetch scheme {scheme!r}"
                ) from None
        return base + (n - 1 if uses_n else 0)


@dataclass(frozen=True)
class FetchConfig:
    """Everything one fetch simulation needs."""

    scheme: str  # "base" | "tailored" | "compressed" | "hybrid[@T]"
    cache: CacheGeometry
    atb_entries: int = 128
    atb_ways: int = 4
    #: Extra cycles to pull an ATT entry from memory on an ATB miss (the
    #: paper reports low contention but gives no number; 2 cycles is one
    #: memory-line fetch — the ablation bench sweeps it).
    atb_miss_penalty: int = 2
    l0_capacity_ops: int = 32
    bus_bytes: int = 8
    #: Next-block predictor: "block" = the paper's per-ATB-entry 2-bit
    #: counter + last target; "gshare" = the future-work global-history
    #: predictor (Section 3.4 mentions it as a candidate).
    predictor: str = "block"
    gshare_history_bits: int = 10
    penalties: PenaltyTable = field(default_factory=PenaltyTable)

    def __post_init__(self) -> None:
        if self.atb_entries <= 0 or self.atb_ways <= 0:
            raise ConfigurationError(
                f"ATB entries and ways must be positive, got "
                f"{self.atb_entries}:{self.atb_ways}"
            )
        if self.atb_entries % self.atb_ways:
            raise ConfigurationError(
                f"ATB entries {self.atb_entries} not divisible by ways "
                f"{self.atb_ways}"
            )
        num_atb_sets = self.atb_entries // self.atb_ways
        if num_atb_sets & (num_atb_sets - 1):
            raise ConfigurationError(
                f"ATB set count {num_atb_sets} is not a power of two"
            )
        if self.atb_miss_penalty < 0:
            raise ConfigurationError(
                f"ATB miss penalty must be non-negative, got "
                f"{self.atb_miss_penalty}"
            )
        if not 1 <= self.gshare_history_bits <= 24:
            raise ConfigurationError(
                f"gshare history width must lie in 1..24, got "
                f"{self.gshare_history_bits}"
            )

    @staticmethod
    def for_scheme(
        scheme: str, *, scaled: bool = False, **overrides
    ) -> "FetchConfig":
        """Standard config for a scheme.

        ``scaled`` selects the pressure-scaled cache pair (see
        :data:`BASE_CACHE_SCALED`) used by the Figure 13/14 studies.
        Hybrid organizations (``hybrid``, ``hybrid@T``) run on the
        compressed geometry — their cold majority fetches exactly like
        the Compressed organization — and keep the full key in
        ``scheme`` so per-threshold configs stay distinct.
        """
        from repro.compression.registry import fetch_scheme_base

        table = {
            "base": BASE_CACHE_SCALED if scaled else BASE_CACHE,
            "tailored": (
                TAILORED_CACHE_SCALED if scaled else TAILORED_CACHE
            ),
            "compressed": (
                COMPRESSED_CACHE_SCALED if scaled else COMPRESSED_CACHE
            ),
            "hybrid": (
                COMPRESSED_CACHE_SCALED if scaled else COMPRESSED_CACHE
            ),
        }
        cache = table.get(fetch_scheme_base(scheme))
        if cache is None:
            raise ConfigurationError(f"unknown fetch scheme {scheme!r}")
        return FetchConfig(scheme=scheme, cache=cache, **overrides)

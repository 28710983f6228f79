"""Oversized-block accounting in the L0 buffer, pinned differentially.

A block larger than the whole L0 buffer can never reside: every revisit
charges a fresh miss and goes to the L1 (the hardware would re-decompress
it each time).  These tests pin that semantics in the reference
structure, make the rejection observable, and prove the columnar fetch
engine charges the identical hit/miss counts and Table 1 costs for
traces where oversized blocks dominate.
"""

from dataclasses import asdict

import pytest

from repro.fetch.config import FetchConfig
from repro.fetch.engine import simulate_fetch, simulate_fetch_reference
from repro.fetch.sweep import sweep_supported
from repro.fetch.l0buffer import L0Buffer


class TestInstallAccounting:
    def test_fitting_block_installs_and_reports_true(self):
        buffer = L0Buffer(8)
        assert buffer.install(1, 8) is True
        assert buffer.resident_ops == 8
        assert buffer.oversized_rejects == 0

    def test_oversized_block_is_rejected_and_counted(self):
        buffer = L0Buffer(8)
        assert buffer.install(1, 9) is False
        assert buffer.resident_ops == 0
        assert buffer.oversized_rejects == 1

    def test_every_oversized_revisit_misses_again(self):
        buffer = L0Buffer(4)
        for _ in range(5):
            assert buffer.access(7, 10) is False
        assert buffer.misses == 5
        assert buffer.hits == 0
        assert buffer.oversized_rejects == 5
        # A fitting block interleaved with the oversized one still hits.
        assert buffer.access(1, 2) is False
        assert buffer.access(1, 2) is True

    def test_oversized_rejection_does_not_evict_residents(self):
        buffer = L0Buffer(8)
        buffer.access(1, 4)
        buffer.access(2, 4)
        buffer.access(3, 100)  # rejected, must not disturb 1 and 2
        assert buffer.resident_ops == 8
        assert buffer.access(1, 4) is True
        assert buffer.access(2, 4) is True


class TestKernelParity:
    """The engine must charge identical counts and Table 1 costs."""

    @pytest.mark.parametrize("capacity", [2, 4, 8, 32])
    def test_kernel_matches_reference_with_tiny_l0(
        self, capacity, compress_study
    ):
        # Small capacities force the oversized path: most blocks of the
        # compress benchmark exceed 2-4 ops.
        compressed = compress_study.compressed("full")
        trace = compress_study.run.block_trace
        config = FetchConfig.for_scheme(
            "compressed", scaled=True, l0_capacity_ops=capacity
        )
        assert sweep_supported(config)
        fast = simulate_fetch(compressed, trace, config)
        reference = simulate_fetch_reference(compressed, trace, config)
        assert asdict(fast) == asdict(reference)

    def test_oversized_blocks_never_hit_in_the_simulation(
        self, compress_study
    ):
        compressed = compress_study.compressed("full")
        image = compressed.image
        trace = compress_study.run.block_trace
        capacity = 2
        oversized = {
            b.block_id for b in image if b.op_count > capacity
        }
        assert oversized, "expected some blocks above the tiny capacity"
        config = FetchConfig.for_scheme(
            "compressed", scaled=True, l0_capacity_ops=capacity
        )
        metrics = simulate_fetch_reference(compressed, trace, config)
        oversized_visits = sum(
            1 for block_id in trace if block_id in oversized
        )
        # Every visit to an oversized block is an L0 miss, so hits can
        # account for at most the remaining visits.
        assert metrics.buffer_hits <= len(trace) - oversized_visits
        assert metrics.buffer_misses >= oversized_visits

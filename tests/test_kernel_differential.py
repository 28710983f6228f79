"""Differential tests: the fetch fast path is bit-identical to its oracle.

``simulate_fetch`` runs the columnar engine of ``repro.fetch.sweep``; it
is an *optimization* of the retained ``simulate_fetch_reference``, and
every ``FetchMetrics`` field must match exactly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.fetch.config import FetchConfig, PenaltyTable
from repro.fetch.engine import simulate_fetch, simulate_fetch_reference
from repro.fetch.sweep import sweep_supported

#: fetch scheme -> compression-scheme key of the image it runs on.
SCHEME_IMAGE = {"base": "base", "tailored": "tailored",
                "compressed": "full"}


@pytest.mark.parametrize("scaled", [True, False])
@pytest.mark.parametrize("scheme", sorted(SCHEME_IMAGE))
def test_fetch_kernel_matches_reference(compress_study, scheme, scaled):
    compressed = compress_study.compressed(SCHEME_IMAGE[scheme])
    trace = compress_study.run.block_trace
    config = FetchConfig.for_scheme(scheme, scaled=scaled)
    assert sweep_supported(config)
    reference = simulate_fetch_reference(compressed, trace, config)
    fast = simulate_fetch(compressed, trace, config)
    assert fast == reference


def test_fetch_kernel_matches_reference_gshare(compress_study):
    compressed = compress_study.compressed("full")
    trace = compress_study.run.block_trace
    config = FetchConfig.for_scheme(
        "compressed", scaled=True, predictor="gshare"
    )
    assert sweep_supported(config)
    assert simulate_fetch(compressed, trace, config) == (
        simulate_fetch_reference(compressed, trace, config)
    )


def test_fetch_kernel_matches_reference_with_l0_hits(compress_study):
    """The default 32-op L0 never hits at this scale; widen it so the
    engine's buffer-hit path is differentially covered too."""
    compressed = compress_study.compressed("full")
    trace = compress_study.run.block_trace
    config = FetchConfig.for_scheme(
        "compressed", scaled=True, l0_capacity_ops=128
    )
    reference = simulate_fetch_reference(compressed, trace, config)
    assert reference.buffer_hits > 0
    assert simulate_fetch(compressed, trace, config) == reference


def test_fetch_kernel_empty_trace(compress_study):
    compressed = compress_study.compressed("base")
    config = FetchConfig.for_scheme("base", scaled=True)
    assert simulate_fetch(compressed, [], config) == (
        simulate_fetch_reference(compressed, [], config)
    )


def test_dispatcher_falls_back_on_unsupported_config(compress_study):
    class SubclassedTable(PenaltyTable):
        """The engine pre-resolves Table 1; a subclass could override
        ``initiation_cycles`` per call, so it must force the reference."""

    config = dataclasses.replace(
        FetchConfig.for_scheme("base", scaled=True),
        penalties=SubclassedTable(),
    )
    assert not sweep_supported(config)
    compressed = compress_study.compressed("base")
    trace = compress_study.run.block_trace
    assert simulate_fetch(compressed, trace, config) == (
        simulate_fetch_reference(compressed, trace, config)
    )


class RecordingPenaltyTable(PenaltyTable):
    """Table 1 plus a log of ``(buffer_hit, n)`` per initiation charge."""

    def __init__(self) -> None:
        self.calls = []

    def initiation_cycles(
        self, scheme, *, pred_correct, cache_hit, buffer_hit, n
    ):
        self.calls.append((buffer_hit, n))
        return super().initiation_cycles(
            scheme,
            pred_correct=pred_correct,
            cache_hit=cache_hit,
            buffer_hit=buffer_hit,
            n=n,
        )


def test_buffer_hit_always_charges_one_line(compress_study):
    """An L0 hit must charge exactly one line — never a ``total_lines``
    carried over from an earlier iteration's L1 probe."""
    table = RecordingPenaltyTable()
    # A 128-op L0 actually gets hits on this trace (the paper's 32-op
    # buffer is smaller than this study's hot loop bodies).
    config = dataclasses.replace(
        FetchConfig.for_scheme(
            "compressed", scaled=True, l0_capacity_ops=128
        ),
        penalties=table,
    )
    compressed = compress_study.compressed("full")
    simulate_fetch_reference(
        compressed, compress_study.run.block_trace, config
    )
    buffer_hit_lines = {n for hit, n in table.calls if hit}
    assert buffer_hit_lines == {1}
    # The guard is only meaningful if the same run also saw multi-line
    # charges that a stale binding could have leaked from.
    assert any(n > 1 for hit, n in table.calls if not hit)

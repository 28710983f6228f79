"""Future-work extension — complex blocks as fetch units.

Merges fallthrough-only chains into atomic fetch units (Sections 3.1/7:
"use of more complicated blocks is a matter of performance, not
correctness").  Two results:

1. On the suite, the compiler's block formation leaves **zero**
   mergeable chains — every fallthrough successor is a join point.
   That is itself a reproduction-relevant finding: basic blocks out of
   a clean compiler are already maximal fetch units.
2. On deliberately fragmented code (straight-line bodies split across
   many labels, as hand-written assembly or debug builds produce),
   chaining collapses the fragments and removes per-block initiation
   and prediction events.
"""

from repro.compiler import ModuleBuilder, compile_module
from repro.compression.schemes import BaselineScheme
from repro.core.study import study_for
from repro.emulator import emulate
from repro.fetch.config import FetchConfig
from repro.fetch.engine import simulate_fetch
from repro.fetch.superblock import (
    form_chains,
    merge_fallthrough_chains,
    transform_trace,
)
from repro.programs.suite import BENCHMARK_NAMES
from repro.utils.tables import format_table


def _suite_rows():
    rows = []
    for name in BENCHMARK_NAMES:
        image = study_for(name).compiled.image
        chains = form_chains(image)
        longest = max(len(c) for c in chains)
        rows.append([name, len(image), len(chains), longest])
    return rows


def test_suite_blocks_already_maximal(benchmark, report):
    rows = benchmark.pedantic(_suite_rows, rounds=1, iterations=1)
    report(
        "ext_chains_suite",
        format_table(
            ["benchmark", "blocks", "fetch_units", "longest_chain"],
            rows,
            title="Fetch-unit chains in compiler output "
                  "(none expected: blocks are maximal)",
        ),
    )
    for name, blocks, units, longest in rows:
        assert units == blocks, (
            f"{name}: compiler left mergeable fallthrough chains"
        )
        assert longest == 1


def _fragmented_module(pieces=24, ops_per_piece=4):
    """A straight-line body split across many labels inside a loop."""
    mb = ModuleBuilder("fragmented")
    mb.global_array("result", words=1)
    b = mb.function("main", num_args=0)
    acc = b.ireg()
    b.li(acc, 0)
    i = b.ireg()
    b.li(i, 0)
    limit = b.iconst(400)
    b.label("loop")
    for piece in range(pieces):
        b.label(f"piece{piece}")
        for j in range(ops_per_piece):
            t = b.ireg()
            b.li(t, piece * 8 + j)
            b.add(acc, acc, t)
    b.addi(i, i, 1)
    p = b.preg()
    b.cmp_lt(p, i, limit)
    b.br_if(p, "loop")
    out = b.ireg()
    b.la(out, "result")
    b.store(out, acc)
    b.halt()
    b.done()
    return mb.build()


def _fragmented_rows():
    module = _fragmented_module()
    prog = compile_module(module, opt=False)  # keep the fragments
    image = prog.image
    result = emulate(image, module.globals)
    trace = result.block_trace
    merged, unit_of_block = merge_fallthrough_chains(image)
    unit_trace = transform_trace(trace, image, unit_of_block)
    config = FetchConfig.for_scheme("base", scaled=True)
    plain = simulate_fetch(BaselineScheme().compress(image), trace,
                           config)
    chained = simulate_fetch(
        BaselineScheme().compress(merged), unit_trace, config
    )
    return [
        ["fragmented blocks", len(image), plain.ipc,
         plain.blocks_fetched],
        ["chained units", len(merged), chained.ipc,
         chained.blocks_fetched],
    ], merged, image


def test_chaining_fragmented_code(benchmark, report):
    rows, merged, image = benchmark.pedantic(
        _fragmented_rows, rounds=1, iterations=1
    )
    report(
        "ext_chains_fragmented",
        format_table(
            ["configuration", "blocks", "ipc", "fetch_events"],
            rows,
            title="Chaining fragmented straight-line code "
                  "(Base organization)",
        ),
    )
    plain, chained = rows
    assert len(merged) < len(image) / 2  # fragments collapsed
    assert chained[3] < plain[3]  # fewer fetch/prediction events
    # IPC gain is small by design: Table 1 already charges just one
    # cycle for a correctly-predicted hit, and fallthrough successors
    # predict perfectly — so chaining pays off only through reduced
    # ATB pressure.  It must never lose.
    assert chained[2] >= plain[2] - 1e-9

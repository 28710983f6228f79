"""Section 4 ablation — the L0 buffer of decompressed instructions.

Paper: "tight, frequently executed loops (like DSP kernels) fit into the
buffer completely, which will result in equivalent performance to an
uncompressed cache."  This bench (a) shows the DSP kernels reaching
near-Base IPC under Compressed thanks to L0 hits, and (b) sweeps the
buffer capacity (8/16/32/64 ops) on a general benchmark.
"""

from repro.compiler import compile_module
from repro.compression.schemes import BaselineScheme, FullOpHuffmanScheme
from repro.core.sweep import run_sweep
from repro.emulator import emulate
from repro.fetch.config import FetchConfig
from repro.fetch.engine import simulate_fetch
from repro.programs.kernels import KERNELS
from repro.utils.tables import format_table


def _kernel_rows():
    rows = []
    for name, (build, reference) in sorted(KERNELS.items()):
        module = build(8)
        prog = compile_module(module)
        result = emulate(prog.image, module.globals)
        assert result.machine.load_word(
            module.globals["result"].address
        ) == reference(8)
        trace = result.block_trace
        base = simulate_fetch(
            BaselineScheme().compress(prog.image), trace,
            FetchConfig.for_scheme("base", scaled=True),
        )
        comp = simulate_fetch(
            FullOpHuffmanScheme().compress(prog.image), trace,
            FetchConfig.for_scheme("compressed", scaled=True),
        )
        rows.append(
            [name, base.ipc, comp.ipc,
             100.0 * comp.buffer_hits / max(1, comp.blocks_fetched)]
        )
    return rows


def test_dsp_kernels_fit_l0(benchmark, report):
    rows = benchmark.pedantic(_kernel_rows, rounds=1, iterations=1)
    report(
        "l0_kernels",
        format_table(
            ["kernel", "base_ipc", "compressed_ipc", "l0_hit%"],
            rows,
            title="Section 4: DSP kernels under the 32-op L0 buffer",
        ),
    )
    for name, base_ipc, comp_ipc, l0_hit in rows:
        # The steady-state loop lives in the buffer...
        assert l0_hit > 60.0, f"{name}: L0 barely hit"
        # ...so Compressed performance is equivalent to Base (paper's
        # claim); allow a small slack for cold blocks.
        assert comp_ipc > 0.93 * base_ipc, f"{name}: L0 did not rescue"


def _sweep_rows():
    # All four L0 capacities ride one columnar engine pass (one shared
    # predictor component, one cache component per capacity).
    capacities = (8, 16, 32, 64)
    configs = [
        FetchConfig.for_scheme(
            "compressed", scaled=True, l0_capacity_ops=capacity
        )
        for capacity in capacities
    ]
    rows = []
    for capacity, metrics in zip(capacities, run_sweep("li", configs)):
        rows.append(
            [capacity, metrics.ipc,
             100.0 * metrics.buffer_hits / max(1, metrics.blocks_fetched)]
        )
    return rows


def test_l0_capacity_sweep(benchmark, report):
    rows = benchmark.pedantic(_sweep_rows, rounds=1, iterations=1)
    report(
        "l0_capacity_sweep",
        format_table(
            ["l0_ops", "compressed_ipc", "l0_hit%"],
            rows,
            title="L0 capacity sweep (li benchmark)",
        ),
    )
    hits = [r[2] for r in rows]
    assert hits == sorted(hits), "L0 hit rate must grow with capacity"
    ipcs = [r[1] for r in rows]
    assert ipcs[-1] >= ipcs[0] - 1e-9

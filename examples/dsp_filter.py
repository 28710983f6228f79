#!/usr/bin/env python3
"""DSP firmware under the compressed ICache (paper Section 4).

The paper observes that "tight, frequently executed loops (like DSP
kernels) fit into the [32-op L0] buffer completely, which will result in
equivalent performance to an uncompressed cache."  This script compiles
the FIR/dot-product/biquad kernels, runs them, and compares the Base and
Compressed fetch organizations: the compressed ROM is a fraction of the
size, while the L0 buffer keeps the delivered IPC at parity.

Run:  python examples/dsp_filter.py
"""

from repro.compiler import compile_module
from repro.compression.schemes import BaselineScheme, FullOpHuffmanScheme
from repro.emulator import emulate
from repro.fetch.config import FetchConfig
from repro.fetch.engine import simulate_fetch
from repro.programs.kernels import KERNELS
from repro.utils.tables import format_table


def main() -> None:
    rows = []
    for name, (build, reference) in sorted(KERNELS.items()):
        module = build(8)
        program = compile_module(module)
        result = emulate(program.image, module.globals)
        got = result.machine.load_word(
            module.globals["result"].address
        )
        assert got == reference(8), f"{name} result mismatch"

        trace = result.block_trace
        base_image = BaselineScheme().compress(program.image)
        comp_image = FullOpHuffmanScheme().compress(program.image)
        base = simulate_fetch(
            base_image, trace, FetchConfig.for_scheme("base", scaled=True)
        )
        comp = simulate_fetch(
            comp_image, trace,
            FetchConfig.for_scheme("compressed", scaled=True),
        )
        rows.append(
            [
                name,
                base_image.total_code_bytes,
                comp_image.total_code_bytes,
                base.ipc,
                comp.ipc,
                100.0 * comp.buffer_hits / max(1, comp.blocks_fetched),
            ]
        )
    print(
        format_table(
            ["kernel", "ROM bytes", "compressed bytes", "base IPC",
             "compressed IPC", "L0 hit %"],
            rows,
            title="DSP kernels: compressed ROM at uncompressed speed",
        )
    )
    print()
    print(
        "The steady-state loops live in the 32-op L0 buffer, so the\n"
        "compressed organization matches Base IPC while shipping a\n"
        "fraction of the ROM — the paper's Section 4 result."
    )


if __name__ == "__main__":
    main()

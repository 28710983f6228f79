#!/usr/bin/env python3
"""Quickstart: write a program, compile it, run it, compress it.

Walks the whole toolchain on a small checksum kernel:

1. build a program against the :class:`FunctionBuilder` API,
2. compile it to a TEPIC VLIW image (optimize, allocate, schedule),
3. execute it on the emulator and read the result from data memory,
4. re-encode the image under every compression scheme of the paper and
   print the Figure 5-style comparison for this one program.

Run:  python examples/quickstart.py
"""

from repro.compiler import ModuleBuilder, compile_module
from repro.compression import (
    BaselineScheme,
    ByteHuffmanScheme,
    FullOpHuffmanScheme,
    SIX_STREAM_CONFIGS,
    StreamHuffmanScheme,
    scheme_decoder_cost,
)
from repro.emulator import emulate
from repro.tailored import TailoredScheme
from repro.utils.tables import format_table


def build_program():
    """result = Σ (i*i mod 97) for i < 200, via a helper function."""
    mb = ModuleBuilder("quickstart")
    mb.global_array("result", words=1)

    f = mb.function("sq_mod", num_args=1)
    x = f.arg(0)
    t = f.ireg()
    f.mpy(t, x, x)
    f.modi(t, t, 97)
    f.ret(t)
    f.done()

    b = mb.function("main", num_args=0)
    i = b.ireg()
    total = b.ireg()
    b.li(i, 0)
    b.li(total, 0)
    limit = b.iconst(200)
    b.label("loop")
    part = b.ireg()
    b.call("sq_mod", args=[i], ret=part)
    b.add(total, total, part)
    b.addi(i, i, 1)
    p = b.preg()
    b.cmp_lt(p, i, limit)
    b.br_if(p, "loop")
    out = b.ireg()
    b.la(out, "result")
    b.store(out, total)
    b.halt()
    b.done()
    return mb.build()


def main():
    module = build_program()
    program = compile_module(module)
    image = program.image
    print(
        f"compiled {image.name!r}: {len(image)} blocks, "
        f"{image.total_ops} ops in {image.total_mops} MultiOps "
        f"({image.baseline_code_bytes} bytes of 40-bit TEPIC code)"
    )

    result = emulate(image, module.globals)
    value = result.machine.load_word(module.globals["result"].address)
    expected = sum(i * i % 97 for i in range(200))
    status = "OK" if value == expected else "WRONG"
    print(
        f"emulated {result.dynamic_ops} ops in {result.dynamic_mops} "
        f"MultiOps (ideal IPC {result.ideal_ipc:.2f}); "
        f"result={value} [{status}]"
    )

    schemes = [
        BaselineScheme(),
        ByteHuffmanScheme(),
        StreamHuffmanScheme(SIX_STREAM_CONFIGS[0]),
        FullOpHuffmanScheme(),
        TailoredScheme(),
    ]
    rows = []
    for scheme in schemes:
        compressed = scheme.compress(image)
        compressed.verify()  # decompress and compare, bit for bit
        cost = scheme_decoder_cost(compressed)
        rows.append(
            [
                scheme.name,
                compressed.total_code_bytes,
                compressed.ratio_percent(),
                cost.transistors,
            ]
        )
    print()
    print(
        format_table(
            ["scheme", "bytes", "% of original", "decoder transistors"],
            rows,
            title="Compression comparison (verified round-trip)",
        )
    )


if __name__ == "__main__":
    main()

"""The named benchmarks behind ``repro bench``.

Micro benchmarks isolate the fast primitives (bit packing, canonical
Huffman decode, and threaded-code emulation of a synthetic op-soup
loop); macro benchmarks run real study workloads — replaying the trace
through the columnar fetch engine, generating the trace with the
threaded-code emulator, and an end-to-end Figure 13 row.  Workloads are
seeded, so two runs on one machine measure the same work.

Each benchmark names its production fast path and the reference oracle
it is timed against (``BitWriter`` vs ``ReferenceBitWriter``,
``simulate_fetch`` vs ``simulate_fetch_reference``, ``run_image_kernel``
vs ``run_image``).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.bench.harness import Benchmark
from repro.compression.huffman import HuffmanCode, HuffmanDecoder
from repro.utils.bitstream import BitReader, BitWriter, ReferenceBitWriter

#: Benchmark/scale of the macro workload — big enough to exercise cache
#: and ATB pressure, small enough to build in seconds.
_MACRO_BENCH = "compress"
_MACRO_SCALE = 6
_SEED = 0x1999  # the paper's year


# ------------------------------------------------------------ bitstream
def _bitstream_setup(quick: bool) -> List[tuple]:
    rng = random.Random(_SEED)
    count = 6_000 if quick else 40_000
    chunks = []
    for _ in range(count):
        width = rng.randint(1, 24)
        chunks.append((rng.getrandbits(width), width))
    return chunks

def _pack(writer_cls, chunks) -> tuple:
    writer = writer_cls()
    write = writer.write
    for value, width in chunks:
        write(value, width)
    return writer.bit_length, writer.to_bytes()

def _bitstream_compare(chunks, ref_out, kernel_out) -> bool:
    if ref_out != kernel_out:
        return False
    bit_length, data = kernel_out
    reader = BitReader(data, bit_length)
    return all(reader.read(width) == value for value, width in chunks)

def _bitstream_describe(chunks) -> Dict[str, Any]:
    return {
        "chunks": len(chunks),
        "bits": sum(width for _, width in chunks),
    }


# -------------------------------------------------------------- huffman
def _huffman_setup(quick: bool) -> Dict[str, Any]:
    rng = random.Random(_SEED + 1)
    num_symbols = 96 if quick else 320
    frequencies = {
        symbol: 1 + rng.getrandbits(rng.randint(1, 14))
        for symbol in range(num_symbols)
    }
    code = HuffmanCode.from_frequencies(frequencies, max_length=16)
    symbols = list(frequencies)
    weights = [frequencies[s] for s in symbols]
    stream = rng.choices(
        symbols, weights=weights, k=4_000 if quick else 30_000
    )
    writer = BitWriter()
    for symbol in stream:
        code.encode_symbol(symbol, writer)
    decoder = HuffmanDecoder(code)
    return {
        "code": code,
        "decoder": decoder,
        "stream": stream,
        "data": writer.to_bytes(),
        "bits": writer.bit_length,
    }

def _huffman_encode(workload, writer_cls) -> tuple:
    code = workload["code"]
    writer = writer_cls()
    encode = code.encode_symbol
    for symbol in workload["stream"]:
        encode(symbol, writer)
    return writer.bit_length, writer.to_bytes()

def _huffman_decode(workload, *, reference: bool) -> List[int]:
    decoder = workload["decoder"]
    reader = BitReader(workload["data"], workload["bits"])
    decode = (
        decoder.decode_symbol_reference if reference
        else decoder.decode_symbol
    )
    return [decode(reader) for _ in range(len(workload["stream"]))]

def _huffman_decode_compare(workload, ref_out, kernel_out) -> bool:
    return ref_out == kernel_out == workload["stream"]

def _huffman_describe(workload) -> Dict[str, Any]:
    return {
        "dictionary_entries": workload["code"].num_entries,
        "stream_symbols": len(workload["stream"]),
        "stream_bits": workload["bits"],
    }


# ------------------------------------------------------------ fetch sim
def _fetch_setup(scheme: str, quick: bool) -> Dict[str, Any]:
    # Imported lazily: building a study compiles and traces a benchmark
    # program, which the micro benchmarks never need.
    from repro.core.study import study_for
    from repro.fetch.config import FetchConfig

    study = study_for(_MACRO_BENCH, _MACRO_SCALE)
    image_key = {
        "base": "base", "tailored": "tailored", "compressed": "full",
        "hybrid": "hybrid", "hybrid:static": "hybrid:static",
    }[scheme]
    repeat = 3 if quick else 20
    return {
        "compressed": study.compressed(image_key),
        "trace": list(study.run.block_trace) * repeat,
        "config": FetchConfig.for_scheme(scheme),
    }

def _fetch_run(workload, simulate):
    return simulate(
        workload["compressed"], workload["trace"], workload["config"]
    )

def _fetch_describe(workload) -> Dict[str, Any]:
    return {
        "study": f"{_MACRO_BENCH}@{_MACRO_SCALE}",
        "trace_blocks": len(workload["trace"]),
        "image_blocks": len(workload["compressed"].image),
    }


# ----------------------------------------------------------- sweep grid
#: The acceptance grid: 3 schemes × 2 caches × 4 ATBs × 2 predictors,
#: with the L0 axis expanding only under the compressed scheme
#: (16 + 16 + 32 = 64 config points).
def _sweep_grid():
    from repro.core.sweep import expand_grid

    return expand_grid(
        ("base", "tailored", "compressed"),
        caches=[(1280, 2, 40), (1024, 2, 32)],
        atbs=[(32, 4), (64, 4), (128, 4), (256, 8)],
        predictors=("block", "gshare"),
        l0_capacities=(8, 32),
    )

def _sweep_setup(quick: bool) -> Dict[str, Any]:
    from repro.core.study import study_for
    from repro.runtime.tasks import FETCH_IMAGE_KEYS

    study = study_for(_MACRO_BENCH, _MACRO_SCALE)
    repeat = 2 if quick else 3
    return {
        "images": {
            scheme: study.compressed(FETCH_IMAGE_KEYS[scheme])
            for scheme in ("base", "tailored", "compressed")
        },
        "trace": list(study.run.block_trace) * repeat,
        "grid": _sweep_grid(),
    }

def _sweep_sequential(workload) -> List[Any]:
    """The pre-sweep cost model: one full replay per config."""
    from repro.fetch.engine import simulate_fetch

    trace = workload["trace"]
    images = workload["images"]
    return [
        simulate_fetch(images[config.scheme], trace, config)
        for config in workload["grid"]
    ]

def _sweep_batched(workload) -> List[Any]:
    from repro.fetch.sweep import simulate_fetch_sweep_multi

    return simulate_fetch_sweep_multi(
        workload["images"], workload["trace"], workload["grid"]
    )

#: Grid points also replayed by the reference oracle.  Both timed sides
#: run the columnar engine (``simulate_fetch`` is a one-point sweep), so
#: the batch-vs-sequential flags alone would compare it with itself.
_SWEEP_REFERENCE_SAMPLES = 4

def _sweep_compare(workload, ref_out, kernel_out) -> bool:
    from repro.fetch.engine import simulate_fetch_reference

    flags = [a == b for a, b in zip(ref_out, kernel_out)]
    workload["_identical_flags"] = flags
    grid = workload["grid"]
    sample = random.Random(_SEED).sample(
        range(len(grid)), min(_SWEEP_REFERENCE_SAMPLES, len(grid))
    )
    reference_flags = [
        kernel_out[index]
        == simulate_fetch_reference(
            workload["images"][grid[index].scheme],
            workload["trace"],
            grid[index],
        )
        for index in sample
    ]
    workload["_reference_flags"] = reference_flags
    return (
        len(ref_out) == len(kernel_out)
        and all(flags)
        and all(reference_flags)
    )

def _sweep_describe(workload) -> Dict[str, Any]:
    flags = workload.get("_identical_flags", [])
    reference_flags = workload.get("_reference_flags", [])
    return {
        "study": f"{_MACRO_BENCH}@{_MACRO_SCALE}",
        "trace_blocks": len(workload["trace"]),
        "configs": len(workload["grid"]),
        "identical_configs": sum(flags),
        "reference_checked_configs": len(reference_flags),
        "reference_identical_configs": sum(reference_flags),
    }


# -------------------------------------------------------- adaptive sweep
#: A mixed-scheme grid with the hybrid hotness axis: the columnar
#: engine must stay exact when per-block penalty families and the
#: cold-only L0 are in play (2×2 hybrid points + 2 compressed = 10).
def _adaptive_grid():
    from repro.core.sweep import expand_grid

    return expand_grid(
        ("compressed", "hybrid"),
        hotness_thresholds=(0.15, 0.3),
        l0_capacities=(16, 32),
        bus_widths=(8,),
    )

def _adaptive_setup(quick: bool) -> Dict[str, Any]:
    from repro.core.study import study_for

    study = study_for(_MACRO_BENCH, _MACRO_SCALE)
    repeat = 2 if quick else 3
    grid = _adaptive_grid()
    return {
        "images": {
            config.scheme: study.compressed(
                "full" if config.scheme == "compressed" else config.scheme
            )
            for config in grid
        },
        "trace": list(study.run.block_trace) * repeat,
        "grid": grid,
    }


# -------------------------------------------------------- emulation
def _emulate_micro_image(iterations: int):
    """A synthetic op-soup loop touching every execution path the
    threaded-code kernel specializes: int/fp/compare/memory ops,
    predicated moves (via ``select``) and a call/ret pair."""
    from repro.compiler import compile_module
    from repro.compiler.builder import ModuleBuilder

    mb = ModuleBuilder("emubench")
    mb.global_array("buf", words=64)
    mb.global_array("result", words=1)

    helper = mb.function("mix", num_args=1)
    hv = helper.arg(0)
    out = helper.ireg()
    helper.xori(out, hv, 0x5A5A)
    helper.srai(out, out, 3)
    helper.ret(out)
    helper.done()

    b = mb.function("main", num_args=0)
    base = b.ireg()
    b.la(base, "buf")
    i = b.ireg()
    b.li(i, 0)
    acc = b.ireg()
    b.li(acc, 1)
    total = b.iconst(iterations)
    # Loop 1: integer ALU, memory traffic, a call/ret pair and a
    # predicated select.  (No FP state may live across the call — FP
    # spill slots cannot be expressed in the baseline encoding.)
    b.label("iloop")
    slot = b.ireg()
    b.modi(slot, i, 64)
    b.store_index(base, slot, acc)
    back = b.ireg()
    b.load_index(back, base, slot)
    b.mpyi(acc, acc, 1103515245)
    b.addi(acc, acc, 12345)
    b.xor(acc, acc, back)
    mixed = b.ireg()
    b.call("mix", [acc], ret=mixed)
    lo = b.ireg()
    b.andi(lo, mixed, 0xFF)
    p = b.preg()
    b.cmpi_gt(p, lo, 127)
    picked = b.ireg()
    b.select(picked, p, lo, acc)
    b.add(acc, acc, picked)
    b.addi(i, i, 1)
    pg = b.preg()
    b.cmp_lt(pg, i, total)
    b.br_if(pg, "iloop")
    # Loop 2: the floating-point families.
    facc = b.freg()
    seed = b.iconst(3)
    b.i2f(facc, seed)
    cap = b.freg()
    big = b.iconst(65536)
    b.i2f(cap, big)
    b.li(i, 0)
    b.label("floop")
    fstep = b.freg()
    step = b.ireg()
    b.andi(step, i, 0xFF)
    b.i2f(fstep, step)
    b.fadd(facc, facc, fstep)
    b.fmpy(facc, facc, facc)
    b.fabs_(facc, facc)
    b.fdiv(facc, facc, cap)
    b.addi(i, i, 1)
    pf = b.preg()
    b.cmp_lt(pf, i, total)
    b.br_if(pf, "floop")
    fout = b.ireg()
    b.f2i(fout, facc)
    b.xor(acc, acc, fout)
    outp = b.ireg()
    b.la(outp, "result")
    b.store(outp, acc)
    b.halt()
    b.done()
    return compile_module(mb.build())

def _emulate_micro_setup(quick: bool) -> Dict[str, Any]:
    compiled = _emulate_micro_image(800 if quick else 4_000)
    return {
        "image": compiled.image,
        "globals": compiled.module.globals,
        "study": "synthetic op-soup loop",
    }

def _emulate_macro_setup(quick: bool) -> Dict[str, Any]:
    from repro.core.study import study_for

    scale = _MACRO_SCALE - 2 if quick else _MACRO_SCALE
    study = study_for(_MACRO_BENCH, scale)
    return {
        "image": study.compiled.image,
        "globals": study.compiled.module.globals,
        "study": f"{_MACRO_BENCH}@{scale}",
    }

def _emulate_run(workload, run):
    return run(workload["image"], workload["globals"])

def _emulate_compare(workload, ref_out, kernel_out) -> bool:
    # RunResult's dataclass equality compares machines by identity;
    # the fingerprint covers every field plus the state checksum.
    return ref_out.fingerprint() == kernel_out.fingerprint()

def _emulate_describe(workload) -> Dict[str, Any]:
    image = workload["image"]
    return {
        "study": workload["study"],
        "image_blocks": len(image),
        "static_mops": image.total_mops,
    }

def _emulate_benchmark(kind: str) -> Benchmark:
    from repro.emulator.kernel import run_image_kernel
    from repro.emulator.machine import run_image

    setup = _emulate_micro_setup if kind == "micro" else _emulate_macro_setup
    what = (
        "emulate a synthetic all-families op loop"
        if kind == "micro"
        else f"generate the full {_MACRO_BENCH} study trace"
    )
    return Benchmark(
        name=f"emulate_trace_{kind}",
        kind=kind,
        description=f"{what} (threaded-code kernel vs interpretive loop)",
        setup=setup,
        reference=lambda w: _emulate_run(w, run_image),
        kernel=lambda w: _emulate_run(w, run_image_kernel),
        compare=_emulate_compare,
        describe=_emulate_describe,
    )


# --------------------------------------------------------- fig13 e2e
def _fig13_setup(quick: bool) -> Dict[str, Any]:
    from repro.core.study import study_for
    from repro.fetch.config import FetchConfig

    study = study_for(_MACRO_BENCH, _MACRO_SCALE)
    repeat = 1 if quick else 4
    return {
        "images": {
            scheme: study.compressed(image_key)
            for scheme, image_key in (
                ("base", "base"),
                ("tailored", "tailored"),
                ("compressed", "full"),
            )
        },
        "configs": {
            scheme: FetchConfig.for_scheme(scheme)
            for scheme in ("base", "tailored", "compressed")
        },
        "trace": list(study.run.block_trace) * repeat,
    }

def _fig13_run(workload, simulate) -> List[tuple]:
    from repro.fetch.engine import ideal_metrics

    trace = workload["trace"]
    ideal = ideal_metrics(workload["images"]["base"], trace)
    rows = [("ideal", ideal.cycles, ideal.ipc)]
    for scheme in ("base", "tailored", "compressed"):
        metrics = simulate(
            workload["images"][scheme], trace, workload["configs"][scheme]
        )
        rows.append((scheme, metrics.cycles, metrics.ipc))
    return rows

def _fig13_describe(workload) -> Dict[str, Any]:
    return {
        "study": f"{_MACRO_BENCH}@{_MACRO_SCALE}",
        "trace_blocks": len(workload["trace"]),
        "schemes": ["ideal", "base", "tailored", "compressed"],
    }


def _fetch_benchmark(scheme: str) -> Benchmark:
    from repro.fetch.engine import simulate_fetch, simulate_fetch_reference

    return Benchmark(
        name=f"fetch_replay_{scheme.replace(':', '_')}",
        kind="macro",
        description=(
            f"replay the {_MACRO_BENCH} trace through the {scheme} "
            "fetch organization"
        ),
        setup=lambda quick, s=scheme: _fetch_setup(s, quick),
        reference=lambda w: _fetch_run(w, simulate_fetch_reference),
        kernel=lambda w: _fetch_run(w, simulate_fetch),
        describe=_fetch_describe,
    )


def _build_benchmarks() -> tuple:
    from repro.fetch.engine import simulate_fetch, simulate_fetch_reference

    return (
        Benchmark(
            name="bitstream_roundtrip",
            kind="micro",
            description=(
                "pack a seeded variable-width stream and render bytes"
            ),
            setup=_bitstream_setup,
            reference=lambda chunks: _pack(ReferenceBitWriter, chunks),
            kernel=lambda chunks: _pack(BitWriter, chunks),
            compare=_bitstream_compare,
            describe=_bitstream_describe,
        ),
        Benchmark(
            name="huffman_encode",
            kind="micro",
            description="Huffman-encode a seeded symbol stream to bytes",
            setup=_huffman_setup,
            reference=lambda w: _huffman_encode(w, ReferenceBitWriter),
            kernel=lambda w: _huffman_encode(w, BitWriter),
            describe=_huffman_describe,
        ),
        Benchmark(
            name="huffman_decode",
            kind="micro",
            description=(
                "decode the stream back (canonical table vs per-length "
                "dict walk)"
            ),
            setup=_huffman_setup,
            reference=lambda w: _huffman_decode(w, reference=True),
            kernel=lambda w: _huffman_decode(w, reference=False),
            compare=_huffman_decode_compare,
            describe=_huffman_describe,
        ),
        _emulate_benchmark("micro"),
        _emulate_benchmark("macro"),
        _fetch_benchmark("base"),
        _fetch_benchmark("tailored"),
        _fetch_benchmark("compressed"),
        _fetch_benchmark("hybrid"),
        _fetch_benchmark("hybrid:static"),
        Benchmark(
            name="sweep_grid",
            kind="macro",
            description=(
                "simulate a 64-point cache/ATB/L0/predictor grid "
                "(columnar sweep engine vs one replay per config)"
            ),
            setup=_sweep_setup,
            reference=_sweep_sequential,
            kernel=_sweep_batched,
            compare=_sweep_compare,
            describe=_sweep_describe,
        ),
        Benchmark(
            name="sweep_adaptive",
            kind="macro",
            description=(
                "simulate a mixed compressed/hybrid hotness grid "
                "(columnar sweep engine vs one replay per config)"
            ),
            setup=_adaptive_setup,
            reference=_sweep_sequential,
            kernel=_sweep_batched,
            compare=_sweep_compare,
            describe=_sweep_describe,
        ),
        Benchmark(
            name="fig13_end2end",
            kind="macro",
            description=(
                "Figure 13 row end-to-end: ideal + all three fetch "
                "organizations"
            ),
            setup=_fig13_setup,
            reference=lambda w: _fig13_run(w, simulate_fetch_reference),
            kernel=lambda w: _fig13_run(w, simulate_fetch),
            describe=_fig13_describe,
        ),
    )


BENCHMARKS = _build_benchmarks()
BY_NAME = {spec.name: spec for spec in BENCHMARKS}

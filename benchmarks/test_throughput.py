"""Raw throughput benches for the substrates themselves.

These are classic pytest-benchmark timings (multiple rounds) so
regressions in the compiler, emulator, compressors or fetch simulator
show up as numbers, not just green tests.
"""

import pytest

from repro.compiler import compile_module
from repro.compression.schemes import FullOpHuffmanScheme
from repro.core.study import study_for
from repro.emulator import emulate
from repro.fetch.config import FetchConfig
from repro.fetch.engine import simulate_fetch
from repro.programs.suite import SUITE


def test_compile_throughput(benchmark):
    spec = SUITE["gcc"]

    def compile_once():
        return compile_module(spec.build(2))

    prog = benchmark(compile_once)
    assert prog.image.total_ops > 0


def test_emulator_throughput(benchmark):
    spec = SUITE["m88ksim"]
    module = spec.build(1)
    prog = compile_module(module)

    result = benchmark(lambda: emulate(prog.image, module.globals))
    assert result.dynamic_ops > 0


def test_compression_throughput(benchmark):
    study = study_for("perl")
    image = study.compiled.image

    compressed = benchmark(lambda: FullOpHuffmanScheme().compress(image))
    assert compressed.total_code_bytes > 0


def test_fetch_sim_throughput(benchmark):
    study = study_for("gcc")
    compressed = study.compressed("base")
    trace = study.run.block_trace
    config = FetchConfig.for_scheme("base", scaled=True)

    metrics = benchmark.pedantic(
        lambda: simulate_fetch(compressed, trace, config),
        rounds=3, iterations=1,
    )
    assert metrics.cycles > 0

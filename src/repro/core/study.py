"""Per-program studies: compile once, emulate once, reuse everywhere.

A :class:`ProgramStudy` owns the expensive artifacts of one benchmark at
one scale — the compiled image, the emulator's block trace, the
compressed images per scheme, and fetch-simulation results — and
memoizes them.  The module-level :func:`study_for` cache shares studies
across experiments within one process (all of Figures 5–14 reuse the
same trace, exactly like the paper's single trace-collection run).

Every stage additionally routes through
:func:`repro.runtime.get_or_compute`, the persistent content-addressed
artifact cache: with the cache enabled (the default), a second process —
or a second ``pytest``/CLI invocation — reloads compiled images, traces,
compressed images and fetch metrics from disk instead of recomputing
them, and the scheduler's worker processes hand artifacts back to their
parent the same way.  ``REPRO_CACHE=0`` (or ``--no-cache``) restores the
direct path, byte-identical by construction: the cache stores exactly
what the compute closures return.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro import runtime
from repro.compiler import CompiledProgram
from repro.compression.alphabets import SIX_STREAM_CONFIGS
from repro.compression.registry import (
    hybrid_profile_source,
    normalize_scheme_key,
    parse_hybrid_key,
    scheme_factory as _scheme_factory,  # noqa: F401 - re-exported name
)
from repro.compression.schemes import CompressedImage
from repro.emulator import RunResult, emulate
from repro.errors import ConfigurationError
from repro.fetch.config import FetchConfig
from repro.fetch.engine import FetchMetrics, ideal_metrics, simulate_fetch
from repro.programs.suite import SUITE, compile_benchmark
from repro.runtime.config import env_int
from repro.runtime.tasks import fetch_image_key, normalize_fetch_scheme

#: Scheme presentation order in reports (mirrors Figure 5's legend).
SCHEME_ORDER = ("byte", "stream", "stream_1", "full", "tailored")


@dataclass
class ProgramStudy:
    """All artifacts for one (benchmark, scale) pair."""

    name: str
    scale: Optional[int] = None
    _compiled: Optional[CompiledProgram] = None
    _run: Optional[RunResult] = None
    _images: dict = field(default_factory=dict)
    _fetch: dict = field(default_factory=dict)

    # -------------------------------------------------------- artifacts
    @property
    def effective_scale(self) -> int:
        """The scale actually compiled (``None`` → the suite default).

        Cache digests key on this, so ``study_for("go")`` and
        ``study_for("go", 3)`` share artifacts.
        """
        if self.scale is not None:
            return self.scale
        return SUITE[self.name].default_scale

    def _stage(self, stage: str, compute, **key):
        return runtime.get_or_compute(
            stage,
            compute,
            benchmark=self.name,
            scale=self.effective_scale,
            **key,
        )

    @property
    def compiled(self) -> CompiledProgram:
        if self._compiled is None:
            self._compiled = self._stage(
                "compile",
                lambda: compile_benchmark(self.name, self.scale),
            )
            # Opt-in post-compile gate (REPRO_ANALYZE=1): statically
            # verify the image before anything downstream consumes it.
            # Raises AnalysisError on error-severity findings; a cache
            # hit is re-verified too — corruption at rest is exactly
            # what the gate is for.
            from repro.analysis import gate_enabled

            if gate_enabled():
                from repro.analysis import enforce_image

                enforce_image(
                    self._compiled.image, program=self.name
                )
        return self._compiled

    @property
    def run(self) -> RunResult:
        if self._run is None:
            self._run = self._stage(
                "trace",
                lambda: emulate(
                    self.compiled.image, self.compiled.module.globals
                ),
            )
        return self._run

    def verify_checksum(self) -> bool:
        """Does the emulated run match the pure-Python oracle?"""
        spec = SUITE[self.name]
        scale = self.scale if self.scale is not None else spec.default_scale
        expected = spec.reference_checksum(scale)
        module = self.compiled.module
        address = module.globals["result"].address
        return self.run.machine.load_word(address) == expected

    # ------------------------------------------------------ compression
    def compressed(self, scheme_key: str) -> CompressedImage:
        """The program re-encoded under ``scheme_key`` (cached).

        Hybrid keys (``hybrid``, ``hybrid@T``) run the profile →
        recompress stage: the scheme consumes this study's own fetch
        trace as its heat profile.  The trace is a pure function of the
        (benchmark, scale, source-fingerprint) triple the store digests
        already key on, so the compressed artifact caches under the
        normalized scheme key alone.  ``:static`` hybrid keys substitute
        the compile-time heat estimate instead — the trace stage is
        never touched, which the ``static-profile-zero-trace`` invariant
        verifies via stage metrics.
        """
        scheme_key = normalize_scheme_key(scheme_key)
        if scheme_key not in self._images:

            def compute() -> CompressedImage:
                scheme = _scheme_factory(scheme_key)
                if parse_hybrid_key(scheme_key) is not None:
                    if hybrid_profile_source(scheme_key) == "static":
                        from repro.analysis.freq import static_heat_profile

                        scheme.with_profile(
                            static_heat_profile(self.compiled.image)
                        )
                    else:
                        from repro.compression.adaptive import heat_profile

                        scheme.with_profile(
                            heat_profile(
                                self.run.block_trace,
                                len(self.compiled.image),
                            )
                        )
                return scheme.compress(self.compiled.image)

            self._images[scheme_key] = self._stage(
                "compress", compute, scheme=scheme_key
            )
        return self._images[scheme_key]

    def stream_results(self) -> dict[str, CompressedImage]:
        """All six stream configurations (the paper's search space)."""
        return {
            cfg.name: self.compressed(cfg.name)
            for cfg in SIX_STREAM_CONFIGS
        }

    def best_stream_keys(self) -> tuple[str, str]:
        """(smallest-decoder, smallest-size) stream config names.

        The paper calls these ``stream`` and ``stream_1`` in Figure 5.
        """
        from repro.compression.decoder_cost import scheme_decoder_cost

        results = self.stream_results()
        by_decoder = min(
            results,
            key=lambda k: scheme_decoder_cost(results[k]).transistors,
        )
        by_size = min(results, key=lambda k: results[k].total_code_bytes)
        return by_decoder, by_size

    # ------------------------------------------------------------ fetch
    def fetch_metrics(
        self,
        scheme: str,
        config: Optional[FetchConfig] = None,
        *,
        scaled: bool = True,
    ) -> FetchMetrics:
        """Fetch simulation for one organization.

        Accepts ``base``/``tailored``/``compressed``/``ideal`` plus the
        hybrid keys (``hybrid``, ``hybrid@T``), which replay their own
        tagged image.  The Compressed organization runs on the Full-op
        Huffman image — the paper's choice for its cache study
        ("'Compressed' uses the Full op compression scheme").
        ``scaled`` (default) selects the pressure-scaled cache pair that
        puts these miniature benchmarks under the same cache pressure
        SPEC put on the paper's 16KB caches; pass ``scaled=False`` for
        the paper's literal geometry.
        """
        if scheme != "ideal":
            scheme = normalize_fetch_scheme(scheme)
        config_token = runtime.fetch_config_token(config)
        key = (scheme, scaled, config_token)
        if key in self._fetch:
            return self._fetch[key]

        def compute() -> FetchMetrics:
            trace = self.run.block_trace
            if scheme == "ideal":
                return ideal_metrics(self.compressed("base"), trace)
            return simulate_fetch(
                self.compressed(fetch_image_key(scheme)),
                trace,
                config or FetchConfig.for_scheme(scheme, scaled=scaled),
            )
        metrics = self._stage(
            "fetch",
            compute,
            scheme=scheme,
            extra={"config": config_token, "scaled": scaled},
        )
        self._fetch[key] = metrics
        return metrics


#: Capacity of the process-level study cache.  Bounded so long sweeps
#: (cache-size studies, ablations over many scales) cannot grow without
#: limit; evicted studies reload cheaply from the artifact store.
#: ``REPRO_STUDY_CACHE_CAP`` overrides it; a malformed value warns and
#: keeps the default here, and the CLI rejects it with exit code 2.
STUDY_CACHE_CAPACITY = env_int("REPRO_STUDY_CACHE_CAP", 16)

_studies: "OrderedDict[tuple[str, Optional[int]], ProgramStudy]" = (
    OrderedDict()
)


def study_for(name: str, scale: Optional[int] = None) -> ProgramStudy:
    """Shared, memoized study for a benchmark at a scale (LRU-bounded)."""
    key = (name, scale)
    study = _studies.get(key)
    if study is None:
        if name not in SUITE:
            raise ConfigurationError(f"unknown benchmark {name!r}")
        study = ProgramStudy(name, scale)
        _studies[key] = study
        while len(_studies) > STUDY_CACHE_CAPACITY:
            _studies.popitem(last=False)
    else:
        _studies.move_to_end(key)
    return study


def study_payload(
    benchmark: str,
    scale: Optional[int] = None,
    schemes: Sequence[str] = (),
) -> dict:
    """Every deterministic observable of one program study.

    ``repro study`` prints this payload: artifact digests, the oracle
    checksum, op counters and the final machine state digest, plus the
    code size of each requested compression scheme.
    """
    study = study_for(benchmark, scale)
    effective = study.effective_scale
    image = study.compiled.image
    run = study.run
    artifacts = {
        "compile": runtime.artifact_digest(
            "compile", benchmark=benchmark, scale=effective
        ),
        "trace": runtime.artifact_digest(
            "trace", benchmark=benchmark, scale=effective
        ),
    }
    scheme_results = {}
    for key in schemes:
        compressed = study.compressed(key)
        artifacts[f"compress/{key}"] = runtime.artifact_digest(
            "compress", benchmark=benchmark, scale=effective, scheme=key
        )
        scheme_results[key] = {
            "total_code_bytes": compressed.total_code_bytes,
        }
    return {
        "benchmark": benchmark,
        "scale": effective,
        "checksum_ok": study.verify_checksum(),
        "static_ops": image.total_ops,
        "dynamic_ops": run.dynamic_ops,
        "dynamic_mops": run.dynamic_mops,
        "executed_ops": run.executed_ops,
        "machine_digest": (
            run.machine.state_digest() if run.machine else None
        ),
        "artifacts": artifacts,
        "schemes": scheme_results,
    }


def clear_caches() -> None:
    """Drop all memoized in-process state (tests use this for isolation).

    Clears the study LRU, the suite's compile cache, and the runtime's
    in-process state (metrics, fingerprints, store handle).  The
    persistent on-disk artifact store survives — clearing it is an
    explicit operation (``repro cache clear``).
    """
    from repro.programs import suite as _suite

    _studies.clear()
    _suite._compile_cache.clear()
    runtime.reset_runtime_state()

"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro import runtime
from repro.cli import main
from repro.core.study import clear_caches


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("fig5", "fig7", "fig10", "fig13", "fig14"):
        assert exp_id in out


def test_run_fig5_single_benchmark(capsys):
    assert main(
        ["run", "fig5", "--benchmarks", "vortex", "--scale", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "vortex" in out
    assert "tailored%" in out


def test_run_fig10(capsys):
    assert main(
        ["run", "fig10", "--benchmarks", "gcc", "--scale", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "byte" in out and "full" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["fig5", "fig13"])
def test_run_unknown_benchmark_exits_two(capsys, experiment):
    assert main(["run", experiment, "--benchmarks", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and "nosuch" in err


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


@pytest.fixture
def fresh_cache(tmp_path):
    saved = runtime.runtime_config()
    clear_caches()
    runtime.configure(enabled=True, cache_dir=tmp_path / "cache")
    yield
    clear_caches()
    runtime.set_runtime_config(saved)


def test_run_json_includes_rows_and_runtime_report(capsys, fresh_cache):
    assert main(
        ["run", "fig5", "--benchmarks", "compress", "--scale", "2",
         "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "fig5"
    assert payload["headers"][0] == "benchmark"
    assert payload["rows"][0][0] == "compress"
    assert payload["runtime"]["totals"]["misses"] > 0  # cold store


def test_second_run_is_all_cache_hits(capsys, fresh_cache):
    args = ["run", "fig5", "--benchmarks", "compress", "--scale", "2",
            "--json"]
    assert main(args) == 0
    capsys.readouterr()
    clear_caches()
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runtime"]["totals"]["hits"] > 0
    assert payload["runtime"]["totals"]["misses"] == 0


def test_run_no_cache_bypasses_the_store(capsys, fresh_cache):
    assert main(
        ["run", "fig5", "--benchmarks", "compress", "--scale", "2",
         "--no-cache", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runtime"]["totals"]["hits"] == 0
    assert runtime.default_store().stats().entries == 0


def test_run_rows_identical_with_and_without_cache(capsys, fresh_cache):
    args = ["run", "fig5", "--benchmarks", "compress", "--scale", "2",
            "--json"]
    assert main(args + ["--no-cache"]) == 0
    direct = json.loads(capsys.readouterr().out)["rows"]
    clear_caches()
    runtime.configure(enabled=True)
    assert main(args) == 0  # cold
    cold = json.loads(capsys.readouterr().out)["rows"]
    clear_caches()
    assert main(args) == 0  # warm
    warm = json.loads(capsys.readouterr().out)["rows"]
    assert direct == cold == warm


def test_suite_json_reports_failures_and_exits_nonzero(
    capsys, monkeypatch, fresh_cache
):
    from repro.core.study import ProgramStudy

    monkeypatch.setattr(
        ProgramStudy, "verify_checksum", lambda self: self.name != "go"
    )
    assert main(["suite", "--scale", "2", "--json"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["failures"] == ["go"]
    assert "go" in captured.err and "MISMATCH" in captured.err


def test_suite_names_failing_benchmark_on_stderr(
    capsys, monkeypatch, fresh_cache
):
    from repro.core.study import ProgramStudy

    monkeypatch.setattr(
        ProgramStudy, "verify_checksum", lambda self: self.name != "perl"
    )
    assert main(["suite", "--scale", "2"]) == 1
    err = capsys.readouterr().err
    assert "perl" in err


def test_suite_ok_exits_zero(capsys, fresh_cache):
    assert main(["suite", "--scale", "2"]) == 0
    out = capsys.readouterr().out
    assert "Benchmark suite" in out
    assert "Runtime report" in out


def test_cache_stats_and_clear(capsys, fresh_cache):
    assert main(
        ["run", "fig5", "--benchmarks", "compress", "--scale", "2",
         "--json"]
    ) == 0
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "Artifact cache" in out and "entries" in out
    assert main(["cache", "clear"]) == 0
    assert "dropped" in capsys.readouterr().out
    assert runtime.default_store().stats().entries == 0


def test_run_with_jobs_prewarms_in_parallel(capsys, fresh_cache):
    assert main(
        ["run", "fig10", "--benchmarks", "compress", "go", "--scale", "2",
         "--jobs", "2", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0][0] == "compress"
    # prewarm computed in workers; the row pass read everything back
    assert payload["runtime"]["totals"]["hits"] > 0


class TestInvocationValidation:
    """Bad flags and malformed REPRO_* values fail fast with exit 2."""

    def test_jobs_zero_rejected(self, capsys):
        assert main(["run", "fig5", "--jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "0" in err

    def test_jobs_negative_rejected(self, capsys):
        assert main(["suite", "--jobs", "-3"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_malformed_repro_jobs_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "banana")
        assert main(["list"]) == 2
        assert "REPRO_JOBS" in capsys.readouterr().err

    def test_malformed_repro_cache_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "maybe")
        assert main(["list"]) == 2
        assert "REPRO_CACHE" in capsys.readouterr().err

    def test_negative_repro_cache_max_bytes_rejected(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "-5")
        assert main(["list"]) == 2
        assert "REPRO_CACHE_MAX_BYTES" in capsys.readouterr().err

    def test_library_path_warns_once_and_defaults(self, monkeypatch):
        import warnings

        from repro.runtime.config import config_from_env

        config = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config = config_from_env({"REPRO_JOBS": "many"})
        assert config.jobs == 1
        assert any(
            "REPRO_JOBS" in str(w.message) for w in caught
        )

    def test_study_cache_cap_library_path_warns_and_defaults(self):
        import warnings

        from repro.runtime.config import env_int

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            capacity = env_int(
                "REPRO_STUDY_CACHE_CAP", 16,
                {"REPRO_STUDY_CACHE_CAP": "plenty"},
            )
        assert capacity == 16
        assert any(
            "REPRO_STUDY_CACHE_CAP" in str(w.message) for w in caught
        )

    def test_non_integer_study_cache_cap_rejected(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STUDY_CACHE_CAP", "abc")
        assert main(["cache", "stats"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "REPRO_STUDY_CACHE_CAP" in err and "abc" in err

    def test_zero_study_cache_cap_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STUDY_CACHE_CAP", "0")
        assert main(["list"]) == 2
        err = capsys.readouterr().err
        assert "REPRO_STUDY_CACHE_CAP" in err and ">= 1" in err


    @pytest.mark.parametrize("scale", ["0", "-1"])
    @pytest.mark.parametrize(
        "command",
        [
            ["study", "compress"],
            ["sweep", "compress"],
            ["run", "fig5", "--benchmarks", "compress"],
            ["analyze", "--program", "compress"],
            ["check", "--benchmarks", "compress"],
            ["suite"],
        ],
        ids=lambda command: command[0],
    )
    def test_non_positive_scale_rejected(self, capsys, command, scale):
        assert main(command + ["--scale", scale]) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and "--scale" in err


class TestStudyCommand:
    ARGS = ["study", "compress", "--scale", "2", "--scheme", "byte"]

    def test_study_json_payload_shape(self, capsys, fresh_cache):
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"study", "metrics"}
        study = payload["study"]
        assert study["benchmark"] == "compress"
        assert study["scale"] == 2
        assert study["checksum_ok"] is True
        assert study["static_ops"] > 0
        assert study["dynamic_ops"] >= study["executed_ops"] > 0
        assert len(study["machine_digest"]) == 64
        assert set(study["artifacts"]) == {
            "compile", "trace", "compress/byte"
        }
        assert set(study["schemes"]) == {"byte"}
        assert study["schemes"]["byte"]["total_code_bytes"] > 0
        assert payload["metrics"]["totals"]["misses"] > 0  # cold store

    def test_second_study_is_warm(self, capsys, fresh_cache):
        assert main(self.ARGS + ["--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        clear_caches()
        assert main(self.ARGS + ["--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["study"] == cold["study"]
        stages = warm["metrics"]["stages"]
        assert stages and all(s["misses"] == 0 for s in stages.values())

    def test_study_table_output(self, capsys, fresh_cache):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Study (compress)" in out
        assert "scheme byte" in out and "Runtime report" in out

    def test_study_unknown_scheme_exits_two(self, capsys):
        assert main(
            ["study", "compress", "--scale", "2", "--scheme", "nosuch"]
        ) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and "nosuch" in err


class TestCheckCommand:
    def test_check_quick_passes_and_reports(self, capsys):
        assert main(
            ["check", "--quick", "--benchmarks", "compress",
             "--scale", "2", "--seed", "1999"]
        ) == 0
        captured = capsys.readouterr()
        assert "Invariant report" in captured.out
        assert "huffman-roundtrip" in captured.out
        assert "store-race" in captured.out
        assert "invariant(s) hold" in captured.out

    def test_check_json_payload(self, capsys):
        assert main(
            ["check", "--quick", "--benchmarks", "compress",
             "--scale", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["mode"] == "quick"
        names = [i["name"] for i in payload["invariants"]]
        assert "fetch-conservation" in names
        assert "store-bitflip" in names

    def test_check_seeded_violation_exits_nonzero_naming_it(
        self, capsys
    ):
        assert main(
            ["check", "--quick", "--benchmarks", "compress",
             "--scale", "2", "--inject", "conservation"]
        ) == 1
        captured = capsys.readouterr()
        assert "fetch-conservation" in captured.err
        assert "FAIL" in captured.out

    def test_check_inject_roundtrip(self, capsys):
        assert main(
            ["check", "--quick", "--benchmarks", "compress",
             "--scale", "2", "--inject", "roundtrip"]
        ) == 1
        assert "huffman-roundtrip" in capsys.readouterr().err

    def test_check_unknown_benchmark_exits_two(self, capsys):
        assert main(["check", "--benchmarks", "warp-drive"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_check_quick_and_full_are_exclusive(self):
        with pytest.raises(SystemExit):
            main(["check", "--quick", "--full"])


class TestAnalyzeCommand:
    def test_analyze_clean_program_exits_zero(self, capsys):
        assert main(
            ["analyze", "--program", "compress", "--scale", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Static analysis (compress)" in out
        assert "0 error(s), 0 warning(s)" in out
        assert "branch-target" in out

    def test_analyze_json_payload(self, capsys):
        assert main(
            ["analyze", "--program", "compress", "--scale", "2",
             "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert payload["programs"] == ["compress"]
        assert payload["checked"]["branch-target"] > 0
        assert payload["diagnostics"] == []

    def test_analyze_injected_violation_exits_one(self, capsys):
        assert main(
            ["analyze", "--program", "compress", "--scale", "2",
             "--inject", "bad-branch"]
        ) == 1
        captured = capsys.readouterr()
        assert "branch-target" in captured.out
        assert "error" in captured.err

    def test_analyze_fail_on_warning_tightens_the_gate(self, capsys):
        # The injected image only has an error, which trips both
        # thresholds; a clean image trips neither.
        assert main(
            ["analyze", "--program", "compress", "--scale", "2",
             "--fail-on", "warning"]
        ) == 0

    def test_analyze_unknown_program_exits_two(self, capsys):
        assert main(["analyze", "--program", "warp-drive"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_analyze_program_and_all_are_exclusive(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--program", "compress", "--all"])

    def test_analyze_json_is_deterministic_and_sorted(self, capsys):
        args = ["analyze", "--program", "compress", "--scale", "2",
                "--inject", "bad-branch", "--json"]
        assert main(args) == 1
        first = capsys.readouterr().out
        assert main(args) == 1
        second = capsys.readouterr().out
        assert first == second
        diags = json.loads(first)["diagnostics"]
        assert diags
        rank = {"error": 0, "warning": 1, "info": 2}
        keys = [
            (rank[d["severity"]], d["program"], d["rule"],
             d["block_id"] if d["block_id"] is not None else -1,
             d["op_index"] if d["op_index"] is not None else -1,
             d["scheme"] or "", d["block"] or "", d["message"],
             d["hint"] or "")
            for d in diags
        ]
        assert keys == sorted(keys)

    def test_analyze_bounds_table(self, capsys):
        assert main(
            ["analyze", "--program", "compress", "--scale", "2",
             "--bounds"]
        ) == 0
        out = capsys.readouterr().out
        assert "Static fetch-cycle bounds vs simulator" in out
        assert "hybrid:static" in out

    def test_analyze_bounds_json_brackets(self, capsys):
        assert main(
            ["analyze", "--program", "compress", "--scale", "2",
             "--bounds", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["bounds"]
        for entry in payload["bounds"]:
            assert entry["bracketed"] is True
            assert (
                entry["lower_cycles"]
                <= entry["simulated_cycles"]
                <= entry["upper_cycles"]
            )

    def test_analyze_bounds_rejects_inject(self, capsys):
        assert main(
            ["analyze", "--program", "compress", "--bounds",
             "--inject", "bad-branch"]
        ) == 2
        err = capsys.readouterr().err
        assert "--bounds" in err and "--inject" in err

    def test_analyze_rejects_malformed_gate_env(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ANALYZE", "maybe")
        assert main(
            ["analyze", "--program", "compress", "--scale", "2"]
        ) == 2
        assert "REPRO_ANALYZE" in capsys.readouterr().err


class TestSweepCommand:
    ARGS = [
        "sweep", "compress", "--scale", "2",
        "--scheme", "base", "--scheme", "compressed",
        "--cache", "512:2:16", "--cache", "1024:2:32",
        "--l0", "8", "--l0", "32",
    ]

    def test_sweep_table_output(self, capsys, fresh_cache):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Sweep (compress@2, 6 configs)" in out
        assert "base" in out and "compressed" in out
        assert "512:2:16" in out and "1024:2:32" in out

    def test_sweep_json_payload_shape(self, capsys, fresh_cache):
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        sweep = payload["sweep"]
        # 2 caches × (base + compressed×2 L0) = 6 config points.
        assert sweep["benchmark"] == "compress"
        assert sweep["scale"] == 2
        assert sweep["configs"] == 6
        assert len(sweep["results"]) == 6
        entry = sweep["results"][0]
        assert entry["config"]["scheme"] == "base"
        assert entry["metrics"]["cycles"] > 0
        assert entry["ipc"] > 0
        assert payload["metrics"]["totals"]["misses"] > 0  # cold store

    def test_sweep_results_warm_the_store(self, capsys, fresh_cache):
        assert main(self.ARGS + ["--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        clear_caches()
        assert main(self.ARGS + ["--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["sweep"] == cold["sweep"]
        assert warm["metrics"]["totals"]["misses"] == 0

    def test_sweep_malformed_cache_flag_exits_two(self, capsys):
        assert main(
            ["sweep", "compress", "--cache", "512:2"]
        ) == 2
        assert "--cache expects N:N:N" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            pytest.param(["--cache", "600:2:32"], id="cache-600:2:32"),
            pytest.param(["--cache", "0:2:16"], id="cache-0:2:16"),
            pytest.param(["--cache", "1024:0:32"], id="cache-1024:0:32"),
            pytest.param(["--cache", "1024:2:0"], id="cache-1024:2:0"),
            pytest.param(["--cache", "64:2:32"], id="cache-64:2:32"),
            pytest.param(["--atb", "0:2"], id="atb-0:2"),
            pytest.param(["--atb", "128:0"], id="atb-128:0"),
            pytest.param(["--atb", "96:4"], id="atb-96:4"),
            pytest.param(
                ["--atb-miss-penalty", "-1"], id="atb-miss-penalty--1"
            ),
            pytest.param(
                ["--predictor", "gshare", "--gshare-bits", "0"],
                id="gshare-bits-0",
            ),
            pytest.param(
                ["--predictor", "gshare", "--gshare-bits", "25"],
                id="gshare-bits-25",
            ),
        ],
    )
    def test_sweep_invalid_geometry_exits_two(self, capsys, flags):
        assert main(["sweep", "compress", "--scale", "2"] + flags) == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_sweep_unknown_benchmark_exits_two(self, capsys):
        assert main(["sweep", "warp-drive", "--scale", "2"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1.5", "0", "-0.2"])
    def test_sweep_out_of_range_hotness_exits_two(self, capsys, value):
        assert main(
            ["sweep", "compress", "--scale", "2",
             "--scheme", "hybrid", "--hotness", value]
        ) == 2
        err = capsys.readouterr().err
        assert "--hotness must lie in (0, 1]" in err
        assert value.lstrip("-").rstrip("0").rstrip(".") in err or value in err

    def test_sweep_scheme_typo_suggests_fix(self, capsys):
        assert main(
            ["sweep", "compress", "--scale", "2",
             "--scheme", "hybird@0.3"]
        ) == 2
        assert "did you mean 'hybrid@0.3'?" in capsys.readouterr().err

    def test_sweep_hotness_source_axis(self, capsys, fresh_cache):
        assert main(
            ["sweep", "compress", "--scale", "2",
             "--scheme", "hybrid", "--hotness", "0.5",
             "--hotness-source", "trace", "--hotness-source", "static",
             "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        schemes = {
            entry["config"]["scheme"]
            for entry in payload["sweep"]["results"]
        }
        assert schemes == {"hybrid@0.5", "hybrid@0.5:static"}

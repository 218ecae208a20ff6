"""Unit tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import EXIT_USAGE
from repro.experiments.bench import MICRO_COMPONENTS


class TestMixes:
    def test_lists_programs_and_mixes(self, capsys):
        assert main(["mixes"]) == 0
        out = capsys.readouterr().out
        assert "gups" in out
        assert "can_ccomp" in out
        assert "canneal + ccomp" in out


class TestRun:
    def test_run_summary(self, capsys):
        code = main([
            "run", "--mix", "gups", "--scheme", "pom-tlb",
            "--accesses", "3000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC (geomean)" in out
        assert "walks eliminated" in out

    def test_run_with_baseline(self, capsys):
        code = main([
            "run", "--mix", "gups", "--scheme", "csalt-cd",
            "--accesses", "3000", "--baseline",
        ])
        assert code == 0
        assert "vs POM-TLB" in capsys.readouterr().out

    def test_run_native_five_level(self, capsys):
        code = main([
            "run", "--mix", "streamcluster", "--scheme", "conventional",
            "--accesses", "3000", "--native", "--levels", "5",
        ])
        assert code == 0

    def test_bad_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--scheme", "magic"])

    def test_bad_mix_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--mix", "doom3"])


class TestRunTelemetry:
    def test_json_output(self, capsys):
        code = main([
            "run", "--mix", "gups", "--scheme", "pom-tlb",
            "--accesses", "3000", "--json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["result"]["scheme"] == "pom-tlb"
        assert document["result"]["instructions"] > 0
        assert document["elapsed_seconds"] >= 0.0

    def test_json_with_baseline(self, capsys):
        code = main([
            "run", "--mix", "gups", "--scheme", "csalt-cd",
            "--accesses", "3000", "--baseline", "--json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["baseline"]["scheme"] == "pom-tlb"
        assert document["speedup_over_baseline"] > 0.0

    def test_trace_out(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.jsonl"
        code = main([
            "run", "--mix", "gups", "--scheme", "csalt-cd",
            "--accesses", "6000", "--trace-out", str(trace_path),
        ])
        assert code == 0
        assert trace_path.exists()
        err = capsys.readouterr().err
        assert f"events to {trace_path}" in err

    def test_stats_round_trip(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.jsonl"
        assert main([
            "run", "--mix", "gups", "--scheme", "csalt-cd",
            "--accesses", "6000", "--trace-out", str(trace_path),
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "page walks" in out
        assert main(["stats", str(trace_path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["walks"]["count"] > 0

    def test_stats_chrome_out(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.jsonl"
        chrome_path = tmp_path / "chrome.json"
        assert main([
            "run", "--mix", "gups", "--scheme", "pom-tlb",
            "--accesses", "3000", "--trace-out", str(trace_path),
        ]) == 0
        assert main([
            "stats", str(trace_path), "--chrome-out", str(chrome_path),
        ]) == 0
        with open(chrome_path) as handle:
            document = json.load(handle)
        assert document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"

    def test_stats_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("definitely not json\n")
        assert main(["stats", str(bad)]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_progress_flag(self, capsys):
        code = main([
            "run", "--mix", "gups", "--scheme", "pom-tlb",
            "--accesses", "3000", "--progress",
        ])
        assert code == 0
        assert "acc/s" in capsys.readouterr().err


class TestReport:
    def test_only_subset(self, capsys, monkeypatch):
        # The runner reads REPRO_TOTAL_ACCESSES lazily, per call.
        monkeypatch.setenv("REPRO_TOTAL_ACCESSES", "1000")
        import repro.experiments.runner as runner
        runner.clear_cache()
        code = main(["report", "--only", "figure8"])
        assert code == 0
        assert "Figure 8" in capsys.readouterr().out
        runner.clear_cache()

    def test_unknown_exhibit(self, capsys):
        assert main(["report", "--only", "figure99"]) == 2
        assert "unknown exhibits" in capsys.readouterr().err

    def test_resume_requires_store(self, capsys):
        assert main(["report", "--resume"]) == 2
        assert "--resume requires --store" in capsys.readouterr().err

    def test_store_then_resume(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TOTAL_ACCESSES", "1000")
        import repro.experiments.runner as runner
        runner.clear_cache()
        store_dir = str(tmp_path / "store")
        out1 = str(tmp_path / "r1.md")
        assert main([
            "report", "--only", "figure8", "--store", store_dir,
            "--out", out1,
        ]) == 0
        assert len(list((tmp_path / "store").glob("*.json"))) == 10

        # Resume from a cold cache: nothing is re-simulated.
        runner.clear_cache()

        def boom(*args, **kwargs):
            raise AssertionError("resume should not simulate")

        monkeypatch.setattr(runner, "run_simulation", boom)
        out2 = str(tmp_path / "r2.md")
        assert main([
            "report", "--only", "figure8", "--store", store_dir,
            "--resume", "--out", out2,
        ]) == 0
        with open(out1) as h1, open(out2) as h2:
            assert h1.read() == h2.read()
        runner.clear_cache()
        runner.set_store(None)

    def test_strict_flags_partial_exhibit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TOTAL_ACCESSES", "1000")
        import repro.experiments.runner as runner
        from repro.sim.engine import run_simulation as real

        def flaky(config, workloads, **kwargs):
            if kwargs.get("workload_name") == "canneal":
                raise RuntimeError("injected fault")
            return real(config, workloads, **kwargs)

        monkeypatch.setattr(runner, "run_simulation", flaky)
        runner.clear_cache()
        store_dir = str(tmp_path / "store")
        code = main([
            "report", "--only", "figure8", "--store", store_dir, "--strict",
            "--out", str(tmp_path / "r.md"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "PARTIAL exhibits: figure8" in err
        # Without --strict the same partial report exits 0.
        runner.clear_cache()
        code = main([
            "report", "--only", "figure8", "--store", store_dir,
            "--out", str(tmp_path / "r2.md"),
        ])
        assert code == 0
        runner.clear_cache()
        runner.set_store(None)


CI_PLAN = str(Path(__file__).resolve().parents[1] / "benchmarks"
              / "chaos_ci_plan.json")
#: A plan arming no ``pool.worker.*`` point: it runs with ``--jobs 1``.
#: Written into the test's working directory under this name.
PARENT_ONLY_PLAN = "parent-only-plan.json"


def exit_code(argv):
    """What ``repro`` exits with: argparse rejects by ``SystemExit``."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestRunControlUsage:
    """Run-control values a run would misuse or ignore are usage errors,
    refused before anything is simulated."""

    @pytest.mark.parametrize("argv", [
        ["run", "--accesses", "2000", "--watchdog-timeout", "0"],
        ["run", "--accesses", "2000", "--watchdog-timeout", "-1"],
        ["report", "--jobs", "2", "--timeout", "-1"],
        ["report", "--retries", "-1"],
        ["chaos", "--plan", CI_PLAN, "--timeout", "-1"],
        ["chaos", "--plan", CI_PLAN, "--retries", "-1"],
    ], ids=["watchdog-0", "watchdog-neg", "report-timeout", "report-retries",
            "chaos-timeout", "chaos-retries"])
    def test_out_of_range_value(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TOTAL_ACCESSES", "1000")
        monkeypatch.chdir(tmp_path)
        if argv[0] != "run":
            argv = argv + ["--only", "figure8", "--out", "out"]
        assert exit_code(argv) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, named", [
        (["report", "--jobs", "1", "--timeout", "5"], "--timeout"),
        (["report", "--jobs", "1", "--checkpoint-every", "500",
          "--store", "store"], "--checkpoint-every"),
        (["report", "--jobs", "1", "--retries", "3"], "--retries"),
        (["chaos", "--plan", CI_PLAN, "--jobs", "1"], "pool.worker."),
        (["chaos", "--plan", PARENT_ONLY_PLAN, "--jobs", "1",
          "--retries", "3"], "retries"),
    ], ids=["report-timeout", "report-checkpoint-every", "report-retries",
            "chaos-plan", "chaos-retries"])
    def test_refused_with_one_job(
        self, argv, named, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TOTAL_ACCESSES", "1000")
        monkeypatch.chdir(tmp_path)
        (tmp_path / PARENT_ONLY_PLAN).write_text(json.dumps({
            "name": "parent-only",
            "faults": [{"point": "store.save.corrupt_byte"}],
        }))
        argv = argv + ["--only", "figure8", "--out", "out"]
        assert exit_code(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "store").exists()


class TestRunRobustness:
    def test_checkpoint_restore_roundtrip(self, tmp_path, capsys):
        ckpt_dir = str(tmp_path / "ckpts")
        code = main([
            "run", "--mix", "gups", "--scheme", "csalt-cd",
            "--accesses", "3000", "--checkpoint-every", "1000",
            "--checkpoint-dir", ckpt_dir, "--json",
        ])
        assert code == 0
        full = json.loads(capsys.readouterr().out)["result"]
        code = main([
            "run", "--mix", "gups", "--scheme", "csalt-cd",
            "--accesses", "3000", "--checkpoint-dir", ckpt_dir,
            "--restore", "auto", "--json",
        ])
        assert code == 0
        resumed = json.loads(capsys.readouterr().out)["result"]
        assert resumed["extra"]["host_restored_from"].endswith(".ckpt")
        strip = lambda d: {
            k: v for k, v in d["extra"].items() if not k.startswith("host_")
        }
        assert strip(resumed) == strip(full)
        assert resumed["ipc"] == full["ipc"]

    def test_checkpoint_every_requires_dir(self, capsys):
        code = main([
            "run", "--mix", "gups", "--accesses", "2000",
            "--checkpoint-every", "500",
        ])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_restore_auto_requires_dir(self, capsys):
        code = main([
            "run", "--mix", "gups", "--accesses", "2000",
            "--restore", "auto",
        ])
        assert code == 2

    def test_check_invariants_clean_run(self, capsys):
        code = main([
            "run", "--mix", "gups", "--scheme", "csalt-cd",
            "--accesses", "3000", "--check-invariants", "500",
            "--replacement", "nru",
        ])
        assert code == 0
        assert "IPC (geomean)" in capsys.readouterr().out

    def test_replacement_flag_validated(self):
        with pytest.raises(SystemExit):
            main(["run", "--replacement", "fifo"])


class TestCpiAndStatsFormats:
    def run_json(self, tmp_path, scheme="pom-tlb", accesses=3000, capsys=None):
        """Run once with --cpi --json and persist the document to a file."""
        code = main([
            "run", "--mix", "gups", "--scheme", scheme,
            "--accesses", str(accesses), "--cpi", "--json",
        ])
        assert code == 0
        text = capsys.readouterr().out
        path = tmp_path / f"{scheme}.json"
        path.write_text(text)
        return path, json.loads(text)

    def test_run_cpi_waterfall(self, capsys):
        code = main([
            "run", "--mix", "gups", "--scheme", "csalt-cd",
            "--accesses", "3000", "--cpi",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "CPI stack" in out
        assert "base" in out
        assert "total" in out

    def test_run_cpi_json_carries_stack(self, tmp_path, capsys):
        _, document = self.run_json(tmp_path, capsys=capsys)
        stack = document["result"]["cpi_stack"]
        assert stack["scheme"] == "pom-tlb"
        assert sum(stack["components"].values()) == pytest.approx(
            stack["total_cycles"]
        )

    def test_stats_on_result_file(self, tmp_path, capsys):
        path, _ = self.run_json(tmp_path, capsys=capsys)
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert main(["stats", str(path), "--cpi"]) == 0
        assert "CPI stack" in capsys.readouterr().out

    def test_stats_result_formats(self, tmp_path, capsys):
        path, _ = self.run_json(tmp_path, capsys=capsys)
        assert main(["stats", str(path), "--format", "csv"]) == 0
        csv_out = capsys.readouterr().out
        assert csv_out.splitlines()[0] == "metric,value"
        assert main(["stats", str(path), "--format", "markdown"]) == 0
        assert "| metric" in capsys.readouterr().out

    def test_stats_result_rejects_chrome_out(self, tmp_path, capsys):
        path, _ = self.run_json(tmp_path, capsys=capsys)
        code = main(["stats", str(path), "--chrome-out", "x.json"])
        assert code == 2
        assert "event trace" in capsys.readouterr().err

    def test_stats_trace_rejects_cpi(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.jsonl"
        main([
            "run", "--mix", "gups", "--scheme", "pom-tlb",
            "--accesses", "2000", "--trace-out", str(trace),
        ])
        capsys.readouterr()
        assert main(["stats", str(trace), "--cpi"]) == 2
        assert "result JSON" in capsys.readouterr().err

    def test_stats_trace_csv_format(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.jsonl"
        main([
            "run", "--mix", "gups", "--scheme", "pom-tlb",
            "--accesses", "2000", "--trace-out", str(trace),
        ])
        capsys.readouterr()
        assert main(["stats", str(trace), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "metric,value"
        assert any(line.startswith("events,") for line in out.splitlines())


class TestDiffCommand:
    def two_runs(self, tmp_path, capsys):
        paths = {}
        for scheme in ("pom-tlb", "csalt-cd"):
            code = main([
                "run", "--mix", "gups", "--scheme", scheme,
                "--accesses", "3000", "--cpi", "--json",
            ])
            assert code == 0
            path = tmp_path / f"{scheme}.json"
            path.write_text(capsys.readouterr().out)
            paths[scheme] = path
        return paths

    def test_diff_two_result_files(self, tmp_path, capsys):
        paths = self.two_runs(tmp_path, capsys)
        code = main(["diff", str(paths["pom-tlb"]), str(paths["csalt-cd"])])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "ipc" in out
        assert "CPI" in out

    def test_diff_json(self, tmp_path, capsys):
        paths = self.two_runs(tmp_path, capsys)
        code = main([
            "diff", str(paths["pom-tlb"]), str(paths["csalt-cd"]), "--json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["speedup"] > 0
        assert isinstance(document["metrics"], list)

    def test_diff_fail_on_regression(self, tmp_path, capsys):
        paths = self.two_runs(tmp_path, capsys)
        # Doctor a copy that is unambiguously slower: doubling every
        # core's cycle count halves IPC, a guaranteed regression.
        document = json.loads(paths["pom-tlb"].read_text())
        for core in document["result"]["per_core"]:
            core["cycles"] *= 2
        document["result"].pop("cpi_stack", None)
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(document))
        code = main([
            "diff", str(paths["pom-tlb"]), str(slow),
            "--fail-on-regression",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "<-- regression" in captured.out
        assert "regression(s)" in captured.err

    def test_diff_bad_input(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["diff", str(path), str(path)]) == 2
        assert "diff error" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_writes_artifact(self, tmp_path, capsys):
        code = main([
            "bench", "--accesses", "50", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        artifacts = list(tmp_path.glob("BENCH_*.json"))
        assert len(artifacts) == 1
        out = capsys.readouterr().out
        for name, _ in MICRO_COMPONENTS:
            assert name in out

    def test_bench_json_output(self, tmp_path, capsys):
        code = main([
            "bench", "--accesses", "50",
            "--out-dir", str(tmp_path), "--json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["operations_per_point"] == 50
        assert len(document["points"]) == len(MICRO_COMPONENTS)

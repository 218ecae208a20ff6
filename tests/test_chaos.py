"""``repro chaos``: convergence to the fault-free end state, assertions."""

import json

import pytest

from repro import faults
from repro.cli import main
from repro.core.schemes import Scheme
from repro.errors import EXIT_USAGE, ChaosError, ConfigError
from repro.experiments import runner
from repro.experiments.chaos import run_chaos

TINY = dict(total_accesses=1_500)


@pytest.fixture(autouse=True)
def fresh_state():
    faults.disarm()
    runner.clear_cache()
    runner.set_store(None)
    yield
    faults.disarm()
    runner.clear_cache()
    runner.set_store(None)


def tiny_points():
    return [
        runner.point_signature("gups", Scheme.POM_TLB, **TINY),
        runner.point_signature("canneal", Scheme.POM_TLB, **TINY),
        runner.point_signature("streamcluster", Scheme.POM_TLB, **TINY),
    ]


def smoke_plan():
    """Mirrors ``benchmarks/chaos_ci_plan.json``: one spec per point."""
    return faults.FaultPlan.from_dict({
        "name": "smoke",
        "faults": [
            {"point": "pool.worker.crash",
             "when": {"attempt": 1, "mix_name": "gups"},
             "max_triggers": 1},
            {"point": "store.save.corrupt_byte",
             "when": {"mix_name": "canneal"},
             "max_triggers": 1},
            {"point": "pool.worker.error",
             "when": {"mix_name": "streamcluster"},
             "max_triggers": 1},
        ],
    })


class TestConvergence:
    def test_crash_and_corruption_converge(self, tmp_path):
        report = run_chaos(
            smoke_plan(), points=tiny_points(), jobs=2, rounds=3,
            out_dir=str(tmp_path / "out"),
        )
        assert report.ok, report.problems
        assert report.injected >= 3        # every spec fired (fault log)
        assert report.store_entries == 3
        assert report.rounds[-1].converged
        assert report.rounds[0].armed and not report.rounds[-1].armed
        # The injected error fails streamcluster once, without retry;
        # the recovery round re-runs it.
        assert report.rounds[0].failures == 1
        # The fault log is the durable cross-process ledger.
        lines = [
            json.loads(line)
            for line in (tmp_path / "out" / "faults.jsonl")
            .read_text().splitlines()
        ]
        assert {line["point"] for line in lines} == {
            "pool.worker.crash", "pool.worker.error",
            "store.save.corrupt_byte",
        }

    def test_stores_byte_identical_after_convergence(self, tmp_path):
        out = tmp_path / "out"
        report = run_chaos(
            smoke_plan(), points=tiny_points(), jobs=2, rounds=3,
            out_dir=str(out),
        )
        assert report.ok
        baseline = sorted((out / "baseline-store").glob("*.json"))
        chaos = sorted((out / "chaos-store").glob("*.json"))
        assert [p.name for p in baseline] == [p.name for p in chaos]
        for base_path, chaos_path in zip(baseline, chaos):
            assert base_path.read_bytes() == chaos_path.read_bytes()

    def test_format_and_to_dict(self, tmp_path):
        report = run_chaos(
            smoke_plan(), points=tiny_points(), jobs=2, rounds=3,
            out_dir=str(tmp_path / "out"),
        )
        text = report.format()
        assert "converged" in text
        document = report.to_dict()
        assert document["ok"] is True
        assert document["plan"] == "smoke"


class TestAssertions:
    def test_plan_that_never_fires_fails(self, tmp_path):
        plan = faults.FaultPlan.from_dict({
            "name": "dud",
            "faults": [{"point": "pool.worker.crash",
                        "when": {"mix_name": "no-such-mix"}}],
        })
        report = run_chaos(
            plan, points=tiny_points()[:1], jobs=2, rounds=2,
            out_dir=str(tmp_path / "out"),
        )
        assert not report.ok
        assert any("never fired" in problem for problem in report.problems)
        with pytest.raises(ChaosError, match="never fired"):
            report.raise_if_failed()

    def test_unknown_exhibit_rejected(self, tmp_path):
        with pytest.raises(ChaosError, match="unknown exhibits"):
            run_chaos(
                smoke_plan(), exhibits=["figure99"],
                out_dir=str(tmp_path / "out"),
            )

    def test_timeout_without_workers_rejected(self, tmp_path):
        plan = faults.FaultPlan.from_dict(
            {"faults": [{"point": "store.save.corrupt_byte"}]}
        )
        with pytest.raises(ConfigError, match="timeout needs jobs 2"):
            run_chaos(
                plan, points=tiny_points()[:1], jobs=1, timeout=5.0,
                out_dir=str(tmp_path / "out"),
            )
        assert not (tmp_path / "out").exists()

    def test_empty_points_rejected(self, tmp_path):
        with pytest.raises(ChaosError, match="no evaluation points"):
            run_chaos(
                smoke_plan(), points=[], out_dir=str(tmp_path / "out"),
            )

    def test_disarmed_after_run(self, tmp_path):
        run_chaos(
            smoke_plan(), points=tiny_points()[:1], jobs=2, rounds=2,
            out_dir=str(tmp_path / "out"),
        )
        assert faults.ACTIVE is None


def canneal_corruption_plan():
    """Arms only a parent-side point: with ``jobs=1`` the store write,
    and so the flipped byte, happens in the campaign's own process."""
    return faults.FaultPlan.from_dict({
        "name": "canneal-corruption",
        "faults": [{"point": "store.save.corrupt_byte",
                    "when": {"mix_name": "canneal"},
                    "max_triggers": 1}],
    })


class TestParentInjectionCrossCheck:
    """A parent-side injection lands in the fault log and in
    ``ChaosReport.parent_injected``, and the recovery rounds converge."""

    def test_traced_injection_passes(self, tmp_path):
        report = run_chaos(
            canneal_corruption_plan(), points=tiny_points()[1:2], jobs=1,
            rounds=3, out_dir=str(tmp_path / "out"),
        )
        assert report.problems == []
        assert report.parent_injected == 1
        assert report.injected == 1  # fault log lines


class TestChaosCli:
    def test_missing_plan_file_maps_to_usage_exit(self, tmp_path, capsys):
        code = main(["chaos", "--plan", str(tmp_path / "nope.json")])
        assert code == EXIT_USAGE
        assert "ConfigError" in capsys.readouterr().err

    def test_invalid_plan_rejected(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"faults": [{"point": "not.a.point"}]}
        ))
        assert main(["chaos", "--plan", str(path)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "field, value", [("when", "gups"), ("max_triggers", "once")]
    )
    def test_mistyped_plan_field_is_usage_error(
        self, tmp_path, capsys, field, value
    ):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"faults": [{"point": "pool.worker.crash", field: value}]}
        ))
        assert main(["chaos", "--plan", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "ConfigError" in err and field in err
        assert "Traceback" not in err

    def test_retired_point_rejected(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"faults": [{"point": "store.enospc"}]}
        ))
        assert main(["chaos", "--plan", str(path)]) == EXIT_USAGE
        assert "unknown fault point" in capsys.readouterr().err

    def test_help_mentions_docs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--help"])
        assert excinfo.value.code == 0
        assert "faultplan json file" in capsys.readouterr().out.lower()

"""Resource budgets: parsing, the monitor, disk ledger, enforcement paths."""

import errno
import os
import time
from pathlib import Path

import pytest

from repro import budget, faults
from repro.budget import (
    Budget,
    BudgetMonitor,
    BudgetStatus,
    parse_duration,
    parse_size,
)
from repro.checkpoint import CheckpointWriter, read_checkpoint
from repro.cli import main
from repro.core.schemes import Scheme
from repro.errors import (
    EXIT_BUDGET,
    BudgetExceededError,
    ConfigError,
    DiskFullError,
)
from repro.experiments import runner
from repro.experiments.pool import _responsive_sleep, run_campaign
from repro.experiments.store import ResultStore
from repro.sim.config import small_config
from repro.sim.engine import run_simulation
from repro.telemetry import EventTracer, MetricsRegistry, Telemetry
from repro.workloads.mixes import make_mix

TINY = dict(total_accesses=1_500)


@pytest.fixture(autouse=True)
def clean_state():
    runner.clear_cache()
    runner.set_store(None)
    faults.disarm()
    budget.disarm()
    yield
    runner.clear_cache()
    runner.set_store(None)
    faults.disarm()
    budget.disarm()


def breached_monitor(**limits) -> BudgetMonitor:
    """A monitor whose deadline has already passed (hard breach latched)."""
    monitor = BudgetMonitor(Budget(deadline_seconds=0.001, **limits))
    time.sleep(0.005)
    assert monitor.sample() is not None
    return monitor


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
class TestParsing:
    @pytest.mark.parametrize("text,expected", [
        ("512", 512),
        ("512M", 512 << 20),
        ("512mb", 512 << 20),
        ("2GiB", 2 << 30),
        ("1.5k", 1536),
        (" 4 G ", 4 << 30),
    ])
    def test_sizes(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "12q", "-5M", "1e3"])
    def test_bad_sizes(self, text):
        with pytest.raises(ConfigError):
            parse_size(text)

    @pytest.mark.parametrize("text,expected", [
        ("90", 90.0),
        ("90s", 90.0),
        ("5m", 300.0),
        ("2h", 7200.0),
        ("0.5d", 43200.0),
    ])
    def test_durations(self, text, expected):
        assert parse_duration(text) == expected

    @pytest.mark.parametrize("text", ["", "fast", "10y", "-3s"])
    def test_bad_durations(self, text):
        with pytest.raises(ConfigError):
            parse_duration(text)


# ----------------------------------------------------------------------
# Budget + status
# ----------------------------------------------------------------------
class TestBudget:
    def test_inert_by_default(self):
        assert not Budget().enabled

    def test_any_limit_enables(self):
        assert Budget(deadline_seconds=5).enabled
        assert Budget(disk_quota_bytes=1).enabled

    @pytest.mark.parametrize("field", [
        "deadline_seconds", "max_rss_bytes", "disk_quota_bytes",
    ])
    def test_rejects_non_positive_limits(self, field):
        with pytest.raises(ConfigError, match="must be positive"):
            Budget(**{field: 0})
        with pytest.raises(ConfigError, match="must be positive"):
            Budget(**{field: -1})



class TestBudgetStatus:
    def test_levels_via_monitor(self):
        monitor = BudgetMonitor(Budget(disk_quota_bytes=100))
        monitor.charge_disk(99)
        (status,) = monitor.statuses()
        assert (status.dimension, status.used) == ("disk", 99.0)
        assert monitor.sample() is None             # one byte short
        monitor.charge_disk(1)
        breach = monitor.sample()                   # exactly at the limit
        assert breach is not None
        assert (breach.dimension, breach.used, breach.limit) == (
            "disk", 100.0, 100.0
        )

    def test_describe_mentions_dimension_and_fraction(self):
        status = BudgetStatus("disk", used=float(1 << 20),
                              limit=float(2 << 20))
        text = status.describe()
        assert "disk" in text and "50%" in text
        assert BudgetStatus("deadline", 30.0, 60.0).describe().startswith(
            "deadline"
        )


# ----------------------------------------------------------------------
# The monitor: latching, reporting
# ----------------------------------------------------------------------
class TestMonitor:
    def test_hard_breach_latches(self):
        monitor = BudgetMonitor(Budget(disk_quota_bytes=10))
        monitor.charge_disk(12)
        breach = monitor.sample()
        assert breach is not None and breach.dimension == "disk"
        monitor.charge_disk(-12)    # usage "recovers" — breach must not
        assert monitor.sample() is breach
        assert monitor.hard_breach is breach

    def test_breach_recorded_in_telemetry(self):
        telemetry = Telemetry(
            tracer=EventTracer(), metrics=MetricsRegistry()
        )
        monitor = BudgetMonitor(
            Budget(disk_quota_bytes=10), telemetry=telemetry
        )
        monitor.charge_disk(10)
        monitor.sample()
        monitor.sample()            # latched: recorded once
        names = [event.name for event in telemetry.tracer]
        assert names.count("budget.exceeded") == 1
        assert telemetry.metrics.counter("budget.hard_stops").value == 1

    def test_build_error_carries_exit_code_and_dimension(self):
        monitor = breached_monitor()
        error = monitor.build_error("context here")
        assert error.exit_code == EXIT_BUDGET == 7
        assert error.dimension == "deadline"
        assert "context here" in str(error)
        assert "--resume" in str(error)

    def test_to_dict_is_json_shaped(self):
        import json

        monitor = breached_monitor()
        monitor.beat(1234)
        document = json.loads(json.dumps(monitor.to_dict()))
        assert document["hard_breach"]["dimension"] == "deadline"
        assert document["heartbeat"] == 1234

    def test_deadline_remaining(self):
        monitor = BudgetMonitor(Budget(deadline_seconds=1000.0))
        remaining = monitor.deadline_remaining()
        assert 0 < remaining <= 1000.0
        assert BudgetMonitor(Budget(max_rss_bytes=1)).deadline_remaining() \
            is None

    def test_arm_disarm(self):
        monitor = BudgetMonitor(Budget(deadline_seconds=1.0))
        assert budget.ACTIVE is None
        with budget.armed(monitor):
            assert budget.ACTIVE is monitor
        assert budget.ACTIVE is None


# ----------------------------------------------------------------------
# Disk ledger + quota
# ----------------------------------------------------------------------
class TestDiskLedger:
    def test_tracking_charges_existing_contents(self, tmp_path):
        (tmp_path / "existing").write_bytes(b"x" * 1000)
        monitor = BudgetMonitor(Budget(disk_quota_bytes=10_000))
        monitor.track_directory(tmp_path)
        assert monitor.disk_used == 1000

    def test_tracking_is_idempotent(self, tmp_path):
        (tmp_path / "existing").write_bytes(b"x" * 1000)
        monitor = BudgetMonitor(Budget(disk_quota_bytes=10_000))
        monitor.track_directory(tmp_path)
        monitor.track_directory(tmp_path)
        assert monitor.disk_used == 1000

    def test_charges_accumulate_and_credit(self):
        monitor = BudgetMonitor(Budget(disk_quota_bytes=10_000))
        monitor.charge_disk(600)
        monitor.charge_disk(-200)
        assert monitor.disk_used == 400

    def test_check_disk_refuses_overshoot(self):
        monitor = BudgetMonitor(Budget(disk_quota_bytes=1000))
        monitor.charge_disk(900)
        monitor.check_disk(100, "small write")    # exactly at quota: ok
        with pytest.raises(BudgetExceededError) as exc_info:
            monitor.check_disk(101, "big write")
        assert exc_info.value.dimension == "disk"
        assert "--resume" in str(exc_info.value)

    def test_check_disk_noop_without_quota(self):
        BudgetMonitor(Budget(deadline_seconds=9)).check_disk(1 << 40, "x")

    def test_rescan_reconciles_with_reality(self, tmp_path):
        monitor = BudgetMonitor(Budget(disk_quota_bytes=10_000))
        monitor.track_directory(tmp_path)
        monitor.charge_disk(5000)                 # ledger drifts
        (tmp_path / "real").write_bytes(b"y" * 300)
        monitor._rescan_disk()
        assert monitor.disk_used == 300

    def test_store_save_prechecks_quota(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = runner.run_point("gups", Scheme.POM_TLB, **TINY)
        monitor = BudgetMonitor(Budget(disk_quota_bytes=64))
        monitor.track_directory(store.root)
        with budget.armed(monitor):
            with pytest.raises(BudgetExceededError) as exc_info:
                store.save(
                    runner.point_signature("gups", Scheme.POM_TLB, **TINY),
                    result,
                )
        assert exc_info.value.dimension == "disk"
        assert len(store) == 0                    # nothing landed

    def test_store_save_charges_ledger(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = runner.run_point("gups", Scheme.POM_TLB, **TINY)
        monitor = BudgetMonitor(Budget(disk_quota_bytes=1 << 30))
        monitor.track_directory(store.root)
        with budget.armed(monitor):
            store.save(
                runner.point_signature("gups", Scheme.POM_TLB, **TINY),
                result,
            )
        assert monitor.disk_used > 0

    def test_checkpoint_prune_credits_ledger(self, tmp_path):
        monitor = BudgetMonitor(Budget(disk_quota_bytes=1 << 30))
        monitor.track_directory(tmp_path)
        with budget.armed(monitor):
            writer = CheckpointWriter(tmp_path, keep=1)
            writer.write(1000, {"executed": 1000, "payload": "a" * 100})
            after_first = monitor.disk_used
            writer.write(2000, {"executed": 2000, "payload": "b" * 100})
        # Keep=1 pruned the first snapshot: its bytes must be credited
        # back, leaving roughly one snapshot's worth on the ledger.
        assert monitor.disk_used < after_first * 1.5


# ----------------------------------------------------------------------
# ENOSPC translation (satellite: actionable taxonomy errors)
# ----------------------------------------------------------------------
class TestDiskFullTranslation:
    def test_store_enospc_fault_point(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = runner.run_point("gups", Scheme.POM_TLB, **TINY)
        plan = faults.FaultPlan(
            faults=[faults.FaultSpec(point="store.enospc")],
            seed=3, name="test",
        )
        with faults.armed(plan):
            with pytest.raises(DiskFullError) as exc_info:
                store.save(
                    runner.point_signature("gups", Scheme.POM_TLB, **TINY),
                    result,
                )
        error = exc_info.value
        assert error.exit_code == EXIT_BUDGET
        assert error.dimension == "disk"
        assert "--resume" in str(error)
        assert len(store) == 0

    def test_store_real_enospc_translated(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        result = runner.run_point("gups", Scheme.POM_TLB, **TINY)

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(DiskFullError, match="no space left"):
            store.save(
                runner.point_signature("gups", Scheme.POM_TLB, **TINY),
                result,
            )

    def test_store_other_oserror_not_swallowed(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        result = runner.run_point("gups", Scheme.POM_TLB, **TINY)

        def perm_denied(*args, **kwargs):
            raise OSError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(os, "replace", perm_denied)
        with pytest.raises(OSError) as exc_info:
            store.save(
                runner.point_signature("gups", Scheme.POM_TLB, **TINY),
                result,
            )
        assert not isinstance(exc_info.value, DiskFullError)

    def test_checkpoint_enospc_fault_point(self, tmp_path):
        writer = CheckpointWriter(tmp_path, keep=3)
        first = writer.write(1000, {"executed": 1000})
        plan = faults.FaultPlan(
            faults=[faults.FaultSpec(point="checkpoint.enospc")],
            seed=3, name="test",
        )
        with faults.armed(plan):
            with pytest.raises(DiskFullError):
                writer.write(2000, {"executed": 2000})
        # The previous snapshot must have survived the failed write.
        document, header = read_checkpoint(first)
        assert document["executed"] == 1000
        assert not list(Path(tmp_path).glob("*.tmp"))


# ----------------------------------------------------------------------
# Engine: checkpoint-then-stop, bit-identical resume
# ----------------------------------------------------------------------
class TestEngineEnforcement:
    def _run(self, **kwargs):
        return run_simulation(
            small_config(), make_mix("gups", scale=0.25),
            total_accesses=30_000, seed=3, **kwargs
        )

    def test_deadline_stop_is_resumable_and_bit_identical(self, tmp_path):
        baseline = self._run()
        with pytest.raises(BudgetExceededError) as exc_info:
            self._run(
                checkpoint_every=2_000, checkpoint_dir=tmp_path,
                budget=Budget(deadline_seconds=0.05),
            )
        error = exc_info.value
        assert error.exit_code == EXIT_BUDGET
        assert error.snapshot_path is not None
        document, header = read_checkpoint(error.snapshot_path)
        assert header.get("budget_breach") is True
        resumed = self._run(restore=error.snapshot_path)

        def canonical(result):
            record = result.to_dict()
            record["extra"] = {
                key: value for key, value in record["extra"].items()
                if not key.startswith("host_")
            }
            return record

        assert canonical(baseline) == canonical(resumed)

    def test_breach_state_reported_in_extra(self, tmp_path):
        with pytest.raises(BudgetExceededError):
            self._run(
                checkpoint_every=2_000, checkpoint_dir=tmp_path,
                budget=Budget(deadline_seconds=0.05),
            )
        # An unbreached budgeted run reports its budget state.
        result = self._run(budget=Budget(deadline_seconds=3600))
        assert result.extra["host_budget"]["budget"]["deadline_seconds"] \
            == 3600
        assert result.extra["host_budget"]["hard_breach"] is None

    def test_unbudgeted_run_has_no_monitor_state(self):
        result = self._run()
        assert "host_budget" not in result.extra

    def test_monitor_disarmed_after_breach(self, tmp_path):
        with pytest.raises(BudgetExceededError):
            self._run(
                checkpoint_every=2_000, checkpoint_dir=tmp_path,
                budget=Budget(deadline_seconds=0.05),
            )
        assert budget.ACTIVE is None

    def test_breach_during_last_batch_finishes_the_run(self):
        # The final batch's progress report latches a disk breach: the
        # run has no access left to save, so it must return normally.
        def progress(update):
            monitor = budget.ACTIVE
            if monitor is not None and update.executed >= update.total:
                monitor.charge_disk(1 << 20)
                assert monitor.sample() is not None

        result = self._run(
            budget=Budget(disk_quota_bytes=1 << 20),
            progress=progress, progress_every=30_000,
        )
        breach = result.extra["host_budget"]["hard_breach"]
        assert breach["dimension"] == "disk"


# ----------------------------------------------------------------------
# Pool: drain, skip accounting, responsive sleeps
# ----------------------------------------------------------------------
class TestPoolEnforcement:
    def grid(self):
        return [
            runner.point_signature(mix, Scheme.POM_TLB, **TINY)
            for mix in ("gups", "canneal")
        ]

    def test_breached_campaign_skips_and_raises(self):
        monitor = breached_monitor()
        with pytest.raises(BudgetExceededError) as exc_info:
            run_campaign(self.grid(), monitor=monitor)
        error = exc_info.value
        summary = error.summary
        assert summary.simulated == 0
        assert summary.skipped == 2
        assert "skipped (budget)" in summary.format()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_finished_campaign_is_not_a_budget_stop(self, jobs):
        # The breach latches once the last point has reported, so no
        # point was left unrun: the campaign returns normally.
        grid = self.grid()
        monitor = BudgetMonitor(Budget(disk_quota_bytes=1 << 20))

        def progress(message):
            if message.startswith(f"[{len(grid)}/{len(grid)}]"):
                monitor.charge_disk(1 << 20)
                assert monitor.sample() is not None

        summary = run_campaign(
            grid, jobs=jobs, progress=progress, monitor=monitor
        )
        assert monitor.hard_breach is not None
        assert summary.simulated == len(grid)
        assert summary.skipped == 0 and summary.ok

    def test_skipped_points_rerun_on_resume(self):
        monitor = breached_monitor()
        with pytest.raises(BudgetExceededError):
            run_campaign(self.grid(), monitor=monitor)
        # Poisoning is in-memory bookkeeping for this campaign only: a
        # fresh (resumed) campaign without a budget re-runs the points.
        runner.clear_cache()
        summary = run_campaign(self.grid())
        assert summary.simulated == 2
        assert summary.ok

    def test_parallel_breach_drains_with_exit_semantics(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        monitor = breached_monitor()
        with pytest.raises(BudgetExceededError) as exc_info:
            run_campaign(
                self.grid(), jobs=2, store=store, monitor=monitor
            )
        assert exc_info.value.summary.skipped == 2

    def test_disk_full_aborts_inline_campaign_resumably(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        plan = faults.FaultPlan(
            faults=[faults.FaultSpec(point="store.enospc")],
            seed=3, name="test",
        )
        with faults.armed(plan):
            with pytest.raises(DiskFullError) as exc_info:
                run_campaign(self.grid(), store=store)
        # One identical disk-full per point would be noise: the campaign
        # stops at the first, poisons the rest as skipped, and resumes.
        assert exc_info.value.summary.skipped >= 1
        runner.clear_cache()
        summary = run_campaign(self.grid(), store=store, resume=True)
        assert summary.ok and len(store) == 2

    def test_disk_full_aborts_parallel_campaign_resumably(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        plan = faults.FaultPlan(
            faults=[faults.FaultSpec(point="store.enospc")],
            seed=3, name="test",
        )
        with faults.armed(plan):
            with pytest.raises(DiskFullError):
                run_campaign(self.grid(), jobs=2, store=store)
        faults.disarm()
        runner.clear_cache()
        summary = run_campaign(self.grid(), jobs=2, store=store, resume=True)
        assert summary.ok and len(store) == 2

    def test_responsive_sleep_returns_on_breach(self):
        monitor = breached_monitor()
        started = time.monotonic()
        _responsive_sleep(5.0, monitor=monitor)
        assert time.monotonic() - started < 1.0

    def test_responsive_sleep_sleeps_unbudgeted(self):
        started = time.monotonic()
        _responsive_sleep(0.08)
        assert time.monotonic() - started >= 0.08


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_run_exits_7_on_deadline(self, tmp_path, capsys):
        code = main([
            "run", "--mix", "gups", "--scheme", "csalt-cd",
            "--accesses", "5000000", "--deadline", "0.2s",
            "--checkpoint-every", "5000",
            "--checkpoint-dir", str(tmp_path),
        ])
        assert code == 7
        assert list(tmp_path.glob("*.ckpt"))
        assert "BudgetExceededError" in capsys.readouterr().err

    def test_bad_deadline_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--mix", "gups", "--deadline", "banana"])
        assert exc_info.value.code == 2

    def test_bad_size_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--mix", "gups", "--max-rss", "-4G"])
        assert exc_info.value.code == 2

    def test_report_store_quota_requires_store(self, capsys):
        code = main(["report", "--store-quota", "1G"])
        assert code == 2
        assert "--store" in capsys.readouterr().err

    def test_report_exits_7_and_writes_partial(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_TOTAL_ACCESSES", "1500")
        out = tmp_path / "report.md"
        code = main([
            "report", "--only", "figure8", "--jobs", "2",
            "--store", str(tmp_path / "store"),
            "--deadline", "0.001s", "--out", str(out),
        ])
        assert code == 7
        text = out.read_text()
        assert "PARTIAL" in text
        assert "budget exceeded" in text

    def test_doctor_flags_over_quota_store(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "store")
        result = runner.run_point("gups", Scheme.POM_TLB, **TINY)
        store.save(
            runner.point_signature("gups", Scheme.POM_TLB, **TINY), result
        )
        assert main([
            "doctor", "--store", str(store.root), "--store-quota", "1G",
        ]) == 0
        code = main([
            "doctor", "--store", str(store.root), "--store-quota", "1K",
        ])
        assert code == 5
        assert "quota" in capsys.readouterr().out.lower()

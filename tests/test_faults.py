"""Fault injection: plan parsing, the injector and the three hook sites.

The store and checkpoint failure modes that have no fault point are
driven directly here instead (a failing ``os.replace``, a directory
where an entry should be, a missing file), so every recovery branch
stays pinned without an injection hook.
"""

import errno
import json
import os

import pytest

from repro import faults
from repro.checkpoint import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.schemes import Scheme
from repro.errors import ConfigError, DiskFullError
from repro.experiments import runner
from repro.experiments.pool import run_campaign
from repro.experiments.store import ResultStore

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


def plan_for(point, **spec_fields):
    return faults.FaultPlan(
        faults=[faults.FaultSpec(point=point, **spec_fields)], name="test",
    )


def failing_replace(code):
    def replace(*args, **kwargs):
        raise OSError(code, os.strerror(code))

    return replace


# ----------------------------------------------------------------------
class TestPlanParsing:
    def test_catalogue_is_the_three_kept_points(self):
        assert sorted(faults.FAULT_POINTS) == [
            "pool.worker.crash", "pool.worker.error",
            "store.save.corrupt_byte",
        ]

    def test_unknown_point_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault point"):
            faults.FaultSpec(point="store.save.nope")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown field"):
            faults.FaultSpec.from_dict({"point": "pool.worker.crash",
                                        "wen": {}})

    @pytest.mark.parametrize("field", ["probability", "after", "args"])
    def test_retired_spec_fields_rejected(self, field):
        with pytest.raises(ConfigError, match=field):
            faults.FaultSpec.from_dict({"point": "pool.worker.crash",
                                        field: 1})

    def test_retired_plan_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            faults.FaultPlan.from_dict({"seed": 7, "faults": []})

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"when": "gups"}, "when"),
            ({"max_triggers": "once"}, "max_triggers"),
            ({"max_triggers": 0}, "max_triggers"),
            ({"max_triggers": True}, "max_triggers"),
        ],
    )
    def test_mistyped_field_rejected(self, spec, field):
        with pytest.raises(ConfigError, match=field):
            faults.FaultSpec.from_dict(dict(spec, point="pool.worker.crash"))

    def test_unbounded_max_triggers_accepted(self):
        spec = faults.FaultSpec.from_dict(
            {"point": "pool.worker.crash", "max_triggers": None}
        )
        assert spec.max_triggers is None

    def test_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"faults": [{"point": "pool.worker.crash"}]}
        ))
        plan = faults.FaultPlan.from_file(path)
        assert plan.faults[0].point == "pool.worker.crash"
        assert plan.faults[0].max_triggers == 1
        assert plan.name == "plan.json"  # falls back to the filename

    def test_unreadable_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            faults.FaultPlan.from_file(tmp_path / "missing.json")


class TestInjectorSemantics:
    def test_unarmed_is_inert(self):
        assert faults.ACTIVE is None

    def test_max_triggers_bounds_firing(self):
        injector = faults.FaultInjector(
            plan_for("pool.worker.crash", max_triggers=2)
        )
        fired = [injector.fire("pool.worker.crash") for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_when_filters_on_context(self):
        injector = faults.FaultInjector(
            plan_for("pool.worker.crash", when={"attempt": 1})
        )
        assert injector.fire("pool.worker.crash", attempt=2) is False
        assert injector.fire("pool.worker.crash", attempt=1) is True

    def test_specs_for_other_points_never_fire(self):
        injector = faults.FaultInjector(plan_for("pool.worker.crash"))
        assert injector.fire("pool.worker.error") is False
        assert injector.fire("pool.worker.crash") is True

    def test_first_matching_spec_with_triggers_left_wins(self):
        plan = faults.FaultPlan(faults=[
            faults.FaultSpec(point="pool.worker.crash", max_triggers=1),
            faults.FaultSpec(point="pool.worker.crash", max_triggers=1),
        ])
        injector = faults.FaultInjector(plan)
        fired = [injector.fire("pool.worker.crash") for _ in range(3)]
        assert fired == [True, True, False]
        assert [r["trigger"] for r in injector.records] == [1, 1]

    def test_fault_log_appends_jsonl(self, tmp_path):
        log = tmp_path / "faults.jsonl"
        injector = faults.FaultInjector(
            plan_for("pool.worker.crash", max_triggers=2), log_path=str(log)
        )
        injector.fire("pool.worker.crash", attempt=1)
        injector.fire("pool.worker.crash", attempt=2)
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["point"] == "pool.worker.crash"
        assert lines[1]["trigger"] == 2
        assert lines[0]["context"]["attempt"] == 1

    def test_injection_is_recorded(self):
        injector = faults.FaultInjector(plan_for("pool.worker.crash"))
        injector.fire("pool.worker.crash", attempt=1)
        assert injector.injected == 1
        assert injector.records[0]["point"] == "pool.worker.crash"

    def test_flip_byte_changes_exactly_one_byte(self):
        data = b"0123456789"
        flipped = faults.flip_byte(data)
        assert len(flipped) == len(data)
        assert sum(a != b for a, b in zip(data, flipped)) == 1


# ----------------------------------------------------------------------
class TestStoreFaultPoints:
    """The store's hook (``store.save.corrupt_byte``) and its I/O-error
    branches, which are driven directly."""

    def _point(self):
        signature = runner.point_signature("gups", Scheme.POM_TLB, **TINY)
        return signature, runner.run_point("gups", Scheme.POM_TLB, **TINY)

    def test_corrupt_byte_loads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        signature, result = self._point()
        faults.arm(plan_for("store.save.corrupt_byte"))
        store.save(signature, result)
        faults.disarm()
        with pytest.warns(RuntimeWarning):
            assert store.load(signature) is None

    def test_save_io_error_raises_oserror(self, tmp_path, monkeypatch):
        # The temp file exists when os.replace fails, so the no-orphan
        # assert checks the sweep in ``save``'s finally clause.
        store = ResultStore(tmp_path)
        signature, result = self._point()
        monkeypatch.setattr(os, "replace", failing_replace(errno.EIO))
        with pytest.raises(OSError) as exc_info:
            store.save(signature, result)
        assert exc_info.value.errno == errno.EIO
        assert not isinstance(exc_info.value, DiskFullError)
        assert not list(tmp_path.glob("*.tmp"))
        assert len(store) == 0

    def test_load_io_error_degrades_to_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        signature, result = self._point()
        store.path_for(signature).mkdir()  # open() raises IsADirectoryError
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert store.load(signature) is None
        store.path_for(signature).rmdir()
        store.save(signature, result)
        assert store.load(signature) is not None


class TestCheckpointFaultPoints:
    """Checkpoint I/O failures, driven directly."""

    def test_write_io_error_keeps_previous_and_no_tmp(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "snap.ckpt"
        write_checkpoint(path, {"generation": 1})
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", failing_replace(errno.EIO))
            with pytest.raises(CheckpointError, match="cannot write"):
                write_checkpoint(path, {"generation": 2})
        assert not list(tmp_path.glob("*.tmp"))  # single-finally cleanup
        document, _ = read_checkpoint(path)
        assert document == {"generation": 1}  # old snapshot survives

    def test_read_io_error_wrapped(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "missing.ckpt")


# ----------------------------------------------------------------------
class TestPoolFaultPoints:
    def grid(self):
        return [runner.point_signature("gups", Scheme.POM_TLB, **TINY)]

    def test_worker_crash_retried_to_success(self, tmp_path):
        store = ResultStore(tmp_path)
        plan = plan_for("pool.worker.crash", when={"attempt": 1})
        faults.arm(plan)
        summary = run_campaign(self.grid(), jobs=2, store=store, retries=2)
        faults.disarm()
        assert summary.ok
        assert summary.simulated == 1
        assert len(store) == 1

    def test_worker_error_fails_point_without_retry(self, tmp_path):
        store = ResultStore(tmp_path)
        faults.arm(plan_for("pool.worker.error"))
        summary = run_campaign(self.grid(), jobs=2, store=store, retries=2)
        faults.disarm()
        assert not summary.ok
        assert summary.failures[0].attempts == 1  # deterministic: no retry
        # The class a real simulation failure raises (exit code 3).
        assert summary.failures[0].error.startswith("SimulationError: ")

    def test_worker_hang_killed_by_timeout(self, tmp_path, monkeypatch):
        # Hang once: the timeout kills the first worker, the retry
        # completes the point.  Forked workers inherit the patch; the
        # marker file is the counter that survives the killed worker.
        import time as time_module

        marker = tmp_path / "hung-once"
        real = runner.run_simulation

        def hang_once(config, workloads, **kwargs):
            if not marker.exists():
                marker.write_text("x")
                time_module.sleep(60)
            return real(config, workloads, **kwargs)

        monkeypatch.setattr(runner, "run_simulation", hang_once)
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(
            self.grid(), jobs=2, store=store, retries=2, timeout=1.0,
            backoff=0.05,
        )
        assert marker.exists()
        assert summary.ok
        assert summary.simulated == 1
        assert len(store) == 1

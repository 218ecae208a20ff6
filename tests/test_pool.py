"""Campaign pool: dedup, resume, fault isolation, retry, parallel workers."""

import os
import warnings
from types import SimpleNamespace

import pytest

from repro.core.schemes import Scheme
from repro.errors import SimulationError
from repro.experiments import runner
from repro.experiments.pool import (
    CampaignInterrupted,
    dedupe_signatures,
    run_campaign,
)
from repro.experiments.store import ResultStore

TINY = dict(total_accesses=1_500)


@pytest.fixture(autouse=True)
def fresh_runner():
    runner.clear_cache()
    runner.set_store(None)
    yield
    runner.clear_cache()
    runner.set_store(None)


def tiny_grid(mixes=("gups", "canneal"), schemes=(Scheme.POM_TLB,)):
    return [
        runner.point_signature(mix, scheme, **TINY)
        for mix in mixes
        for scheme in schemes
    ]


class TestDedup:
    def test_duplicates_collapse(self):
        grid = tiny_grid() + tiny_grid()
        assert len(dedupe_signatures(grid)) == len(tiny_grid())

    def test_order_preserved(self):
        grid = tiny_grid()
        assert dedupe_signatures(list(reversed(grid))) == list(reversed(grid))


class TestInlineCampaign:
    def test_simulates_and_seeds_cache(self):
        summary = run_campaign(tiny_grid())
        assert summary.total == 2
        assert summary.simulated == 2
        assert summary.ok
        assert runner.cache_size() == 2

    def test_cached_points_reused(self):
        runner.run_point("gups", Scheme.POM_TLB, **TINY)
        summary = run_campaign(tiny_grid())
        assert summary.reused == 1
        assert summary.simulated == 1

    def test_store_resume_skips_persisted(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        run_campaign(tiny_grid(), store=store)
        assert len(store) == 2
        runner.clear_cache()

        def boom(*args, **kwargs):
            raise AssertionError("resume should not re-simulate")

        monkeypatch.setattr(runner, "run_simulation", boom)
        summary = run_campaign(tiny_grid(), store=store, resume=True)
        assert summary.loaded == 2
        assert summary.simulated == 0

    def test_fault_injection_continues_campaign(self, monkeypatch):
        real = runner.run_simulation

        def flaky(config, workloads, **kwargs):
            if kwargs.get("workload_name") == "canneal":
                raise RuntimeError("injected fault")
            return real(config, workloads, **kwargs)

        monkeypatch.setattr(runner, "run_simulation", flaky)
        summary = run_campaign(tiny_grid())
        assert summary.simulated == 1
        assert len(summary.failures) == 1
        assert "injected fault" in summary.failures[0].error
        # The failed point is poisoned: exhibits fail fast, not slow.
        with pytest.raises(runner.PointFailedError):
            runner.run_point("canneal", Scheme.POM_TLB, **TINY)
        # The healthy point is untouched.
        assert runner.run_point("gups", Scheme.POM_TLB, **TINY)

    def test_progress_messages(self):
        messages = []
        run_campaign(tiny_grid(), progress=messages.append)
        assert any("simulated" in message for message in messages)


class TestParallelCampaign:
    def test_two_workers_complete_grid(self, tmp_path):
        store = ResultStore(tmp_path)
        summary = run_campaign(tiny_grid(), jobs=2, store=store)
        assert summary.simulated == 2
        assert summary.ok
        assert len(store) == 2
        # Parent can now render from memory without touching workers.
        assert runner.cache_size() == 2

    def test_worker_results_equal_inline(self, tmp_path):
        store = ResultStore(tmp_path)
        run_campaign(tiny_grid(mixes=("gups",)), jobs=2, store=store)
        parallel = runner.run_point("gups", Scheme.POM_TLB, **TINY)
        runner.clear_cache()
        runner.set_store(None)
        inline = runner.run_point("gups", Scheme.POM_TLB, **TINY)
        parallel_dict = parallel.to_dict()
        inline_dict = inline.to_dict()
        for extras in (parallel_dict["extra"], inline_dict["extra"]):
            for key in [k for k in extras if k.startswith("host_")]:
                extras.pop(key)
        assert parallel_dict == inline_dict

    def test_worker_exception_fails_point_without_retry(self, monkeypatch):
        real = runner.run_simulation

        def flaky(config, workloads, **kwargs):
            if kwargs.get("workload_name") == "canneal":
                raise RuntimeError("injected fault")
            if kwargs.get("workload_name") == "streamcluster":
                raise SimulationError("injected integrity failure")
            return real(config, workloads, **kwargs)

        # Workers are forked, so the monkeypatch propagates to them.
        monkeypatch.setattr(runner, "run_simulation", flaky)
        summary = run_campaign(
            tiny_grid(mixes=("gups", "canneal", "streamcluster")),
            jobs=2, backoff=0.0,
        )
        assert summary.simulated == 1
        failures = {
            failure.signature["mix_name"]: failure
            for failure in summary.failures
        }
        assert sorted(failures) == ["canneal", "streamcluster"]
        assert [failure.attempts for failure in failures.values()] == [1, 1]
        # An unexpected type ships its traceback; a classified failure
        # ships its class and message alone.
        unexpected = failures["canneal"].error
        assert unexpected.startswith("unexpected RuntimeError: injected fault")
        assert "Traceback" in unexpected
        assert failures["streamcluster"].error == (
            "SimulationError: injected integrity failure"
        )

    def test_killed_worker_retries_then_fails(self, monkeypatch):
        real = runner.run_simulation

        def crashing(config, workloads, **kwargs):
            if kwargs.get("workload_name") == "canneal":
                os._exit(17)  # simulate an OOM kill: no traceback, no message
            return real(config, workloads, **kwargs)

        monkeypatch.setattr(runner, "run_simulation", crashing)
        summary = run_campaign(tiny_grid(), jobs=2, retries=1, backoff=0.0)
        assert summary.simulated == 1
        assert len(summary.failures) == 1
        failure = summary.failures[0]
        assert failure.attempts == 2  # first try + one retry
        assert "worker died" in failure.error

    def test_transient_crash_recovers_on_retry(self, tmp_path, monkeypatch):
        marker = tmp_path / "crashed-once"
        real = runner.run_simulation

        def crash_once(config, workloads, **kwargs):
            if kwargs.get("workload_name") == "canneal" and not marker.exists():
                marker.write_text("x")
                os._exit(17)
            return real(config, workloads, **kwargs)

        monkeypatch.setattr(runner, "run_simulation", crash_once)
        summary = run_campaign(tiny_grid(), jobs=2, retries=2, backoff=0.0)
        assert summary.ok
        assert summary.simulated == 2

    def test_timeout_retries_point(self, monkeypatch):
        import time as time_module

        real = runner.run_simulation

        def hanging(config, workloads, **kwargs):
            if kwargs.get("workload_name") == "canneal":
                time_module.sleep(60)
            return real(config, workloads, **kwargs)

        monkeypatch.setattr(runner, "run_simulation", hanging)
        summary = run_campaign(
            tiny_grid(), jobs=2, timeout=1.0, retries=0, backoff=0.0,
        )
        assert summary.simulated == 1
        assert len(summary.failures) == 1
        assert "timed out" in summary.failures[0].error

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
            tiny_grid(mixes=("gups",)), jobs=2, store=store, retries=2,
            timeout=1.0, backoff=0.05,
        )
        assert marker.exists()
        assert summary.ok
        assert summary.simulated == 1
        assert len(store) == 1


def store_bytes(store):
    return {path.name: path.read_bytes() for path in store.root.glob("*.json")}


class TestConvergence:
    """A killed worker, a failed point and a bit-rotted store entry in one
    campaign: one resumed round later the store holds exactly the bytes a
    fault-free campaign writes.  The campaign runs once for the class and
    each test checks one step of it."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("convergence")
        grid = tiny_grid(mixes=("gups", "canneal", "streamcluster"))
        runner.clear_cache()
        baseline = ResultStore(root / "baseline")
        assert run_campaign(grid, jobs=2, store=baseline).ok
        runner.clear_cache()

        marker = root / "gups-crashed"
        real = runner.run_simulation

        def faulty(config, workloads, **kwargs):
            name = kwargs.get("workload_name")
            if name == "gups" and not marker.exists():
                marker.write_text("x")
                os._exit(17)  # killed on its first attempt only
            if name == "streamcluster":
                raise SimulationError("injected integrity failure")
            return real(config, workloads, **kwargs)

        store = ResultStore(root / "store")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runner, "run_simulation", faulty)
            first = run_campaign(grid, jobs=2, store=store, backoff=0.0)
        first_entries = store_bytes(store)

        entry = store.path_for(grid[1])  # canneal's landed entry
        data = bytearray(entry.read_bytes())
        data[len(data) // 2] ^= 0xFF
        entry.write_bytes(bytes(data))
        with warnings.catch_warnings(record=True) as load_warnings:
            warnings.simplefilter("always")
            corrupt_load = store.load(grid[1])

        # Memory must not mask disk: the resumed round reads the store.
        runner.clear_cache()
        with warnings.catch_warnings(record=True) as resume_warnings:
            warnings.simplefilter("always")
            resumed = run_campaign(grid, jobs=2, store=store, resume=True)
        runner.clear_cache()
        return SimpleNamespace(
            grid=grid,
            store=store,
            expected=store_bytes(baseline),
            crashed=marker.exists(),
            first=first,
            first_entries=first_entries,
            corrupt_load=corrupt_load,
            load_warnings=[str(w.message) for w in load_warnings],
            resumed=resumed,
            resume_warnings=[str(w.message) for w in resume_warnings],
        )

    def test_worker_crash_retried_to_success(self, run):
        assert run.crashed
        assert run.first.simulated == 2  # gups on its retry, and canneal
        gups = run.store.path_for(run.grid[0]).name
        assert run.first_entries.get(gups) == run.expected[gups]

    def test_worker_error_fails_point_without_retry(self, run):
        (failure,) = run.first.failures
        assert failure.signature["mix_name"] == "streamcluster"
        assert failure.attempts == 1  # deterministic: no retry
        # The class a real simulation failure raises (exit code 3).
        assert failure.error == "SimulationError: injected integrity failure"

    def test_corrupt_byte_loads_as_miss(self, run):
        canneal = run.store.path_for(run.grid[1]).name
        assert run.corrupt_load is None
        (message,) = run.load_warnings
        assert message.startswith(f"ignoring unreadable store entry {canneal}")
        # The resumed round takes the same miss and re-simulates canneal.
        assert any(
            "unreadable" in message and canneal in message
            for message in run.resume_warnings
        )

    def test_crash_and_corruption_converge(self, run):
        assert run.resumed.ok
        # gups loads; canneal (corrupt) and streamcluster (failed) re-run.
        assert (run.resumed.loaded, run.resumed.simulated) == (1, 2)
        assert len(run.store) == 3

    def test_stores_byte_identical_after_convergence(self, run):
        assert len(run.expected) == 3
        assert store_bytes(run.store) == run.expected


class TestInterrupt:
    def test_inline_interrupt_persists_completed(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        real = runner.run_simulation
        calls = []

        def interrupt_second(config, workloads, **kwargs):
            calls.append(kwargs.get("workload_name"))
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(config, workloads, **kwargs)

        monkeypatch.setattr(runner, "run_simulation", interrupt_second)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                tiny_grid(mixes=("gups", "canneal", "pagerank")), store=store
            )
        assert len(store) == 1  # the completed point survived

        # Resume: only the missing points are simulated.
        monkeypatch.setattr(runner, "run_simulation", real)
        runner.clear_cache()
        summary = run_campaign(
            tiny_grid(mixes=("gups", "canneal", "pagerank")),
            store=store, resume=True,
        )
        assert summary.loaded == 1
        assert summary.simulated == 2
        assert summary.ok

    def test_campaign_interrupted_is_keyboard_interrupt(self):
        assert issubclass(CampaignInterrupted, KeyboardInterrupt)


class TestWorkerCheckpoints:
    """checkpoint_every: a killed worker's retry resumes mid-simulation."""

    def test_retry_restores_from_worker_checkpoint(self, tmp_path, monkeypatch):
        from repro.checkpoint import list_checkpoints
        from repro.experiments.pool import _point_checkpoint_dir
        from repro.experiments.store import strip_host_fields

        signature = runner.point_signature(
            "gups", Scheme.POM_TLB, total_accesses=1_500
        )
        clean = runner.run_point(**runner.point_from_signature(signature))
        expected = strip_host_fields(clean.to_dict())
        runner.clear_cache()

        real_run_point = runner.run_point
        died_marker = tmp_path / "died-once"
        restored_marker = tmp_path / "restored-from"

        def dies_after_first_simulation(**kwargs):
            result = real_run_point(**kwargs)
            if kwargs.get("checkpoint_dir") and not died_marker.exists():
                # Simulate a crash after checkpointing but before the
                # result reaches the parent: snapshots stay on disk.
                died_marker.touch()
                os._exit(1)
            restored = result.extra.get("host_restored_from")
            if restored is not None:
                restored_marker.write_text(restored)
            return result

        monkeypatch.setattr(runner, "run_point", dies_after_first_simulation)
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(
            [signature], jobs=2, store=store, resume=False,
            retries=2, backoff=0.01, checkpoint_every=500,
        )
        assert summary.ok
        assert summary.simulated == 1
        stored = store.load(signature)
        assert strip_host_fields(stored.to_dict()) == expected
        # The retry resumed from the dead worker's snapshot (the store
        # strips host_* run-control fields, so the worker recorded it)...
        assert died_marker.exists()
        assert "ckpt-" in restored_marker.read_text()
        # ...and the completed point's snapshots were cleaned up.
        ckpt_dir = _point_checkpoint_dir(store.root, signature)
        assert not list_checkpoints(ckpt_dir)

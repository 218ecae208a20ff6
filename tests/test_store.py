"""Persistent result store: round trips, atomicity, corruption handling."""

import errno
import json
import os
import warnings

import pytest

from repro.core.schemes import Scheme
from repro.doctor import run_doctor
from repro.errors import DiskFullError
from repro.experiments import runner
from repro.experiments.store import (
    ResultStore,
    signature_key,
    strip_host_fields,
)
from repro.sim.stats import SimulationResult

TINY = dict(total_accesses=1_500)


@pytest.fixture(autouse=True)
def fresh_runner():
    runner.clear_cache()
    runner.set_store(None)
    yield
    runner.clear_cache()
    runner.set_store(None)


def tiny_point():
    signature = runner.point_signature("gups", Scheme.POM_TLB, **TINY)
    result = runner.run_point("gups", Scheme.POM_TLB, **TINY)
    return signature, result


def failing_replace(code):
    """An ``os.replace`` stand-in that fails with ``code``."""
    def replace(*args, **kwargs):
        raise OSError(code, os.strerror(code))

    return replace


class TestSignatureKey:
    def test_deterministic(self):
        signature = runner.point_signature("gups", Scheme.POM_TLB, **TINY)
        assert signature_key(signature) == signature_key(dict(signature))

    def test_key_order_independent(self):
        signature = runner.point_signature("gups", Scheme.POM_TLB, **TINY)
        shuffled = dict(sorted(signature.items(), reverse=True))
        assert signature_key(signature) == signature_key(shuffled)

    def test_distinct_points_distinct_keys(self):
        a = runner.point_signature("gups", Scheme.POM_TLB, **TINY)
        b = runner.point_signature("gups", Scheme.POM_TLB, contexts=1, **TINY)
        assert signature_key(a) != signature_key(b)


class TestRoundTrip:
    def test_save_load_equal_stats(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        signature, result = tiny_point()
        store.save(signature, result)
        loaded = store.load(signature)
        assert loaded is not None
        assert loaded.to_dict() == strip_host_fields(result.to_dict())
        assert loaded.ipc == pytest.approx(result.ipc)
        assert loaded.l2_tlb_mpki == pytest.approx(result.l2_tlb_mpki)

    def test_ints_survive(self, tmp_path):
        store = ResultStore(tmp_path)
        signature, result = tiny_point()
        store.save(signature, result)
        loaded = store.load(signature)
        assert isinstance(loaded.extra["seed"], int)
        assert isinstance(loaded.extra["context_switches"], int)
        assert isinstance(loaded.per_core[0].instructions, int)

    def test_host_fields_not_persisted(self, tmp_path):
        store = ResultStore(tmp_path)
        signature, result = tiny_point()
        assert "host_seconds" in result.extra
        store.save(signature, result)
        assert "host_seconds" not in store.load(signature).extra

    def test_persisted_payload_deterministic(self, tmp_path):
        """Same point simulated twice -> byte-identical store entries."""
        store = ResultStore(tmp_path)
        signature, result = tiny_point()
        path = store.save(signature, result)
        first = path.read_bytes()
        runner.clear_cache()
        _, rerun = tiny_point()
        store.save(signature, rerun)
        assert path.read_bytes() == first

    def test_missing_entry_is_none(self, tmp_path):
        store = ResultStore(tmp_path)
        signature = runner.point_signature("gups", Scheme.POM_TLB, **TINY)
        assert store.load(signature) is None
        assert not store.contains(signature)


class TestRobustness:
    def test_no_temp_files_left(self, tmp_path):
        store = ResultStore(tmp_path)
        signature, result = tiny_point()
        store.save(signature, result)
        assert not list(tmp_path.glob("*.tmp"))
        assert len(store) == 1

    def test_orphaned_temp_is_not_an_entry(self, tmp_path, monkeypatch):
        # A save killed between its write and its ``os.replace`` leaves
        # the temp file behind; a stubbed ``os.unlink`` keeps the sweep
        # in ``save``'s finally clause from removing it.
        store = ResultStore(tmp_path)
        signature, result = tiny_point()
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", failing_replace(errno.EIO))
            patch.setattr(os, "unlink", lambda path: None)
            with pytest.raises(OSError):
                store.save(signature, result)
        (orphan,) = tmp_path.iterdir()
        assert len(store) == 0
        assert list(store.signatures()) == []
        report = run_doctor(str(tmp_path))
        checks = {check.name: check for check in report.checks}
        assert checks["store integrity"].problems == []
        assert checks["orphaned temp files"].problems == [
            f"{orphan}: orphaned temp file (use --fix)"
        ]

    def test_corrupt_entry_is_warned_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        signature, result = tiny_point()
        path = store.save(signature, result)
        path.write_text("{ truncated")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert store.load(signature) is None

    def test_signature_mismatch_is_warned_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        signature, result = tiny_point()
        path = store.save(signature, result)
        document = json.loads(path.read_text())
        document["signature"]["seed"] = 999
        path.write_text(json.dumps(document))
        with pytest.warns(RuntimeWarning, match="malformed"):
            assert store.load(signature) is None

    def test_schema_version_mismatch_is_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        signature, result = tiny_point()
        path = store.save(signature, result)
        document = json.loads(path.read_text())
        document["schema_version"] = 999
        path.write_text(json.dumps(document))
        with pytest.warns(RuntimeWarning, match="malformed"):
            assert store.load(signature) is None

    def test_signatures_iterates_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        signature, result = tiny_point()
        store.save(signature, result)
        assert list(store.signatures()) == [dict(signature)]


class TestIoErrors:
    """I/O failures of the store's own reads and writes."""

    def test_save_io_error_raises_oserror(self, tmp_path, monkeypatch):
        # The temp file exists when os.replace fails, so the no-orphan
        # assert checks the sweep in ``save``'s finally clause.
        store = ResultStore(tmp_path)
        signature, result = tiny_point()
        monkeypatch.setattr(os, "replace", failing_replace(errno.EIO))
        with pytest.raises(OSError) as exc_info:
            store.save(signature, result)
        assert exc_info.value.errno == errno.EIO
        assert not isinstance(exc_info.value, DiskFullError)
        assert not list(tmp_path.glob("*.tmp"))
        assert len(store) == 0

    def test_load_io_error_degrades_to_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        signature, result = tiny_point()
        store.path_for(signature).mkdir()  # open() raises IsADirectoryError
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert store.load(signature) is None
        store.path_for(signature).rmdir()
        store.save(signature, result)
        assert store.load(signature) is not None


class TestCorruptionClasses:
    """Every corruption class tolerated as a miss, each skip counted by
    one ``RuntimeWarning`` naming the entry."""

    def _store(self, tmp_path):
        store = ResultStore(tmp_path)
        signature, result = tiny_point()
        path = store.save(signature, result)
        return store, signature, path

    def corrupt(self, path, how):
        if how == "truncated-json":
            path.write_text(path.read_text()[: len(path.read_text()) // 2])
        elif how == "flipped-byte":
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0xFF
            path.write_bytes(bytes(data))
        elif how == "empty-file":
            path.write_bytes(b"")
        elif how == "wrong-signature":
            document = json.loads(path.read_text())
            document["signature"]["seed"] = 4242
            path.write_text(json.dumps(document))
        else:  # pragma: no cover - test bug
            raise AssertionError(how)

    @pytest.mark.parametrize(
        "how", ["truncated-json", "flipped-byte", "empty-file",
                "wrong-signature"]
    )
    def test_each_class_is_tolerated_and_counted(self, tmp_path, how):
        store, signature, path = self._store(tmp_path)
        self.corrupt(path, how)
        with pytest.warns(RuntimeWarning) as record:
            assert store.load(signature) is None
        assert len(record) == 1
        assert path.name in str(record[0].message)

    def test_counter_increments_per_skip(self, tmp_path):
        store, signature, path = self._store(tmp_path)
        self.corrupt(path, "flipped-byte")
        with pytest.warns(RuntimeWarning) as record:
            store.load(signature)
            store.load(signature)
        assert len(record) == 2

    def test_healthy_load_counts_nothing(self, tmp_path):
        store, signature, _ = self._store(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.load(signature) is not None


class TestRunnerIntegration:
    def test_run_point_writes_through(self, tmp_path):
        store = ResultStore(tmp_path)
        runner.set_store(store)
        runner.run_point("gups", Scheme.POM_TLB, **TINY)
        assert len(store) == 1

    def test_run_point_loads_instead_of_simulating(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        runner.set_store(store)
        result = runner.run_point("gups", Scheme.POM_TLB, **TINY)
        runner.clear_cache()

        def boom(*args, **kwargs):
            raise AssertionError("should have loaded from the store")

        monkeypatch.setattr(runner, "run_simulation", boom)
        loaded = runner.run_point("gups", Scheme.POM_TLB, **TINY)
        assert loaded.to_dict()["ipc"] == pytest.approx(result.ipc)

    def test_write_only_mode_ignores_existing(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        runner.set_store(store)
        runner.run_point("gups", Scheme.POM_TLB, **TINY)
        runner.clear_cache()
        simulated = []
        real = runner.run_simulation

        def counting(*args, **kwargs):
            simulated.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "run_simulation", counting)
        runner.set_store(store, consult=False)
        runner.run_point("gups", Scheme.POM_TLB, **TINY)
        assert simulated  # fresh mode re-simulates despite the store entry

    def test_persist_failure_warns_and_returns_result(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        runner.set_store(store)
        monkeypatch.setattr(os, "replace", failing_replace(errno.EIO))
        with pytest.warns(RuntimeWarning, match="could not persist"):
            result = runner.run_point("gups", Scheme.POM_TLB, **TINY)
        assert isinstance(result, SimulationResult)
        assert len(store) == 0
        assert not list(tmp_path.glob("*.tmp"))


class TestFromDict:
    def test_round_trip_exact(self):
        _, result = tiny_point()
        clone = SimulationResult.from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()
        assert clone.l2_partition_timeline == result.l2_partition_timeline
        assert clone.occupancy_samples == result.occupancy_samples

"""``repro doctor``: store scan, orphan sweep, checkpoint probe, --fix."""

import json

import pytest

from repro.budget import directory_bytes
from repro.checkpoint import write_checkpoint
from repro.cli import main
from repro.core.schemes import Scheme
from repro.doctor import (
    check_checkpoint_round_trip,
    check_configuration,
    check_orphaned_temp_files,
    check_store_integrity,
    run_doctor,
)
from repro.errors import EXIT_DOCTOR
from repro.experiments import runner
from repro.experiments.store import ResultStore

TINY = dict(total_accesses=1_500)


@pytest.fixture(autouse=True)
def fresh_runner():
    runner.clear_cache()
    runner.set_store(None)
    yield
    runner.clear_cache()
    runner.set_store(None)


def populated_store(tmp_path):
    store = ResultStore(tmp_path / "store")
    signature = runner.point_signature("gups", Scheme.POM_TLB, **TINY)
    result = runner.run_point("gups", Scheme.POM_TLB, **TINY)
    path = store.save(signature, result)
    return store, path


class TestStoreIntegrity:
    def test_healthy_store(self, tmp_path):
        store, _ = populated_store(tmp_path)
        check = check_store_integrity(store.root)
        assert check.ok
        assert "1/1 entries verified" in check.notes[0]

    def test_unparseable_entry_flagged(self, tmp_path):
        store, path = populated_store(tmp_path)
        path.write_text("{ torn")
        check = check_store_integrity(store.root)
        assert not check.ok
        assert "unreadable" in check.problems[0]

    def test_wrong_filename_digest_flagged(self, tmp_path):
        store, path = populated_store(tmp_path)
        renamed = path.with_name("0" * 64 + ".json")
        path.rename(renamed)
        check = check_store_integrity(store.root)
        assert not check.ok
        assert "does not match filename" in check.problems[0]

    def test_schema_version_flagged(self, tmp_path):
        store, path = populated_store(tmp_path)
        document = json.loads(path.read_text())
        document["schema_version"] = 99
        path.write_text(json.dumps(document))
        check = check_store_integrity(store.root)
        assert not check.ok

    def test_fix_deletes_corrupt_entry(self, tmp_path):
        store, path = populated_store(tmp_path)
        path.write_text("{ torn")
        check = check_store_integrity(store.root, fix=True)
        assert check.ok
        assert check.fixed
        assert not path.exists()


class TestOrphanSweep:
    def test_store_and_checkpoint_orphans_found(self, tmp_path):
        store, path = populated_store(tmp_path)
        (store.root / f"{path.name}.orphan.tmp").write_text("{}")
        nested = store.root / "checkpoints" / "deadbeef"
        nested.mkdir(parents=True)
        (nested / "snap.ckpt.abc.tmp").write_bytes(b"partial")
        check = check_orphaned_temp_files(store.root, [])
        assert len(check.problems) == 2

    def test_fix_removes_orphans(self, tmp_path):
        store, path = populated_store(tmp_path)
        orphan = store.root / f"{path.name}.orphan.tmp"
        orphan.write_text("{}")
        check = check_orphaned_temp_files(store.root, [], fix=True)
        assert check.ok
        assert not orphan.exists()

    def test_explicit_checkpoint_dir(self, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        ckpt_dir.mkdir()
        (ckpt_dir / "snap.ckpt.xyz.tmp").write_bytes(b"partial")
        check = check_orphaned_temp_files(None, [ckpt_dir])
        assert not check.ok

    def test_clean_dirs(self, tmp_path):
        check = check_orphaned_temp_files(tmp_path, [])
        assert check.ok


class TestCheckpointProbe:
    def test_probe_round_trips(self):
        check = check_checkpoint_round_trip()
        assert check.ok

    def test_existing_corrupt_snapshot_flagged(self, tmp_path):
        path = tmp_path / "ckpt-000000000001.ckpt"
        write_checkpoint(path, {"generation": 1})
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        check = check_checkpoint_round_trip([tmp_path])
        assert not check.ok
        assert "checksum" in check.problems[0]


class TestConfigurationCheck:
    def test_all_schemes_build(self):
        check = check_configuration()
        assert check.ok


class TestRunDoctor:
    def test_healthy_report(self, tmp_path):
        store, _ = populated_store(tmp_path)
        report = run_doctor(store_dir=str(store.root))
        assert report.ok
        assert report.to_dict()["ok"] is True
        assert "healthy" in report.format()

    def test_unhealthy_report_lists_problems(self, tmp_path):
        store, path = populated_store(tmp_path)
        path.write_text("{ torn")
        report = run_doctor(store_dir=str(store.root))
        assert not report.ok
        assert any("unreadable" in problem for problem in report.problems)

    def test_fix_then_healthy(self, tmp_path):
        store, path = populated_store(tmp_path)
        path.write_text("{ torn")
        (store.root / f"{path.name}.junk.tmp").write_text("{}")
        assert run_doctor(store_dir=str(store.root), fix=True).ok
        assert run_doctor(store_dir=str(store.root)).ok


class TestDoctorCli:
    def test_healthy_exit_zero(self, tmp_path, capsys):
        store, _ = populated_store(tmp_path)
        assert main(["doctor", "--store", str(store.root)]) == 0
        assert "healthy" in capsys.readouterr().out

    def test_old_style_store_temp_is_a_bad_entry(self, tmp_path, capsys):
        # Earlier builds named the store's temp files
        # ``.tmp-<random>.json``, which the entry glob matches: the
        # integrity check reports a leftover one and ``--fix`` deletes it.
        store, _ = populated_store(tmp_path)
        old = store.root / ".tmp-x.json"
        old.write_text('{"schema_')  # torn, as a killed write leaves it
        assert main(["doctor", "--store", str(store.root)]) == EXIT_DOCTOR
        out = capsys.readouterr().out
        assert "[PROBLEM] store integrity" in out
        assert "problem: .tmp-x.json: unreadable" in out
        assert "[     ok] orphaned temp files" in out
        assert main(["doctor", "--store", str(store.root), "--fix"]) == 0
        assert not old.exists()
        assert len(store) == 1

    def test_problems_exit_doctor_code(self, tmp_path, capsys):
        store, path = populated_store(tmp_path)
        path.write_text("{ torn")
        assert main(["doctor", "--store", str(store.root)]) == EXIT_DOCTOR
        captured = capsys.readouterr()
        assert "UNHEALTHY" in captured.out
        assert "--fix" in captured.err

    def test_quota_headroom_band_exits_doctor_code(self, tmp_path, capsys):
        # Under the quota but at >= 85% of it is already a problem.
        store, _ = populated_store(tmp_path)
        used = directory_bytes(store.root)
        args = ["doctor", "--store", str(store.root), "--store-quota"]
        assert main(args + [str(used * 2)]) == 0
        assert main(args + [str(int(used / 0.9))]) == EXIT_DOCTOR
        assert "90% full" in capsys.readouterr().out

    def test_fix_flag_cleans_and_exits_zero(self, tmp_path, capsys):
        store, path = populated_store(tmp_path)
        path.write_text("{ torn")
        assert main(["doctor", "--store", str(store.root), "--fix"]) == 0

    def test_json_output(self, tmp_path, capsys):
        store, _ = populated_store(tmp_path)
        assert main(["doctor", "--store", str(store.root), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert {check["name"] for check in document["checks"]} >= {
            "store integrity", "orphaned temp files",
            "checkpoint round-trip", "configuration",
        }

"""Checkpoint envelope, writer pruning, watchdog, snapshot views, and the
determinism oracle: restore-and-continue must be bit-identical to an
uninterrupted run."""

import json
import pickle
import time

import pytest

from repro import checkpoint as checkpoint_module
from repro.checkpoint import (
    MAGIC,
    CheckpointError,
    CheckpointWriter,
    SimulationStalled,
    StallWatchdog,
    checkpoint_name,
    latest_checkpoint,
    list_checkpoints,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.schemes import Scheme
from repro.experiments.store import strip_host_fields
from repro.sim.config import small_config
from repro.sim.engine import derive_stream_seed, run_simulation
from repro.sim.scheduler import Context
from repro.sim.system import System
from repro.workloads.base import Workload
from repro.workloads.mixes import make_mix
from tests.test_state_roundtrip import drive, exercised_system

TOTAL = 4_000


def tiny_config(**overrides):
    defaults = dict(
        scheme=Scheme.CSALT_CD, cores=2, contexts_per_core=2
    )
    defaults.update(overrides)
    return small_config(**defaults)


def tiny_mix(config):
    return make_mix("gups", config.num_vms, scale=0.25)


# ----------------------------------------------------------------------
# Envelope
# ----------------------------------------------------------------------
class TestEnvelope:
    def test_roundtrip(self, tmp_path):
        document = {"a": [1, 2, 3], "nested": {"x": (4, 5)}}
        path = write_checkpoint(
            tmp_path / "snap.ckpt", document, meta={"executed": 42}
        )
        loaded, header = read_checkpoint(path)
        assert loaded == document
        assert header["executed"] == 42
        assert header["format"] == 1

    def test_corrupted_payload_rejected(self, tmp_path):
        path = write_checkpoint(tmp_path / "snap.ckpt", {"k": "v"})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = write_checkpoint(tmp_path / "snap.ckpt", list(range(100)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not.ckpt"
        path.write_bytes(b"something else entirely\n{}\n")
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)

    def test_future_format_version_rejected(self, tmp_path):
        path = tmp_path / "future.ckpt"
        header = json.dumps({"format": 99, "payload_bytes": 0, "sha256": ""})
        path.write_bytes(MAGIC + b"\n" + header.encode() + b"\n")
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)

    def test_unserializable_document_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="serialize"):
            write_checkpoint(tmp_path / "bad.ckpt", lambda: None)
        assert list(tmp_path.iterdir()) == []

    def test_streamed_payload_equals_dumps(self, tmp_path):
        # Many 64 KB frames, a shared object, and a bytes and a str large
        # enough for the pickler to write them outside its frames.
        shared = ("shared", 7)
        document = {
            "rows": [[index, shared, float(index)] for index in range(40_000)],
            "blob": bytes(range(256)) * 1_024,
            "text": "x" * 200_000,
        }
        path = write_checkpoint(tmp_path / "snap.ckpt", document)
        raw = path.read_bytes()
        payload = raw.split(b"\n", 2)[2]
        assert payload == pickle.dumps(document, protocol=4)
        _, header = read_checkpoint(path)
        assert header["payload_bytes"] == len(payload)


class TestWriterAndListing:
    def test_names_sort_chronologically(self):
        names = [checkpoint_name(n) for n in (5, 40, 3_000, 120_000)]
        assert names == sorted(names)

    def test_writer_prunes_to_keep(self, tmp_path):
        writer = CheckpointWriter(tmp_path, keep=2)
        for executed in (100, 200, 300, 400):
            writer.write(executed, lambda: {"executed": executed})
        remaining = list_checkpoints(tmp_path)
        assert [p.name for p in remaining] == [
            checkpoint_name(300), checkpoint_name(400)
        ]
        assert writer.written == 4
        assert writer.last_write_seconds > 0

    def test_stall_snapshots_excluded_and_never_pruned(self, tmp_path):
        writer = CheckpointWriter(tmp_path, keep=1)
        stall = writer.write_stall(150, lambda: {"wedged": True})
        for executed in (100, 200):
            writer.write(executed, lambda: {})
        assert stall.exists()
        assert latest_checkpoint(tmp_path).name == checkpoint_name(200)
        _, header = read_checkpoint(stall)
        assert header["stalled"] is True
        assert header["consistent"] is False

    def test_latest_of_empty_dir_is_none(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        assert latest_checkpoint(tmp_path / "missing") is None


# ----------------------------------------------------------------------
# Snapshots are views of live state
# ----------------------------------------------------------------------
#: Configurations whose snapshots hold every kind of component state:
#: partition controllers, TSBs, the POM-TLB and its predictor, the TLB
#: prefetcher, DIP duelers, all four policies' recency state, and a
#: native machine's aliased allocator.
SNAPSHOT_CONFIGS = {
    "csalt-cd-plru": dict(replacement="plru"),
    "tsb": dict(scheme=Scheme.TSB),
    "pom-tlb-nru-prefetch": dict(
        scheme=Scheme.POM_TLB, replacement="nru", tlb_prefetch=True
    ),
    "dip-rrip": dict(scheme=Scheme.DIP, replacement="rrip"),
    "native-conventional": dict(
        scheme=Scheme.CONVENTIONAL, virtualized=False
    ),
}


def fresh_containers(value):
    """``value`` with every dict and list rebuilt once per reference
    (order kept) and every set copied with ``set(s)``; everything else
    is shared.

    Pickle memoizes by identity, so a document pickles to the bytes of
    this copy only if no container appears in it twice and each of its
    sets iterates as its copy does: exactly what a snapshot built from
    live containers needs to pickle as one built from copies.
    """
    kind = type(value)
    if kind is dict:
        return {key: fresh_containers(item) for key, item in value.items()}
    if kind is list:
        return [fresh_containers(item) for item in value]
    if kind is set:
        return set(value)
    return value


def empty_containers(value) -> None:
    """Empty every dict, list and set reachable through dicts and lists."""
    kind = type(value)
    if kind is dict:
        for item in value.values():
            empty_containers(item)
    elif kind is list:
        for item in value:
            empty_containers(item)
    if kind in (dict, list, set):
        value.clear()


def pickles_as_fresh_copy(document) -> bool:
    return pickle.dumps(document, protocol=4) == pickle.dumps(
        fresh_containers(document), protocol=4
    )


def engine_documents_pickle_as_fresh_copies(tmp_path, monkeypatch):
    """One verdict of :func:`pickles_as_fresh_copy` per document the
    engine hands its checkpoint writer."""
    verdicts = []
    write = checkpoint_module.write_checkpoint

    def judge_then_write(path, document, **kwargs):
        verdicts.append(pickles_as_fresh_copy(document))
        return write(path, document, **kwargs)

    monkeypatch.setattr(checkpoint_module, "write_checkpoint", judge_then_write)
    config = tiny_config()
    run_simulation(
        config, tiny_mix(config), total_accesses=TOTAL, seed=3,
        checkpoint_every=1_000, checkpoint_dir=tmp_path,
    )
    return verdicts


class TestSnapshotViews:
    @pytest.mark.parametrize("name", sorted(SNAPSHOT_CONFIGS))
    def test_system_snapshot_pickles_as_fresh_copy(self, name):
        _, system, _ = exercised_system(**SNAPSHOT_CONFIGS[name])
        assert pickles_as_fresh_copy(system.state_dict())

    def test_engine_document_pickles_as_fresh_copy(
        self, tmp_path, monkeypatch
    ):
        verdicts = engine_documents_pickle_as_fresh_copies(
            tmp_path, monkeypatch
        )
        assert verdicts == [True] * 4

    def test_aliased_live_list_is_caught(self):
        _, system, _ = exercised_system()
        document = system.state_dict()
        recency = document["cores"][0]["l2"]["recency"]
        assert recency is system.cores[0].l2._recency
        document["again"] = recency
        assert not pickles_as_fresh_copy(document)

    def test_handed_out_live_set_is_caught(self, tmp_path, monkeypatch):
        # A live set can iterate in another order than its copy (here
        # some contexts' page sets do at the second snapshot), which is
        # why contexts snapshot a copy.
        monkeypatch.setattr(
            Context, "state_dict",
            lambda self: {"consumed": self.consumed, "mapped": self._mapped},
        )
        verdicts = engine_documents_pickle_as_fresh_copies(
            tmp_path, monkeypatch
        )
        assert False in verdicts

    @pytest.mark.parametrize("name", sorted(SNAPSHOT_CONFIGS))
    def test_load_state_never_adopts(self, name):
        config, source, scheduler = exercised_system(**SNAPSHOT_CONFIGS[name])
        state = source.state_dict()
        clone = System(config)
        clone.load_state(state)
        loaded = pickle.dumps(clone.state_dict(), protocol=4)
        drive(source, scheduler, 1_200)
        assert pickle.dumps(source.state_dict(), protocol=4) != loaded
        assert pickle.dumps(clone.state_dict(), protocol=4) == loaded
        # Driving leaves some containers as they were (a saturated
        # page-size predictor, say); emptying them must not reach the
        # clone either.
        empty_containers(state)
        assert pickle.dumps(clone.state_dict(), protocol=4) == loaded


# ----------------------------------------------------------------------
# Watchdog
# ----------------------------------------------------------------------
class TestStallWatchdog:
    def test_trips_when_heartbeat_stops(self):
        watchdog = StallWatchdog(0.15)
        watchdog.beat(0)
        deadline = time.monotonic() + 5.0
        interrupted = False
        with watchdog:
            try:
                while time.monotonic() < deadline:
                    time.sleep(0.01)  # heartbeat never advances
            except KeyboardInterrupt:
                interrupted = True
        assert interrupted
        assert watchdog.tripped

    def test_does_not_trip_while_advancing(self):
        watchdog = StallWatchdog(0.3)
        with watchdog:
            for tick in range(10):
                watchdog.beat(tick)
                time.sleep(0.02)
        assert not watchdog.tripped

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            StallWatchdog(0.0)


# ----------------------------------------------------------------------
# Engine integration: determinism oracle
# ----------------------------------------------------------------------
class TestDeterminismOracle:
    @pytest.mark.parametrize("replacement", ["lru", "nru"])
    def test_restore_midpoint_matches_uninterrupted(
        self, tmp_path, replacement
    ):
        config = tiny_config(replacement=replacement)
        uninterrupted = run_simulation(
            config, tiny_mix(config), total_accesses=TOTAL, seed=3
        )
        checkpointed = run_simulation(
            config, tiny_mix(config), total_accesses=TOTAL, seed=3,
            checkpoint_every=1_000, checkpoint_dir=tmp_path,
        )
        midpoint = list_checkpoints(tmp_path)[0]
        resumed = run_simulation(
            config, tiny_mix(config), total_accesses=TOTAL, seed=3,
            checkpoint_dir=tmp_path, restore=midpoint,
            check_invariants=1_000,
        )
        expected = strip_host_fields(uninterrupted.to_dict())
        assert strip_host_fields(checkpointed.to_dict()) == expected
        assert strip_host_fields(resumed.to_dict()) == expected
        assert resumed.extra["host_restored_from"] == str(midpoint)

    def test_restore_mid_warmup_matches(self, tmp_path):
        # A snapshot taken before the stats reset must restore the
        # warmup bookkeeping too, not just the structures.
        config = tiny_config()
        uninterrupted = run_simulation(
            config, tiny_mix(config), total_accesses=TOTAL, seed=7
        )
        run_simulation(
            config, tiny_mix(config), total_accesses=TOTAL, seed=7,
            checkpoint_every=500, checkpoint_dir=tmp_path,
            checkpoint_keep=20,
        )
        warmup_snap = list_checkpoints(tmp_path)[0]
        _, header = read_checkpoint(warmup_snap)
        assert header["executed"] < int(TOTAL * 0.25)
        resumed = run_simulation(
            config, tiny_mix(config), total_accesses=TOTAL, seed=7,
            checkpoint_dir=tmp_path, restore=warmup_snap,
        )
        assert strip_host_fields(resumed.to_dict()) == strip_host_fields(
            uninterrupted.to_dict()
        )

    def test_restore_auto_with_empty_dir_runs_fresh(self, tmp_path):
        config = tiny_config()
        result = run_simulation(
            config, tiny_mix(config), total_accesses=2_000, seed=1,
            checkpoint_dir=tmp_path, restore="auto",
        )
        assert "host_restored_from" not in result.extra

    def test_restore_rejects_different_run(self, tmp_path):
        config = tiny_config()
        run_simulation(
            config, tiny_mix(config), total_accesses=2_000, seed=1,
            checkpoint_every=1_000, checkpoint_dir=tmp_path,
        )
        with pytest.raises(CheckpointError, match="seed"):
            run_simulation(
                config, tiny_mix(config), total_accesses=2_000, seed=2,
                checkpoint_dir=tmp_path, restore="auto",
            )

    def test_checkpoint_every_requires_dir(self):
        config = tiny_config()
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_simulation(
                config, tiny_mix(config), total_accesses=1_000,
                checkpoint_every=500,
            )


# ----------------------------------------------------------------------
# Engine integration: stalls
# ----------------------------------------------------------------------
class _WedgingWorkload(Workload):
    """Yields normally for a while, then stops making progress."""

    name = "wedge"
    huge_va_limit = 0

    def __init__(self, wedge_after: int = 200):
        self.wedge_after = wedge_after

    def thread_stream(self, thread_id, num_threads=8, seed=0):
        emitted = 0
        while True:
            if emitted >= self.wedge_after:
                time.sleep(0.05)  # simulate a hang, interruptibly
                continue
            emitted += 1
            yield ((emitted * 64) % (1 << 20), False)


class TestEngineStall:
    def test_stall_raises_and_snapshots(self, tmp_path):
        config = tiny_config(cores=1, contexts_per_core=1)
        with pytest.raises(SimulationStalled) as info:
            run_simulation(
                config, [_WedgingWorkload()], total_accesses=100_000,
                watchdog_timeout=0.3, checkpoint_dir=tmp_path,
            )
        stall = info.value
        assert stall.executed < 100_000
        assert stall.snapshot_path is not None
        _, header = read_checkpoint(stall.snapshot_path)
        assert header["stalled"] is True

    def test_stall_without_checkpoint_dir(self):
        config = tiny_config(cores=1, contexts_per_core=1)
        with pytest.raises(SimulationStalled) as info:
            run_simulation(
                config, [_WedgingWorkload()], total_accesses=100_000,
                watchdog_timeout=0.3,
            )
        assert info.value.snapshot_path is None


# ----------------------------------------------------------------------
# Seed derivation (satellite)
# ----------------------------------------------------------------------
class TestSeedDerivation:
    def test_no_linear_collisions(self):
        # The old seed + 97 * vm_id scheme collided exactly here.
        assert derive_stream_seed(97, 0) != derive_stream_seed(0, 1)
        assert derive_stream_seed(194, 0) != derive_stream_seed(97, 1)

    def test_distinct_across_vms_and_seeds(self):
        seen = {
            derive_stream_seed(seed, vm_id)
            for seed in range(20) for vm_id in range(4)
        }
        assert len(seen) == 80

    def test_derivation_recorded_in_result(self):
        config = tiny_config()
        result = run_simulation(
            config, tiny_mix(config), total_accesses=2_000, seed=5
        )
        derivation = result.extra["seed_derivation"]
        assert derivation["scheme"] == "blake2b8(repro.stream:{seed}:{vm_id})"
        assert set(derivation["stream_seeds"]) == {"0", "1"}
        assert derivation["stream_seeds"]["0"] == derive_stream_seed(5, 0)

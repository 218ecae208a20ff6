"""Checkpoint/restore of in-flight simulations, plus the stall watchdog.

A long CSALT run that dies at 95% should not restart from access 0.
This module gives the engine (see :func:`repro.sim.engine.run_simulation`)
three cooperating pieces:

* a **snapshot envelope** — :func:`write_checkpoint` /
  :func:`read_checkpoint` store an arbitrary plain-data document as
  ``magic line + JSON header + pickled payload``.  The header carries a
  format version, the payload length and its SHA-256, so a torn or
  bit-rotted file is rejected loudly (:class:`CheckpointError`) instead
  of resuming a half-written state.  The payload is pickled straight
  into an unnamed spool file beside the target, hashed and counted on
  the way, so no copy of it is held in memory.  Writes are atomic: a
  temp file in the target directory is fsynced and ``os.replace``d into
  place, so a crash mid-write leaves the previous checkpoint intact;
* a :class:`CheckpointWriter` — names snapshots by their access count
  (``ckpt-000000120000.ckpt``), prunes old ones, and times each write
  for telemetry.  It takes the document as a zero-argument callable and
  builds it inside the write, so the build counts as checkpoint time,
  and the document, a view of live containers that components'
  ``state_dict()`` hand out, is pickled before the next access;
* a :class:`StallWatchdog` — a daemon thread fed a heartbeat
  (the engine's access counter) that trips when the counter stops
  advancing for ``timeout_seconds`` of wall-clock time.  It is the one
  side thread in the package: a wedged loop cannot sample itself, so
  only a second thread can interrupt it (the resource budgets of
  :mod:`repro.budget` are sampled by the loops that enforce them).  The
  watchdog never touches simulator state itself; it interrupts the main
  thread, which then snapshots the stalled state single-threadedly and
  raises :class:`SimulationStalled`.

The checkpoint *document* layout is owned by the engine; components
contribute via their ``state_dict()``/``load_state()`` methods (see
``docs/robustness.md`` for the catalogue and versioning rules).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import tempfile
import threading
import time
import _thread
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError

#: First line of every checkpoint file.
MAGIC = b"repro-checkpoint"

#: Bump whenever the envelope or the snapshot document layout changes
#: incompatibly.  Readers reject other versions instead of guessing.
FORMAT_VERSION = 1

#: Pinned pickle protocol: stable across the CPython versions CI runs,
#: so a checkpoint written under 3.12 restores under 3.10.
_PICKLE_PROTOCOL = 4

_CHECKPOINT_SUFFIX = ".ckpt"
_CHECKPOINT_PREFIX = "ckpt-"
_STALL_PREFIX = "stall-"


class CheckpointError(SimulationError, RuntimeError):
    """A checkpoint could not be written, read, or trusted.

    Part of the :mod:`repro.errors` taxonomy (exit code 3); still a
    ``RuntimeError`` for pre-taxonomy callers.
    """


class SimulationStalled(SimulationError, RuntimeError):
    """The watchdog saw the access counter stop advancing.

    Carries enough context for the campaign pool and the CLI to report
    the stall precisely (and, when checkpointing was on, where the
    post-mortem snapshot landed).
    """

    def __init__(
        self,
        message: str,
        *,
        executed: int,
        timeout_seconds: float,
        snapshot_path: Optional[str] = None,
    ):
        super().__init__(message)
        self.executed = executed
        self.timeout_seconds = timeout_seconds
        self.snapshot_path = snapshot_path


# ----------------------------------------------------------------------
# Envelope
# ----------------------------------------------------------------------
class _Tap:
    """Write-through sink that hashes and counts the bytes it passes on."""

    def __init__(self, sink):
        self._sink = sink
        self.sha256 = hashlib.sha256()
        self.size = 0

    def write(self, data) -> int:
        self.sha256.update(data)
        self.size += len(data)
        return self._sink.write(data)


def write_checkpoint(
    path: os.PathLike,
    document: object,
    meta: Optional[Dict[str, object]] = None,
    enforce_quota: bool = True,
) -> Path:
    """Atomically write ``document`` as a versioned, checksummed snapshot.

    ``meta`` (JSON-able) is merged into the header — the engine records
    the executed-access count there so tools can rank checkpoints
    without unpickling the payload.

    The payload is pickled straight into an unnamed spool file in the
    target directory, through a tap that hashes and counts it: the
    header needs its length and SHA-256 before the payload, and spooling
    keeps the pickle's bytes out of memory.  The checkpoint file is then
    written as magic, header and the spooled payload, whose bytes are
    those ``pickle.dumps`` would return.

    Budget-aware: with a process-wide
    :class:`~repro.budget.BudgetMonitor` armed, the write is pre-checked
    against the disk quota (after spooling, with the known size, before
    the checkpoint file is created) and charged to the ledger;
    ``enforce_quota=False`` skips the precheck (the engine's *breach*
    snapshot — the one that makes a budget-killed run resumable — must
    never itself be refused by the budget that killed the run).  A real
    ``ENOSPC``/``EDQUOT`` surfaces as :class:`~repro.errors.DiskFullError`
    with a resume hint, not a raw ``OSError``.
    """
    from repro import budget as _budget

    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    try:
        with tempfile.TemporaryFile(dir=target.parent) as spool:
            tap = _Tap(spool)
            try:
                pickle.Pickler(tap, protocol=_PICKLE_PROTOCOL).dump(document)
            except OSError:
                raise  # the spool's write failed: handled below
            except Exception as exc:  # unpicklable state is a programming error
                raise CheckpointError(
                    f"cannot serialize checkpoint: {exc}"
                ) from exc
            header = {
                "format": FORMAT_VERSION,
                "payload_bytes": tap.size,
                "sha256": tap.sha256.hexdigest(),
            }
            if meta:
                header.update(meta)
            header_line = json.dumps(header, sort_keys=True).encode("utf-8")
            total_bytes = len(MAGIC) + 1 + len(header_line) + 1 + tap.size
            monitor = _budget.ACTIVE
            previous_size = 0
            if monitor is not None:
                try:
                    previous_size = target.stat().st_size
                except OSError:
                    previous_size = 0
                if enforce_quota:
                    monitor.check_disk(
                        total_bytes - previous_size, f"checkpoint {target.name}"
                    )
            fd, tmp_name = tempfile.mkstemp(
                prefix=target.name + ".", suffix=".tmp", dir=target.parent
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(MAGIC + b"\n")
                    handle.write(header_line + b"\n")
                    spool.seek(0)
                    shutil.copyfileobj(spool, handle)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_name, target)
            finally:
                # One cleanup for every exit path: after a successful
                # replace the temp name is gone and the unlink is a no-op;
                # on any failure, interrupts included, it sweeps the
                # orphan.  (A crash between mkstemp and here still strands
                # one; ``repro doctor`` sweeps those.)
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
    except OSError as exc:
        if _budget.is_disk_full_error(exc):
            raise _budget.translate_disk_error(
                exc, f"writing checkpoint {target.name}"
            ) from exc
        raise CheckpointError(f"cannot write checkpoint {target}: {exc}") from exc
    try:  # make the rename itself durable; best-effort on odd filesystems
        dir_fd = os.open(target.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass
    if monitor is not None:
        monitor.charge_disk(total_bytes - previous_size)
    return target


def read_checkpoint(path: os.PathLike) -> Tuple[object, Dict[str, object]]:
    """Read and verify a checkpoint; returns ``(document, header)``.

    Raises :class:`CheckpointError` on any mismatch — wrong magic,
    unknown format version, truncated payload, or checksum failure.
    """
    target = Path(path)
    try:
        with open(target, "rb") as handle:
            magic = handle.readline().rstrip(b"\n")
            if magic != MAGIC:
                raise CheckpointError(
                    f"{target} is not a repro checkpoint "
                    f"(bad magic {magic[:32]!r})"
                )
            try:
                header = json.loads(handle.readline().decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise CheckpointError(
                    f"{target} has a corrupt header: {exc}"
                ) from exc
            version = header.get("format")
            if version != FORMAT_VERSION:
                raise CheckpointError(
                    f"{target} has format version {version!r}; this build "
                    f"reads version {FORMAT_VERSION}"
                )
            payload = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {target}: {exc}") from exc
    expected_bytes = header.get("payload_bytes")
    if expected_bytes != len(payload):
        raise CheckpointError(
            f"{target} is truncated: header promises {expected_bytes} "
            f"payload bytes, file holds {len(payload)}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("sha256"):
        raise CheckpointError(
            f"{target} failed its checksum: payload sha256 {digest} != "
            f"header {header.get('sha256')}"
        )
    try:
        document = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(
            f"{target} passed its checksum but cannot be unpickled: {exc}"
        ) from exc
    return document, header


def checkpoint_name(executed: int) -> str:
    """Snapshot filename for an access count; sorts chronologically."""
    return f"{_CHECKPOINT_PREFIX}{executed:012d}{_CHECKPOINT_SUFFIX}"


def list_checkpoints(directory: os.PathLike) -> List[Path]:
    """Regular checkpoints in ``directory``, oldest first (stall snapshots
    are post-mortem artifacts and are deliberately excluded)."""
    root = Path(directory)
    if not root.is_dir():
        return []
    return sorted(
        entry for entry in root.iterdir()
        if entry.name.startswith(_CHECKPOINT_PREFIX)
        and entry.name.endswith(_CHECKPOINT_SUFFIX)
    )


def latest_checkpoint(directory: os.PathLike) -> Optional[Path]:
    """The newest resumable checkpoint in ``directory``, or ``None``."""
    found = list_checkpoints(directory)
    return found[-1] if found else None


class CheckpointWriter:
    """Writes access-count-named snapshots into a directory and prunes.

    ``keep`` bounds disk usage: after each write, only the newest
    ``keep`` regular checkpoints survive.  Stall snapshots (written by
    the engine's watchdog path) are never pruned — they are the evidence.
    """

    def __init__(self, directory: os.PathLike, keep: int = 3):
        if keep < 1:
            raise ValueError(f"keep must be positive, got {keep}")
        self.directory = Path(directory)
        self.keep = keep
        self.written = 0
        self.last_write_seconds = 0.0
        #: Set to ``False`` before an emergency (budget-breach) snapshot:
        #: the checkpoint that makes a budget-killed run resumable must
        #: not itself be refused by the exhausted disk quota.
        self.enforce_quota = True

    def write(
        self,
        executed: int,
        snapshot: Callable[[], object],
        meta: Optional[Dict] = None,
    ) -> Path:
        """Build the document with ``snapshot()`` and write it.

        The build runs inside the timing, so :attr:`last_write_seconds`
        is the whole cost of the checkpoint, and inside the write, so a
        document that is a view of live state is pickled before the
        caller can change it.
        """
        started = time.perf_counter()
        merged = {"executed": executed}
        if meta:
            merged.update(meta)
        path = write_checkpoint(
            self.directory / checkpoint_name(executed),
            snapshot(),
            meta=merged,
            enforce_quota=self.enforce_quota,
        )
        self.last_write_seconds = time.perf_counter() - started
        self.written += 1
        self._prune()
        return path

    def write_stall(
        self, executed: int, snapshot: Callable[[], object]
    ) -> Path:
        """Post-mortem snapshot of a stalled run (never pruned, may be
        mid-access and is marked as such in the header), built with
        ``snapshot()`` as in :meth:`write`.  Exempt from quota
        enforcement — the evidence must land."""
        name = f"{_STALL_PREFIX}{executed:012d}{_CHECKPOINT_SUFFIX}"
        return write_checkpoint(
            self.directory / name,
            snapshot(),
            meta={"executed": executed, "stalled": True, "consistent": False},
            enforce_quota=False,
        )

    def _prune(self) -> None:
        from repro import budget as _budget

        stale = list_checkpoints(self.directory)[:-self.keep]
        for path in stale:
            try:
                freed = path.stat().st_size
                path.unlink()
            except OSError:  # pruning is best-effort
                continue
            if _budget.ACTIVE is not None:
                _budget.ACTIVE.charge_disk(-freed)


# ----------------------------------------------------------------------
# Stall watchdog
# ----------------------------------------------------------------------
class StallWatchdog:
    """Flags a simulation whose heartbeat value stops advancing.

    The only side thread in the package.  The engine calls :meth:`beat`
    with its access counter every round (one attribute store,
    thread-safe under the GIL); the daemon thread polls every
    ``min(1.0, timeout_seconds / 4)`` seconds, and if the value has not
    changed for ``timeout_seconds`` it sets :attr:`tripped` and
    interrupts the main thread (a ``KeyboardInterrupt`` at the next
    bytecode boundary).  It never touches simulator state, so it cannot
    race it: the *engine* — on its own, now-consistent thread —
    distinguishes a watchdog trip from a user Ctrl-C via
    :attr:`tripped`, snapshots the state, and raises
    :class:`SimulationStalled`.
    """

    def __init__(self, timeout_seconds: float):
        if timeout_seconds <= 0:
            raise ValueError(
                f"watchdog timeout must be positive, got {timeout_seconds}"
            )
        self.timeout_seconds = timeout_seconds
        self.tripped = False
        self._value: object = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def beat(self, value: object) -> None:
        """Record progress (cheap: one attribute store; thread-safe)."""
        self._value = value

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("StallWatchdog already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-stall-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "StallWatchdog":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        last_value: object = None
        last_advance: Optional[float] = None
        while not self._stop.wait(min(1.0, self.timeout_seconds / 4)):
            value, now = self._value, time.monotonic()
            if last_advance is None or value != last_value:
                last_value, last_advance = value, now
            elif now - last_advance >= self.timeout_seconds:
                self.tripped = True
                _thread.interrupt_main()
                return

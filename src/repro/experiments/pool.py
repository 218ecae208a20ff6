"""Fault-isolated campaign execution: run evaluation points across workers.

A *campaign* is the pre-enumerated set of evaluation points a report (or
any grid sweep) needs.  :func:`run_campaign` drains that set with

* **deduplication** — exhibits share points (the whole reason the runner
  memoizes), so each unique signature runs once;
* **resume** — points already in memory or in the attached
  :class:`~repro.experiments.store.ResultStore` are skipped;
* **fault isolation** — with ``jobs > 1`` every point runs in its own
  worker process, so a crash or OOM kill takes down one point, not the
  campaign;
* **bounded retry with exponential backoff** — transient failures
  (worker killed, per-point timeout) are retried up to ``retries``
  times; a point that exhausts its retries is recorded as failed and
  poisoned in the runner, so its exhibit degrades to PARTIAL instead of
  silently re-simulating for hours;
* **graceful SIGINT** — the first Ctrl-C stops launching new points and
  lets in-flight workers finish and persist; a second Ctrl-C aborts
  immediately.  With write-through persistence this loses at most the
  points that were mid-simulation.

Worker processes attach their own store handle and persist their own
results, so completed work survives even if the parent dies before
collecting it.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.budget import BudgetMonitor
from repro.errors import (
    BudgetExceededError,
    DiskFullError,
    ReproError,
    SimulationError,
)
from repro.experiments import runner
from repro.experiments.store import ResultStore, signature_key
from repro.sim.stats import SimulationResult

Signature = Dict[str, object]
Progress = Callable[[str], None]

#: Default cap on transparent re-runs of a transiently failed point.
DEFAULT_RETRIES = 2

#: Base of the exponential backoff between retries (seconds).
DEFAULT_BACKOFF_SECONDS = 0.5


class CampaignInterrupted(KeyboardInterrupt):
    """Raised after a SIGINT once in-flight results have been persisted."""


@dataclass
class PointFailure:
    """One point that exhausted its retry budget (or failed permanently)."""

    signature: Signature
    error: str
    attempts: int

    def describe(self) -> str:
        return (
            f"{self.signature.get('mix_name')}/{self.signature.get('scheme')}"
            f" failed after {self.attempts} attempt(s): {self.error}"
        )


@dataclass
class CampaignSummary:
    """What a campaign did: per-source counts plus the failure list."""

    total: int = 0
    reused: int = 0       # already in the in-memory cache
    loaded: int = 0       # restored from the persistent store
    simulated: int = 0
    skipped: int = 0      # never launched: budget stop (resumable)
    failures: List[PointFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        parts = [
            f"{self.total} points",
            f"{self.simulated} simulated",
            f"{self.loaded} restored from store",
            f"{self.reused} cached",
        ]
        if self.skipped:
            parts.append(f"{self.skipped} skipped (budget)")
        if self.failures:
            parts.append(f"{len(self.failures)} FAILED")
        return ", ".join(parts)


@dataclass
class _Attempt:
    signature: Signature
    attempts: int = 0
    ready_at: float = 0.0  # monotonic time before which we must not launch


@dataclass
class _Running:
    attempt: _Attempt
    process: multiprocessing.Process
    conn: "multiprocessing.connection.Connection"
    started: float


def dedupe_signatures(signatures: Sequence[Signature]) -> List[Signature]:
    """Order-preserving dedup on the canonical signature digest."""
    seen = set()
    unique: List[Signature] = []
    for signature in signatures:
        digest = signature_key(signature)
        if digest not in seen:
            seen.add(digest)
            unique.append(signature)
    return unique


def _point_checkpoint_dir(store_root, signature: Signature) -> Path:
    """Where a point's in-flight snapshots live: keyed like the store."""
    return Path(store_root) / "checkpoints" / signature_key(signature)


def _worker_entry(
    signature: Signature, store_root, conn, checkpoint_every=None, attempt=1
) -> None:
    """Simulate one point in a child process and ship the result back."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main thread
        pass
    try:
        # Chaos hooks (no-ops unless a FaultPlan is armed — workers are
        # forked, so they inherit the parent's armed injector).  The
        # ``attempt`` context key lets a plan say "fail the first attempt
        # only" deterministically, without trigger counters that would
        # die with the crashing process.
        injector = faults.ACTIVE
        if injector is not None:
            context = dict(
                attempt=attempt,
                mix_name=signature.get("mix_name"),
                scheme=signature.get("scheme"),
            )
            if injector.fire("pool.worker.crash", **context):
                os._exit(17)
            if injector.fire("pool.worker.error", **context):
                # The class a real simulation failure raises, so the
                # pool's no-retry path is what the fault exercises.
                raise SimulationError(
                    f"injected deterministic failure in "
                    f"{signature.get('mix_name')}/{signature.get('scheme')}"
                )
        if store_root is not None:
            # Write-through only: the parent already established this
            # point is missing, so reading the store back is pointless.
            runner.set_store(ResultStore(store_root), consult=False)
        kwargs = runner.point_from_signature(signature)
        checkpoint_dir: Optional[Path] = None
        if checkpoint_every is not None and store_root is not None:
            # A killed/timed-out worker leaves its snapshots behind; the
            # retry restores the newest one (restore="auto" runs fresh
            # when there is none yet) instead of starting over.
            checkpoint_dir = _point_checkpoint_dir(store_root, signature)
            kwargs.update(
                checkpoint_every=checkpoint_every,
                checkpoint_dir=str(checkpoint_dir),
                restore="auto",
            )
        result = runner.run_point(**kwargs)
        if checkpoint_dir is not None:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        conn.send(("ok", result.to_dict()))
    except (KeyboardInterrupt, SystemExit):
        raise
    except BudgetExceededError as exc:
        # A disk-full/budget wall is campaign-level, not point-level —
        # every other worker would hit it too.  Ship it distinctly so
        # the parent stops the campaign resumably instead of recording
        # one identical failure per point.
        try:
            conn.send(("budget", {
                "type": type(exc).__name__,
                "message": str(exc),
                "dimension": exc.dimension,
            }))
        except (OSError, ValueError):  # pragma: no cover - parent gone
            pass
    except ReproError as exc:
        # An understood, deterministic failure: ship the classification.
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError):  # pragma: no cover - parent gone
            pass
    except Exception as exc:
        # Unexpected type: ship the full traceback instead of swallowing
        # it into a one-liner — the parent logs it verbatim.
        try:
            conn.send((
                "error",
                f"unexpected {type(exc).__name__}: {exc}\n"
                f"{traceback.format_exc()}",
            ))
        except (OSError, ValueError):  # pragma: no cover - parent gone
            pass
    finally:
        conn.close()


def _label(signature: Signature) -> str:
    return f"{signature.get('mix_name')}/{signature.get('scheme')}"


class _SigintLatch:
    """Counts SIGINTs; second one aborts immediately via KeyboardInterrupt."""

    def __init__(self) -> None:
        self.count = 0
        self._previous = None
        self._installed = False

    def __enter__(self) -> "_SigintLatch":
        if threading.current_thread() is threading.main_thread():
            self._previous = signal.signal(signal.SIGINT, self._handle)
            self._installed = True
        return self

    def __exit__(self, *exc_info) -> None:
        if self._installed:
            signal.signal(signal.SIGINT, self._previous)

    def _handle(self, signum, frame) -> None:
        self.count += 1
        if self.count >= 2:
            raise KeyboardInterrupt

    @property
    def interrupted(self) -> bool:
        return self.count > 0


def run_campaign(
    signatures: Sequence[Signature],
    *,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    resume: bool = True,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff: float = DEFAULT_BACKOFF_SECONDS,
    progress: Optional[Progress] = None,
    checkpoint_every: Optional[int] = None,
    monitor: Optional[BudgetMonitor] = None,
) -> CampaignSummary:
    """Drain ``signatures`` and return what happened to each unique point.

    With ``jobs <= 1`` points run in-process (an exception in one point
    is recorded as its failure; the rest of the campaign continues).
    With ``jobs > 1`` each point runs in its own worker process with an
    optional per-point ``timeout``; killed or timed-out workers are
    retried with exponential backoff (at most ``retries`` times,
    :data:`DEFAULT_RETRIES` when unset), exceptions raised *inside* the
    simulation are deterministic and fail the point immediately.

    ``checkpoint_every`` (needs ``store``, effective with ``jobs > 1``)
    makes workers snapshot in-flight points every N accesses under
    ``<store>/checkpoints/<signature-key>``; the retry of a killed or
    timed-out worker resumes from the newest snapshot instead of
    restarting, and a completed point's snapshots are deleted.

    ``monitor`` (a :class:`~repro.budget.BudgetMonitor`, sampled before
    each inline point and on every parallel-loop iteration) puts the
    campaign under resource budgets: a breach stops launching, drains
    in-flight points exactly like a SIGINT, poisons the never-launched
    points (so exhibits render PARTIAL instead of silently
    re-simulating) and raises :class:`~repro.errors.BudgetExceededError`
    — the store stays resumable, and re-running without budgets
    converges byte-identically to a never-budgeted campaign.  A breach
    that leaves no point unrun is not a stop: the campaign returns
    normally.

    Raises :class:`CampaignInterrupted` after SIGINT, once everything
    already simulated has been persisted.
    """
    note = progress or (lambda message: None)
    unique = dedupe_signatures(signatures)
    summary = CampaignSummary(total=len(unique))
    if store is not None:
        runner.set_store(store, consult=resume)
    todo: List[_Attempt] = []
    for signature in unique:
        if runner.is_cached(signature):
            summary.reused += 1
            continue
        if resume and store is not None:
            stored = store.load(signature)
            if stored is not None:
                runner.seed_cache(signature, stored)
                summary.loaded += 1
                continue
        todo.append(_Attempt(signature))
    if summary.loaded:
        note(f"restored {summary.loaded} persisted point(s) from the store")
    if not todo:
        return summary

    with _SigintLatch() as latch:
        try:
            if jobs <= 1:
                _run_inline(todo, summary, latch, note, monitor=monitor)
            else:
                _run_parallel(
                    todo, summary, latch, note,
                    jobs=jobs, store=store, timeout=timeout,
                    retries=DEFAULT_RETRIES if retries is None else retries,
                    backoff=backoff,
                    checkpoint_every=checkpoint_every, monitor=monitor,
                )
        except BudgetExceededError as exc:
            # The store/checkpoint layer stopped the campaign directly
            # (a real ENOSPC, or a quota precheck outside the monitor's
            # own sampling): same resumable-stop semantics as a
            # monitored hard breach.
            _skip_unfinished(
                todo, summary, getattr(exc, "dimension", "budget"), note
            )
            exc.summary = summary
            raise
        if latch.interrupted:
            raise CampaignInterrupted(
                f"campaign interrupted; {summary.simulated} completed "
                "point(s) were persisted"
            )
        if monitor is not None and monitor.hard_breach is not None:
            breach = monitor.hard_breach
            _skip_unfinished(todo, summary, breach.describe(), note)
            if summary.skipped:
                error = monitor.build_error(
                    f"campaign stopped after {summary.simulated} simulated "
                    f"point(s); {summary.skipped} not run"
                )
                error.summary = summary  # callers render the partial campaign
                raise error
    return summary


def _skip_unfinished(
    todo: List[_Attempt],
    summary: CampaignSummary,
    reason: str,
    note: Progress,
) -> None:
    """Poison every point the budget stop kept from running.

    ``runner.mark_failed`` is in-memory only: this run's exhibits render
    PARTIAL instead of quietly re-simulating for hours, while a *new*
    process resuming against the same store simply runs the points.
    """
    failed = {
        signature_key(failure.signature) for failure in summary.failures
    }
    for attempt in todo:
        if signature_key(attempt.signature) in failed:
            continue
        if runner.is_cached(attempt.signature):
            continue
        summary.skipped += 1
        runner.mark_failed(
            attempt.signature,
            f"not run: campaign budget exceeded ({reason}); "
            "resume without (or with a larger) budget to finish",
        )
    if summary.skipped:
        note(
            f"budget exceeded ({reason}): {summary.skipped} point(s) "
            "not run; completed points are persisted and resumable"
        )


# ----------------------------------------------------------------------
def _record_failure(
    summary: CampaignSummary, attempt: _Attempt, error: str, note: Progress
) -> None:
    failure = PointFailure(attempt.signature, error, attempt.attempts)
    summary.failures.append(failure)
    runner.mark_failed(attempt.signature, error)
    note(f"FAILED {failure.describe()}")


def _run_inline(
    todo: List[_Attempt],
    summary: CampaignSummary,
    latch: _SigintLatch,
    note: Progress,
    monitor: Optional[BudgetMonitor] = None,
) -> None:
    """Single-process execution: per-point exception isolation only.

    Budget admission control is between points: each point is one
    indivisible launch, so a breach stops *before* the next launch.
    """
    done = summary.reused + summary.loaded
    for attempt in todo:
        if latch.interrupted:
            break
        if monitor is not None and monitor.sample(done) is not None:
            break
        attempt.attempts += 1
        try:
            runner.run_point(**runner.point_from_signature(attempt.signature))
        except KeyboardInterrupt:
            latch.count = max(latch.count, 1)
            break
        except BudgetExceededError:
            # Not a per-point fault: a disk-full (or any budget) stop
            # would hit every later point too.  Stop the campaign
            # resumably; run_campaign attaches the partial summary.
            raise
        except ReproError as exc:
            # A classified failure from the taxonomy: record and move on.
            _record_failure(
                summary, attempt, f"{type(exc).__name__}: {exc}", note
            )
            done += 1
            continue
        except Exception as exc:
            # Unexpected type: still isolate it to this point, but keep
            # the full traceback in the progress log for diagnosis.
            note(traceback.format_exc())
            _record_failure(
                summary, attempt,
                f"unexpected {type(exc).__name__}: {exc}", note,
            )
            done += 1
            continue
        summary.simulated += 1
        done += 1
        note(f"[{done}/{summary.total}] {_label(attempt.signature)} simulated")


def _run_parallel(
    todo: List[_Attempt],
    summary: CampaignSummary,
    latch: _SigintLatch,
    note: Progress,
    *,
    jobs: int,
    store: Optional[ResultStore],
    timeout: Optional[float],
    retries: int,
    backoff: float,
    checkpoint_every: Optional[int] = None,
    monitor: Optional[BudgetMonitor] = None,
) -> None:
    """Process-per-point execution with timeout, retry and SIGINT drain."""
    # Prefer fork: cheap starts, and the child sees the parent's runtime
    # state (monkeypatches included, which the fault-injection tests use).
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - e.g. Windows
        context = multiprocessing.get_context()
    store_root = str(store.root) if store is not None else None
    queue: List[_Attempt] = list(todo)
    running: List[_Running] = []
    drained_note = False

    def launch(attempt: _Attempt) -> None:
        parent_conn, child_conn = context.Pipe(duplex=False)
        attempt.attempts += 1
        process = context.Process(
            target=_worker_entry,
            args=(
                attempt.signature, store_root, child_conn, checkpoint_every,
                attempt.attempts,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        running.append(
            _Running(attempt, process, parent_conn, time.monotonic())
        )

    def requeue_transient(attempt: _Attempt, error: str) -> None:
        if attempt.attempts > retries:
            _record_failure(summary, attempt, error, note)
            return
        delay = backoff * (2 ** (attempt.attempts - 1))
        if monitor is not None:
            # Never schedule a retry past the hard deadline: the backoff
            # shrinks to whatever budget is actually left.
            remaining = monitor.deadline_remaining()
            if remaining is not None:
                delay = max(0.0, min(delay, remaining))
        attempt.ready_at = time.monotonic() + delay
        note(
            f"retrying {_label(attempt.signature)} in {delay:.1f}s "
            f"(attempt {attempt.attempts + 1}/{retries + 1}): {error}"
        )
        queue.append(attempt)

    def collect(task: _Running) -> None:
        running.remove(task)
        message: Optional[Tuple[str, object]] = None
        try:
            if task.conn.poll():
                message = task.conn.recv()
        except (EOFError, OSError):
            message = None
        finally:
            task.conn.close()
        task.process.join()
        if message is None:
            requeue_transient(
                task.attempt,
                f"worker died (exit code {task.process.exitcode})",
            )
            return
        status, payload = message
        if status == "ok":
            result = SimulationResult.from_dict(payload)
            runner.seed_cache(task.attempt.signature, result)
            if store is not None and not store.contains(task.attempt.signature):
                store.save(task.attempt.signature, result)
            summary.simulated += 1
            done = summary.reused + summary.loaded + summary.simulated
            note(
                f"[{done}/{summary.total}] {_label(task.attempt.signature)} "
                "simulated"
            )
        elif status == "budget":
            # Reconstruct the worker's budget stop in the parent; it
            # propagates out of the drain loop (the finally terminates
            # the other workers) up to run_campaign's resumable-stop
            # handling.
            if payload.get("type") == "DiskFullError":
                raise DiskFullError(payload["message"])
            raise BudgetExceededError(
                payload["message"],
                dimension=payload.get("dimension", "unknown"),
            )
        else:
            # An exception inside the simulation is deterministic —
            # retrying cannot help, fail the point immediately.
            _record_failure(summary, task.attempt, str(payload), note)

    try:
        while queue or running:
            hard = monitor is not None and monitor.sample(
                summary.reused + summary.loaded + summary.simulated
            ) is not None
            draining = latch.interrupted or hard
            if hard and not drained_note and running:
                note(
                    f"budget exceeded: waiting for {len(running)} in-flight "
                    "point(s) to finish and persist before stopping"
                )
                drained_note = True
            if latch.interrupted and not drained_note and running:
                note(
                    f"interrupt: waiting for {len(running)} in-flight "
                    "point(s) to finish and persist (Ctrl-C again to abort)"
                )
                drained_note = True
            if draining and not running:
                break
            now = time.monotonic()
            if not draining:
                launchable = [
                    attempt for attempt in queue if attempt.ready_at <= now
                ]
                while launchable and len(running) < jobs:
                    attempt = launchable.pop(0)
                    queue.remove(attempt)
                    launch(attempt)
            finished = [
                task for task in running
                if task.conn.poll() or not task.process.is_alive()
            ]
            for task in finished:
                collect(task)
            if timeout is not None:
                for task in list(running):
                    if time.monotonic() - task.started > timeout:
                        task.process.terminate()
                        task.process.join()
                        running.remove(task)
                        task.conn.close()
                        requeue_transient(
                            task.attempt, f"timed out after {timeout:.1f}s"
                        )
            if not finished:
                time.sleep(0.02)
    finally:
        for task in running:  # second Ctrl-C / unexpected error: hard stop
            task.process.terminate()
            task.process.join()
            task.conn.close()

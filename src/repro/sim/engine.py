"""Simulation driver: wires workloads to a System and runs the clock.

``run_simulation`` is the main entry point of the library: it builds the
machine for a :class:`~repro.sim.config.SystemConfig`, instantiates one
context per (core, VM) from the given workloads, and interleaves the
cores round-robin (a few accesses per core per turn) so that sharing in
the L3, POM-TLB and DRAM is modeled realistically.  Per-core context
switches happen on the configured cycle quantum.

The driver is also where the robustness machinery plugs in:

* ``checkpoint_every``/``checkpoint_dir`` periodically snapshot the whole
  machine (see :mod:`repro.checkpoint`); ``restore`` resumes from a
  snapshot — a restored-and-continued run is bit-identical to an
  uninterrupted one (the determinism oracle CI enforces);
* ``check_invariants`` audits every structure each M accesses (and always
  right after a restore) via :mod:`repro.validate`;
* ``watchdog_timeout`` arms a wall-clock stall detector that snapshots
  the wedged state and raises
  :class:`~repro.checkpoint.SimulationStalled`; it is the one knob that
  starts a thread;
* ``budget`` is sampled by the loop itself every 1,024 accesses, and a
  breach checkpoints the run and stops it resumably.
"""

from __future__ import annotations

import gc
import hashlib
import time
from collections import deque
from itertools import islice
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro import budget as budget_mod
from repro.errors import ConfigError
from repro.checkpoint import (
    CheckpointError,
    CheckpointWriter,
    SimulationStalled,
    StallWatchdog,
    latest_checkpoint,
    read_checkpoint,
)
from repro.mem.address import Asid, PAGE_4K_BITS
from repro.sim.config import SystemConfig
from repro.sim.scheduler import Context, ContextScheduler
from repro.sim.stats import SimulationResult
from repro.sim.system import System
from repro.telemetry import Telemetry
from repro.telemetry.events import (
    EVENT_CHECKPOINT,
    EVENT_INVARIANT_CHECK,
    EVENT_RESTORE,
    EVENT_WATCHDOG_TRIP,
)
from repro.telemetry.progress import ProgressUpdate
from repro.validate import InvariantChecker
from repro.workloads.base import Workload

#: Accesses each core executes before the round-robin moves on.
_CORE_BATCH = 4

#: Accesses between two budget samples.  The quarter-scale mixes run at
#: 40k-100k accesses per host second (CPython 3.11, 2-vCPU Xeon VM), so
#: that is one sample every 10-25 ms; a sample (a clock read and one
#: ``getrusage``) costs a few microseconds.
_BUDGET_SAMPLE_EVERY = 1_024

#: Seed-derivation scheme identifier, recorded in ``result.extra`` so a
#: rerun years later can verify it regenerated the same streams.
SEED_DERIVATION_SCHEME = "blake2b8(repro.stream:{seed}:{vm_id})"


def derive_stream_seed(seed: int, vm_id: int) -> int:
    """Collision-resistant per-VM stream seed.

    The old ``seed + 97 * vm_id`` folded distinct (seed, vm_id) pairs
    onto the same stream — e.g. (97, 0) and (0, 1) — so two nominally
    independent experiment points could share identical access patterns.
    Hashing the pair keeps every stream distinct and stable across runs.
    Derivation is per-(seed, VM) only: threads of one VM deliberately
    share the seed, so they sample one shared hot set (``thread_stream``
    differentiates them by core id).
    """
    tag = f"repro.stream:{seed}:{vm_id}".encode("utf-8")
    return int.from_bytes(
        hashlib.blake2b(tag, digest_size=8).digest(), "big"
    )


def build_contexts(
    system: System, workloads: List[Workload], seed: int = 0
) -> List[List[Context]]:
    """One context per (core, VM): thread ``core`` of each VM's program."""
    config = system.config
    per_core: List[List[Context]] = []
    for core_id in range(config.cores):
        contexts = []
        for vm_id, workload in enumerate(workloads):
            contexts.append(
                Context(
                    asid=Asid(vm_id=vm_id, process_id=0),
                    vm=system.vms[vm_id],
                    stream=workload.thread_stream(
                        core_id, config.cores, derive_stream_seed(seed, vm_id)
                    ),
                    huge_va_limit=workload.huge_va_limit,
                    native=not config.virtualized,
                    mlp=getattr(workload, "mlp", 4.0),
                )
            )
        per_core.append(contexts)
    return per_core


def _run_identity(
    config: SystemConfig,
    workloads: List[Workload],
    total_accesses: int,
    seed: int,
    warmup_fraction: float,
    occupancy_samples: int,
) -> dict:
    """Best-effort fingerprint of what a checkpoint belongs to.

    Restoring a snapshot into a differently-shaped run would not crash —
    it would *converge to wrong numbers* — so the engine refuses when
    any of these differ.
    """
    return {
        "config": repr(config),
        "workloads": [repr(workload) for workload in workloads],
        "total_accesses": total_accesses,
        "seed": seed,
        "warmup_fraction": warmup_fraction,
        "occupancy_samples": occupancy_samples,
    }


def run_simulation(
    config: SystemConfig,
    workloads: List[Workload],
    total_accesses: int = 160_000,
    seed: int = 0,
    occupancy_samples: int = 8,
    workload_name: Optional[str] = None,
    warmup_fraction: float = 0.25,
    system_setup: Optional[Callable[[System], None]] = None,
    telemetry: Optional[Telemetry] = None,
    progress: Optional[Callable[[ProgressUpdate], None]] = None,
    progress_every: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    restore: Optional[Union[str, Path]] = None,
    checkpoint_keep: int = 3,
    check_invariants: Optional[int] = None,
    watchdog_timeout: Optional[float] = None,
    budget: Optional[budget_mod.Budget] = None,
) -> SimulationResult:
    """Simulate ``total_accesses`` memory references across all cores.

    The first ``warmup_fraction`` of the accesses warms caches, TLBs and
    page tables; statistics are reset afterwards so results reflect steady
    state rather than compulsory misses (the paper amortizes these over
    10 B-instruction runs).

    ``system_setup`` is called on the freshly built :class:`System` before
    any access runs — the hook ablation studies use to disable or alter
    individual structures.

    ``telemetry`` wires a :class:`~repro.telemetry.Telemetry` sink bundle
    through the whole machine (event trace, cycle ledger); ``None`` (the
    default) leaves every hook a no-op.
    ``progress`` is invoked with a
    :class:`~repro.telemetry.ProgressUpdate` every ``progress_every``
    accesses (default: ~5% of the run) and once more at completion.

    Robustness knobs (all default off; fall back to the config's
    ``checkpoint_every``/``check_invariants`` fields when unset here):

    * ``checkpoint_every`` — snapshot the machine every N executed
      accesses into ``checkpoint_dir`` (required with it), keeping the
      newest ``checkpoint_keep``;
    * ``restore`` — path of a snapshot to resume from, or ``"auto"`` to
      pick the newest in ``checkpoint_dir`` (running fresh if there is
      none yet);
    * ``check_invariants`` — audit every structure each M accesses; a
      corrupted structure raises
      :class:`~repro.validate.InvariantViolation` instead of converging
      to wrong numbers.  The audit also always runs right after a
      restore;
    * ``watchdog_timeout`` — wall-clock seconds without forward progress
      before the run is declared stalled: state is snapshotted (into
      ``checkpoint_dir`` when given) and
      :class:`~repro.checkpoint.SimulationStalled` raised;
    * ``budget`` — a :class:`~repro.budget.Budget` of explicit resource
      limits (deadline, RSS ceiling, disk quota).  The loop samples a
      :class:`~repro.budget.BudgetMonitor` every 1,024 accesses; a limit
      reached before the last access snapshots the run (when
      checkpointing is configured) and raises
      :class:`~repro.errors.BudgetExceededError` — resumable exactly
      like an interrupt, and a resumed run converges to the same result
      bit-for-bit (see ``docs/budgets.md``).  A breach during the last
      batch does not stop the run: it has already finished.
    """
    if len(workloads) != config.num_vms:
        raise ConfigError(
            f"config expects {config.num_vms} VM workloads, got {len(workloads)}"
        )
    if total_accesses < 1:
        raise ConfigError("total_accesses must be positive")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigError("warmup_fraction must be in [0, 1)")
    if checkpoint_every is None:
        checkpoint_every = config.checkpoint_every
    if check_invariants is None:
        check_invariants = config.check_invariants
    if checkpoint_every is not None:
        if checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be positive")
        if checkpoint_dir is None:
            raise ConfigError("checkpoint_every requires checkpoint_dir")
    if check_invariants is not None and check_invariants < 1:
        raise ConfigError("check_invariants must be positive")
    if watchdog_timeout is not None and not watchdog_timeout > 0:
        raise ConfigError("watchdog_timeout must be positive")
    if restore == "auto" and checkpoint_dir is None:
        raise ConfigError('restore="auto" requires checkpoint_dir')

    system = System(config, telemetry=telemetry)
    if system_setup is not None:
        system_setup(system)
    per_core = build_contexts(system, workloads, seed)
    scheduler = ContextScheduler(
        per_core,
        config.switch_interval_cycles,
        telemetry=telemetry,
    )
    sample_every = max(_CORE_BATCH * config.cores, total_accesses // max(
        1, occupancy_samples
    ))
    executed = 0
    next_sample = sample_every
    warmup_end = int(total_accesses * warmup_fraction)
    warm = warmup_end > 0
    identity = _run_identity(
        config, workloads, total_accesses, seed, warmup_fraction,
        occupancy_samples,
    )

    writer: Optional[CheckpointWriter] = None
    if checkpoint_dir is not None:
        writer = CheckpointWriter(checkpoint_dir, keep=checkpoint_keep)

    def snapshot_document() -> dict:
        return {
            "identity": identity,
            "engine": {
                "executed": executed,
                "warm": warm,
                "next_sample": next_sample,
            },
            "scheduler": scheduler.state_dict(),
            "contexts": [
                [context.state_dict() for context in contexts]
                for contexts in per_core
            ],
            "system": system.state_dict(),
        }

    restored_from: Optional[Path] = None
    if restore is not None:
        restore_path: Optional[Path]
        if restore == "auto":
            restore_path = latest_checkpoint(checkpoint_dir)
        else:
            restore_path = Path(restore)
        if restore_path is not None:
            document, _header = read_checkpoint(restore_path)
            if document["identity"] != identity:
                mismatched = [
                    key for key in identity
                    if document["identity"].get(key) != identity[key]
                ]
                raise CheckpointError(
                    f"{restore_path} belongs to a different run "
                    f"(mismatched: {', '.join(mismatched)})"
                )
            system.load_state(document["system"])
            scheduler.load_state(document["scheduler"])
            for contexts, states in zip(per_core, document["contexts"]):
                for context, state in zip(contexts, states):
                    context.load_state(state)
                    # Streams are deterministic: fast-forwarding by the
                    # consumed count puts them exactly where they were.
                    # Batched streams skip whole blocks (O(consumed/BATCH)
                    # list hops); plain generator workloads (such as
                    # examples/custom_workload.py) fall back to
                    # item-at-a-time draining.
                    skip = getattr(context.stream, "skip", None)
                    if skip is not None:
                        skip(context.consumed)
                    else:
                        deque(islice(context.stream, context.consumed), maxlen=0)
            executed = document["engine"]["executed"]
            warm = document["engine"]["warm"]
            next_sample = document["engine"]["next_sample"]
            restored_from = restore_path
            if telemetry is not None:
                telemetry.emit(
                    EVENT_RESTORE,
                    float(executed),
                    path=str(restore_path),
                    executed=executed,
                )

    checker: Optional[InvariantChecker] = None
    if check_invariants is not None or restored_from is not None:
        checker = InvariantChecker(system, scheduler)
    if restored_from is not None and checker is not None:
        # A corrupt snapshot must fail loudly here, not as wrong numbers.
        checker.check(executed=executed)
    next_check = (
        None if check_invariants is None
        else check_invariants * (executed // check_invariants + 1)
    )
    next_checkpoint = (
        None if checkpoint_every is None
        else checkpoint_every * (executed // checkpoint_every + 1)
    )

    watchdog: Optional[StallWatchdog] = None
    if watchdog_timeout is not None:
        watchdog = StallWatchdog(watchdog_timeout)
        watchdog.beat(executed)
        watchdog.start()

    monitor: Optional[budget_mod.BudgetMonitor] = None
    monitor_armed_here = False
    next_budget_sample: Optional[int] = None
    if budget is not None and budget.enabled:
        monitor = budget_mod.BudgetMonitor(budget, telemetry=telemetry)
        if checkpoint_dir is not None:
            monitor.track_directory(checkpoint_dir)
        if budget_mod.ACTIVE is None:
            # Make this monitor the process-wide quota authority so the
            # store/checkpoint writers precheck and charge against it.
            budget_mod.arm(monitor)
            monitor_armed_here = True
        next_budget_sample = _BUDGET_SAMPLE_EVERY * (
            executed // _BUDGET_SAMPLE_EVERY + 1
        )

    run_started = time.perf_counter()
    if progress is not None and progress_every is None:
        progress_every = max(_CORE_BATCH * config.cores, total_accesses // 20)
    next_progress = progress_every if progress is not None else None
    # The hot loop allocates only refcount-collected objects (per-turn
    # slices, eviction records); pausing the cycle detector removes its
    # periodic sweeps from the per-access cost without changing results.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        while executed < total_accesses:
            for core_id in range(config.cores):
                context = scheduler.current(core_id)
                core = system.cores[core_id]
                core.mshr.workload_mlp = context.mlp
                stream = context.stream
                access = system.access
                ensure = context.ensure_mapped
                asid = context.asid
                take = getattr(stream, "take", None)
                if take is not None:
                    pairs = take(_CORE_BATCH)
                else:
                    pairs = [next(stream) for _ in range(_CORE_BATCH)]
                mapped = context._mapped
                huge_limit = context.huge_va_limit
                for virtual_address, is_write in pairs:
                    # Inlined ``Context.ensure_mapped`` fast path: the key
                    # math must match it exactly (page number << 1 | huge).
                    if virtual_address < huge_limit:
                        key = (virtual_address >> 21) << 1 | 1
                    else:
                        key = (virtual_address >> PAGE_4K_BITS) << 1
                    if key not in mapped:
                        ensure(virtual_address)
                    access(core_id, asid, virtual_address, is_write)
                context.consumed += _CORE_BATCH
                scheduler.maybe_switch(core_id, core.stats.cycles)
            executed += _CORE_BATCH * config.cores
            if watchdog is not None:
                watchdog.beat(executed)
            if warm and executed >= warmup_end:
                system.reset_stats()
                warm = False
                if checker is not None:
                    # Counters were legitimately zeroed; re-anchor the
                    # monotonicity baseline.
                    checker.reset_baseline()
            if next_check is not None and executed >= next_check:
                checker.check(executed=executed)
                if telemetry is not None and telemetry.tracer is not None:
                    telemetry.emit(
                        EVENT_INVARIANT_CHECK,
                        float(executed),
                        executed=executed,
                        checks_run=checker.checks_run,
                    )
                next_check += check_invariants
            if executed >= next_sample:
                system.sample_occupancy()
                next_sample += sample_every
            if next_progress is not None and executed >= next_progress:
                progress(ProgressUpdate(
                    executed, total_accesses, time.perf_counter() - run_started
                ))
                next_progress += progress_every
            # The snapshot must be the LAST act of the iteration: it has
            # to capture post-sampling state, or a resume would re-reach
            # ``next_sample`` a batch late and sample different contents.
            if next_checkpoint is not None and executed >= next_checkpoint:
                path = writer.write(executed, snapshot_document)
                if telemetry is not None:
                    telemetry.emit(
                        EVENT_CHECKPOINT,
                        float(executed),
                        path=str(path),
                        executed=executed,
                        seconds=writer.last_write_seconds,
                    )
                next_checkpoint += checkpoint_every
            # Hard budget breach: checkpoint-then-stop.  Sampled at the
            # end of the iteration so the snapshot is a consistent,
            # post-sampling resume point — identical semantics to the
            # periodic checkpoint above, so a resumed run is
            # bit-identical to one that was never stopped.  A run whose
            # last batch is done has nothing left to stop.
            if (
                next_budget_sample is not None
                and executed >= next_budget_sample
            ):
                monitor.sample(executed)
                next_budget_sample += _BUDGET_SAMPLE_EVERY
            if (
                monitor is not None
                and monitor.hard_breach is not None
                and executed < total_accesses
            ):
                breach_snapshot: Optional[str] = None
                if writer is not None:
                    # The emergency snapshot must land even when the
                    # breached budget *is* the disk quota.
                    writer.enforce_quota = False
                    breach_snapshot = str(
                        writer.write(
                            executed,
                            snapshot_document,
                            meta={"budget_breach": True},
                        )
                    )
                error = monitor.build_error(
                    f"budget exceeded at access {executed}/{total_accesses}"
                )
                error.snapshot_path = breach_snapshot
                raise error
    except KeyboardInterrupt:
        if watchdog is None or not watchdog.tripped:
            raise  # a real Ctrl-C, not ours
        watchdog.stop()
        snapshot_path: Optional[str] = None
        if writer is not None:
            # We are back on the sole simulating thread, so the state is
            # consistent *between* accesses at worst mid-batch; the stall
            # header marks it as a post-mortem artifact, not a resume point.
            stall_document = snapshot_document
            if monitor is not None:
                # Budget pressure is prime stall context: a run wedged at
                # 99% RSS died of thrashing, not of a simulator bug.
                stall_document = lambda: {
                    **snapshot_document(), "budget": monitor.to_dict()
                }
            snapshot_path = str(writer.write_stall(executed, stall_document))
        if telemetry is not None:
            telemetry.emit(
                EVENT_WATCHDOG_TRIP,
                float(executed),
                executed=executed,
                timeout_seconds=watchdog.timeout_seconds,
                snapshot=snapshot_path,
            )
        raise SimulationStalled(
            f"no forward progress for {watchdog.timeout_seconds}s at access "
            f"{executed}/{total_accesses}"
            + (f" (state snapshot: {snapshot_path})" if snapshot_path else ""),
            executed=executed,
            timeout_seconds=watchdog.timeout_seconds,
            snapshot_path=snapshot_path,
        ) from None
    finally:
        if gc_was_enabled:
            gc.enable()
        if watchdog is not None:
            watchdog.stop()
        if monitor_armed_here and budget_mod.ACTIVE is monitor:
            budget_mod.disarm()
    elapsed = time.perf_counter() - run_started
    if progress is not None:
        progress(ProgressUpdate(executed, total_accesses, elapsed))
    name = workload_name or "+".join(w.name for w in workloads)
    result = system.result(name)
    result.extra["context_switches"] = scheduler.switches
    result.extra["seed"] = seed
    result.extra["seed_derivation"] = {
        "scheme": SEED_DERIVATION_SCHEME,
        "stream_seeds": {
            str(vm_id): derive_stream_seed(seed, vm_id)
            for vm_id in range(config.num_vms)
        },
    }
    # ``host_``-prefixed extras are host-dependent run-control facts; the
    # result store and the determinism oracle strip them before comparing.
    result.extra["host_seconds"] = elapsed
    # Throughput facts (``repro run --json``): how fast the host chewed
    # through simulated work this run.
    simulated_cycles = sum(core.cycles for core in result.per_core)
    result.extra["host_accesses_per_second"] = (
        executed / elapsed if elapsed > 0 else 0.0
    )
    result.extra["host_sim_cycles_per_second"] = (
        simulated_cycles / elapsed if elapsed > 0 else 0.0
    )
    if writer is not None:
        result.extra["host_checkpoints_written"] = writer.written
    if restored_from is not None:
        result.extra["host_restored_from"] = str(restored_from)
    if monitor is not None:
        # ``host_``-prefixed so the store strips it: a budgeted and an
        # unbudgeted run of the same point persist byte-identical files.
        result.extra["host_budget"] = monitor.to_dict()
    return result

"""Shared experiment runner: one cached simulation per evaluation point.

Several of the paper's figures read different statistics off the *same*
runs (Figures 3, 7, 8, 10 and 11 all use the main 10-mix x 4-scheme
grid), so results are memoized on the full run signature.  All
experiments use the quarter-scale preset (``small_config`` +
``make_mix(scale=0.25)``); see DESIGN.md Section 5 for the scaling
argument.

Lookup order for a point is **memory -> disk -> simulate**: an attached
:class:`~repro.experiments.store.ResultStore` (see :func:`set_store`)
makes completed points durable, so a campaign interrupted hours in
replays only what is missing on the next run.  Under :func:`recording`
no lookup happens at all: each requested point is only noted, which is
how a campaign learns an exhibit's grid before it runs.

Environment knobs (read lazily, per call):

* ``REPRO_TOTAL_ACCESSES`` — accesses per run (default 240 000);
* ``REPRO_SEED`` — workload seed.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.schemes import Scheme
from repro.errors import CampaignError
from repro.experiments.store import ResultStore
from repro.sim.config import SMALL_WORKLOAD_SCALE, SystemConfig, small_config
from repro.sim.engine import run_simulation
from repro.sim.stats import CoreStats, OccupancySample, SimulationResult
from repro.workloads.mixes import make_mix

#: Fallback run length / seed when the ``REPRO_*`` variables are unset.
#: The environment is consulted on *every* call (not at import), so
#: ``REPRO_TOTAL_ACCESSES``/``REPRO_SEED`` changes — and tests that
#: monkeypatch these module constants — take effect immediately.
DEFAULT_TOTAL_ACCESSES = 240_000
DEFAULT_SEED = 0

#: Workload scale paired with the quarter-scale hardware preset.
WORKLOAD_SCALE = SMALL_WORKLOAD_SCALE

_cache: Dict[Tuple, SimulationResult] = {}

#: Points poisoned by a campaign after exhausting retries: signature key
#: -> error message.  ``run_point`` raises instead of re-simulating them
#: so one bad point degrades its exhibit instead of stalling the report.
_failed: Dict[Tuple, str] = {}

_store: Optional[ResultStore] = None
_consult_store: bool = True

#: Signatures requested under :func:`recording`, or ``None`` outside it.
_recorded: Optional[List[Dict[str, object]]] = None

#: What ``run_point`` returns under :func:`recording`.  Every metric an
#: exhibit reads is 1.0 (IPC, every MPKI, walks eliminated, walk cycles,
#: TLB occupancy), so no exhibit divides by zero and no geomean drops a
#: value.
_STAND_IN = SimulationResult(
    scheme="recording",
    workload="recording",
    per_core=[CoreStats(instructions=1000, cycles=1000.0, l2_tlb_misses=1)],
    l2_cache_misses=1,
    l2_cache_accesses=1,
    l3_cache_misses=1,
    l3_cache_accesses=1,
    l3_data_hit_rate=1.0,
    pom_hits=1,
    pom_misses=0,
    walk_mean_cycles=1.0,
    walk_count=1,
    occupancy_samples=[OccupancySample(0, 1.0, 1.0)],
)


class PointFailedError(CampaignError, RuntimeError):
    """A campaign already failed this point; don't silently re-run it."""


def default_total_accesses() -> int:
    """Per-run access budget: ``REPRO_TOTAL_ACCESSES`` read lazily."""
    env = os.environ.get("REPRO_TOTAL_ACCESSES")
    return int(env) if env is not None else DEFAULT_TOTAL_ACCESSES


def default_seed() -> int:
    """Workload seed: ``REPRO_SEED`` read lazily."""
    env = os.environ.get("REPRO_SEED")
    return int(env) if env is not None else DEFAULT_SEED


# ----------------------------------------------------------------------
# Run signatures
# ----------------------------------------------------------------------
def point_signature(
    mix_name: str,
    scheme: Scheme,
    contexts: int = 2,
    virtualized: bool = True,
    switch_interval_ms: float = 10.0,
    epoch_accesses: Optional[int] = None,
    replacement: str = "lru",
    estimate_positions: bool = False,
    static_data_ways: Optional[int] = None,
    partition_l2_only: bool = False,
    partition_l3_only: bool = False,
    page_table_levels: int = 4,
    tlb_prefetch: bool = False,
    total_accesses: Optional[int] = None,
    seed: Optional[int] = None,
) -> Dict[str, object]:
    """Canonical, JSON-able signature of one evaluation point.

    Mirrors :func:`run_point`'s parameters with every default resolved
    (including the lazily-read environment knobs), the scheme normalized
    to its string value, and no host-dependent fields — the identity the
    memory cache, the on-disk store and the worker pool all share.
    """
    return {
        "mix_name": mix_name,
        "scheme": scheme.value if isinstance(scheme, Scheme) else str(scheme),
        "contexts": contexts,
        "virtualized": virtualized,
        "switch_interval_ms": switch_interval_ms,
        "epoch_accesses": epoch_accesses,
        "replacement": replacement,
        "estimate_positions": estimate_positions,
        "static_data_ways": static_data_ways,
        "partition_l2_only": partition_l2_only,
        "partition_l3_only": partition_l3_only,
        "page_table_levels": page_table_levels,
        "tlb_prefetch": tlb_prefetch,
        "total_accesses": (
            total_accesses if total_accesses is not None
            else default_total_accesses()
        ),
        "seed": seed if seed is not None else default_seed(),
    }


def point_from_signature(signature: Dict[str, object]) -> Dict[str, object]:
    """Inverse of :func:`point_signature`: kwargs for :func:`run_point`."""
    kwargs = dict(signature)
    kwargs["scheme"] = Scheme(kwargs["scheme"])
    return kwargs


def _cache_key(signature: Dict[str, object]) -> Tuple:
    return tuple(sorted(signature.items(), key=lambda item: item[0]))


# ----------------------------------------------------------------------
# Persistent store attachment
# ----------------------------------------------------------------------
def set_store(store: Optional[ResultStore], consult: bool = True) -> None:
    """Attach (or detach, with ``None``) the persistent result store.

    Completed points are always written through.  With ``consult=False``
    existing entries are ignored (and overwritten) instead of read back
    — a deliberately *fresh* campaign that still persists as it goes;
    ``consult=True`` is the resume behavior.
    """
    global _store, _consult_store
    _store = store
    _consult_store = consult


# ----------------------------------------------------------------------
# Grid recording
# ----------------------------------------------------------------------
@contextmanager
def recording() -> Iterator[List[Dict[str, object]]]:
    """Record the points requested inside the block instead of running them.

    Within the block :func:`run_point` appends each signature to the
    yielded list and returns a fixed stand-in result: it consults no
    memo, poison list or store, and simulates nothing.  Running an
    exhibit under it therefore yields exactly the grid its render will
    request, provided the exhibit chooses its points from its arguments
    and never from a result it reads (the stand-in's numbers are not a
    real run's).
    """
    global _recorded
    outer, _recorded = _recorded, []
    try:
        yield _recorded
    finally:
        _recorded = outer


# ----------------------------------------------------------------------
# Point execution
# ----------------------------------------------------------------------
def run_point(
    mix_name: str,
    scheme: Scheme,
    contexts: int = 2,
    virtualized: bool = True,
    switch_interval_ms: float = 10.0,
    epoch_accesses: Optional[int] = None,
    replacement: str = "lru",
    estimate_positions: bool = False,
    static_data_ways: Optional[int] = None,
    partition_l2_only: bool = False,
    partition_l3_only: bool = False,
    page_table_levels: int = 4,
    tlb_prefetch: bool = False,
    total_accesses: Optional[int] = None,
    seed: Optional[int] = None,
    *,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    restore: Optional[str] = None,
) -> SimulationResult:
    """Run one evaluation point, consulting memory, then disk, then
    simulating; a freshly simulated result is written through to the
    attached store (when one is set) before it is returned.

    The keyword-only checkpoint knobs are run-control, not identity: they
    are deliberately **absent** from :func:`point_signature`, since a
    resumed run is bit-identical to an uninterrupted one (the engine's
    determinism oracle) and must share its cache/store entry.
    """
    signature = point_signature(
        mix_name, scheme, contexts, virtualized, switch_interval_ms,
        epoch_accesses, replacement, estimate_positions, static_data_ways,
        partition_l2_only, partition_l3_only, page_table_levels,
        tlb_prefetch, total_accesses, seed,
    )
    if _recorded is not None:
        _recorded.append(signature)
        return _STAND_IN
    key = _cache_key(signature)
    cached = _cache.get(key)
    if cached is not None:
        return cached
    if key in _failed:
        raise PointFailedError(
            f"point {mix_name}/{signature['scheme']} already failed in this "
            f"campaign: {_failed[key]}"
        )
    if _store is not None and _consult_store:
        stored = _store.load(signature)
        if stored is not None:
            _cache[key] = stored
            return stored
    total = signature["total_accesses"]
    run_seed = signature["seed"]
    overrides = dict(
        scheme=scheme,
        contexts_per_core=contexts,
        virtualized=virtualized,
        switch_interval_ms=switch_interval_ms,
        replacement=replacement,
        estimate_positions=estimate_positions,
        static_data_ways=static_data_ways,
        page_table_levels=page_table_levels,
        tlb_prefetch=tlb_prefetch,
    )
    if epoch_accesses is not None:
        overrides["epoch_accesses"] = epoch_accesses
    config = small_config(**overrides)
    workloads = make_mix(mix_name, contexts=contexts, scale=WORKLOAD_SCALE)
    checkpoint_kwargs = dict(
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        restore=restore,
    )
    if partition_l2_only or partition_l3_only:
        result = _run_partial_partition(
            config, workloads, total, run_seed, mix_name,
            partition_l2_only, partition_l3_only, **checkpoint_kwargs,
        )
    else:
        result = run_simulation(
            config, workloads, total_accesses=total, seed=run_seed,
            workload_name=mix_name, **checkpoint_kwargs,
        )
    _cache[key] = result
    if _store is not None:
        try:
            _store.save(signature, result)
        except OSError as exc:  # persistence is best-effort
            import warnings

            warnings.warn(
                f"could not persist result for {mix_name}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
    return result


def _run_partial_partition(
    config: SystemConfig,
    workloads,
    total: int,
    seed: int,
    mix_name: str,
    l2_only: bool,
    l3_only: bool,
    **checkpoint_kwargs,
) -> SimulationResult:
    """Ablation: disable partitioning at one cache level (DESIGN.md §7)."""

    def disable_one_level(system) -> None:
        if l2_only:
            system.l3_controller = None
            system.l3.set_partition(None)
        if l3_only:
            for core in system.cores:
                core.l2_controller = None
                core.l2.set_partition(None)

    return run_simulation(
        config, workloads, total_accesses=total, seed=seed,
        workload_name=mix_name, system_setup=disable_one_level,
        **checkpoint_kwargs,
    )


# ----------------------------------------------------------------------
# Cache / failure bookkeeping (used by the campaign pool)
# ----------------------------------------------------------------------
def seed_cache(signature: Dict[str, object], result: SimulationResult) -> None:
    """Insert an externally produced result (worker process, store scan)."""
    _cache[_cache_key(signature)] = result


def is_cached(signature: Dict[str, object]) -> bool:
    return _cache_key(signature) in _cache


def mark_failed(signature: Dict[str, object], error: str) -> None:
    """Poison a point so later ``run_point`` calls raise immediately."""
    _failed[_cache_key(signature)] = error


def clear_cache() -> None:
    _cache.clear()
    _failed.clear()


def cache_size() -> int:
    return len(_cache)

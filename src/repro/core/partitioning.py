"""CSALT dynamic cache partitioning (paper Algorithms 1-3, Eqs. 1-2).

``marginal_utility`` implements Eq. 1/2: the predicted overall hit count of
a partitioning that gives N ways to data and K-N to TLB entries, read off
the two stack-distance profilers, optionally scaled by criticality weights
(S_Dat, S_Tr).  ``best_partition`` is Algorithm 1's argmax over N.

``PartitionController`` wires this to a live cache: it observes every
access, and at each epoch boundary recomputes the partition and installs
it via ``Cache.set_partition``.  It also keeps the timeline of partition
decisions used to reproduce Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.core.stack_distance import ProfilerPair
from repro.mem.cache import Cache
from repro.telemetry.events import EVENT_PARTITION

if TYPE_CHECKING:
    from repro.telemetry import Telemetry

#: Paper default: repartition every 256K cache accesses (Section 5.3).
DEFAULT_EPOCH_ACCESSES = 256_000

#: Minimum ways either stream may hold (Algorithm 1's Nmin; both data and
#: TLB always keep at least one way so neither stream is starved).
N_MIN = 1


def marginal_utility(
    data_counters: List[int],
    tlb_counters: List[int],
    data_ways: int,
    total_ways: int,
    weight_data: float = 1.0,
    weight_tlb: float = 1.0,
) -> float:
    """Criticality-weighted marginal utility of a candidate partition.

    With unit weights this is Eq. 1 (CSALT-D); with measured weights it is
    Eq. 2 (CSALT-CD).  ``data_counters``/``tlb_counters`` are the MSA
    profiler arrays (length ``total_ways + 1``).
    """
    if not N_MIN <= data_ways <= total_ways - N_MIN:
        raise ValueError(
            f"data_ways must be in [{N_MIN}, {total_ways - N_MIN}], got {data_ways}"
        )
    data_hits = sum(data_counters[:data_ways])
    tlb_hits = sum(tlb_counters[: total_ways - data_ways])
    return weight_data * data_hits + weight_tlb * tlb_hits


def best_partition(
    data_counters: List[int],
    tlb_counters: List[int],
    total_ways: int,
    weight_data: float = 1.0,
    weight_tlb: float = 1.0,
) -> int:
    """Algorithm 1: the data-way count N maximizing (CW)MU.

    Ties break toward the more balanced split closest to the middle, so an
    idle stream cannot monopolize the cache on zero evidence.
    """
    middle = total_ways / 2
    best_n = N_MIN
    best_value: Optional[float] = None
    for candidate in range(N_MIN, total_ways - N_MIN + 1):
        value = marginal_utility(
            data_counters, tlb_counters, candidate, total_ways,
            weight_data, weight_tlb,
        )
        better = best_value is None or value > best_value
        tie = best_value is not None and value == best_value
        if tie and abs(candidate - middle) < abs(best_n - middle):
            better = True
        if better:
            best_value = value
            best_n = candidate
    return best_n


@dataclass
class PartitionDecision:
    """One epoch-boundary outcome, kept for the Figure 9 timeline."""

    access_count: int
    data_ways: int
    tlb_ways: int
    weight_data: float
    weight_tlb: float

    @property
    def tlb_fraction(self) -> float:
        return self.tlb_ways / (self.data_ways + self.tlb_ways)


#: Provider of (S_Dat, S_Tr) criticality weights, queried at each epoch.
WeightProvider = Callable[[], Tuple[float, float]]


def unit_weights() -> Tuple[float, float]:
    """CSALT-D: data and TLB hits valued equally."""
    return 1.0, 1.0


class PartitionController:
    """Drives one cache's CSALT partition across epochs.

    ``weight_provider`` distinguishes the two schemes: ``unit_weights``
    gives CSALT-D; a :class:`~repro.core.criticality.CriticalityEstimator`
    method gives CSALT-CD.  With ``estimate_positions=True`` the profilers
    run in pseudo-LRU estimate mode off the main cache's recency state
    (paper Section 3.4) instead of shadow tags.
    """

    def __init__(
        self,
        cache: Cache,
        epoch_accesses: int = DEFAULT_EPOCH_ACCESSES,
        weight_provider: WeightProvider = unit_weights,
        sample_shift: int = 4,
        estimate_positions: bool = False,
        initial_data_ways: Optional[int] = None,
        telemetry: Optional["Telemetry"] = None,
        clock: Optional[Callable[[], float]] = None,
        label: str = "",
        core_id: int = -1,
    ):
        if epoch_accesses < 1:
            raise ValueError("epoch length must be positive")
        self.cache = cache
        self.epoch_accesses = epoch_accesses
        self.weight_provider = weight_provider
        self.estimate_positions = estimate_positions
        self.profilers = ProfilerPair.for_ways(cache.ways)
        #: Shadow-mode set sampling: :meth:`observe` feeds a profiler
        #: only the sets whose index has none of these bits set, every
        #: ``2**sample_shift``-th set.
        self._sample_mask = (1 << sample_shift) - 1
        #: A set index with any of these bits set is one :meth:`observe`
        #: would only count: the caller may skip the call and advance
        #: the epoch itself (``total_accesses += 1``, then
        #: :meth:`repartition` once it reaches ``epoch_end``).  Zero in
        #: estimate mode, where every access feeds a profiler.
        self.skip_mask = 0 if estimate_positions else self._sample_mask
        self.total_accesses = 0
        #: The ``total_accesses`` count at which the current epoch ends.
        self.epoch_end = epoch_accesses
        self.timeline: List[PartitionDecision] = []
        #: Telemetry sink plus a simulated-cycle clock for event stamps
        #: (falls back to the access count when no clock is wired).
        self._telemetry = telemetry
        self._clock = clock
        self.label = label or cache.name
        self._core_id = core_id
        start = initial_data_ways if initial_data_ways is not None else cache.ways // 2
        cache.set_partition(start)
        self._record_decision(start, 1.0, 1.0)

    # ------------------------------------------------------------------
    def observe(self, kind: int, set_index: int, tag: int, hit: bool) -> None:
        """Feed one cache access to the profilers; repartition on epoch end.

        Call *after* the cache lookup so ``cache.last_stack_position`` is
        valid in estimate mode.  ``kind`` may be a :class:`LineKind` or
        its plain int value (DATA falsy, TLB truthy).  This runs once per
        L2/L3 reference, so the shadow-mode sampling test is inlined:
        unsampled sets (the 15-of-16 common case at the default
        ``sample_shift``) never pay a profiler call.
        """
        pair = self.profilers
        profiler = pair.tlb if kind else pair.data
        if self.estimate_positions:
            position = self.cache.last_stack_position if hit else None
            profiler.record_position(position)
        elif set_index & self._sample_mask == 0:
            profiler.record_sampled(set_index, tag)
        self.total_accesses += 1
        if self.total_accesses >= self.epoch_end:
            self.repartition()

    def repartition(self) -> int:
        """Epoch boundary: Algorithm 1 (+ weights) then install the split."""
        weight_data, weight_tlb = self.weight_provider()
        data_ways = best_partition(
            self.profilers.data.counters,
            self.profilers.tlb.counters,
            self.cache.ways,
            weight_data,
            weight_tlb,
        )
        self.cache.set_partition(data_ways)
        self._record_decision(data_ways, weight_data, weight_tlb)
        self.profilers.decay()
        self.epoch_end = self.total_accesses + self.epoch_accesses
        return data_ways

    def _record_decision(
        self, data_ways: int, weight_data: float, weight_tlb: float
    ) -> None:
        decision = PartitionDecision(
            access_count=self.total_accesses,
            data_ways=data_ways,
            tlb_ways=self.cache.ways - data_ways,
            weight_data=weight_data,
            weight_tlb=weight_tlb,
        )
        self.timeline.append(decision)
        tel = self._telemetry
        if tel is not None and tel.tracer is not None:
            cycles = (
                self._clock() if self._clock is not None
                else float(self.total_accesses)
            )
            tel.tracer.emit(
                EVENT_PARTITION,
                cycles,
                self._core_id,
                label=self.label,
                data_ways=decision.data_ways,
                tlb_ways=decision.tlb_ways,
                tlb_fraction=decision.tlb_fraction,
                weight_data=weight_data,
                weight_tlb=weight_tlb,
            )

    @property
    def accesses_in_epoch(self) -> int:
        """Accesses observed since the last epoch boundary."""
        return self.total_accesses - (self.epoch_end - self.epoch_accesses)

    def tlb_fraction_timeline(self) -> List[Tuple[int, float]]:
        """(access count, TLB way share) pairs — the Figure 9 series."""
        return [(d.access_count, d.tlb_fraction) for d in self.timeline]

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The cache's installed split is restored by the cache's own
        ``load_state``; this covers the controller's profilers, epoch
        position, and decision timeline."""
        return {
            "profilers": self.profilers.state_dict(),
            "accesses_in_epoch": self.accesses_in_epoch,
            "total_accesses": self.total_accesses,
            "timeline": [replace(decision) for decision in self.timeline],
        }

    def load_state(self, state: dict) -> None:
        self.profilers.load_state(state["profilers"])
        self.total_accesses = state["total_accesses"]
        self.epoch_end = (
            self.total_accesses - state["accesses_in_epoch"]
            + self.epoch_accesses
        )
        self.timeline = [replace(decision) for decision in state["timeline"]]

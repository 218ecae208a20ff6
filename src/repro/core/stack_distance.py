"""Mattson stack-distance (MSA) profilers for data and TLB streams.

CSALT attaches two profilers to each partitioned cache (paper Figure 4):
one observing data accesses, one observing TLB-entry accesses.  For a
K-way cache, a profiler is an array of K+1 counters: ``counters[i]``
counts hits at LRU stack position ``i`` (0 = MRU) and ``counters[K]``
counts misses.  Summing a prefix predicts the hit count the stream would
achieve with that many ways — the basis of marginal utility (Eq. 1).

Two operating modes, matching the paper:

* **shadow mode** (default) — a per-set auxiliary tag directory with full
  associativity K and true-LRU ordering gives exact stack distances even
  when the main cache runs NRU/pseudo-LRU.  Set sampling (the owning
  :class:`~repro.core.partitioning.PartitionController` feeds only every
  ``2**sample_shift``-th set) keeps the hardware (and simulation) cost
  negligible, as in UCP.
* **estimate mode** (Section 3.4) — no shadow tags; the counters are
  updated from the *main cache's* estimated stack position of each hit
  (Kedzierski-style NRU/BT-PLRU position estimates), losing a little
  accuracy but no extra tag storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


class StackDistanceProfiler:
    """One stream's MSA LRU stack with set-sampled shadow tags."""

    def __init__(self, ways: int):
        if ways < 1:
            raise ValueError("profiler needs at least one way")
        self.ways = ways
        self.counters: List[int] = [0] * (ways + 1)
        self._shadow: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Shadow mode
    # ------------------------------------------------------------------
    def record_sampled(self, set_index: int, tag: int) -> None:
        """Shadow-mode update for an access to a sampled set.

        The caller (``PartitionController.observe``) owns the sample
        mask and calls this only for the 1-in-``2**sample_shift`` sets
        that pass it.  The tag's position in the set's LRU stack counts
        a hit at that distance (a miss when absent); the tag then moves
        to MRU, and the stack keeps at most ``ways`` tags."""
        stack = self._shadow.get(set_index)
        if stack is None:
            stack = []
            self._shadow[set_index] = stack
        try:
            position = stack.index(tag)
        except ValueError:
            self.counters[self.ways] += 1
            stack.insert(0, tag)
            if len(stack) > self.ways:
                stack.pop()
            return
        self.counters[position] += 1
        del stack[position]
        stack.insert(0, tag)

    # ------------------------------------------------------------------
    # Estimate mode (paper Section 3.4)
    # ------------------------------------------------------------------
    def record_position(self, position: Optional[int]) -> None:
        """Observe an access given the main cache's estimated position.

        ``None`` means the access missed the main cache.
        """
        if position is None:
            self.counters[self.ways] += 1
        else:
            self.counters[min(position, self.ways - 1)] += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def decay(self, shift: int = 1) -> None:
        """Age counters at an epoch boundary (halving, as in UCP)."""
        self.counters = [count >> shift for count in self.counters]

    def state_dict(self) -> dict:
        """A view, valid until the next observation: the live counters
        and shadow stacks."""
        return {"counters": self.counters, "shadow": self._shadow}

    def load_state(self, state: dict) -> None:
        counters = state["counters"]
        if len(counters) != self.ways + 1:
            raise ValueError(
                f"profiler snapshot has {len(counters)} counters, expected "
                f"{self.ways + 1}"
            )
        self.counters = list(counters)
        self._shadow = {
            index: list(stack) for index, stack in state["shadow"].items()
        }


@dataclass
class ProfilerPair:
    """The data + TLB profiler pair attached to one partitioned cache."""

    data: StackDistanceProfiler
    tlb: StackDistanceProfiler

    @classmethod
    def for_ways(cls, ways: int) -> "ProfilerPair":
        return cls(
            data=StackDistanceProfiler(ways), tlb=StackDistanceProfiler(ways)
        )

    def decay(self, shift: int = 1) -> None:
        self.data.decay(shift)
        self.tlb.decay(shift)

    def state_dict(self) -> dict:
        return {"data": self.data.state_dict(), "tlb": self.tlb.state_dict()}

    def load_state(self, state: dict) -> None:
        self.data.load_state(state["data"])
        self.tlb.load_state(state["tlb"])

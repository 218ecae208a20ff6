"""Criticality weight estimation for CSALT-CD (paper Section 3.2).

CSALT-CD scales each profiler's marginal utility by the performance gained
when that stream hits in the cache instead of missing:

* a **data** hit in the L3 saves a DRAM access, so
  ``S_Dat = avg_dram_latency / l3_latency``;
* a **TLB-entry** hit in the L3 saves the POM-TLB access in die-stacked
  DRAM — and, when the POM-TLB itself would miss, a full 2-D page walk —
  so ``S_Tr = (tlb_latency + avg_dram_latency) / l3_latency`` (the paper's
  stated formula), extended here with the measured walk-cost tail.

The inputs are the counters modern processors already expose (L3 and
POM-TLB hit rates, average walk cost); the estimator only reads them, as
the paper's minimal-hardware argument requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple


@dataclass
class LatencyBook:
    """Access latencies (CPU cycles) of the levels below a partitioned cache."""

    cache_latency: int
    next_level_data_latency: float
    tlb_service_latency: float

    def weights(self) -> Tuple[float, float]:
        s_dat = max(1.0, self.next_level_data_latency / self.cache_latency)
        s_tr = max(1.0, self.tlb_service_latency / self.cache_latency)
        return s_dat, s_tr


class CriticalityEstimator:
    """Computes (S_Dat, S_Tr) for one partitioned cache from live counters.

    ``dynamic_inputs`` is polled at every epoch and must return:

    * ``next_data_latency`` — expected cycles for a data request that
      misses this cache (e.g., for the L2: L3 latency plus the L3-miss
      fraction times DRAM latency);
    * ``pom_hit_rate`` — hit rate of the POM-TLB;
    * ``pom_latency`` — die-stacked DRAM access cost;
    * ``walk_latency`` — current mean 2-D page-walk cost.

    A TLB request that misses this cache proceeds down the remaining data
    caches and then to the POM-TLB; if that also misses, the page walk is
    paid.  The expected translation-service latency is assembled from
    those measured pieces.
    """

    def __init__(
        self,
        cache_latency: int,
        dynamic_inputs: Callable[[], "CriticalityInputs"],
    ):
        if cache_latency < 1:
            raise ValueError("cache latency must be positive")
        self.cache_latency = cache_latency
        self._dynamic_inputs = dynamic_inputs

    def weights(self) -> Tuple[float, float]:
        inputs = self._dynamic_inputs()
        tlb_service = inputs.tlb_downstream_latency + inputs.pom_latency
        tlb_service += (1.0 - inputs.pom_hit_rate) * inputs.walk_latency
        book = LatencyBook(
            cache_latency=self.cache_latency,
            next_level_data_latency=inputs.next_data_latency,
            tlb_service_latency=tlb_service,
        )
        return book.weights()


@dataclass
class CriticalityInputs:
    """A snapshot of the performance counters the estimator consumes."""

    next_data_latency: float
    tlb_downstream_latency: float
    pom_hit_rate: float
    pom_latency: float
    walk_latency: float

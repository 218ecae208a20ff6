"""Runtime invariant checking: the catalogue catches injected corruption,
clean systems pass, and the campaign pool treats violations as
non-retryable failures."""

import pytest

from repro.core.schemes import Scheme
from repro.experiments import runner
from repro.mem.address import PAGE_2M_BITS, Asid
from repro.experiments.pool import run_campaign
from repro.sim.config import small_config
from repro.sim.engine import build_contexts, run_simulation
from repro.sim.scheduler import ContextScheduler
from repro.sim.system import System
from repro.tlb.tlb import TlbEntry
from repro.validate import (
    InvariantChecker,
    InvariantViolation,
    check_cache,
    check_mmu_caches,
    check_monotone,
    check_pom_tlb,
    check_translation_coherence,
    counter_snapshot,
)
from repro.workloads.mixes import make_mix


def exercised(replacement="lru", accesses=1_600):
    config = small_config(
        scheme=Scheme.CSALT_CD, cores=2, contexts_per_core=2,
        replacement=replacement,
    )
    system = System(config)
    per_core = build_contexts(
        system, make_mix("gups", config.num_vms, scale=0.25), seed=5
    )
    scheduler = ContextScheduler(per_core, config.switch_interval_cycles)
    executed = 0
    while executed < accesses:
        for core_id in range(config.cores):
            context = scheduler.current(core_id)
            for _ in range(4):
                va, is_write = next(context.stream)
                context.ensure_mapped(va)
                system.access(core_id, context.asid, va, is_write)
            scheduler.maybe_switch(core_id, system.cores[core_id].stats.cycles)
        executed += 4 * config.cores
    return config, system, scheduler


class TestCleanSystem:
    @pytest.mark.parametrize("replacement", ["lru", "nru", "plru", "rrip"])
    def test_exercised_system_passes(self, replacement):
        _, system, scheduler = exercised(replacement)
        checker = InvariantChecker(system, scheduler)
        checker.check(executed=1_600)  # must not raise
        assert checker.checks_run == 1
        assert checker.violations_found == 0

    def test_engine_run_with_checks_passes(self):
        config = small_config(
            scheme=Scheme.CSALT_CD, cores=2, contexts_per_core=2
        )
        result = run_simulation(
            config, make_mix("gups", config.num_vms, scale=0.25),
            total_accesses=4_000, seed=1, check_invariants=500,
        )
        assert result.instructions > 0


class TestInjectedCorruption:
    def test_duplicated_lru_way_caught(self):
        _, system, scheduler = exercised("lru")
        cache = system.cores[0].l2
        cache._recency[0][0] = cache._recency[0][1]  # duplicate a way
        checker = InvariantChecker(system, scheduler)
        with pytest.raises(InvariantViolation) as info:
            checker.check(executed=1_600)
        violation = info.value
        assert violation.component == "cache:l2-core0"
        assert violation.invariant == "lru-permutation"
        assert violation.context["executed"] == 1_600

    def test_partition_sum_mismatch_caught(self):
        _, system, _ = exercised("lru")
        # Bypass set_partition: tamper with the split directly, as a bug
        # in Algorithm 1's way assignment would.
        system.l3._data_ways = 0
        found = list(check_cache(system.l3))
        assert any(v.invariant.startswith("partition") for v in found)

    def test_partition_bounds_tamper_caught(self):
        _, system, _ = exercised("lru")
        cache = system.l3
        assert cache.data_ways is not None
        # Let TLB fills take every way while the recorded split stays
        # put: ``fill`` reads these bounds, so the audit must read them.
        cache._partition_bounds = ((0, cache.data_ways), (0, cache.ways))
        found = list(check_cache(cache))
        assert [v.invariant for v in found] == ["partition-bounds"]

    def test_free_mask_mismatch_caught(self):
        _, system, _ = exercised("lru")
        cache = system.l3
        set_index = next(
            i for i in range(cache.num_sets) if cache._tag_to_way[i]
        )
        way = next(iter(cache._tag_to_way[set_index].values()))
        # Mark a valid way free, as a lost fill bookkeeping update would.
        cache._free_mask[set_index] |= 1 << way
        found = list(check_cache(cache))
        assert [v.invariant for v in found] == ["free-count"]
        assert found[0].context["set_index"] == set_index

    def test_tag_index_mismatch_caught(self):
        _, system, _ = exercised("lru")
        cache = system.l3
        set_index = next(
            i for i in range(cache.num_sets) if cache._tag_to_way[i]
        )
        tag = next(iter(cache._tag_to_way[set_index]))
        cache._tag_to_way[set_index][tag] = (
            (cache._tag_to_way[set_index][tag] + 1) % cache.ways
        )
        found = list(check_cache(cache))
        assert any(v.invariant == "tag-index-mismatch" for v in found)

    def test_counter_regression_caught(self):
        _, system, _ = exercised("lru")
        baseline = counter_snapshot(system)
        system.cores[0].l2.stats.hits = 0  # counters never go backwards
        system.cores[0].l2.stats.data_hits = 0
        system.cores[0].l2.stats.tlb_hits = 0
        found = list(check_monotone(baseline, counter_snapshot(system)))
        assert found and found[0].invariant == "monotonicity"

    def test_pom_set_overflow_caught(self):
        _, system, scheduler = exercised("lru")
        pom = system.pom
        index, pom_set = next(iter(pom._contents.items()))
        (asid, vpn), entry = next(iter(pom_set.items()))
        # Other processes' copies of the entry that hash to the same set:
        # each sits where it belongs, so only the set size is wrong.
        others = (
            (Asid(asid.vm_id, process), vpn) for process in range(256)
            if (Asid(asid.vm_id, process), vpn) not in pom_set
            and pom._set_index(
                Asid(asid.vm_id, process), vpn, entry.page_bits
            ) == index
        )
        while len(pom_set) <= pom.entries_per_set:
            pom_set[next(others)] = entry
        found = list(check_pom_tlb(pom))
        assert [v.invariant for v in found] == ["pom-set-overflow"]
        assert found[0].context["set_index"] == index
        swept = InvariantChecker(system, scheduler).sweep()
        assert "pom-set-overflow" in [v.invariant for v in swept]

    def test_pom_entry_in_wrong_set_caught(self):
        _, system, scheduler = exercised("lru")
        contents = system.pom._contents
        low, high = sorted(contents)[:2]
        key, entry = contents[high].popitem(last=False)
        if len(contents[low]) >= system.pom.entries_per_set:
            contents[low].popitem(last=False)
        contents[low][key] = entry
        found = list(check_pom_tlb(system.pom))
        assert [v.invariant for v in found] == ["pom-set-placement"]
        assert found[0].context["set_index"] == low
        swept = InvariantChecker(system, scheduler).sweep()
        assert "pom-set-placement" in [v.invariant for v in swept]

    @pytest.mark.parametrize("label", ["pml4", "pdp", "pde", "nested-tlb"])
    def test_mmu_cache_over_capacity_caught(self, label):
        _, system, scheduler = exercised("lru")
        walker = system.cores[1].walker
        cache = {
            "pml4": walker.psc._pml4,
            "pdp": walker.psc._pdp,
            "pde": walker.psc._pde,
            "nested-tlb": walker.nested_tlb._cache,
        }[label]
        for n in range(cache.entries + 1):
            cache._store[("seeded", n)] = True
        found = list(check_mmu_caches(1, walker))
        assert [v.invariant for v in found] == ["mmu-cache-capacity"]
        assert found[0].component == "walker:core1"
        assert found[0].context["cache"] == label
        swept = InvariantChecker(system, scheduler).sweep()
        assert [v.invariant for v in swept] == ["mmu-cache-capacity"]

    # The TLBs and the POM-TLB share one frozen ``TlbEntry`` per
    # translation: each case below replaces an entry in one structure and
    # never mutates the shared object.
    def test_tlb_frame_mismatch_caught(self):
        _, system, scheduler = exercised("lru")
        tlb = system.cores[0].l2_tlb
        tlb_set = next(tlb_set for tlb_set in tlb._sets if tlb_set)
        key, entry = next(iter(tlb_set.items()))
        tlb_set[key] = TlbEntry(entry.frame_base + 1, entry.page_bits)
        found = list(check_translation_coherence(system))
        assert [v.invariant for v in found] == ["translation-frame"]
        assert found[0].component == f"tlb:{tlb.name}"
        assert found[0].context["vpn"] == key[1]
        swept = InvariantChecker(system, scheduler).sweep()
        assert [v.invariant for v in swept] == ["translation-frame"]

    def test_tlb_entry_for_unmapped_page_caught(self):
        _, system, scheduler = exercised("lru")
        tlb = system.cores[0].l2_tlb
        tlb_set = next(tlb_set for tlb_set in tlb._sets if tlb_set)
        (asid, vpn, page_bits), entry = tlb_set.popitem(last=False)
        # 2**20 pages up stays inside the 48-bit reach of a 4-level
        # table, for both page sizes; further up, ``PageTable.lookup``
        # drops the high bits and aliases back onto a mapped page.
        moved = vpn + (1 << 20)
        table = system.vms[asid.vm_id]._guest_tables[asid.process_id]
        assert table.lookup(moved << page_bits) is None
        tlb._sets[moved % tlb.num_sets][(asid, moved, page_bits)] = entry
        found = list(check_translation_coherence(system))
        assert [v.invariant for v in found] == ["translation-unbacked"]
        assert found[0].context["vpn"] == moved
        swept = InvariantChecker(system, scheduler).sweep()
        assert [v.invariant for v in swept] == ["translation-unbacked"]

    def test_tlb_entry_past_table_reach_caught(self):
        _, system, scheduler = exercised("lru")
        tlb = system.cores[0].l2_tlb
        tlb_set, key = next(
            (tlb_set, key) for tlb_set in tlb._sets for key in tlb_set
            if key[2] == PAGE_2M_BITS
        )
        asid, vpn, page_bits = key
        entry = tlb_set.pop(key)
        # 2**30 huge pages up is past 2**48, the 4-level table's reach:
        # ``PageTable.lookup`` drops those bits and finds page ``vpn``.
        moved = vpn + (1 << 30)
        table = system.vms[asid.vm_id]._guest_tables[asid.process_id]
        assert table.lookup(moved << page_bits) == table.lookup(
            vpn << page_bits
        )
        tlb._sets[moved % tlb.num_sets][(asid, moved, page_bits)] = entry
        found = list(check_translation_coherence(system))
        assert [v.invariant for v in found] == ["translation-unbacked"]
        assert found[0].context["vpn"] == moved
        swept = InvariantChecker(system, scheduler).sweep()
        assert [v.invariant for v in swept] == ["translation-unbacked"]

    def test_pom_frame_mismatch_caught(self):
        _, system, scheduler = exercised("lru")
        # The lowest set is inside the sweep's bounded prefix.
        pom_set = system.pom._contents[min(system.pom._contents)]
        key, entry = next(iter(pom_set.items()))
        pom_set[key] = TlbEntry(entry.frame_base + 1, entry.page_bits)
        found = list(check_translation_coherence(system))
        assert [v.invariant for v in found] == ["translation-frame"]
        assert found[0].component == "tlb:pom"
        swept = InvariantChecker(system, scheduler).sweep()
        assert [v.invariant for v in swept] == ["translation-frame"]

    def test_sweep_collects_multiple(self):
        _, system, scheduler = exercised("lru")
        system.cores[0].l2._recency[0][0] = system.cores[0].l2._recency[0][1]
        system.l3._data_ways = 0
        checker = InvariantChecker(system, scheduler)
        with pytest.raises(InvariantViolation) as info:
            checker.check()
        assert info.value.others  # the rest of the sweep rides along


class TestEngineIntegration:
    @staticmethod
    def _skew_stats(system):
        # A miscounted hit split survives normal traffic (all counters
        # keep incrementing in step) without crashing the datapath the
        # way recency corruption would, so the first audit must see it.
        system.cores[0].l2.stats.data_hits += 1

    def test_corruption_surfaces_through_run_simulation(self):
        config = small_config(
            scheme=Scheme.CSALT_CD, cores=2, contexts_per_core=2
        )
        with pytest.raises(InvariantViolation) as info:
            run_simulation(
                config, make_mix("gups", config.num_vms, scale=0.25),
                total_accesses=4_000, seed=1, check_invariants=500,
                system_setup=self._skew_stats,
            )
        assert info.value.invariant == "stats-split"
        assert info.value.component == "cache:l2-core0"

    def test_config_field_fallback(self):
        config = small_config(
            scheme=Scheme.CSALT_CD, cores=2, contexts_per_core=2,
            check_invariants=500,
        )
        with pytest.raises(InvariantViolation):
            run_simulation(
                config, make_mix("gups", config.num_vms, scale=0.25),
                total_accesses=4_000, seed=1,
                system_setup=self._skew_stats,
            )


class TestPoolClassification:
    @pytest.fixture(autouse=True)
    def fresh_runner(self):
        runner.clear_cache()
        runner.set_store(None)
        yield
        runner.clear_cache()
        runner.set_store(None)

    def test_violation_is_non_retryable(self, monkeypatch):
        def poisoned_run_point(**kwargs):
            raise InvariantViolation(
                "cache:l2-core0", "lru-permutation", "way 3 duplicated"
            )

        monkeypatch.setattr(runner, "run_point", poisoned_run_point)
        signature = runner.point_signature(
            "gups", Scheme.POM_TLB, total_accesses=1_500
        )
        summary = run_campaign([signature], jobs=2, retries=2)
        assert len(summary.failures) == 1
        failure = summary.failures[0]
        # Deterministic in-simulation failure: no retry burned.
        assert failure.attempts == 1
        assert "InvariantViolation" in failure.error
        assert "lru-permutation" in failure.error

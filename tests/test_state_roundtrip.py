"""Property: ``load_state(state_dict())`` is the identity for every
registered component — and for a whole freshly-built System.

A fresh instance loaded from a dump must itself dump the same state
(canonical form), otherwise a restore would silently diverge from the
run that produced the checkpoint.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes import Scheme
from repro.mem.address import PAGE_4K_BITS, Asid
from repro.mem.cache import Cache, LineKind
from repro.mem.dram import DDR4_2133, DramChannel
from repro.sim.config import small_config
from repro.sim.engine import build_contexts, run_simulation
from repro.sim.scheduler import ContextScheduler
from repro.sim.system import System
from repro.tlb.pom_tlb import PomTlb
from repro.tlb.tlb import Tlb, TlbEntry
from repro.tlb.tsb import Tsb
from repro.vm.mmu_cache import PagingStructureCache, PscConfig
from repro.workloads.mixes import make_mix

addresses = st.integers(min_value=0, max_value=(1 << 36) - 1)
asids = st.builds(Asid, st.integers(0, 3), st.integers(0, 3))

REPLACEMENTS = ["lru", "nru", "plru", "rrip"]


def exercised_system(replacement="lru", accesses=1_200, seed=3, **overrides):
    """A small system with real traffic through every structure
    (CSALT-CD, 2 cores x 2 contexts, unless ``overrides`` say otherwise)."""
    settings = dict(
        scheme=Scheme.CSALT_CD, cores=2, contexts_per_core=2,
        replacement=replacement,
    )
    settings.update(overrides)
    config = small_config(**settings)
    system = System(config)
    per_core = build_contexts(
        system, make_mix("gups", config.num_vms, scale=0.25), seed=seed
    )
    scheduler = ContextScheduler(per_core, config.switch_interval_cycles)
    drive(system, scheduler, accesses)
    return config, system, scheduler


def drive(system, scheduler, accesses):
    """Run ``accesses`` more accesses, four per core per round."""
    executed = 0
    while executed < accesses:
        for core_id in range(len(system.cores)):
            context = scheduler.current(core_id)
            for _ in range(4):
                va, is_write = next(context.stream)
                context.ensure_mapped(va)
                system.access(core_id, context.asid, va, is_write)
            context.consumed += 4
            scheduler.maybe_switch(
                core_id, system.cores[core_id].stats.cycles
            )
        executed += 4 * len(system.cores)


class TestSystemRoundtrip:
    @pytest.mark.parametrize("replacement", REPLACEMENTS)
    def test_fresh_system_reproduces_state(self, replacement):
        config, system, _ = exercised_system(replacement)
        state = system.state_dict()
        clone = System(config)
        clone.load_state(state)
        assert clone.state_dict() == state

    def test_scheduler_roundtrip(self):
        config, _, scheduler = exercised_system()
        state = scheduler.state_dict()
        fresh_system = System(config)
        fresh = ContextScheduler(
            build_contexts(
                fresh_system,
                make_mix("gups", config.num_vms, scale=0.25),
                seed=3,
            ),
            config.switch_interval_cycles,
        )
        fresh.load_state(state)
        assert fresh.state_dict() == state

    def test_load_rejects_wrong_shape(self):
        config, system, _ = exercised_system()
        state = system.state_dict()
        other = System(small_config(
            scheme=Scheme.CSALT_CD, cores=4, contexts_per_core=2
        ))
        with pytest.raises(ValueError):
            other.load_state(state)


class TestComponentRoundtrip:
    """Each structure individually, driven by hypothesis-shaped traffic."""

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(addresses, st.booleans(), st.booleans()),
                    min_size=1, max_size=120))
    def test_cache_roundtrip_all_policies(self, accesses):
        for replacement in REPLACEMENTS:
            cache = Cache("l2", 64 * 1024, 4, latency=12,
                          policy=replacement)
            for address, is_tlb, is_write in accesses:
                kind = LineKind.TLB if is_tlb else LineKind.DATA
                if not cache.lookup(address, kind, is_write=is_write):
                    cache.fill(address, kind, dirty=is_write)
            state = cache.state_dict()
            clone = Cache("l2", 64 * 1024, 4, latency=12,
                          policy=replacement)
            clone.load_state(state)
            assert clone.state_dict() == state

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(asids, addresses), min_size=1, max_size=80))
    def test_tlb_roundtrip(self, inserts):
        tlb = Tlb("l2tlb", 96, 12, 17)
        for asid, va in inserts:
            tlb.insert(asid, va, TlbEntry(va >> 12, PAGE_4K_BITS))
        state = tlb.state_dict()
        clone = Tlb("l2tlb", 96, 12, 17)
        clone.load_state(state)
        assert clone.state_dict() == state

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(asids, addresses), min_size=1, max_size=80))
    def test_pom_tlb_roundtrip(self, inserts):
        pom = PomTlb(size_bytes=1 << 20)
        for asid, va in inserts:
            pom.insert(asid, va, TlbEntry(va >> 12, PAGE_4K_BITS))
        state = pom.state_dict()
        clone = PomTlb(size_bytes=1 << 20)
        clone.load_state(state)
        assert clone.state_dict() == state

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(asids, addresses), min_size=1, max_size=60))
    def test_psc_roundtrip(self, touches):
        psc = PagingStructureCache(PscConfig())
        for asid, va in touches:
            psc.probe_level(asid, va)
            psc.install(asid, va, 3)
        state = psc.state_dict()
        clone = PagingStructureCache(PscConfig())
        clone.load_state(state)
        assert clone.state_dict() == state

    @settings(max_examples=10, deadline=None)
    @given(st.lists(addresses, min_size=1, max_size=60))
    def test_dram_roundtrip(self, reads):
        channel = DramChannel(DDR4_2133)
        for address in reads:
            channel.access(address)
        state = channel.state_dict()
        clone = DramChannel(DDR4_2133)
        clone.load_state(state)
        assert clone.state_dict() == state

    def test_geometry_mismatch_rejected(self):
        cache = Cache("l2", 64 * 1024, 4, latency=12)
        bigger = Cache("l2", 128 * 1024, 4, latency=12)
        with pytest.raises(ValueError):
            bigger.load_state(cache.state_dict())

    def test_tsb_from_state_skips_allocator(self):
        tsb = Tsb("guest-tsb", base_address=0x7000_0000, num_entries=1024)
        for vpn in range(50):
            tsb.insert(
                Asid(vm_id=0, process_id=0),
                vpn << PAGE_4K_BITS,
                TlbEntry(vpn + 7, PAGE_4K_BITS),
            )
        state = tsb.state_dict()
        clone = Tsb.from_state(state)
        assert clone.base_address == tsb.base_address
        assert clone.state_dict() == state


class TestRestoredRunEquivalence:
    """ISSUE satellite: restored+continued == uninterrupted on a tier-1
    quick config (the heavier two-policy oracle lives in
    test_checkpoint.py)."""

    def test_quick_config(self, tmp_path):
        from repro.checkpoint import list_checkpoints
        from repro.experiments.store import strip_host_fields

        config = small_config(
            scheme=Scheme.POM_TLB, cores=2, contexts_per_core=2
        )
        mix = lambda: make_mix("canneal", config.num_vms, scale=0.25)
        baseline = run_simulation(
            config, mix(), total_accesses=3_000, seed=11
        )
        run_simulation(
            config, mix(), total_accesses=3_000, seed=11,
            checkpoint_every=1_000, checkpoint_dir=tmp_path,
        )
        resumed = run_simulation(
            config, mix(), total_accesses=3_000, seed=11,
            checkpoint_dir=tmp_path,
            restore=list_checkpoints(tmp_path)[0],
        )
        assert strip_host_fields(resumed.to_dict()) == strip_host_fields(
            baseline.to_dict()
        )

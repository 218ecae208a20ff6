"""Integration tests: cross-module behaviour on small end-to-end runs.

These assert the *directional* claims of the paper on miniature runs:
POM-TLB eliminates page walks, context switching raises TLB miss rates,
CSALT partitions react to traffic, and ASIDs isolate address spaces.
"""

from repro.core.schemes import Scheme
from repro.mem.address import Asid
from repro.sim.config import small_config
from repro.sim.engine import run_simulation
from repro.sim.system import System
from repro.workloads.mixes import make_mix

RUN = dict(total_accesses=24_000, warmup_fraction=0.25)


def run(scheme, mix="gups", contexts=2, **overrides):
    # Short runs need a short quantum so several context switches land
    # inside the measured window (time_scale is the scaling knob).
    overrides.setdefault("time_scale", 1 / 512)
    config = small_config(
        scheme=scheme, cores=2, contexts_per_core=contexts, **overrides
    )
    return run_simulation(
        config, make_mix(mix, contexts=contexts, scale=0.25), **RUN
    )


class TestPaperDirections:
    def test_pom_eliminates_most_walks(self):
        conventional = run(Scheme.CONVENTIONAL)
        pom = run(Scheme.POM_TLB)
        assert pom.page_walks < conventional.page_walks
        assert pom.walks_eliminated_fraction > 0.5

    def test_context_switching_raises_tlb_mpki(self):
        switched = run(Scheme.CONVENTIONAL, contexts=2)
        alone = run(Scheme.CONVENTIONAL, contexts=1)
        assert switched.l2_tlb_mpki > alone.l2_tlb_mpki

    def test_virtualized_walks_cost_more(self):
        # ccomp's scattered strays force walks even in a single context.
        virtualized = run(Scheme.CONVENTIONAL, mix="ccomp", contexts=1)
        native = run(
            Scheme.CONVENTIONAL, mix="ccomp", contexts=1, virtualized=False
        )
        assert virtualized.page_walks > 0
        assert virtualized.walk_mean_cycles > native.walk_mean_cycles

    def test_caches_hold_tlb_entries_under_pom(self):
        pom = run(Scheme.POM_TLB, mix="ccomp")
        assert pom.mean_l3_tlb_occupancy > 0.02

    def test_csalt_partitions_move(self):
        result = run(Scheme.CSALT_CD, mix="ccomp")
        shares = {fraction for _, fraction in result.l3_partition_timeline}
        assert len(shares) >= 1
        assert all(0.0 < share < 1.0 for share in shares)

    def test_tsb_slower_than_pom(self):
        tsb = run(Scheme.TSB, mix="ccomp")
        pom = run(Scheme.POM_TLB, mix="ccomp")
        assert tsb.ipc <= pom.ipc * 1.05  # TSB never meaningfully wins


class TestAsidIsolation:
    def test_same_va_different_vm_translates_differently(self):
        config = small_config(scheme=Scheme.POM_TLB, cores=1,
                              contexts_per_core=2)
        system = System(config)
        va = 0x9000
        system.vms[0].ensure_mapped(0, va)
        system.vms[1].ensure_mapped(0, va)
        core = system.cores[0]
        _, entry0 = system.translate_beyond_l1(core, Asid(0, 0), va)
        _, entry1 = system.translate_beyond_l1(core, Asid(1, 0), va)
        assert entry0.frame_base != entry1.frame_base

    def test_tlb_entries_survive_context_switch(self):
        """ASID tagging: returning context finds its entries (no flush)."""
        config = small_config(scheme=Scheme.POM_TLB, cores=1,
                              contexts_per_core=2)
        system = System(config)
        system.vms[0].ensure_mapped(0, 0x9000)
        core = system.cores[0]
        system.translate_beyond_l1(core, Asid(0, 0), 0x9000)
        # "Run" the other VM briefly on this core.
        system.vms[1].ensure_mapped(0, 0x4000)
        system.translate_beyond_l1(core, Asid(1, 0), 0x4000)
        walks_before = core.stats.page_walks
        system.translate_beyond_l1(core, Asid(0, 0), 0x9000)
        assert core.stats.page_walks == walks_before


class TestSchemeEquivalences:
    def test_all_schemes_complete_and_account(self):
        for scheme in Scheme:
            result = run(scheme, mix="can_ccomp")
            assert result.instructions > 0, scheme
            assert result.ipc > 0, scheme

    def test_csalt_static_partitions_fixed(self):
        config = small_config(
            scheme=Scheme.CSALT_STATIC, cores=2, static_data_ways=3
        )
        system = System(config)
        assert system.l3.data_ways == 3
        assert system.cores[0].l2.data_ways == 3

    def test_replacement_policies_run_end_to_end(self):
        for replacement in ("lru", "nru", "plru"):
            result = run(
                Scheme.CSALT_CD, mix="gups", replacement=replacement,
                estimate_positions=(replacement != "lru"),
            )
            assert result.ipc > 0, replacement

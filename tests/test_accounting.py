"""Cycle accounting: the per-component ledger and its sum invariant.

The tentpole guarantee under test: for every scheme x replacement
combination, the per-component cycle attributions sum **bit-exactly**
(``==``, no tolerance) to each core's cycle counter.
"""

import pytest

from repro.checkpoint import (
    latest_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.schemes import Scheme
from repro.experiments.store import strip_host_fields
from repro.mem.address import Asid
from repro.mem.cache import LineKind
from repro.sim.config import small_config
from repro.sim.engine import run_simulation
from repro.sim.stats import SimulationResult
from repro.sim.system import System
from repro.telemetry import CycleAccountant, Telemetry
from repro.telemetry.accounting import (
    CYCLE_QUANTUM,
    CpiStack,
    component_sort_key,
    merge_components,
    quantize_cycles,
)
from repro.validate import InvariantChecker
from repro.workloads.mixes import make_mix


def run_with_accounting(scheme, replacement="lru", accesses=3000,
                        mix="gups", **overrides):
    telemetry = Telemetry(accounting=CycleAccountant())
    config = small_config(scheme=scheme, replacement=replacement, **overrides)
    result = run_simulation(
        config, make_mix(mix), total_accesses=accesses,
        workload_name=mix, telemetry=telemetry,
    )
    return result, telemetry


class TestQuantization:
    def test_quantum_is_dyadic(self):
        assert CYCLE_QUANTUM == 2.0 ** -10

    def test_quantize_exact_on_integers(self):
        for value in (0, 1, 7, 1000):
            assert quantize_cycles(value) == value

    def test_quantize_rounds_to_grid(self):
        value = quantize_cycles(0.65 * 3)
        assert value * 1024 == round(value * 1024)
        assert abs(value - 1.95) < CYCLE_QUANTUM

    def test_sum_of_quanta_is_exact(self):
        # The rationale for the whole scheme: dyadic increments
        # accumulate without rounding error in any order.
        increment = quantize_cycles(1.95)
        total = 0.0
        for _ in range(10_000):
            total += increment
        assert total == increment * 10_000


class TestSumInvariantMatrix:
    """Acceptance criterion: exact attribution across the full matrix."""

    @pytest.mark.parametrize("replacement", ["lru", "nru", "plru"])
    @pytest.mark.parametrize("scheme", [
        Scheme.CONVENTIONAL,
        Scheme.POM_TLB,
        Scheme.CSALT_D,
        Scheme.CSALT_CD,
    ])
    def test_components_sum_exactly_to_cycles(self, scheme, replacement):
        result, _ = run_with_accounting(scheme, replacement)
        stack = result.cpi_stack
        assert stack is not None
        # Whole-run total, bit-exact.
        total_cycles = sum(core.cycles for core in result.per_core)
        assert stack.total_cycles == total_cycles
        assert sum(stack.components.values()) == total_cycles
        # Per core, bit-exact.
        assert len(stack.per_core) == len(result.per_core)
        for core_stack, core in zip(stack.per_core, result.per_core):
            assert sum(core_stack.values()) == core.cycles
        # Residual bucket stays empty: every cycle has a real name.
        assert stack.components.get("translation.other", 0.0) == 0.0

    def test_tsb_scheme_sums_exactly(self):
        result, _ = run_with_accounting(Scheme.TSB)
        stack = result.cpi_stack
        assert sum(stack.components.values()) == sum(
            core.cycles for core in result.per_core
        )
        assert any(name.startswith("tsb.") for name in stack.components)

    def test_virtualized_walks_attributed(self):
        result, _ = run_with_accounting(Scheme.CONVENTIONAL)
        names = set(result.cpi_stack.components)
        assert any(name.startswith("walk.nested") for name in names)
        assert "base" in names

    def test_per_vm_totals_match_grand_total(self):
        # A tiny switch quantum forces both VM contexts to run.
        result, _ = run_with_accounting(
            Scheme.CSALT_CD, switch_interval_ms=0.05
        )
        stack = result.cpi_stack
        per_vm_total = sum(
            sum(vm_stack.values()) for vm_stack in stack.per_vm.values()
        )
        assert per_vm_total == stack.total_cycles
        assert len(stack.per_vm) >= 2  # both contexts charged

    def test_switching_mix_sums_exactly(self):
        # A longer can_ccomp run under a 0.05 ms quantum switches contexts
        # often; the stack must still sum to the cores' cycles exactly.
        result, _ = run_with_accounting(
            Scheme.CSALT_CD, accesses=6000, mix="can_ccomp",
            switch_interval_ms=0.05,
        )
        stack = result.cpi_stack
        assert sum(stack.components.values()) == stack.total_cycles
        assert stack.total_cycles == sum(
            core.cycles for core in result.per_core
        )


def drive(system, accesses=400, core_id=0, vm_id=0):
    """Deterministic access pattern touching enough pages to miss TLBs."""
    asid = Asid(vm_id, 0)
    for index in range(accesses):
        address = 0x1000 * (index % 60) + (index * 64) % 4096
        system.vms[vm_id].ensure_mapped(0, address)
        system.access(core_id, asid, address, is_write=(index % 7 == 0))


class TestValidatorIntegration:
    def make_system(self):
        telemetry = Telemetry(accounting=CycleAccountant())
        system = System(small_config(scheme=Scheme.CSALT_CD),
                        telemetry=telemetry)
        drive(system)
        return system

    def test_sweep_clean_on_live_system(self):
        system = self.make_system()
        assert InvariantChecker(system).sweep() == []

    def test_sweep_catches_tampered_ledger(self):
        system = self.make_system()
        stacks = system.accounting._stacks
        key = next(iter(stacks))
        component = next(iter(stacks[key]))
        stacks[key][component] += 123.0
        violations = InvariantChecker(system).sweep()
        assert any(v.component.startswith("accounting:") for v in violations)

    def test_unsynced_accountant_is_skipped(self):
        system = self.make_system()
        stacks = system.accounting._stacks
        key = next(iter(stacks))
        component = next(iter(stacks[key]))
        stacks[key][component] += 123.0
        system.accounting.mark_unsynced()
        assert not any(
            v.component.startswith("accounting:")
            for v in InvariantChecker(system).sweep()
        )

    def test_system_without_telemetry_audits_own_ledger(self):
        system = System(small_config(scheme=Scheme.POM_TLB))
        drive(system)
        assert system.accounting.synced
        assert system.result().cpi_stack is not None
        assert InvariantChecker(system).sweep() == []
        stacks = system.accounting._stacks
        key = next(iter(stacks))
        stacks[key]["base"] += 1.0
        violations = InvariantChecker(system).sweep()
        assert any(v.component.startswith("accounting:") for v in violations)


class TestCheckpointRestore:
    def test_state_round_trips_through_snapshot(self):
        telemetry = Telemetry(accounting=CycleAccountant())
        system = System(small_config(scheme=Scheme.POM_TLB),
                        telemetry=telemetry)
        drive(system, accesses=300)
        state = system.state_dict()
        before = dict(system.accounting.component_totals())

        # Restore into a *fresh* system sharing the telemetry bundle
        # (the engine restores in place; this is the stronger variant).
        fresh = System(small_config(scheme=Scheme.POM_TLB),
                       telemetry=telemetry)
        fresh.load_state(state)
        assert fresh.accounting.synced
        assert fresh.accounting.component_totals() == before
        assert InvariantChecker(fresh).sweep() == []

    def test_legacy_snapshot_marks_unsynced(self):
        telemetry = Telemetry(accounting=CycleAccountant())
        system = System(small_config(scheme=Scheme.POM_TLB),
                        telemetry=telemetry)
        drive(system, accesses=100)
        state = system.state_dict()
        state.pop("accounting")  # pre-accounting snapshot
        system.load_state(state)
        assert not system.accounting.synced
        assert system.result().cpi_stack is None

    @staticmethod
    def run_gups(**kwargs):
        return run_simulation(small_config(scheme=Scheme.CSALT_CD),
                              make_mix("gups"), total_accesses=2400, seed=5,
                              **kwargs)

    def test_telemetry_free_checkpoint_restores_synced(self, tmp_path):
        full = self.run_gups()
        self.run_gups(checkpoint_every=800, checkpoint_dir=tmp_path)
        resumed = self.run_gups(checkpoint_dir=tmp_path, restore="auto")
        assert resumed.cpi_stack is not None
        assert resumed.cpi_stack == full.cpi_stack

    def test_ledger_free_checkpoint_still_loads(self, tmp_path):
        # Plain runs used to snapshot ``"accounting": None``.
        full = self.run_gups()
        self.run_gups(checkpoint_every=800, checkpoint_dir=tmp_path)
        path = latest_checkpoint(tmp_path)
        document, header = read_checkpoint(path)
        document["system"]["accounting"] = None
        write_checkpoint(path, document,
                         meta={"executed": header["executed"]})
        resumed = strip_host_fields(
            self.run_gups(checkpoint_dir=tmp_path, restore="auto").to_dict()
        )
        expected = strip_host_fields(full.to_dict())
        assert resumed.pop("cpi_stack") is None
        expected.pop("cpi_stack")
        assert resumed == expected

    def test_engine_checkpoint_restore_keeps_ledger_exact(self, tmp_path):
        config = small_config(scheme=Scheme.CSALT_CD)
        workloads = make_mix("gups")
        telemetry = Telemetry(accounting=CycleAccountant())
        full = run_simulation(config, workloads, total_accesses=2400,
                              seed=5, telemetry=telemetry)
        # Interrupted variant: checkpoint, then resume from disk.
        telemetry2 = Telemetry(accounting=CycleAccountant())
        run_simulation(config, make_mix("gups"), total_accesses=2400,
                       seed=5, telemetry=telemetry2,
                       checkpoint_every=800, checkpoint_dir=tmp_path)
        telemetry3 = Telemetry(accounting=CycleAccountant())
        resumed = run_simulation(config, make_mix("gups"),
                                 total_accesses=2400, seed=5,
                                 telemetry=telemetry3,
                                 checkpoint_dir=tmp_path, restore="auto")
        assert resumed.cpi_stack is not None
        assert resumed.cpi_stack.components == full.cpi_stack.components
        assert sum(resumed.cpi_stack.components.values()) == sum(
            core.cycles for core in resumed.per_core
        )


class TestCpiStack:
    def stack(self):
        return CpiStack(
            scheme="csalt-cd",
            instructions=1000,
            total_cycles=2600.0,
            components={"base": 650.0, "data.dram": 1800.0,
                        "pom.l3": 150.0},
            per_core=[{"base": 650.0, "data.dram": 1800.0, "pom.l3": 150.0}],
            per_vm={"0": {"base": 650.0, "data.dram": 1800.0,
                          "pom.l3": 150.0}},
        )

    def test_cpi_math(self):
        stack = self.stack()
        assert stack.cpi_total == 2.6
        assert stack.cpi("base") == 0.65
        assert stack.cpi("missing") == 0.0

    def test_sorted_components_group_order(self):
        stack = self.stack()
        assert stack.sorted_components() == ["base", "pom.l3", "data.dram"]
        assert component_sort_key("base") < component_sort_key("tlb.l2tlb")
        assert component_sort_key("pom.l2") < component_sort_key("pom.dram")

    def test_group_totals(self):
        groups = self.stack().group_totals()
        assert groups == {"base": 650.0, "data": 1800.0, "pom": 150.0}

    def test_rows_share_sums_to_one(self):
        rows = self.stack().rows()
        assert sum(share for _, _, _, share in rows) == pytest.approx(1.0)

    def test_waterfall_renders_all_components(self):
        text = self.stack().waterfall()
        for name in ("base", "data.dram", "pom.l3", "total"):
            assert name in text
        assert "csalt-cd" in text
        assert "#" in text

    def test_waterfall_negative_component(self):
        stack = self.stack()
        stack.components["data.mlp_credit"] = -1800.0
        assert "-" in stack.waterfall().splitlines()[-2]

    def test_delta(self):
        a = self.stack()
        b = self.stack()
        b.components = dict(b.components, **{"pom.l3": 50.0})
        rows = dict(
            (name, diff) for name, _, _, diff in a.delta(b)
        )
        assert rows["pom.l3"] == pytest.approx(-0.1)
        assert rows["base"] == 0.0

    def test_round_trip(self):
        stack = self.stack()
        clone = CpiStack.from_dict(stack.to_dict())
        assert clone == stack

    def test_result_round_trip_carries_stack(self):
        result, _ = run_with_accounting(Scheme.POM_TLB, accesses=1500)
        clone = SimulationResult.from_dict(result.to_dict())
        assert clone.cpi_stack == result.cpi_stack

    def test_merge_components(self):
        a = self.stack()
        b = self.stack()
        instructions, components = merge_components([a, b])
        assert instructions == 2000
        assert components["base"] == 1300.0


def memory_datapath():
    """A fresh System's core 0 and ledger, charging (core 0, VM 0)."""
    system = System(small_config(scheme=Scheme.CONVENTIONAL))
    system.accounting.begin(0, 0)
    return system, system.cores[0], system.accounting


class TestAccountantMechanics:
    def test_context_suppression(self):
        system, core, acct = memory_datapath()
        saved = acct.context(None)
        latency = system._mem_from_l2(core, 0x4000, LineKind.DATA, False)
        acct.restore(saved)
        assert latency > 0
        assert acct.charged == 0.0
        assert acct.component_totals() == {}

    def test_split_vs_flat_context(self):
        system, core, acct = memory_datapath()
        l2, l3 = core.l2.latency, system.l3.latency
        # Cold lines: each reference misses L2 and L3 and reads DRAM.
        acct.context("pom", split=True)
        split = system._mem_from_l2(core, 0x4000, LineKind.TLB, False)
        acct.context("walk.l2")
        flat = system._mem_from_l2(core, 0x8000, LineKind.TLB, False)
        assert acct.component_totals() == {
            "pom.l2": l2, "pom.l3": l3, "pom.dram": split - l2 - l3,
            "walk.l2": flat,
        }
        assert acct.charged == split + flat

    def test_context_names_built_once(self):
        acct = CycleAccountant()
        assert acct.context("pom", split=True) is None
        names = acct.context("pom", split=True)
        assert names == ("pom.l2", "pom.l3", "pom.dram", "pom.ntlb")
        assert acct.context(None) is names  # the same tuple, not a rebuilt one

    def test_reset_clears_everything(self):
        acct = CycleAccountant()
        acct.begin(0, 0)
        acct.charge("base", 1.0)
        acct.mark_unsynced()
        acct.reset()
        assert acct.charged == 0.0
        assert acct.synced
        assert acct.component_totals() == {}

"""Unit tests for the MSHR/MLP overlap model."""

import pytest

from repro.core.schemes import Scheme
from repro.mem.address import Asid
from repro.mem.mshr import MshrModel
from repro.sim.config import small_config
from repro.sim.system import System
from repro.telemetry.accounting import quantize_cycles


class TestValidation:
    def test_entries_positive(self):
        with pytest.raises(ValueError):
            MshrModel(entries=0)

    def test_mlp_at_least_one(self):
        with pytest.raises(ValueError):
            MshrModel(workload_mlp=0.5)


class TestMlpEstimate:
    def test_starts_at_one(self):
        assert MshrModel().mlp == pytest.approx(1.0)

    def test_all_misses_approach_cap(self):
        model = MshrModel(entries=10, workload_mlp=4.0)
        for _ in range(1000):
            model.observe(100)
        assert model.mlp == pytest.approx(4.0, abs=0.05)

    def test_cap_is_min_of_entries_and_workload(self):
        assert MshrModel(entries=2, workload_mlp=8.0).mlp_cap == 2.0
        assert MshrModel(entries=16, workload_mlp=3.0).mlp_cap == 3.0

    def test_hits_pull_estimate_down(self):
        model = MshrModel()
        for _ in range(500):
            model.observe(100)
        high = model.mlp
        for _ in range(500):
            model.observe(0)
        assert model.mlp < high

    def test_stall_uses_the_updated_mlp(self):
        """A miss's stall divides by the MLP the miss itself raised."""
        model = MshrModel(entries=10, workload_mlp=6.0)
        for miss_latency in [0, 250, 250, 0, 90, 0, 0, 400] * 20:
            stall = model.observe(miss_latency)
            expected = (
                quantize_cycles(miss_latency / model.mlp) if miss_latency
                else 0.0
            )
            assert stall == expected

    def test_mlp_bounded(self):
        model = MshrModel(entries=10, workload_mlp=6.0)
        for miss_latency in [100, 0] * 200:
            model.observe(miss_latency)
            assert 1.0 <= model.mlp <= 6.0


class TestStalls:
    def test_translation_charged_in_full(self):
        """Translation bypasses the MSHRs: even with the overlap model
        saturated, a TLB miss stalls the core for its full latency while
        the data miss behind it is discounted."""
        system = System(small_config(scheme=Scheme.CONVENTIONAL, cores=1))
        core = system.cores[0]
        core.mshr._miss_rate = 1.0
        system.vms[0].ensure_mapped(0, 0x5000)
        system.access(0, Asid(0, 0), 0x5000, is_write=False)
        components = system.accounting.component_totals()
        raw_translation = sum(
            cycles for name, cycles in components.items()
            if name.startswith(("tlb.", "walk."))
        )
        raw_data = sum(
            cycles for name, cycles in components.items()
            if name in ("data.l2", "data.l3", "data.dram")
        )
        assert raw_translation > 0
        assert core.stats.translation_stall_cycles == raw_translation
        assert 0 < core.stats.data_stall_cycles < raw_data

    def test_hit_stalls_nothing(self):
        model = MshrModel()
        assert model.observe(0) == 0.0
        assert model.miss_rate == 0.0

    def test_data_stall_divided_by_mlp(self):
        model = MshrModel(entries=10, workload_mlp=4.0)
        for _ in range(2000):
            model.observe(400)
        assert model.observe(400) == pytest.approx(100, rel=0.05)

    def test_isolated_miss_charged_nearly_full(self):
        model = MshrModel()
        for _ in range(1000):
            model.observe(0)
        assert model.observe(100) > 90

    def test_reset(self):
        model = MshrModel()
        for _ in range(100):
            model.observe(100)
        model.reset()
        assert model.mlp == pytest.approx(1.0)

"""Unit tests for the simulation driver."""

import pytest

from repro.core.schemes import Scheme
from repro.errors import ConfigError
from repro.sim.config import small_config
from repro.sim.engine import build_contexts, run_simulation
from repro.sim.system import System
from repro.workloads.mixes import make_mix

RUN = dict(total_accesses=2_000, warmup_fraction=0.0)


def fast_config(**overrides):
    overrides.setdefault("cores", 2)
    overrides.setdefault("scheme", Scheme.POM_TLB)
    return small_config(**overrides)


class TestValidation:
    def test_workload_count_must_match_vms(self):
        config = fast_config(contexts_per_core=2)
        with pytest.raises(ValueError, match="VM workloads"):
            run_simulation(config, make_mix("gups", scale=0.25)[:1], **RUN)

    def test_positive_accesses(self):
        config = fast_config()
        with pytest.raises(ValueError):
            run_simulation(config, make_mix("gups", scale=0.25),
                           total_accesses=0)

    def test_warmup_fraction_range(self):
        config = fast_config()
        with pytest.raises(ValueError):
            run_simulation(config, make_mix("gups", scale=0.25),
                           total_accesses=100, warmup_fraction=1.0)

    @pytest.mark.parametrize("timeout", [0, -1.0])
    def test_watchdog_timeout_must_be_positive(self, timeout):
        with pytest.raises(ConfigError, match="watchdog_timeout"):
            run_simulation(fast_config(), make_mix("gups", scale=0.25),
                           watchdog_timeout=timeout, **RUN)


class TestBuildContexts:
    def test_one_context_per_core_per_vm(self):
        config = fast_config(contexts_per_core=2)
        system = System(config)
        contexts = build_contexts(system, make_mix("gups", scale=0.25))
        assert len(contexts) == config.cores
        assert all(len(core_contexts) == 2 for core_contexts in contexts)

    def test_asids_by_vm(self):
        config = fast_config(contexts_per_core=2)
        system = System(config)
        contexts = build_contexts(system, make_mix("gups", scale=0.25))
        assert contexts[0][0].asid.vm_id == 0
        assert contexts[0][1].asid.vm_id == 1


class TestRun:
    def test_instruction_accounting(self):
        config = fast_config()
        result = run_simulation(config, make_mix("gups", scale=0.25), **RUN)
        per_access = 1 + config.nonmem_per_mem
        assert result.instructions == pytest.approx(
            2_000 * per_access, rel=0.05
        )
        assert result.ipc > 0

    def test_deterministic_for_seed(self):
        config = fast_config()
        first = run_simulation(config, make_mix("gups", scale=0.25),
                               seed=7, **RUN)
        second = run_simulation(config, make_mix("gups", scale=0.25),
                                seed=7, **RUN)
        assert first.ipc == second.ipc
        assert first.l2_tlb_misses == second.l2_tlb_misses

    def test_seed_changes_streams(self):
        config = fast_config()
        first = run_simulation(config, make_mix("gups", scale=0.25),
                               seed=1, **RUN)
        second = run_simulation(config, make_mix("gups", scale=0.25),
                                seed=2, **RUN)
        assert first.per_core[0].cycles != second.per_core[0].cycles

    def test_context_switches_happen(self):
        config = fast_config(time_scale=1 / 4000)
        result = run_simulation(
            config, make_mix("gups", scale=0.25),
            total_accesses=8_000, warmup_fraction=0.0,
        )
        assert result.extra["context_switches"] > 0

    def test_single_context_never_switches(self):
        config = fast_config(contexts_per_core=1)
        result = run_simulation(
            config, make_mix("gups", contexts=1, scale=0.25), **RUN
        )
        assert result.extra["context_switches"] == 0

    def test_warmup_resets_counters(self):
        config = fast_config()
        warm = run_simulation(
            config, make_mix("gups", scale=0.25),
            total_accesses=2_000, warmup_fraction=0.5,
        )
        assert warm.per_core[0].memory_accesses <= 1_000 // config.cores + 8

    def test_occupancy_samples_collected(self):
        config = fast_config()
        result = run_simulation(
            config, make_mix("gups", scale=0.25),
            total_accesses=4_000, warmup_fraction=0.0, occupancy_samples=4,
        )
        assert len(result.occupancy_samples) >= 2

    def test_workload_name_default(self):
        config = fast_config()
        result = run_simulation(config, make_mix("can_ccomp", scale=0.25), **RUN)
        assert result.workload == "canneal+ccomp"

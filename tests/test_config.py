"""Unit tests for system configuration."""

import pytest

from repro.core.schemes import Scheme
from repro.errors import ConfigError, exit_code_for
from repro.mem.replacement import POLICY_BY_NAME
from repro.sim.config import (
    CYCLES_PER_MS,
    CacheConfig,
    SystemConfig,
    TlbConfig,
    small_config,
)


class TestDefaults:
    def test_table2_processor(self):
        config = SystemConfig()
        assert config.cores == 8
        assert config.l1d == CacheConfig(32 * 1024, 8, 4)
        assert config.l2 == CacheConfig(256 * 1024, 4, 12)
        assert config.l3 == CacheConfig(8 * 1024 * 1024, 16, 42)

    def test_table2_mmu(self):
        tlb = SystemConfig().tlb
        assert (tlb.l1_4k_entries, tlb.l1_2m_entries) == (64, 32)
        assert tlb.l1_latency == 9
        assert (tlb.l2_entries, tlb.l2_ways, tlb.l2_latency) == (1536, 12, 17)

    def test_table2_psc(self):
        psc = SystemConfig().psc
        assert (psc.pml4_entries, psc.pdp_entries, psc.pde_entries) == (2, 4, 32)
        assert psc.latency == 2

    def test_pom_is_16mb(self):
        assert SystemConfig().pom_tlb_bytes == 16 * 1024 * 1024


class TestDerived:
    def test_switch_interval_cycles(self):
        config = SystemConfig(switch_interval_ms=10.0, time_scale=1.0)
        assert config.switch_interval_cycles == 10 * CYCLES_PER_MS
        scaled = SystemConfig(switch_interval_ms=10.0, time_scale=1 / 400)
        assert scaled.switch_interval_cycles == 100_000

    def test_num_vms_tracks_contexts(self):
        assert SystemConfig(contexts_per_core=4).num_vms == 4

    def test_with_scheme(self):
        config = SystemConfig(scheme=Scheme.POM_TLB)
        other = config.with_scheme(Scheme.CSALT_CD)
        assert other.scheme is Scheme.CSALT_CD
        assert other.l3 == config.l3
        assert config.scheme is Scheme.POM_TLB  # frozen original untouched


class TestSmallConfig:
    def test_quarter_scale_capacities(self):
        config = small_config()
        assert config.l3.size_bytes == SystemConfig().l3.size_bytes // 4
        assert config.pom_tlb_bytes == SystemConfig().pom_tlb_bytes // 4
        assert config.tlb.l2_entries == SystemConfig().tlb.l2_entries // 4

    def test_latencies_unchanged(self):
        config = small_config()
        assert config.l3.latency == 42
        assert config.tlb.l2_latency == 17

    def test_overrides_pass_through(self):
        config = small_config(scheme=Scheme.TSB, cores=2)
        assert config.scheme is Scheme.TSB
        assert config.cores == 2


class TestValidation:
    def test_cores_positive(self):
        with pytest.raises(ValueError):
            SystemConfig(cores=0)

    def test_contexts_positive(self):
        with pytest.raises(ValueError):
            SystemConfig(contexts_per_core=0)

    def test_time_scale_positive(self):
        with pytest.raises(ValueError):
            SystemConfig(time_scale=0.0)

    def test_switch_interval_positive(self):
        with pytest.raises(ValueError):
            SystemConfig(switch_interval_ms=-1.0)

    def test_page_table_levels_restricted(self):
        with pytest.raises(ValueError):
            SystemConfig(page_table_levels=3)
        assert SystemConfig(page_table_levels=5).page_table_levels == 5

    def test_base_cpi_positive(self):
        with pytest.raises(ValueError):
            SystemConfig(base_cpi=0.0)


class TestRobustnessValidation:
    """New checks: checkpoint cadences, PLRU geometry, partition minima."""

    def test_checkpoint_every_must_be_positive(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            SystemConfig(checkpoint_every=0)
        assert SystemConfig(checkpoint_every=1_000).checkpoint_every == 1_000

    def test_check_invariants_must_be_positive(self):
        with pytest.raises(ValueError, match="check_invariants"):
            SystemConfig(check_invariants=-5)

    def test_unknown_replacement_is_a_config_error(self):
        # Rejected when the config is built (exit 2), not later when the
        # System builds its caches.
        with pytest.raises(ConfigError, match="replacement") as info:
            SystemConfig(replacement="belady")
        assert exit_code_for(info.value) == 2
        for name in POLICY_BY_NAME:
            assert SystemConfig(replacement=name).replacement == name

    def test_plru_requires_power_of_two_ways(self):
        with pytest.raises(ValueError, match="l3.ways"):
            SystemConfig(
                replacement="plru",
                l3=CacheConfig(6 * 1024 * 1024, 12, 42),
            )
        SystemConfig(replacement="plru")  # default 4/16 ways are fine

    def test_partitioning_needs_room_for_both_streams(self):
        with pytest.raises(ValueError, match="l2.ways"):
            SystemConfig(
                scheme=Scheme.CSALT_CD,
                l2=CacheConfig(64 * 1024, 1, 12),
            )

    def test_static_split_respects_n_min(self):
        with pytest.raises(ValueError, match="static_data_ways"):
            SystemConfig(scheme=Scheme.CSALT_STATIC, static_data_ways=0)

    def test_tlb_entries_divisible_by_ways(self):
        with pytest.raises(ValueError, match="tlb.l2_entries"):
            SystemConfig(tlb=TlbConfig(l2_entries=1000, l2_ways=12))

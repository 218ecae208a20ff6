"""Unit tests for the DRAM timing model."""

import pytest

from repro.mem.dram import DDR4_2133, DIE_STACKED, DramChannel, DramTiming


class TestTiming:
    def test_device_to_cpu_rounds_up(self):
        timing = DramTiming("t", 1000.0, 8, 2048, 10, 10, 10, 4)
        assert timing.device_to_cpu(1) == 4
        assert timing.device_to_cpu(1.1) == 5

    def test_burst_cycles(self):
        assert DDR4_2133.burst_cycles == pytest.approx(4.0)
        assert DIE_STACKED.burst_cycles == pytest.approx(2.0)

    def test_die_stacked_faster_than_ddr(self):
        die = DramChannel(DIE_STACKED)
        ddr = DramChannel(DDR4_2133)
        assert die.average_latency() < ddr.average_latency()


class TestChannel:
    def test_first_access_is_row_miss(self):
        channel = DramChannel(DDR4_2133)
        channel.access(0)
        assert channel.stats.row_misses == 1
        assert channel.stats.row_hits == 0

    def test_same_row_hits(self):
        channel = DramChannel(DDR4_2133)
        first = channel.access(0)
        second = channel.access(64)
        assert second < first
        assert channel.stats.row_hits == 1

    def test_row_conflict_costs_precharge(self):
        channel = DramChannel(DDR4_2133)
        banks = DDR4_2133.banks
        channel.access(0)
        cold = channel.access(2048)  # different bank, no open row
        conflict = channel.access(2048 * banks)  # same bank as row 0, conflict
        assert conflict > cold

    def test_distinct_banks_independent(self):
        channel = DramChannel(DDR4_2133)
        channel.access(0)
        channel.access(2048)
        channel.access(0)
        assert channel.stats.row_hits == 1

    def test_average_latency_between_hit_and_miss(self):
        channel = DramChannel(DDR4_2133)
        t = DDR4_2133
        hit = t.device_to_cpu(t.t_cas + t.burst_cycles)
        miss = t.device_to_cpu(t.t_rp + t.t_rcd + t.t_cas + t.burst_cycles)
        assert hit <= channel.average_latency() <= miss

    def test_reset_stats_keeps_rows_open(self):
        channel = DramChannel(DDR4_2133)
        channel.access(0)
        channel.reset_stats()
        channel.access(64)
        assert channel.stats.row_hits == 1

    def test_full_reset_closes_rows(self):
        channel = DramChannel(DDR4_2133)
        channel.access(0)
        channel.reset()
        channel.access(64)
        assert channel.stats.row_misses == 1

    def test_row_hit_rate(self):
        channel = DramChannel(DDR4_2133)
        assert channel.stats.row_hit_rate == 0.0
        channel.access(0)
        channel.access(64)
        assert channel.stats.row_hit_rate == pytest.approx(0.5)

    @pytest.mark.parametrize("timing", [DDR4_2133, DIE_STACKED])
    def test_latencies_match_device_timing(self, timing):
        """The channel's fixed latencies are the per-case timing sums."""
        burst = timing.burst_cycles
        row_hit = timing.device_to_cpu(timing.t_cas + burst)
        closed = timing.device_to_cpu(timing.t_cas + timing.t_rcd + burst)
        conflict = timing.device_to_cpu(
            timing.t_cas + timing.t_rcd + burst + timing.t_rp
        )
        channel = DramChannel(timing)
        row = timing.row_bytes
        assert channel.access(0) == closed
        assert channel.access(64) == row_hit
        assert channel.access(row * timing.banks) == conflict
        assert channel.stats.row_misses == 2

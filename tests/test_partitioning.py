"""Unit and property tests for CSALT partitioning (Algorithms 1-3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partitioning import (
    N_MIN,
    PartitionController,
    best_partition,
    marginal_utility,
    unit_weights,
)
from repro.mem.cache import Cache, LineKind


class TestMarginalUtility:
    def test_paper_figure5_style_example(self):
        """8-way cache, the Figure 5 LRU stacks, Eq. 1 arithmetic."""
        data = [3, 11, 12, 8, 9, 2, 1, 4, 10]
        tlb = [7, 10, 12, 5, 1, 0, 8, 15, 1]
        # MU(N) = sum(data[:N]) + sum(tlb[:8-N])
        assert marginal_utility(data, tlb, 4, 8) == 34 + 34
        assert marginal_utility(data, tlb, 5, 8) == 43 + 29
        assert marginal_utility(data, tlb, 6, 8) == 45 + 17
        assert marginal_utility(data, tlb, 7, 8) == 46 + 7

    def test_weights_scale_streams(self):
        data = [10, 0, 0]
        tlb = [4, 0, 0]
        unweighted = marginal_utility(data, tlb, 1, 2)
        weighted = marginal_utility(data, tlb, 1, 2, weight_data=1.0, weight_tlb=5.0)
        assert unweighted == 14
        assert weighted == 30

    def test_bounds_enforced(self):
        data = [1] * 5
        tlb = [1] * 5
        with pytest.raises(ValueError):
            marginal_utility(data, tlb, 0, 4)
        with pytest.raises(ValueError):
            marginal_utility(data, tlb, 4, 4)


counters = st.lists(
    st.integers(min_value=0, max_value=1000), min_size=9, max_size=9
)
weights = st.floats(min_value=0.5, max_value=20.0)


class TestBestPartition:
    def test_data_heavy_stream_wins_ways(self):
        data = [100, 90, 80, 70, 60, 50, 40, 30, 0]
        tlb = [5, 0, 0, 0, 0, 0, 0, 0, 100]
        assert best_partition(data, tlb, 8) == 7

    def test_tlb_heavy_stream_wins_ways(self):
        data = [5, 0, 0, 0, 0, 0, 0, 0, 100]
        tlb = [100, 90, 80, 70, 60, 50, 40, 30, 0]
        assert best_partition(data, tlb, 8) == 1

    def test_all_zero_ties_to_middle(self):
        assert best_partition([0] * 9, [0] * 9, 8) == 4

    def test_criticality_weight_flips_decision(self):
        # Both streams gain from every additional way; data gains a bit
        # more per way, so unweighted the data stream wins -- but a 10x
        # TLB criticality weight must flip the allocation.
        data = [10] * 8 + [0]
        tlb = [9] * 8 + [0]
        assert best_partition(data, tlb, 8, weight_tlb=1.0) == 8 - N_MIN
        assert best_partition(data, tlb, 8, weight_tlb=10.0) == N_MIN

    @given(counters, counters)
    @settings(max_examples=100)
    def test_matches_bruteforce_argmax(self, data, tlb):
        chosen = best_partition(data, tlb, 8)
        best_value = max(
            marginal_utility(data, tlb, n, 8) for n in range(1, 8)
        )
        assert marginal_utility(data, tlb, chosen, 8) == best_value

    @given(counters, counters, weights, weights)
    @settings(max_examples=100)
    def test_weighted_argmax_and_range(self, data, tlb, w_data, w_tlb):
        chosen = best_partition(data, tlb, 8, w_data, w_tlb)
        assert N_MIN <= chosen <= 8 - N_MIN
        best_value = max(
            marginal_utility(data, tlb, n, 8, w_data, w_tlb)
            for n in range(1, 8)
        )
        assert marginal_utility(data, tlb, chosen, 8, w_data, w_tlb) == (
            pytest.approx(best_value)
        )


def make_cache(ways=4, sets=8):
    return Cache("ctl-test", 64 * ways * sets, ways, latency=10)


class TestPartitionController:
    def test_initial_partition_is_half(self):
        cache = make_cache(ways=4)
        controller = PartitionController(cache, epoch_accesses=100)
        assert cache.data_ways == 2
        assert controller.timeline[0].data_ways == 2

    def test_epoch_must_be_positive(self):
        with pytest.raises(ValueError):
            PartitionController(make_cache(), epoch_accesses=0)

    def test_repartition_fires_at_epoch(self):
        cache = make_cache()
        controller = PartitionController(
            cache, epoch_accesses=10, sample_shift=0
        )
        for i in range(10):
            controller.observe(LineKind.DATA, 0, i % 2, hit=False)
        assert len(controller.timeline) == 2

    def test_tlb_reuse_wins_ways(self):
        cache = make_cache(ways=4)
        controller = PartitionController(
            cache, epoch_accesses=200, sample_shift=0
        )
        # TLB stream with strong reuse; data stream pure misses.
        for i in range(100):
            controller.observe(LineKind.TLB, 0, i % 3, hit=True)
            controller.observe(LineKind.DATA, 0, 1000 + i, hit=False)
        # TLB hits span stack positions 0-2, data contributes nothing:
        # the TLB side must hold at least its useful three ways.
        assert cache.data_ways == 1

    def test_weight_provider_called(self):
        calls = []

        def provider():
            calls.append(1)
            return 1.0, 1.0

        controller = PartitionController(
            make_cache(), epoch_accesses=5, weight_provider=provider,
            sample_shift=0,
        )
        for i in range(5):
            controller.observe(LineKind.DATA, 0, i, hit=False)
        assert calls

    def test_estimate_mode_uses_cache_positions(self):
        cache = make_cache(ways=4)
        controller = PartitionController(
            cache, epoch_accesses=1000, estimate_positions=True
        )
        cache.fill(0x0, LineKind.TLB)
        hit = cache.lookup(0x0, LineKind.TLB)
        controller.observe(LineKind.TLB, 0, 0, hit=hit)
        assert controller.profilers.tlb.counters[0] == 1

    def test_timeline_fractions(self):
        controller = PartitionController(make_cache(ways=4), epoch_accesses=10)
        series = controller.tlb_fraction_timeline()
        assert series == [(0, 0.5)]

    def test_decay_applied_each_epoch(self):
        cache = make_cache()
        controller = PartitionController(
            cache, epoch_accesses=4, sample_shift=0
        )
        for i in range(4):
            controller.observe(LineKind.DATA, 0, 99, hit=(i > 0))
        total_after = sum(controller.profilers.data.counters)
        assert total_after < 4

    def test_unit_weights(self):
        assert unit_weights() == (1.0, 1.0)


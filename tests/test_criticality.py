"""Unit tests for CSALT-CD criticality weighting."""

import pytest

from repro.core.criticality import (
    CriticalityEstimator,
    CriticalityInputs,
    LatencyBook,
)


class TestLatencyBook:
    def test_weights_are_latency_ratios(self):
        book = LatencyBook(
            cache_latency=42,
            next_level_data_latency=168.0,
            tlb_service_latency=210.0,
        )
        s_dat, s_tr = book.weights()
        assert s_dat == pytest.approx(4.0)
        assert s_tr == pytest.approx(5.0)

    def test_weights_floor_at_one(self):
        book = LatencyBook(
            cache_latency=42,
            next_level_data_latency=10.0,
            tlb_service_latency=10.0,
        )
        assert book.weights() == (1.0, 1.0)


class TestEstimator:
    def _estimator(self, inputs):
        return CriticalityEstimator(42, lambda: inputs)

    def test_tlb_weight_grows_with_pom_misses(self):
        low_miss = self._estimator(CriticalityInputs(
            next_data_latency=160.0, tlb_downstream_latency=0.0,
            pom_hit_rate=0.99, pom_latency=60.0, walk_latency=600.0,
        )).weights()
        high_miss = self._estimator(CriticalityInputs(
            next_data_latency=160.0, tlb_downstream_latency=0.0,
            pom_hit_rate=0.50, pom_latency=60.0, walk_latency=600.0,
        )).weights()
        assert high_miss[1] > low_miss[1]
        assert high_miss[0] == low_miss[0]

    def test_paper_formula_shape(self):
        """S_Tr includes the TLB service on top of the DRAM-ish data cost."""
        s_dat, s_tr = self._estimator(CriticalityInputs(
            next_data_latency=160.0, tlb_downstream_latency=0.0,
            pom_hit_rate=1.0, pom_latency=60.0, walk_latency=600.0,
        )).weights()
        assert s_dat == pytest.approx(160.0 / 42)
        assert s_tr == pytest.approx(60.0 / 42)

    def test_cache_latency_positive(self):
        with pytest.raises(ValueError):
            CriticalityEstimator(0, lambda: None)

    def test_inputs_polled_each_time(self):
        values = iter([
            CriticalityInputs(100.0, 0.0, 1.0, 50.0, 0.0),
            CriticalityInputs(400.0, 0.0, 1.0, 50.0, 0.0),
        ])
        estimator = CriticalityEstimator(42, lambda: next(values))
        first = estimator.weights()
        second = estimator.weights()
        assert second[0] > first[0]

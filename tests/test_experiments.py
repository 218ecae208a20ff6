"""Smoke tests for the experiment harness (tiny runs)."""

import warnings

import pytest

from repro.core.schemes import Scheme
from repro.experiments import figures, report
from repro.experiments import runner as runner_module
from repro.experiments.runner import (
    cache_size,
    clear_cache,
    default_seed,
    default_total_accesses,
    point_from_signature,
    point_signature,
    run_point,
)
from repro.experiments.tables import format_table
from tests.golden.record import EXHIBIT_ARGS

TINY = dict(total_accesses=1_500)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestRunner:
    def test_run_point_returns_result(self):
        result = run_point("gups", Scheme.POM_TLB, **TINY)
        assert result.scheme == "pom-tlb"
        assert result.instructions > 0

    def test_caching(self):
        first = run_point("gups", Scheme.POM_TLB, **TINY)
        size = cache_size()
        second = run_point("gups", Scheme.POM_TLB, **TINY)
        assert second is first
        assert cache_size() == size

    def test_distinct_keys_not_cached_together(self):
        run_point("gups", Scheme.POM_TLB, **TINY)
        run_point("gups", Scheme.POM_TLB, contexts=1, **TINY)
        assert cache_size() == 2

    def test_partial_partition_runs(self):
        result = run_point(
            "gups", Scheme.CSALT_CD, partition_l2_only=True, **TINY
        )
        assert result.instructions > 0


class TestLazyDefaults:
    """REPRO_TOTAL_ACCESSES / REPRO_SEED are read per call, not at import."""

    def test_env_change_takes_effect_without_reimport(self, monkeypatch):
        monkeypatch.setenv("REPRO_TOTAL_ACCESSES", "7777")
        monkeypatch.setenv("REPRO_SEED", "42")
        assert default_total_accesses() == 7777
        assert default_seed() == 42
        monkeypatch.setenv("REPRO_TOTAL_ACCESSES", "8888")
        assert default_total_accesses() == 8888

    def test_env_flows_into_signature(self, monkeypatch):
        monkeypatch.setenv("REPRO_TOTAL_ACCESSES", "3333")
        monkeypatch.setenv("REPRO_SEED", "9")
        signature = point_signature("gups", Scheme.POM_TLB)
        assert signature["total_accesses"] == 3333
        assert signature["seed"] == 9

    def test_monkeypatched_module_constant_still_works(self, monkeypatch):
        monkeypatch.delenv("REPRO_TOTAL_ACCESSES", raising=False)
        monkeypatch.setattr(runner_module, "DEFAULT_TOTAL_ACCESSES", 123)
        assert default_total_accesses() == 123

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_TOTAL_ACCESSES", "3333")
        signature = point_signature("gups", Scheme.POM_TLB, total_accesses=55)
        assert signature["total_accesses"] == 55


class TestSignatures:
    def test_signature_round_trips_to_kwargs(self):
        signature = point_signature(
            "gups", Scheme.CSALT_CD, replacement="nru", **TINY
        )
        kwargs = point_from_signature(signature)
        assert kwargs["scheme"] is Scheme.CSALT_CD
        assert kwargs["replacement"] == "nru"
        assert kwargs["total_accesses"] == 1_500

    def test_signature_is_json_able(self):
        import json

        signature = point_signature("gups", Scheme.POM_TLB, **TINY)
        assert json.loads(json.dumps(signature)) == signature


class TestPointEnumeration:
    """Recording an exhibit must yield exactly the points its render
    simulates — otherwise a campaign would silently leave work to the
    render, or simulate points no exhibit reads."""

    @pytest.mark.parametrize(
        "name,run_fn",
        report.EXPERIMENTS,
        ids=[run_fn.__name__ for _, run_fn in report.EXPERIMENTS],
    )
    def test_enumerated_points_match_simulated(self, name, run_fn):
        kwargs = EXHIBIT_ARGS[name]
        with runner_module.recording() as points:
            run_fn(**kwargs, **TINY)
        assert cache_size() == 0  # recording simulates nothing
        recorded = {runner_module._cache_key(p) for p in points}
        run_fn(**kwargs, **TINY)
        assert set(runner_module._cache) == recorded

    def test_recording_returns_before_the_poison_list(self):
        signature = point_signature("gups", Scheme.POM_TLB, **TINY)
        runner_module.mark_failed(signature, "poisoned")
        with runner_module.recording() as points:
            result = run_point("gups", Scheme.POM_TLB, **TINY)
        assert points == [signature]
        assert result.scheme == "recording"
        assert cache_size() == 0

    def test_recording_defaults_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            points = report.enumerate_points(report.EXPERIMENTS)
        assert points and cache_size() == 0


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xx", 3]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "2.500" in text


class TestFigures:
    def test_figure1_rows(self):
        result = figures.run_figure1(mixes=("gups",), **TINY)
        assert result.rows[0][0] == "gups"
        assert result.rows[-1][0] == "geomean"
        assert "Figure 1" in result.format()

    def test_table1_rows(self):
        result = figures.run_table1(programs=("gups",), **TINY)
        assert len(result.rows) == 1
        native, virtualized = result.rows[0][1], result.rows[0][2]
        assert native >= 0 and virtualized >= 0

    def test_figure7_normalized_to_pom(self):
        result = figures.run_figure7(
            mixes=("gups",), schemes=(Scheme.POM_TLB,), **TINY
        )
        assert result.rows[0][1] == pytest.approx(1.0)

    def test_figure8_fraction_range(self):
        result = figures.run_figure8(mixes=("gups",), **TINY)
        assert 0.0 <= result.rows[0][1] <= 1.0

    def test_figure9_timeline(self):
        result = figures.run_figure9(mix="gups", **TINY)
        assert result.l3_series
        assert all(0.0 <= share <= 1.0 for _, share in result.l3_series)
        assert "Figure 9" in result.format()

    def test_figure14_context_columns(self):
        result = figures.run_figure14(
            mixes=("gups",), context_counts=(1, 2), **TINY
        )
        assert len(result.rows[0]) == 3

    def test_figure15_default_epoch_is_unity(self):
        result = figures.run_figure15(
            mixes=("gups",), epochs=(1_000, 2_000), **TINY
        )
        # The middle epoch (index len//2 = 1 -> 2000) is the baseline.
        assert result.rows[0][2] == pytest.approx(1.0)

    def test_runs_shared_between_figures(self):
        figures.run_figure7(mixes=("gups",), **TINY)
        size = cache_size()
        figures.run_figure8(mixes=("gups",), **TINY)
        assert cache_size() == size  # figure 8 reused figure 7's POM run

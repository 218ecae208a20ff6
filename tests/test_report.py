"""Smoke tests for the full-report generator (tiny runs)."""

import pytest

import repro.experiments.runner as runner
from repro.experiments import report
from repro.experiments.store import ResultStore


@pytest.fixture(autouse=True)
def tiny_runs(monkeypatch):
    monkeypatch.setattr(runner, "DEFAULT_TOTAL_ACCESSES", 1_200)
    runner.clear_cache()
    runner.set_store(None)
    yield
    runner.clear_cache()
    runner.set_store(None)


class TestReport:
    def test_every_exhibit_has_a_runner(self):
        names = [name for name, _ in report.EXPERIMENTS]
        # The paper's 13 exhibits plus 3 ablations and 2 extensions.
        for figure in (1, 3, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16):
            assert f"figure{figure}" in names
        assert "table1" in names
        assert len(names) >= 18

    def test_paper_notes_cover_paper_exhibits(self):
        for name, _ in report.EXPERIMENTS:
            if name.startswith(("figure", "table")):
                assert name in report.PAPER_NOTES, name

    def test_generate_report_produces_sections(self, monkeypatch):
        # A representative subset keeps this a seconds-scale smoke test;
        # the benchmarks exercise every exhibit at full length.
        subset = [
            entry for entry in report.EXPERIMENTS
            if entry[0] in ("table1", "figure7", "figure8")
        ]
        monkeypatch.setattr(report, "EXPERIMENTS", subset)
        progress = []
        text = report.generate_report(progress=progress.append)
        assert len(progress) == len(subset)
        for heading in ("Figure 7", "Table 1", "Figure 8"):
            assert heading in text
        assert "geomean" in text

    def test_main_writes_file(self, tmp_path, monkeypatch):
        subset = [e for e in report.EXPERIMENTS if e[0] == "figure8"]
        monkeypatch.setattr(report, "EXPERIMENTS", subset)
        out = tmp_path / "report.md"
        assert report.main(["report", str(out)]) == 0
        assert "CSALT reproduction report" in out.read_text()

    def test_every_exhibit_has_a_point_enumerator(self):
        # Recording each exhibit is its enumeration: it must yield points.
        for entry in report.EXPERIMENTS:
            assert report.enumerate_points([entry]), entry[0]

    def test_enumerate_points_covers_subset(self):
        subset = [e for e in report.EXPERIMENTS if e[0] == "figure8"]
        points = report.enumerate_points(subset)
        assert len(points) == 10  # one POM-TLB run per mix
        assert all(p["scheme"] == "pom-tlb" for p in points)


class TestCampaignReport:
    def _subset(self, *names):
        return [e for e in report.EXPERIMENTS if e[0] in names]

    def test_store_backed_report(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        document = report.build_report(
            experiments=self._subset("figure8"), store=store,
        )
        assert not document.partial_exhibits
        assert document.statuses == {"figure8": "ok"}
        assert document.campaign is not None
        assert document.campaign.simulated == 10
        assert len(store) == 10

    def test_failing_point_degrades_to_partial(self, tmp_path, monkeypatch):
        real = runner.run_simulation

        def flaky(config, workloads, **kwargs):
            if kwargs.get("workload_name") == "canneal":
                raise RuntimeError("injected fault")
            return real(config, workloads, **kwargs)

        monkeypatch.setattr(runner, "run_simulation", flaky)
        store = ResultStore(tmp_path / "store")
        document = report.build_report(
            experiments=self._subset("figure8", "figure9"), store=store,
        )
        # figure8 needs canneal -> PARTIAL; figure9 (ccomp only) is fine.
        assert document.statuses == {"figure8": "partial", "figure9": "ok"}
        assert document.partial_exhibits == ["figure8"]
        assert "figure8 — PARTIAL" in document.text
        assert "injected fault" in document.text
        assert "Figure 9" in document.text  # rest of the report completed

    def test_resumed_report_is_identical(self, tmp_path, monkeypatch):
        """Interrupt mid-grid, resume: only missing points simulate and
        the report text matches an uninterrupted run byte for byte."""
        experiments = self._subset("figure8")
        store = ResultStore(tmp_path / "store")
        real = runner.run_simulation
        calls = []

        def interrupt_at_4(config, workloads, **kwargs):
            if len(calls) == 4:
                raise KeyboardInterrupt
            calls.append(kwargs.get("workload_name"))
            return real(config, workloads, **kwargs)

        monkeypatch.setattr(runner, "run_simulation", interrupt_at_4)
        with pytest.raises(KeyboardInterrupt):
            report.build_report(experiments=experiments, store=store)
        assert len(store) == 4

        # Resume: the store supplies the first 4, simulation the rest.
        monkeypatch.setattr(runner, "run_simulation", real)
        runner.clear_cache()
        resumed = report.build_report(
            experiments=experiments, store=store, resume=True,
        )
        assert resumed.campaign.loaded == 4
        assert resumed.campaign.simulated == 6
        assert not resumed.partial_exhibits

        # Uninterrupted control run, from scratch.
        runner.clear_cache()
        control_store = ResultStore(tmp_path / "control")
        control = report.build_report(
            experiments=experiments, store=control_store,
        )
        assert control.campaign.simulated == 10
        assert resumed.text == control.text

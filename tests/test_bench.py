"""The perf-bench harness: matrix runs, artifacts, baseline gating."""

import json
import pathlib

import pytest

from repro.experiments.bench import (
    BenchError,
    FULL_MATRIX,
    MICRO_COMPONENTS,
    QUICK_MATRIX,
    SCHEMA_VERSION,
    compare_bench,
    format_bench,
    format_micro_bench,
    load_bench,
    run_bench,
    run_micro_bench,
    write_bench,
)


@pytest.fixture(scope="module")
def quick_document():
    """One tiny real benchmark run shared by the assertions below."""
    return run_bench(quick=True, accesses=600)


class TestRunBench:
    def test_document_shape(self, quick_document):
        document = quick_document
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["quick"] is True
        assert document["accesses_per_point"] == 600
        assert len(document["points"]) == len(QUICK_MATRIX)
        assert document["aggregate_accesses_per_second"] > 0

    def test_point_fields(self, quick_document):
        for point in quick_document["points"]:
            assert point["host_seconds"] > 0
            assert point["accesses_per_second"] > 0
            assert point["sim_cycles_per_second"] > 0
            mix, scheme, replacement = point["point"].split("/")
            assert point["mix"] == mix
            assert point["scheme"] == scheme
            assert point["replacement"] == replacement

    def test_full_matrix_superset_of_quick(self):
        quick_ids = {tuple(sorted(p.items())) for p in QUICK_MATRIX}
        full_ids = {tuple(sorted(p.items())) for p in FULL_MATRIX}
        assert quick_ids <= full_ids

    def test_progress_callback(self):
        lines = []
        run_bench(quick=True, accesses=200, progress=lines.append)
        assert len(lines) == len(QUICK_MATRIX)
        assert "gups/conventional/lru" in lines[0]


class TestArtifacts:
    def test_write_and_load_round_trip(self, quick_document, tmp_path):
        path = write_bench(quick_document, str(tmp_path))
        assert "BENCH_" in path and path.endswith(".json")
        assert load_bench(path) == json.loads(json.dumps(quick_document))

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(BenchError):
            load_bench(str(path))

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema_version": 99, "points": []}))
        with pytest.raises(BenchError):
            load_bench(str(path))

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(BenchError):
            load_bench(str(tmp_path / "absent.json"))

    def test_format_lists_every_point(self, quick_document):
        text = format_bench(quick_document)
        for point in quick_document["points"]:
            assert point["point"] in text
        assert "aggregate" in text


def synthetic(rate_scale):
    return {
        "schema_version": SCHEMA_VERSION,
        "points": [
            {"point": "gups/pom-tlb/lru",
             "accesses_per_second": 1000.0 * rate_scale},
            {"point": "gups/csalt-cd/lru",
             "accesses_per_second": 800.0 * rate_scale},
        ],
        "aggregate_accesses_per_second": 888.0 * rate_scale,
    }


class TestCompareBench:
    def test_identical_passes(self):
        assert compare_bench(synthetic(1.0), synthetic(1.0)) == []

    def test_faster_passes(self):
        assert compare_bench(synthetic(2.0), synthetic(1.0)) == []

    def test_small_drop_within_tolerance(self):
        assert compare_bench(synthetic(0.9), synthetic(1.0),
                             tolerance=0.25) == []

    def test_large_drop_fails_aggregate_and_points(self):
        problems = compare_bench(synthetic(0.5), synthetic(1.0),
                                 tolerance=0.25)
        assert any("aggregate" in p for p in problems)
        assert any("gups/pom-tlb/lru" in p for p in problems)

    def test_new_point_is_not_a_failure(self):
        current = synthetic(1.0)
        current["points"].append(
            {"point": "new/one/lru", "accesses_per_second": 1.0}
        )
        assert compare_bench(current, synthetic(1.0)) == []

    def test_committed_baseline_is_loadable(self):
        baseline = (pathlib.Path(__file__).parent.parent
                    / "benchmarks" / "bench_baseline.json")
        document = load_bench(str(baseline))
        assert document["quick"] is True
        assert document["points"]


class TestMicroBench:
    @pytest.fixture(scope="class")
    def micro_document(self):
        return run_micro_bench(operations=500)

    def test_covers_every_datapath_layer(self, micro_document):
        names = [p["point"] for p in micro_document["points"]]
        assert names == [name for name, _ in MICRO_COMPONENTS]
        assert {"cache.lookup", "cache.fill", "cache.fill_dirty",
                "tlb.lookup", "walk.native", "walk.virtualized",
                "dram.access", "mshr.observe"} == set(names)

    def test_point_fields(self, micro_document):
        assert micro_document["micro"] is True
        assert micro_document["operations_per_point"] == 500
        for point in micro_document["points"]:
            assert point["operations"] == 500
            assert point["host_seconds"] > 0
            assert point["ns_per_op"] > 0
            assert point["ops_per_second"] > 0

    def test_document_round_trips_through_store(self, micro_document,
                                                tmp_path):
        path = write_bench(micro_document, str(tmp_path))
        loaded = load_bench(path)
        assert loaded["micro"] is True
        assert loaded["points"] == json.loads(
            json.dumps(micro_document["points"])
        )

    def test_format_lists_every_component(self, micro_document):
        table = format_micro_bench(micro_document)
        for name, _ in MICRO_COMPONENTS:
            assert name in table

    def test_progress_callback(self):
        seen = []
        run_micro_bench(operations=10, progress=seen.append)
        assert len(seen) == len(MICRO_COMPONENTS)
        assert all(line.startswith("micro ") for line in seen)

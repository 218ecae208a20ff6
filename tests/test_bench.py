"""The micro-benchmark harness: per-primitive timings and artifacts."""

import json

import pytest

from repro.experiments.bench import (
    MICRO_COMPONENTS,
    format_micro_bench,
    run_micro_bench,
    write_bench,
)


class TestArtifacts:
    def test_write_and_load_round_trip(self, tmp_path):
        document = {"schema_version": 1, "points": [{"point": "x"}]}
        path = write_bench(document, str(tmp_path / "new" / "dir"))
        assert "BENCH_" in path and path.endswith(".json")
        with open(path) as handle:
            assert json.load(handle) == document


class TestMicroBench:
    @pytest.fixture(scope="class")
    def micro_document(self):
        return run_micro_bench(operations=500)

    def test_covers_every_datapath_layer(self, micro_document):
        names = [p["point"] for p in micro_document["points"]]
        assert names == [name for name, _ in MICRO_COMPONENTS]
        # Named <layer>.<operation> after the perf/trace.py layers.
        assert {"cache.l2.lookup", "cache.l2.fill", "cache.l2.fill_dirty",
                "cache.l3.fill_plru_split", "tlb.l1.lookup", "tlb.l2.lookup",
                "pom.probe", "partition.observe", "vm.map.first_touch",
                "walker.native", "walker.virtualized", "dram.access",
                "system.access.mshr_observe",
                "workload.zipf_sample"} == set(names)

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
        with open(path) as handle:
            loaded = json.load(handle)
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

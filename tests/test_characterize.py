"""Unit tests for workload characterization."""

import pytest

from repro.analysis.characterize import (
    _median,
    _reuse_distances,
    characterize,
    compare,
)
from repro.workloads.programs import Gups, StreamCluster


class TestHelpers:
    def test_median_odd_even_empty(self):
        assert _median([3, 1, 2]) == 2
        assert _median([1, 2, 3, 4]) == 2.5
        assert _median([]) == float("inf")

    def test_reuse_distances(self):
        assert _reuse_distances([1, 2, 1, 1]) == [2, 1]
        assert _reuse_distances([1, 2, 3]) == []


class TestCharacterize:
    def test_gups_profile(self):
        profile = characterize(Gups(table_bytes=1 << 22), accesses=4000)
        assert profile.name == "gups"
        assert profile.accesses == 4000
        # Read-modify-write pairs: half the accesses are writes.
        assert profile.write_fraction == pytest.approx(0.5, abs=0.01)
        assert profile.huge_page_fraction == 1.0
        assert profile.footprint_bytes <= 1 << 22

    def test_streaming_profile(self):
        profile = characterize(StreamCluster.scaled(0.25), accesses=4000)
        assert profile.huge_page_fraction == 0.0
        # Sequential 64 B strides: lines are touched once, pages ~64 times.
        assert profile.line_reuse_median > profile.page_reuse_median or (
            profile.line_reuse_median == float("inf")
        )

    def test_accesses_validated(self):
        with pytest.raises(ValueError):
            characterize(Gups(1 << 22), accesses=0)


class TestCompare:
    def test_empty(self):
        assert compare([]) == "(no profiles)"

    def test_table_rows(self):
        profiles = [
            characterize(Gups(1 << 22), accesses=1000),
            characterize(StreamCluster.scaled(0.25), accesses=1000),
        ]
        text = compare(profiles)
        assert "gups" in text and "streamcluster" in text
        assert len(text.splitlines()) == 4


class TestCli:
    def test_characterize_command(self, capsys):
        from repro.cli import main
        assert main(["characterize", "gups", "--accesses", "1000"]) == 0
        assert "gups" in capsys.readouterr().out

    def test_characterize_unknown_program(self, capsys):
        from repro.cli import main
        assert main(["characterize", "doom", "--accesses", "100"]) == 2

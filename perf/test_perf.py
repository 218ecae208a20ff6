"""Checks of the benchmark itself, outside tier-1: ``pytest perf/``.

Runs ``perf/run.py --quick`` once (accesses / 10, one timed rep and one
traced rep per workload, plus the restore check) and checks what it
printed and recorded.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run

PERF = Path(__file__).resolve().parent
BENCHMARK = json.loads((PERF.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick():
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--quick"],
        capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    path = re.search(r"^full record: (\S+)$", done.stdout, re.M).group(1)
    record = json.loads((PERF.parent / path).read_text())
    return done.stdout, record


def test_every_benchmark_metric_is_printed_with_its_unit(quick):
    stdout, _record = quick
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        pattern = (
            rf"^\s+{re.escape(metric['name'])}\s+\S+ "
            rf"{re.escape(metric['unit'])}(\s|$)"
        )
        printed = re.findall(pattern, stdout, re.M)
        assert len(printed) == len(run.WORKLOADS), metric["name"]


def test_error_rate_is_zero(quick):
    stdout, record = quick
    assert record["correct"] and record["failed"] == 0
    for summary in record["workloads"].values():
        assert summary["error_rate"] == 0
    last = json.loads(stdout.splitlines()[-1])
    assert last["correct"] and last["attempted"] >= 2 * len(run.WORKLOADS)


def test_digests_agree_across_reps_trace_and_restore(quick):
    _stdout, record = quick
    for name, summary in record["workloads"].items():
        kinds = {kind for kind, _digest in summary["digests"]}
        expected = {"timed", "traced"}
        if "checkpoint_every" in run.WORKLOADS[name]:
            expected.add("restore")
        assert kinds == expected, name
        assert len({digest for _kind, digest in summary["digests"]}) == 1


def test_traced_self_shares_sum_to_one(quick):
    _stdout, record = quick
    for summary in record["workloads"].values():
        shares = [
            value for key, value in summary["per_layer"].items()
            if key.endswith(".self_share")
        ]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)


def test_a_corrupted_digest_fails_the_run():
    runs = run.Runs("ccomp-csalt", seed=0, scale=0.1)
    good = dict.fromkeys(run.END_TO_END, 1.0)
    good.update(
        digest="a" * 64, violations=[], wall_s=1.0, accesses=9600, counts={}
    )
    runs.add("timed", dict(good), None)
    runs.add("timed", dict(good), None)
    assert runs.failures() == []
    runs.add("timed", dict(good, digest="b" * 64), None)
    summary = runs.summary(reference={})
    assert summary["failed"] == 1
    assert summary["error_rate"] == pytest.approx(1 / 3)
    assert "digest" in summary["failures"][0]

"""Same-host A/B gate: is a change slower than its parent on perf/?

    python benchmarks/perf_ab.py PARENT_TREE CHANGE_TREE [--pairs 8] [--seconds 12]

Each tree is a full checkout (``src/``, ``perf/``, ``BENCHMARK.json``).
For every pair and every workload of the parent's ``BENCHMARK.json``
the two trees run ``perf/run.py --workload W --seconds T --trace 0``
back to back, each with its own sources, and the side that goes first
alternates from pair to pair, so host drift lands on both sides alike.
The records are then judged by the parent's ``perf/compare.py`` against
the bounds in the parent's ``BENCHMARK.json`` (``accesses_per_ref_s``,
``setup_s`` and ``peak_rss_mb``), so a change cannot loosen the gate
that judges it.  The same tree may be given twice: that is the
agreement check, which must not read ``worse``.

The exit code is compare.py's: 1 when any metric of any workload reads
``worse`` or a workload's error rate rose, else 0.  It is 2 when a run
wrote no record.

Eight pairs is the default because ``setup_s`` (a 15-55 ms window that
spreads 10-28% between reps) needs about eight reps a side: resampling
same-code reps on a shared 2-vCPU VM, where a 12-second run holds one or
two reps, a side of three reps read ``worse`` for 1.4-3.4% of draws per
workload, eight for 0.1-0.5%.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RECORD_PREFIX = "full record: "


def run_side(tree: Path, workload: str, seconds: float) -> Path:
    """One ``perf/run.py`` invocation in ``tree``; the record it wrote."""
    done = subprocess.run(
        [sys.executable, str(tree / "perf" / "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    for line in done.stdout.splitlines():
        if line.startswith(RECORD_PREFIX):
            return tree / line[len(RECORD_PREFIX):]
    print(f"perf_ab: {tree}: run.py exited {done.returncode} without a "
          f"record:\n{done.stderr.strip()}", file=sys.stderr)
    raise SystemExit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0]
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    workloads = [
        workload["name"] for workload in
        json.loads((parent / "BENCHMARK.json").read_text())["workloads"]
    ]

    sides = (("parent", parent), ("change", change))
    records = {"parent": [], "change": []}
    for pair in range(args.pairs):
        for workload in workloads:
            for side, tree in sides if pair % 2 == 0 else sides[::-1]:
                record = run_side(tree, workload, args.seconds)
                print(f"pair {pair + 1}/{args.pairs} {workload} {side}: "
                      f"{record}", flush=True)
                records[side].append(str(record))

    compare = subprocess.run(
        [sys.executable, str(parent / "perf" / "compare.py"),
         *records["parent"], "--", *records["change"]],
        cwd=parent,
    )
    return compare.returncode


if __name__ == "__main__":
    sys.exit(main())

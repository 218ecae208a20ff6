"""A/B verdicts between benchmark records.

    python perf/compare.py A.json B.json
    python perf/compare.py A1.json A2.json ... -- B1.json B2.json ...

``A`` is the parent, ``B`` the change; each side is one or more records
written by ``perf/run.py`` (``perf/out/*.json``, ``perf/results/*.json``),
whose reps are pooled.  For every workload on both sides, one row gives
a verdict per end-to-end metric of BENCHMARK.json, judged against that
metric's bound:

* ``better`` / ``worse`` -- the medians differ by more than the bound;
* ``unresolved`` -- the distance between the quartiles, as a share of
  the median, is wider than the bound on either side, and neither side
  has every rep beating every rep of the other;
* ``no change`` -- otherwise.

The exit code is 1 when any metric is ``worse`` or a workload's
``error_rate`` rose, else 0.  Records of the same code should compare
with no ``worse``: that is the benchmark's agreement check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import ROOT, quartiles


def verdict(a, b, better, bound):
    """(verdict, relative change of B's median against A's, signed so
    that positive is better)."""
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b_median - a_median) / a_median
    spread = max((a_q3 - a_q1) / a_median, (b_q3 - b_q1) / b_median)
    separated = all(sign * y > sign * x for x in a for y in b) or all(
        sign * x > sign * y for x in a for y in b
    )
    if spread > bound and not separated:
        return "unresolved", gain
    if gain > bound:
        return "better", gain
    if gain < -bound:
        return "worse", gain
    return "no change", gain


def pool(records):
    """workload -> {"values": metric -> reps, "failed", "attempted"}."""
    pooled = {}
    for record in records:
        for name, summary in record["workloads"].items():
            side = pooled.setdefault(
                name, {"values": {}, "failed": 0, "attempted": 0}
            )
            side["failed"] += summary["failed"]
            side["attempted"] += summary["attempted"]
            for metric, stats in summary["metrics"].items():
                side["values"].setdefault(metric, []).extend(stats["values"])
    return pooled


def compare(a_records, b_records, metrics):
    """Yield (workload, cells, failed) rows; ``failed`` marks a worse
    metric, a missing one, or a rise in error_rate."""
    a_side, b_side = pool(a_records), pool(b_records)
    for name, a in a_side.items():
        b = b_side.get(name)
        if b is None:
            yield name, ["missing from B"], True
            continue
        cells = []
        failed = False
        for metric in metrics:
            key = metric["name"]
            if key not in a["values"] or key not in b["values"]:
                cells.append(f"{key}: n/a")
                failed = failed or key not in b["values"]
                continue
            result, gain = verdict(
                a["values"][key], b["values"][key],
                metric["better"], metric["bound"],
            )
            cells.append(f"{key}: {result} ({gain:+.1%})")
            failed = failed or result == "worse"
        a_rate = a["failed"] / a["attempted"]
        b_rate = b["failed"] / b["attempted"]
        cells.append(
            f"error_rate: {a_rate:.3g} -> {b_rate:.3g}"
            + (" ROSE" if b_rate > a_rate else "")
        )
        yield name, cells, failed or b_rate > a_rate


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" in argv:
        split = argv.index("--")
        a_paths, b_paths = argv[:split], argv[split + 1:]
    else:
        a_paths, b_paths = argv[:1], argv[1:]
    if not a_paths or not b_paths or ("--" not in argv and len(argv) != 2):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    a_records, b_records = (
        [json.loads(Path(path).read_text()) for path in paths]
        for paths in (a_paths, b_paths)
    )
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    any_failed = False
    for name, cells, failed in compare(a_records, b_records, metrics):
        print(f"{name:<18} " + " | ".join(cells))
        any_failed = any_failed or failed
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())

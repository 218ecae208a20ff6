"""The benchmark of record: exhibit-path speed, set-up time and memory.

    python perf/run.py [--seed N] [--reps 5] [--quick] [--no-trace]
    python perf/run.py --workload NAME --seed N --seconds T --trace 0|1

The first form runs every workload in BENCHMARK.json; the second runs
one workload, starting timed reps until the next one would end after
``T`` seconds.  The load is a closed loop with one client: each rep is a
fresh child process (``perf/rep.py``), one at a time, and reps go
round-robin across workloads so host drift spreads evenly.

With tracing on, one more rep per workload runs under ``perf/trace.py``
and gives the per-layer metrics; the end-to-end metrics never come from
it.  In the second form ``--trace 1`` runs a single timed rep, the
baseline for ``trace.overhead``, before the traced one.

A run is correct when no rep fails, every finished machine passes the
``repro.validate`` cache, TLB and cycle-ledger checks, and every rep of
a workload (timed, traced, and the checkpoint-restore check) yields the
same result digest.  Every metric is printed by name with its unit; the
last stdout line is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the full record goes to
``perf/out/<timestamp>.json``.  The exit code is 1 when any check
failed, 2 when the simulator sources are missing.  perf/README.md
defines the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from rep import WORKLOADS

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"
REFERENCE = PERF / "reference.json"

#: ``--quick`` divides every workload's accesses by this.
QUICK_DIVISOR = 10

#: A rep that runs longer than this is killed and counted as failed.
REP_TIMEOUT_S = 150

#: End-to-end metrics, from the timed reps' records.  Raw
#: ``accesses_per_s`` swings too much on a shared host to hold a bound,
#: so BENCHMARK.json judges ``accesses_per_ref_s`` and this is printed
#: for information only.
END_TO_END = {
    "accesses_per_ref_s": "accesses/ref-s",
    "accesses_per_s": "accesses/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spawn(workload, seed, scale, trace_out=None, checkpoint_dir=None,
          restore=None):
    """Run one rep in a child process; (record, None) or (None, error)."""
    command = [
        sys.executable, str(PERF / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--scale", str(scale),
    ]
    for flag, value in (
        ("--trace-out", trace_out),
        ("--checkpoint-dir", checkpoint_dir),
        ("--restore", restore),
    ):
        if value is not None:
            command += [flag, str(value)]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, f"rep timed out after {REP_TIMEOUT_S} s"
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"rep exited {done.returncode}: {tail[0]}"
    return json.loads(done.stdout.splitlines()[-1]), None


class Runs:
    """Every rep of one workload, and the checks across them."""

    def __init__(self, name, seed, scale):
        self.name = name
        self.seed = seed
        self.scale = scale
        #: (kind, record or None, error or None); kind is "timed",
        #: "traced" or "restore".
        self.entries = []

    def add(self, kind, record, error):
        self.entries.append((kind, record, error))

    def records(self, kind):
        return [
            record for entry_kind, record, error in self.entries
            if entry_kind == kind and error is None
        ]

    def failures(self):
        """One line per failed run: an error, a broken invariant, or a
        digest that differs from the first timed rep's."""
        timed = self.records("timed")
        reference = timed[0]["digest"] if timed else None
        found = []
        for kind, record, error in self.entries:
            if error is not None:
                found.append(f"{kind}: {error}")
            elif record["violations"]:
                found.append(
                    f"{kind}: {len(record['violations'])} invariant "
                    f"violation(s), first: {record['violations'][0]}"
                )
            elif record["digest"] != reference:
                found.append(
                    f"{kind}: result digest {record['digest'][:12]} != "
                    f"{str(reference)[:12]} of the first timed rep"
                )
        return found

    def run_rep(self, kind="timed", trace_out=None):
        """Run one rep; a checkpointing workload gets a scratch directory,
        and its first timed rep is followed by the restore check."""
        if "checkpoint_every" not in WORKLOADS[self.name]:
            self.add(kind, *spawn(
                self.name, self.seed, self.scale, trace_out=trace_out
            ))
            return
        directory = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=OUT))
        try:
            record, error = spawn(
                self.name, self.seed, self.scale, trace_out=trace_out,
                checkpoint_dir=directory,
            )
            self.add(kind, record, error)
            if kind == "timed" and not any(
                entry[0] == "restore" for entry in self.entries
            ):
                self.restore_check(directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def restore_check(self, directory):
        """Resume from the next-to-last snapshot and finish the run."""
        snapshots = sorted(directory.glob("ckpt-*.ckpt"))
        if len(snapshots) < 2:
            self.add("restore", None, f"only {len(snapshots)} snapshot(s)")
            return
        restore_dir = Path(tempfile.mkdtemp(prefix="restore-", dir=OUT))
        try:
            self.add("restore", *spawn(
                self.name, self.seed, self.scale,
                checkpoint_dir=restore_dir, restore=snapshots[-2],
            ))
        finally:
            shutil.rmtree(restore_dir, ignore_errors=True)

    def summary(self, reference):
        timed = self.records("timed")
        failures = self.failures()
        attempted = len(self.entries)
        out = {
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures,
            "error_rate": len(failures) / attempted,
            "digests": [
                [kind, record["digest"]]
                for kind, record, error in self.entries if error is None
            ],
            "metrics": {},
            "per_layer": {},
        }
        for metric in END_TO_END:
            values = [record[metric] for record in timed]
            if values:
                q1, median, q3 = quartiles(values)
                out["metrics"][metric] = {
                    "median": median, "q1": q1, "q3": q3,
                    "n": len(values), "values": values,
                }
        traced = self.records("traced")
        if traced and timed:
            record = traced[0]
            baseline = statistics.median(r["wall_s"] for r in timed)
            out["per_layer"] = dict(record["layer_metrics"])
            out["per_layer"].update(record["counts"])
            out["per_layer"]["trace.overhead"] = record["wall_s"] / baseline
            out["layers"] = record["layers"]
        if timed:
            out["digest"] = timed[0]["digest"]
            out["accesses"] = timed[0]["accesses"]
            out["counts"] = timed[0]["counts"]
            out.update(results_changed(reference, self.name, self.seed,
                                       timed[0]))
        return out


def results_changed(reference, name, seed, record):
    """Compare a rep with the recorded seed-state result of its workload.

    ``None`` when the reference is for another seed or run length."""
    entry = reference.get("workloads", {}).get(name)
    if (
        entry is None
        or reference.get("seed") != seed
        or entry["accesses"] != record["accesses"]
    ):
        return {"results_changed": None, "moved": {}}
    moved = {
        key: [entry["counts"].get(key), value]
        for key, value in record["counts"].items()
        if entry["counts"].get(key) != value
    }
    return {
        "results_changed": record["digest"] != entry["digest"],
        "moved": moved,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Exhibit-path benchmark (see perf/README.md)."
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=None,
                        help="timed reps per workload (default 5, 1 with "
                             "--quick)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="start timed reps until the next one would "
                             "end after this many seconds (one rep with "
                             "--trace 1); overrides --reps")
    parser.add_argument("--quick", action="store_true",
                        help=f"accesses / {QUICK_DIVISOR}, 1 rep")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--no-trace", dest="trace", action="store_const",
                        const=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="record this run's digests as the seed-state "
                             "reference in perf/reference.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = (
        json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    )
    names = [args.workload] if args.workload else list(WORKLOADS)
    scale = 1.0 / QUICK_DIVISOR if args.quick else 1.0
    if args.seconds is not None:
        rounds = 1 if args.trace else math.inf
    else:
        rounds = args.reps or (1 if args.quick else 5)
    OUT.mkdir(exist_ok=True)
    runs = {name: Runs(name, args.seed, scale) for name in names}

    started = time.monotonic()
    round_seconds = []
    while len(round_seconds) < rounds:
        if args.seconds is not None and round_seconds and (
            time.monotonic() + statistics.mean(round_seconds)
            > started + args.seconds
        ):
            break
        round_start = time.monotonic()
        for name in names:
            runs[name].run_rep()
        round_seconds.append(time.monotonic() - round_start)
    if args.trace:
        for name in names:
            runs[name].run_rep("traced", trace_out=OUT / f"{name}.trace.json")

    summaries = {
        name: runs[name].summary(reference) for name in names
    }
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    judged = {
        metric["name"]: metric["unit"]
        for metric in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    line = {}
    for name in names:
        summary = summaries[name]
        print_summary(name, args.seed, summary, benchmark["per_layer"])
        # One workload's JSON carries bare names: end-to-end from timed
        # runs, per-layer from traced ones; several workloads carry both,
        # prefixed with the workload.
        prefix = "" if args.workload else f"{name}."
        values = {} if args.workload and args.trace else {
            metric: stats["median"]
            for metric, stats in summary["metrics"].items()
        }
        values.update(summary["per_layer"])
        for metric, value in values.items():
            if metric in judged:
                line[prefix + metric] = {
                    "value": value, "unit": judged[metric]
                }

    document = {
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "seed": args.seed,
        "scale": scale,
        "rounds": len(round_seconds),
        "traced": bool(args.trace),
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "workloads": summaries,
    }
    path = OUT / f"{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}.json"
    path.write_text(json.dumps(document, indent=1) + "\n")
    print(f"full record: {path.relative_to(ROOT)}")
    if args.update_reference:
        update_reference(args.seed, summaries)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": line,
    }))
    return 0 if failed == 0 else 1


def print_summary(name, seed, summary, per_layer):
    """Every metric of one workload by name, with its unit."""
    spec = WORKLOADS[name]
    print(
        f"== {name}: {spec['mix']}, {spec['scheme']}, "
        f"{spec['contexts']} ctx/core, {spec['replacement']}, "
        f"{summary.get('accesses', '?')} accesses, seed {seed} =="
    )
    for metric, unit in END_TO_END.items():
        stats = summary["metrics"].get(metric)
        if stats is None:
            print(f"  {metric:<34} n/a (no timed rep passed)")
            continue
        print(
            f"  {metric:<34} {stats['median']:.6g} {unit}  "
            f"(q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n {stats['n']})"
        )
    print(
        f"  {'error_rate':<34} {summary['error_rate']:.6g} ratio  "
        f"({summary['failed']} failed of {summary['attempted']} runs)"
    )
    for failure in summary["failures"]:
        print(f"    FAILED {failure}")
    changed = summary.get("results_changed")
    print(
        "  results_changed: "
        + ("unknown (no reference for this seed and length)"
           if changed is None else str(changed).lower())
    )
    for key, (before, after) in summary.get("moved", {}).items():
        print(f"    moved {key}: {before} -> {after}")
    if summary["per_layer"]:
        print("  per layer (traced rep):")
        for metric in per_layer:
            value = summary["per_layer"][metric["name"]]
            print(f"    {metric['name']:<32} {value:.6g} {metric['unit']}")


def update_reference(seed, summaries):
    """Record each workload's result digest and counts as the reference."""
    workloads = {}
    for name, summary in summaries.items():
        if summary["failed"] or "digest" not in summary:
            raise SystemExit(f"run.py: not recording a failed run of {name}")
        workloads[name] = {
            "accesses": summary["accesses"],
            "digest": summary["digest"],
            "counts": summary["counts"],
        }
    REFERENCE.write_text(
        json.dumps({"seed": seed, "workloads": workloads}, indent=1) + "\n"
    )
    print(f"reference recorded: {REFERENCE.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``    — simulate one evaluation point and print a summary
               (optionally with a POM-TLB baseline comparison); can
               export a telemetry event trace (``--trace-out``),
               machine-readable results (``--json``), a CPI waterfall
               (``--cpi``) and live progress (``--progress``);
* ``stats``  — summarize a JSONL telemetry trace *or* a stored result
               JSON (``repro run --json`` output / store entry), with
               ``--format table|csv|markdown`` rendering and optional
               Chrome trace_event conversion for chrome://tracing;
* ``diff``   — compare two result files (or two result-store
               directories): per-metric deltas with regression flags,
               plus a per-component CPI-stack delta when both results
               carry a CPI stack;
* ``bench``  — time each datapath primitive in isolation and write
               ``BENCH_<timestamp>.json``;
* ``report`` — regenerate paper exhibits (all, or a named subset);
* ``doctor`` — preflight self-check: store integrity, orphaned temp
               files, checkpoint round-trip, configuration (``--fix``
               cleans what it safely can);
* ``mixes``  — list the paper's programs and VM pairings;
* ``characterize`` — profile workloads' memory behaviour without
               simulating (footprint, page sizes, reuse).
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter
from typing import List, Optional

from repro.core.schemes import Scheme
from repro.errors import ReproError, exit_code_for
from repro.mem.replacement import POLICY_BY_NAME
from repro.sim.config import small_config
from repro.sim.engine import run_simulation
from repro.sim.stats import SimulationResult
from repro.telemetry import DEFAULT_TRACE_CAPACITY, EventTracer, Telemetry
from repro.workloads.mixes import MIXES, MIX_NAMES, PROGRAMS, make_mix

_SCHEME_BY_NAME = {scheme.value: scheme for scheme in Scheme}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _duration_arg(text: str) -> float:
    """argparse type for wall-clock budgets: '90', '90s', '5m', '2h'."""
    from repro.budget import parse_duration
    from repro.errors import ConfigError

    try:
        value = parse_duration(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _size_arg(text: str) -> int:
    """argparse type for byte budgets: '512M', '2G', '1048576'."""
    from repro.budget import parse_size
    from repro.errors import ConfigError

    try:
        value = parse_size(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    from repro.experiments.pool import DEFAULT_RETRIES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="CSALT (MICRO 2017) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="simulate one evaluation point")
    run.add_argument("--mix", default="gups", choices=MIX_NAMES,
                     help="workload pairing (Table 3)")
    run.add_argument("--scheme", default="csalt-cd",
                     choices=sorted(_SCHEME_BY_NAME),
                     help="translation/cache-management scheme")
    run.add_argument("--contexts", type=int, default=2,
                     help="VM contexts per core")
    run.add_argument("--accesses", type=int, default=240_000,
                     help="total memory accesses to simulate")
    run.add_argument("--native", action="store_true",
                     help="non-virtualized (no nested walks)")
    run.add_argument("--switch-ms", type=float, default=10.0,
                     help="context-switch quantum in (paper) milliseconds")
    run.add_argument("--levels", type=int, default=4, choices=(4, 5),
                     help="page-table depth (5 = Intel LA57)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--replacement", default="lru",
                     choices=sorted(POLICY_BY_NAME),
                     help="cache replacement policy")
    run.add_argument("--checkpoint-every", type=_positive_int, default=None,
                     metavar="N",
                     help="snapshot the whole machine every N accesses "
                          "(requires --checkpoint-dir)")
    run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="directory for checkpoint snapshots")
    run.add_argument("--restore", default=None, metavar="PATH",
                     help="resume from a snapshot; 'auto' picks the newest "
                          "in --checkpoint-dir (fresh run if none)")
    run.add_argument("--check-invariants", type=_positive_int, default=None,
                     metavar="M",
                     help="audit every simulator structure each M accesses "
                          "(LRU stacks, partition sums, TLB/page-table "
                          "coherence, counter monotonicity)")
    run.add_argument("--watchdog-timeout", type=_positive_float, default=None,
                     metavar="SECONDS",
                     help="declare the run stalled after this many "
                          "wall-clock seconds without forward progress "
                          "(state is snapshotted before aborting)")
    run.add_argument("--deadline", type=_duration_arg, default=None,
                     metavar="DURATION",
                     help="hard wall-clock budget ('90s', '5m'): past it "
                          "the run checkpoints (with --checkpoint-dir) and "
                          "exits 7, resumable with --restore auto")
    run.add_argument("--max-rss", type=_size_arg, default=None,
                     metavar="SIZE",
                     help="resident-memory ceiling ('512M', '2G'): past "
                          "it the run checkpoints (with --checkpoint-dir) "
                          "and exits 7, resumable with --restore auto")
    run.add_argument("--baseline", action="store_true",
                     help="also run POM-TLB and report relative IPC")
    run.add_argument("--json", action="store_true",
                     help="print machine-readable JSON instead of the "
                          "human summary")
    run.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write a JSONL telemetry event trace "
                          "(summarize with 'repro stats')")
    run.add_argument("--trace-capacity", type=_positive_int,
                     default=DEFAULT_TRACE_CAPACITY, metavar="N",
                     help="event ring-buffer capacity (oldest dropped)")
    run.add_argument("--progress", action="store_true",
                     help="live progress on stderr")
    run.add_argument("--cpi", action="store_true",
                     help="print the CPI-stack waterfall (every run "
                          "accounts its cycles; --json always carries "
                          "the stack)")

    stats = commands.add_parser(
        "stats", help="summarize a telemetry trace or a stored result"
    )
    stats.add_argument("path",
                       help="JSONL trace written by run --trace-out, or a "
                            "result JSON (run --json output / store entry)")
    stats.add_argument("--chrome-out", default=None, metavar="PATH",
                       help="also write Chrome trace_event JSON "
                            "(open in chrome://tracing or Perfetto; "
                            "trace input only)")
    stats.add_argument("--json", action="store_true",
                       help="print the summary as JSON")
    stats.add_argument("--format", default=None,
                       choices=("table", "csv", "markdown"),
                       help="render the summary as a flat metric table "
                            "instead of the prose summary")
    stats.add_argument("--cpi", action="store_true",
                       help="print the CPI-stack waterfall (result input "
                            "only; results from before always-on cycle "
                            "accounting may carry no stack)")

    diff = commands.add_parser(
        "diff", help="compare two runs (result files or store directories)"
    )
    diff.add_argument("a", help="baseline: result JSON or store directory")
    diff.add_argument("b", help="candidate: result JSON or store directory")
    diff.add_argument("--tolerance", type=float, default=0.01,
                      metavar="FRACTION",
                      help="relative change treated as noise "
                           "(default 0.01 = 1%%)")
    diff.add_argument("--json", action="store_true",
                      help="print the comparison as JSON")
    diff.add_argument("--fail-on-regression", action="store_true",
                      help="exit 1 if any metric moved the wrong way "
                           "beyond the tolerance")

    bench = commands.add_parser(
        "bench", help="time datapath primitives in isolation (host "
                      "wall-clock per operation)"
    )
    bench.add_argument("--accesses", type=_positive_int, default=None,
                       help="operations per micro point")
    bench.add_argument("--out-dir", default=".", metavar="DIR",
                       help="directory for BENCH_<timestamp>.json")
    bench.add_argument("--json", action="store_true",
                       help="print the benchmark document as JSON")

    report = commands.add_parser(
        "report", help="regenerate paper exhibits (DESIGN.md section 6)"
    )
    report.add_argument("--out", default=None,
                        help="write markdown to this file (default stdout)")
    report.add_argument("--only", default=None,
                        help="comma-separated exhibit names, e.g. "
                             "figure7,figure8")
    report.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes for the evaluation grid "
                             "(1 = in-process, without --timeout, --retries "
                             "or --checkpoint-every; 2 or more add "
                             "per-point fault isolation)")
    report.add_argument("--store", default=None, metavar="DIR",
                        help="persist every completed point to this "
                             "directory (atomic, content-addressed; see "
                             "docs/experiments.md)")
    report.add_argument("--resume", action="store_true",
                        help="reuse points already persisted in --store, "
                             "re-simulating only what is missing")
    report.add_argument("--strict", action="store_true",
                        help="exit nonzero if any exhibit rendered PARTIAL")
    report.add_argument("--timeout", type=_positive_float, default=None,
                        metavar="SECONDS",
                        help="per-point timeout (needs --jobs 2 or more); "
                             "timed-out points retry with backoff")
    report.add_argument("--retries", type=_non_negative_int, default=None,
                        metavar="N",
                        help="retry budget for transient point failures "
                             "(worker killed, timeout; needs --jobs 2 or "
                             f"more; default {DEFAULT_RETRIES})")
    report.add_argument("--checkpoint-every", type=_positive_int,
                        default=None, metavar="N",
                        help="checkpoint in-flight points every N accesses "
                             "(needs --jobs 2 or more and --store; a killed "
                             "worker's retry resumes mid-simulation)")
    report.add_argument("--deadline", type=_duration_arg, default=None,
                        metavar="DURATION",
                        help="hard wall-clock budget for the campaign "
                             "('30m', '2h'): past it no new point "
                             "launches and in-flight points finish and "
                             "persist; if any point was left unrun, a "
                             "PARTIAL report is written and the exit "
                             "code is 7 (resume with --resume and no "
                             "budget)")
    report.add_argument("--max-rss", type=_size_arg, default=None,
                        metavar="SIZE",
                        help="resident-memory ceiling for the campaign "
                             "parent ('2G')")
    report.add_argument("--store-quota", type=_size_arg, default=None,
                        metavar="SIZE",
                        help="disk budget for --store (entries + "
                             "checkpoints): writes past it stop the "
                             "campaign resumably instead of filling the "
                             "partition")

    doctor = commands.add_parser(
        "doctor", help="preflight self-check (store, temp files, "
                       "checkpoints, config)"
    )
    doctor.add_argument("--store", default=None, metavar="DIR",
                        help="result store to scan for corrupt entries and "
                             "orphaned temp files")
    doctor.add_argument("--checkpoint-dir", action="append", default=[],
                        metavar="DIR",
                        help="checkpoint directory to scan (repeatable)")
    doctor.add_argument("--fix", action="store_true",
                        help="delete orphaned temp files and corrupt store "
                             "entries (they re-simulate on the next run)")
    doctor.add_argument("--json", action="store_true",
                        help="print the doctor report as JSON")
    doctor.add_argument("--store-quota", type=_size_arg, default=None,
                        metavar="SIZE",
                        help="report utilisation of this disk quota in "
                             "the disk-headroom section")
    doctor.add_argument("--min-free", type=_size_arg, default=None,
                        metavar="SIZE",
                        help="free-space floor for the disk-headroom "
                             "check (default 256M)")

    commands.add_parser("mixes", help="list programs and VM pairings")

    characterize = commands.add_parser(
        "characterize", help="profile workloads' memory behaviour (no sim)"
    )
    characterize.add_argument(
        "programs", nargs="*", default=[],
        help="program names (default: all six)",
    )
    characterize.add_argument("--accesses", type=int, default=50_000)
    characterize.add_argument("--scale", type=float, default=0.25)

    return parser


def _print_result(result: SimulationResult,
                  baseline: Optional[SimulationResult] = None) -> None:
    print(f"workload          : {result.workload}")
    print(f"scheme            : {result.scheme}")
    print(f"instructions      : {result.instructions}")
    print(f"IPC (geomean)     : {result.ipc:.4f}")
    if baseline is not None:
        print(f"vs POM-TLB        : {result.speedup_over(baseline):.3f}x")
    print(f"L2 TLB MPKI       : {result.l2_tlb_mpki:.2f}")
    print(f"page walks        : {result.page_walks} "
          f"(mean {result.walk_mean_cycles:.0f} cycles)")
    print(f"walks eliminated  : {result.walks_eliminated_fraction:.2%}")
    print(f"L2/L3 D$ MPKI     : {result.l2_cache_mpki:.1f} / "
          f"{result.l3_cache_mpki:.1f}")
    print(f"TLB share of L3 D$: {result.mean_l3_tlb_occupancy:.1%}")
    switches = int(result.extra.get("context_switches", 0))
    print(f"context switches  : {switches}")


def _render_rows(rows, fmt: str) -> str:
    """Render flat (metric, value) rows as table / csv / markdown."""
    if fmt == "csv":
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["metric", "value"])
        writer.writerows(rows)
        return buffer.getvalue().rstrip("\n")
    if fmt == "markdown":
        from repro.experiments.tables import format_table

        return format_table(["metric", "value"], rows)
    width = max((len(str(name)) for name, _ in rows), default=6)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def _command_run(args: argparse.Namespace) -> int:
    from repro.checkpoint import CheckpointError, SimulationStalled
    from repro.validate import InvariantViolation

    if args.checkpoint_every is not None and args.checkpoint_dir is None:
        print("--checkpoint-every requires --checkpoint-dir DIR",
              file=sys.stderr)
        return 2
    if args.restore == "auto" and args.checkpoint_dir is None:
        print("--restore auto requires --checkpoint-dir DIR", file=sys.stderr)
        return 2
    scheme = _SCHEME_BY_NAME[args.scheme]
    config = small_config(
        scheme=scheme,
        contexts_per_core=args.contexts,
        virtualized=not args.native,
        switch_interval_ms=args.switch_ms,
        page_table_levels=args.levels,
        replacement=args.replacement,
    )
    workloads = make_mix(args.mix, contexts=args.contexts, scale=0.25)
    telemetry = None
    if args.trace_out is not None:
        telemetry = Telemetry(tracer=EventTracer(args.trace_capacity))
    run_budget = None
    if args.deadline is not None or args.max_rss is not None:
        from repro.budget import Budget

        run_budget = Budget(
            deadline_seconds=args.deadline, max_rss_bytes=args.max_rss
        )
    progress = None
    if args.progress:
        def progress(update):
            print(f"\r{update.format()}", end="", file=sys.stderr, flush=True)
    started = perf_counter()
    try:
        result = run_simulation(
            config, workloads, total_accesses=args.accesses, seed=args.seed,
            workload_name=args.mix, telemetry=telemetry, progress=progress,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            restore=args.restore,
            check_invariants=args.check_invariants,
            watchdog_timeout=args.watchdog_timeout,
            budget=run_budget,
        )
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        for other in exc.others:
            print(f"also: {other}", file=sys.stderr)
        return 3
    except SimulationStalled as exc:
        print(f"stalled: {exc}", file=sys.stderr)
        return 3
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 3
    if args.progress:
        print(file=sys.stderr)
    baseline = None
    if args.baseline and scheme is not Scheme.POM_TLB:
        baseline = run_simulation(
            config.with_scheme(Scheme.POM_TLB),
            make_mix(args.mix, contexts=args.contexts, scale=0.25),
            total_accesses=args.accesses, seed=args.seed,
            workload_name=args.mix,
        )
    elapsed = perf_counter() - started

    if args.trace_out:
        written = telemetry.tracer.write_jsonl(args.trace_out)
        note = (
            f" ({telemetry.tracer.dropped} older events dropped by the ring)"
            if telemetry.tracer.dropped else ""
        )
        print(f"wrote {written} events to {args.trace_out}{note}",
              file=sys.stderr)

    if args.json:
        document = {
            "result": result.to_dict(),
            "elapsed_seconds": elapsed,
        }
        if baseline is not None:
            document["baseline"] = baseline.to_dict()
            document["speedup_over_baseline"] = result.speedup_over(baseline)
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        _print_result(result, baseline)
        if args.cpi:
            if result.cpi_stack is not None:
                print()
                print(result.cpi_stack.waterfall())
            else:
                print("no CPI stack recorded for this run", file=sys.stderr)
        print(f"(simulated in {elapsed:.1f}s)")
    return 0


def _result_rows(result: SimulationResult) -> List:
    """Flat (metric, value) rows off a result's scalar fields."""
    rows = []
    for name, value in result.to_dict().items():
        if isinstance(value, (int, float, str)):
            rows.append((name, round(value, 6) if isinstance(value, float)
                         else value))
    return rows


def _sniff_result_document(path: str):
    """A parsed JSON object when ``path`` holds a single result-shaped
    document (``run --json`` output, store entry, or bare result dict);
    ``None`` when it is anything else (e.g. a JSONL trace)."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(document, dict):
        return None
    candidate = document.get("result", document)
    if isinstance(candidate, dict) and "per_core" in candidate:
        return document
    return None


def _command_stats(args: argparse.Namespace) -> int:
    from repro.telemetry import read_events, summarize_events, write_chrome_trace

    if _sniff_result_document(args.path) is not None:
        from repro.analysis.diff import DiffError, load_result_file

        if args.chrome_out:
            print("--chrome-out needs a JSONL event trace, not a result",
                  file=sys.stderr)
            return 2
        try:
            result = load_result_file(args.path)
        except DiffError as exc:
            print(f"cannot read result: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        elif args.format:
            print(_render_rows(_result_rows(result), args.format))
        else:
            _print_result(result)
        if args.cpi:
            if result.cpi_stack is None:
                print("result carries no CPI stack (it predates always-on "
                      "cycle accounting, or was restored from such a "
                      "checkpoint)", file=sys.stderr)
                return 1
            print()
            print(result.cpi_stack.waterfall())
        return 0

    try:
        events = read_events(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    if args.cpi:
        print("--cpi needs a result JSON (CPI stacks are not in traces)",
              file=sys.stderr)
        return 2
    summary = summarize_events(events)
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    elif args.format:
        print(_render_rows(summary.rows(), args.format))
    else:
        print(summary.format())
    if args.chrome_out:
        write_chrome_trace(events, args.chrome_out)
        print(f"wrote Chrome trace to {args.chrome_out} "
              "(open in chrome://tracing)", file=sys.stderr)
    return 0


def _command_diff(args: argparse.Namespace) -> int:
    from repro.analysis.diff import DiffError, diff_paths

    try:
        comparison = diff_paths(args.a, args.b, tolerance=args.tolerance)
    except DiffError as exc:
        print(f"diff error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        print(comparison.format())
    if args.fail_on_regression and comparison.regressions:
        print(f"{len(comparison.regressions)} regression(s)", file=sys.stderr)
        return 1
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench import (
        format_micro_bench,
        run_micro_bench,
        write_bench,
    )

    document = run_micro_bench(
        operations=args.accesses,
        progress=lambda line: print(line, file=sys.stderr),
    )
    path = write_bench(document, args.out_dir)
    print(f"wrote {path}", file=sys.stderr)
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(format_micro_bench(document))
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.experiments import report as report_module
    from repro.experiments.store import ResultStore

    experiments = report_module.EXPERIMENTS
    if args.only:
        wanted = {name.strip() for name in args.only.split(",")}
        unknown = wanted - {name for name, _ in experiments}
        if unknown:
            print(f"unknown exhibits: {sorted(unknown)}", file=sys.stderr)
            print(f"available: {[n for n, _ in experiments]}", file=sys.stderr)
            return 2
        experiments = [
            entry for entry in experiments if entry[0] in wanted
        ]
    if args.resume and args.store is None:
        print("--resume requires --store DIR", file=sys.stderr)
        return 2
    if args.checkpoint_every is not None and args.store is None:
        print("--checkpoint-every requires --store DIR", file=sys.stderr)
        return 2
    # --jobs 1 runs points in-process, where nothing times, retries or
    # checkpoints them: refuse the flags rather than ignore them.
    for flag, value in (("--timeout", args.timeout),
                        ("--retries", args.retries),
                        ("--checkpoint-every", args.checkpoint_every)):
        if value is not None and args.jobs < 2:
            print(f"{flag} requires --jobs 2 or more", file=sys.stderr)
            return 2
    if args.store_quota is not None and args.store is None:
        print("--store-quota requires --store DIR", file=sys.stderr)
        return 2
    store = ResultStore(args.store) if args.store else None
    monitor = None
    if (
        args.deadline is not None
        or args.max_rss is not None
        or args.store_quota is not None
    ):
        from repro import budget as budget_mod

        monitor = budget_mod.BudgetMonitor(
            budget_mod.Budget(
                deadline_seconds=args.deadline,
                max_rss_bytes=args.max_rss,
                disk_quota_bytes=args.store_quota,
            )
        )
        if store is not None:
            # The quota covers entries AND per-point checkpoints — both
            # live under the store root.
            monitor.track_directory(store.root)
        # Arm before the pool forks so workers inherit the quota guard
        # (their copy is passive; this monitor stays the authority).
        budget_mod.arm(monitor)
    try:
        document = report_module.build_report(
            progress=lambda s: print(s, file=sys.stderr),
            experiments=experiments,
            jobs=args.jobs,
            store=store,
            resume=args.resume,
            timeout=args.timeout,
            retries=args.retries,
            checkpoint_every=args.checkpoint_every,
            monitor=monitor,
        )
    except KeyboardInterrupt as exc:
        # Everything already simulated was persisted write-through; a
        # rerun with --resume replays only the missing points.
        message = str(exc) or "interrupted"
        print(f"\n{message}", file=sys.stderr)
        return 130
    finally:
        if monitor is not None and budget_mod.ACTIVE is monitor:
            budget_mod.disarm()
    text = document.text
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    partial = document.partial_exhibits
    if partial:
        print(f"PARTIAL exhibits: {', '.join(partial)}", file=sys.stderr)
    if document.budget_breach is not None:
        # The PARTIAL report is already on disk/stdout; now surface the
        # breach with its stable exit code (7) and resume hint.
        breach = document.budget_breach
        print(f"{type(breach).__name__}: {breach}", file=sys.stderr)
        from repro.errors import exit_code_for as _exit_code_for

        return _exit_code_for(breach)
    if partial and args.strict:
        return 1
    return 0


def _command_doctor(args: argparse.Namespace) -> int:
    from repro.doctor import run_doctor

    from repro.doctor import DEFAULT_MIN_FREE_BYTES

    doctor_report = run_doctor(
        store_dir=args.store,
        checkpoint_dirs=args.checkpoint_dir,
        fix=args.fix,
        store_quota_bytes=args.store_quota,
        min_free_bytes=(
            args.min_free if args.min_free is not None
            else DEFAULT_MIN_FREE_BYTES
        ),
    )
    if args.json:
        print(json.dumps(doctor_report.to_dict(), indent=2, sort_keys=True))
    else:
        print(doctor_report.format())
    if not doctor_report.ok:
        from repro.errors import DoctorError

        raise DoctorError(  # -> exit code 5
            f"{len(doctor_report.problems)} unresolved problem(s)"
            + ("" if args.fix else "; re-run with --fix to clean up")
        )
    return 0


def _command_mixes() -> int:
    print("programs:")
    for name in sorted(PROGRAMS):
        print(f"  {name}")
    print("\nmixes (VM1 + VM2):")
    for name, (vm1, vm2) in MIXES.items():
        print(f"  {name:<16} {vm1} + {vm2}")
    return 0


def _command_characterize(args: argparse.Namespace) -> int:
    from repro.analysis.characterize import characterize, compare
    from repro.workloads.mixes import PROGRAMS, make_program

    names = args.programs or sorted(PROGRAMS)
    unknown = set(names) - set(PROGRAMS)
    if unknown:
        print(f"unknown programs: {sorted(unknown)}", file=sys.stderr)
        return 2
    profiles = [
        characterize(make_program(name, scale=args.scale),
                     accesses=args.accesses)
        for name in names
    ]
    print(compare(profiles))
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        return _command_run(args)
    if args.command == "stats":
        return _command_stats(args)
    if args.command == "diff":
        return _command_diff(args)
    if args.command == "bench":
        return _command_bench(args)
    if args.command == "report":
        return _command_report(args)
    if args.command == "doctor":
        return _command_doctor(args)
    if args.command == "mixes":
        return _command_mixes()
    if args.command == "characterize":
        return _command_characterize(args)
    raise AssertionError(f"unhandled command {args.command}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        # The taxonomy's contract: each family maps to one stable exit
        # code (docs/robustness.md), so drivers can assert on failure
        # modes.
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    raise SystemExit(main())

"""``repro chaos``: run a campaign under a fault plan, assert the end state.

The recovery machinery (write-through store, retrying pool, checksummed
checkpoints) is only trustworthy if it provably converges *under
failure* to the same result it produces without failure.  This module
makes that a single assertable run:

1. **baseline** — the selected evaluation points run fault-free into
   ``<out>/baseline-store``;
2. **chaos round** — the runner caches are cleared and the same points
   run again into ``<out>/chaos-store`` with the :class:`FaultPlan`
   armed (workers inherit it via fork); every injection lands in the
   durable fault log ``<out>/faults.jsonl``;
3. **recovery rounds** — the plan is disarmed and the campaign re-runs
   with ``resume`` semantics (caches cleared each round, so corrupt
   disk entries cannot hide behind memory) until it converges or the
   round budget runs out.

End-state assertions (any failure ⇒ :class:`~repro.errors.ChaosError`,
exit code 4):

* the plan actually fired (the fault log is non-empty);
* the final round's campaign summary reports no failed points;
* the chaos store is **byte-identical** to the baseline store — same
  entry set, same bytes (stored payloads are host-independent);
* when whole exhibits were selected, the report rendered from the chaos
  store matches the baseline report text exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro import faults
from repro.errors import ChaosError, ConfigError, ReproError
from repro.experiments import report as report_module
from repro.experiments import runner
from repro.experiments.pool import run_campaign
from repro.experiments.store import ResultStore

Progress = Callable[[str], None]

DEFAULT_ROUNDS = 3


@dataclass
class ChaosRound:
    """What one campaign round did."""

    number: int
    armed: bool
    summary: Optional[str] = None
    error: Optional[str] = None
    failures: int = 0
    converged: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "round": self.number,
            "armed": self.armed,
            "summary": self.summary,
            "error": self.error,
            "failures": self.failures,
            "converged": self.converged,
        }


@dataclass
class ChaosReport:
    """End state of one chaos campaign, with its assertion verdicts."""

    plan_name: str
    rounds: List[ChaosRound] = field(default_factory=list)
    injected: int = 0            # cross-process, from the fault log
    parent_injected: int = 0     # parent-side injector records
    store_entries: int = 0
    problems: List[str] = field(default_factory=list)
    report_match: Optional[bool] = None  # None = exhibits not compared
    fault_log: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def raise_if_failed(self) -> None:
        if self.problems:
            raise ChaosError(
                f"chaos plan {self.plan_name!r}: "
                + "; ".join(self.problems)
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "plan": self.plan_name,
            "ok": self.ok,
            "injected": self.injected,
            "parent_injected": self.parent_injected,
            "store_entries": self.store_entries,
            "report_match": self.report_match,
            "fault_log": self.fault_log,
            "rounds": [entry.to_dict() for entry in self.rounds],
            "problems": list(self.problems),
        }

    def format(self) -> str:
        lines = [f"chaos plan {self.plan_name!r}:"]
        for entry in self.rounds:
            mode = "armed" if entry.armed else "recovery"
            outcome = entry.error or entry.summary or "-"
            mark = " [converged]" if entry.converged else ""
            lines.append(f"  round {entry.number} ({mode}): {outcome}{mark}")
        lines.append(
            f"  {self.injected} fault(s) injected "
            f"({self.parent_injected} parent-side), "
            f"{self.store_entries} store entries"
        )
        if self.report_match is not None:
            lines.append(
                "  report text: "
                + ("matches baseline" if self.report_match else "DIFFERS")
            )
        for problem in self.problems:
            lines.append(f"  PROBLEM: {problem}")
        lines.append("  verdict: " + ("converged" if self.ok else "FAILED"))
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _store_problems(baseline: Path, chaos: Path) -> List[str]:
    """Byte-compare two stores: missing/extra/differing entries."""
    problems: List[str] = []
    base_entries = {path.name for path in baseline.glob("*.json")}
    chaos_entries = {path.name for path in chaos.glob("*.json")}
    for name in sorted(base_entries - chaos_entries):
        problems.append(f"chaos store is missing entry {name}")
    for name in sorted(chaos_entries - base_entries):
        problems.append(f"chaos store has extra entry {name}")
    for name in sorted(base_entries & chaos_entries):
        if (baseline / name).read_bytes() != (chaos / name).read_bytes():
            problems.append(f"entry {name} differs from the baseline bytes")
    return problems


def _count_log_lines(path: Path) -> int:
    try:
        with open(path) as handle:
            return sum(1 for line in handle if line.strip())
    except OSError:
        return 0


def _render_text(
    selected, store: ResultStore, jobs: int, progress: Progress
) -> str:
    """Render the selected exhibits purely from ``store`` contents."""
    runner.clear_cache()
    document = report_module.build_report(
        progress=progress, experiments=selected,
        jobs=jobs, store=store, resume=True,
    )
    return document.text


# ----------------------------------------------------------------------
def run_chaos(
    plan: faults.FaultPlan,
    *,
    exhibits: Optional[Sequence[str]] = None,
    points: Optional[Sequence[Dict[str, object]]] = None,
    jobs: int = 2,
    rounds: int = DEFAULT_ROUNDS,
    out_dir: str = "chaos-out",
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    progress: Optional[Progress] = None,
) -> ChaosReport:
    """Run the baseline + chaos + recovery sequence; see module docstring.

    ``exhibits`` names report exhibits whose evaluation grids form the
    campaign (default: figure8, a 10-mix single-scheme grid); ``points``
    bypasses exhibit enumeration with explicit run signatures (tests use
    this for tiny grids — report-text comparison is skipped then).
    Returns the :class:`ChaosReport`; call
    :meth:`ChaosReport.raise_if_failed` for the exit-code-4 behavior.
    Below 2 ``jobs`` points run in-process, so a plan arming a
    ``pool.worker.*`` point, a ``timeout`` or ``retries`` raises
    :class:`~repro.errors.ConfigError`.
    """
    if jobs < 2:
        # In-process points never enter a worker and are never timed
        # or retried.
        for spec in plan.faults:
            if spec.point.startswith("pool.worker."):
                raise ConfigError(
                    f"{spec.point} fires only in a worker process; "
                    "run the plan with jobs 2 or more"
                )
        if timeout is not None:
            raise ConfigError("timeout needs jobs 2 or more")
        if retries is not None:
            raise ConfigError("retries needs jobs 2 or more")
    note = progress or (lambda message: None)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = ChaosReport(plan_name=plan.name)

    selected = None
    if points is None:
        names = list(exhibits) if exhibits else ["figure8"]
        known = {name for name, _ in report_module.EXPERIMENTS}
        unknown = sorted(set(names) - known)
        if unknown:
            raise ChaosError(f"unknown exhibits: {', '.join(unknown)}")
        selected = [
            entry for entry in report_module.EXPERIMENTS if entry[0] in names
        ]
        points = report_module.enumerate_points(selected)
    points = list(points)
    if not points:
        raise ChaosError("no evaluation points selected")

    baseline_root = out / "baseline-store"
    chaos_root = out / "chaos-store"
    log_path = out / "faults.jsonl"
    if log_path.exists():
        log_path.unlink()

    # Phase 1: fault-free baseline -------------------------------------
    note(f"baseline: {len(points)} point(s) -> {baseline_root}")
    faults.disarm()
    runner.clear_cache()
    baseline_store = ResultStore(baseline_root)
    baseline_summary = run_campaign(
        points, jobs=jobs, store=baseline_store, resume=True,
        timeout=timeout, retries=retries, progress=note,
    )
    if not baseline_summary.ok:
        raise ChaosError(
            "fault-free baseline campaign failed: "
            + "; ".join(f.describe() for f in baseline_summary.failures)
        )

    # Phase 2: armed round + recovery rounds ---------------------------
    chaos_store = ResultStore(chaos_root)
    converged = False
    for number in range(1, max(1, rounds) + 1):
        armed_round = number == 1
        entry = ChaosRound(number=number, armed=armed_round)
        report.rounds.append(entry)
        # Memory must not mask disk: a corrupt entry hiding behind the
        # in-memory cache would fake convergence.
        runner.clear_cache()
        injector = None
        if armed_round:
            note(f"round {number}: ARMED under plan {plan.name!r}")
            injector = faults.arm(plan, log_path=str(log_path))
        else:
            note(f"round {number}: recovery (fault-free, resume)")
        try:
            summary = run_campaign(
                points, jobs=jobs, store=chaos_store, resume=True,
                timeout=timeout, retries=retries, progress=note,
            )
            entry.summary = summary.format()
            entry.failures = len(summary.failures)
        except KeyboardInterrupt:
            raise
        except (ReproError, OSError) as exc:
            # An injected fault escaped the campaign (e.g. a parent-side
            # store write failure).  That is a legitimate chaos outcome
            # for the round — the recovery rounds must still converge.
            entry.error = f"{type(exc).__name__}: {exc}"
            note(f"round {number}: campaign raised {entry.error}")
        finally:
            if armed_round:
                faults.disarm()
                report.parent_injected = (
                    injector.injected if injector is not None else 0
                )
        if entry.error is None and entry.failures == 0:
            if not _store_problems(baseline_root, chaos_root):
                entry.converged = True
                converged = True
                note(f"round {number}: store matches baseline")
                break

    # Phase 3: end-state assertions ------------------------------------
    report.fault_log = str(log_path)
    report.injected = _count_log_lines(log_path)
    report.store_entries = len(chaos_store)
    if report.injected == 0:
        report.problems.append(
            "the plan never fired (empty fault log) — nothing was tested"
        )
    if not converged:
        report.problems.append(
            f"did not converge within {rounds} round(s)"
        )
        report.problems.extend(_store_problems(baseline_root, chaos_root))
    if converged and selected is not None:
        baseline_text = _render_text(selected, baseline_store, jobs, note)
        chaos_text = _render_text(selected, chaos_store, jobs, note)
        report.report_match = baseline_text == chaos_text
        if not report.report_match:
            report.problems.append(
                "report rendered from the chaos store differs from the "
                "baseline report"
            )
    runner.clear_cache()
    return report


__all__ = ["ChaosReport", "ChaosRound", "run_chaos", "DEFAULT_ROUNDS"]

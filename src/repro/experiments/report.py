"""Full reproduction report: run every experiment, render EXPERIMENTS-style
markdown.

Usage::

    python -m repro.experiments.report            # print to stdout
    python -m repro.experiments.report out.md     # write to a file

The richer entry point is ``repro report`` (see ``repro.cli``), which
adds crash-safe campaign execution: ``--jobs N`` fans the recorded
evaluation grid out across worker processes, ``--store DIR`` persists
every completed point, ``--resume`` replays only what is missing after
an interruption, and a point that keeps failing degrades its exhibit to
PARTIAL instead of aborting the campaign.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.budget import BudgetMonitor
from repro.errors import BudgetExceededError, ReproError
from repro.experiments import ablations, figures, runner
from repro.experiments.pool import CampaignSummary, run_campaign
from repro.experiments.runner import (
    PointFailedError,
    cache_size,
    default_total_accesses,
)
from repro.experiments.store import ResultStore

#: Paper-expectation notes shown next to each exhibit.
PAPER_NOTES = {
    "figure1": "paper: geomean ratio >6x, per-mix roughly 2-11x",
    "table1": "paper: native 43-79 cycles, virtualized 61-1158",
    "figure3": "paper: ~60% average occupancy, ~80% peak (ccomp)",
    "figure7": "paper: Conventional ~0.54x, CSALT-D ~1.11x, CSALT-CD ~1.25x geomean",
    "figure8": "paper: ~97% of page walks eliminated",
    "figure9": "paper: TLB share tracks application phases",
    "figure10": "paper: CSALT reduces L2 MPKI, up to ~30% (ccomp)",
    "figure11": "paper: CSALT-CD reduces L3 MPKI, up to ~26% (ccomp)",
    "figure12": "paper: ~5% geomean gain natively, ~30% peak (ccomp)",
    "figure13": "paper: CSALT-CD ~30% over DIP; TSB trails all schemes",
    "figure14": "paper: gain grows with contexts (4-ctx ~1.33x)",
    "figure15": "paper: default epoch best for most mixes",
    "figure16": "paper: steady gains, slightly lower at 30 ms",
}

EXPERIMENTS: List = [
    ("figure1", figures.run_figure1),
    ("table1", figures.run_table1),
    ("figure3", figures.run_figure3),
    ("figure7", figures.run_figure7),
    ("figure8", figures.run_figure8),
    ("figure9", figures.run_figure9),
    ("figure10", figures.run_figure10),
    ("figure11", figures.run_figure11),
    ("figure12", figures.run_figure12),
    ("figure13", figures.run_figure13),
    ("figure14", figures.run_figure14),
    ("figure15", figures.run_figure15),
    ("figure16", figures.run_figure16),
    ("ablation-static", ablations.run_static_vs_dynamic),
    ("ablation-pseudo-lru", ablations.run_pseudo_lru),
    ("ablation-partition-levels", ablations.run_partition_levels),
    ("extension-5level", ablations.run_five_level_paging),
    ("extension-prefetch", ablations.run_tlb_prefetch),
]

@dataclass
class ReportDocument:
    """A rendered report plus per-exhibit status for strict callers."""

    text: str
    statuses: Dict[str, str] = field(default_factory=dict)  # name -> ok|partial
    campaign: Optional[CampaignSummary] = None
    #: Set when a resource budget stopped the campaign: the report still
    #: rendered (PARTIAL where points are missing), but the caller owes
    #: the user exit code 7 and a resume hint.
    budget_breach: Optional[BudgetExceededError] = None

    @property
    def partial_exhibits(self) -> List[str]:
        return [
            name for name, status in self.statuses.items() if status != "ok"
        ]


def enumerate_points(
    experiments: Sequence[Tuple[str, Callable]]
) -> List[Dict[str, object]]:
    """Every run signature the given exhibits will request (with dups),
    recorded by running each exhibit once under :func:`runner.recording`.
    """
    with runner.recording() as points:
        for _, experiment in experiments:
            experiment()
    return points


def build_report(
    progress: Callable[[str], None] = lambda s: None,
    *,
    experiments: Optional[Sequence[Tuple[str, Callable]]] = None,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    monitor: Optional[BudgetMonitor] = None,
) -> ReportDocument:
    """Generate the report, optionally through a crash-safe campaign.

    When a ``store`` is given or ``jobs > 1``, the exhibits' evaluation
    grids are recorded (:func:`enumerate_points`) and drained by the
    worker pool first (persistent, deduplicated, fault-isolated);
    rendering then reads warm caches.  An exhibit whose points failed
    renders as PARTIAL with the error attached — the rest of the report
    still completes.

    ``monitor`` runs the campaign under resource budgets: on a hard
    breach the report is *still rendered* from whatever completed
    (breach-skipped points show as PARTIAL), and the breach is returned
    in ``document.budget_breach`` so the CLI can write the artifact and
    then exit 7.
    """
    selected = list(experiments if experiments is not None else EXPERIMENTS)
    campaign = None
    breach: Optional[BudgetExceededError] = None
    if store is not None or jobs > 1 or monitor is not None:
        if store is not None:
            runner.set_store(store, consult=resume)
        try:
            campaign = run_campaign(
                enumerate_points(selected),
                jobs=jobs, store=store, resume=resume,
                timeout=timeout, retries=retries, progress=progress,
                checkpoint_every=checkpoint_every, monitor=monitor,
            )
        except BudgetExceededError as exc:
            breach = exc
            campaign = getattr(exc, "summary", None)
        if campaign is not None:
            progress(f"campaign: {campaign.format()}")
    document = ReportDocument(
        text="", campaign=campaign, budget_breach=breach
    )
    sections = [
        "# CSALT reproduction report",
        "",
        f"Generated by `python -m repro.experiments.report` "
        f"({default_total_accesses()} accesses/run, quarter-scale preset; "
        "see DESIGN.md Section 5).",
        "",
    ]
    if breach is not None:
        sections.append(
            f"> **PARTIAL — budget exceeded ({breach.dimension})**: "
            f"{breach}\n"
        )
    for name, experiment in selected:
        started = perf_counter()
        try:
            result = experiment()
        except PointFailedError as exc:
            document.statuses[name] = "partial"
            sections.append(_partial_section(name, str(exc)))
            progress(f"{name}: PARTIAL ({exc})")
        except (KeyboardInterrupt, SystemExit):
            raise
        except ReproError as exc:
            # A classified failure: degrade the exhibit, keep the report.
            document.statuses[name] = "partial"
            error = f"{type(exc).__name__}: {exc}"
            sections.append(_partial_section(name, error))
            progress(f"{name}: PARTIAL ({error})")
        except Exception as exc:  # defense: no exhibit may kill the report
            document.statuses[name] = "partial"
            error = f"unexpected {type(exc).__name__}: {exc}"
            sections.append(_partial_section(name, error))
            progress(traceback.format_exc())
            progress(f"{name}: PARTIAL ({error})")
        else:
            document.statuses[name] = "ok"
            sections.append(result.format())
            progress(f"{name}: done in {perf_counter() - started:.1f}s "
                     f"({cache_size()} cached runs)")
        note = PAPER_NOTES.get(name)
        if note:
            sections.append(f"\n*{note}*")
        sections.append("")
    document.text = "\n".join(sections)
    return document


def _partial_section(name: str, error: str) -> str:
    return (
        f"### {name} — PARTIAL\n\n"
        f"This exhibit could not be fully regenerated: {error}\n\n"
        "Re-run with `repro report --resume --store DIR` to retry the "
        "missing points."
    )


def generate_report(
    progress: Callable[[str], None] = lambda s: None, **kwargs
) -> str:
    """Run every experiment and return the markdown report text."""
    return build_report(progress, **kwargs).text


def main(argv: List[str]) -> int:
    report = generate_report(progress=lambda s: print(s, file=sys.stderr))
    if len(argv) > 1:
        with open(argv[1], "w") as handle:
            handle.write(report + "\n")
        print(f"wrote {argv[1]}", file=sys.stderr)
    else:
        print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

"""Every figure and table of the paper's evaluation, as runnable experiments.

Each ``run_*`` function regenerates the rows/series of one paper exhibit
from fresh (cached) simulations and returns a result object with the
numbers plus a ``format()`` method producing a paper-style text table.
The mapping to paper exhibits is the experiment index in DESIGN.md §6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.schemes import Scheme
from repro.experiments.runner import run_point
from repro.experiments.tables import format_table
from repro.sim.stats import geometric_mean
from repro.workloads.mixes import MIX_NAMES

#: Programs shown individually in Table 1 / Figure 3.
TABLE1_PROGRAMS = (
    "canneal", "ccomp", "graph500", "gups", "pagerank", "streamcluster",
)
FIGURE3_PROGRAMS = ("canneal", "ccomp", "graph500", "gups", "pagerank")

#: The four schemes of the headline comparison (Figure 7).
FIGURE7_SCHEMES = (
    Scheme.CONVENTIONAL, Scheme.POM_TLB, Scheme.CSALT_D, Scheme.CSALT_CD,
)


@dataclass
class SeriesResult:
    """A named family of per-mix series plus derived geomeans."""

    title: str
    headers: List[str]
    rows: List[List[object]]

    def format(self) -> str:
        return f"### {self.title}\n\n" + format_table(self.headers, self.rows)


def _geomean_row(label: str, columns: List[List[float]]) -> List[object]:
    return [label] + [geometric_mean(col) for col in columns]


def _relative_series(
    title: str,
    labels: Sequence[str],
    mixes: Sequence[str],
    pairs: Sequence[Tuple[Dict[str, object], Dict[str, object]]],
    **run_kwargs,
) -> SeriesResult:
    """IPC of each ``(point, baseline)`` pair's point over its baseline.

    Both halves of a pair are :func:`run_point` keyword arguments applied
    to every mix; each pair is one column (headed by ``labels``), and a
    geomean row closes the table.
    """
    rows: List[List[object]] = []
    columns: List[List[float]] = [[] for _ in pairs]
    for mix in mixes:
        row: List[object] = [mix]
        for column, (point, baseline) in zip(columns, pairs):
            base = run_point(mix, **baseline, **run_kwargs)
            relative = run_point(mix, **point, **run_kwargs).speedup_over(base)
            column.append(relative)
            row.append(relative)
        rows.append(row)
    rows.append(_geomean_row("geomean", columns))
    return SeriesResult(title, ["mix", *labels], rows)


# ----------------------------------------------------------------------
# Figure 1 — L2 TLB MPKI ratio, context-switched vs not
# ----------------------------------------------------------------------
def run_figure1(
    mixes: Sequence[str] = MIX_NAMES, **run_kwargs
) -> SeriesResult:
    """Ratio of L2 TLB MPKI with 2 VM contexts over the 1-context baseline.

    Paper: geomean ratio > 6x with per-mix ratios roughly 2-11x.
    """
    from repro.workloads.mixes import MIXES

    rows: List[List[object]] = []
    ratios: List[float] = []
    for mix in mixes:
        switched = run_point(mix, Scheme.CONVENTIONAL, contexts=2, **run_kwargs)
        # Non-context-switched baseline: each of the pair's programs
        # running alone, combined by geomean (a floor keeps a fully
        # TLB-resident solo run from producing an unbounded ratio).
        solo_mpkis = []
        for program in set(MIXES[mix]):
            alone = run_point(
                program, Scheme.CONVENTIONAL, contexts=1, **run_kwargs
            )
            solo_mpkis.append(max(alone.l2_tlb_mpki, 0.25))
        base = geometric_mean(solo_mpkis)
        ratio = switched.l2_tlb_mpki / base
        ratios.append(ratio)
        rows.append([mix, switched.l2_tlb_mpki, base, ratio])
    rows.append(_geomean_row("geomean", [
        [r[1] for r in rows], [r[2] for r in rows], ratios,
    ]))
    return SeriesResult(
        "Figure 1: L2 TLB MPKI ratio (context switch / no context switch)",
        ["mix", "MPKI (2 ctx)", "MPKI (1 ctx)", "ratio"],
        rows,
    )


# ----------------------------------------------------------------------
# Table 1 — page-walk cycles per L2 TLB miss, native vs virtualized
# ----------------------------------------------------------------------
def run_table1(
    programs: Sequence[str] = TABLE1_PROGRAMS, **run_kwargs
) -> SeriesResult:
    """Average page-walk cycles per L2 TLB miss, no context switching.

    Paper: native 43-79 cycles; virtualized 61-1158 with the blow-up on
    the scattered-access workloads (connectedcomponent).
    """
    rows: List[List[object]] = []
    for program in programs:
        native = run_point(
            program, Scheme.CONVENTIONAL, contexts=1, virtualized=False,
            **run_kwargs,
        )
        virtualized = run_point(
            program, Scheme.CONVENTIONAL, contexts=1, virtualized=True,
            **run_kwargs,
        )
        rows.append([
            program,
            round(native.walk_cycles_per_l2_miss),
            round(virtualized.walk_cycles_per_l2_miss),
        ])
    return SeriesResult(
        "Table 1: average page-walk cycles per L2 TLB miss",
        ["benchmark", "native", "virtualized"],
        rows,
    )


# ----------------------------------------------------------------------
# Figure 3 — fraction of cache capacity occupied by TLB entries
# ----------------------------------------------------------------------
def run_figure3(
    programs: Sequence[str] = FIGURE3_PROGRAMS, **run_kwargs
) -> SeriesResult:
    """Mean fraction of L2/L3 data-cache lines holding translation entries.

    Paper: ~60% average, up to ~80% for connectedcomponent (POM-TLB
    organization, context-switched).
    """
    rows: List[List[object]] = []
    for program in programs:
        result = run_point(program, Scheme.POM_TLB, contexts=2, **run_kwargs)
        rows.append([
            program, result.mean_l2_tlb_occupancy, result.mean_l3_tlb_occupancy,
        ])
    rows.append(_geomean_row("geomean", [
        [r[1] for r in rows], [r[2] for r in rows],
    ]))
    return SeriesResult(
        "Figure 3: fraction of cache capacity occupied by TLB entries",
        ["benchmark", "L2 D$", "L3 D$"],
        rows,
    )


# ----------------------------------------------------------------------
# Figure 7 — headline performance comparison (normalized to POM-TLB)
# ----------------------------------------------------------------------
def run_figure7(
    mixes: Sequence[str] = MIX_NAMES,
    schemes: Sequence[Scheme] = FIGURE7_SCHEMES,
    **run_kwargs,
) -> SeriesResult:
    """IPC of each scheme normalized to POM-TLB, context-switched.

    Paper: conventional well below 1.0; CSALT-D ~1.11x and CSALT-CD
    ~1.25x geomean, with connectedcomponent the standout (2.24x).
    """
    pom = dict(scheme=Scheme.POM_TLB)
    return _relative_series(
        "Figure 7: performance normalized to POM-TLB",
        [s.label for s in schemes], mixes,
        [(dict(scheme=s), pom) for s in schemes], **run_kwargs,
    )


# ----------------------------------------------------------------------
# Figure 8 — fraction of page walks eliminated by the POM-TLB
# ----------------------------------------------------------------------
def run_figure8(
    mixes: Sequence[str] = MIX_NAMES, **run_kwargs
) -> SeriesResult:
    """Share of L2 TLB misses served without a page walk (paper: ~97%)."""
    rows: List[List[object]] = []
    for mix in mixes:
        result = run_point(mix, Scheme.POM_TLB, contexts=2, **run_kwargs)
        rows.append([mix, result.walks_eliminated_fraction])
    rows.append(_geomean_row("geomean", [[r[1] for r in rows]]))
    return SeriesResult(
        "Figure 8: fraction of page walks eliminated by POM-TLB",
        ["mix", "fraction eliminated"],
        rows,
    )


# ----------------------------------------------------------------------
# Figure 9 — TLB way-share over time (connected component deep dive)
# ----------------------------------------------------------------------
@dataclass
class TimelineResult:
    title: str
    l2_series: List[Tuple[int, float]]
    l3_series: List[Tuple[int, float]]

    def format(self) -> str:
        header = f"### {self.title}\n"

        def render(name: str, series: List[Tuple[int, float]]) -> str:
            if not series:
                return f"{name}: (no partition decisions)"
            points = "  ".join(f"{a}:{f:.2f}" for a, f in series)
            return f"{name} (access:tlb-share): {points}"

        return "\n".join([
            header,
            render("L2 D$", self.l2_series),
            render("L3 D$", self.l3_series),
        ])


def run_figure9(mix: str = "ccomp", **run_kwargs) -> TimelineResult:
    """Partition-decision timeline under CSALT-CD (paper Figure 9)."""
    result = run_point(mix, Scheme.CSALT_CD, contexts=2, **run_kwargs)
    return TimelineResult(
        f"Figure 9: fraction of ways allocated to TLB over time ({mix})",
        result.l2_partition_timeline,
        result.l3_partition_timeline,
    )


# ----------------------------------------------------------------------
# Figures 10 & 11 — relative L2/L3 data-cache MPKI over POM-TLB
# ----------------------------------------------------------------------
def _run_relative_mpki(
    level: str, mixes: Sequence[str], **run_kwargs
) -> SeriesResult:
    schemes = (Scheme.POM_TLB, Scheme.CSALT_D, Scheme.CSALT_CD)
    rows: List[List[object]] = []
    columns: List[List[float]] = [[] for _ in schemes]
    for mix in mixes:
        baseline = run_point(mix, Scheme.POM_TLB, contexts=2, **run_kwargs)
        base_mpki = max(
            baseline.l2_cache_mpki if level == "l2" else baseline.l3_cache_mpki,
            1e-9,
        )
        row: List[object] = [mix]
        for index, scheme in enumerate(schemes):
            result = run_point(mix, scheme, contexts=2, **run_kwargs)
            mpki = result.l2_cache_mpki if level == "l2" else result.l3_cache_mpki
            columns[index].append(mpki / base_mpki)
            row.append(mpki / base_mpki)
        rows.append(row)
    rows.append(_geomean_row("geomean", columns))
    figure = "Figure 10" if level == "l2" else "Figure 11"
    return SeriesResult(
        f"{figure}: relative {level.upper()} data-cache MPKI over POM-TLB",
        ["mix", "POM-TLB", "CSALT-D", "CSALT-CD"],
        rows,
    )


def run_figure10(mixes: Sequence[str] = MIX_NAMES, **run_kwargs) -> SeriesResult:
    """Relative L2 D$ MPKI (paper: CSALT cuts up to ~30%, ccomp)."""
    return _run_relative_mpki("l2", mixes, **run_kwargs)


def run_figure11(mixes: Sequence[str] = MIX_NAMES, **run_kwargs) -> SeriesResult:
    """Relative L3 D$ MPKI (paper: CSALT-CD cuts up to ~26%, ccomp)."""
    return _run_relative_mpki("l3", mixes, **run_kwargs)


# ----------------------------------------------------------------------
# Figure 12 — CSALT-CD in the native (non-virtualized) context
# ----------------------------------------------------------------------
def run_figure12(mixes: Sequence[str] = MIX_NAMES, **run_kwargs) -> SeriesResult:
    """CSALT-CD over POM-TLB on native context-switched runs (paper: ~5%
    average, up to ~30% on connectedcomponent)."""
    return _relative_series(
        "Figure 12: CSALT-CD performance in the native context (vs POM-TLB)",
        ["CSALT-CD"], mixes,
        [(dict(scheme=Scheme.CSALT_CD, virtualized=False),
          dict(scheme=Scheme.POM_TLB, virtualized=False))],
        **run_kwargs,
    )


# ----------------------------------------------------------------------
# Figure 13 — comparison with TSB and DIP
# ----------------------------------------------------------------------
def run_figure13(mixes: Sequence[str] = MIX_NAMES, **run_kwargs) -> SeriesResult:
    """TSB vs DIP vs CSALT-CD, normalized to POM-TLB.

    Paper: CSALT-CD beats DIP by ~30% on average; TSB trails everything
    because of its multi-lookup translation path.
    """
    schemes = (Scheme.TSB, Scheme.DIP, Scheme.CSALT_CD)
    pom = dict(scheme=Scheme.POM_TLB)
    return _relative_series(
        "Figure 13: comparison with prior schemes (normalized to POM-TLB)",
        [s.label for s in schemes], mixes,
        [(dict(scheme=s), pom) for s in schemes], **run_kwargs,
    )


# ----------------------------------------------------------------------
# Figure 14 — sensitivity to the number of contexts per core
# ----------------------------------------------------------------------
def run_figure14(
    mixes: Sequence[str] = MIX_NAMES,
    context_counts: Sequence[int] = (1, 2, 4),
    **run_kwargs,
) -> SeriesResult:
    """CSALT-CD over POM-TLB at 1 / 2 / 4 contexts per core.

    Paper: gains grow with context pressure (4-context geomean ~1.33x).
    """
    return _relative_series(
        "Figure 14: CSALT-CD gain vs contexts per core (normalized to POM-TLB)",
        [f"{n} context{'s' if n > 1 else ''}" for n in context_counts], mixes,
        [(dict(scheme=Scheme.CSALT_CD, contexts=n),
          dict(scheme=Scheme.POM_TLB, contexts=n)) for n in context_counts],
        **run_kwargs,
    )


# ----------------------------------------------------------------------
# Figure 15 — sensitivity to the epoch length
# ----------------------------------------------------------------------
def run_figure15(
    mixes: Sequence[str] = MIX_NAMES,
    epochs: Sequence[int] = (2_000, 4_000, 8_000),
    **run_kwargs,
) -> SeriesResult:
    """CSALT-CD IPC at each epoch, normalized to the default epoch.

    The paper sweeps 128K/256K/512K accesses on full-length runs; the
    scaled epochs keep the same 0.5x/1x/2x spread around the default.
    """
    default_epoch = epochs[len(epochs) // 2]
    default = dict(scheme=Scheme.CSALT_CD, epoch_accesses=default_epoch)
    return _relative_series(
        "Figure 15: epoch-length sensitivity (normalized to default epoch)",
        [f"epoch {e}" for e in epochs], mixes,
        [(dict(scheme=Scheme.CSALT_CD, epoch_accesses=e), default)
         for e in epochs],
        **run_kwargs,
    )


# ----------------------------------------------------------------------
# Figure 16 — sensitivity to the context-switch interval
# ----------------------------------------------------------------------
def run_figure16(
    mixes: Sequence[str] = MIX_NAMES,
    intervals_ms: Sequence[float] = (5.0, 10.0, 30.0),
    **run_kwargs,
) -> SeriesResult:
    """CSALT-CD over POM-TLB at 5 / 10 / 30 ms quanta (paper: steady
    gains, slightly lower at 30 ms)."""
    return _relative_series(
        "Figure 16: context-switch interval sensitivity (vs POM-TLB)",
        [f"{ms:g} ms" for ms in intervals_ms], mixes,
        [(dict(scheme=Scheme.CSALT_CD, switch_interval_ms=ms),
          dict(scheme=Scheme.POM_TLB, switch_interval_ms=ms))
         for ms in intervals_ms],
        **run_kwargs,
    )

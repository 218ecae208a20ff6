"""Ablation studies for the design choices DESIGN.md Section 7 calls out.

These go beyond the paper's exhibits: they isolate individual CSALT
design decisions (static vs dynamic split, pseudo-LRU position estimates,
which cache levels to partition) the paper discusses in footnote 6 and
Sections 3.3-3.4 without plotting.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.schemes import Scheme
from repro.experiments.figures import (
    SeriesResult,
    _geomean_row,
    _relative_series,
)
from repro.experiments.runner import run_point

#: Contended mixes where partitioning decisions matter most.
ABLATION_MIXES = ("ccomp", "can_ccomp", "canneal", "pagerank")


def run_static_vs_dynamic(
    mixes: Sequence[str] = ABLATION_MIXES, **run_kwargs
) -> SeriesResult:
    """Fixed half/half split vs CSALT-D vs CSALT-CD (paper footnote 6:
    no single static split wins across workloads)."""
    schemes = (Scheme.CSALT_STATIC, Scheme.CSALT_D, Scheme.CSALT_CD)
    pom = dict(scheme=Scheme.POM_TLB)
    return _relative_series(
        "Ablation: static vs dynamic partitioning (normalized to POM-TLB)",
        ["Static 50/50", "CSALT-D", "CSALT-CD"], mixes,
        [(dict(scheme=s), pom) for s in schemes], **run_kwargs,
    )


def run_pseudo_lru(
    mixes: Sequence[str] = ABLATION_MIXES, **run_kwargs
) -> SeriesResult:
    """Section 3.4: CSALT-CD on NRU / tree-PLRU caches with estimated
    stack positions, relative to true-LRU CSALT-CD.  The paper reports
    only minor degradation."""
    variants = (
        ("lru", False, "True-LRU"),
        ("nru", True, "NRU+estimate"),
        ("plru", True, "BT-PLRU+estimate"),
        ("rrip", True, "SRRIP+estimate"),
    )
    true_lru = dict(
        scheme=Scheme.CSALT_CD, replacement="lru", estimate_positions=False
    )
    return _relative_series(
        "Ablation: replacement-policy stack estimates (vs true-LRU CSALT-CD)",
        [label for _, _, label in variants], mixes,
        [(dict(scheme=Scheme.CSALT_CD, replacement=replacement,
               estimate_positions=estimate), true_lru)
         for replacement, estimate, _ in variants],
        **run_kwargs,
    )


def run_partition_levels(
    mixes: Sequence[str] = ABLATION_MIXES, **run_kwargs
) -> SeriesResult:
    """Partition only the L2s, only the L3, or both (the paper partitions
    both; this quantifies each level's contribution)."""
    variants = (
        (dict(partition_l2_only=True), "L2 only"),
        (dict(partition_l3_only=True), "L3 only"),
        (dict(), "L2+L3"),
    )
    pom = dict(scheme=Scheme.POM_TLB)
    return _relative_series(
        "Ablation: partitioned cache levels (normalized to POM-TLB)",
        [label for _, label in variants], mixes,
        [(dict(scheme=Scheme.CSALT_CD, **options), pom)
         for options, _ in variants],
        **run_kwargs,
    )


def run_five_level_paging(
    mixes: Sequence[str] = ABLATION_MIXES, **run_kwargs
) -> SeriesResult:
    """Extension: Intel LA57 five-level paging (paper Sections 1-2.1).

    The paper argues a fifth radix level "will only strengthen the
    motivation": nested walks get deeper (up to 35 references), so both
    the large L3 TLB and CSALT matter more.  Columns report mean walk
    cycles at 4 vs 5 levels (conventional system) and the CSALT-CD gain
    over POM-TLB at each depth.
    """
    rows: List[List[object]] = []
    walk4_col: List[float] = []
    walk5_col: List[float] = []
    gain4_col: List[float] = []
    gain5_col: List[float] = []
    for mix in mixes:
        walk_cycles = {}
        gains = {}
        for levels in (4, 5):
            conventional = run_point(
                mix, Scheme.CONVENTIONAL, contexts=2,
                page_table_levels=levels, **run_kwargs,
            )
            walk_cycles[levels] = conventional.walk_mean_cycles
            baseline = run_point(
                mix, Scheme.POM_TLB, contexts=2,
                page_table_levels=levels, **run_kwargs,
            )
            csalt = run_point(
                mix, Scheme.CSALT_CD, contexts=2,
                page_table_levels=levels, **run_kwargs,
            )
            gains[levels] = csalt.speedup_over(baseline)
        walk4_col.append(walk_cycles[4])
        walk5_col.append(walk_cycles[5])
        gain4_col.append(gains[4])
        gain5_col.append(gains[5])
        rows.append([
            mix, walk_cycles[4], walk_cycles[5], gains[4], gains[5],
        ])
    rows.append(_geomean_row(
        "geomean", [walk4_col, walk5_col, gain4_col, gain5_col]
    ))
    return SeriesResult(
        "Extension: five-level (LA57) paging",
        ["mix", "walk cyc (4-lvl)", "walk cyc (5-lvl)",
         "CSALT-CD gain (4-lvl)", "CSALT-CD gain (5-lvl)"],
        rows,
    )


def run_tlb_prefetch(
    mixes: Sequence[str] = ("streamcluster", "can_stream", "gups", "ccomp"),
    **run_kwargs,
) -> SeriesResult:
    """Extension: sequential TLB prefetching on top of CSALT-CD.

    The paper (Section 6) cites TLB prefetching as orthogonal to its
    capacity approach.  Streaming mixes should benefit (their L2 TLB
    misses are sequential); random-access mixes should be unharmed (the
    stream detector suppresses useless prefetches).
    """
    alone = dict(scheme=Scheme.CSALT_CD, tlb_prefetch=False)
    prefetching = dict(scheme=Scheme.CSALT_CD, tlb_prefetch=True)
    return _relative_series(
        "Extension: sequential TLB prefetching (vs CSALT-CD alone)",
        ["CSALT-CD", "CSALT-CD + prefetch"], mixes,
        [(alone, alone), (prefetching, alone)], **run_kwargs,
    )

"""Run differencing: compare two simulation results (or result stores).

Backs the ``repro diff A B`` CLI command.  ``A`` is the baseline and
``B`` the candidate, so every delta reads "what changed going from A to
B".  Three input shapes are accepted per side, sniffed from the JSON:

* a ``repro run --json`` document (``{"result": {...}, ...}``);
* a :class:`~repro.experiments.store.ResultStore` entry
  (``{"signature": {...}, "result": {...}}``);
* a bare :meth:`~repro.sim.stats.SimulationResult.to_dict` snapshot.

A side may also be a *directory*, in which case it is opened as a
result store and matched entry-by-entry against the other store.

Deltas are sign-aware: every compared metric carries a
direction (higher- or lower-is-better), and a change in the bad
direction beyond the tolerance is flagged as a regression.  When both
runs carry a CPI stack the diff additionally decomposes the performance
change per cycle component — the paper's headline speedups show up as
the translation components (``pom.*``/``walk.*``/``tsb.*``) shrinking
while ``base`` and ``data.*`` stay put.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import DataError
from repro.sim.stats import SimulationResult
from repro.telemetry.accounting import component_sort_key, merge_components

#: Compared metrics: ``(attribute, +1 higher-is-better / -1 lower)``.
#: Attributes are read off :class:`SimulationResult`; order is display
#: order.
METRIC_DIRECTIONS: List[Tuple[str, int]] = [
    ("ipc", +1),
    ("l2_tlb_mpki", -1),
    ("l2_cache_mpki", -1),
    ("l3_cache_mpki", -1),
    ("page_walks", -1),
    ("walk_mean_cycles", -1),
    ("walk_cycles_per_l2_miss", -1),
    ("walks_eliminated_fraction", +1),
    ("pom_hit_rate", +1),
    ("l3_data_hit_rate", +1),
]

#: Relative change below this is noise, not a regression/improvement.
DEFAULT_TOLERANCE = 0.01


class DiffError(DataError, ValueError):
    """An input could not be parsed as a result or opened as a store.

    A :class:`~repro.errors.DataError` (exit code 2); still a
    ``ValueError`` for pre-taxonomy callers.
    """


# ----------------------------------------------------------------------
# Input loading
# ----------------------------------------------------------------------
def load_result_file(path: str) -> SimulationResult:
    """Load one result from any of the accepted JSON shapes."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as exc:
        raise DiffError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DiffError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise DiffError(f"{path}: expected a JSON object")
    candidate = document.get("result", document)
    try:
        return SimulationResult.from_dict(candidate)
    except (KeyError, TypeError, ValueError) as exc:
        raise DiffError(
            f"{path} does not look like a simulation result "
            f"(run --json document, store entry, or result dict): {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Result-vs-result diff
# ----------------------------------------------------------------------
@dataclass
class MetricDelta:
    """One metric compared across the two runs (``b - a``)."""

    name: str
    a: float
    b: float
    direction: int  # +1 higher-is-better, -1 lower-is-better
    tolerance: float

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def relative(self) -> float:
        """Relative change vs the baseline (0 when the baseline is 0)."""
        return self.delta / abs(self.a) if self.a else 0.0

    @property
    def verdict(self) -> str:
        """``"better"`` / ``"worse"`` / ``"~"`` (within tolerance)."""
        if abs(self.relative) <= self.tolerance:
            return "~"
        return "better" if self.delta * self.direction > 0 else "worse"

    @property
    def regressed(self) -> bool:
        return self.verdict == "worse"

    def to_dict(self) -> Dict[str, object]:
        return {
            "metric": self.name,
            "a": self.a,
            "b": self.b,
            "delta": self.delta,
            "relative": self.relative,
            "verdict": self.verdict,
        }


@dataclass
class RunDiff:
    """Everything ``repro diff`` reports for one pair of runs."""

    label_a: str
    label_b: str
    metrics: List[MetricDelta]
    speedup: float  # ipc_b / ipc_a (0 when the baseline IPC is 0)
    #: (component, cpi_a, cpi_b, cpi_b - cpi_a); empty unless both runs
    #: carry a CPI stack.
    cpi_delta: List[Tuple[str, float, float, float]] = field(
        default_factory=list
    )

    @property
    def regressions(self) -> List[MetricDelta]:
        return [metric for metric in self.metrics if metric.regressed]

    def to_dict(self) -> Dict[str, object]:
        return {
            "a": self.label_a,
            "b": self.label_b,
            "speedup": self.speedup,
            "metrics": [metric.to_dict() for metric in self.metrics],
            "regressions": [metric.name for metric in self.regressions],
            "cpi_delta": [
                {"component": name, "a": a, "b": b, "delta": delta}
                for name, a, b, delta in self.cpi_delta
            ],
        }

    def format(self) -> str:
        lines = [
            f"A: {self.label_a}",
            f"B: {self.label_b}",
            f"speedup (IPC B/A) : {self.speedup:.3f}x",
            "",
            f"  {'metric':<26} {'A':>12} {'B':>12} "
            f"{'delta':>11} {'rel':>8}  verdict",
        ]
        for metric in self.metrics:
            flag = " <-- regression" if metric.regressed else ""
            lines.append(
                f"  {metric.name:<26} {metric.a:>12.4f} {metric.b:>12.4f} "
                f"{metric.delta:>+11.4f} {metric.relative:>+7.1%}  "
                f"{metric.verdict}{flag}"
            )
        if self.cpi_delta:
            lines.append("")
            lines.append(
                f"  {'CPI component':<20} {'A':>9} {'B':>9} {'delta':>9}"
            )
            total_a = total_b = 0.0
            for name, a, b, delta in self.cpi_delta:
                total_a += a
                total_b += b
                lines.append(
                    f"  {name:<20} {a:>9.4f} {b:>9.4f} {delta:>+9.4f}"
                )
            lines.append(
                f"  {'total':<20} {total_a:>9.4f} {total_b:>9.4f} "
                f"{total_b - total_a:>+9.4f}"
            )
        return "\n".join(lines)


def diff_results(
    a: SimulationResult,
    b: SimulationResult,
    tolerance: float = DEFAULT_TOLERANCE,
    label_a: str = "A",
    label_b: str = "B",
) -> RunDiff:
    """Compare two runs metric-by-metric (and per CPI component)."""
    metrics = [
        MetricDelta(
            name=name,
            a=float(getattr(a, name)),
            b=float(getattr(b, name)),
            direction=direction,
            tolerance=tolerance,
        )
        for name, direction in METRIC_DIRECTIONS
    ]
    cpi_delta: List[Tuple[str, float, float, float]] = []
    if a.cpi_stack is not None and b.cpi_stack is not None:
        cpi_delta = a.cpi_stack.delta(b.cpi_stack)
    return RunDiff(
        label_a=f"{label_a} [{a.scheme} / {a.workload}]",
        label_b=f"{label_b} [{b.scheme} / {b.workload}]",
        metrics=metrics,
        speedup=b.speedup_over(a),
        cpi_delta=cpi_delta,
    )


# ----------------------------------------------------------------------
# Store-vs-store diff
# ----------------------------------------------------------------------
@dataclass
class StoreDiff:
    """Entry-matched comparison of two result stores."""

    label_a: str
    label_b: str
    #: (signature summary, ipc_a, ipc_b, speedup) per matched point.
    points: List[Tuple[str, float, float, float]]
    only_in_a: int
    only_in_b: int
    regressions: List[str]  # matched points whose speedup < 1 - tolerance
    #: Aggregate CPI components per side (from points carrying stacks).
    cpi_delta: List[Tuple[str, float, float, float]] = field(
        default_factory=list
    )

    def to_dict(self) -> Dict[str, object]:
        return {
            "a": self.label_a,
            "b": self.label_b,
            "matched": len(self.points),
            "only_in_a": self.only_in_a,
            "only_in_b": self.only_in_b,
            "points": [
                {"point": point, "ipc_a": ipc_a, "ipc_b": ipc_b,
                 "speedup": speedup}
                for point, ipc_a, ipc_b, speedup in self.points
            ],
            "regressions": list(self.regressions),
            "cpi_delta": [
                {"component": name, "a": a, "b": b, "delta": delta}
                for name, a, b, delta in self.cpi_delta
            ],
        }

    def format(self) -> str:
        lines = [
            f"A: {self.label_a}",
            f"B: {self.label_b}",
            f"matched points    : {len(self.points)} "
            f"(only in A: {self.only_in_a}, only in B: {self.only_in_b})",
            "",
            f"  {'point':<40} {'IPC A':>8} {'IPC B':>8} {'B/A':>7}",
        ]
        for point, ipc_a, ipc_b, speedup in self.points:
            flag = " <-- regression" if point in self.regressions else ""
            lines.append(
                f"  {point:<40} {ipc_a:>8.4f} {ipc_b:>8.4f} "
                f"{speedup:>6.3f}x{flag}"
            )
        if self.cpi_delta:
            lines.append("")
            lines.append(
                f"  {'CPI component':<20} {'A':>9} {'B':>9} {'delta':>9}"
            )
            for name, a, b, delta in self.cpi_delta:
                lines.append(
                    f"  {name:<20} {a:>9.4f} {b:>9.4f} {delta:>+9.4f}"
                )
        return "\n".join(lines)


def _point_label(signature: Dict[str, object]) -> str:
    """Compact human identity of one store entry."""
    parts = [str(signature.get("mix_name", "?")),
             str(signature.get("scheme", "?"))]
    replacement = signature.get("replacement")
    if replacement and replacement != "lru":
        parts.append(str(replacement))
    if signature.get("contexts") not in (None, 2):
        parts.append(f"ctx{signature['contexts']}")
    if signature.get("seed"):
        parts.append(f"seed{signature['seed']}")
    return "/".join(parts)


def _aggregate_cpi(
    results_a: List[SimulationResult], results_b: List[SimulationResult]
) -> List[Tuple[str, float, float, float]]:
    """Merge each side's CPI stacks and diff the aggregate CPIs."""
    stacks_a = [r.cpi_stack for r in results_a if r.cpi_stack is not None]
    stacks_b = [r.cpi_stack for r in results_b if r.cpi_stack is not None]
    if not stacks_a or not stacks_b:
        return []
    instructions_a, components_a = merge_components(stacks_a)
    instructions_b, components_b = merge_components(stacks_b)
    if not instructions_a or not instructions_b:
        return []
    names = sorted(
        set(components_a) | set(components_b), key=component_sort_key
    )
    out = []
    for name in names:
        cpi_a = components_a.get(name, 0.0) / instructions_a
        cpi_b = components_b.get(name, 0.0) / instructions_b
        out.append((name, cpi_a, cpi_b, cpi_b - cpi_a))
    return out


def diff_stores(
    dir_a: str,
    dir_b: str,
    tolerance: float = DEFAULT_TOLERANCE,
) -> StoreDiff:
    """Match two stores' entries by signature and compare each pair.

    The match key is the canonical signature minus the ``scheme`` field,
    so the dominant use — the same evaluation grid simulated under two
    schemes — pairs up naturally; when both stores hold the same scheme
    the key is effectively the exact signature.  A point whose speedup
    (IPC B over A) falls below ``1 - tolerance`` is flagged as a
    regression.
    """
    from repro.experiments.store import ResultStore

    store_a = ResultStore(dir_a)
    store_b = ResultStore(dir_b)

    def index(store: ResultStore) -> Dict[Tuple, List[Dict[str, object]]]:
        entries: Dict[Tuple, List[Dict[str, object]]] = {}
        for signature in store.signatures():
            key = tuple(sorted(
                (name, value) for name, value in signature.items()
                if name != "scheme"
            ))
            entries.setdefault(key, []).append(signature)
        return entries

    def pick(
        bucket: List[Dict[str, object]], scheme: Optional[object]
    ) -> Optional[Dict[str, object]]:
        """One signature out of a key bucket: exact scheme match when
        the bucket holds several (a multi-scheme store), else the only
        entry."""
        if len(bucket) == 1:
            return bucket[0]
        for signature in bucket:
            if signature.get("scheme") == scheme:
                return signature
        return None

    index_a = index(store_a)
    index_b = index(store_b)
    total_a = sum(len(bucket) for bucket in index_a.values())
    total_b = sum(len(bucket) for bucket in index_b.values())
    points: List[Tuple[str, float, float, float]] = []
    regressions: List[str] = []
    results_a: List[SimulationResult] = []
    results_b: List[SimulationResult] = []
    matched = 0
    for key in sorted(set(index_a) & set(index_b)):
        bucket_a, bucket_b = index_a[key], index_b[key]
        for signature_b in bucket_b:
            signature_a = pick(bucket_a, signature_b.get("scheme"))
            if signature_a is None:
                continue
            matched += 1
            result_a = store_a.load(signature_a)
            result_b = store_b.load(signature_b)
            if result_a is None or result_b is None:
                continue
            results_a.append(result_a)
            results_b.append(result_b)
            label = _point_label(signature_b)
            speedup = result_b.speedup_over(result_a)
            points.append((label, result_a.ipc, result_b.ipc, speedup))
            if speedup < 1.0 - tolerance:
                regressions.append(label)
    return StoreDiff(
        label_a=f"{dir_a} ({total_a} entries)",
        label_b=f"{dir_b} ({total_b} entries)",
        points=points,
        only_in_a=total_a - matched,
        only_in_b=total_b - matched,
        regressions=regressions,
        cpi_delta=_aggregate_cpi(results_a, results_b),
    )


def diff_paths(
    path_a: str,
    path_b: str,
    tolerance: float = DEFAULT_TOLERANCE,
):
    """Dispatch on input shape: two directories → store diff, two files
    → run diff.  Mixing a file and a directory is an error."""
    a_is_dir = os.path.isdir(path_a)
    b_is_dir = os.path.isdir(path_b)
    if a_is_dir != b_is_dir:
        raise DiffError(
            "cannot diff a result file against a store directory "
            f"({path_a!r} vs {path_b!r})"
        )
    if a_is_dir:
        return diff_stores(path_a, path_b, tolerance=tolerance)
    return diff_results(
        load_result_file(path_a),
        load_result_file(path_b),
        tolerance=tolerance,
        label_a=path_a,
        label_b=path_b,
    )

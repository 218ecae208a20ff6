"""Record the result fixtures that ``tests/test_golden_fixtures.py`` checks.

Each fixture is the host-independent ``SimulationResult.to_dict()`` of one
(mix, scheme, replacement policy, accesses) point, run with
``small_config``, workload scale 0.25 and seed 3.  There are three sets:

* ``MATRIX``: every scheme x policy on the ``can_ccomp`` mix at 4,000
  accesses.  These runs never switch context.
* ``SWITCHING``: ``ccomp`` under Conventional, POM-TLB and CSALT-CD with
  LRU at 24,000 accesses.  Each run switches context 10-11 times and
  makes over a thousand page walks, and CSALT-CD repartitions the L2 and
  L3, so the scheduler, walker and partition paths are pinned too.
* ``ESTIMATE``: ``ccomp`` under CSALT-CD with NRU, tree-PLRU and RRIP at
  24,000 accesses, with the partition profilers fed the replacement
  policy's estimated stack positions instead of shadow tags (paper
  Section 3.4).  Each run repartitions the L2 twice and the L3 eight
  times, so the estimate each policy reports on a hit is pinned.

Both mixes draw their Zipf tables only with alpha 1.0 and 0.0, so the
fixtures do not depend on the platform's ``pow``.

``exhibits-gups.json`` holds what every report exhibit renders with the
gups-only arguments in ``EXHIBIT_ARGS``, at 1,500 accesses and seed 0:
a series' title, headers and rows, or a timeline's two series, floats
stored exactly.  ``gups`` draws no Zipf table at all.

Run from the repository root to (re)write every fixture::

    PYTHONPATH=src python -m tests.golden.record

The fixtures define what counts as correct output.  Regenerate them only
for a change that is meant to alter results, and review every rewritten
file in the diff.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, NamedTuple

from repro.core.schemes import Scheme
from repro.experiments.figures import TimelineResult
from repro.experiments.report import EXPERIMENTS
from repro.experiments.runner import clear_cache
from repro.experiments.store import strip_host_fields
from repro.sim.config import small_config
from repro.sim.engine import run_simulation
from repro.workloads.mixes import make_mix

SCALE = 0.25
SEED = 3
POLICIES = ("lru", "nru", "plru", "rrip")


class Point(NamedTuple):
    mix: str
    scheme: str
    policy: str
    accesses: int
    estimate: bool = False


#: Every (scheme, replacement policy) on ``can_ccomp``, in recording order.
MATRIX: List[Point] = [
    Point("can_ccomp", scheme.value, policy, 4_000)
    for scheme in Scheme for policy in POLICIES
]

#: Switching, walk-heavy points.
SWITCHING: List[Point] = [
    Point("ccomp", scheme, "lru", 24_000)
    for scheme in ("conventional", "pom-tlb", "csalt-cd")
]

#: CSALT-CD with Section 3.4 position estimates on every policy that
#: estimates rather than knows its LRU stack.
ESTIMATE: List[Point] = [
    Point("ccomp", "csalt-cd", policy, 24_000, estimate=True)
    for policy in ("nru", "plru", "rrip")
]

POINTS: List[Point] = MATRIX + SWITCHING + ESTIMATE

#: Each report exhibit's arguments restricted to the ``gups`` mix: the
#: smallest grid on which every exhibit's loop still runs.
GUPS = ("gups",)
EXHIBIT_ARGS: Dict[str, Dict[str, object]] = {
    "figure1": dict(mixes=GUPS),
    "table1": dict(programs=GUPS),
    "figure3": dict(programs=GUPS),
    "figure7": dict(mixes=GUPS),
    "figure8": dict(mixes=GUPS),
    "figure9": dict(mix="gups"),
    "figure10": dict(mixes=GUPS),
    "figure11": dict(mixes=GUPS),
    "figure12": dict(mixes=GUPS),
    "figure13": dict(mixes=GUPS),
    "figure14": dict(mixes=GUPS, context_counts=(1, 2)),
    "figure15": dict(mixes=GUPS, epochs=(1_000, 2_000)),
    "figure16": dict(mixes=GUPS, intervals_ms=(5.0, 10.0)),
    "ablation-static": dict(mixes=GUPS),
    "ablation-pseudo-lru": dict(mixes=GUPS),
    "ablation-partition-levels": dict(mixes=GUPS),
    "extension-5level": dict(mixes=GUPS),
    "extension-prefetch": dict(mixes=GUPS),
}

#: Run length and seed of every point behind the exhibit fixture.
EXHIBIT_RUN = dict(total_accesses=1_500, seed=0)

FIXTURE_DIR = Path(__file__).resolve().parent
EXHIBIT_FIXTURE = FIXTURE_DIR / "exhibits-gups.json"


def fixture_path(point: Point) -> Path:
    suffix = "-estimate" if point.estimate else ""
    return FIXTURE_DIR / f"{point.mix}-{point.scheme}-{point.policy}{suffix}.json"


def simulate(point: Point) -> Dict[str, object]:
    """One point's result, as plain JSON data."""
    result = run_simulation(
        small_config(
            scheme=Scheme(point.scheme),
            replacement=point.policy,
            estimate_positions=point.estimate,
        ),
        make_mix(point.mix, scale=SCALE),
        total_accesses=point.accesses,
        seed=SEED,
        workload_name=point.mix,
    )
    return json.loads(json.dumps(strip_host_fields(result.to_dict())))


def render_exhibit(name: str) -> Dict[str, object]:
    """What exhibit ``name`` renders at ``EXHIBIT_ARGS``, as JSON data.

    The runner's memo is cleared first, so every point is simulated
    afresh rather than read from an earlier caller's results.
    """
    clear_cache()
    result = dict(EXPERIMENTS)[name](**EXHIBIT_ARGS[name], **EXHIBIT_RUN)
    if isinstance(result, TimelineResult):
        data = dict(l2_series=result.l2_series, l3_series=result.l3_series)
    else:
        data = dict(
            title=result.title, headers=result.headers, rows=result.rows
        )
    return json.loads(json.dumps(data))


def main() -> None:
    for point in POINTS:
        path = fixture_path(point)
        text = json.dumps(simulate(point), indent=1, sort_keys=True)
        path.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {path.name}")
    exhibits = {name: render_exhibit(name) for name, _ in EXPERIMENTS}
    text = json.dumps(exhibits, indent=1, sort_keys=True)
    EXHIBIT_FIXTURE.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {EXHIBIT_FIXTURE.name}")


if __name__ == "__main__":
    main()

"""Record the result fixtures that ``tests/test_golden_fixtures.py`` checks.

Each fixture is the host-independent ``SimulationResult.to_dict()`` of one
point of the scheme x replacement-policy matrix on the ``can_ccomp`` mix:
``small_config``, workload scale 0.25, 4,000 accesses, seed 3.  The mix
draws its Zipf tables only with alpha 1.0 and 0.0, so the fixtures do not
depend on the platform's ``pow``.

Run from the repository root to (re)write every fixture::

    PYTHONPATH=src python -m tests.golden.record

The fixtures define what counts as correct output.  Regenerate them only
for a change that is meant to alter results, and review every rewritten
file in the diff.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.schemes import Scheme
from repro.experiments.store import strip_host_fields
from repro.sim.config import small_config
from repro.sim.engine import run_simulation
from repro.workloads.mixes import make_mix

MIX = "can_ccomp"
SCALE = 0.25
ACCESSES = 4_000
SEED = 3
POLICIES = ("lru", "nru", "plru", "rrip")

#: Every (scheme, replacement policy) point, in recording order.
POINTS: List[Tuple[str, str]] = [
    (scheme.value, policy) for scheme in Scheme for policy in POLICIES
]

FIXTURE_DIR = Path(__file__).resolve().parent


def fixture_path(scheme: str, policy: str) -> Path:
    return FIXTURE_DIR / f"{MIX}-{scheme}-{policy}.json"


def simulate(scheme: str, policy: str) -> Dict[str, object]:
    """One point's result, as plain JSON data."""
    result = run_simulation(
        small_config(scheme=Scheme(scheme), replacement=policy),
        make_mix(MIX, scale=SCALE),
        total_accesses=ACCESSES,
        seed=SEED,
        workload_name=MIX,
    )
    return json.loads(json.dumps(strip_host_fields(result.to_dict())))


def main() -> None:
    for scheme, policy in POINTS:
        path = fixture_path(scheme, policy)
        text = json.dumps(simulate(scheme, policy), indent=1, sort_keys=True)
        path.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {path.name}")


if __name__ == "__main__":
    main()

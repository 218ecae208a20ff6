"""can_stream, CSALT-CD, tlb_prefetch=True, 60,000 accesses, seed 0.

    PYTHONPATH=TREE/src python prefetch_dict.py > to_dict.json

Prints the host-stripped ``to_dict()`` JSON to stdout, and the prefetches
issued and the POM-TLB stats to stderr."""
import json
import sys
from repro.core.schemes import Scheme
from repro.experiments import runner
from repro.experiments.store import strip_host_fields

systems = []
real = runner.run_simulation


def capturing(*args, **kwargs):
    return real(*args, system_setup=systems.append, **kwargs)


runner.run_simulation = capturing
result = runner.run_point("can_stream", Scheme.CSALT_CD, tlb_prefetch=True,
                          total_accesses=60_000, seed=0)
print(json.dumps(strip_host_fields(result.to_dict()), sort_keys=True))
(system,) = systems
issued = sum(core.prefetcher.stats.issued for core in system.cores)
print(f"prefetches issued: {issued}; pom stats: {system.pom.stats}",
      file=sys.stderr)

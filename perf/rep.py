"""One benchmark rep in a fresh process: simulate, check, report.

    python perf/rep.py --workload ccomp-csalt --seed 0 [--scale 0.1]
        [--trace-out FILE] [--checkpoint-dir DIR] [--restore SNAPSHOT]

Runs one workload of the exhibit configuration (``small_config`` +
``make_mix(scale=WORKLOAD_SCALE)`` + a ``CycleAccountant``) once through
the public ``repro.sim.engine.run_simulation`` and prints one JSON
record on stdout: CPU and wall time, set-up time, peak RSS, the digest
of the host-independent result, the invariant violations found on the
finished machine, the deterministic ``sim.*``/``cpi.*`` counts and, with
``--trace-out``, the traced layer breakdown.  ``perf/run.py`` starts one
such process per rep so that lazy set-up is paid on every run, as
campaign workers pay it, and peak RSS is per run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The benchmark's workloads: one exhibit point each, virtualized.  Why
#: each was chosen is recorded in BENCHMARK.json and perf/README.md.
WORKLOADS = {
    "ccomp-csalt": {
        "mix": "ccomp", "scheme": "csalt-cd", "contexts": 2,
        "replacement": "lru", "accesses": 96_000,
    },
    "stream-conv": {
        "mix": "streamcluster", "scheme": "conventional", "contexts": 2,
        "replacement": "lru", "accesses": 360_000,
    },
    "pagerank-conv": {
        "mix": "pagerank", "scheme": "conventional", "contexts": 2,
        "replacement": "lru", "accesses": 144_000,
    },
    "canneal-plru-ctx4": {
        "mix": "canneal", "scheme": "csalt-cd", "contexts": 4,
        "replacement": "plru", "accesses": 120_000,
        "checkpoint_every": 30_000,
    },
}

#: CPI-stack groups reported as shares of all simulated cycles.
CPI_GROUPS = ("base", "tlb", "pom", "walk", "data")

#: Accesses between two host-speed probes (a multiple of the engine's
#: 32-access round).
PROBE_EVERY = 3200

#: The probe loop's CPU seconds at reference speed (about its time on an
#: uncontended 2.1 GHz Xeon vCPU).  A "reference second" is a host second
#: rescaled to that speed; only ratios between runs are meaningful.
REFERENCE_PROBE_S = 0.0005

#: The simulator slows down less than the probe loop when the host is
#: contended: across 120 reps of the four workloads on a shared 2-vCPU VM,
#: rescaling by (reference / probe) ** 0.8 left the least spread (0.7 to
#: 0.9 per workload; 1.0 over-corrected every one of them).
PROBE_EXPONENT = 0.8


def probe_seconds() -> float:
    """CPU seconds of a fixed pure-Python dict-and-integer loop."""
    table = {}
    start = time.process_time()
    for i in range(2000):
        key = (i * 2654435761) & 511
        value = table.get(key)
        table[key] = i if value is None else value + 1
    return time.process_time() - start


class HostSpeed:
    """Engine progress callback that rescales CPU time to reference speed.

    Shared hosts slow a process down by up to 2x for seconds at a time,
    which no number of reps averages out.  After every ``PROBE_EVERY``
    accesses this times the probe loop, and books the CPU time until the
    next call at the speed just measured: a stretch run while the probe
    loop was k times slower counts ``k ** -PROBE_EXPONENT`` as long.
    Probe time is kept out of every total.
    """

    def __init__(self):
        self.probe_s = 0.0
        self.cpu_s = 0.0
        self.reference_s = 0.0
        self._probe()

    def _probe(self) -> None:
        probe = probe_seconds()
        self._speed = (REFERENCE_PROBE_S / probe) ** PROBE_EXPONENT
        self._mark = time.process_time()

    def __call__(self, update) -> None:
        segment = time.process_time() - self._mark
        self.cpu_s += segment
        self.reference_s += segment * self._speed
        if update.executed < update.total:
            # The final call comes after the loop; probing there would
            # land in set-up time.
            started = time.process_time()
            self._probe()
            self.probe_s += self._mark - started
        else:
            self._mark = time.process_time()

    def reference_seconds(self, cpu_s: float) -> float:
        """``cpu_s`` (probes excluded) at reference speed; the part after
        the last call goes at the last measured speed."""
        return self.reference_s + (cpu_s - self.cpu_s) * self._speed


def violations(system):
    """Every cache, TLB and cycle-ledger invariant the finished machine
    breaks (``repro.validate``)."""
    from repro.validate import check_cache, check_cycle_accounting, check_tlb

    caches = [system.l3]
    tlbs = []
    for core in system.cores:
        caches.extend((core.l1d, core.l2))
        tlbs.extend((core.l1_tlb.tlb_4k, core.l1_tlb.tlb_2m, core.l2_tlb))
    for cache in caches:
        yield from check_cache(cache)
    for tlb in tlbs:
        yield from check_tlb(tlb)
    yield from check_cycle_accounting(system)


def result_digest(result) -> str:
    """SHA-256 of the result with its host-dependent fields stripped."""
    from repro.experiments.store import strip_host_fields

    document = strip_host_fields(result.to_dict())
    canonical = json.dumps(document, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def result_counts(result) -> dict:
    """Deterministic model outputs: they move only when results do."""
    measured = sum(core.memory_accesses for core in result.per_core)
    counts = {
        "sim.switches": result.extra["context_switches"],
        "sim.walks_per_kaccess": 1000.0 * result.page_walks / measured,
        "sim.ipc": result.ipc,
    }
    groups = result.cpi_stack.group_totals()
    for group in CPI_GROUPS:
        counts[f"cpi.{group}"] = (
            groups.get(group, 0.0) / result.cpi_stack.total_cycles
        )
    return counts


def run_rep(args) -> dict:
    from repro.core.schemes import Scheme
    from repro.experiments.runner import WORKLOAD_SCALE
    from repro.sim.config import small_config
    from repro.sim.engine import run_simulation
    from repro.telemetry import CycleAccountant, Telemetry
    from repro.workloads.mixes import make_mix
    from trace import Tracer

    spec = WORKLOADS[args.workload]
    accesses = round(spec["accesses"] * args.scale)
    config = small_config(
        scheme=Scheme(spec["scheme"]),
        contexts_per_core=spec["contexts"],
        replacement=spec["replacement"],
    )
    workloads = make_mix(
        spec["mix"], contexts=spec["contexts"], scale=WORKLOAD_SCALE
    )
    options = {}
    if "checkpoint_every" in spec:
        options = {
            "checkpoint_every": round(spec["checkpoint_every"] * args.scale),
            "checkpoint_dir": args.checkpoint_dir,
            "restore": args.restore,
        }
    systems = []
    # The traced rep needs no speed probes; its timings are only shares.
    tracer = Tracer() if args.trace_out else None
    with tracer if tracer is not None else contextlib.nullcontext():
        speed = HostSpeed() if tracer is None else None
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        result = run_simulation(
            config,
            workloads,
            total_accesses=accesses,
            seed=args.seed,
            workload_name=spec["mix"],
            system_setup=systems.append,
            telemetry=Telemetry(accounting=CycleAccountant()),
            progress=speed,
            progress_every=PROBE_EVERY if speed is not None else None,
            **options,
        )
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if speed is not None:
        cpu -= speed.probe_s
    found = [str(violation) for violation in violations(systems[0])]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "accesses": accesses,
        "traced": tracer is not None,
        "restored": args.restore is not None,
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": wall - result.extra["host_seconds"],
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "digest": result_digest(result),
        "violations": found,
        "counts": result_counts(result),
    }
    if speed is not None:
        record["accesses_per_s"] = accesses / cpu
        record["accesses_per_ref_s"] = accesses / speed.reference_seconds(cpu)
    if tracer is not None:
        record["layers"] = tracer.layer_table()
        record["layer_metrics"] = tracer.metrics()
        tracer.write_chrome(args.trace_out)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--checkpoint-dir", default=None)
    parser.add_argument("--restore", default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    print(json.dumps(run_rep(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

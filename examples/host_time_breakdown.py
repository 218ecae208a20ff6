"""Where does host time go?  Split one simulation point across layers.

Runs one point under the benchmark's outside-in tracer, ``perf/trace.py``
(imported as is), and prints each layer's calls and *self* time: the
time spent in the layer's wrapped public methods minus the time of the
wrapped calls they make.  ``engine`` is the time outside every wrapped
call, so the self times of the 17 layers plus ``engine`` sum exactly to
the traced total.  Each wrapper costs about 0.6 us per call, booked to
its caller: compare shares between traced runs, not absolute times with
untraced ones (perf/README.md lists the wrapped methods).

Usage::

    python examples/host_time_breakdown.py --mix gups --scheme csalt-cd \\
        --accesses 20000 [--seed 0] [--chrome-out host.trace.json]

``--chrome-out`` writes the sampled span trees (one access in 1,000) for
chrome://tracing or https://ui.perfetto.dev.
"""

import argparse
import importlib.util
from pathlib import Path

from repro import MIX_NAMES, Scheme, make_mix, run_simulation, small_config
from repro.experiments.runner import WORKLOAD_SCALE

TRACE_PY = Path(__file__).resolve().parent.parent / "perf" / "trace.py"


def load_trace_module():
    """``perf/trace.py``, loaded by path: on ``sys.path`` its name would
    clash with the standard library's ``trace``."""
    spec = importlib.util.spec_from_file_location("perf_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mix", default="gups", choices=MIX_NAMES)
    parser.add_argument("--scheme", default="csalt-cd",
                        choices=sorted(scheme.value for scheme in Scheme))
    parser.add_argument("--accesses", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--chrome-out", default=None, metavar="PATH")
    args = parser.parse_args(argv)

    trace = load_trace_module()
    config = small_config(scheme=Scheme(args.scheme))
    workloads = make_mix(args.mix, scale=WORKLOAD_SCALE)
    with trace.Tracer() as tracer:
        run_simulation(
            config, workloads, total_accesses=args.accesses, seed=args.seed,
            workload_name=args.mix,
        )
    table = tracer.layer_table()
    total = tracer.total_ns
    accesses = table["system.access"]["calls"] or 1

    print(f"{args.mix} / {args.scheme}, {args.accesses} accesses, "
          f"seed {args.seed}: traced total {total / 1e9:.3f} s")
    header = (f"{'layer':<18} {'calls':>9} {'calls/acc':>10} "
              f"{'self ns':>13} {'share':>6} {'ns/call':>9}")
    print(header)
    print("-" * len(header))
    for layer in (*trace.LAYERS, "engine"):
        row = table[layer]
        calls, own = row["calls"], row["self_ns"]
        per_call = f"{own / calls:>9,.0f}" if calls else f"{'-':>9}"
        print(f"{layer:<18} {calls:>9} {calls / accesses:>10.3f} "
              f"{own:>13} {own / total:>6.3f} {per_call}")
    print("-" * len(header))
    print(f"{'total':<18} {'':>9} {'':>10} {total:>13} {1:>6.3f}")
    if args.chrome_out:
        tracer.write_chrome(args.chrome_out)
        print(f"wrote {args.chrome_out}")


if __name__ == "__main__":
    main()

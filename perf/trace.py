"""Outside-in layer tracing for the benchmark's traced rep.

:class:`Tracer` wraps a fixed list of public methods (one boundary per
layer) at class level for the duration of a ``with`` block, in the
process that runs the rep.  Every wrapped call is a span: name, start,
end, parent span, and the index of the enclosing ``System.access`` as
the request id (engine-level calls between two accesses carry the index
of the access before them).  The wrappers keep per-layer call counts,
inclusive time, self time (duration minus the time child spans cover)
and outcome counts in memory; full span trees are kept only for every
``SAMPLE_EVERY``-th access and exported in Chrome trace format at the
end.

Time not covered by any top-level span is the ``engine`` layer, so the
per-layer self times sum to the traced total by construction.  The
wrappers themselves cost time, which lands in the self time of the
caller; compare shares and ratios between traced runs, never absolute
times against untraced ones.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Keep complete span trees for one access in this many.
SAMPLE_EVERY = 1000

#: The layers, in report order; ``engine`` is derived, not wrapped.
LAYERS = (
    "workload",
    "scheduler",
    "system.access",
    "system.translate",
    "tlb.l1",
    "tlb.l2",
    "pom",
    "walker",
    "page_table",
    "vm.map",
    "cache.l1d",
    "cache.l2",
    "cache.l3",
    "partition",
    "dram",
    "accounting",
    "checkpoint",
)


def _cache_layer(name: str) -> str:
    # Cache names are "l1d-core3", "l2-core0" and "l3".
    return "cache." + name.split("-", 1)[0]


def _l2_tlb_layer(name: str) -> Optional[str]:
    # The L1 TLBs reuse the Tlb class; only the unified L2 is a layer.
    return "tlb.l2" if name.startswith("l2tlb-") else None


class _LayerByName(dict):
    """Instance name -> layer, resolved once per name."""

    def __init__(self, resolve: Callable[[str], Optional[str]]):
        super().__init__()
        self._resolve = resolve

    def __missing__(self, name: str) -> Optional[str]:
        layer = self[name] = self._resolve(name)
        return layer


def _boundaries():
    """(class, method, layer or instance-name resolver, outcome counter)."""
    from repro.checkpoint import CheckpointWriter
    from repro.core.partitioning import PartitionController
    from repro.mem.cache import Cache
    from repro.mem.dram import DramChannel
    from repro.sim.scheduler import ContextScheduler
    from repro.sim.system import System
    from repro.telemetry.accounting import CycleAccountant
    from repro.tlb.pom_tlb import PomTlb
    from repro.tlb.tlb import L1TlbPair, Tlb
    from repro.vm.page_table import PageTable
    from repro.vm.walker import PageWalker, VirtualMachine
    from repro.workloads.base import BatchedStream

    def l1_miss(counts, layer, result):
        if result is None:
            counts["tlb.l1.miss"] += 1

    def l2_lookup(counts, layer, result):
        counts["tlb.l2.lookup"] += 1
        if result is None:
            counts["tlb.l2.miss"] += 1

    def pom_probe(counts, layer, result):
        counts["pom.probe"] += 1
        if result[0] is not None:
            counts["pom.hit"] += 1

    def pom_insert(counts, layer, result):
        counts["pom.insert"] += 1

    def walk_refs(counts, layer, result):
        counts["walker.refs"] += result.memory_refs

    def cache_lookup(counts, layer, result):
        counts[layer, "lookup"] += 1
        if result:
            counts[layer, "hit"] += 1

    def cache_write_back(counts, layer, result):
        counts[layer, "write_back"] += 1

    def checkpoint_bytes(counts, layer, result):
        counts["checkpoint.bytes"] += os.path.getsize(result)

    return [
        (BatchedStream, "take", "workload", None),
        (ContextScheduler, "maybe_switch", "scheduler", None),
        (System, "access", "system.access", None),
        (System, "translate_beyond_l1", "system.translate", None),
        (L1TlbPair, "lookup", "tlb.l1", l1_miss),
        (Tlb, "lookup", _l2_tlb_layer, l2_lookup),
        (Tlb, "insert", _l2_tlb_layer, None),
        (PomTlb, "probe_with_address", "pom", pom_probe),
        (PomTlb, "insert", "pom", pom_insert),
        (PageWalker, "walk_native", "walker", walk_refs),
        (PageWalker, "walk_virtualized", "walker", walk_refs),
        (PageTable, "walk_addresses", "page_table", None),
        (VirtualMachine, "ensure_mapped", "vm.map", None),
        (VirtualMachine, "ensure_host_mapped", "vm.map", None),
        (Cache, "lookup", _cache_layer, cache_lookup),
        (Cache, "fill", _cache_layer, None),
        (Cache, "write_back", _cache_layer, cache_write_back),
        (PartitionController, "observe", "partition", None),
        (DramChannel, "access", "dram", None),
        (CycleAccountant, "begin", "accounting", None),
        (CycleAccountant, "charge", "accounting", None),
        (CycleAccountant, "context", "accounting", None),
        (CycleAccountant, "restore", "accounting", None),
        (CheckpointWriter, "write", "checkpoint", checkpoint_bytes),
    ]


class Tracer:
    """Per-layer span accounting around the public layer boundaries.

    Use as a context manager around the traced work; the wrappers are
    removed again on exit.  ``total_ns`` is the wall time of the ``with``
    block.
    """

    def __init__(self):
        #: layer -> [calls, inclusive ns, self ns]
        self.layers: Dict[str, List[int]] = {
            layer: [0, 0, 0] for layer in LAYERS
        }
        self.counts: Dict[object, int] = defaultdict(int)
        self.top_level_ns = 0
        self.total_ns = 0
        #: Sampled spans: [name, start ns, end ns, parent index, request].
        self.spans: List[list] = []
        #: Child-span ns of each open wrapped call, innermost last.
        self._stack: List[int] = []
        #: Indices into ``spans`` of the open sampled spans.
        self._open_spans: List[int] = []
        self._request = -1
        self._sampling = False
        self._saved: List[tuple] = []
        self._started = 0

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        for cls, method, layer, outcome in _boundaries():
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self._wrap(original, layer, outcome))
        self._started = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self.total_ns = time.perf_counter_ns() - self._started
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def _wrap(self, fn: Callable, layer, outcome) -> Callable:
        by_name = _LayerByName(layer) if callable(layer) else None
        starts_request = layer == "system.access"
        stack = self._stack
        open_spans = self._open_spans
        layers = self.layers
        counts = self.counts
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            name = layer if by_name is None else by_name[args[0].name]
            if name is None:
                return fn(*args, **kwargs)
            if starts_request:
                # Accesses are top-level, so no sampled span is open here.
                tracer._request += 1
                tracer._sampling = tracer._request % SAMPLE_EVERY == 0
            span = None
            if tracer._sampling:
                span = [
                    name, 0, 0, open_spans[-1] if open_spans else None,
                    tracer._request,
                ]
                open_spans.append(len(spans))
                spans.append(span)
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                entry = layers[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
                else:
                    tracer.top_level_ns += duration
                if span is not None:
                    open_spans.pop()
                    span[1] = start
                    span[2] = end
            if outcome is not None:
                outcome(counts, name, result)
            return result

        return functools.wraps(fn)(wrapper)

    # ------------------------------------------------------------------
    def layer_table(self) -> Dict[str, Dict[str, int]]:
        """Raw per-layer totals, ``engine`` included."""
        table = {
            layer: {"calls": calls, "inclusive_ns": inclusive, "self_ns": own}
            for layer, (calls, inclusive, own) in self.layers.items()
        }
        engine = self.total_ns - self.top_level_ns
        table["engine"] = {"calls": 0, "inclusive_ns": engine, "self_ns": engine}
        return table

    def metrics(self) -> Dict[str, float]:
        """Per-layer shares, call rates and outcome ratios."""
        total = self.total_ns or 1
        accesses = self.layers["system.access"][0] or 1
        counts = self.counts
        out: Dict[str, float] = {}
        for layer in LAYERS:
            calls, _inclusive, own = self.layers[layer]
            out[f"{layer}.self_share"] = own / total
            out[f"{layer}.calls_per_access"] = calls / accesses
            out[f"{layer}.self_ns_per_call"] = own / calls if calls else 0.0
        out["engine.self_share"] = (self.total_ns - self.top_level_ns) / total

        def ratio(numerator, denominator) -> float:
            return numerator / denominator if denominator else 0.0

        out["tlb.l1.miss_ratio"] = ratio(
            counts["tlb.l1.miss"], self.layers["tlb.l1"][0]
        )
        out["tlb.l2.miss_ratio"] = ratio(
            counts["tlb.l2.miss"], counts["tlb.l2.lookup"]
        )
        # Every POM lookup ends in a hit or, after the walk, an insert.
        pom_lookups = counts["pom.hit"] + counts["pom.insert"]
        out["pom.hit_ratio"] = ratio(counts["pom.hit"], pom_lookups)
        out["pom.probes_per_lookup"] = ratio(counts["pom.probe"], pom_lookups)
        out["walker.refs_per_walk"] = ratio(
            counts["walker.refs"], self.layers["walker"][0]
        )
        for level in ("l1d", "l2", "l3"):
            layer = f"cache.{level}"
            out[f"{layer}.hit_ratio"] = ratio(
                counts[layer, "hit"], counts[layer, "lookup"]
            )
        out["cache.l2.writebacks_per_kaccess"] = (
            1000.0 * counts["cache.l2", "write_back"] / accesses
        )
        out["checkpoint.bytes_per_write"] = ratio(
            counts["checkpoint.bytes"], self.layers["checkpoint"][0]
        )
        return out

    def write_chrome(self, path: os.PathLike) -> None:
        """Sampled span trees as a Chrome trace (``chrome://tracing``)."""
        origin = self._started
        events = []
        for index, (name, start, end, parent, request) in enumerate(
            self.spans
        ):
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"span": index, "parent": parent, "request": request},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ns"}, handle
            )

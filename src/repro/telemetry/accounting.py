"""Cycle accounting: attribute every simulated cycle to a named component.

The paper's argument is about *where cycles go* — translation misses
block the pipeline while data misses overlap via MSHRs (Section 3.2) —
so this module gives every simulated cycle a name.  Every System owns a
:class:`CycleAccountant` (a :class:`~repro.telemetry.Telemetry` bundle may
supply it); the System, walker and TSB/POM paths charge each latency
increment to a component as it is added to the core clock, tagged with
the (core, VM) that paid it.  :meth:`CycleAccountant.build_stack`
packages the ledger as a :class:`CpiStack` on
``SimulationResult.cpi_stack``.

Component taxonomy (see ``docs/observability.md`` for the full table)::

    base               retire bandwidth (instructions x base CPI)
    tlb.l2tlb          unified L2 TLB lookup
    pom.{l2,l3,dram}   POM-TLB set probes/fills, by serving level
    tsb.trap           TSB trap entry/exit software cost
    tsb.{l2,l3,dram}   TSB slot probes, by serving level
    tsb.ntlb           nested-TLB lookups for guest TSB slot addresses
    walk.psc           paging-structure-cache probe
    walk.l{n}          guest/native page-table node read at level n
    walk.nested.l{n}   host (EPT) translation of the level-n guest pointer
    walk.nested.final  host translation of the final guest-physical address
    data.{l2,l3,dram}  raw demand-data miss latency, by serving level
    data.mlp_credit    MSHR overlap credit (negative: stall minus raw)
    translation.other  residual translation cycles (0 by construction)

**Exactness.**  The invariant wired into :mod:`repro.validate` is that
per-component charges sum *bit-exactly* to ``core.stats.cycles``.  That
is only possible if every increment is exactly representable: all
latencies in the machine are integers except the base-CPI charge and the
MSHR stall, which :func:`quantize_cycles` rounds to a multiple of
``2**-CYCLE_RESOLUTION_BITS`` (1/1024 cycle).  Dyadic increments below
``2**40`` accumulate exactly in doubles regardless of addition order, so
the component ledger and the core clock agree to the last bit even
though they sum in different orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

#: Cycle values are quantized to multiples of 2**-10 = 1/1024 cycle.
CYCLE_RESOLUTION_BITS = 10

#: The quantum itself (exactly representable in binary floating point).
CYCLE_QUANTUM = 1.0 / (1 << CYCLE_RESOLUTION_BITS)

_SCALE = float(1 << CYCLE_RESOLUTION_BITS)


def quantize_cycles(value: float) -> float:
    """Round ``value`` to the nearest 1/1024 cycle (ties to even).

    The result is a dyadic rational, so accumulating any number of
    quantized values in a double is exact (until ~2**43 cycles, far
    beyond any simulated run).
    """
    return round(value * _SCALE) / _SCALE


#: Display order of component groups (the part before the first dot).
_GROUP_ORDER = {
    "base": 0,
    "tlb": 1,
    "pom": 2,
    "tsb": 3,
    "walk": 4,
    "data": 5,
    "translation": 6,
}

_SUFFIX_ORDER = {
    "trap": 0,
    "psc": 0,
    "ntlb": 1,
    "l2": 2,
    "l3": 3,
    "dram": 4,
    "mlp_credit": 9,
}


#: Serving levels of the shared memory datapath, as indices into a
#: charging context's component names (see :func:`context_names`).
LEVEL_L2, LEVEL_L3, LEVEL_DRAM, LEVEL_NTLB = range(4)

_LEVEL_SUFFIXES = (".l2", ".l3", ".dram", ".ntlb")


@lru_cache(maxsize=None)
def context_names(
    prefix: Optional[str], split: bool = False
) -> Optional[Tuple[str, ...]]:
    """The component each serving level of a charging context books to.

    Indexed by ``LEVEL_*``.  A split context names every level
    (``pom.l2``, ``pom.l3``, ``pom.dram``, ``pom.ntlb``); a flat one
    books them all to ``prefix`` (``walk.l2``); a ``None`` prefix books
    nothing.  Cached, so a context's names are built once per process
    and every charge indexes a name instead of concatenating one.
    """
    if prefix is None:
        return None
    if split:
        return tuple(prefix + suffix for suffix in _LEVEL_SUFFIXES)
    return (prefix,) * len(_LEVEL_SUFFIXES)


def component_sort_key(name: str) -> Tuple[int, int, str]:
    group, _, rest = name.partition(".")
    suffix = rest.rsplit(".", 1)[-1] if rest else ""
    return (
        _GROUP_ORDER.get(group, len(_GROUP_ORDER)),
        _SUFFIX_ORDER.get(suffix, 5),
        name,
    )


class CycleAccountant:
    """Per-(core, VM) ledger of cycle charges by component.

    Every :class:`~repro.sim.system.System` owns one (its own, or the
    one a :class:`~repro.telemetry.Telemetry` bundle supplies), so the
    datapath charges unconditionally.

    Charging happens in two ways:

    * direct — :meth:`charge` books cycles onto the (core, VM) selected
      by the last :meth:`begin`.  Before the first ``begin`` (a datapath
      piece driven directly, outside ``System.access``) charges land in a
      scratch stack that is not part of the ledger — no core clock moves
      for them either;
    * contextual — the shared memory datapath (``System._mem_from_l2``,
      and the walker's nested-TLB charge) books each serving level's
      latency to the component the current *context* names for that
      level, and whoever issued the reference has set the context first.
      A context is one tuple of component names, indexed by serving
      level (:func:`context_names`): split by level (``pom.l3``) or the
      same name for every level (``walk.l2``).  ``context(prefix,
      split)`` looks the tuple up; the hot paths that set a context
      inline keep theirs prebuilt.  A ``None`` context suppresses the
      charge — that is how off-critical-path traffic (TLB prefetch
      probes) stays out of the ledger.

    ``charged`` is a running total of everything ever booked; callers
    bracket a composite operation with ``mark = acct.charged`` and charge
    the difference to a residual bucket, which keeps the sum invariant
    structural even if a future path forgets a charge site.
    """

    __slots__ = (
        "_stacks",
        "_current",
        "_core_id",
        "_vm_id",
        "_names",
        "charged",
        "synced",
    )

    def __init__(self) -> None:
        self._stacks: Dict[Tuple[int, int], Dict[str, float]] = {}
        self._current: Dict[str, float] = {}
        self._core_id: Optional[int] = None
        self._vm_id: Optional[int] = None
        self._names: Optional[Tuple[str, ...]] = None
        self.charged = 0.0
        #: False after a checkpoint restore whose snapshot predates the
        #: accountant — the ledger no longer matches the core clocks, so
        #: the validator skips the sum check and no stack is exported.
        self.synced = True

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def begin(self, core_id: int, vm_id: int) -> None:
        """Select the (core, VM) that pays for subsequent charges."""
        if core_id != self._core_id or vm_id != self._vm_id:
            key = (core_id, vm_id)
            stack = self._stacks.get(key)
            if stack is None:
                stack = self._stacks[key] = {}
            self._current = stack
            self._core_id = core_id
            self._vm_id = vm_id

    def charge(self, component: str, cycles: float) -> None:
        # try/except beats dict.get on the hot path: after the first touch
        # of a component the key exists, so the common case is a plain
        # subscript with no method call at all.
        current = self._current
        try:
            current[component] += cycles
        except KeyError:
            current[component] = cycles
        self.charged += cycles

    def context(
        self, prefix: Optional[str], split: bool = False
    ) -> Optional[Tuple[str, ...]]:
        """Set the datapath charging context; returns the previous one."""
        previous = self._names
        self._names = context_names(prefix, split)
        return previous

    def restore(self, saved: Optional[Tuple[str, ...]]) -> None:
        self._names = saved

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero the ledger (warmup boundary / fresh System)."""
        self._stacks = {}
        self._current = {}
        self._core_id = None
        self._vm_id = None
        self._names = None
        self.charged = 0.0
        self.synced = True

    def mark_unsynced(self) -> None:
        self.synced = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def core_totals(self) -> Dict[int, float]:
        """Total charged cycles per core (summed over VMs/components)."""
        totals: Dict[int, float] = {}
        for (core_id, _vm_id), stack in self._stacks.items():
            totals[core_id] = totals.get(core_id, 0.0) + sum(stack.values())
        return totals

    def component_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for stack in self._stacks.values():
            for component, cycles in stack.items():
                totals[component] = totals.get(component, 0.0) + cycles
        return totals

    def build_stack(
        self, scheme: str, num_cores: int, instructions: int
    ) -> "CpiStack":
        per_core: List[Dict[str, float]] = [{} for _ in range(num_cores)]
        per_vm: Dict[str, Dict[str, float]] = {}
        for (core_id, vm_id), stack in sorted(self._stacks.items()):
            for component, cycles in stack.items():
                core_stack = per_core[core_id]
                core_stack[component] = core_stack.get(component, 0.0) + cycles
                vm_stack = per_vm.setdefault(str(vm_id), {})
                vm_stack[component] = vm_stack.get(component, 0.0) + cycles
        components = self.component_totals()
        return CpiStack(
            scheme=scheme,
            instructions=instructions,
            total_cycles=sum(
                sum(stack.values()) for stack in per_core
            ),
            components=components,
            per_core=per_core,
            per_vm=per_vm,
        )

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """A view, valid until the next charge: each live stack under a
        built ``"core:vm"`` string key (the live keys are tuples)."""
        return {
            "stacks": {
                f"{core_id}:{vm_id}": stack
                for (core_id, vm_id), stack in self._stacks.items()
            },
            "charged": self.charged,
        }

    def load_state(self, state: dict) -> None:
        self._stacks = {}
        for key, stack in state["stacks"].items():
            core_id, _, vm_id = key.partition(":")
            self._stacks[(int(core_id), int(vm_id))] = dict(stack)
        self._current = {}
        self._core_id = None
        self._vm_id = None
        self._names = None
        self.charged = state["charged"]
        self.synced = True


@dataclass
class CpiStack:
    """A run's cycle ledger, aggregated and per core / per VM.

    ``components`` maps component name to total cycles; dividing by
    ``instructions`` yields the CPI contribution.  ``per_vm`` keys are
    VM ids as strings (JSON round-trip safety).
    """

    scheme: str
    instructions: int
    total_cycles: float
    components: Dict[str, float] = field(default_factory=dict)
    per_core: List[Dict[str, float]] = field(default_factory=list)
    per_vm: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def cpi_total(self) -> float:
        return self.total_cycles / self.instructions if self.instructions else 0.0

    def cpi(self, component: str) -> float:
        if not self.instructions:
            return 0.0
        return self.components.get(component, 0.0) / self.instructions

    def sorted_components(self) -> List[str]:
        return sorted(self.components, key=component_sort_key)

    def group_totals(self) -> Dict[str, float]:
        """Collapse components by their group (prefix before the dot)."""
        groups: Dict[str, float] = {}
        for component, cycles in self.components.items():
            group = component.partition(".")[0]
            groups[group] = groups.get(group, 0.0) + cycles
        return groups

    def rows(self) -> List[Tuple[str, float, float, float]]:
        """(component, cycles, cpi, share-of-total) in display order."""
        out = []
        for component in self.sorted_components():
            cycles = self.components[component]
            share = cycles / self.total_cycles if self.total_cycles else 0.0
            out.append((component, cycles, self.cpi(component), share))
        return out

    def waterfall(self, width: int = 36) -> str:
        """ASCII CPI waterfall: one bar per component, scaled to the max."""
        rows = self.rows()
        peak = max((abs(cpi) for _, _, cpi, _ in rows), default=0.0)
        lines = [
            f"CPI stack [{self.scheme}]  total CPI {self.cpi_total:.4f}  "
            f"({self.total_cycles:.0f} cycles / {self.instructions} instructions)"
        ]
        lines.append(
            f"  {'component':<20} {'cycles':>14} {'CPI':>9} {'share':>7}"
        )
        for component, cycles, cpi, share in rows:
            bar_len = int(round(abs(cpi) / peak * width)) if peak else 0
            bar = ("-" if cpi < 0 else "#") * bar_len
            lines.append(
                f"  {component:<20} {cycles:>14.2f} {cpi:>9.4f} "
                f"{share:>6.1%} {bar}"
            )
        lines.append(
            f"  {'total':<20} {self.total_cycles:>14.2f} "
            f"{self.cpi_total:>9.4f} {1.0:>6.1%}"
        )
        return "\n".join(lines)

    def delta(self, other: "CpiStack") -> List[Tuple[str, float, float, float]]:
        """Per-component CPI delta rows: (name, self_cpi, other_cpi, diff).

        ``other - self``: positive diff means ``other`` spends more CPI
        on that component.
        """
        names = sorted(
            set(self.components) | set(other.components), key=component_sort_key
        )
        out = []
        for name in names:
            a = self.cpi(name)
            b = other.cpi(name)
            out.append((name, a, b, b - a))
        return out

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "instructions": self.instructions,
            "total_cycles": self.total_cycles,
            "components": dict(self.components),
            "per_core": [dict(stack) for stack in self.per_core],
            "per_vm": {
                vm_id: dict(stack) for vm_id, stack in self.per_vm.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CpiStack":
        return cls(
            scheme=data["scheme"],
            instructions=int(data["instructions"]),
            total_cycles=float(data["total_cycles"]),
            components={
                str(k): float(v) for k, v in data.get("components", {}).items()
            },
            per_core=[
                {str(k): float(v) for k, v in stack.items()}
                for stack in data.get("per_core", [])
            ],
            per_vm={
                str(vm_id): {str(k): float(v) for k, v in stack.items()}
                for vm_id, stack in data.get("per_vm", {}).items()
            },
        )


def merge_components(stacks: Iterable[CpiStack]) -> Tuple[int, Dict[str, float]]:
    """Sum instructions and per-component cycles over several stacks.

    Used by store-level diffs to aggregate one CPI stack per scheme from
    many experiment points.
    """
    instructions = 0
    components: Dict[str, float] = {}
    for stack in stacks:
        instructions += stack.instructions
        for component, cycles in stack.components.items():
            components[component] = components.get(component, 0.0) + cycles
    return instructions, components

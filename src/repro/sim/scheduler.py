"""VM contexts and the round-robin context-switch scheduler.

The paper's setup (Section 4.2): each core runs threads from
``contexts_per_core`` virtual machines and switches between them every
10 ms (40 M cycles at 4 GHz; scaled in simulation).  Context switches do
not flush ASID-tagged TLBs or physically-tagged caches — the damage is
pure capacity competition, which is the effect under study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set, Tuple

from repro.mem.address import Asid, PAGE_4K_BITS
from repro.telemetry import Telemetry
from repro.telemetry.events import EVENT_SWITCH
from repro.vm.walker import VirtualMachine


@dataclass
class Context:
    """One schedulable entity: a thread of a workload inside one VM."""

    asid: Asid
    vm: VirtualMachine
    stream: Iterator[Tuple[int, bool]]
    huge_va_limit: int = 0
    native: bool = False
    #: The workload's inherent memory-level parallelism (MSHR model cap).
    mlp: float = 4.0
    #: Accesses drawn from ``stream`` so far.  Streams are deterministic
    #: infinite generators, so this count is all a checkpoint needs: on
    #: restore the rebuilt stream is fast-forwarded by ``consumed``.
    consumed: int = 0
    _mapped: Set[int] = field(default_factory=set)

    def ensure_mapped(self, virtual_address: int) -> None:
        """Demand-map the page on first touch (cheap set check afterwards).

        Page size policy: VAs below ``huge_va_limit`` use 2 MB pages, all
        others 4 KB pages.  The engine loop inlines this key math."""
        page_bits = 21 if virtual_address < self.huge_va_limit else PAGE_4K_BITS
        key = (virtual_address >> page_bits) << 1 | (page_bits == 21)
        if key in self._mapped:
            return
        self.vm.ensure_mapped(self.asid.process_id, virtual_address, page_bits)
        self._mapped.add(key)

    def state_dict(self) -> dict:
        """``mapped`` is a copy: a live set can iterate, and so pickle, in
        another order than a copy of it, and snapshots hold the copy's
        order."""
        return {"consumed": self.consumed, "mapped": set(self._mapped)}

    def load_state(self, state: dict) -> None:
        self.consumed = state["consumed"]
        self._mapped = set(state["mapped"])


class ContextScheduler:
    """Per-core round-robin over contexts with a fixed cycle quantum."""

    def __init__(
        self,
        per_core_contexts: List[List[Context]],
        switch_interval_cycles: int,
        telemetry: Optional[Telemetry] = None,
    ):
        if switch_interval_cycles < 1:
            raise ValueError("switch interval must be positive")
        if not per_core_contexts or not all(per_core_contexts):
            raise ValueError("every core needs at least one context")
        self._contexts = per_core_contexts
        self.switch_interval_cycles = switch_interval_cycles
        self._active = [0] * len(per_core_contexts)
        self._next_switch = [float(switch_interval_cycles)] * len(per_core_contexts)
        self.switches = 0
        self._telemetry = telemetry

    def current(self, core_id: int) -> Context:
        return self._contexts[core_id][self._active[core_id]]

    def maybe_switch(self, core_id: int, core_cycles: float) -> bool:
        """Rotate the core's context if its quantum has elapsed."""
        if core_cycles < self._next_switch[core_id]:
            return False
        contexts = self._contexts[core_id]
        if len(contexts) > 1:
            self._active[core_id] = (self._active[core_id] + 1) % len(contexts)
            self.switches += 1
            if self._telemetry is not None:
                incoming = contexts[self._active[core_id]]
                self._telemetry.emit(
                    EVENT_SWITCH,
                    core_cycles,
                    core_id,
                    context=self._active[core_id],
                    vm=incoming.asid.vm_id,
                )
        self._next_switch[core_id] = core_cycles + self.switch_interval_cycles
        return len(contexts) > 1

    def state_dict(self) -> dict:
        """Context contents are snapshotted by the engine (per context);
        this covers only the rotation state.  A view, valid until the
        next switch check: the live cursor lists."""
        return {
            "active": self._active,
            "next_switch": self._next_switch,
            "switches": self.switches,
        }

    def load_state(self, state: dict) -> None:
        if len(state["active"]) != len(self._contexts):
            raise ValueError(
                f"scheduler snapshot covers {len(state['active'])} cores, "
                f"this scheduler has {len(self._contexts)}"
            )
        self._active = list(state["active"])
        self._next_switch = list(state["next_switch"])
        self.switches = state["switches"]

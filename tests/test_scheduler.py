"""Unit tests for contexts and the context-switch scheduler."""

import itertools

import pytest

from repro.mem.address import Asid, PAGE_2M_BITS, PAGE_4K_BITS
from repro.sim.scheduler import Context, ContextScheduler
from repro.vm.physical_memory import HostPhysicalMemory
from repro.vm.walker import VirtualMachine


def make_context(vm_id=0, huge_limit=0, memory=None):
    memory = memory or HostPhysicalMemory(num_vms=max(1, vm_id + 1), vm_bytes=1 << 24)
    vm = VirtualMachine(vm_id, memory)
    stream = iter(itertools.cycle([(0x1000, False)]))
    return Context(
        asid=Asid(vm_id, 0), vm=vm, stream=stream, huge_va_limit=huge_limit
    )


class TestContext:
    def test_page_bits_boundary(self):
        context = make_context(huge_limit=1 << 21)
        table = context.vm.guest_table(0)
        context.ensure_mapped((1 << 21) - 1)
        context.ensure_mapped(1 << 21)
        assert table.lookup(0).page_bits == PAGE_2M_BITS
        assert table.lookup(1 << 21).page_bits == PAGE_4K_BITS

    def test_ensure_mapped_idempotent(self):
        context = make_context()
        context.ensure_mapped(0x5000)
        pages_before = context.vm.guest_table(0).pages_mapped
        context.ensure_mapped(0x5abc)
        assert context.vm.guest_table(0).pages_mapped == pages_before

    def test_ensure_mapped_huge(self):
        context = make_context(huge_limit=1 << 21)
        context.ensure_mapped(0x1234)
        translation = context.vm.guest_table(0).lookup(0x1234)
        assert translation.page_bits == 21


def make_scheduler(cores=2, contexts_per_core=2, interval=100):
    per_core = [
        [make_context(vm_id=v) for v in range(contexts_per_core)]
        for _ in range(cores)
    ]
    return ContextScheduler(per_core, interval), per_core


class TestScheduler:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContextScheduler([[make_context()]], 0)
        with pytest.raises(ValueError):
            ContextScheduler([], 100)
        with pytest.raises(ValueError):
            ContextScheduler([[]], 100)

    def test_initial_context(self):
        scheduler, per_core = make_scheduler()
        assert scheduler.current(0) is per_core[0][0]
        assert scheduler.current(1) is per_core[1][0]

    def test_no_switch_before_quantum(self):
        scheduler, per_core = make_scheduler(interval=100)
        assert not scheduler.maybe_switch(0, 99)
        assert scheduler.current(0) is per_core[0][0]

    def test_switch_at_quantum(self):
        scheduler, per_core = make_scheduler(interval=100)
        assert scheduler.maybe_switch(0, 100)
        assert scheduler.current(0) is per_core[0][1]
        assert scheduler.switches == 1

    def test_round_robin_wraps(self):
        scheduler, per_core = make_scheduler(interval=100)
        scheduler.maybe_switch(0, 100)
        scheduler.maybe_switch(0, 200)
        assert scheduler.current(0) is per_core[0][0]

    def test_quantum_anchored_to_switch_time(self):
        scheduler, _ = make_scheduler(interval=100)
        scheduler.maybe_switch(0, 150)
        assert not scheduler.maybe_switch(0, 249)
        assert scheduler.maybe_switch(0, 250)

    def test_cores_independent(self):
        scheduler, per_core = make_scheduler(interval=100)
        scheduler.maybe_switch(0, 100)
        assert scheduler.current(1) is per_core[1][0]

    def test_single_context_never_switches(self):
        scheduler, per_core = make_scheduler(contexts_per_core=1)
        assert not scheduler.maybe_switch(0, 10_000)
        assert scheduler.switches == 0
        assert scheduler.current(0) is per_core[0][0]

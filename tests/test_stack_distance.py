"""Unit and property tests for the MSA stack-distance profilers."""

from hypothesis import given, settings, strategies as st

from repro.core.partitioning import PartitionController
from repro.core.stack_distance import ProfilerPair, StackDistanceProfiler
from repro.mem.cache import Cache, LineKind


def reference_stack_counts(tags, ways):
    """Brute-force MSA counters for a single fully-associative set."""
    counters = [0] * (ways + 1)
    stack = []
    for tag in tags:
        if tag in stack:
            position = stack.index(tag)
            counters[position] += 1
            stack.remove(tag)
        else:
            counters[ways] += 1
        stack.insert(0, tag)
        del stack[ways:]
    return counters


class TestShadowMode:
    def test_first_access_is_miss(self):
        profiler = StackDistanceProfiler(4)
        profiler.record_sampled(0, 42)
        assert profiler.counters[-1] == 1

    def test_immediate_reuse_hits_mru(self):
        profiler = StackDistanceProfiler(4)
        profiler.record_sampled(0, 42)
        profiler.record_sampled(0, 42)
        assert profiler.counters[0] == 1

    def test_distance_two(self):
        profiler = StackDistanceProfiler(4)
        for tag in (1, 2, 1):
            profiler.record_sampled(0, tag)
        assert profiler.counters[1] == 1

    def test_eviction_beyond_ways(self):
        profiler = StackDistanceProfiler(2)
        for tag in (1, 2, 3, 1):
            profiler.record_sampled(0, tag)
        # Tag 1 was pushed out by 2, 3 -> second access misses again.
        assert profiler.counters[-1] == 4

    def test_unsampled_sets_ignored(self):
        # The controller owns the sample mask: every 4th set feeds the
        # shadow tags.
        cache = Cache("l2", 64 * 4 * 16, 4, latency=10)
        controller = PartitionController(
            cache, epoch_accesses=1000, sample_shift=2
        )
        profiler = controller.profilers.data
        for set_index in (1, 2, 3):
            controller.observe(LineKind.DATA, set_index, 42, hit=False)
        assert sum(profiler.counters) == 0
        controller.observe(LineKind.DATA, 4, 42, hit=False)
        assert sum(profiler.counters) == 1
        assert controller.total_accesses == 4

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=100))
    @settings(max_examples=60)
    def test_matches_bruteforce_reference(self, tags):
        profiler = StackDistanceProfiler(4)
        for tag in tags:
            profiler.record_sampled(0, tag)
        assert profiler.counters == reference_stack_counts(tags, 4)

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=100))
    @settings(max_examples=30)
    def test_total_equals_access_count(self, tags):
        profiler = StackDistanceProfiler(4)
        for tag in tags:
            profiler.record_sampled(0, tag)
        assert sum(profiler.counters) == len(tags)


class TestEstimateMode:
    def test_positions_recorded(self):
        profiler = StackDistanceProfiler(4)
        profiler.record_position(0)
        profiler.record_position(2)
        profiler.record_position(None)
        assert profiler.counters == [1, 0, 1, 0, 1]

    def test_position_clamped(self):
        profiler = StackDistanceProfiler(4)
        profiler.record_position(99)
        assert profiler.counters[3] == 1


class TestQueries:
    def test_decay_halves(self):
        profiler = StackDistanceProfiler(2)
        profiler.counters = [8, 4, 3]
        profiler.decay()
        assert profiler.counters == [4, 2, 1]


class TestProfilerPair:
    def test_for_ways(self):
        pair = ProfilerPair.for_ways(8)
        assert pair.data.ways == 8
        assert pair.tlb.ways == 8

    def test_decay_both(self):
        pair = ProfilerPair.for_ways(2)
        pair.data.counters = [4, 0, 0]
        pair.tlb.counters = [0, 0, 6]
        pair.decay()
        assert pair.data.counters[0] == 2
        assert pair.tlb.counters[2] == 3

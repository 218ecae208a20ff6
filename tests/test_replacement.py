"""Unit and property tests for replacement policies.

Each policy is driven through the ``(hit_update, victim, insert)``
closures its ``operations()`` returns, the same ones the cache datapath
binds.  A stack position is read by calling ``hit_update`` on a copy of
the state, which leaves the state itself untouched.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.mem.replacement import NRU, TreePLRU, TrueLRU, make_policy


def position(hit_update, state, way):
    """Estimated LRU-stack position of ``way`` in ``state``."""
    return hit_update(list(state), way)


def oldest_by_age(state, lo, hi):
    """Reference tree-PLRU victim: score every way in ``lo..hi-1`` with
    the Section 3.4 age estimate (each level whose bit points toward the
    way adds that level's span) and keep the first of the oldest."""
    levels = len(state).bit_length()
    best_way, best_age = lo, -1
    for way in range(lo, hi):
        age = 0
        node = 0
        for level in range(levels - 1, -1, -1):
            went_right = (way >> level) & 1
            if state[node] == went_right:
                age += 1 << level
            node = 2 * node + 1 + went_right
        if age > best_age:
            best_way, best_age = way, age
    return best_way


def way_ranges(ways):
    """Every non-empty candidate range ``(lo, hi)`` of a ``ways``-way set."""
    return [(lo, hi) for lo in range(ways) for hi in range(lo + 1, ways + 1)]


class TestMakePolicy:
    def test_names(self):
        assert isinstance(make_policy("lru", 4), TrueLRU)
        assert isinstance(make_policy("NRU", 4), NRU)
        assert isinstance(make_policy("plru", 4), TreePLRU)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            make_policy("belady", 4)

    def test_bad_ways(self):
        with pytest.raises(ValueError):
            TrueLRU(0)


class TestTrueLRU:
    def test_initial_order(self):
        policy = TrueLRU(4)
        _, victim, _ = policy.operations()
        state = policy.new_set_state()
        assert victim(state, 0, 4) == 3

    def test_touch_moves_to_mru(self):
        policy = TrueLRU(4)
        hit_update, victim, _ = policy.operations()
        state = policy.new_set_state()
        hit_update(state, 3)
        assert position(hit_update, state, 3) == 0
        assert victim(state, 0, 4) == 2

    def test_victim_respects_candidates(self):
        policy = TrueLRU(4)
        _, victim, _ = policy.operations()
        state = policy.new_set_state()
        # LRU order is 3 > 2 > 1 > 0; restricted to {0, 1} the victim is 1.
        assert victim(state, 0, 2) == 1

    def test_victim_empty_partition(self):
        policy = TrueLRU(4)
        _, victim, _ = policy.operations()
        state = policy.new_set_state()
        with pytest.raises(ValueError):
            victim(state, 0, 0)

    def test_insert_at_lru(self):
        policy = TrueLRU(4)
        _, victim, insert = policy.operations()
        state = policy.new_set_state()
        insert(state, 0, False)
        assert victim(state, 0, 4) == 0

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=64))
    def test_stack_position_matches_reference(self, touches):
        """Stack position must equal the reference recency list's index."""
        policy = TrueLRU(8)
        hit_update, _, _ = policy.operations()
        state = policy.new_set_state()
        reference = list(range(8))
        for way in touches:
            hit_update(state, way)
            reference.remove(way)
            reference.insert(0, way)
        for way in range(8):
            assert position(hit_update, state, way) == reference.index(way)

    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=64))
    def test_positions_are_a_permutation(self, touches):
        policy = TrueLRU(8)
        hit_update, _, _ = policy.operations()
        state = policy.new_set_state()
        for way in touches:
            hit_update(state, way)
        positions = sorted(position(hit_update, state, w) for w in range(8))
        assert positions == list(range(8))


class TestNRU:
    def test_touch_sets_bit(self):
        policy = NRU(4)
        hit_update, _, _ = policy.operations()
        state = policy.new_set_state()
        hit_update(state, 2)
        assert state[2] is True

    def test_all_set_resets_others(self):
        policy = NRU(4)
        hit_update, _, _ = policy.operations()
        state = policy.new_set_state()
        for way in range(4):
            hit_update(state, way)
        # Last touch (way 3) keeps its bit; the others were reset.
        assert state == [False, False, False, True]

    def test_victim_prefers_clear_bit(self):
        policy = NRU(4)
        hit_update, victim, _ = policy.operations()
        state = policy.new_set_state()
        hit_update(state, 0)
        assert victim(state, 0, 4) == 1

    def test_victim_resets_when_all_referenced(self):
        policy = NRU(2)
        _, victim, _ = policy.operations()
        state = [True, True]
        assert victim(state, 0, 2) == 0
        assert state == [False, False]

    def test_victim_scoped_to_partition(self):
        policy = NRU(4)
        _, victim, _ = policy.operations()
        state = [True, True, False, True]
        # Partition {0, 1}: both referenced, reset only inside partition.
        assert victim(state, 0, 2) == 0
        assert state[3] is True

    def test_stack_positions_in_range(self):
        policy = NRU(8)
        hit_update, _, _ = policy.operations()
        state = policy.new_set_state()
        for way in (0, 3, 5):
            hit_update(state, way)
        for way in range(8):
            assert 0 <= position(hit_update, state, way) < 8

    def test_referenced_estimated_younger(self):
        policy = NRU(8)
        hit_update, _, _ = policy.operations()
        state = policy.new_set_state()
        hit_update(state, 1)
        assert position(hit_update, state, 1) < position(hit_update, state, 2)

    def test_pinned_positions(self):
        # Two referenced ways share the upper half (way 0 one step
        # younger), the two clear ways sit at the lower half's midpoint.
        policy = NRU(4)
        hit_update, _, _ = policy.operations()
        state = [True, True, False, False]
        assert [position(hit_update, state, w) for w in range(4)] == [0, 1, 3, 3]


class TestTreePLRU:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            TreePLRU(6)

    def test_touch_protects_way(self):
        policy = TreePLRU(4)
        hit_update, victim, _ = policy.operations()
        state = policy.new_set_state()
        hit_update(state, 2)
        assert victim(state, 0, 4) != 2

    def test_round_robin_fill(self):
        """Touching every way in order leaves the first the oldest."""
        policy = TreePLRU(8)
        hit_update, _, _ = policy.operations()
        state = policy.new_set_state()
        for way in range(8):
            hit_update(state, way)
        assert position(hit_update, state, 7) == 0

    def test_stack_positions_in_range(self):
        policy = TreePLRU(16)
        hit_update, _, _ = policy.operations()
        state = policy.new_set_state()
        for way in (0, 5, 9, 14):
            hit_update(state, way)
        for way in range(16):
            assert 0 <= position(hit_update, state, way) < 16

    def test_most_recent_is_mru(self):
        policy = TreePLRU(8)
        hit_update, _, _ = policy.operations()
        state = policy.new_set_state()
        hit_update(state, 5)
        assert position(hit_update, state, 5) == 0

    def test_pinned_positions(self):
        # Each tree level pointing toward a way adds half the remaining
        # stack range: ways-1 tree bits give a permutation of 0..7.
        policy = TreePLRU(8)
        hit_update, _, _ = policy.operations()
        state = [1, 0, 1, 1, 0, 0, 1]
        assert [position(hit_update, state, w) for w in range(8)] == [
            2, 3, 1, 0, 5, 4, 6, 7,
        ]

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=64))
    def test_victim_never_most_recent(self, touches):
        policy = TreePLRU(8)
        hit_update, victim, _ = policy.operations()
        state = policy.new_set_state()
        for way in touches:
            hit_update(state, way)
        assert victim(state, 0, 8) != touches[-1]

    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=64))
    def test_victim_in_candidates(self, touches):
        policy = TreePLRU(8)
        hit_update, victim, _ = policy.operations()
        state = policy.new_set_state()
        for way in touches:
            hit_update(state, way)
        assert victim(state, 2, 6) in range(2, 6)

    @pytest.mark.parametrize("ways", [2, 4, 8])
    def test_positions_are_a_permutation(self, ways):
        # Distinct ages in 0..ways-1 for every tree state: the victim
        # never ties, and no position needs clamping to ways-1.
        hit_update, _, _ = TreePLRU(ways).operations()
        for state in itertools.product((0, 1), repeat=ways - 1):
            positions = sorted(
                position(hit_update, state, w) for w in range(ways)
            )
            assert positions == list(range(ways))

    @pytest.mark.parametrize("ways", [2, 4, 8])
    def test_victim_matches_age_scan(self, ways):
        # Every tree state and every partition: 6, 80 and 4,608 cases.
        _, victim, _ = TreePLRU(ways).operations()
        for state in itertools.product((0, 1), repeat=ways - 1):
            for lo, hi in way_ranges(ways):
                assert victim(list(state), lo, hi) == oldest_by_age(
                    state, lo, hi
                ), (state, lo, hi)

    @given(st.lists(st.integers(min_value=0, max_value=1),
                    min_size=15, max_size=15))
    def test_victim_matches_age_scan_16_ways(self, state):
        _, victim, _ = TreePLRU(16).operations()
        for lo, hi in way_ranges(16):
            assert victim(state, lo, hi) == oldest_by_age(state, lo, hi)


class TestRrip:
    def _policy(self):
        from repro.mem.replacement import Rrip
        return Rrip(4)

    def test_make_policy_name(self):
        from repro.mem.replacement import Rrip
        assert isinstance(make_policy("rrip", 4), Rrip)

    def test_initial_state_all_distant(self):
        policy = self._policy()
        assert policy.new_set_state() == [3, 3, 3, 3]

    def test_hit_promotes_to_zero(self):
        policy = self._policy()
        hit_update, _, _ = policy.operations()
        state = policy.new_set_state()
        hit_update(state, 2)
        assert state[2] == 0

    def test_insert_long_interval(self):
        policy = self._policy()
        _, _, insert = policy.operations()
        state = policy.new_set_state()
        insert(state, 1, True)
        assert state[1] == 2
        insert(state, 2, False)
        assert state[2] == 3

    def test_victim_prefers_distant(self):
        policy = self._policy()
        _, victim, _ = policy.operations()
        state = [0, 3, 2, 1]
        assert victim(state, 0, 4) == 1

    def test_victim_ages_when_none_distant(self):
        policy = self._policy()
        _, victim, _ = policy.operations()
        state = [0, 1, 2, 2]
        assert victim(state, 0, 4) in (2, 3)
        assert state[0] >= 1  # candidates aged

    def test_victim_scoped_to_partition(self):
        policy = self._policy()
        _, victim, _ = policy.operations()
        state = [0, 0, 0, 3]
        # Partition {0, 1}: way 3 is distant but out of bounds.
        assert victim(state, 0, 2) in (0, 1)

    def test_stack_positions_ordered_by_rrpv(self):
        policy = self._policy()
        hit_update, _, _ = policy.operations()
        state = [0, 3, 2, 1]
        positions = [position(hit_update, state, w) for w in range(4)]
        assert positions[0] < positions[3] < positions[2] < positions[1]

    def test_stack_positions_in_range(self):
        policy = self._policy()
        hit_update, _, _ = policy.operations()
        state = [2, 2, 2, 2]
        for way in range(4):
            assert 0 <= position(hit_update, state, way) < 4

    def test_pinned_positions(self):
        # Ways rank by RRPV; each of g ways sharing an RRPV sits
        # (g - 1) // 2 places past the ways younger than the group.
        from repro.mem.replacement import Rrip
        policy = Rrip(8)
        hit_update, _, _ = policy.operations()
        state = [1, 3, 1, 1, 0, 3, 2, 3]
        assert [position(hit_update, state, w) for w in range(8)] == [
            2, 6, 2, 2, 0, 6, 4, 6,
        ]

"""Cache replacement policies with partition-aware victim selection.

CSALT's partitioning needs two things from the replacement policy beyond
ordinary victim selection (paper Sections 3.1 and 3.4):

* **victim restricted to a way range** — on a fill, the victim is the least
  recently used line *within the partition that owns the incoming line's
  type* (data ways ``0..N-1``, TLB ways ``N..K-1``);
* **an (estimated) LRU stack position** for every access, which feeds the
  Mattson stack-distance profilers.  True-LRU yields the exact position;
  NRU and binary-tree pseudo-LRU yield the estimates of Kedzierski et al.
  that the paper adopts in Section 3.4.

Every policy keeps one state object per cache set; the cache owns the
mapping from set index to state.  Each policy class is the only
implementation of its policy: ``operations()`` returns the three closures
the cache datapath binds once at construction.
"""

from __future__ import annotations

from typing import List


class ReplacementPolicy:
    """Recency bookkeeping for one cache, parameterized by associativity.

    ``new_set_state()`` returns fresh per-set state (all ways
    least-recent), and ``operations()`` returns ``(hit_update, victim,
    insert)``:

    * ``hit_update(state, way) -> position`` records an access to
      ``way`` and returns its estimated LRU-stack position *before* the
      access (0 = MRU, ways-1 = LRU);
    * ``victim(state, lo, hi)`` returns the policy's victim in
      ``lo..hi-1``, the partition that owns the incoming line (the
      least-recently-used way there under true LRU);
    * ``insert(state, way, at_mru)`` places a filled ``way`` at the MRU
      or, for DIP's BIP-style insertion, the LRU position.  Policies
      without a meaningful LRU insertion point treat both as a plain
      access.
    """

    def __init__(self, ways: int):
        if ways < 1:
            raise ValueError(f"associativity must be positive, got {ways}")
        self.ways = ways


class TrueLRU(ReplacementPolicy):
    """Exact least-recently-used ordering.

    Per-set state is a list of way indices ordered most-recent first, so
    ``state.index(way)`` *is* the Mattson stack position.
    """

    def new_set_state(self) -> List[int]:
        return list(range(self.ways))

    def operations(self):
        ways = self.ways

        def hit_update(state: List[int], way: int) -> int:
            position = state.index(way)
            if position:
                del state[position]
                state.insert(0, way)
            return position

        def victim(state: List[int], lo: int, hi: int) -> int:
            if hi - lo == ways:
                return state[-1]
            for way in reversed(state):
                if lo <= way < hi:
                    return way
            raise ValueError("candidates contain no valid way index")

        def insert(state: List[int], way: int, at_mru: bool) -> None:
            # Fills overwhelmingly replace the LRU way (the unpartitioned
            # ``victim`` above returns ``state[-1]``), so test the tail first:
            # a pop is O(1) where ``remove`` scans the whole list.
            if state[-1] == way:
                state.pop()
            else:
                state.remove(way)
            if at_mru:
                state.insert(0, way)
            else:
                state.append(way)

        return hit_update, victim, insert


class NRU(ReplacementPolicy):
    """Not-recently-used: one reference bit per way.

    An access sets the way's bit; when that leaves every bit set, the
    others are cleared.  Victim is the first candidate whose bit is
    clear; if none is clear in the candidate range, all candidate bits
    are reset first (the standard NRU epoch reset, scoped to the
    partition so one partition's resets do not disturb the other's bits).

    Stack positions are estimated as in Kedzierski et al.: recently-used
    lines (bit set) occupy the upper half of the recency stack and
    not-recently-used lines the lower half; each group is placed at its
    midpoint.
    """

    def new_set_state(self) -> List[bool]:
        return [False] * self.ways

    def operations(self):
        ways = self.ways
        last = ways - 1

        def hit_update(state: List[bool], way: int) -> int:
            referenced = sum(state)
            if state[way]:
                position = max(0, referenced // 2 - (1 if way == 0 else 0)) % ways
            else:
                position = referenced + (ways - referenced) // 2
                if position > last:
                    position = last
            state[way] = True
            if all(state):
                for i in range(ways):
                    if i != way:
                        state[i] = False
            return position

        def victim(state: List[bool], lo: int, hi: int) -> int:
            for way in range(lo, hi):
                if not state[way]:
                    return way
            for way in range(lo, hi):
                state[way] = False
            return lo

        def insert(state: List[bool], way: int, at_mru: bool) -> None:
            state[way] = True
            if all(state):
                for i in range(ways):
                    if i != way:
                        state[i] = False

        return hit_update, victim, insert


class TreePLRU(ReplacementPolicy):
    """Binary-tree pseudo-LRU (associativity must be a power of two).

    Per-set state is the flat array of ``ways - 1`` tree bits; bit value 0
    means "left subtree is older", and an access points every bit on its
    path away from the accessed way.  Stack positions use the identifier
    estimate from the paper's Section 3.4: each tree level on the path to
    a way contributes half the remaining stack range when it points
    *toward* the way (the way looks old at that level).  The victim is
    the oldest candidate by that estimate.  Each level's span is larger
    than all the spans below it together, so no two ways share an age,
    and the oldest candidate is found in one root-to-leaf descent that
    follows the tree bits and turns only away from a subtree holding no
    candidate.
    """

    def __init__(self, ways: int):
        super().__init__(ways)
        if ways & (ways - 1):
            raise ValueError(f"tree PLRU needs power-of-two ways, got {ways}")

    def new_set_state(self) -> List[int]:
        return [0] * (self.ways - 1)

    def operations(self):
        ways = self.ways
        levels = ways.bit_length() - 1
        # Child subtree sizes from the root down: ways/2, ways/4, ..., 1.
        halves = tuple(ways >> depth for depth in range(1, levels + 1))

        def hit_update(state: List[int], way: int) -> int:
            # Reads each path node before overwriting it, so the position
            # is the pre-access estimate.
            position = 0
            span = ways
            node = 0
            for level in range(levels - 1, -1, -1):
                went_right = (way >> level) & 1
                span >>= 1
                if state[node] == went_right:
                    position += span
                state[node] = 0 if went_right else 1
                node = 2 * node + 1 + went_right
            return position

        def victim(state: List[int], lo: int, hi: int) -> int:
            # Follow each bit (1: the right half is older) unless that half
            # holds no way in ``lo..hi-1``.  The subtree at ``node``, ways
            # ``way..way+2*half-1``, always holds one, so its right half
            # is empty exactly when ``middle >= hi``, its left exactly
            # when ``middle <= lo``.
            way = 0
            node = 0
            for half in halves:
                middle = way + half
                if (middle < hi) if state[node] else (middle <= lo):
                    way = middle
                    node = 2 * node + 2
                else:
                    node = 2 * node + 1
            return way

        def insert(state: List[int], way: int, at_mru: bool) -> None:
            node = 0
            for level in range(levels - 1, -1, -1):
                went_right = (way >> level) & 1
                state[node] = 0 if went_right else 1
                node = 2 * node + 1 + went_right

        return hit_update, victim, insert


class Rrip(ReplacementPolicy):
    """Static RRIP (Jaleel et al., cited by the paper's Section 6).

    Per-way 2-bit re-reference prediction values (RRPV): 0 = re-reference
    imminent, 3 = distant.  Hits promote to 0; fills insert at 2 (SRRIP's
    "long" interval) or 3 for BIP-style distant insertion; the victim is
    the first candidate at RRPV 3, aging all candidates when none is.

    Stack positions are estimated by RRPV ordering (ways at lower RRPV
    are younger), the same spirit as the paper's Section 3.4 estimates.
    """

    MAX_RRPV = 3
    INSERT_RRPV = 2

    def new_set_state(self) -> List[int]:
        return [self.MAX_RRPV] * self.ways

    def operations(self):
        last = self.ways - 1
        max_rrpv = self.MAX_RRPV
        insert_rrpv = self.INSERT_RRPV

        def hit_update(state: List[int], way: int) -> int:
            rrpv = state[way]
            younger = 0
            peers = -1
            for value in state:
                if value < rrpv:
                    younger += 1
                elif value == rrpv:
                    peers += 1
            position = younger + peers // 2
            state[way] = 0
            return position if position < last else last

        def victim(state: List[int], lo: int, hi: int) -> int:
            while True:
                for way in range(lo, hi):
                    if state[way] >= max_rrpv:
                        return way
                for way in range(lo, hi):
                    state[way] += 1

        def insert(state: List[int], way: int, at_mru: bool) -> None:
            state[way] = insert_rrpv if at_mru else max_rrpv

        return hit_update, victim, insert


#: Every policy by the name configs and the CLI use for it.
POLICY_BY_NAME = {"lru": TrueLRU, "nru": NRU, "plru": TreePLRU, "rrip": Rrip}


def make_policy(name: str, ways: int) -> ReplacementPolicy:
    """Build a policy by name: ``lru``, ``nru``, ``plru`` or ``rrip``."""
    try:
        return POLICY_BY_NAME[name.lower()](ways)
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; expected one of "
            f"{sorted(POLICY_BY_NAME)}"
        ) from None

"""Workload abstraction: multi-threaded guest-virtual address streams.

The paper drives its simulator with Pin-collected timed traces of
memory-intensive programs (Section 4.1).  We have no proprietary traces,
so each workload here is a *generator* that emits a guest-virtual access
stream with the same qualitative structure — footprint, page-size mix,
reuse locality, read/write balance and phase behaviour (see DESIGN.md
Section 2 for the substitution argument).

Address-space layout convention shared by all workloads:

* ``[0, huge_va_limit)`` — data the guest OS backs with 2 MB huge pages
  (Transparent Huge Pages picks large, dense allocations);
* ``[REGION_4K_BASE, ...)`` — data backed with 4 KB base pages.

Streams are infinite iterators of ``(virtual_address, is_write)``; the
engine decides how many accesses to consume.  Random numbers are drawn in
numpy batches for speed and full determinism per (workload, thread, seed).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Iterator, Tuple

import numpy as np

#: Base virtual address of the 4 KB-page region (above any huge region).
REGION_4K_BASE = 1 << 33

#: How many random numbers each generator draws per numpy call.
BATCH = 2048

#: Ranks per chunk of a Zipf table: the table keeps two numbers per
#: chunk, and a draw rebuilds the one chunk it lands in.
ZIPF_CHUNK = 16

#: Ranks per step of a Zipf table's build (a multiple of ZIPF_CHUNK).
_ZIPF_BUILD_STEP = 65_536

AccessStream = Iterator[Tuple[int, bool]]


class BatchedStream:
    """An ``(address, is_write)`` iterator backed by block generation.

    Wraps a generator of *blocks* (lists of ``(address, is_write)``
    pairs, one per numpy draw) and exposes the plain iterator protocol
    plus the batched API the engine's hot loop uses:

    * :meth:`take` — the next ``n`` pairs as one list (a single slice in
      the common case, instead of ``n`` generator resumes);
    * :meth:`skip` — advance by ``n`` pairs block-at-a-time, which makes
      a checkpoint restore's stream fast-forward O(consumed / BATCH)
      list hops instead of O(consumed) ``next()`` calls.

    The wrapper never reorders or drops items: consuming it with plain
    ``next()`` yields exactly the flattened block sequence, so streams
    are bit-identical to the pre-batching per-item generators.
    """

    __slots__ = ("_blocks", "_buffer", "_pos")

    def __init__(self, blocks: Iterator[list]):
        self._blocks = blocks
        self._buffer: list = []
        self._pos = 0

    def __iter__(self) -> "BatchedStream":
        return self

    def __next__(self) -> Tuple[int, bool]:
        pos = self._pos
        buffer = self._buffer
        if pos >= len(buffer):
            self._buffer = buffer = next(self._blocks)
            pos = 0
        self._pos = pos + 1
        return buffer[pos]

    def take(self, count: int) -> list:
        """Return the next ``count`` pairs as a list."""
        pos = self._pos
        end = pos + count
        buffer = self._buffer
        if end <= len(buffer):
            self._pos = end
            return buffer[pos:end]
        out = buffer[pos:]
        blocks = self._blocks
        need = count - len(out)
        while need > 0:
            buffer = next(blocks)
            if need < len(buffer):
                out.extend(buffer[:need])
                self._buffer = buffer
                self._pos = need
                return out
            out.extend(buffer)
            need -= len(buffer)
        self._buffer = buffer
        self._pos = len(buffer)
        return out

    def skip(self, count: int) -> None:
        """Advance past the next ``count`` pairs without materializing
        them one at a time (blocks are still generated, so the backing
        RNG state advances exactly as if they had been consumed)."""
        buffer = self._buffer
        pos = self._pos
        available = len(buffer) - pos
        remaining = count
        while remaining > available:
            remaining -= available
            buffer = next(self._blocks)
            pos = 0
            available = len(buffer)
        self._buffer = buffer
        self._pos = pos + remaining


class Workload(ABC):
    """One guest program: a named source of per-thread access streams."""

    #: Figure-label name, e.g. ``"gups"``.
    name: str = "workload"
    #: VAs below this are 2 MB-mapped (0 = everything uses 4 KB pages).
    huge_va_limit: int = 0
    #: Inherent memory-level parallelism: how many of this program's data
    #: misses can overlap.  Independent random updates (gups) overlap
    #: almost fully; dependent pointer chases (ccomp) barely at all.
    mlp: float = 4.0

    @abstractmethod
    def thread_stream(
        self, thread_id: int, num_threads: int = 8, seed: int = 0
    ) -> AccessStream:
        """Infinite access stream for one thread of this program."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _running_sums(ranks: np.ndarray, alpha: float, carried) -> np.ndarray:
    """Turn float64 ``ranks`` in place into running sums of
    ``rank ** -alpha`` along the last axis, each row starting from its
    ``carried`` sum.  The table build and the sampler's chunk rebuild
    both go through here, so the same ufuncs run in the same order and
    their sums agree to the bit.  Both pass contiguous arrays, so both
    take the same ``power`` loop: numpy's SIMD loop and its scalar
    fallback (libm's ``pow``) differ in the last bit for about one value
    in twenty on an AVX-512 host."""
    ranks **= -alpha
    ranks[..., 0] += carried
    return np.cumsum(ranks, axis=-1, out=ranks)


@lru_cache(maxsize=16)
def _zipf_cdf(num_items: int, alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """Two-level Zipf(alpha) CDF over ``num_items`` ranks, cached.

    The full CDF is ``cumsum(ranks ** -alpha) / total``.  This table
    keeps one entry per chunk of :data:`ZIPF_CHUNK` ranks instead:
    ``sums[c]`` is the unnormalized running sum before chunk ``c``
    (``sums[-1]`` is the total) and ``ends[c]`` the normalized CDF value
    at the chunk's last rank.  :func:`zipf_page_sampler` rebuilds a
    drawn chunk from ``sums`` through the same :func:`_running_sums`,
    so every rebuilt value is bit-identical to the full CDF's.  It is
    built in :data:`_ZIPF_BUILD_STEP`-rank steps, each carrying the
    running sum into its first element, so no full-size buffer is ever
    allocated.

    The table depends on neither the seed nor the thread, so every VM
    and thread of a process shares one read-only copy.
    """
    chunks = -(-num_items // ZIPF_CHUNK)
    sums = np.empty(chunks + 1)
    sums[0] = 0.0
    carried = 0.0
    for start in range(0, num_items, _ZIPF_BUILD_STEP):
        ranks = np.arange(
            start + 1, min(start + _ZIPF_BUILD_STEP, num_items) + 1,
            dtype=np.float64,
        )
        step = _running_sums(ranks, alpha, carried)
        carried = step[-1]
        chunk_ends = step[ZIPF_CHUNK - 1::ZIPF_CHUNK]
        first = start // ZIPF_CHUNK + 1
        sums[first:first + len(chunk_ends)] = chunk_ends
    # A partial last chunk ends at the last rank.
    sums[-1] = carried
    ends = sums[1:] / carried
    sums.flags.writeable = False
    ends.flags.writeable = False
    return sums, ends


@lru_cache(maxsize=16)
def _zipf_permutation(num_items: int, perm_seed: int) -> np.ndarray:
    """Read-only scatter permutation of ``num_items`` ranks, cached.

    Equal to ``default_rng((perm_seed, num_items)).permutation(num_items)``:
    ``shuffle`` draws one bounded integer per position whatever the
    dtype, and ``int32`` halves the table (the largest at full scale has
    29.4 M entries).
    """
    permutation = np.arange(num_items, dtype=np.int32)
    np.random.default_rng((perm_seed, num_items)).shuffle(permutation)
    permutation.flags.writeable = False
    return permutation


def zipf_page_sampler(
    rng: np.random.Generator,
    num_items: int,
    alpha: float,
    perm_seed: int = 0,
    permute: bool = True,
) -> "Callable[[int], np.ndarray]":
    """Return a batch sampler of Zipf(alpha)-distributed indices.

    Popularity rank is shuffled so hot items are scattered across the
    region (a graph's high-degree vertices are not contiguous in memory).
    The shuffle is keyed by ``perm_seed`` alone — *not* by ``rng`` — so
    all threads of one program see the same hot set, as threads of a real
    shared-memory program do.

    With ``permute=False`` the indices *are* the popularity ranks (rank 0
    hottest): use this when hot items cluster at low indices, e.g. the
    low vertex ids of an RMAT graph, so page-level aggregation preserves
    the skew.
    """
    sums, ends = _zipf_cdf(num_items, alpha)
    before, total = sums[:-1], sums[-1]
    offsets = np.arange(1.0, ZIPF_CHUNK + 1)

    def ranks(count: int) -> np.ndarray:
        # The first rank whose CDF value is >= u, as
        # ``searchsorted(full_cdf, u)``: find u's chunk by its end, then
        # rebuild that chunk's values exactly as _zipf_cdf built them.
        u = rng.random(count)
        chunk = np.searchsorted(ends, u)
        base = chunk * ZIPF_CHUNK
        values = _running_sums(base[:, None] + offsets, alpha, before[chunk])
        values /= total
        # Ranks past num_items in a partial last chunk sum to at least
        # the total, so their values are >= 1 > u and never counted.
        return base + (values < u[:, None]).sum(axis=1)

    if permute:
        permutation = _zipf_permutation(num_items, perm_seed)

        def sample(count: int) -> np.ndarray:
            return permutation[ranks(count)].astype(np.int64)

        return sample
    return ranks

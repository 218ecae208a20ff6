"""Unit tests for workload generators and the mix registry."""

import hashlib
import itertools

import pytest

from repro.sim.engine import derive_stream_seed
from repro.workloads import base
from repro.workloads.base import BATCH, REGION_4K_BASE, zipf_page_sampler
from repro.workloads.mixes import MIXES, MIX_NAMES, make_mix, make_program
from repro.workloads.programs import (
    Canneal,
    ConnectedComponent,
    Graph500,
    Gups,
    PageRank,
    StreamCluster,
)

import numpy as np


def take(stream, count):
    return list(itertools.islice(stream, count))


ALL_PROGRAMS = [Gups, Graph500, PageRank, Canneal, StreamCluster,
                ConnectedComponent]


class TestCommonContract:
    @pytest.mark.parametrize("cls", ALL_PROGRAMS)
    def test_stream_is_deterministic(self, cls):
        workload = cls.scaled(0.25)
        first = take(workload.thread_stream(0, 8, seed=3), 200)
        second = take(workload.thread_stream(0, 8, seed=3), 200)
        assert first == second

    @pytest.mark.parametrize("cls", ALL_PROGRAMS)
    def test_threads_differ(self, cls):
        workload = cls.scaled(0.25)
        a = take(workload.thread_stream(0, 8, seed=3), 200)
        b = take(workload.thread_stream(1, 8, seed=3), 200)
        assert a != b

    @pytest.mark.parametrize("cls", ALL_PROGRAMS)
    def test_addresses_nonnegative_and_flagged(self, cls):
        workload = cls.scaled(0.25)
        for address, is_write in take(workload.thread_stream(0), 500):
            assert address >= 0
            assert isinstance(is_write, bool)

    @pytest.mark.parametrize("cls", ALL_PROGRAMS)
    def test_huge_region_boundary(self, cls):
        workload = cls.scaled(0.25)
        for address, _ in take(workload.thread_stream(0), 500):
            if address < workload.huge_va_limit:
                continue
            assert address >= REGION_4K_BASE or workload.huge_va_limit > 0


class TestGups:
    def test_addresses_inside_table(self):
        workload = Gups(table_bytes=1 << 22)
        for address, _ in take(workload.thread_stream(0), 1000):
            assert 0 <= address < 1 << 22

    def test_read_modify_write_pairs(self):
        workload = Gups(table_bytes=1 << 22)
        accesses = take(workload.thread_stream(0), 100)
        for read, write in zip(accesses[0::2], accesses[1::2]):
            assert read[0] == write[0]
            assert not read[1] and write[1]

    def test_huge_limit_covers_table(self):
        workload = Gups(table_bytes=1 << 22)
        assert workload.huge_va_limit == 1 << 22


class TestStreaming:
    def test_streamcluster_sequential_progress(self):
        workload = StreamCluster.scaled(0.25)
        addresses = [
            a for a, _ in take(workload.thread_stream(0), 2000)
            if a < REGION_4K_BASE + workload.points_bytes
        ]
        deltas = [b - a for a, b in zip(addresses, addresses[1:])]
        assert deltas.count(workload.stride) > len(deltas) // 2

    def test_streamcluster_thread_partitions(self):
        workload = StreamCluster.scaled(0.25)
        span = workload.points_bytes // 8
        for thread in (0, 3):
            base = REGION_4K_BASE + thread * span
            points = [
                a for a, _ in take(workload.thread_stream(thread, 8), 500)
                if a < REGION_4K_BASE + workload.points_bytes
            ]
            assert all(base <= a < base + span for a in points)

    def test_graph500_mixes_vertices_and_edges(self):
        workload = Graph500.scaled(0.25)
        addresses = [a for a, _ in take(workload.thread_stream(0), 2000)]
        vertex = [a for a in addresses if a < workload.vertex_bytes]
        edges = [a for a in addresses if a >= REGION_4K_BASE]
        assert vertex and edges
        assert len(vertex) + len(edges) == len(addresses)


class TestSharedHotSets:
    def test_zipf_permutation_shared_across_threads(self):
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(2)
        sampler_a = zipf_page_sampler(rng_a, 1000, 1.0, perm_seed=7)
        sampler_b = zipf_page_sampler(rng_b, 1000, 1.0, perm_seed=7)
        # Different sampling rngs, same hot set: the most frequent items
        # must coincide.
        from collections import Counter
        top_a = {x for x, _ in Counter(sampler_a(4000)).most_common(5)}
        top_b = {x for x, _ in Counter(sampler_b(4000)).most_common(5)}
        assert top_a & top_b

    def test_ccomp_window_shared_across_threads(self):
        workload = ConnectedComponent.scaled(0.25)
        pages_a = {a >> 12 for a, _ in take(workload.thread_stream(0, 8, 5), 500)}
        pages_b = {a >> 12 for a, _ in take(workload.thread_stream(1, 8, 5), 500)}
        overlap = len(pages_a & pages_b) / max(1, min(len(pages_a), len(pages_b)))
        assert overlap > 0.5


def reference_zipf_tables(num_items, alpha, perm_seed):
    """Tables from the plain formula: out-of-place running sums, the CDF,
    and an int64 permutation."""
    weights = np.arange(1, num_items + 1, dtype=np.float64) ** (-alpha)
    sums = np.cumsum(weights)
    cumulative = sums / sums[-1]
    permutation = np.random.default_rng((perm_seed, num_items)).permutation(
        num_items
    )
    return sums, cumulative, permutation


class FixedDraws:
    """Stands in for a sampler's generator: ``random(count)`` returns the
    next ``count`` of the given uniform values."""

    def __init__(self, values):
        self.values = values
        self.position = 0

    def random(self, count):
        start, self.position = self.position, self.position + count
        return self.values[start:self.position]


class TestZipfSampler:
    @pytest.mark.parametrize("permute", [True, False])
    @pytest.mark.parametrize(
        "num_items", [1, 15, 16, 17, 512, 16384, 2**20 + 3]
    )
    @pytest.mark.parametrize("alpha", [0.0, 0.55, 0.7, 0.95, 1.0])
    def test_matches_reference_formula(self, alpha, num_items, permute):
        sums, cumulative, permutation = reference_zipf_tables(
            num_items, alpha, 5
        )
        # The table is bit-equal to the full sums and CDF at each chunk's
        # last rank (the last chunk may be partial).
        last_ranks = np.r_[
            base.ZIPF_CHUNK - 1:num_items - 1:base.ZIPF_CHUNK, num_items - 1
        ]
        table_sums, table_ends = base._zipf_cdf(num_items, alpha)
        np.testing.assert_array_equal(table_sums, np.r_[0.0, sums[last_ranks]])
        np.testing.assert_array_equal(table_ends, cumulative[last_ranks])
        if permute:
            np.testing.assert_array_equal(
                base._zipf_permutation(num_items, 5), permutation
            )
        else:
            permutation = np.arange(num_items)
        # u equal to a CDF value catches a rebuilt value lower than the
        # full CDF's, u one double above it catches a higher one: equal
        # draws on these edges mean every rebuilt value is bit-equal.
        below_one = cumulative[cumulative < 1.0]
        edges = np.concatenate([
            cumulative, np.nextafter(cumulative, 0.0),
            np.nextafter(below_one, 1.0), [0.0],
        ])
        sampler = zipf_page_sampler(
            FixedDraws(edges), num_items, alpha, perm_seed=5, permute=permute,
        )
        for start in range(0, len(edges), 1 << 16):
            draws = edges[start:start + (1 << 16)]
            expected = permutation[np.searchsorted(cumulative, draws)]
            np.testing.assert_array_equal(sampler(len(draws)), expected)
        sampler = zipf_page_sampler(
            np.random.default_rng(11), num_items, alpha,
            perm_seed=5, permute=permute,
        )
        rng = np.random.default_rng(11)
        for _ in range(4):
            expected = permutation[
                np.searchsorted(cumulative, rng.random(BATCH))
            ]
            picks = sampler(BATCH)
            assert picks.dtype == np.int64
            np.testing.assert_array_equal(picks, expected)

    def test_table_is_a_fraction_of_the_full_cdf(self):
        sums, ends = base._zipf_cdf(2**22, 0.7)
        assert sums.nbytes + ends.nbytes <= 2**22 * 8 // 4

    def test_tables_shared_lazy_and_read_only(self):
        base._zipf_cdf.cache_clear()
        base._zipf_permutation.cache_clear()
        rng = np.random.default_rng(0)
        zipf_page_sampler(rng, 4096, 0.7, perm_seed=1)
        zipf_page_sampler(rng, 4096, 0.7, perm_seed=2)
        # One table for both seeds: the second sampler hits the cache.
        assert base._zipf_cdf.cache_info().misses == 1
        assert base._zipf_cdf.cache_info().hits == 1
        assert base._zipf_permutation.cache_info().misses == 2
        # An unpermuted sampler never builds a permutation.
        zipf_page_sampler(rng, 4096, 1.0, perm_seed=3, permute=False)
        assert base._zipf_permutation.cache_info().misses == 2
        sums, ends = base._zipf_cdf(4096, 0.7)
        permutation = base._zipf_permutation(4096, 1)
        for table in (sums, ends, permutation):
            with pytest.raises(ValueError):
                table[0] = 1


#: SHA-256 of ``repr`` of the first ``3 * BATCH`` pairs of each stream,
#: keyed by (program, VM, thread) at ``derive_stream_seed(0, VM)``.  Any
#: change to these streams changes every result that uses them.
STREAM_DIGESTS = {
    (Gups, 0, 0): "cbe7653a4cac5cf53970cd4b5ba1a59b2e5ad3342a44b7cb8def719ec5303528",
    (Gups, 0, 5): "cb39fc33aa7a42dd8adec8fb156fb37296572d0933a18032baf506ddbd5f596e",
    (Gups, 1, 0): "9a5458407cf540f1f0d111fbaffcb82e29d3366fee38f45dc12d2e71cc3ed4ff",
    (Gups, 1, 5): "fd7a1d51f046bd8192c5f7f1f74b727db7048c30861f0a30eea46d7b0ed26d19",
    (StreamCluster, 0, 0): "f999d258baf858f0980946610f03968797497b46592493da8a0337b906dc4191",
    (StreamCluster, 0, 5): "d491b7f8266bb4c01886d33f820e1a63b90f53e059b35d68989b7eeb017d56f6",
    (StreamCluster, 1, 0): "f3638afcc7326eb1af2ab6ea543e6b48a17275188120873ace6ea1a4df3a7502",
    (StreamCluster, 1, 5): "3049cc0ce927347ebe02c836460a0df25c795cc2cc53cad711b6d35fad2b64f7",
    (Canneal, 0, 0): "9808fea2b8386792c2de438a33502649f575aa5aeb1e47314b5de5f90f8f89c2",
    (Canneal, 0, 5): "c7267759a0a5aea68c48d62cfa201ec3f7d59d268f2276095f5bed10599138e0",
    (Canneal, 1, 0): "1004bab9590ab1ad8047faacce5d003699348055437a9ac356dfc369eb9b49f5",
    (Canneal, 1, 5): "7e86c26e7f0fd06296d3298af8b0fae6aff54aec701bc574f15fd27845bf46f8",
    (ConnectedComponent, 0, 0): "29ee69a02c75280702eb0164048c74d8865bb0f445bb1bb107fb204f8a8014c7",
    (ConnectedComponent, 0, 5): "b0536401ec834f9295aaa5ab4aa9f031168f8d10c20401e449c761e38c10026c",
    (ConnectedComponent, 1, 0): "2c807ea89f8ddeb8a403114f949bd55df5784855a624dbf44e5b3909f44a04f7",
    (ConnectedComponent, 1, 5): "b6c033fe0c6e39eea50eec716c5a1f969189ac2e3aab981e17c24eb6f37b8936",
}


@pytest.mark.parametrize("program, vm, thread", list(STREAM_DIGESTS))
def test_stream_contents_pinned(program, vm, thread):
    stream = program.scaled(0.25).thread_stream(
        thread, 8, derive_stream_seed(0, vm)
    )
    pairs = stream.take(3 * BATCH)
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    assert digest == STREAM_DIGESTS[program, vm, thread]


class TestCcompPhases:
    def test_window_changes_between_phases(self):
        workload = ConnectedComponent(
            region_bytes=1 << 24, window_pages=16,
            process_accesses=100, generate_accesses=10, stray_fraction=0.0,
            root_fraction=0.0,
        )
        accesses = take(workload.thread_stream(0), 2 * (100 + 10))
        first_phase = {a >> 12 for a, _ in accesses[:100]}
        second_phase = {a >> 12 for a, _ in accesses[110:210]}
        assert first_phase != second_phase

    def test_generate_phase_writes(self):
        workload = ConnectedComponent(
            region_bytes=1 << 24, window_pages=16,
            process_accesses=10, generate_accesses=50, stray_fraction=0.0,
            write_fraction=0.0, root_fraction=0.0,
        )
        accesses = take(workload.thread_stream(0), 60)
        assert all(w for _, w in accesses[10:60])


class TestRegistry:
    def test_mix_names_match_paper_order(self):
        assert MIX_NAMES[0] == "canneal"
        assert "graph500_gups" in MIX_NAMES
        assert len(MIX_NAMES) == 10

    def test_single_name_means_two_instances(self):
        workloads = make_mix("gups")
        assert len(workloads) == 2
        assert all(w.name == "gups" for w in workloads)

    def test_hetero_mix(self):
        vm1, vm2 = make_mix("can_ccomp")
        assert vm1.name == "canneal"
        assert vm2.name == "ccomp"

    def test_contexts_replicate_pair(self):
        workloads = make_mix("can_ccomp", contexts=4)
        assert [w.name for w in workloads] == [
            "canneal", "ccomp", "canneal", "ccomp",
        ]

    def test_one_context(self):
        workloads = make_mix("can_ccomp", contexts=1)
        assert [w.name for w in workloads] == ["canneal"]

    def test_scale_passes_through(self):
        small = make_mix("gups", scale=0.25)[0]
        full = make_mix("gups")[0]
        assert small.table_bytes < full.table_bytes

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            make_program("doom")
        with pytest.raises(ValueError):
            make_mix("doom")
        with pytest.raises(ValueError):
            make_mix("gups", contexts=0)

    def test_all_mixes_buildable(self):
        for name in MIXES:
            workloads = make_mix(name, scale=0.25)
            assert len(workloads) == 2

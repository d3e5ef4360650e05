"""The oracles are trusted reference points, so they get their own tests
against tiny hand-enumerable graphs and against each other."""

import errno
import os
import random
import signal
import threading
from collections import Counter
from contextlib import contextmanager, suppress
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagmetrics import (
    DagBuildInput,
    LayerAssignment,
    TooLarge,
    bfs_distances,
    build_dag,
    enumerate_path_lengths,
    gen_layered_dag,
    gen_random_dag,
    layer_traversal,
    oracle_all_paths_equal,
    oracle_diameter,
    oracle_graded,
    oracle_layers,
    oracle_stretch,
)
from dagmetrics import oracle
from dagmetrics.oracle import bfs_diameter
from graphs import (
    analytic_graphs,
    chain,
    corpus_large,
    corpus_small,
    dag_from_edges,
    diamond,
    gap,
    reference_gen_layered_dag,
    reference_gen_random_dag,
    skewed,
)


class CountingRows(list):
    """Adjacency rows that count how often a row is read by index."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def assert_matches_rows_from_bfs_distances(model, size, p, seed):
    """bfs_diameter equals the diameter and smallest witness read off
    per-source bfs_distances rows, with and without keep_rows."""
    if model == "random":
        inp = gen_random_dag(size, p, seed)
    else:
        width = 1 + seed % 3
        inp = gen_layered_dag(max(1, size // width), width, p, seed)
    # one more vertex with no edges, so every graph has an isolated one
    g = build_dag(DagBuildInput(edges=inp.edges, isolated=[*inp.isolated, "lone"]))
    rows = {u: row for u in range(g.n) if (row := bfs_distances(g, u))}
    best = max((d for row in rows.values() for d in row.values()), default=0)
    witness = min(((u, v) for u, row in rows.items() for v, d in row.items() if d == best), default=None)
    assert bfs_diameter(g, keep_rows=True) == (best, witness, rows)
    assert bfs_diameter(g) == (best, witness, None)
    assert not all(g.out_adj) and all(g.out_adj[u] for u in rows)  # no sink has a row


def reversed_chain(n):
    """chain(n) with its edges listed last first, so that for n >= 3 its
    first vertex is interned last: the one longest path starts at n - 1."""
    return dag_from_edges((str(i), str(i + 1)) for i in reversed(range(n - 1)))


@contextmanager
def forced_split(cpus):
    """bfs_diameter deals its sources over cpus processes on every graph,
    whatever its size and whatever CPUs this machine has."""
    with mock.patch.object(oracle, "SPLIT_WORK", 0), mock.patch.object(oracle, "_usable_cpus", lambda: cpus):
        yield


@contextmanager
def counted_forks():
    """Count the calls to os.fork while the context is open."""
    forks = []
    real = os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    with mock.patch.object(os, "fork", fork):
        yield forks


def open_descriptors():
    """How many descriptors this process holds, or None where /proc/self/fd
    does not list them (outside Linux)."""
    with suppress(FileNotFoundError):
        return len(os.listdir("/proc/self/fd"))


def reference_path_lengths(g, u, v):
    """Path lengths u -> v by one exhaustive DFS for this pair alone,
    pruned at v, so it shares no walk with the oracles under test."""
    lengths = Counter()
    stack = [(u, 0)]
    while stack:
        x, depth = stack.pop()
        depth += 1
        for c in g.out_adj[x]:
            if c == v:
                lengths[depth] += 1
            else:
                stack.append((c, depth))
    return lengths


def assert_matches_reference(g):
    """Every pair's multiset, and both oracles, equal reductions over the reference."""
    pairs = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
    reference = {(u, v): reference_path_lengths(g, u, v) for u, v in pairs}
    with mock.patch.object(oracle, "SMALL_GRAPH_BOUND", g.n):
        for (u, v), lengths in reference.items():
            assert enumerate_path_lengths(g, u, v) == lengths, (u, v)
        assert oracle_stretch(g) == max((max(c) for c in reference.values() if c), default=0)
        assert oracle_all_paths_equal(g) == all(len(c) <= 1 for c in reference.values())


class TestEnumeratePathLengths:
    def test_diamond_two_routes(self):
        g = diamond()
        lengths = enumerate_path_lengths(g, 0, 3)
        assert lengths == {2: 2}  # two distinct paths, both of length 2

    def test_skewed_mixed_lengths(self):
        g = skewed()
        lengths = enumerate_path_lengths(g, 0, 2)
        assert lengths == {1: 1, 2: 1}

    def test_no_path(self):
        g = dag_from_edges([("a", "b"), ("c", "d")])
        assert enumerate_path_lengths(g, 0, 2) == {}

    def test_bound_enforced(self):
        g = chain(13)
        with pytest.raises(TooLarge) as exc:
            enumerate_path_lengths(g, 0, 1)
        assert "13" in str(exc.value) and "12" in str(exc.value)

    def test_bound_overridable(self, monkeypatch):
        monkeypatch.setattr(oracle, "SMALL_GRAPH_BOUND", 20)
        lengths = enumerate_path_lengths(chain(13), 0, 12)
        assert lengths == {12: 1}

    def test_bound_read_at_each_call(self, monkeypatch):
        # the bound is the module constant at the time of the call, in the
        # message too: no default froze its value at import
        g = chain(13)
        monkeypatch.setattr(oracle, "SMALL_GRAPH_BOUND", 20)
        assert oracle_stretch(g) == 12
        assert oracle_all_paths_equal(g)
        monkeypatch.setattr(oracle, "SMALL_GRAPH_BOUND", 5)
        for check in (oracle_stretch, oracle_all_paths_equal, lambda g: enumerate_path_lengths(g, 0, 1)):
            with pytest.raises(TooLarge, match="^n=13 exceeds oracle bound 5$"):
                check(g)

    def test_long_chain_within_recursion_limit(self, monkeypatch):
        # one path of 1499 edges, longer than the default recursion limit
        monkeypatch.setattr(oracle, "SMALL_GRAPH_BOUND", 1500)
        assert enumerate_path_lengths(chain(1500), 0, 1499) == Counter({1499: 1})

    def test_every_path_through_shared_vertices(self, monkeypatch):
        # five diamonds in series: each path picks one of two routes per
        # diamond, and the merge vertices lie on many paths
        edges = []
        for k in range(5):
            a, b, c, d = (f"{k}", f"{k}l", f"{k}r", f"{k + 1}")
            edges += [(a, b), (a, c), (b, d), (c, d)]
        g = dag_from_edges(edges)
        monkeypatch.setattr(oracle, "SMALL_GRAPH_BOUND", 16)
        assert enumerate_path_lengths(g, 0, g.index_of["5"]) == {10: 32}


class TestOneWalkPerSource:
    def test_corpus_and_analytic_graphs_match_reference(self):
        for g in list(corpus_small()) + analytic_graphs():
            assert_matches_reference(g)

    @settings(max_examples=80, deadline=None)
    @given(
        model=st.sampled_from(["random", "layered"]),
        size=st.integers(min_value=1, max_value=10),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_generated_graphs_match_reference(self, model, size, p, seed):
        if model == "random":
            inp = gen_random_dag(size, p, seed)
        else:
            width = 1 + seed % 3
            inp = gen_layered_dag(max(1, size // width), width, p, seed)
        assert_matches_reference(build_dag(inp))

    @pytest.mark.parametrize("walk", [oracle_stretch, oracle_all_paths_equal])
    def test_each_source_walked_once(self, walk, monkeypatch):
        # a walk from vertex i of chain(60) follows 60 - i paths and reads
        # one row per path; one walk per ordered pair would read 71 980
        rows = CountingRows(chain(60).out_adj)
        monkeypatch.setattr(oracle, "SMALL_GRAPH_BOUND", 60)
        walk(chain(60)._replace(out_adj=rows))
        assert rows.reads <= 60 * 61 // 2


class TestOracleStretch:
    def test_diamond(self):
        assert oracle_stretch(diamond()) == 2

    def test_chain(self):
        assert oracle_stretch(chain(5)) == 4

    def test_edgeless(self):
        g = build_dag(DagBuildInput(edges=[], isolated=["a", "b"]))
        assert oracle_stretch(g) == 0


class TestOracleDiameter:
    def test_diamond(self):
        assert oracle_diameter(diamond()) == 2

    def test_skewed(self):
        assert oracle_diameter(skewed()) == 1

    def test_edgeless(self):
        g = build_dag(DagBuildInput(edges=[], isolated=["a"]))
        assert oracle_diameter(g) == 0


class TestBfsDiameter:
    def test_diamond(self):
        rows = {0: {1: 1, 2: 1, 3: 2}, 1: {3: 1}, 2: {3: 1}}
        assert bfs_diameter(diamond(), keep_rows=True) == (2, (0, 3), rows)
        assert bfs_diameter(diamond()) == (2, (0, 3), None)

    def test_witness_is_lexicographically_smallest(self):
        # (c, d) is as far apart as (a, b), which sorts first
        assert bfs_diameter(dag_from_edges([("a", "b"), ("c", "d")])) == (1, (0, 1), None)
        # from 0, both 1 and 2 are at distance 1 on the skewed graph
        assert bfs_diameter(skewed()) == (1, (0, 1), None)

    def test_edgeless(self):
        g = build_dag(DagBuildInput(edges=[], isolated=["a"]))
        assert bfs_diameter(g, keep_rows=True) == (0, None, {})

    def test_each_source_walked_once(self):
        # the BFS from vertex i of chain(60) reads the rows of the 60 - i
        # vertices it visits, and picking the witness reads none
        rows = CountingRows(chain(60).out_adj)
        assert bfs_diameter(chain(60)._replace(out_adj=rows)) == (59, (0, 59), None)
        assert rows.reads <= 60 * 61 // 2

    @settings(max_examples=80, deadline=None)
    @given(
        model=st.sampled_from(["random", "layered"]),
        size=st.integers(min_value=1, max_value=30),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_matches_rows_from_bfs_distances(self, model, size, p, seed):
        assert_matches_rows_from_bfs_distances(model, size, p, seed)

    @pytest.mark.parametrize("cpus", [2, 3])
    @settings(max_examples=80, deadline=None)
    @given(
        model=st.sampled_from(["random", "layered"]),
        size=st.integers(min_value=1, max_value=30),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_split_matches_rows_from_bfs_distances(self, cpus, model, size, p, seed):
        # the same graphs with the sources dealt over cpus processes: the
        # merge of the shares' answers must be the one-process answer
        with forced_split(cpus):
            assert_matches_rows_from_bfs_distances(model, size, p, seed)

    def test_bound_enforced(self, monkeypatch):
        # the diamond's n*(n+m) is 4*8 = 32
        monkeypatch.setattr(oracle, "BFS_WORK_BOUND", 31)
        for run in (bfs_diameter, oracle_diameter):
            with pytest.raises(TooLarge) as exc:
                run(diamond())
            assert str(exc.value) == "n*(n+m)=32 exceeds oracle bound 31"
        monkeypatch.setattr(oracle, "BFS_WORK_BOUND", 32)
        assert oracle_diameter(diamond()) == 2


class TestSplitBfsDiameter:
    def test_no_child_outlives_the_call(self):
        g = build_dag(gen_random_dag(40, 0.2, 1))
        with forced_split(3), counted_forks() as forks:
            assert bfs_diameter(g) == bfs_diameter(g, keep_rows=True)[:2] + (None,)
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_child_share_walked_again(self):
        parent = os.getpid()
        real = oracle._farthest

        def fails_in_child(g, sources, rows=None):
            if os.getpid() != parent:
                raise RuntimeError("child failed")
            return real(g, sources, rows)

        # the longest paths start at 3, 4 and 5: in this process's share and in each child's
        for g in [*map(reversed_chain, (4, 5, 6)), build_dag(gen_random_dag(40, 0.2, 1))]:
            expected = bfs_diameter(g)
            with forced_split(3), mock.patch.object(oracle, "_farthest", fails_in_child):
                assert bfs_diameter(g) == expected
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_killed_child_share_walked_again(self):
        parent = os.getpid()
        real_slot, real_farthest = oracle._SLOT, oracle._farthest
        walked_here = []

        class KilledAfterPacking:
            size = real_slot.size
            unpack_from = real_slot.unpack_from

            def pack_into(self, *args):
                real_slot.pack_into(*args)
                os.kill(os.getpid(), signal.SIGKILL)

        def farthest(g, sources, rows=None):
            if os.getpid() == parent:
                walked_here.append(sources)
            return real_farthest(g, sources, rows)

        # the longest paths start at 3, 4 and 5: in this process's share and in each child's
        for g in [*map(reversed_chain, (4, 5, 6)), build_dag(gen_random_dag(40, 0.2, 1))]:
            expected = bfs_diameter(g)
            walked_here.clear()
            with forced_split(3), mock.patch.object(oracle, "_SLOT", KilledAfterPacking()), \
                    mock.patch.object(oracle, "_farthest", farthest):
                assert bfs_diameter(g) == expected
            # share 0, then each killed child's share once more
            assert walked_here == [range(k, g.n, 3) for k in range(3)]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fails", ["mapping", "fork", "second fork"])
    def test_share_walked_here_when_mapping_or_fork_fails(self, monkeypatch, fails):
        # a mapping or fork refused by the system (ENOMEM, EAGAIN) costs a
        # child, not the answer; "second fork" mixes a child with a refusal
        real_mmap, real_fork = oracle.mmap, os.fork
        forks = []

        def mmap(*args):
            if fails == "mapping":
                raise OSError(errno.ENOMEM, "Cannot allocate memory")
            return real_mmap(*args)

        def fork():
            forks.append(None)
            if fails == "fork" or len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return real_fork()

        descriptors = open_descriptors()
        # the longest paths start at 3, 4 and 5: in this process's share and in each other one
        for g in [*map(reversed_chain, (4, 5, 6)), build_dag(gen_random_dag(40, 0.2, 1))]:
            expected = bfs_diameter(g)
            forks.clear()
            with forced_split(3), monkeypatch.context() as patch:
                patch.setattr(oracle, "mmap", mmap)
                patch.setattr(os, "fork", fork)
                assert bfs_diameter(g) == expected
            assert len(forks) == {"mapping": 0, "fork": 2, "second fork": 2}[fails]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_descriptors() == descriptors

    def test_children_reaped_when_this_process_fails(self):
        parent = os.getpid()
        real = oracle._farthest

        def fails_here(g, sources, rows=None):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(g, sources, rows)

        with forced_split(3), mock.patch.object(oracle, "_farthest", fails_here):
            with pytest.raises(KeyboardInterrupt):
                bfs_diameter(chain(300))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_every_share_is_walked(self, cpus):
        # each n puts the source of the one longest path, n - 1, in another share
        for n in range(3, 3 + cpus):
            g = reversed_chain(n)
            assert g.index_of["0"] == n - 1
            with forced_split(cpus):
                assert bfs_diameter(g) == (n - 1, (n - 1, g.index_of[str(n - 1)]), None)

    def test_rows_and_small_graphs_stay_in_one_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        def no_mapping(*args):
            raise AssertionError("mapped a slot block")

        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(oracle, "mmap", no_mapping)
        # n*(n+m) is at most 12*(12+66) = 936 with 12 vertices, far under SPLIT_WORK
        complete = build_dag(gen_random_dag(12, 1.0, 0))
        for g in [*corpus_small(), *analytic_graphs(), complete]:
            assert g.n <= 12
            bfs_diameter(g)
        # --all-pairs --verify keeps its rows, which stay in this process
        long_chain = chain(1000)
        assert long_chain.n * (long_chain.n + long_chain.m) >= oracle.SPLIT_WORK
        assert bfs_diameter(long_chain, keep_rows=True)[:2] == (999, (0, 999))
        # with one usable CPU nothing forks, so no slot block is made either
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
        assert bfs_diameter(long_chain) == (999, (0, 999), None)

    def test_splits_from_split_work_on(self, monkeypatch):
        # the 1000-vertex chain, n*(n+m) = 1 999 000, is over the threshold
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
        with counted_forks() as forks:
            assert bfs_diameter(chain(1000)) == (999, (0, 999), None)
        assert len(forks) == 1

    @pytest.mark.skipif(
        not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
        reason="no fork or affinity call on this platform",
    )
    def test_every_usable_cpu_with_one_thread(self):
        assert threading.active_count() == 1
        assert oracle._usable_cpus() == len(os.sched_getaffinity(0))

    def test_one_process_while_another_thread_runs(self):
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert oracle._usable_cpus() == 1
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


class TestOracleLayers:
    def test_diamond(self):
        assert oracle_layers(diamond()) == LayerAssignment(layer=[0, 1, 1, 2], component_of=[0, 0, 0, 0])

    def test_components_numbered_by_smallest_vertex(self):
        # a b x y c z: {a, b, c}, {x, y} and {z}, each with floor 0
        g = dag_from_edges([("a", "b"), ("x", "y"), ("c", "b")], isolated=["z"])
        assert oracle_layers(g) == LayerAssignment(
            layer=[0, 1, 0, 1, 0, 0], component_of=[0, 0, 1, 1, 0, 2]
        )

    def test_unbalanced_is_none(self):
        for g in (skewed(), gap()):
            assert oracle_layers(g) is None

    def test_no_vertices_has_no_components(self):
        out = oracle_layers(build_dag(DagBuildInput(edges=[], isolated=[])))
        assert out == LayerAssignment(layer=[], component_of=[])
        assert out.components == 0

    def test_matches_layer_traversal(self):
        layered = [
            build_dag(gen_layered_dag(layers, width, p, seed))
            for seed, (layers, width, p) in enumerate([(2, 3, 0.5), (4, 3, 0.3), (6, 2, 0.7), (9, 1, 1.0)])
        ]
        for g in list(corpus_small()) + list(corpus_large()) + analytic_graphs() + layered:
            out, _ = layer_traversal(g)
            assert oracle_layers(g) == (out if isinstance(out, LayerAssignment) else None)


class TestOracleGraded:
    def test_diamond(self):
        assert oracle_graded(diamond())

    def test_skewed(self):
        assert not oracle_graded(skewed())

    def test_gap_graph(self):
        assert not oracle_graded(gap())

    def test_gap_graph_paths_still_equal(self):
        assert oracle_all_paths_equal(gap())

    def test_cross_component_constraints_independent(self):
        # one balanced and one unbalanced component: verdict is the conjunction
        g = dag_from_edges([("a", "b"), ("x", "y"), ("y", "z"), ("x", "z")])
        assert not oracle_graded(g)

    def test_long_even_odd_conflict(self):
        # two routes of lengths 2 and 4 between the same endpoints
        g = dag_from_edges(
            [("s", "a"), ("a", "t"), ("s", "b"), ("b", "c"), ("c", "d"), ("d", "t")]
        )
        assert not oracle_graded(g)
        assert not oracle_all_paths_equal(g)


class TestGenerators:
    def test_random_dag_deterministic(self):
        a = gen_random_dag(8, 0.4, seed=5)
        b = gen_random_dag(8, 0.4, seed=5)
        assert a == b

    def test_random_dag_seed_sensitivity(self):
        assert gen_random_dag(8, 0.4, seed=5) != gen_random_dag(8, 0.4, seed=6)

    def test_random_dag_all_vertices_present(self):
        inp = gen_random_dag(10, 0.1, seed=2)
        seen = {v for e in inp.edges for v in e} | set(inp.isolated)
        assert seen == {str(i) for i in range(10)}

    def test_random_dag_acyclic(self):
        for seed in range(20):
            g = build_dag(gen_random_dag(9, 0.5, seed))
            assert len(g.topo) == 9

    def test_random_dag_p_zero_is_edgeless(self):
        inp = gen_random_dag(5, 0.0, seed=1)
        assert inp.edges == []
        assert sorted(inp.isolated) == sorted(str(i) for i in range(5))

    def test_random_dag_p_one_is_complete(self):
        inp = gen_random_dag(5, 1.0, seed=1)
        assert len(inp.edges) == 10  # n*(n-1)/2

    def test_layered_deterministic(self):
        assert gen_layered_dag(4, 3, 0.3, seed=9) == gen_layered_dag(4, 3, 0.3, seed=9)

    def test_layered_connectivity_forced(self):
        # even at p=0 every layer-k vertex keeps one edge in and one out,
        # so the sources are exactly the first layer and the sinks the last
        inp = gen_layered_dag(5, 3, 0.0, seed=3)
        g = build_dag(inp)
        assert g.n == 15
        assert {g.labels[v] for v in range(g.n) if not g.in_adj[v]} == {"0", "1", "2"}
        assert {g.labels[v] for v in range(g.n) if not g.out_adj[v]} == {"12", "13", "14"}

    def test_layered_always_balanced(self):
        for seed in range(15):
            g = build_dag(gen_layered_dag(4, 4, 0.4, seed))
            assert oracle_graded(g)

    def test_layered_single_layer_is_isolated(self):
        inp = gen_layered_dag(1, 4, 1.0, seed=0)
        assert inp.edges == []
        assert len(inp.isolated) == 4

    # p in {0, 1, above 1} or anywhere in [0, 1]; edges and isolated compared in order
    COIN = st.one_of(st.sampled_from([0.0, 1.0, 1.5]), st.floats(min_value=0.0, max_value=1.0))

    @settings(max_examples=300, deadline=None)
    @given(
        layers=st.integers(min_value=0, max_value=30),
        width=st.integers(min_value=0, max_value=8),
        p=COIN,
        seed=st.integers(),
    )
    def test_layered_matches_reference(self, layers, width, p, seed):
        assert gen_layered_dag(layers, width, p, seed) == reference_gen_layered_dag(layers, width, p, seed)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(min_value=0, max_value=40), p=COIN, seed=st.integers())
    def test_random_dag_matches_reference(self, n, p, seed):
        assert gen_random_dag(n, p, seed) == reference_gen_random_dag(n, p, seed)

    @pytest.mark.parametrize(
        "args",
        [(50001, 2, 1.0, 7), (100000, 1, 1.0, 8), (1000, 1, 1.0, 8), (2000, 10, 0.3, 3)],
        ids=["deep-grid", "deep-chain", "deep-chain1k", "width-10-p-0.3"],
    )
    def test_layered_matches_reference_at_scale(self, args):
        assert gen_layered_dag(*args) == reference_gen_layered_dag(*args)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_layered_p_one_draws_no_coin(self, p):
        # every pair is kept, so the grid is built without a random draw
        layers, width = 40, 3
        grid = [
            (str(a), str(b))
            for k in range(layers - 1)
            for a in range(k * width, (k + 1) * width)
            for b in range((k + 1) * width, (k + 2) * width)
        ]
        with mock.patch.object(random.Random, "random", side_effect=AssertionError("coin drawn")), \
                mock.patch.object(random.Random, "randrange", side_effect=AssertionError("vertex drawn")):
            for seed in range(3):
                assert gen_layered_dag(layers, width, p, seed) == DagBuildInput(edges=grid, isolated=[])

    @pytest.mark.parametrize(
        "layers, width",
        [(0, 0), (0, 3), (3, 0), (-2, 0), (-1, 3), (-4, 2), (3, -1), (2, -5)],
    )
    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_layered_empty_sizes_give_empty_graph(self, layers, width, p):
        assert gen_layered_dag(layers, width, p, seed=1) == DagBuildInput(edges=[], isolated=[])

    @pytest.mark.parametrize("layers, width", [(-1, -1), (-3, -2), (0, -1), (0, -4)])
    def test_layered_negative_width_without_layers_raises(self, layers, width):
        with pytest.raises(ValueError):
            gen_layered_dag(layers, width, 0.5, seed=1)

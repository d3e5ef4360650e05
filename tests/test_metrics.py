import dataclasses
import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagmetrics import (
    DagBuildInput,
    DiameterResult,
    EmptyGraph,
    InstrumentationCounters,
    LayerAssignment,
    all_pairs_distances,
    bfs_distances,
    build_dag,
    diameter,
    gen_layered_dag,
    gen_random_dag,
    layer_pq,
    layer_traversal,
    metrics,
    oracle_diameter,
    oracle_stretch,
    read_dag,
    stretch,
)
from dagmetrics.metrics import (
    _diameter_by_rounds,
    _diameter_from_rows,
    _longest_paths,
)
from graphs import (
    SKEWED,
    analytic_graphs,
    chain,
    corpus_large,
    corpus_small,
    dag_from_edges,
    diamond,
    reference_diameter_by_rounds,
    skewed,
)


def random_dag(n, p, seed):
    return build_dag(gen_random_dag(n, p, seed))


def bfs_engine_counters(g, *sources):
    """The counters of the BFS engine from sources: the longest-path pass
    plus one full BFS from each, its reach read off the oracle's
    distances."""
    reached = [v for u in sources for v in (u, *bfs_distances(g, u))]
    return InstrumentationCounters(
        vertex_evaluations=g.n + len(reached),
        edge_examinations=g.m + sum(len(g.out_adj[v]) for v in reached),
        distance_updates=len(reached) - len(sources),
    )


def no_sweep_nor_rounds(monkeypatch):
    """Make the all-pairs sweep and the reach rounds fail if diameter
    runs either. Only the names in ``metrics`` are patched, so the
    sweep imported from the package here stays the real one."""

    def no_engine(g):
        raise AssertionError("sweep or rounds run")

    monkeypatch.setattr("dagmetrics.metrics.all_pairs_distances", no_engine)
    monkeypatch.setattr("dagmetrics.metrics._diameter_by_rounds", no_engine)


class TestStretch:
    def test_diamond(self):
        res, counters = stretch(diamond())
        assert res.stretch == 2
        assert res.lp == [2, 1, 1, 0]
        assert res.witness_source == 0
        assert counters.vertex_evaluations == 4
        assert counters.edge_examinations == 4

    def test_skewed(self):
        res, _ = stretch(skewed())
        assert res.stretch == 2
        assert res.lp == [2, 1, 0]

    def test_chain(self):
        res, _ = stretch(chain(6))
        assert res.stretch == 5
        assert res.lp == [5, 4, 3, 2, 1, 0]

    def test_single_vertex(self):
        g = build_dag(DagBuildInput(edges=[], isolated=["v"]))
        res, counters = stretch(g)
        assert res.stretch == 0
        assert res.witness_source == 0
        assert counters.vertex_evaluations == 1
        assert counters.edge_examinations == 0

    def test_empty_graph_raises(self):
        g = build_dag(DagBuildInput(edges=[], isolated=[]))
        with pytest.raises(EmptyGraph):
            stretch(g)

    def test_witness_is_smallest_index(self):
        # both b and a start a longest path of length 1; a has index 1
        g = dag_from_edges([("b", "x"), ("a", "y")])
        res, _ = stretch(g)
        assert res.lp[res.witness_source] == res.stretch
        assert res.witness_source == 0  # 'b' appeared first

    def test_max_over_sources_is_global_max(self):
        # longest paths can only extend backwards to a source, so the
        # maximum over sources already equals the maximum over all vertices
        for seed in range(30):
            g = random_dag(8, 0.3, seed)
            res, _ = stretch(g)
            assert max(res.lp[s] for s in range(g.n) if not g.in_adj[s]) == res.stretch

    def test_matches_oracle(self):
        for seed in range(40):
            g = random_dag(7, 0.35, seed)
            res, _ = stretch(g)
            assert res.stretch == oracle_stretch(g)

    def test_counters_exact(self):
        for seed in range(20):
            g = random_dag(9, 0.25, seed + 100)
            _, counters = stretch(g)
            assert counters.vertex_evaluations == g.n
            assert counters.edge_examinations == g.m
            assert counters.distance_updates == 0


class TestAllPairsDistances:
    def test_diamond(self):
        rows, counters = all_pairs_distances(diamond())
        assert {u: dict(r) for u, r in rows.items()} == {
            0: {1: 1, 2: 1, 3: 2},
            1: {3: 1},
            2: {3: 1},
        }
        assert counters.distance_updates == 6
        assert counters.vertex_evaluations == 4
        assert counters.edge_examinations == 4

    def test_skewed_shortcut_wins(self):
        rows, _ = all_pairs_distances(skewed())
        assert rows[0][2] == 1  # direct 0->3 beats 0->1->3

    def test_sinks_have_no_row(self):
        rows, _ = all_pairs_distances(diamond())
        assert 3 not in rows

    def test_unreachable_pairs_absent(self):
        g = dag_from_edges([("a", "b"), ("c", "d")])
        rows, _ = all_pairs_distances(g)
        assert 2 not in rows[0] and 3 not in rows[0]

    def test_agrees_with_bfs(self):
        for seed in range(30):
            g = random_dag(8, 0.3, seed + 500)
            rows, _ = all_pairs_distances(g)
            for u in range(g.n):
                assert rows.get(u, {}) == bfs_distances(g, u)

    def test_update_budget(self):
        for seed in range(20):
            g = random_dag(10, 0.4, seed + 900)
            _, counters = all_pairs_distances(g)
            assert counters.distance_updates <= g.m * g.n


class TestDiameter:
    def test_diamond(self):
        res, _ = diameter(diamond())
        assert res.diameter == 2
        assert res.witness == (0, 3)

    def test_skewed_below_stretch(self):
        dres, _ = diameter(skewed())
        sres, _ = stretch(skewed())
        assert dres.diameter == 1 < sres.stretch == 2

    def test_no_edges(self):
        g = build_dag(DagBuildInput(edges=[], isolated=["a", "b"]))
        res, _ = diameter(g)
        assert res.diameter == 0
        assert res.witness is None

    def test_witness_lexicographically_smallest(self):
        # two pairs realize diameter 1; (0,1) sorts before (2,3)
        g = dag_from_edges([("a", "b"), ("c", "d")])
        res, _ = diameter(g)
        assert res.witness == (0, 1)

    def test_witness_distance_is_diameter(self):
        for seed in range(25):
            g = random_dag(9, 0.3, seed + 300)
            res, _ = diameter(g)
            if res.witness is None:
                assert res.diameter == 0
                continue
            u, v = res.witness
            assert bfs_distances(g, u)[v] == res.diameter

    def test_matches_oracle(self):
        for seed in range(40):
            g = random_dag(7, 0.35, seed + 700)
            res, _ = diameter(g)
            assert res.diameter == oracle_diameter(g)


class TestDiameterEngines:
    def test_engines_agree_with_oracle(self):
        for g in list(corpus_small()) + list(corpus_large()) + analytic_graphs():
            by_all_pairs = _diameter_from_rows(all_pairs_distances(g)[0])
            by_rounds, _ = _diameter_by_rounds(g)
            assert by_rounds == by_all_pairs
            assert by_rounds.diameter == oracle_diameter(g)
            assert diameter(g)[0] == by_all_pairs  # whichever engine it takes

    def test_rounds_counters(self):
        # diameter 2: three rounds, the last one changing nothing; five
        # reachable pairs, each distance set once
        res, counters = _diameter_by_rounds(diamond())
        assert res.diameter == 2 and res.witness == (0, 3)
        assert counters.vertex_evaluations == 3 * 4
        assert counters.edge_examinations == 3 * 4
        assert counters.distance_updates == 5

    def test_engine_inputs(self, monkeypatch):
        # the pass gives stretch's lp, and diameter never runs the sweep;
        # chain(n) has stretch n-1 and needs no rounds either: one BFS
        def no_sweep(g):
            raise AssertionError("sweep run")

        monkeypatch.setattr("dagmetrics.metrics.all_pairs_distances", no_sweep)
        for g in list(corpus_small()) + analytic_graphs():
            lp, _, _ = _longest_paths(g)
            assert lp == stretch(g)[0].lp
            assert diameter(g)[0] == _diameter_from_rows(all_pairs_distances(g)[0])
        no_sweep_nor_rounds(monkeypatch)
        g = chain(1000)
        lp, _, _ = _longest_paths(g)
        assert max(lp) == 999
        res, counters = diameter(g)
        assert res.diameter == 999 and counters == bfs_engine_counters(g, 0)

    def test_skip_chain_takes_bfs_engine(self, monkeypatch):
        # the skip edge 0 -> 2 unbalances the chain, so the BFS from 0
        # reaches only 998 < 999; vertex 1 (lp 998 = best, 1 > 0) stops
        # the search, so the pass and that one BFS answer it
        no_sweep_nor_rounds(monkeypatch)
        g = dag_from_edges([(str(i), str(i + 1)) for i in range(999)] + [("0", "2")])
        res, counters = diameter(g)
        assert res.diameter == 998 and res.witness == (0, 999)
        assert counters == bfs_engine_counters(g, 0)

    def test_dense_random_takes_rounds(self, monkeypatch):
        def no_sweep(g):
            raise AssertionError("sweep run")

        monkeypatch.setattr("dagmetrics.metrics.all_pairs_distances", no_sweep)
        g = random_dag(1200, 0.025, 1)
        res, counters = diameter(g)
        assert res == _diameter_from_rows(all_pairs_distances(g)[0])
        assert counters.edge_examinations == (res.diameter + 1) * g.m

    def test_large_sparse_stretch_one_takes_bfs(self, monkeypatch):
        # stretch 1 and |E| reachable pairs: the rounds would hold |V|^2
        # bits, and the one BFS from the first edge's tail answers it
        no_sweep_nor_rounds(monkeypatch)
        g = dag_from_edges((f"a{i}", f"b{i}") for i in range(20000))
        lp, _, _ = _longest_paths(g)
        assert max(lp) == 1
        res, counters = diameter(g)
        assert res.diameter == 1 and res.witness == (0, 1)
        assert counters == InstrumentationCounters(
            vertex_evaluations=g.n + 2, edge_examinations=g.m + 1, distance_updates=1
        )

    def test_unbalanced_grid_takes_two_bfs(self, monkeypatch):
        # the edge 0 -> 4 skips a layer, so the BFS from 0 reaches only
        # 19999; vertex 1 also has lp 20000 and reaches 20000, and every
        # later vertex has lp below that
        no_sweep_nor_rounds(monkeypatch)
        inp = gen_layered_dag(20001, 2, 1.0, seed=7)
        g = build_dag(DagBuildInput(edges=[*inp.edges, ("0", "4")], isolated=inp.isolated))
        res, counters = diameter(g)
        assert res.diameter == 20000
        assert [g.labels[v] for v in res.witness] == ["1", "40000"]
        assert counters == bfs_engine_counters(g, g.index_of["0"], g.index_of["1"])

    def test_disjoint_skewed_copies_take_bfs_engine(self, monkeypatch):
        # 4000 of the 6000 vertices have lp >= 1, far more than the
        # stretch, but each BFS visits three vertices and scans three
        # edges, so the engine beats the rounds: 2000 BFS, one from each
        # vertex with lp 2, and the first vertex with lp 1 stops it
        g = dag_from_edges((f"{a}_{k}", f"{b}_{k}") for k in range(2000) for a, b in SKEWED)
        no_sweep_nor_rounds(monkeypatch)
        res, counters = diameter(g)
        assert res == _diameter_from_rows(all_pairs_distances(g)[0]) == DiameterResult(1, (0, 1))
        assert counters == bfs_engine_counters(g, *(3 * k for k in range(2000)))

    def test_overlapping_runs_take_bfs_engine(self, monkeypatch):
        # a, b and c each lead into the chain c0 -> ... -> c30, so lp = 31,
        # but each also skips to c2, so each reaches only 29; c0 (lp 30)
        # then reaches 30, and c1 (lp 29) stops the search. All four BFS
        # reach the chain, so a mark left by one run would cut the next short
        chain_edges = [(f"c{i}", f"c{i + 1}") for i in range(30)]
        g = dag_from_edges([(s, t) for s in "abc" for t in ("c0", "c2")] + chain_edges)
        no_sweep_nor_rounds(monkeypatch)
        res, counters = diameter(g)
        assert res == _diameter_from_rows(all_pairs_distances(g)[0])
        assert [g.labels[v] for v in res.witness] == ["c0", "c30"]
        runs = [g.index_of[s] for s in ("a", "b", "c", "c0")]
        assert counters == bfs_engine_counters(g, *runs)

    def test_balanced_grid_at_paper_scale(self):
        # 10^6 vertices: the sweep would store about n^2/4 distances
        g = build_dag(gen_layered_dag(500_001, 2, 1.0, seed=7))
        res, counters = diameter(g)
        assert res.diameter == 500_000
        assert [g.labels[v] for v in res.witness] == ["0", "1000000"]
        # the BFS from vertex 0 reaches it and both vertices of every
        # later layer, and scans the two out-edges of each but the last
        reached = 1 + 2 * 500_000
        assert counters == InstrumentationCounters(
            vertex_evaluations=g.n + reached,
            edge_examinations=g.m + 2 * (reached - 2),
            distance_updates=reached - 1,
        )

    def test_rule_weighed_only_after_a_miss(self, monkeypatch):
        # the engine and the rounds are weighed only where the first BFS
        # falls short of the stretch, once
        no_sweep_nor_rounds(monkeypatch)

        def no_rule(*args):
            raise AssertionError("rounds weighed")

        monkeypatch.setattr("dagmetrics.metrics._rounds_pay_off", no_rule)
        for g in (build_dag(gen_layered_dag(40, 3, 1.0, seed=7)), chain(1000)):
            res, counters = diameter(g)
            assert counters == bfs_engine_counters(g, res.witness[0])
        calls = []

        def counted(*args):
            calls.append(args)
            return False

        monkeypatch.setattr("dagmetrics.metrics._rounds_pay_off", counted)
        skip = dag_from_edges([(str(i), str(i + 1)) for i in range(999)] + [("0", "2")])
        for g in (skewed(), skip):
            calls.clear()
            diameter(g)
            assert len(calls) == 1

    def test_disjoint_edges_take_neither_sweep_nor_rounds(self, monkeypatch):
        # stretch 1: the first edge is a pair at distance 1, and no pair
        # is farther apart, so neither engine that holds rows runs
        no_sweep_nor_rounds(monkeypatch)
        g = dag_from_edges((f"a{i}", f"b{i}") for i in range(10**5))
        res, counters = diameter(g)
        assert res.diameter == 1
        assert [g.labels[v] for v in res.witness] == ["a0", "b0"]
        assert counters == InstrumentationCounters(
            vertex_evaluations=g.n + 2, edge_examinations=g.m + 1, distance_updates=1
        )

    def test_empty_graph_skips_stretch(self, monkeypatch):
        # stretch raises EmptyGraph on n = 0, so the longest-path pass
        # must not run there; a graph without edges needs no engine
        def no_pass(g):
            raise AssertionError("longest-path pass run")

        no_sweep_nor_rounds(monkeypatch)
        monkeypatch.setattr("dagmetrics.metrics.stretch", no_pass)
        monkeypatch.setattr("dagmetrics.metrics._longest_paths", no_pass)
        for isolated in ([], ["a", "b"]):
            res, _ = diameter(build_dag(DagBuildInput(edges=[], isolated=isolated)))
            assert res.diameter == 0
            assert res.witness is None


@pytest.mark.parametrize(
    "analysis, share", [(stretch, 0.25), (diameter, 0.35), (layer_traversal, 0.35)]
)
def test_analysis_peak_memory_within_budget(analysis, share):
    # An analysis may hold its per-vertex lists beside the Dag, and
    # release what it is done with before its next pass: diameter keeps
    # the longest-path list, which orders its BFS sources, and one mark
    # per vertex.
    # Counted in bytes above the built Dag, as a share of the Dag's bytes.
    text = "".join(f"{a} {b}\n" for a, b in gen_layered_dag(10001, 2, 1.0, seed=7).edges)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = read_dag(text)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        analysis(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert g.n == 20002 and g.m == 40000
    assert peak - held <= share * (held - base)


def test_rounds_peak_memory_one_reach_list():
    # the rounds update one list of reach sets in place: on wide's
    # seed-1 graph they peak near one list of |V| full-width sets
    # (measured 1.03x; three lists peaked at 3.05x)
    g = random_dag(1200, 0.025, 1)
    one_list = g.n * sys.getsizeof(1 << (g.n - 1))
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        res, _ = _diameter_by_rounds(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert res.diameter == 11
    assert peak - held <= 1.5 * one_list


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=40),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_diameter_engines_agree(n, p, seed):
    g = random_dag(n, p, seed)
    by_all_pairs = _diameter_from_rows(all_pairs_distances(g)[0])
    by_rounds, _ = _diameter_by_rounds(g)
    assert by_rounds == by_all_pairs
    assert by_rounds.diameter == oracle_diameter(g)
    assert diameter(g)[0] == by_all_pairs


@settings(max_examples=100, deadline=None)
@given(
    layers=st.integers(min_value=1, max_value=8),
    width=st.integers(min_value=1, max_value=5),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_balanced_engine_matches_sweep(layers, width, p, seed):
    g = build_dag(gen_layered_dag(layers, width, p, seed))
    res, counters = diameter(g)
    assert res == _diameter_from_rows(all_pairs_distances(g)[0])
    if g.m:
        # layered graphs are balanced, so stretch = diameter and the BFS
        # from the stretch witness ran: the pass plus that BFS
        assert counters == bfs_engine_counters(g, res.witness[0])


def with_skips(layers, width, p, seed):
    """A layered graph plus up to three random forward edges, each
    skipping at least one layer (vertex k·width + i is in layer k)."""
    inp = gen_layered_dag(layers, width, p, seed)
    rng = random.Random(seed)
    n = layers * width
    edges = list(inp.edges)
    for _ in range(3 if layers >= 3 else 0):
        a = rng.randrange(n - 2 * width)
        edge = (str(a), str(rng.randrange((a // width + 2) * width, n)))
        if edge not in edges:
            edges.append(edge)
    return build_dag(DagBuildInput(edges=edges, isolated=inp.isolated))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["random", "layered", "skips"]),
    size=st.integers(min_value=1, max_value=12),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_bfs_engine_exact_where_it_answers(kind, size, p, seed):
    # random DAGs, layered graphs (size layers of width 2) and layered
    # graphs with skip edges; where the BFS from the stretch witness u0
    # reaches the stretch, it alone answers
    if kind == "random":
        g = random_dag(2 * size, p, seed)
    elif kind == "layered":
        g = build_dag(gen_layered_dag(size, 2, p, seed))
    else:
        g = with_skips(size, 2, p, seed)
    res, counters = diameter(g)
    assert res == _diameter_from_rows(all_pairs_distances(g)[0])
    if g.m:
        lp, _, _ = _longest_paths(g)
        if res.diameter == max(lp) and res.witness[0] == lp.index(res.diameter):
            assert counters == bfs_engine_counters(g, res.witness[0])
        else:
            assert kind != "layered"


def drawn_dag(kind, size, p, seed):
    """A random DAG on 3·size vertices, or size+1 layers of width 3 as
    drawn ("layered") or with skip edges ("skips")."""
    if kind == "random":
        return random_dag(3 * size, p, seed)
    if kind == "layered":
        return build_dag(gen_layered_dag(size + 1, 3, p, seed))
    return with_skips(size + 1, 3, p, seed)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["random", "layered", "skips"]),
    size=st.integers(min_value=0, max_value=12),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_rounds_match_three_list_reference(kind, size, p, seed):
    # result and all three counters, under the Dag's topological order
    # and a random one, since the rounds walk g.topo
    g = drawn_dag(kind, size, p, seed)
    expected = reference_diameter_by_rounds(g)
    assert _diameter_by_rounds(g) == expected
    assert _diameter_by_rounds(with_random_topo(g, seed)) == expected


def with_random_topo(g, seed):
    """g with its topological order swapped for a seeded random one:
    Kahn's algorithm taking a random ready vertex each step, which can
    give every topological order."""
    rng = random.Random(seed)
    indeg = [len(preds) for preds in g.in_adj]
    ready = [v for v in range(g.n) if not indeg[v]]
    order = []
    while ready:
        u = ready.pop(rng.randrange(len(ready)))
        order.append(u)
        for v in g.out_adj[u]:
            indeg[v] -= 1
            if not indeg[v]:
                ready.append(v)
    return dataclasses.replace(g, topo=order)


def reversed_dag(g):
    """g with every edge flipped, over the same labels."""
    edges = [(g.labels[v], g.labels[u]) for u in range(g.n) for v in g.out_adj[u]]
    isolated = [g.labels[v] for v in range(g.n) if not g.out_adj[v] and not g.in_adj[v]]
    return dag_from_edges(edges, isolated)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["random", "layered", "skips"]),
    size=st.integers(min_value=1, max_value=12),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_reversing_every_edge_keeps_every_answer(kind, size, p, seed):
    # a metamorphic relation: it needs no oracle's answer, only the
    # oracle's distance to place the reversed witness in g
    g = drawn_dag(kind, size, p, seed)
    r = reversed_dag(g)
    assert stretch(r)[0].stretch == stretch(g)[0].stretch
    for rounds in (True, False):
        with mock.patch.object(metrics, "_rounds_pay_off", lambda *args: rounds):
            d = diameter(g)[0].diameter
            rres = diameter(r)[0]
        assert rres.diameter == d
        if d:
            a, b = (g.index_of[r.labels[v]] for v in rres.witness)
            assert bfs_distances(g, b)[a] == d
        else:
            assert rres.witness is None
    balanced = [isinstance(algo(h)[0], LayerAssignment) for algo in (layer_traversal, layer_pq) for h in (g, r)]
    assert len(set(balanced)) == 1


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    p=st.floats(min_value=0.0, max_value=1.0),
    layered=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_results_independent_of_topological_order(n, p, layered, seed):
    # layered graphs are balanced, so the BFS from the stretch witness
    # answers them
    g = build_dag(gen_layered_dag(n, 2, p, seed)) if layered else random_dag(n, p, seed)
    h = with_random_topo(g, seed)
    for analysis in (stretch, diameter, all_pairs_distances, _diameter_by_rounds):
        assert analysis(h) == analysis(g)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    p=st.floats(min_value=0.0, max_value=0.9),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_diameter_never_exceeds_stretch(n, p, seed):
    g = random_dag(n, p, seed)
    dres, _ = diameter(g)
    sres, _ = stretch(g)
    assert dres.diameter <= sres.stretch


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    p=st.floats(min_value=0.0, max_value=0.9),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_stretch_agrees_with_exhaustive_enumeration(n, p, seed):
    g = random_dag(n, p, seed)
    res, _ = stretch(g)
    assert res.stretch == oracle_stretch(g)

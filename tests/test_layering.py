import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagmetrics import (
    DagBuildInput,
    Edge,
    InstrumentationCounters,
    LayerAssignment,
    UnbalancedWitness,
    build_dag,
    check_balanced,
    core,
    gen_layered_dag,
    gen_random_dag,
    layer_pq,
    layering,
    layer_traversal,
    metrics,
    oracle_graded,
    stretch,
    weakly_connected_components,
)
from graphs import chain, dag_from_edges, diamond, gap, skewed

ALGOS = [layer_pq, layer_traversal]


def reference_select_seed(g, component, lp):
    """Source vertex of the component with maximal lp, smallest index on ties."""
    best = -1
    for v in sorted(component):
        if g.in_adj[v]:
            continue
        if best < 0 or lp[v] > lp[best]:
            best = v
    return best


def reference_layer_traversal(g):
    """``layer_traversal`` before the shared kernel: each weak component
    seeded at its deepest source (from ``stretch``), then shifted to 0."""
    lp = stretch(g)[0].lp
    comps = weakly_connected_components(g)
    label = [None] * g.n
    in_adj, out_adj = g.in_adj, g.out_adj
    ve = 0
    ee = 0
    for comp in comps:
        seed = reference_select_seed(g, comp, lp)
        label[seed] = 0
        stack = [seed]
        while stack:
            v = stack.pop()
            ve += 1
            lv = label[v]
            want = lv - 1
            for p in in_adj[v]:
                ee += 1
                got = label[p]
                if got is None:
                    label[p] = want
                    stack.append(p)
                elif got != want:
                    counters = InstrumentationCounters(
                        vertex_evaluations=ve, edge_examinations=ee
                    )
                    return UnbalancedWitness(p, got, want, Edge(p, v)), counters
            want = lv + 1
            for c in out_adj[v]:
                ee += 1
                got = label[c]
                if got is None:
                    label[c] = want
                    stack.append(c)
                elif got != want:
                    counters = InstrumentationCounters(
                        vertex_evaluations=ve, edge_examinations=ee
                    )
                    return UnbalancedWitness(c, got, want, Edge(v, c)), counters
    layer = [0] * g.n
    component_of = [0] * g.n
    for cid, comp in enumerate(comps):
        low = min(label[v] for v in comp)
        for v in comp:
            layer[v] = label[v] - low
            component_of[v] = cid
    counters = InstrumentationCounters(vertex_evaluations=ve, edge_examinations=ee)
    return LayerAssignment(layer=layer, component_of=component_of), counters


def assert_valid_assignment(g, out):
    """Every edge climbs exactly one layer; every component bottoms at 0."""
    assert isinstance(out, LayerAssignment)
    for u in range(g.n):
        for v in g.out_adj[u]:
            assert out.layer[v] == out.layer[u] + 1
    lows = {}
    for v in range(g.n):
        cid = out.component_of[v]
        lows[cid] = min(lows.get(cid, out.layer[v]), out.layer[v])
    assert all(low == 0 for low in lows.values())


def assert_real_conflict(g, w):
    """The witness names an edge of g, one of its endpoints, and two labels."""
    u, v = w.via_edge
    assert v in g.out_adj[u]
    assert w.vertex in (u, v)
    assert w.existing_label != w.attempted_label


@pytest.mark.parametrize("algo", ALGOS)
class TestBalancedGraphs:
    def test_diamond(self, algo):
        out, counters = algo(diamond())
        assert out.layer == [0, 1, 1, 2]
        assert out.component_of == [0, 0, 0, 0]
        assert counters.vertex_evaluations == 4
        assert counters.edge_examinations == 8

    def test_chain(self, algo):
        out, _ = algo(chain(5))
        assert out.layer == [0, 1, 2, 3, 4]

    def test_single_vertex(self, algo):
        g = build_dag(DagBuildInput(edges=[], isolated=["v"]))
        out, _ = algo(g)
        assert out.layer == [0]

    def test_two_components_each_grounded(self, algo):
        g = build_dag(DagBuildInput(edges=[("0", "1")], isolated=["2"]))
        out, counters = algo(g)
        assert out.layer == [0, 1, 0]
        assert out.component_of == [0, 0, 1]

    def test_seed_deeper_than_component_floor(self, algo):
        # the deepest source ('s', lp=3) is not the floor: 'sp' (index 0,
        # the seed) is, one layer below 's'
        g = dag_from_edges(
            [("sp", "a"), ("a", "b"), ("s", "b"), ("s", "c"), ("c", "d"), ("d", "e")]
        )
        out, _ = algo(g)
        assert out.layer == [0, 1, 2, 1, 2, 3, 4]
        assert_valid_assignment(g, out)

    def test_seed_above_component_floor(self, algo):
        # the seed 'b' (index 0) gets label 0 and its parent 'a' label -1,
        # so normalization shifts the component up by one
        g = dag_from_edges([("b", "c"), ("a", "b"), ("x", "y")])
        out, _ = algo(g)
        assert out.layer == [1, 2, 0, 0, 1]
        assert out.component_of == [0, 0, 0, 1, 1]
        assert out.components == 2

    def test_layered_generator_output_is_balanced(self, algo):
        g = build_dag(gen_layered_dag(6, 3, 0.4, seed=21))
        out, _ = algo(g)
        assert_valid_assignment(g, out)

    def test_traversal_counter_budget(self, algo):
        for seed in range(15):
            g = build_dag(gen_layered_dag(4, 3, 0.5, seed=seed))
            out, counters = algo(g)
            assert_valid_assignment(g, out)
            assert counters.vertex_evaluations == g.n
            assert counters.edge_examinations <= 2 * g.m


def test_pq_at_deep_grid_size():
    # the 10^5-vertex grid of the deep benchmark: the heap frontier gives
    # the stack's assignment, popping every vertex once and examining
    # every edge from both ends
    g = build_dag(gen_layered_dag(50_001, 2, 1.0, seed=7))
    out, counters = layer_pq(g)
    assert isinstance(out, LayerAssignment)
    assert out == layer_traversal(g)[0]
    assert counters == InstrumentationCounters(vertex_evaluations=g.n, edge_examinations=2 * g.m)


class TestUnbalancedGraphs:
    def test_skewed_pq_witness(self):
        out, counters = layer_pq(skewed())
        assert isinstance(out, UnbalancedWitness)
        assert out.vertex == 2
        assert out.existing_label == 1
        assert out.attempted_label == 2
        assert out.via_edge == (1, 2)
        assert counters.vertex_evaluations == 2
        assert counters.edge_examinations == 4

    def test_skewed_traversal_witness(self):
        out, counters = layer_traversal(skewed())
        assert isinstance(out, UnbalancedWitness)
        # same conflicting edge discovered from the other endpoint
        assert out.vertex == 1
        assert out.existing_label == 1
        assert out.attempted_label == 0
        assert out.via_edge == (1, 2)
        assert counters.vertex_evaluations == 2
        assert counters.edge_examinations == 4

    @pytest.mark.parametrize("algo", ALGOS)
    def test_witness_edge_really_conflicts(self, algo):
        for seed in range(40):
            g = build_dag(gen_random_dag(8, 0.35, seed + 50))
            out, _ = algo(g)
            if isinstance(out, LayerAssignment):
                continue
            assert_real_conflict(g, out)

    def test_gap_graph_unbalanced(self):
        balanced, witness = check_balanced(gap())
        assert not balanced
        assert witness is not None


class TestCheckBalanced:
    def test_balanced(self):
        balanced, witness = check_balanced(diamond())
        assert balanced and witness is None

    def test_unbalanced(self):
        balanced, witness = check_balanced(skewed())
        assert not balanced
        assert isinstance(witness, UnbalancedWitness)


@pytest.mark.parametrize("algo", ALGOS)
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    p=st.floats(min_value=0.0, max_value=0.9),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_verdict_matches_constraint_oracle(algo, n, p, seed):
    g = build_dag(gen_random_dag(n, p, seed))
    out, _ = algo(g)
    assert isinstance(out, LayerAssignment) == oracle_graded(g)
    if isinstance(out, LayerAssignment):
        assert_valid_assignment(g, out)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    p=st.floats(min_value=0.0, max_value=0.9),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_both_algorithms_agree(n, p, seed):
    g = build_dag(gen_random_dag(n, p, seed))
    a, _ = layer_pq(g)
    b, _ = layer_traversal(g)
    if isinstance(a, LayerAssignment):
        assert isinstance(b, LayerAssignment)
        assert a == b
    else:
        assert isinstance(b, UnbalancedWitness)


@st.composite
def generated_graphs(draw):
    """Random DAGs (mostly unbalanced) and layered DAGs (always balanced)."""
    seed = draw(st.integers(min_value=0, max_value=10**6))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    if draw(st.booleans()):
        return build_dag(gen_random_dag(draw(st.integers(min_value=1, max_value=14)), p, seed))
    layers = draw(st.integers(min_value=1, max_value=6))
    width = draw(st.integers(min_value=1, max_value=4))
    return build_dag(gen_layered_dag(layers, width, p, seed))


@settings(max_examples=200, deadline=None)
@given(g=generated_graphs())
def test_kernel_matches_stretch_seeded_reference(g):
    ref, ref_counters = reference_layer_traversal(g)
    for algo in ALGOS:
        out, counters = algo(g)
        assert isinstance(out, LayerAssignment) == isinstance(ref, LayerAssignment)
        if isinstance(ref, LayerAssignment):
            assert out == ref
            assert counters == ref_counters
        else:
            assert_real_conflict(g, out)


@pytest.mark.parametrize("algo", ALGOS)
def test_layering_runs_no_stretch_and_no_components(algo, monkeypatch):
    def forbidden(g):
        raise AssertionError("layering must not call stretch or weakly_connected_components")

    for module in (metrics, core, layering):
        monkeypatch.setattr(module, "stretch", forbidden, raising=False)
        monkeypatch.setattr(module, "weakly_connected_components", forbidden, raising=False)
    for g in [diamond(), skewed(), gap(), chain(5), dag_from_edges([("0", "1")], ["2"])]:
        algo(g)

"""Shared graph builders for the test suite."""

import random
from functools import cache
from math import log

from dagmetrics import (
    Dag,
    DagBuildInput,
    DiameterResult,
    InstrumentationCounters,
    build_dag,
    gen_random_dag,
)

# Two routes 0->1->3 and 0->2->3 of equal length: balanced, stretch 2.
DIAMOND = [("0", "1"), ("0", "2"), ("1", "3"), ("2", "3")]

# A shortcut edge 0->3 next to the two-hop route 0->1->3: unbalanced,
# and the graph where diameter (1) is strictly below stretch (2).
SKEWED = [("0", "1"), ("1", "3"), ("0", "3")]

# Every pair of vertices is joined by at most one path, so all path
# lengths trivially agree, yet no edge-advances-one-layer labeling
# exists: a->x forces x one past a, while a->y / b->z->y force y one
# past a and two past b, and b->x then over-constrains the system.
GAP = [("a", "x"), ("b", "x"), ("a", "y"), ("b", "z"), ("z", "y")]


def dag_from_edges(edges, isolated=()) -> Dag:
    return build_dag(DagBuildInput(edges=list(edges), isolated=list(isolated)))


def chain(n: int) -> Dag:
    return dag_from_edges((str(i), str(i + 1)) for i in range(n - 1))


def diamond() -> Dag:
    return dag_from_edges(DIAMOND)


def skewed() -> Dag:
    return dag_from_edges(SKEWED)


def gap() -> Dag:
    return dag_from_edges(GAP)


SMALL_PS = [0.1, 0.2, 0.3, 0.5]
LARGE_NS = [20, 50, 100, 150, 200]
LARGE_PS = [0.01, 0.02, 0.05, 0.1]


@cache
def corpus_small():
    """500 seeded random DAGs with n <= 10 across four edge densities."""
    graphs = []
    for i in range(500):
        n = (i % 10) + 1
        p = SMALL_PS[i % len(SMALL_PS)]
        graphs.append(build_dag(gen_random_dag(n, p, seed=i)))
    return tuple(graphs)


@cache
def corpus_large():
    """100 sparser random DAGs with n up to 200."""
    graphs = []
    for i in range(100):
        n = LARGE_NS[i % len(LARGE_NS)]
        p = LARGE_PS[i % len(LARGE_PS)]
        graphs.append(build_dag(gen_random_dag(n, p, seed=1000 + i)))
    return tuple(graphs)


def analytic_graphs():
    return [diamond(), skewed(), gap()]


def reference_gen_random_dag(n: int, p: float, seed: int) -> DagBuildInput:
    """Plain-loop reference for gen_random_dag, which must return the
    same edges and isolated vertices, in the same order, for every argument."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    names = [str(v) for v in range(n)]
    edges: list[tuple[str, str]] = []
    touched = [False] * n
    for i in range(n):
        u = perm[i]
        for j in range(i + 1, n):
            if rng.random() < p:
                v = perm[j]
                edges.append((names[u], names[v]))
                touched[u] = True
                touched[v] = True
    isolated = [names[v] for v in range(n) if not touched[v]]
    return DagBuildInput(edges=edges, isolated=isolated)


def reference_gen_layered_dag(layers: int, width: int, p: float, seed: int) -> DagBuildInput:
    """Nested-loop reference for gen_layered_dag, drawing one coin per
    adjacent-layer pair even at p >= 1; gen_layered_dag must equal it for
    every argument."""
    rng = random.Random(seed)
    n = layers * width
    names = [str(v) for v in range(n)]
    edges: list[tuple[str, str]] = []
    has_in = [False] * n
    has_out = [False] * n

    def connect(u: int, v: int) -> None:
        edges.append((names[u], names[v]))
        has_out[u] = True
        has_in[v] = True

    for k in range(layers - 1):
        base = k * width
        for a in range(base, base + width):
            for b in range(base + width, base + 2 * width):
                if rng.random() < p:
                    connect(a, b)
    for v in range(width, n):
        if not has_in[v]:
            base = (v // width - 1) * width
            connect(base + rng.randrange(width), v)
    for v in range(n - width):
        if not has_out[v]:
            base = (v // width + 1) * width
            connect(v, base + rng.randrange(width))
    isolated = [names[v] for v in range(n) if not has_in[v] and not has_out[v]]
    return DagBuildInput(edges=edges, isolated=isolated)


def reference_diameter_by_rounds(g: Dag) -> tuple[DiameterResult, InstrumentationCounters]:
    """Three-list reference for metrics._diameter_by_rounds, which must
    return the same result and counters on every graph: each round
    builds a new list in index order, and a second pass compares the
    last two rounds to find the witness."""
    out_adj = g.out_adj
    reach = [1 << v for v in range(g.n)]
    before = reach
    rounds = 0
    while True:
        rounds += 1
        nxt = []
        for u in range(g.n):
            r = reach[u]
            for c in out_adj[u]:
                r |= reach[c]
            nxt.append(r)
        if nxt == reach:
            break
        before, reach = reach, nxt
    best = rounds - 1
    witness = None
    if best:
        for u, (now, earlier) in enumerate(zip(reach, before)):
            fresh = now & ~earlier
            if fresh:
                witness = (u, (fresh & -fresh).bit_length() - 1)
                break
    counters = InstrumentationCounters(
        vertex_evaluations=rounds * g.n,
        edge_examinations=rounds * g.m,
        distance_updates=sum(r.bit_count() for r in reach) - g.n,
    )
    return DiameterResult(diameter=best, witness=witness), counters


def sparse_edge_text(n: int, p: float, seed: int) -> str:
    """Edge-list text of a sparse random DAG, for 0 < p < 1, in time
    linear in n plus its edges rather than in the n^2/2 pairs.

    The vertices 0..n-1 are shuffled, and the forward pairs of that order
    are walked row by row, jumping from kept pair to kept pair by
    geometric skips (Batagelj & Brandes 2005), so each pair is kept with
    probability p. Each kept pair prints as "u v"; the untouched vertices
    follow in increasing order, one a line.
    """
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    log_q = log(1 - p)
    touched = [False] * n
    lines = []
    row = start = 0  # row i pairs order[i] with order[i+1:], from position start
    pos = -1
    while True:
        pos += 1 + int(log(1 - rng.random()) / log_q)
        while row < n - 1 and pos >= start + n - 1 - row:
            start += n - 1 - row
            row += 1
        if row >= n - 1:
            break
        u, v = order[row], order[row + 1 + pos - start]
        touched[u] = touched[v] = True
        lines.append(f"{u} {v}")
    lines += [str(v) for v in range(n) if not touched[v]]
    return "".join(line + "\n" for line in lines)

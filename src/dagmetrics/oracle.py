"""Brute-force reference implementations and seeded graph generators.

Everything here exists to double-check the fast algorithms, so none of
it shares an algorithm with `metrics` or `layering`: longest paths come
from exhaustive enumeration, diameter from an unpruned BFS from every
source over a distance list, and layers from an offset-carrying
union-find. The path-enumeration oracles share one walk that lists
every directed path leaving a source exactly once, with no memo per
vertex, and run it once per source. The diameter and
layering oracles give the whole answer their commands report (the
diameter, its witness and, when asked, the distance rows; a
`LayerAssignment` or None), so a check is one comparison. Every oracle
is iterative, so a long path never meets the recursion limit.
Each costly oracle raises `TooLarge` past one fixed size bound: the path
enumerations past SMALL_GRAPH_BOUND vertices, as path counts grow
exponentially, and the per-source BFS past BFS_WORK_BOUND on |V|·(|V|+|E|).
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict

from dagmetrics.core import Dag, DagBuildInput, DagError, VertexId
from dagmetrics.layering import LayerAssignment

SMALL_GRAPH_BOUND = 12  # vertices, for the path enumerations
BFS_WORK_BOUND = 4 * 10**7  # |V|·(|V|+|E|), for the per-source BFS: a few seconds at most


class TooLarge(DagError):
    """The graph is past an oracle's bound; the message names what was measured and the bound."""


def _path_lengths_from(g: Dag, u: VertexId, bound: int) -> dict[VertexId, Counter]:
    """Multiset of path lengths u -> v for every v that u reaches, by exhaustive DFS.

    Each stack entry is one path from u, as its end vertex and length,
    so every path leaving u is walked exactly once and no depth limit
    applies. The graph is acyclic, so u itself is never reached: only
    nonempty paths count.
    """
    if g.n > bound:
        raise TooLarge(f"n={g.n} exceeds oracle bound {bound}")
    reached: defaultdict[VertexId, Counter] = defaultdict(Counter)
    out_adj = g.out_adj
    stack = [(u, 0)]
    while stack:
        x, depth = stack.pop()
        depth += 1
        for c in out_adj[x]:
            reached[c][depth] += 1
            stack.append((c, depth))
    return reached


def enumerate_path_lengths(
    g: Dag, u: VertexId, v: VertexId, bound: int = SMALL_GRAPH_BOUND
) -> Counter:
    """Multiset of lengths of all directed paths u -> v, by exhaustive DFS."""
    return _path_lengths_from(g, u, bound).get(v, Counter())


def oracle_stretch(g: Dag, bound: int = SMALL_GRAPH_BOUND) -> int:
    """Longest path over all ordered pairs; 0 when nothing is reachable."""
    walks = (_path_lengths_from(g, u, bound) for u in range(g.n))
    return max((max(lengths) for walk in walks for lengths in walk.values()), default=0)


def _bfs(g: Dag, source: VertexId) -> tuple[list[VertexId], list[int]]:
    """BFS from source: (visit order, distances), with -1 where unreached.

    The visit order is also the FIFO queue, since the loop appends to
    the list it walks, and it starts with the source at distance 0.
    BFS visits vertices in nondecreasing distance, so the last one in
    the order is the farthest.
    """
    out_adj = g.out_adj
    dist = [-1] * g.n
    dist[source] = 0
    order = [source]
    for x in order:
        dv = dist[x] + 1
        for v in out_adj[x]:
            if dist[v] < 0:
                dist[v] = dv
                order.append(v)
    return order, dist


def bfs_distances(g: Dag, source: VertexId) -> dict[VertexId, int]:
    """Shortest directed distance from source to each reachable vertex.

    The source itself is excluded: only nonempty paths count.
    """
    order, dist = _bfs(g, source)
    return {v: dist[v] for v in order[1:]}


def bfs_diameter(
    g: Dag, keep_rows: bool = False
) -> tuple[int, tuple[VertexId, VertexId] | None, dict[VertexId, dict[VertexId, int]] | None]:
    """Diameter, witness and (if keep_rows, else None) distance rows, by one BFS per source.

    Each BFS fills a distance list, and its visit order ends at the
    farthest vertex, so no row is built unless keep_rows asks for the
    rows. The witness is the lexicographically smallest pair at the
    largest distance: the first source whose BFS reaches it, and the
    smallest vertex there. A source that reaches nothing has no row.
    Raises TooLarge when |V|·(|V|+|E|) is over BFS_WORK_BOUND.
    """
    work = g.n * (g.n + g.m)
    if work > BFS_WORK_BOUND:
        raise TooLarge(f"n*(n+m)={work} exceeds oracle bound {BFS_WORK_BOUND}")
    rows = {} if keep_rows else None
    best = 0
    witness = None
    for u in range(g.n):
        order, dist = _bfs(g, u)
        if len(order) == 1:
            continue
        if rows is not None:
            rows[u] = {v: dist[v] for v in order[1:]}
        far = dist[order[-1]]
        if far > best:
            best = far
            witness = (u, min(v for v in order if dist[v] == far))
    return best, witness, rows


def oracle_diameter(g: Dag) -> int:
    """Maximum finite BFS distance over all start vertices."""
    return bfs_diameter(g)[0]


def oracle_layers(g: Dag) -> LayerAssignment | None:
    """The layering with label(v) = label(u) + 1 on every edge, or None.

    Decided by union-find carrying label offsets: each edge merges its
    endpoints with relative offset 1, and a merge that closes a group
    with an inconsistent offset proves infeasibility. Otherwise each
    group is a weak component and the offsets to its root are its
    labels. Components are numbered in the order of their smallest
    vertex and shifted so their lowest layer is 0, as the layering
    algorithms report them.
    """
    parent = list(range(g.n))
    rank = [0] * g.n
    offset = [0] * g.n  # label(x) - label(parent[x]); 0 for roots

    def find(x: VertexId) -> VertexId:
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        acc = 0
        for node in reversed(path):
            acc += offset[node]
            parent[node] = x
            offset[node] = acc
        return x

    for u in range(g.n):
        for v in g.out_adj[u]:
            ru = find(u)
            rv = find(v)
            du, dv = offset[u], offset[v]
            if ru == rv:
                if dv - du != 1:
                    return None
            elif rank[ru] < rank[rv]:
                parent[ru] = rv
                offset[ru] = dv - du - 1
            else:
                parent[rv] = ru
                offset[rv] = du + 1 - dv
                if rank[ru] == rank[rv]:
                    rank[ru] += 1
    # after find(v), offset[v] is label(v) - label(root), and a root's is 0
    root = [find(v) for v in range(g.n)]
    low: dict[VertexId, int] = {}
    for v, r in enumerate(root):
        low[r] = min(low.get(r, 0), offset[v])
    ids: dict[VertexId, int] = {}
    return LayerAssignment(
        layer=[offset[v] - low[r] for v, r in enumerate(root)],
        component_of=[ids.setdefault(r, len(ids)) for r in root],
    )


def oracle_graded(g: Dag) -> bool:
    """Whether labels with label(v) = label(u) + 1 on every edge exist."""
    return oracle_layers(g) is not None


def oracle_all_paths_equal(g: Dag, bound: int = SMALL_GRAPH_BOUND) -> bool:
    """True iff every ordered pair's paths all have one common length."""
    walks = (_path_lengths_from(g, u, bound) for u in range(g.n))
    return all(len(lengths) == 1 for walk in walks for lengths in walk.values())


def gen_random_dag(n: int, p: float, seed: int) -> DagBuildInput:
    """Random DAG: seeded permutation as topological order, each forward
    pair kept with probability p. Reproducible for a given (n, p, seed).
    """
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


def gen_layered_dag(layers: int, width: int, p: float, seed: int) -> DagBuildInput:
    """Layered DAG on a layers x width grid, edges only between adjacent
    layers, so the grading is exactly the layer index.

    Each adjacent-layer pair is sampled with probability p; afterwards
    every vertex is forced to keep at least one edge toward each
    neighboring layer, so no vertex ends up skipping a layer.
    """
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

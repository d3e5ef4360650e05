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
From SPLIT_WORK on that measure, the per-source BFS may deal its sources
to forked children, one per extra usable CPU; each child runs the same
BFS and packs only its farthest distance and witness into its own slot
of one shared mapping.
"""

from __future__ import annotations

import os
import random
import threading
from collections import Counter, defaultdict
from contextlib import suppress
from itertools import chain, islice
from mmap import mmap
from signal import SIGKILL
from struct import Struct
from typing import NoReturn

from dagmetrics.core import Dag, DagBuildInput, DagError, VertexId
from dagmetrics.layering import LayerAssignment

SMALL_GRAPH_BOUND = 12  # vertices, for the path enumerations
BFS_WORK_BOUND = 4 * 10**7  # |V|·(|V|+|E|), for the per-source BFS: a few seconds at most
SPLIT_WORK = 10**6  # |V|·(|V|+|E|) from which the per-source BFS forks: about where a fork pays
_SLOT = Struct("3q")  # a forked child's answer: far, u, v, with -1, -1 for no witness


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


def _farthest(
    g: Dag, sources: range, rows: dict[VertexId, dict[VertexId, int]] | None = None
) -> tuple[int, tuple[VertexId, VertexId] | None]:
    """Largest BFS distance from the sources, and the smallest pair at it.

    Each BFS fills a distance list, and its visit order ends at the
    farthest vertex. The sources run in increasing order, so the first
    one to reach a new largest distance is the witness's source, and its
    smallest vertex at that distance the witness's end. A source that
    reaches nothing adds nothing, and no row is built unless rows is
    given, to be filled.
    """
    best = 0
    witness = None
    for u in sources:
        order, dist = _bfs(g, u)
        if len(order) == 1:
            continue
        if rows is not None:
            rows[u] = {v: dist[v] for v in order[1:]}
        far = dist[order[-1]]
        if far > best:
            best = far
            witness = (u, min(v for v in order if dist[v] == far))
    return best, witness


def _usable_cpus() -> int:
    """CPUs this process may run on, or 1 where it cannot fork safely:
    no fork or affinity call on this platform, or another thread alive."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _send_farthest(g: Dag, sources: range, block: mmap, k: int) -> NoReturn:
    """In a forked child: pack _farthest's answer into slot k of block, then exit.

    Ends in os._exit whatever happens, so the child never returns into
    its parent's code and runs none of its parent's exit handlers; any
    failure exits 1, and the parent then reads nothing from the slot.
    """
    code = 1
    try:
        far, witness = _farthest(g, sources)
        _SLOT.pack_into(block, k * _SLOT.size, far, *(witness or (-1, -1)))
        code = 0
    finally:
        os._exit(code)


def _dealt_farthest(g: Dag, cpus: int) -> tuple[int, tuple[VertexId, VertexId] | None]:
    """_farthest over every source, dealt round-robin over cpus processes.

    Share k holds the sources k, k + cpus, ...: this process walks share 0
    and one forked child each other share, so the shares' BFS run at
    once. Each child packs its farthest distance and witness into its own
    slot of one shared mapping, which this process reads once the child
    has exited 0. The answer is the largest distance over the shares and
    the smallest of their witnesses at it, which is _farthest's answer
    over all sources. A refused mapping walks every share here; a share
    whose fork fails (EAGAIN, ENOMEM) is walked here, as is the share of
    a child that fails (a nonzero exit, or killed), so no answer depends
    on a child, and every child is reaped before the call returns or
    raises.
    """
    try:
        block = mmap(-1, _SLOT.size * cpus)
    except OSError:
        return _farthest(g, range(g.n))
    shares = [range(k, g.n, cpus) for k in range(cpus)]
    here = [shares[0]]  # the shares this process walks
    children = []  # (pid, k) of the child walking share k, until reaped
    with block:
        try:
            for k in range(1, cpus):
                try:
                    pid = os.fork()
                except OSError:
                    here.append(shares[k])
                    continue
                if pid == 0:
                    _send_farthest(g, shares[k], block, k)
                children.append((pid, k))
            results = [_farthest(g, share) for share in here]
            while children:
                pid, k = children[0]
                _, status = os.waitpid(pid, 0)
                children.pop(0)
                if status == 0:
                    # a share that reaches nothing packs 0 and (-1, -1), never picked below
                    far, *pair = _SLOT.unpack_from(block, k * _SLOT.size)
                    results.append((far, tuple(pair)))
                else:
                    results.append(_farthest(g, shares[k]))
        finally:
            for pid, _ in children:
                with suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, SIGKILL)
                    os.waitpid(pid, 0)
    best = max(far for far, _ in results)
    return best, min(witness for far, witness in results if far == best) if best else None


def bfs_diameter(
    g: Dag, keep_rows: bool = False
) -> tuple[int, tuple[VertexId, VertexId] | None, dict[VertexId, dict[VertexId, int]] | None]:
    """Diameter, witness and (if keep_rows, else None) distance rows, by one BFS per source.

    The witness is the lexicographically smallest pair at the largest
    distance, and a source that reaches nothing has no row. From
    SPLIT_WORK on |V|·(|V|+|E|), without keep_rows and with more than
    one usable CPU, the sources are dealt over the usable CPUs by forked
    children (_dealt_farthest), each of which packs its farthest distance
    and witness into its own slot of one shared mapping, with the same
    answer; the rows stay in this process.
    Raises TooLarge when |V|·(|V|+|E|) is over BFS_WORK_BOUND.
    """
    work = g.n * (g.n + g.m)
    if work > BFS_WORK_BOUND:
        raise TooLarge(f"n*(n+m)={work} exceeds oracle bound {BFS_WORK_BOUND}")
    rows: dict[VertexId, dict[VertexId, int]] | None = {} if keep_rows else None
    cpus = 1 if keep_rows or work < SPLIT_WORK else _usable_cpus()
    if cpus == 1:
        return (*_farthest(g, range(g.n), rows), rows)
    return (*_dealt_farthest(g, cpus), None)


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

    One coin is drawn per forward pair, n·(n-1)/2 of them whatever p is,
    so the time grows with n² even when few edges are kept.
    """
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    names = [str(v) for v in range(n)]
    edges: list[tuple[str, str]] = []
    touched = [False] * n
    draw = rng.random
    append = edges.append
    for i, u in enumerate(perm):
        src = names[u]
        for v in perm[i + 1:]:
            if draw() < p:
                append((src, names[v]))
                touched[u] = True
                touched[v] = True
    isolated = [names[v] for v in range(n) if not touched[v]]
    return DagBuildInput(edges=edges, isolated=isolated)


def gen_layered_dag(layers: int, width: int, p: float, seed: int) -> DagBuildInput:
    """Layered DAG on a layers x width grid, edges only between adjacent
    layers, so the grading is exactly the layer index.

    Vertex k·width + i is vertex i of layer k. Each adjacent-layer pair
    (a, b) is sampled with probability p, in order of a, then b;
    afterwards every vertex is forced to keep at least one edge toward
    each neighboring layer, so no vertex ends up skipping a layer and
    only a one-layer grid has isolated vertices. At p >= 1 no coin can
    land tails, so the complete grid is built with no draw and is the
    same for every seed. layers <= 0 or width <= 0 gives the empty graph,
    except that a negative width with layers <= 0 raises ValueError.
    """
    if width < 0 and layers <= 0:
        raise ValueError(f"negative width {width} needs layers >= 1, got {layers}")
    n = layers * width
    if n <= 0:
        return DagBuildInput(edges=[], isolated=[])
    names = list(map(str, range(n)))
    if layers == 1:
        return DagBuildInput(edges=[], isolated=names)
    if p >= 1:
        # pairs[i·width + j] yields the edge from vertex i of each layer to
        # vertex j of the next; zip takes one from each in turn, so each
        # layer's edges come in order of a, then b
        pairs = [
            zip(islice(names, i, n - width, width), islice(names, width + j, None, width))
            for i in range(width)
            for j in range(width)
        ]
        return DagBuildInput(edges=list(chain.from_iterable(zip(*pairs))), isolated=[])
    rng = random.Random(seed)
    draw = rng.random
    edges: list[tuple[str, str]] = []
    append = edges.append
    has_in = [False] * n
    has_out = [False] * n
    heads = [range(b, b + width) for b in range(width, n, width)]  # heads[k]: layer k + 1
    for a in range(n - width):
        src = names[a]
        for b in heads[a // width]:
            if draw() < p:
                append((src, names[b]))
                has_out[a] = True
                has_in[b] = True
    for v in range(width, n):
        if not has_in[v]:
            u = (v // width - 1) * width + rng.randrange(width)
            append((names[u], names[v]))
            has_out[u] = True
    for v in range(n - width):
        if not has_out[v]:
            append((names[v], names[(v // width + 1) * width + rng.randrange(width)]))
    return DagBuildInput(edges=edges, isolated=[])

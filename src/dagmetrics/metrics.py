"""Longest-path (stretch) and shortest-distance (diameter) analysis.

Every operation returns instrumentation counters witnessing the work
actually performed; counters are fresh per call.

* ``stretch`` evaluates every vertex once and consults every edge once:
  exactly |V| vertex evaluations and |E| edge examinations.
* ``all_pairs_distances`` evaluates every vertex and edge once. Each
  edge (p, c) counts 1 + |row of c| distance updates, so there are at
  most |E|*|V|.
* ``diameter`` is the one engine dispatcher. On a graph with edges it
  first makes ``stretch``'s reverse-topological pass (``_longest_paths``).
  Then it runs one of three engines and reports that engine's counters:

  - one BFS from u0, the smallest vertex with lp(u0) = stretch S. No
    shortest path is longer than a longest one, so diameter <= S, and a
    pair at distance S must start at a vertex with lp = S, of which u0
    is the smallest. So if the BFS reaches distance S, the diameter is
    S and the witness is u0 with the smallest vertex at that distance.
    That holds in every balanced graph, where every path u -> v has
    length layer(v) - layer(u), and in every graph of stretch 1. Its
    counters are the pass plus the BFS: |V| + (vertices visited)
    vertex evaluations, |E| + (edges scanned) edge examinations and
    (vertices visited - 1) distance updates, within (stretch+1)*|V| and
    (stretch+1)*|E| for every stretch >= 1;
  - otherwise the all-pairs sweep above, with its counters unchanged,
    or bit-parallel reach rounds, chosen from |V|, |E|, stretch and a
    bound on the sweep's work (see ``_rounds_pay_off``). The bound takes
    a pass of its own (``_sweep_bound``), made only here. The rounds
    take diameter+1 rounds (at most stretch+1, since diameter <=
    stretch). Each round counts |V| vertex evaluations and |E| edge
    examinations, and distance_updates is the number of reachable
    ordered pairs, each of whose distance is set once, by the round
    that first reaches it. That is at most |E|*|V|.

  Neither the two passes nor a BFS that falls short of S counts toward
  the sweep or the rounds: their counters are the engine's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from dagmetrics.core import Dag, EmptyGraph, InstrumentationCounters, VertexId

# source index -> {reachable index -> shortest directed distance in edges};
# entries exist only for nonempty paths, so sinks have no row and d(u,u)
# is never stored.
DistanceMap = dict[int, dict[int, int]]


@dataclass
class StretchResult:
    """Per-vertex longest-path-from lengths and the global maximum."""

    lp: list[int]  # lp[v] = longest directed path starting at v, in edges
    stretch: int
    witness_source: VertexId  # smallest-index vertex with lp == stretch


@dataclass
class DiameterResult:
    diameter: int
    witness: tuple[VertexId, VertexId] | None  # lexicographically smallest


def stretch(g: Dag) -> tuple[StretchResult, InstrumentationCounters]:
    """Longest directed path length, memoized over one reverse-topological sweep.

    Each vertex is evaluated exactly once (sinks get lp = 0, every other
    vertex 1 + max over successors), so the counters come out to exactly
    |V| vertex evaluations and |E| edge examinations.
    """
    if g.n == 0:
        raise EmptyGraph()
    lp, ve, ee = _longest_paths(g)
    top = max(lp)
    result = StretchResult(lp=lp, stretch=top, witness_source=lp.index(top))
    return result, InstrumentationCounters(vertex_evaluations=ve, edge_examinations=ee)


def _longest_paths(g: Dag) -> tuple[list[int], int, int]:
    """lp and the vertices and edges evaluated, in one reverse-topological pass.

    lp[v] is 0 at a sink, else 1 + the largest lp over v's successors.
    Any topological order gives the same lp. Iterative on purpose:
    recursion would overflow on long chains.
    """
    out_adj = g.out_adj
    lp = [0] * g.n
    ve = 0
    ee = 0
    for v in reversed(g.topo):
        ve += 1
        row = out_adj[v]
        ee += len(row)
        best = -1
        for c in row:
            if lp[c] > best:
                best = lp[c]
        lp[v] = best + 1
    return lp, ve, ee


def all_pairs_distances(g: Dag) -> tuple[DistanceMap, InstrumentationCounters]:
    """Shortest directed distances for every reachable ordered pair.

    Vertices are processed in reverse topological order, which is
    consistent with repeatedly peeling the current sink set: when a
    vertex is reached, every successor's row is final. A vertex's row
    starts from distance 1 to each successor and min-merges each
    successor's row shifted by +1. distance_updates counts every entry
    touched by those merges, 1 + |row of c| for each edge (p, c), and is
    bounded by |E|*|V|.
    """
    rows: DistanceMap = {}
    ve = 0
    ee = 0
    du = 0
    big = g.n + 1  # larger than any possible distance
    no_row: dict[int, int] = {}  # sinks have no row
    for p in reversed(g.topo):
        ve += 1
        succs = g.out_adj[p]
        if not succs:
            continue
        ee += len(succs)
        row: dict[int, int] = {}
        get = row.get
        for c in succs:
            row[c] = 1
            crow = rows.get(c, no_row)
            du += 1 + len(crow)
            for x, dx in crow.items():
                nd = dx + 1
                if nd < get(x, big):
                    row[x] = nd
        rows[p] = row
    counters = InstrumentationCounters(
        vertex_evaluations=ve, edge_examinations=ee, distance_updates=du
    )
    return rows, counters


def diameter(g: Dag) -> tuple[DiameterResult, InstrumentationCounters]:
    """Maximum shortest directed distance over all reachable pairs.

    0 with no witness when nothing is reachable; otherwise the witness is
    the lexicographically smallest (u, v) attaining the maximum. Every
    engine gives the same result; which one runs shows only in the
    counters (see the module docstring).
    """
    if g.m:
        lp, ve, ee = _longest_paths(g)
        longest = max(lp)
        u = lp.index(longest)
        del lp  # the BFS and the other engines do not read it
        end, visited, scanned = _far_end(g, u, longest)
        if end is not None:
            return DiameterResult(longest, (u, end)), InstrumentationCounters(
                vertex_evaluations=ve + visited,
                edge_examinations=ee + scanned,
                distance_updates=visited - 1,
            )
        if _rounds_pay_off(g.n, g.m, longest, _sweep_bound(g)):
            return _diameter_by_rounds(g)
    rows, counters = all_pairs_distances(g)
    return _diameter_from_rows(rows), counters


def _far_end(g: Dag, u: VertexId, dist: int) -> tuple[VertexId | None, int, int]:
    """The smallest vertex at distance dist from u (None if there is
    none), and the vertices visited and edges scanned, by a BFS of dist
    levels.

    A vertex is marked when first reached, so each is visited once. The
    edges scanned are the out-edges of the visited vertices: when dist
    is u's longest-path length and a vertex lies at distance dist, it is
    a sink, so the last level, which the BFS does not expand, has none.
    """
    out_adj = g.out_adj
    seen = bytearray(g.n)
    seen[u] = 1
    level = [u]
    for _ in range(dist):
        nxt = []
        for v in level:
            for c in out_adj[v]:
                if not seen[c]:
                    seen[c] = 1
                    nxt.append(c)
        level = nxt
    return min(level, default=None), seen.count(1), sum(map(len, compress(out_adj, seen)))


def _sweep_bound(g: Dag) -> int:
    """A bound on the sweep's distance updates, in one pass over g.

    The sweep spends 1 + |desc(c)| updates on each edge (p, c). The
    number of paths leaving a vertex, capped at |V|-1, bounds its
    descendant count from above and is exact on forests and chains.
    """
    cap = g.n - 1
    out_adj = g.out_adj
    below = [0] * g.n  # capped path count from v, >= |desc(v)|
    updates = 0
    for v in reversed(g.topo):
        paths = 0
        for c in out_adj[v]:
            paths += 1 + below[c]
        below[v] = paths if paths < cap else cap
        updates += paths
    return updates


def _rounds_pay_off(n: int, m: int, longest_path: int, sweep_updates: int) -> bool:
    """Whether reach rounds are expected to beat the all-pairs sweep.

    Rounds do (diameter+1)*(|V|+|E|) big-int ORs, and diameter <= stretch.
    Each OR spans ceil(|V|/64) machine words, so on large graphs it costs
    far more than one sweep update: measured on random DAGs, chains and
    grids, an OR cost half to one update up to 100 words and five to
    seven at 313 words, rounded up here to 1 + words/32. The sweep costs
    sweep_updates, an upper bound on its distance_updates counter.

    So the rounds get graphs with many reachable pairs and short longest
    paths, such as dense random DAGs. The sweep gets long chains, and
    graphs with few reachable pairs whatever their stretch, such as
    large sparse ones: there the rounds' |V|^2 bits of reach sets would
    cost far more time and memory than the sweep's few updates.
    """
    words = (n + 63) // 64
    return (longest_path + 1) * (n + m) * (32 + words) <= 32 * sweep_updates


def _diameter_from_rows(rows: DistanceMap) -> DiameterResult:
    """The largest distance and its lexicographically smallest pair.

    Linear in the stored pairs: each row's maximum is taken once, then
    the witness is the smallest source whose row reaches the diameter
    and the smallest target in that row at that distance. Rows are
    never empty, since sinks have none.
    """
    far = {u: max(row.values()) for u, row in rows.items()}
    best = max(far.values(), default=0)
    if not best:
        return DiameterResult(diameter=0, witness=None)
    u = min(u for u, d in far.items() if d == best)
    v = min(v for v, d in rows[u].items() if d == best)
    return DiameterResult(diameter=best, witness=(u, v))


def _diameter_by_rounds(g: Dag) -> tuple[DiameterResult, InstrumentationCounters]:
    """Bit-parallel "reach within k" rounds, Python ints as bitsets.

    Bit v of reach[u] after round k means d(u, v) <= k, with
    R_0(u) = {u} and R_{k+1}(u) = R_k(u) | OR over successors c of R_k(c).
    Rounds are synchronous (each reads only the previous round), and the
    first round that changes nothing ends the loop, so the diameter D is
    the number of rounds that changed something. The pairs at distance
    exactly D are R_D(u) & ~R_{D-1}(u), and bit order is index order, so
    the smallest such u and its lowest set bit give the lexicographically
    smallest witness.
    """
    out_adj = g.out_adj
    reach = [1 << v for v in range(g.n)]
    before = reach
    rounds = 0
    while True:
        rounds += 1
        nxt = []
        append = nxt.append
        for u in range(g.n):
            r = reach[u]
            for c in out_adj[u]:
                r |= reach[c]
            append(r)
        if nxt == reach:
            break
        before, reach = reach, nxt
    best = rounds - 1
    witness: tuple[VertexId, VertexId] | None = None
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

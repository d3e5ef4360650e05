"""Longest-path (stretch) and shortest-distance (diameter) analysis.

Every operation returns instrumentation counters witnessing the work
actually performed; counters are fresh per call.

* ``stretch`` evaluates every vertex once and consults every edge once:
  exactly |V| vertex evaluations and |E| edge examinations.
* ``all_pairs_distances`` evaluates every vertex and edge once. Each
  edge (p, c) counts 1 + |row of c| distance updates, so there are at
  most |E|*|V|.
* ``diameter`` chooses between two engines and reports the counters of
  the one that ran. On a graph with edges it first makes ``stretch``'s
  reverse-topological pass (``_longest_paths``), giving the stretch S
  and lp(u), the longest-path length from each vertex. A shortest path
  is never longer than a longest one, so ecc(u) <= lp(u) and the
  diameter is at most S. The engines:

  - the lp-bounded BFS engine: a full BFS from each vertex in (-lp,
    index) order, stopping at the first u with lp(u) below the best
    distance found, or equal to it with u greater than the witness's
    source (eccentricity bounding, with lp as the upper bound). The
    first BFS is from u0, the smallest vertex with lp(u0) = S. If it
    reaches distance S, it alone answers: the witness is u0 with the
    smallest vertex at that distance. That holds in every balanced
    graph, where every path u -> v has length layer(v) - layer(u), and
    in every graph of stretch 1. The counters are the pass plus every
    BFS: |V| + (vertices visited) vertex evaluations, |E| + (edges
    scanned) edge examinations and (vertices visited - 1) distance
    updates per BFS. With one BFS that is within (stretch+1)*|V| and
    (stretch+1)*|E| for every stretch >= 1; with many it can exceed
    them: on a sparse random DAG of 10^5 vertices, 5*10^5 edges and
    stretch 33, the engine ran 534 BFS and visited 7.98*10^6 vertices;
  - bit-parallel reach rounds, taken instead when the first BFS falls
    short of S and ``_rounds_pay_off`` weighs the rounds below the
    engine's estimate k*(r0 + e0): k vertices with lp at least the
    first BFS's distance, times the r0 vertices it visited plus the e0
    edges it scanned. The rounds hold one list of reach sets, updated in
    place in topological order, and keep the witness as they go. They
    take diameter+1 rounds (at most stretch+1). Each round counts |V|
    vertex evaluations and |E| edge examinations, and distance_updates
    is the number of reachable ordered pairs, each of whose distance is
    set once, by the round that first reaches it. That is at most
    |E|*|V|. The rounds report only these counters, not the pass's or
    the first BFS's.

  A graph without edges needs neither: diameter 0, counted as |V|
  vertex evaluations. The all-pairs sweep runs only where its rows are
  the output (the CLI's ``--all-pairs``).
"""

from __future__ import annotations

from collections import namedtuple

from dagmetrics.core import Dag, EmptyGraph, InstrumentationCounters, VertexId

# source index -> {reachable index -> shortest directed distance in edges};
# entries exist only for nonempty paths, so sinks have no row and d(u,u)
# is never stored.
DistanceMap = dict[int, dict[int, int]]


# Per-vertex longest-path-from lengths and the global maximum: lp[v] is
# the longest directed path starting at v, in edges, and witness_source
# the smallest-index vertex with lp == stretch.
StretchResult = namedtuple("StretchResult", "lp stretch witness_source")

# witness: the lexicographically smallest pair at the diameter, or None.
DiameterResult = namedtuple("DiameterResult", "diameter witness")


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
    out_adj = g.out_adj
    for p in reversed(g.topo):
        ve += 1
        succs = out_adj[p]
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
    the lexicographically smallest (u, v) attaining the maximum. Both
    engines give the same result; which one runs shows only in the
    counters (see the module docstring).
    """
    if not g.m:
        # nothing is reachable: each vertex is looked at once
        return DiameterResult(0, None), InstrumentationCounters(vertex_evaluations=g.n)
    return _bounded_bfs(g) or _diameter_by_rounds(g)


def _bounded_bfs(g: Dag) -> tuple[DiameterResult, InstrumentationCounters] | None:
    """The diameter by a full BFS from each vertex in (-lp, index) order,
    or None where the reach rounds are expected to cost less.

    ecc(u) <= lp(u), so the search stops at the first u with lp(u) <
    best, or with lp(u) = best and u greater than the witness's source:
    neither u nor any later vertex gives a farther pair, or a smaller
    one at the same distance. The first BFS is from u0 = lp.index(S).
    If it reaches only distance D0 < S, just the k vertices with lp >=
    D0 can still win. Only they are sorted, and the rounds are taken
    instead when they pay off against k times the first BFS's visits
    plus scans (``_rounds_pay_off``).

    Each BFS costs O(reach): one list of marks is kept across the runs,
    and a run marks each vertex it reaches with its run number, so a
    vertex is reached in the current run iff its mark equals that number,
    and no mark is ever cleared. Every level is expanded, so a run scans
    exactly the out-edges of the vertices it visits, and its last level
    holds the vertices at its eccentricity.
    """
    lp, ve, ee = _longest_paths(g)
    longest = max(lp)
    out_adj = g.out_adj
    seen = [0] * g.n
    best, witness = 0, (0, 0)
    runs = visited = scanned = 0
    sources = [lp.index(longest)]
    for u in sources:  # grows once, after the first run
        if lp[u] < best or (lp[u] == best and u > witness[0]):
            break
        runs += 1
        seen[u] = runs
        level = [u]
        far = -1
        while level:
            far += 1
            visited += len(level)
            last = level
            level = []
            for v in last:
                row = out_adj[v]
                scanned += len(row)
                for c in row:
                    if seen[c] != runs:
                        seen[c] = runs
                        level.append(c)
        if far > best or (far == best and u < witness[0]):
            best, witness = far, (u, min(last))
        if runs == 1 and best < longest:
            order = sorted(
                (v for v, d in enumerate(lp) if d >= best), key=lp.__getitem__, reverse=True
            )
            if _rounds_pay_off(g.n, g.m, longest, len(order) * (visited + scanned)):
                return None
            sources += order[1:]
    return DiameterResult(best, witness), InstrumentationCounters(
        vertex_evaluations=ve + visited,
        edge_examinations=ee + scanned,
        distance_updates=visited - runs,
    )


def _rounds_pay_off(n: int, m: int, longest_path: int, engine_steps: int) -> bool:
    """Whether reach rounds are expected to beat the BFS engine.

    Rounds do (diameter+1)*(|V|+|E|) big-int ORs, and diameter <= stretch.
    Each OR spans ceil(|V|/64) machine words, so on large graphs it costs
    far more than one dict update: measured on random DAGs, chains and
    grids, an OR cost half to one update up to 100 words and five to
    seven at 313 words, rounded up here to 1 + words/32. A BFS step, one
    vertex visited or one edge scanned, costs less than an update, so
    the same constant weighs engine_steps: the k sources that can still
    win times the visits and scans of the engine's first BFS.

    So the rounds get graphs with many reachable pairs, short longest
    paths and lp a poor bound on eccentricity, such as dense random DAGs.
    The engine gets the rest, such as long chains and large sparse
    graphs: there the rounds' |V|^2 bits of reach sets would cost far
    more time and memory than a few BFS.
    """
    words = (n + 63) // 64
    return (longest_path + 1) * (n + m) * (32 + words) <= 32 * engine_steps


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
    One list holds the sets, updated in place in topological order: each
    successor of u comes later, so it still holds the previous round's
    set when u reads it, and the rounds stay synchronous. The first round
    that changes nothing ends the loop, so the diameter D is the number
    of rounds that changed something. Each round keeps the smallest u
    whose set changed, with its fresh bits R_k(u) & ~R_{k-1}(u); in round
    D those are the pairs at distance exactly D, and bit order is index
    order, so that u and its lowest fresh bit give the lexicographically
    smallest witness.
    """
    out_adj = g.out_adj
    reach = [1 << v for v in range(g.n)]
    rounds = 0
    witness: tuple[VertexId, VertexId] | None = None
    while True:
        rounds += 1
        first = None
        for u in g.topo:
            old = r = reach[u]
            for c in out_adj[u]:
                r |= reach[c]
            if r != old:
                reach[u] = r
                if first is None or u < first[0]:
                    first = (u, r & ~old)
        if first is None:
            break
        u, fresh = first
        witness = (u, (fresh & -fresh).bit_length() - 1)
    counters = InstrumentationCounters(
        vertex_evaluations=rounds * g.n,
        edge_examinations=rounds * g.m,
        distance_updates=sum(r.bit_count() for r in reach) - g.n,
    )
    return DiameterResult(diameter=rounds - 1, witness=witness), counters

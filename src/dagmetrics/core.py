"""Immutable DAG construction and structural queries.

Graphs arrive as labeled edge lists; vertices get dense integer indices
in order of first appearance on an edge line, then the labels seen only
on lone-vertex lines in line order, so every downstream report is
reproducible: ``c`` then ``a b`` gives ``a`` 0, ``b`` 1 and ``c`` 2.
Adjacency lists are kept sorted by target index, which pins traversal
order (and therefore every witness) across runs and platforms.

Ingest and each CLI command run with CPython's cyclic garbage collector
paused (``_collector_paused``). Everything they build, the Dag and every
result, is acyclic, so reference counting alone frees it and a
collection would find nothing. Yet allocation keeps triggering
collections, and each full one re-scans every adjacency list of the
Dag: on a 10^5-vertex chain that was about half of ``build_dag`` and
most of rendering a layering. A CLI process also freezes its heap
before it exits (``cli.main``). By then the Dag and results are freed,
and shutdown's collections would only re-scan the ~12 900 container
objects the imports built: after ``stretch --json`` on a 4-vertex
graph, shutdown took 1.8-2.5 ms, not 7.4-10.7 ms, on Python 3.10-3.13.

There is one ingest path of two functions. ``_scan`` checks the lines
and yields their edges run by run; ``_build`` pulls the runs, turns the
labels into ids and fills the adjacency rows, then validates. ``read_dag``
composes the two directly, so only the first appearance of each label
outlives its line. ``parse_edge_list`` and ``build_dag`` are the same two
functions with a list of label pairs between them.
"""

from __future__ import annotations

import gc
from collections import deque, namedtuple
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from functools import cached_property
from itertools import chain, repeat

# Vertices are dense integer indices in [0, n); external labels live in
# Dag.labels, and Dag.index_of maps them back, built from labels on first read.
VertexId = int


class DagError(Exception):
    """Base class for graph input and validation errors."""


class MalformedLine(DagError):
    """Edge-list line that is not an edge, a vertex, a comment, or blank."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class SelfLoop(DagError):
    def __init__(self, label: str):
        super().__init__(f"self-loop at '{label}'")
        self.label = label


class DuplicateEdge(DagError):
    def __init__(self, src: str, dst: str):
        super().__init__(f"duplicate edge: {src} -> {dst}")
        self.src = src
        self.dst = dst


class CycleDetected(DagError):
    """Input contains a directed cycle; ``cycle`` lists the labels on one."""

    def __init__(self, cycle: list[str]):
        super().__init__("cycle detected: " + " -> ".join([*cycle, cycle[0]]))
        self.cycle = cycle


class EmptyGraph(DagError):
    def __init__(self):
        super().__init__("graph has no vertices")


# A directed edge u -> v, both VertexId.
Edge = namedtuple("Edge", "u v")


# Labeled edges, as (FROM, TO) pairs, plus vertices declared without
# incident edges, both lists. Labels are non-empty strings with no
# whitespace. Neither field has a default: a namedtuple default is one
# list, shared by every input that takes it.
DagBuildInput = namedtuple("DagBuildInput", "edges isolated")


class Dag(namedtuple("Dag", "n m out_adj in_adj labels topo")):
    """Validated acyclic digraph. Treat all fields as read-only.

    ``out_adj[v]`` is sorted by target index and ``in_adj[v]`` by source
    index, ``labels`` maps index -> external label and ``topo`` is a
    topological order. Ingest keeps no label map: ``index_of`` is not a
    field but is built from ``labels`` when first read, since no
    analysis needs it.
    """

    @cached_property
    def index_of(self) -> dict[str, VertexId]:
        """External label -> index."""
        return dict(zip(self.labels, range(self.n)))


# Work one analysis call performed; each call returns fresh counters.
InstrumentationCounters = namedtuple(
    "InstrumentationCounters",
    "vertex_evaluations edge_examinations distance_updates",
    defaults=(0, 0, 0),
)


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, then restore the caller's state.

    Restoring rather than re-enabling keeps nested pauses, and callers
    that run with the collector off, as they were.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# Lines scanned, and edges added, per run: enough to keep the per-run
# overhead small, few enough that a run's token strings stay a small
# buffer rather than a copy of the input.
_RUN_LINES = 4096


def _scan(text: str, isolated: list[str]) -> Iterator[Iterator[tuple[str, str]]]:
    """Check every line of edge-list text and yield its edges run by run.

    Each run is the (FROM, TO) pairs of ``_RUN_LINES`` lines; lone
    vertices are appended to ``isolated`` as they are met. Each run's
    lines are dropped once scanned, so the memory the lines hold falls
    as the Dag grows.
    """
    lines = text.splitlines()
    for first in range(0, len(lines), _RUN_LINES):
        chunk = lines[first:first + _RUN_LINES]
        lines[first:first + _RUN_LINES] = repeat(None, len(chunk))
        run: list[str] = []  # FROM, TO, FROM, TO, ...
        extend = run.extend
        for lineno, tokens in enumerate(map(str.split, chunk), start=first + 1):
            # The common line, an edge, is decided by these two tests alone.
            if len(tokens) == 2 and tokens[0][0] != "#" and tokens[1][0] != "#":
                extend(tokens)
                continue
            if not tokens or tokens[0][0] == "#":
                continue
            if len(tokens) > 2:
                raise MalformedLine(
                    lineno, f"expected 'FROM TO' or a single vertex, got {len(tokens)} tokens"
                )
            if len(tokens) == 2:  # tokens[0] is no comment, so tokens[1] begins with "#"
                raise MalformedLine(lineno, f"label may not begin with '#': {tokens[1]!r}")
            isolated.append(tokens[0])
        yield zip(run[0::2], run[1::2])


def _build(runs: Iterable[Iterable[tuple[str, str]]], isolated: list[str]) -> Dag:
    """Turn labels into dense ids and fill the adjacency rows edge by edge,
    then add the lone vertices, validate and build the Dag.

    Only the first appearance of each label is kept, as a key of the
    interning dict, which is dropped once ``labels`` is taken from it.
    ``isolated`` is read only after the last edge, so the scanner may
    fill it while the runs arrive. The first self-loop is recorded, not
    raised, so that a malformed line later in the input is still the
    error reported. Errors come in the order self-loop (the first in edge
    order), duplicate edge (the smallest source, then its smallest
    target) and cycle (through the smallest vertex the toposort leaves).
    """
    index_of: dict[str, VertexId] = {}
    out_adj: list[list[VertexId]] = []
    in_adj: list[list[VertexId]] = []
    get = index_of.get
    loop: VertexId | None = None  # source of the first self-loop
    for a, b in chain.from_iterable(runs):
        u = get(a)
        if u is None:
            u = index_of[a] = len(out_adj)
            out_adj.append([])
            in_adj.append([])
        v = get(b)
        if v is None:
            v = index_of[b] = len(out_adj)
            out_adj.append([])
            in_adj.append([])
        if u == v and loop is None:
            loop = u
        out_adj[u].append(v)
        in_adj[v].append(u)
    for a in isolated:
        index_of.setdefault(a, len(index_of))
    lone = len(index_of) - len(out_adj)
    out_adj += [[] for _ in range(lone)]
    in_adj += [[] for _ in range(lone)]
    labels = list(index_of)
    del index_of, get  # the Dag keeps no label map
    if loop is not None:
        raise SelfLoop(labels[loop])
    m = sum(map(len, out_adj))
    deque(map(list.sort, out_adj), 0)
    deque(map(list.sort, in_adj), 0)
    if sum(map(len, map(set, out_adj))) != m:
        # Rows are scanned in index order, so the error names the smallest
        # source with a duplicate, then its smallest duplicated target.
        for u, row in enumerate(out_adj):
            for x, y in zip(row, row[1:]):
                if x == y:
                    raise DuplicateEdge(labels[u], labels[x])
    topo = _toposort(out_adj, in_adj, labels)
    return Dag(n=len(labels), m=m, out_adj=out_adj, in_adj=in_adj, labels=labels, topo=topo)


@_collector_paused()
def read_dag(text: str) -> Dag:
    """Parse edge-list text and build its Dag in one pass over the lines.

    Same checks, errors and result as ``build_dag(parse_edge_list(text))``,
    without holding a string pair per edge: labels become ids and edges
    go into the adjacency rows as the lines are scanned, and each run of
    lines is dropped once scanned, so the rows grow as the lines go.
    """
    isolated: list[str] = []
    return _build(_scan(text, isolated), isolated)


@_collector_paused()
def parse_edge_list(text: str) -> DagBuildInput:
    """Parse edge-list text: one "FROM TO" edge or one lone vertex per line.

    Blank lines are skipped; lines whose first non-blank character is '#'
    are comments. Labels are kept verbatim and may not begin with '#'.
    """
    isolated: list[str] = []
    return DagBuildInput(list(chain.from_iterable(_scan(text, isolated))), isolated)


@_collector_paused()
def build_dag(inp: DagBuildInput) -> Dag:
    """Build and validate a Dag: labels get indices in order of first
    appearance in ``inp.edges``, then the rest of ``inp.isolated`` in order.

    Raises SelfLoop, DuplicateEdge, or CycleDetected on invalid input; a
    Dag is returned only when a full topological order exists.
    """
    return _build([inp.edges], inp.isolated)


def _toposort(
    out_adj: list[list[VertexId]], in_adj: list[list[VertexId]], labels: list[str]
) -> list[VertexId]:
    """Kahn's algorithm, first in first out: the order itself is the queue.

    No result depends on which order this is. The vertices left on or
    after a cycle, and so the reported cycle, are the same in any.
    """
    indeg = [len(preds) for preds in in_adj]
    order = [v for v, d in enumerate(indeg) if not d]
    for u in order:  # the loop reads the vertices appended behind it
        for v in out_adj[u]:
            indeg[v] -= 1
            if not indeg[v]:
                order.append(v)
    if len(order) < len(labels):
        raise CycleDetected(_extract_cycle(in_adj, indeg, labels))
    return order


def _extract_cycle(
    in_adj: list[list[VertexId]], indeg: list[int], labels: list[str]
) -> list[str]:
    # Vertices left with positive residual in-degree all have a predecessor
    # among themselves, so walking predecessors must revisit a vertex.
    remaining = {v for v, d in enumerate(indeg) if d > 0}
    start = min(remaining)
    seen_at: dict[VertexId, int] = {}
    path: list[VertexId] = []
    u = start
    while u not in seen_at:
        seen_at[u] = len(path)
        path.append(u)
        u = min(p for p in in_adj[u] if p in remaining)
    cycle = path[seen_at[u]:]
    cycle.reverse()  # predecessor walk -> forward edge order
    lo = cycle.index(min(cycle))
    cycle = cycle[lo:] + cycle[:lo]
    return [labels[v] for v in cycle]


def weakly_connected_components(g: Dag) -> list[list[VertexId]]:
    """Components of the underlying undirected graph.

    Ordered by smallest member index; each component list is sorted.
    """
    comp = [-1] * g.n
    comps: list[list[VertexId]] = []
    out_adj, in_adj = g.out_adj, g.in_adj
    for s in range(g.n):
        if comp[s] != -1:
            continue
        cid = len(comps)
        comp[s] = cid
        members = [s]
        for u in members:  # the loop reads the vertices appended behind it
            for v in out_adj[u]:
                if comp[v] == -1:
                    comp[v] = cid
                    members.append(v)
            for v in in_adj[u]:
                if comp[v] == -1:
                    comp[v] = cid
                    members.append(v)
        members.sort()
        comps.append(members)
    return comps

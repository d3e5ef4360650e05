"""Layer assignment for graded DAGs, with a conflict witness otherwise.

A DAG is layerable here iff a labeling with label(v) = label(u) + 1 on
every edge exists. Both algorithms run one propagation kernel over the
underlying undirected graph. Each weak component is seeded with label 0
at its smallest-index vertex that has no label yet; every vertex taken
from the frontier then gives its unlabeled parents label-1 and its
unlabeled children label+1, and checks its labeled neighbors. Labels
within a component are forced once the seed is fixed, so the two
algorithms return equal assignments on layerable inputs. Components are
numbered in the order of their smallest vertex, and each is shifted so
its minimum layer is 0.

The two algorithms differ only in the frontier: ``layer_pq`` takes the
smallest pair from a heap of (label, index) pairs that the kernel builds
in a plain list with ``heapq``, ``layer_traversal`` the most recently
labeled vertex from a stack. On conflict each reports the first
disagreement its frontier meets: the vertex whose label differs from the
one the edge forces, and that edge.
"""

from __future__ import annotations

import heapq
from collections import namedtuple

from dagmetrics.core import Dag, Edge, EmptyGraph, InstrumentationCounters, VertexId


class LayerAssignment(namedtuple("LayerAssignment", "layer component_of")):
    """layer[v] = layer[u] + 1 on every edge (u, v); component_of holds
    weak component ids 0, 1, ... numbered by smallest vertex."""

    __slots__ = ()

    @property
    def components(self) -> int:
        """Number of weak components; 0 for a graph with no vertices."""
        return max(self.component_of, default=-1) + 1


# The first disagreement a frontier met: vertex already has
# existing_label, and via_edge forces attempted_label on it.
UnbalancedWitness = namedtuple("UnbalancedWitness", "vertex existing_label attempted_label via_edge")

LayeringOutcome = LayerAssignment | UnbalancedWitness


def layer_pq(g: Dag) -> tuple[LayeringOutcome, InstrumentationCounters]:
    """Label each component outward from its seed via a min-priority queue.

    Pops the minimum (label, index) entry; unlabeled parents get label-1,
    unlabeled children label+1, and each gets pushed exactly once.
    Already-labeled neighbors are verified against the edge constraint.
    vertex_evaluations counts pops (pushes equal pops by construction).
    """
    return _propagate(g, by_label=True)


def layer_traversal(g: Dag) -> tuple[LayeringOutcome, InstrumentationCounters]:
    """Label each component by depth-first propagation from its seed.

    Same outcome contract as layer_pq. Uses an explicit stack so a chain
    of millions of vertices cannot overflow the call stack; every vertex
    is evaluated once and every edge examined at most twice.
    """
    return _propagate(g, by_label=False)


def _propagate(g: Dag, by_label: bool) -> tuple[LayeringOutcome, InstrumentationCounters]:
    """The kernel of both algorithms; ``by_label`` picks the heap frontier."""
    if g.n == 0:
        raise EmptyGraph()
    in_adj, out_adj = g.in_adj, g.out_adj
    label: list[int | None] = [None] * g.n
    component_of = [0] * g.n
    lows: list[int] = []  # lowest label of each component
    frontier = []
    push, pop = frontier.append, frontier.pop
    if by_label:

        def push(v: VertexId) -> None:
            heapq.heappush(frontier, (label[v], v))

        def pop() -> VertexId:
            return heapq.heappop(frontier)[1]

    ve = 0
    ee = 0

    def counted(outcome: LayeringOutcome) -> tuple[LayeringOutcome, InstrumentationCounters]:
        return outcome, InstrumentationCounters(vertex_evaluations=ve, edge_examinations=ee)

    for seed in range(g.n):
        if label[seed] is not None:
            continue
        cid = len(lows)
        low = label[seed] = 0
        push(seed)
        while frontier:
            v = pop()
            ve += 1
            component_of[v] = cid
            lv = label[v]
            if lv < low:
                low = lv
            want = lv - 1
            for p in in_adj[v]:
                ee += 1
                got = label[p]
                if got is None:
                    label[p] = want
                    push(p)
                elif got != want:
                    return counted(UnbalancedWitness(p, got, want, Edge(p, v)))
            want = lv + 1
            for c in out_adj[v]:
                ee += 1
                got = label[c]
                if got is None:
                    label[c] = want
                    push(c)
                elif got != want:
                    return counted(UnbalancedWitness(c, got, want, Edge(v, c)))
        lows.append(low)
    layer = [lab - lows[cid] for lab, cid in zip(label, component_of)]
    return counted(LayerAssignment(layer=layer, component_of=component_of))


def check_balanced(g: Dag) -> tuple[bool, UnbalancedWitness | None]:
    """True iff a consistent layering exists, else False with the witness."""
    outcome, _ = layer_traversal(g)
    if isinstance(outcome, LayerAssignment):
        return True, None
    return False, outcome

"""Benchmark workloads: seeded edge-list inputs and the answers expected for them.

Each workload writes its inputs as edge-list files and lists the CLI
operations of one pass. Every workload runs the same five commands, so
every end-to-end metric is measured on every workload:

    stretch, diameter, diameter_verify, layer, check

Expected answers never come from the fast paths in ``dagmetrics.metrics``
or ``dagmetrics.layering``. On ``deep`` they are closed forms; elsewhere
they come from the package's independent oracles (per-source BFS for the
diameter, offset union-find for balance) and from the longest-path and
component code in this file.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from dagmetrics import DagBuildInput, core, oracle

# CLI arguments of each command; the input file is appended.
COMMANDS = {
    "stretch": ["stretch", "--json"],
    "diameter": ["diameter", "--json"],
    "diameter_verify": ["diameter", "--json", "--verify"],
    "layer": ["layer", "--json"],
    "check": ["check", "--json"],
}

# Extra flags on the small workload, where every oracle fits.
VERIFIED = {"stretch": ("--verify",), "layer": ("--verify",), "check": ("--verify",)}

# Tiny inputs: the only ones small enough for the path-enumeration oracles.
TINY_COUNT = 50
TINY_CYCLIC = 5


@dataclass
class Answer:
    """What a correct CLI must report for one input.

    ``succ`` (label -> successor labels) is kept for inputs whose witnesses
    are checked by walking the graph; ``layers`` holds an exact expected
    layering when one is known in closed form.
    """

    vertices: int = 0
    edges: int = 0
    components: int = 0
    stretch: int | None = None
    diameter: int | None = None
    balanced: bool | None = None
    layers: list[list[str]] | None = None
    succ: dict[str, list[str]] | None = None
    cyclic: bool = False


@dataclass
class Op:
    """One CLI process of a pass: a command on one input."""

    command: str
    input: str
    path: Path
    answer: Answer
    flags: tuple[str, ...] = ()

    @property
    def argv(self) -> list[str]:
        return [*COMMANDS[self.command], *self.flags, str(self.path)]

    @property
    def verify(self) -> bool:
        return "--verify" in self.argv


@dataclass
class Workload:
    name: str
    ops: list[Op]
    dag_input: str  # input whose Dag size is measured in the traced run
    diameter_input: str  # input whose diameter peak memory is measured


def write_edge_list(path: Path, edges, isolated) -> None:
    """Write the edge-list format that ``dagmetrics gen`` prints."""
    lines = [f"{a} {b}" for a, b in edges]
    lines.extend(isolated)
    path.write_text("\n".join(lines) + "\n")


def successors(edges, isolated) -> dict[str, list[str]]:
    succ: dict[str, list[str]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
        succ.setdefault(b, [])
    for a in isolated:
        succ.setdefault(a, [])
    return succ


def longest_path(succ: dict[str, list[str]]) -> int:
    """Longest directed path in edges, by Kahn order over labels."""
    indeg = dict.fromkeys(succ, 0)
    for outs in succ.values():
        for b in outs:
            indeg[b] += 1
    queue = deque(v for v, d in indeg.items() if d == 0)
    depth = dict.fromkeys(succ, 0)
    while queue:
        a = queue.popleft()
        for b in succ[a]:
            depth[b] = max(depth[b], depth[a] + 1)
            indeg[b] -= 1
            if indeg[b] == 0:
                queue.append(b)
    return max(depth.values())


def component_roots(succ: dict[str, list[str]]) -> dict[str, str]:
    """Map each vertex to one representative of its weak component."""
    parent = {v: v for v in succ}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, outs in succ.items():
        for b in outs:
            parent[find(a)] = find(b)
    return {v: find(v) for v in succ}


def derive(edges, isolated) -> Answer:
    """Expected answers for a generated acyclic input."""
    succ = successors(edges, isolated)
    g = core.build_dag(DagBuildInput(edges=list(edges), isolated=list(isolated)))
    return Answer(
        vertices=len(succ),
        edges=len(edges),
        components=len(set(component_roots(succ).values())),
        stretch=longest_path(succ),
        diameter=oracle.oracle_diameter(g),
        balanced=oracle.oracle_graded(g),
        succ=succ,
    )


# Sizes are chosen so that one pass of a workload takes a few seconds: the
# machine's speed drifts over seconds, so a steady median needs about ten
# samples of each command spread over a run. At 10^5 vertices ingest still
# dominates every deep command and GC takes about a fifth of it.
GRID_LAYERS = 50001  # width 2: 100002 vertices, 200000 edges
CHAIN = 100000
SHORT_CHAIN = 1000  # diameter = stretch = n - 1, O(n^2) reachable pairs
RANDOM_N, RANDOM_P = 1200, 0.025  # ~18k edges, mean out-degree 15


def _deep(work: Path, seed: int) -> Workload:
    # p = 1.0 makes every deep input independent of the seed.
    grid = oracle.gen_layered_dag(GRID_LAYERS, 2, 1.0, 7)
    write_edge_list(work / "grid.txt", grid.edges, grid.isolated)
    grid_answer = Answer(
        vertices=2 * GRID_LAYERS,
        edges=4 * (GRID_LAYERS - 1),
        components=1,
        balanced=True,
        layers=[[str(2 * k), str(2 * k + 1)] for k in range(GRID_LAYERS)],
    )
    del grid
    chain = oracle.gen_layered_dag(CHAIN, 1, 1.0, 8)
    write_edge_list(work / "chain.txt", chain.edges, chain.isolated)
    chain_answer = Answer(vertices=CHAIN, edges=CHAIN - 1, components=1, stretch=CHAIN - 1, balanced=True)
    del chain
    short = oracle.gen_layered_dag(SHORT_CHAIN, 1, 1.0, 8)
    write_edge_list(work / "chain1k.txt", short.edges, short.isolated)
    short_answer = Answer(
        vertices=SHORT_CHAIN,
        edges=SHORT_CHAIN - 1,
        components=1,
        stretch=SHORT_CHAIN - 1,
        diameter=SHORT_CHAIN - 1,
        balanced=True,
        succ=successors(short.edges, short.isolated),
    )
    answers = {"grid": grid_answer, "chain": chain_answer, "chain1k": short_answer}
    plan = [
        ("layer", "grid"),
        ("stretch", "chain"),
        ("check", "chain"),
        ("diameter", "chain1k"),
        ("diameter_verify", "chain1k"),
    ]
    ops = [Op(c, name, work / f"{name}.txt", answers[name]) for c, name in plan]
    return Workload("deep", ops, dag_input="grid", diameter_input="chain1k")


def _wide(work: Path, seed: int) -> Workload:
    inp = oracle.gen_random_dag(RANDOM_N, RANDOM_P, seed)
    path = work / "random.txt"
    write_edge_list(path, inp.edges, inp.isolated)
    answer = derive(inp.edges, inp.isolated)
    ops = [Op(c, "random", path, answer) for c in COMMANDS]
    return Workload("wide", ops, dag_input="random", diameter_input="random")


def _tiny_graphs(seed: int):
    """Seeded graphs with at most 12 vertices: layered, random, cyclic."""
    rng = random.Random(seed)
    graphs = []
    for i in range(TINY_COUNT - TINY_CYCLIC):
        if i % 2 == 0:
            layers = rng.randint(2, 4)
            width = rng.randint(1, 12 // layers)
            inp = oracle.gen_layered_dag(layers, width, rng.uniform(0.3, 1.0), rng.randrange(2**31))
        else:
            inp = oracle.gen_random_dag(rng.randint(4, 12), rng.uniform(0.2, 0.6), rng.randrange(2**31))
        graphs.append((inp.edges, inp.isolated, False))
    while len(graphs) < TINY_COUNT:
        inp = oracle.gen_random_dag(rng.randint(3, 12), rng.uniform(0.3, 0.7), rng.randrange(2**31))
        if inp.edges:
            a, b = inp.edges[rng.randrange(len(inp.edges))]
            graphs.append(([*inp.edges, (b, a)], inp.isolated, True))
    return graphs


def _small(work: Path, seed: int) -> Workload:
    ops = []
    largest = None
    for i, (edges, isolated, cyclic) in enumerate(_tiny_graphs(seed)):
        name = f"tiny{i:02d}"
        path = work / f"{name}.txt"
        write_edge_list(path, edges, isolated)
        if cyclic:
            answer = Answer(cyclic=True)
        else:
            answer = derive(edges, isolated)
            if largest is None or answer.edges > largest[1]:
                largest = (name, answer.edges)
        # Every command but plain diameter cross-checks with an oracle here.
        ops.extend(Op(c, name, path, answer, VERIFIED.get(c, ())) for c in COMMANDS)
    return Workload("small", ops, dag_input=largest[0], diameter_input=largest[0])


SETUPS = {"deep": _deep, "wide": _wide, "small": _small}


def setup(name: str, work: Path, seed: int) -> Workload:
    """Generate the inputs of a workload, write them and derive the answers."""
    work.mkdir(parents=True, exist_ok=True)
    return SETUPS[name](work, seed)

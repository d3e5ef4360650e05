"""Check one CLI result (exit code and JSON report) against its expected answer.

Witnesses are checked for validity, never byte for byte: a diameter
witness must be a pair at the reported distance, and an unbalanced
witness must name an existing edge, one of its endpoints, and two
different labels. Counters are not checked. Cyclic inputs must exit 2;
their error text is not checked.
"""

from __future__ import annotations

import json
from collections import deque

from pathlib import Path

from workloads import Answer, Op, component_roots


def check(op: Op, code: int, out: str) -> str | None:
    """Return None when the result of ``op`` is correct, else what is wrong with it."""
    command, answer = op.command, op.answer
    if answer.cyclic:
        return None if code == 2 else f"exit {code} on a cyclic input, expected 2"
    want = 1 if command == "check" and not answer.balanced else 0
    if code != want:
        return f"exit {code}, expected {want}"
    try:
        report = json.loads(out)
    except ValueError:
        return "stdout is not one JSON report"
    graph = {"vertices": answer.vertices, "edges": answer.edges, "components": answer.components}
    if report.get("input") != graph:
        return f"input {report.get('input')}, expected {graph}"
    if report.get("verified") is not (True if op.verify else None):
        return f"verified {report.get('verified')}"
    result = report["result"]
    if command == "stretch":
        if result["stretch"] != answer.stretch:
            return f"stretch {result['stretch']}, expected {answer.stretch}"
        return None
    if command.startswith("diameter"):
        if result["diameter"] != answer.diameter:
            return f"diameter {result['diameter']}, expected {answer.diameter}"
        return _diameter_witness(answer, result["witness"])
    if result["balanced"] != answer.balanced:
        return f"balanced {result['balanced']}, expected {answer.balanced}"
    if not answer.balanced:
        return _conflict_witness(answer, result["witness"])
    if command == "layer":
        return _layers(answer, result["layers"])
    return None


def _diameter_witness(answer: Answer, witness) -> str | None:
    if answer.diameter == 0:
        return None if witness is None else f"witness {witness} for diameter 0"
    if not isinstance(witness, list) or len(witness) != 2:
        return f"witness {witness!r}"
    u, v = witness
    if u not in answer.succ or v not in answer.succ:
        return f"witness {witness} names unknown vertices"
    dist = {u: 0}
    queue = deque([u])
    while queue and v not in dist:
        x = queue.popleft()
        for y in answer.succ[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    if dist.get(v) != answer.diameter:
        return f"witness {witness} is at distance {dist.get(v)}, not {answer.diameter}"
    return None


def _conflict_witness(answer: Answer, witness) -> str | None:
    try:
        a, b = witness["edge"]
        ok = (
            b in answer.succ.get(a, ())
            and witness["vertex"] in (a, b)
            and witness["existing"] != witness["attempted"]
        )
    except (KeyError, TypeError, ValueError):
        ok = False
    return None if ok else f"invalid conflict witness {witness!r}"


def _layers(answer: Answer, layers) -> str | None:
    if answer.layers is not None:
        return None if layers == answer.layers else "layers differ from the closed form"
    layer_of = {}
    for k, members in enumerate(layers):
        for v in members:
            if v in layer_of:
                return f"vertex {v} in two layers"
            layer_of[v] = k
    if layer_of.keys() != answer.succ.keys():
        return "layers do not cover the vertices exactly"
    for a, outs in answer.succ.items():
        for b in outs:
            if layer_of[b] != layer_of[a] + 1:
                return f"edge {a} -> {b} does not advance one layer"
    low: dict[str, int] = {}
    for v, root in component_roots(answer.succ).items():
        low[root] = min(low.get(root, layer_of[v]), layer_of[v])
    if any(x != 0 for x in low.values()):
        return "a component does not start at layer 0"
    return None


def self_test() -> None:
    """The checker must count a wrong answer and a wrong exit code as failures."""
    diamond = Answer(
        vertices=4, edges=4, components=1, stretch=2, diameter=2, balanced=True,
        succ={"0": ["1", "2"], "1": ["3"], "2": ["3"], "3": []},
    )
    report = {
        "command": "stretch",
        "input": {"vertices": 4, "edges": 4, "components": 1},
        "result": {"stretch": 2, "witness_source": "0"},
        "counters": {},
        "verified": None,
    }
    right = json.dumps(report)
    report["result"]["stretch"] = 3
    wrong = json.dumps(report)
    op = Op("stretch", "diamond", Path("diamond.txt"), diamond)
    results = [check(op, 0, right), check(op, 0, wrong), check(op, 1, right)]
    failed = sum(r is not None for r in results)
    if results[0] is not None or failed != 2:
        raise AssertionError(f"checker self-test: {results}")

"""Command-line front end: stretch, diameter, layer, check, gen.

Exit codes: 0 success, 1 unbalanced verdict from `check`, 2 input errors
(parse failures, cycles, input that is not UTF-8), 3 usage errors. A
stdout closed by its reader ends the run quietly with 0. Human output
shows external vertex labels only; JSON output follows a
fixed-field-order schema and is emitted as a single line.

`--verify` compares what the command reports with the matching oracle's
own answer; no checking logic lives here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from dagmetrics import core, layering, metrics, oracle
from dagmetrics.core import Dag, DagError
from dagmetrics.layering import LayerAssignment, UnbalancedWitness
from dagmetrics.metrics import InstrumentationCounters

ORACLE_BOUND_ENV = "DAGMETRICS_ORACLE_BOUND"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dagmetrics", description="DAG stretch, diameter, and layering analysis")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable report")
    common.add_argument("--verify", action="store_true", help="cross-check against the brute-force oracle")

    p = sub.add_parser("stretch", parents=[common], help="longest directed path length")
    p.add_argument("file", help="edge-list file, or - for stdin")
    p.add_argument("--per-vertex", action="store_true", help="also print lp for every vertex")
    p.set_defaults(func=_cmd_stretch)

    p = sub.add_parser("diameter", parents=[common], help="maximum shortest directed distance")
    p.add_argument("file", help="edge-list file, or - for stdin")
    p.add_argument("--all-pairs", action="store_true", help="also dump every shortest distance")
    p.set_defaults(func=_cmd_diameter)

    p = sub.add_parser("layer", parents=[common], help="assign layers or report a conflict")
    p.add_argument("file", help="edge-list file, or - for stdin")
    p.add_argument("--algo", choices=["pq", "traversal"], default="traversal")
    p.set_defaults(func=_cmd_layer)

    p = sub.add_parser("check", parents=[common], help="balanced verdict (exit 1 when unbalanced)")
    p.add_argument("file", help="edge-list file, or - for stdin")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", parents=[common], help="emit a seeded random DAG as edge-list text")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="vertex count for the permutation model")
    group.add_argument("--layered", nargs=2, type=int, metavar=("L", "W"), help="L layers of width W")
    p.add_argument("--p", type=float, required=True, help="edge probability")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_gen)
    return parser


def _read_text(path: str) -> str:
    """The input as text; bytes that are not UTF-8 are an input error.

    Bytes are decoded here rather than by the text layer, because stdin
    under a C or POSIX locale decodes with surrogateescape and would let
    bad bytes through. One leading byte-order mark is dropped after
    decoding, so a bad byte's offset still counts the mark's bytes.
    """
    if path == "-":
        data = sys.stdin.buffer.read()
        name = "<stdin>"
    else:
        with open(path, "rb") as fh:
            data = fh.read()
        name = path
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DagError(
            f"{name}: not UTF-8 text (byte 0x{data[e.start]:02x} at offset {e.start})"
        ) from None
    return text[1:] if text.startswith("\ufeff") else text


def _load(path: str) -> Dag:
    return core.read_dag(_read_text(path))


def _oracle_bound() -> int:
    raw = os.environ.get(ORACLE_BOUND_ENV)
    if raw is None:
        return oracle.SMALL_GRAPH_BOUND
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"{ORACLE_BOUND_ENV} must be an integer, got {raw!r}")


def _plural(n: int, singular: str, plural: str | None = None) -> str:
    if n == 1:
        return f"{n} {singular}"
    return f"{n} {plural or singular + 's'}"


def _summary(g: Dag, components: int) -> str:
    return (
        f"graph: {_plural(g.n, 'vertex', 'vertices')}, "
        f"{_plural(g.m, 'edge')}, {_plural(components, 'component')}"
    )


def _report(command: str, g: Dag, components: int, result: dict,
            counters: InstrumentationCounters, verified: bool | None) -> dict:
    return {
        "command": command,
        "input": {"vertices": g.n, "edges": g.m, "components": components},
        "result": result,
        "counters": {
            "vertex_evaluations": counters.vertex_evaluations,
            "edge_examinations": counters.edge_examinations,
            "distance_updates": counters.distance_updates,
        },
        "verified": verified,
    }


def _emit_json(report: dict) -> None:
    print(json.dumps(report, separators=(",", ":")))


def _verified_line(verified: bool | None, note: str | None) -> str:
    if verified is None:
        return f"verified: {note}"
    return f"verified: {str(verified).lower()}"


def _cmd_stretch(args) -> int:
    g = _load(args.file)
    components = len(core.weakly_connected_components(g))
    res, counters = metrics.stretch(g)
    verified = None
    note = None
    if args.verify:
        bound = _oracle_bound()
        if g.n <= bound:
            verified = res.stretch == oracle.oracle_stretch(g, bound)
        else:
            note = f"skipped (n={g.n} exceeds oracle bound {bound})"
    result = {
        "stretch": res.stretch,
        "witness_source": g.labels[res.witness_source],
        "witness_source_index": res.witness_source,
        "lp": {g.labels[v]: res.lp[v] for v in range(g.n)} if args.per_vertex else None,
    }
    if args.json:
        _emit_json(_report("stretch", g, components, result, counters, verified))
    else:
        lines = [
            _summary(g, components),
            f"stretch: {res.stretch}",
            f"witness source: {g.labels[res.witness_source]}",
        ]
        if args.per_vertex:
            lines += [f"lp[{g.labels[v]}] = {res.lp[v]}" for v in range(g.n)]
        if args.verify:
            lines.append(_verified_line(verified, note))
        print("\n".join(lines))
    return 0


def _cmd_diameter(args) -> int:
    g = _load(args.file)
    components = len(core.weakly_connected_components(g))
    if args.all_pairs:
        # The rows are part of the output, so the sweep is the one engine.
        rows, counters = metrics.all_pairs_distances(g)
        res = metrics._diameter_from_rows(rows)
    else:
        res, counters = metrics.diameter(g)
        rows = None
    verified = None
    if args.verify:
        verified = (res.diameter, res.witness, rows) == oracle.bfs_diameter(g, args.all_pairs)
    witness_labels = None
    if res.witness is not None:
        witness_labels = [g.labels[res.witness[0]], g.labels[res.witness[1]]]
    result = {
        "diameter": res.diameter,
        "witness": witness_labels,
        "witness_indices": list(res.witness) if res.witness is not None else None,
        "distances": (
            {g.labels[u]: {g.labels[v]: rows[u][v] for v in sorted(rows[u])} for u in sorted(rows)}
            if args.all_pairs
            else None
        ),
    }
    if args.json:
        _emit_json(_report("diameter", g, components, result, counters, verified))
    else:
        lines = [_summary(g, components), f"diameter: {res.diameter}"]
        if res.witness is None:
            lines.append("witness: none")
        else:
            lines.append(f"witness: {g.labels[res.witness[0]]} -> {g.labels[res.witness[1]]}")
        if args.all_pairs:
            for u in sorted(rows):
                for v in sorted(rows[u]):
                    lines.append(f"d[{g.labels[u]} -> {g.labels[v]}] = {rows[u][v]}")
        if args.verify:
            lines.append(_verified_line(verified, None))
        print("\n".join(lines))
    return 0


def _layers(g: Dag, assignment: LayerAssignment) -> list[list[str]]:
    """Labels by layer, each layer sorted.

    Every layer from 0 to the highest is occupied: each component starts
    at 0 and every edge steps up exactly one layer.
    """
    groups: list[list[str]] = [[] for _ in range(max(assignment.layer) + 1)]
    for label, k in zip(g.labels, assignment.layer):
        groups[k].append(label)
    for group in groups:
        group.sort()
    return groups


def _conflict(g: Dag, w: UnbalancedWitness) -> dict:
    return {
        "vertex": g.labels[w.vertex],
        "existing": w.existing_label,
        "attempted": w.attempted_label,
        "edge": [g.labels[w.via_edge.u], g.labels[w.via_edge.v]],
    }


def _conflict_line(g: Dag, w: UnbalancedWitness) -> str:
    return (
        f"conflict at {g.labels[w.vertex]}: existing label {w.existing_label}, "
        f"attempted {w.attempted_label}, via edge "
        f"{g.labels[w.via_edge.u]} -> {g.labels[w.via_edge.v]}"
    )


def _components(g: Dag, outcome) -> int:
    """Weak component count: a balanced layering carries it, a conflict
    stops the layering early and leaves it to a pass of its own."""
    if isinstance(outcome, LayerAssignment):
        return outcome.components
    return len(core.weakly_connected_components(g))


def _cmd_layer(args) -> int:
    g = _load(args.file)
    algo = layering.layer_pq if args.algo == "pq" else layering.layer_traversal
    outcome, counters = algo(g)
    balanced = isinstance(outcome, LayerAssignment)
    components = _components(g, outcome)
    verified = (outcome if balanced else None) == oracle.oracle_layers(g) if args.verify else None
    layers = _layers(g, outcome) if balanced else None
    if args.json:
        result = {
            "balanced": balanced,
            "layers": layers,
            "witness": None if balanced else _conflict(g, outcome),
        }
        _emit_json(_report("layer", g, components, result, counters, verified))
    else:
        lines = [_summary(g, components), f"balanced: {'yes' if balanced else 'no'}"]
        if balanced:
            lines += [f"layer {k}: " + " ".join(names) for k, names in enumerate(layers)]
        else:
            lines.append(_conflict_line(g, outcome))
        if args.verify:
            lines.append(_verified_line(verified, None))
        print("\n".join(lines))
    return 0


def _cmd_check(args) -> int:
    g = _load(args.file)
    outcome, counters = layering.layer_traversal(g)
    balanced = isinstance(outcome, LayerAssignment)
    components = _components(g, outcome)
    verified = (outcome if balanced else None) == oracle.oracle_layers(g) if args.verify else None
    if args.json:
        result = {"balanced": balanced, "witness": None if balanced else _conflict(g, outcome)}
        _emit_json(_report("check", g, components, result, counters, verified))
    else:
        lines = [_summary(g, components), f"balanced: {'yes' if balanced else 'no'}"]
        if not balanced:
            lines.append(_conflict_line(g, outcome))
        if args.verify:
            lines.append(_verified_line(verified, None))
        print("\n".join(lines))
    return 0 if balanced else 1


def _cmd_gen(args) -> int:
    if not 0.0 <= args.p <= 1.0:
        raise _UsageError(f"--p must be in [0, 1], got {args.p}")
    if args.layered is not None:
        layers, width = args.layered
        if layers < 1 or width < 1:
            raise _UsageError("--layered needs L >= 1 and W >= 1")
        inp = oracle.gen_layered_dag(layers, width, args.p, args.seed)
    else:
        if args.n < 0:
            raise _UsageError(f"--n must be >= 0, got {args.n}")
        inp = oracle.gen_random_dag(args.n, args.p, args.seed)
    lines = [f"{a} {b}" for a, b in inp.edges] + list(inp.isolated)

    if args.json or args.verify:
        g = core.build_dag(inp)  # generated output is acyclic by construction
        components = len(core.weakly_connected_components(g))
        verified = None
        if args.verify:
            verified = oracle.oracle_graded(g) if args.layered is not None else True
        if args.json:
            result = {"edges": [[a, b] for a, b in inp.edges], "isolated": list(inp.isolated)}
            _emit_json(_report("gen", g, components, result, InstrumentationCounters(), verified))
            return 0
        # text mode keeps stdout parseable; the verdict goes to stderr
        print(_verified_line(verified, None), file=sys.stderr)
    if lines:
        print("\n".join(lines))
    return 0


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 3
    except SystemExit as e:  # --help
        return int(e.code or 0)
    try:
        with core._collector_paused():
            return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 3
    except DagError as e:
        print(str(e), file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise  # stdout closed by the reader; main() ends quietly
    except OSError as e:
        print(str(e), file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader (e.g. `head`) has what it wanted. Point stdout at
        # devnull so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()

"""Command-line front end: stretch, diameter, layer, check, gen.

`check` is `layer`'s verdict and conflict witness without the layers,
always with the traversal frontier (it has no --algo), and exits 1
when the graph is unbalanced. One command body runs both.

Exit codes: 0 success, 1 unbalanced verdict from `check`, 2 input errors
(parse failures, cycles, input that is not UTF-8, a closed stdin, input
too large for memory), 3 usage errors, 130 an interrupt (SIGINT), with
one stderr line and no traceback. A label that stdout cannot encode
prints with backslash escapes, as on stderr. A stdout closed by its
reader ends the run quietly with 0. A closed stderr drops the error
message, and a stdout closed before the start drops the report; either
way the exit code stands.

Each command builds its `result` once, with external vertex labels,
and prints one report through `_print_report`: under --json a single
line with the fixed key order `command, input, result, counters,
verified`; otherwise text that shows the same facts as `result`,
rendered from it by the command's text function.

Under --verify, each command hands `_print_report` its comparison with
the matching oracle's own answer, and no other checking logic lives
here. The printer runs it once, before the component pass and before
any report line is written, so a forked oracle child never holds report
text. Past an oracle's fixed size bound, every command reports the same
way: `verified` is null and the text says `skipped (<reason>)`.

`main` freezes the heap (`gc.freeze`) just before `sys.exit`, whatever
the exit code, so the collections of interpreter shutdown skip the
objects the imports built; shutdown still runs atexit handlers and
flushes the streams. `run` never freezes: a caller that lives on keeps a
heap the collector can reach.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from dagmetrics import core, layering, metrics, oracle
from dagmetrics.core import Dag, DagError, InstrumentationCounters
from dagmetrics.layering import LayerAssignment, UnbalancedWitness


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

    graph = _Parser(add_help=False)
    graph.add_argument("file", help="edge-list file, or - for stdin")

    p = sub.add_parser("stretch", parents=[common, graph], help="longest directed path length")
    p.add_argument("--per-vertex", action="store_true", help="also print lp for every vertex")
    p.set_defaults(func=_cmd_stretch)

    p = sub.add_parser("diameter", parents=[common, graph], help="maximum shortest directed distance")
    p.add_argument("--all-pairs", action="store_true", help="also dump every shortest distance")
    p.set_defaults(func=_cmd_diameter)

    p = sub.add_parser("layer", parents=[common, graph], help="assign layers or report a conflict")
    p.add_argument("--algo", choices=["pq", "traversal"], default="traversal")
    p.set_defaults(func=_cmd_layer)

    p = sub.add_parser("check", parents=[common, graph], help="balanced verdict (exit 1 when unbalanced)")
    p.set_defaults(func=_cmd_layer, algo="traversal")

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
        if sys.stdin is None:  # the process started with stdin closed
            raise DagError("<stdin>: standard input is closed")
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


def _warn(message: str) -> None:
    """Print one line to stderr. A closed stderr drops it, so a failed
    write cannot replace the exit code of the error it reports."""
    if sys.stderr is None:  # the process started with stderr closed
        return
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass


def _plural(n: int, singular: str, plural: str | None = None) -> str:
    if n == 1:
        return f"{n} {singular}"
    return f"{n} {plural or singular + 's'}"


def _print_report(args, g: Dag, result: dict, render,
                  counters: InstrumentationCounters, check, *,
                  components: int | None = None, bare: bool = False) -> None:
    """Print the command's one report: a JSON line under --json, else text.

    Under --verify, check() is called first, once, and says whether the
    report agrees with the oracle; an oracle past its bound (TooLarge)
    leaves `verified` null, and the text says `skipped (<reason>)`.
    The text is the `graph:` summary line, render(result), and under
    --verify the `verified:` line. A `bare` text is output meant as
    input, an edge list: it has no summary line, and its verdict goes to
    stderr. `components` is the weak component count when the command's
    own layering found it; otherwise the summary counts them in a pass
    of its own.
    """
    verified = note = None
    if args.verify:
        try:
            verified = check()
        except oracle.TooLarge as e:
            note = f"skipped ({e})"
    if components is None and (args.json or not bare):
        components = len(core.weakly_connected_components(g))
    if args.json:
        report = {
            "command": args.command,
            "input": {"vertices": g.n, "edges": g.m, "components": components},
            "result": result,
            "counters": counters._asdict(),
            "verified": verified,
        }
        print(json.dumps(report, separators=(",", ":")))
        return
    lines = render(result)
    if not bare:
        lines.insert(0, f"graph: {_plural(g.n, 'vertex', 'vertices')}, "
                        f"{_plural(g.m, 'edge')}, "
                        f"{_plural(components, 'component')}")
    if args.verify:
        verdict = f"verified: {note or str(verified).lower()}"
        if bare:
            _warn(verdict)
        else:
            lines.append(verdict)
    if lines:
        print("\n".join(lines))


def _stretch_text(result: dict) -> list[str]:
    lines = [f"stretch: {result['stretch']}", f"witness source: {result['witness_source']}"]
    if result["lp"] is not None:
        lines += [f"lp[{label}] = {lp}" for label, lp in result["lp"].items()]
    return lines


def _cmd_stretch(args) -> int:
    g = _load(args.file)
    res, counters = metrics.stretch(g)
    result = {
        "stretch": res.stretch,
        "witness_source": g.labels[res.witness_source],
        "witness_source_index": res.witness_source,
        "lp": dict(zip(g.labels, res.lp)) if args.per_vertex else None,
    }
    _print_report(args, g, result, _stretch_text, counters,
                  lambda: res.stretch == oracle.oracle_stretch(g))
    return 0


def _diameter_text(result: dict) -> list[str]:
    witness = result["witness"]
    lines = [
        f"diameter: {result['diameter']}",
        "witness: none" if witness is None else f"witness: {witness[0]} -> {witness[1]}",
    ]
    if result["distances"] is not None:
        lines += [
            f"d[{u} -> {v}] = {d}" for u, row in result["distances"].items() for v, d in row.items()
        ]
    return lines


def _cmd_diameter(args) -> int:
    g = _load(args.file)
    if args.all_pairs:
        # The rows are part of the output, so the sweep is the one engine.
        rows, counters = metrics.all_pairs_distances(g)
        res = metrics._diameter_from_rows(rows)
    else:
        res, counters = metrics.diameter(g)
        rows = None
    labels = g.labels
    result = {
        "diameter": res.diameter,
        "witness": None if res.witness is None else [labels[v] for v in res.witness],
        "witness_indices": None if res.witness is None else list(res.witness),
        "distances": (
            {labels[u]: {labels[v]: rows[u][v] for v in sorted(rows[u])} for u in sorted(rows)}
            if args.all_pairs
            else None
        ),
    }
    _print_report(args, g, result, _diameter_text, counters,
                  lambda: (res.diameter, res.witness, rows) == oracle.bfs_diameter(g, args.all_pairs))
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


def _layer_text(result: dict) -> list[str]:
    if result["balanced"]:
        lines = ["balanced: yes"]
    else:
        w = result["witness"]
        lines = [
            "balanced: no",
            f"conflict at {w['vertex']}: existing label {w['existing']}, "
            f"attempted {w['attempted']}, via edge {w['edge'][0]} -> {w['edge'][1]}",
        ]
    # only a balanced `layer` result holds layers; `check`'s has no such key
    layers = result.get("layers") or []
    return lines + [f"layer {k}: " + " ".join(names) for k, names in enumerate(layers)]


def _cmd_layer(args) -> int:
    """`layer`, and `check`, which is `layer --algo traversal` without the
    layers in its result and with exit 1 when unbalanced."""
    g = _load(args.file)
    algo = layering.layer_pq if args.algo == "pq" else layering.layer_traversal
    outcome, counters = algo(g)
    balanced = isinstance(outcome, LayerAssignment)
    result = {"balanced": balanced}
    if args.command == "layer":
        result["layers"] = _layers(g, outcome) if balanced else None
    result["witness"] = None if balanced else _conflict(g, outcome)
    _print_report(args, g, result, _layer_text, counters,
                  lambda: (outcome if balanced else None) == oracle.oracle_layers(g),
                  components=outcome.components if balanced else None)
    return 1 if args.command == "check" and not balanced else 0


def _gen_text(result: dict) -> list[str]:
    return [f"{a} {b}" for a, b in result["edges"]] + result["isolated"]


def _cmd_gen(args) -> int:
    if not 0.0 <= args.p <= 1.0:
        raise _UsageError(f"--p must be in [0, 1], got {args.p}")
    if args.layered is not None:
        layers, width = args.layered
        if layers < 1 or width < 1:
            raise _UsageError("--layered needs L >= 1 and W >= 1")
        if layers * width > sys.maxsize:  # more vertices than a list can hold
            raise _UsageError(f"--layered needs L*W <= {sys.maxsize}, got {layers * width}")
        inp = oracle.gen_layered_dag(layers, width, args.p, args.seed)
    else:
        if args.n < 0:
            raise _UsageError(f"--n must be >= 0, got {args.n}")
        if args.n > sys.maxsize:
            raise _UsageError(f"--n must be <= {sys.maxsize}, got {args.n}")
        inp = oracle.gen_random_dag(args.n, args.p, args.seed)
    # acyclic by construction; only the JSON input counts and the check read
    # the graph, and the edge list alone is printed faster without one
    g = core.build_dag(inp) if args.json or args.verify else None
    # the edge pairs are tuples, which JSON writes as arrays
    result = {"edges": inp.edges, "isolated": inp.isolated}
    _print_report(args, g, result, _gen_text, InstrumentationCounters(),
                  lambda: args.layered is None or oracle.oracle_graded(g), bare=True)
    return 0


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        _warn(f"usage error: {e}")
        return 3
    except SystemExit as e:  # --help
        return int(e.code or 0)
    try:
        with core._collector_paused():
            return args.func(args)
    except _UsageError as e:
        _warn(f"usage error: {e}")
        return 3
    except DagError as e:
        _warn(str(e))
        return 2
    except MemoryError:
        _warn(f"{args.command}: out of memory")
        return 2
    except KeyboardInterrupt:
        _warn(f"{args.command}: interrupted")
        return 130
    except BrokenPipeError:
        raise  # stdout closed by the reader; main() ends quietly
    except OSError as e:
        _warn(str(e))
        return 2


def main() -> None:
    if sys.stdout is not None:  # a label the encoding lacks prints escaped, as on stderr
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        code = run()
        if sys.stdout is not None:  # None when the process started with stdout closed
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader (e.g. `head`) has what it wanted. Point stdout at
        # devnull so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 0
    # shutdown's collections would only re-scan what the imports built
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()

"""Acceptance gate: every shipped guarantee, checked end to end.

Each test covers one numbered guarantee and prints a single
``acceptance N: PASS/FAIL`` line (visible even under pytest capture),
so a teed log shows the verdict for all nine at a glance.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

from dagmetrics import (
    LayerAssignment,
    UnbalancedWitness,
    all_pairs_distances,
    bfs_distances,
    build_dag,
    check_balanced,
    cli,
    diameter,
    gen_layered_dag,
    layer_pq,
    layer_traversal,
    oracle_all_paths_equal,
    oracle_diameter,
    oracle_graded,
    oracle_stretch,
    stretch,
)
from graphs import analytic_graphs, corpus_large, corpus_small, gap, skewed

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(capsys, num, title):
    try:
        yield
    except BaseException:
        _announce(capsys, num, title, "FAIL")
        raise
    _announce(capsys, num, title, "PASS")


def _announce(capsys, num, title, verdict):
    with capsys.disabled():
        print(f"\nacceptance {num}: {verdict} — {title}", flush=True)


def test_c1_stretch_equals_exhaustive_enumeration(capsys):
    with criterion(capsys, 1, "stretch matches path-enumeration oracle on 500 graphs"):
        started = time.perf_counter()
        for g in corpus_small():
            res, _ = stretch(g)
            assert res.stretch == oracle_stretch(g)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_c2_diameter_equals_bfs_oracle(capsys):
    with criterion(capsys, 2, "diameter and all distances match BFS oracle on 600 graphs"):
        started = time.perf_counter()
        for g in corpus_small() + corpus_large():
            res, _ = diameter(g)
            assert res.diameter == oracle_diameter(g)
            rows, _ = all_pairs_distances(g)
            for u in range(g.n):
                assert rows.get(u, {}) == bfs_distances(g, u)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_c3_layer_or_detect(capsys):
    with criterion(capsys, 3, "layering verdict matches constraint oracle; assignments are sound"):
        for g in corpus_small() + corpus_large():
            balanced, _ = check_balanced(g)
            assert balanced == oracle_graded(g)
            if not balanced:
                continue
            out, _ = layer_traversal(g)
            assert isinstance(out, LayerAssignment)
            for u in range(g.n):
                for v in g.out_adj[u]:
                    assert out.layer[v] == out.layer[u] + 1
            lows = {}
            for v in range(g.n):
                cid = out.component_of[v]
                lows[cid] = min(lows.get(cid, out.layer[v]), out.layer[v])
            assert all(low == 0 for low in lows.values())


def test_c4_both_layering_algorithms_agree(capsys):
    with criterion(capsys, 4, "priority-queue and traversal layerings agree everywhere"):
        for g in list(corpus_small()) + list(corpus_large()) + analytic_graphs():
            a, _ = layer_pq(g)
            b, _ = layer_traversal(g)
            if isinstance(a, LayerAssignment):
                assert a == b
            else:
                assert isinstance(b, UnbalancedWitness)


def test_c5_complexity_counters(capsys):
    with criterion(capsys, 5, "instrumentation counters stay within the claimed budgets"):
        for g in list(corpus_small()) + list(corpus_large()) + analytic_graphs():
            if g.n:
                sres, c = stretch(g)
                assert c.vertex_evaluations == g.n
                assert c.edge_examinations == g.m
                # the reach rounds run at most stretch+1 times; the BFS
                # engine makes the pass plus one BFS per source it tries,
                # which can exceed this off these graphs (see metrics)
                _, c = diameter(g)
                assert c.vertex_evaluations <= (sres.stretch + 1) * g.n
                assert c.edge_examinations <= (sres.stretch + 1) * g.m
                assert c.distance_updates <= g.m * g.n
            out, c = layer_traversal(g)
            if isinstance(out, LayerAssignment):
                assert c.vertex_evaluations == g.n  # every vertex settled once
            else:
                assert c.vertex_evaluations <= g.n  # early abort only saves work
            assert c.edge_examinations <= 2 * g.m
            _, c = all_pairs_distances(g)
            assert c.distance_updates <= g.m * g.n


def test_c6_scale_and_stack_safety(capsys):
    with criterion(capsys, 6, "10^6-vertex graphs analyzed iteratively in under 10s"):

        def timed_region(g):
            started = time.perf_counter()
            res, _ = stretch(g)
            out, _ = layer_traversal(g)
            elapsed = time.perf_counter() - started
            return res.stretch, out, elapsed

        grid = build_dag(gen_layered_dag(500_001, 2, 1.0, seed=7))
        assert grid.n == 1_000_002 and grid.m == 2_000_000
        depth, out, elapsed = timed_region(grid)
        assert depth == 500_000
        assert isinstance(out, LayerAssignment)
        assert elapsed < 10.0, f"grid took {elapsed:.1f}s"
        del grid, out

        chain = build_dag(gen_layered_dag(1_000_000, 1, 1.0, seed=8))
        assert chain.n == 1_000_000 and chain.m == 999_999
        depth, out, elapsed = timed_region(chain)
        assert depth == 999_999
        assert isinstance(out, LayerAssignment)
        assert out.layer[chain.index_of["999999"]] == 999_999
        assert elapsed < 10.0, f"chain took {elapsed:.1f}s"


def test_c7_equal_paths_do_not_imply_layerable(capsys):
    with criterion(capsys, 7, "gap graph: all paths equal yet no valid layering"):
        g = gap()
        assert oracle_all_paths_equal(g) is True
        balanced, witness = check_balanced(g)
        assert balanced is False
        assert witness is not None


def test_c8_diameter_bounded_by_stretch(capsys):
    with criterion(capsys, 8, "diameter <= stretch everywhere, strictly on the skewed diamond"):
        for g in list(corpus_small()) + list(corpus_large()) + analytic_graphs():
            dres, _ = diameter(g)
            sres, _ = stretch(g) if g.n else (None, None)
            if sres is not None:
                assert dres.diameter <= sres.stretch
        dres, _ = diameter(skewed())
        sres, _ = stretch(skewed())
        assert dres.diameter == 1 < sres.stretch == 2


def test_c9_cli_contract(capsys, tmp_path):
    with criterion(capsys, 9, "CLI subcommands, exit codes and verified round-trip"):
        def run(*argv):
            code = cli.run(list(argv))
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        # golden text and JSON for every subcommand
        for name, argv in [
            ("stretch_diamond.txt", ["stretch", str(DATA / "diamond.txt"), "--per-vertex", "--verify"]),
            ("stretch_diamond.json", ["stretch", str(DATA / "diamond.txt"), "--json", "--verify"]),
            ("diameter_diamond.txt", ["diameter", str(DATA / "diamond.txt"), "--all-pairs", "--verify"]),
            ("diameter_skewed.json", ["diameter", str(DATA / "skewed.txt"), "--json"]),
            ("layer_diamond.txt", ["layer", str(DATA / "diamond.txt"), "--verify"]),
            ("layer_skewed_pq.json", ["layer", str(DATA / "skewed.txt"), "--algo", "pq", "--json", "--verify"]),
            ("check_diamond.txt", ["check", str(DATA / "diamond.txt")]),
            ("gen_layered_3_2.txt", ["gen", "--layered", "3", "2", "--p", "1.0", "--seed", "1"]),
        ]:
            code, out, _ = run(*argv)
            assert code == 0, argv
            assert out == (GOLDEN / name).read_text(), argv

        # exit codes: 1 verdict, 2 input, 3 usage
        code, _, _ = run("check", str(DATA / "skewed.txt"))
        assert code == 1
        code, _, err = run("stretch", str(DATA / "cyclic.txt"))
        assert code == 2 and err == "cycle detected: a -> b -> c -> a\n"
        code, _, _ = run("stretch")
        assert code == 3

        # gen output feeds back through check --verify as verified=true
        _, text, _ = run("gen", "--layered", "5", "4", "--p", "0.3", "--seed", "17")
        edge_file = tmp_path / "roundtrip.txt"
        edge_file.write_text(text)
        code, out, _ = run("check", str(edge_file), "--json", "--verify")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["balanced"] is True
        assert report["verified"] is True

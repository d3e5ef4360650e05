import errno
import gc
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagmetrics import (
    DiameterResult,
    InstrumentationCounters,
    LayerAssignment,
    StretchResult,
    build_dag,
    cli,
    core,
    parse_edge_list,
    weakly_connected_components,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


class TestGoldenText:
    @pytest.mark.parametrize(
        "name,argv",
        [
            ("stretch_diamond.txt", ["stretch", str(DATA / "diamond.txt"), "--per-vertex", "--verify"]),
            ("diameter_diamond.txt", ["diameter", str(DATA / "diamond.txt"), "--all-pairs", "--verify"]),
            ("layer_diamond.txt", ["layer", str(DATA / "diamond.txt"), "--verify"]),
            ("layer_skewed_traversal.txt", ["layer", str(DATA / "skewed.txt"), "--algo", "traversal"]),
            ("check_diamond.txt", ["check", str(DATA / "diamond.txt")]),
            ("gen_layered_3_2.txt", ["gen", "--layered", "3", "2", "--p", "1.0", "--seed", "1"]),
            ("gen_n6.txt", ["gen", "--n", "6", "--p", "0.5", "--seed", "42"]),
        ],
    )
    def test_matches_golden(self, capsys, name, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == golden(name)

    def test_unbalanced_check_matches_golden(self, capsys):
        # the README's example: a conflict line, and exit 1
        code, out, _ = run_cli(capsys, "check", str(DATA / "skewed.txt"))
        assert code == 1
        assert out == golden("check_skewed.txt")


class TestGoldenJson:
    @pytest.mark.parametrize(
        "name,argv,expected_code",
        [
            ("stretch_diamond.json", ["stretch", str(DATA / "diamond.txt"), "--json", "--verify"], 0),
            ("diameter_skewed.json", ["diameter", str(DATA / "skewed.txt"), "--json"], 0),
            ("layer_skewed_pq.json", ["layer", str(DATA / "skewed.txt"), "--algo", "pq", "--json", "--verify"], 0),
            ("layer_two_comps.json", ["layer", str(DATA / "two_comps.txt"), "--json"], 0),
            ("check_skewed.json", ["check", str(DATA / "skewed.txt"), "--json"], 1),
        ],
    )
    def test_matches_golden(self, capsys, name, argv, expected_code):
        code, out, _ = run_cli(capsys, *argv)
        assert code == expected_code
        assert out == golden(name)

    def test_single_line_fixed_key_order(self, capsys):
        _, out, _ = run_cli(capsys, "stretch", str(DATA / "diamond.txt"), "--json")
        assert out.count("\n") == 1 and out.endswith("\n")
        report = json.loads(out)
        assert list(report) == ["command", "input", "result", "counters", "verified"]
        assert report["verified"] is None  # no --verify requested


# Runs main() with the oracle's BFS split over three processes even on a
# 4-vertex graph; each process writes its pid to the file named by the
# first argument, then waits inside the BFS for a signal.
_INTERRUPT_PROBE = """\
import os, signal, sys, time
from dagmetrics import cli, oracle
# Python's own handler, which it does not install where SIGINT starts ignored
signal.signal(signal.SIGINT, signal.default_int_handler)
oracle.SPLIT_WORK = 0
oracle._usable_cpus = lambda: 3
farthest = oracle._farthest
pids = sys.argv.pop(1)
def waiting(*args):
    with open(pids, "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    time.sleep(60)
    return farthest(*args)
oracle._farthest = waiting
cli.main()
"""


class TestExitCodes:
    def test_cycle_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "stretch", str(DATA / "cyclic.txt"))
        assert code == 2
        assert out == ""
        assert err == "cycle detected: a -> b -> c -> a\n"

    def test_malformed_line(self, capsys):
        code, _, err = run_cli(capsys, "diameter", str(DATA / "malformed.txt"))
        assert code == 2
        assert "line 1" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "stretch", str(DATA / "does_not_exist.txt"))
        assert code == 2
        assert err != ""

    def test_empty_input_to_stretch(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, _, err = run_cli(capsys, "stretch", str(empty))
        assert code == 2
        assert err == "graph has no vertices\n"

    def test_empty_input_to_diameter_exits_zero(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, out, _ = run_cli(capsys, "diameter", str(empty), "--json")
        assert code == 0
        assert json.loads(out)["result"]["diameter"] == 0

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_out_of_memory_is_input_error(self, capsys, monkeypatch, flags):
        def exhausted(g):
            raise MemoryError

        monkeypatch.setattr("dagmetrics.metrics.all_pairs_distances", exhausted)
        code, out, err = run_cli(capsys, "diameter", str(DATA / "diamond.txt"), "--all-pairs", *flags)
        assert code == 2
        assert out == ""
        assert err == "diameter: out of memory\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_interrupt_exits_130_with_one_line(self, capsys, monkeypatch, flags):
        # SIGINT arrives as KeyboardInterrupt wherever the analysis is
        def interrupted(g):
            raise KeyboardInterrupt

        monkeypatch.setattr("dagmetrics.metrics.diameter", interrupted)
        code, out, err = run_cli(capsys, "diameter", str(DATA / "diamond.txt"), *flags)
        assert code == 130
        assert out == ""
        assert err == "diameter: interrupted\n"
        assert "Traceback" not in err

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_terminal_interrupt_during_forked_oracle(self, tmp_path):
        # SIGINT to the whole process group, as a terminal's Ctrl-C sends
        # it, while the parent and two forked children are each inside the
        # oracle's BFS: one line from the parent, none from a child, and no
        # process of the group outlives the run
        pids = tmp_path / "pids"
        pids.touch()
        argv = [sys.executable, "-c", _INTERRUPT_PROBE, str(pids),
                "diameter", str(DATA / "diamond.txt"), "--json", "--verify"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              start_new_session=True) as proc:
            try:
                deadline = time.monotonic() + 10
                while len(pids.read_text().split()) < 3:
                    assert proc.poll() is None, proc.communicate()
                    assert time.monotonic() < deadline, "the oracle never ran in three processes"
                    time.sleep(0.01)
                os.killpg(proc.pid, signal.SIGINT)
                out, err = proc.communicate(timeout=30)
                with pytest.raises(ProcessLookupError):
                    os.killpg(proc.pid, 0)
            finally:
                with suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
        assert (proc.returncode, out, err) == (130, b"", b"diameter: interrupted\n")

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe 1\n")
        code, out, err = run_cli(capsys, "check", str(bad))
        assert code == 2
        assert out == ""
        assert err == f"{bad}: not UTF-8 text (byte 0xff at offset 0)\n"

    def test_non_utf8_stdin_is_input_error(self):
        # a C locale decodes stdin with surrogateescape, which would let
        # the bad bytes through if the CLI read text
        proc = subprocess.run(
            [sys.executable, "-m", "dagmetrics", "stretch", "-"],
            input=b"0 1\n\xff\xfe 1\n",
            capture_output=True,
            env={**os.environ, "LC_ALL": "C"},
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == b"<stdin>: not UTF-8 text (byte 0xff at offset 4)\n"

    def test_byte_order_mark_dropped_from_file(self, tmp_path, capsys):
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbfa b\n")
        code, out, _ = run_cli(capsys, "stretch", str(marked), "--json")
        assert code == 0
        assert json.loads(out)["result"]["witness_source"] == "a"

    def test_byte_order_mark_dropped_from_stdin(self, capsys, monkeypatch):
        # only one leading mark is dropped; a second one is label text
        for text, label in [("\ufeffa b\n", "a"), ("\ufeff\ufeffa b\n", "\ufeffa")]:
            monkeypatch.setattr("sys.stdin", _FakeStdin(text))
            code, out, _ = run_cli(capsys, "stretch", "-", "--json")
            assert code == 0
            assert json.loads(out)["result"]["witness_source"] == label

    def test_bad_byte_after_byte_order_mark_keeps_its_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xef\xbb\xbf\xff")
        code, out, err = run_cli(capsys, "stretch", str(bad))
        assert (code, out) == (2, "")
        assert err == f"{bad}: not UTF-8 text (byte 0xff at offset 3)\n"

    def test_closed_stdin_is_input_error(self, capsys, monkeypatch):
        # a process started with its stdin closed has sys.stdin set to None
        monkeypatch.setattr("sys.stdin", None)
        code, out, err = run_cli(capsys, "stretch", "-")
        assert (code, out, err) == (2, "", "<stdin>: standard input is closed\n")

    def test_closed_stdout_ends_quietly(self):
        # ~180 kB of output, far more than a pipe buffers, so the writer
        # is still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "dagmetrics", "gen", "--n", "2000", "--p", "0.01", "--seed", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert first.strip() and err == b""

    @pytest.mark.parametrize(
        "argv,expected_code",
        [(["stretch", str(DATA / "diamond.txt")], 0), (["check", str(DATA / "skewed.txt")], 1)],
    )
    def test_stdout_closed_before_start_keeps_exit_code(self, argv, expected_code):
        # the shell closes fd 1 (`>&-`), so the interpreter starts with
        # sys.stdout set to None
        proc = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "dagmetrics", *argv],
            stderr=subprocess.PIPE,
            timeout=60,
        )
        assert proc.returncode == expected_code
        assert b"Traceback" not in proc.stderr

    def test_label_stdout_cannot_encode_is_escaped(self, tmp_path):
        # an ASCII stdout prints é as \xe9, and check keeps its 0/1 verdict
        def run_ascii(command, text):
            path = tmp_path / f"{command}.txt"
            path.write_text(text, encoding="utf-8")
            return subprocess.run(
                [sys.executable, "-m", "dagmetrics", command, str(path)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONIOENCODING": "ascii"},
                timeout=60,
            )

        proc = run_ascii("stretch", "\u00e9 b\n")
        assert proc.returncode == 0
        assert "witness source: \\xe9\n" in proc.stdout
        assert "Traceback" not in proc.stderr
        proc = run_ascii("check", "a \u00e9\n\u00e9 b\na b\n")
        assert proc.returncode == 1
        assert "\\xe9" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_check_unbalanced_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "check", str(DATA / "skewed.txt"))
        assert code == 1

    def test_check_balanced_exits_zero(self, capsys):
        code, _, _ = run_cli(capsys, "check", str(DATA / "diamond.txt"))
        assert code == 0

    def test_layer_unbalanced_still_exits_zero(self, capsys):
        # exit 1 is reserved for the lint-style `check`; `layer` reports
        code, _, _ = run_cli(capsys, "layer", str(DATA / "skewed.txt"))
        assert code == 0

    def test_check_has_no_algo_option(self, capsys):
        # check runs layer's command body with the traversal frontier fixed
        code, out, err = run_cli(capsys, "check", str(DATA / "diamond.txt"), "--algo", "pq")
        assert (code, out, err) == (3, "", "usage error: unrecognized arguments: --algo pq\n")

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate", "x.txt")
        assert code == 3
        assert err.startswith("usage error:")

    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == 3

    def test_gen_requires_exactly_one_model(self, capsys):
        code, _, _ = run_cli(
            capsys, "gen", "--n", "5", "--layered", "2", "2", "--p", "0.5", "--seed", "1"
        )
        assert code == 3

    def test_gen_rejects_bad_probability(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--n", "5", "--p", "1.5", "--seed", "1")
        assert code == 3
        assert "--p" in err

    @pytest.mark.parametrize(
        "model, message",
        [
            (["--layered", "0", "2"], "--layered needs L >= 1 and W >= 1"),
            (["--n", "-1"], "--n must be >= 0, got -1"),
            # more vertices than a Python list can hold
            (["--n", str(10**20)], f"--n must be <= {sys.maxsize}, got {10**20}"),
            (["--layered", str(10**10), str(10**10)],
             f"--layered needs L*W <= {sys.maxsize}, got {10**20}"),
        ],
    )
    def test_gen_rejects_bad_size(self, capsys, model, message):
        code, out, err = run_cli(capsys, "gen", *model, "--p", "0.5", "--seed", "1")
        assert code == 3
        assert out == ""
        assert err == f"usage error: {message}\n"

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "stretch" in out and "diameter" in out


class _ClosedStderr:
    """Stands in for a stderr whose descriptor is closed."""

    def write(self, text):
        raise OSError(errno.EBADF, "Bad file descriptor")


# A write to a closed descriptor fails; an interpreter started with fd 2
# closed sets sys.stderr to None, and print(file=None) writes to stdout.
@pytest.mark.parametrize("stderr", [_ClosedStderr(), None], ids=["write-fails", "none"])
@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (["stretch", str(DATA / "cyclic.txt")], 2),
        (["gen", "--n", "3", "--p", "1", "--seed", "1", "--verify"], 0),
        (["check", str(DATA / "skewed.txt")], 1),
        (["stretch"], 3),
    ],
)
def test_closed_stderr_keeps_exit_code_and_output(capsys, monkeypatch, stderr, argv, expected_code):
    code, out, err = run_cli(capsys, *argv)
    assert code == expected_code and (err != "") == (code in (2, 3) or argv[0] == "gen")
    monkeypatch.setattr("sys.stderr", stderr)
    assert run_cli(capsys, *argv)[:2] == (code, out)


@pytest.mark.parametrize("source", ["empty-file", "gen-n0-stdin"])
@pytest.mark.parametrize("command", ["stretch", "diameter", "layer", "check"])
def test_empty_graph_contract(tmp_path, capsys, monkeypatch, command, source):
    """A graph with no vertices: diameter reports 0 with no witness and
    exits 0; every other analysis exits 2 with one error line."""
    if source == "empty-file":
        path = tmp_path / "empty.txt"
        path.write_text("")
        target = str(path)
    else:
        code, text, _ = run_cli(capsys, "gen", "--n", "0", "--p", "0.5", "--seed", "1")
        assert code == 0
        monkeypatch.setattr("sys.stdin", _FakeStdin(text))
        target = "-"
    code, out, err = run_cli(capsys, command, target)
    if command == "diameter":
        assert (code, err) == (0, "")
        assert out == "graph: 0 vertices, 0 edges, 0 components\ndiameter: 0\nwitness: none\n"
    else:
        assert (code, out, err) == (2, "", "graph has no vertices\n")


class TestStdin:
    def test_dash_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", _FakeStdin("0 1\n1 2\n"))
        code, out, _ = run_cli(capsys, "stretch", "-")
        assert code == 0
        assert "stretch: 2" in out

    def test_subprocess_pipe(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dagmetrics", "check", "-", "--json"],
            input="0 1\n0 2\n1 3\n2 3\n",
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["balanced"] is True


class _FakeStdin:
    """Stands in for sys.stdin; the CLI reads raw bytes from its buffer."""

    def __init__(self, text):
        self.buffer = io.BytesIO(text.encode("utf-8"))


class TestVerify:
    def test_round_trip_gen_to_check(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "gen", "--layered", "4", "3", "--p", "0.3", "--seed", "11")
        assert code == 0
        monkeypatch.setattr("sys.stdin", _FakeStdin(out))
        code, out2, _ = run_cli(capsys, "check", "-", "--json", "--verify")
        assert code == 0
        report = json.loads(out2)
        assert report["result"]["balanced"] is True
        assert report["verified"] is True

    def test_gen_output_parses_into_every_subcommand(self, capsys, monkeypatch):
        _, text, _ = run_cli(capsys, "gen", "--n", "7", "--p", "0.4", "--seed", "3")
        for sub in ["stretch", "diameter", "layer", "check"]:
            monkeypatch.setattr("sys.stdin", _FakeStdin(text))
            code, out, err = run_cli(capsys, sub, "-", "--json")
            assert code in (0, 1), (sub, err)
            json.loads(out)

    def test_stretch_verify_skipped_past_oracle_bound(self, capsys, tmp_path):
        chain = tmp_path / "chain13.txt"
        chain.write_text("".join(f"{i} {i + 1}\n" for i in range(12)))
        code, out, _ = run_cli(capsys, "stretch", str(chain), "--verify")
        assert code == 0
        assert "verified: skipped (n=13 exceeds oracle bound 12)" in out

    def test_stretch_verify_skipped_is_json_null(self, capsys, tmp_path):
        chain = tmp_path / "chain13.txt"
        chain.write_text("".join(f"{i} {i + 1}\n" for i in range(12)))
        code, out, _ = run_cli(capsys, "stretch", str(chain), "--json", "--verify")
        assert code == 0
        assert json.loads(out)["verified"] is None

    @pytest.mark.parametrize("value", ["3", "twelve"])
    def test_oracle_bound_env_is_ignored(self, capsys, monkeypatch, value):
        # the bound is the oracle's own constant, not a setting
        monkeypatch.setenv("DAGMETRICS_ORACLE_BOUND", value)
        code, out, _ = run_cli(capsys, "stretch", str(DATA / "diamond.txt"), "--verify")
        assert code == 0
        assert out.splitlines()[-1] == "verified: true"

    def test_diameter_verify_skipped_past_bfs_bound(self, capsys, monkeypatch):
        # the diamond's n*(n+m) is 4*8 = 32: past a bound of 31 no BFS runs
        from dagmetrics import oracle

        def no_bfs(g, source):
            raise AssertionError("the oracle ran past its bound")

        diamond = str(DATA / "diamond.txt")
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "BFS_WORK_BOUND", 31)
            patch.setattr(oracle, "_bfs", no_bfs)
            code, out, _ = run_cli(capsys, "diameter", diamond, "--verify")
            assert code == 0
            assert out.splitlines()[-1] == "verified: skipped (n*(n+m)=32 exceeds oracle bound 31)"
            code, out, _ = run_cli(capsys, "diameter", diamond, "--json", "--verify")
            assert code == 0
            assert json.loads(out)["verified"] is None
        monkeypatch.setattr(oracle, "BFS_WORK_BOUND", 32)
        code, out, _ = run_cli(capsys, "diameter", diamond, "--verify")
        assert code == 0
        assert out.splitlines()[-1] == "verified: true"

    @pytest.mark.parametrize(
        "oracle_name,argv,expected_code",
        [
            ("oracle_stretch", ["stretch", str(DATA / "diamond.txt")], 0),
            ("bfs_diameter", ["diameter", str(DATA / "diamond.txt")], 0),
            ("oracle_layers", ["layer", str(DATA / "diamond.txt")], 0),
            ("oracle_layers", ["check", str(DATA / "skewed.txt")], 1),
            ("oracle_graded", ["gen", "--layered", "3", "2", "--p", "1.0", "--seed", "1"], 0),
        ],
        ids=["stretch", "diameter", "layer", "check", "gen"],
    )
    def test_every_command_reports_a_refusal_the_same_way(
        self, capsys, monkeypatch, oracle_name, argv, expected_code
    ):
        # an oracle past its bound is skipped, whichever command asked;
        # the check runs before any report line is written
        from dagmetrics import oracle

        def refuses(*args):
            assert capsys.readouterr() == ("", "")
            raise oracle.TooLarge("x")

        monkeypatch.setattr(oracle, oracle_name, refuses)
        code, out, err = run_cli(capsys, *argv, "--verify")
        assert code == expected_code
        assert (err if argv[0] == "gen" else out).endswith("verified: skipped (x)\n")
        code, out, _ = run_cli(capsys, *argv, "--verify", "--json")
        assert code == expected_code
        assert json.loads(out)["verified"] is None

    def test_off_by_one_build_flips_verified_false(self, capsys, monkeypatch):
        # simulate a buggy analysis: report every stretch one too large
        from dagmetrics import metrics

        real = metrics.stretch

        def broken(g):
            res, counters = real(g)
            wrong = StretchResult(
                lp=res.lp, stretch=res.stretch + 1, witness_source=res.witness_source
            )
            return wrong, counters

        monkeypatch.setattr("dagmetrics.metrics.stretch", broken)
        code, out, _ = run_cli(capsys, "stretch", str(DATA / "diamond.txt"), "--json", "--verify")
        assert code == 0
        assert json.loads(out)["verified"] is False

    def test_diameter_verify_checks_witness(self, capsys, monkeypatch, tmp_path):
        # (c, d) is at the right distance but (a, b) sorts first
        edges = tmp_path / "two_pairs.txt"
        edges.write_text("a b\nc d\n")
        code, out, _ = run_cli(capsys, "diameter", str(edges), "--json", "--verify")
        assert code == 0
        assert json.loads(out)["verified"] is True

        from dagmetrics import metrics

        real = metrics.diameter

        def later_witness(g):
            res, counters = real(g)
            return DiameterResult(diameter=res.diameter, witness=(2, 3)), counters

        monkeypatch.setattr("dagmetrics.metrics.diameter", later_witness)
        code, out, _ = run_cli(capsys, "diameter", str(edges), "--json", "--verify")
        assert code == 0
        assert json.loads(out)["verified"] is False

    def test_diameter_flags_run_at_most_one_sweep(self, capsys, monkeypatch, tmp_path):
        # this random DAG takes the rounds, and a chain, balanced or with
        # a skip edge, the BFS engine; under --all-pairs the sweep is the
        # one engine on all three, and --verify adds one oracle BFS per
        # vertex. The oracle's BFS are counted in this process, which
        # stays exact because every graph here is under
        # oracle.SPLIT_WORK, so no source is dealt to a forked child.
        chain = tmp_path / "chain.txt"
        chain.write_text("".join(f"{i} {i + 1}\n" for i in range(99)))
        skip = tmp_path / "skip.txt"
        skip.write_text(chain.read_text() + "0 2\n")
        rand = tmp_path / "rand.txt"
        rand.write_text(run_cli(capsys, "gen", "--n", "35", "--p", "0.3", "--seed", "0")[1])

        from dagmetrics import metrics, oracle

        calls = []

        def counted(name, fn):
            def wrapper(g, *args):
                calls.append(name)
                return fn(g, *args)

            monkeypatch.setattr(f"dagmetrics.{name}", wrapper)

        counted("metrics.all_pairs_distances", metrics.all_pairs_distances)
        counted("metrics._diameter_by_rounds", metrics._diameter_by_rounds)
        counted("oracle._bfs", oracle._bfs)
        for path, n, flags, engines in [
            (skip, 100, ["--verify"], []),
            (skip, 100, ["--all-pairs", "--verify"], ["metrics.all_pairs_distances"]),
            (chain, 100, ["--verify"], []),
            (chain, 100, ["--all-pairs", "--verify"], ["metrics.all_pairs_distances"]),
            (rand, 35, ["--verify"], ["metrics._diameter_by_rounds"]),
            (rand, 35, ["--all-pairs", "--verify"], ["metrics.all_pairs_distances"]),
            (rand, 35, ["--all-pairs"], ["metrics.all_pairs_distances"]),
        ]:
            calls.clear()
            code, out, _ = run_cli(capsys, "diameter", str(path), "--json", *flags)
            assert code == 0
            assert json.loads(out)["verified"] is ("--verify" in flags or None)
            bfs = n if "--verify" in flags else 0
            assert sorted(calls) == sorted(engines + ["oracle._bfs"] * bfs), (path.name, flags)

    def test_layer_verify_true_on_balanced(self, capsys):
        code, out, _ = run_cli(capsys, "layer", str(DATA / "two_comps.txt"), "--json", "--verify")
        assert json.loads(out)["verified"] is True

    @pytest.mark.parametrize("command", ["layer", "check"])
    @pytest.mark.parametrize(
        "layer",
        [[0, 1, 1], [0, 1, 0]],
        ids=["wrong-layer", "wrong-component"],
    )
    def test_wrong_layering_flips_verified_false(self, capsys, monkeypatch, command, layer):
        # two_comps.txt is the edge 0 -> 1 and the lone vertex 2, in a
        # component of its own; both layerings keep 0 -> 1 one step up
        # and every component floor at 0
        def wrong(g):
            return LayerAssignment(layer=layer, component_of=[0, 0, 0]), InstrumentationCounters()

        monkeypatch.setattr("dagmetrics.layering.layer_traversal", wrong)
        code, out, _ = run_cli(capsys, command, str(DATA / "two_comps.txt"), "--verify")
        assert code == 0
        assert out.splitlines()[-1] == "verified: false"

    def test_gen_layered_verify(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--layered", "3", "3", "--p", "0.5", "--seed", "2", "--json", "--verify"
        )
        assert code == 0
        assert json.loads(out)["verified"] is True


class TestDeterminism:
    def test_gen_reproducible(self, capsys):
        a = run_cli(capsys, "gen", "--n", "12", "--p", "0.3", "--seed", "99")
        b = run_cli(capsys, "gen", "--n", "12", "--p", "0.3", "--seed", "99")
        assert a == b

    def test_analysis_reproducible(self, capsys):
        a = run_cli(capsys, "layer", str(DATA / "diamond.txt"), "--json")
        b = run_cli(capsys, "layer", str(DATA / "diamond.txt"), "--json")
        assert a == b


@pytest.mark.parametrize(
    "argv,expected_code",
    [
        (["check", str(DATA / "diamond.txt")], 0),
        (["check", str(DATA / "skewed.txt")], 1),
        (["stretch", str(DATA / "cyclic.txt")], 2),
        (["gen", "--n", "3", "--p", "2", "--seed", "1"], 3),
    ],
)
def test_run_restores_collector_state(capsys, collector, argv, expected_code):
    # only main() freezes the heap: a caller that lives on keeps its
    # objects within the collector's reach. This process never calls main().
    code, _, _ = run_cli(capsys, *argv)
    assert code == expected_code
    assert gc.isenabled() == collector
    assert gc.get_freeze_count() == 0


# An atexit hook reports whether main() froze the heap. That the hook runs
# at all shows the exit went through interpreter shutdown, not os._exit.
_FREEZE_PROBE = """\
import atexit, gc, sys
atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))
from dagmetrics import cli
cli.main()
"""


@pytest.mark.parametrize(
    "argv,expected_code",
    [
        (["stretch", str(DATA / "diamond.txt")], 0),
        (["check", str(DATA / "skewed.txt")], 1),
        (["stretch", str(DATA / "cyclic.txt")], 2),
        (["gen", "--n", "3", "--p", "2", "--seed", "1"], 3),
    ],
)
def test_main_freezes_the_heap_before_exit(argv, expected_code):
    plain = subprocess.run([sys.executable, "-m", "dagmetrics", *argv], capture_output=True, timeout=60)
    probed = subprocess.run([sys.executable, "-c", _FREEZE_PROBE, *argv], capture_output=True, timeout=60)
    assert plain.returncode == probed.returncode == expected_code
    assert probed.stdout == plain.stdout
    assert probed.stderr == plain.stderr + b"True\n"


def test_gap_graph_reported_unbalanced(capsys):
    code, out, _ = run_cli(capsys, "check", str(DATA / "gap.txt"), "--json")
    assert code == 1
    assert json.loads(out)["result"]["balanced"] is False


class TestComponentCount:
    """On balanced input layer and check take the count from the layering."""

    COMMANDS = [["layer", "--algo", "pq"], ["layer", "--algo", "traversal"], ["check"]]

    def test_last_vertex_in_first_component(self, capsys, tmp_path):
        # 4 -> 1 puts the last vertex in component 0, not in the last one
        path = tmp_path / "late_join.txt"
        path.write_text("0 1\n2 3\n4 1\n")
        for argv in self.COMMANDS:
            code, out, _ = run_cli(capsys, *argv, str(path))
            assert code == 0
            assert out.startswith("graph: 5 vertices, 3 edges, 2 components\n")
            code, out, _ = run_cli(capsys, *argv, str(path), "--json")
            assert code == 0
            assert json.loads(out)["input"]["components"] == 2

    def test_balanced_input_runs_no_components_pass(self, capsys, monkeypatch):
        def forbidden(g):
            raise AssertionError("components counted twice")

        monkeypatch.setattr(core, "weakly_connected_components", forbidden)
        for argv in self.COMMANDS:
            code, out, _ = run_cli(capsys, *argv, str(DATA / "two_comps.txt"), "--json")
            assert code == 0
            assert json.loads(out)["input"]["components"] == 2

    def test_balanced_diameter_component_count_and_witness(self, capsys, tmp_path):
        # diameter's engines find no components, so the summary counts
        # them in a pass of its own
        path = tmp_path / "chain_and_lone.txt"
        path.write_text("0 1\n1 2\n2 3\nlone\n")
        code, out, _ = run_cli(capsys, "diameter", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["input"]["components"] == 2
        assert report["result"]["witness"] == ["0", "3"]
        code, out, _ = run_cli(capsys, "diameter", str(path))
        assert code == 0
        assert out.startswith("graph: 5 vertices, 3 edges, 2 components\n")


GEN_MODELS = st.one_of(
    st.integers(min_value=1, max_value=14).map(lambda n: ["--n", str(n)]),
    st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4)).map(
        lambda lw: ["--layered", *map(str, lw)]
    ),
)


def _run_quiet(argv: list[str]) -> tuple[int, str]:
    """``run_cli`` without capsys, which is not reset between Hypothesis examples."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    model=GEN_MODELS,
    p=st.sampled_from(["0.0", "0.1", "0.3", "0.6", "1.0"]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_every_command_reports_the_component_count(tmp_path_factory, model, p, seed):
    gen = ["gen", *model, "--p", p, "--seed", str(seed)]
    code, text = _run_quiet(gen)
    assert code == 0
    expected = len(weakly_connected_components(build_dag(parse_edge_list(text))))
    path = tmp_path_factory.mktemp("gen") / "g.txt"
    path.write_text(text)
    for argv in [
        gen,
        ["stretch", str(path)],
        ["diameter", str(path)],
        ["layer", str(path), "--algo", "pq"],
        ["layer", str(path), "--algo", "traversal"],
        ["check", str(path)],
    ]:
        code, out = _run_quiet([*argv, "--json"])
        assert code in (0, 1), argv
        assert json.loads(out)["input"]["components"] == expected, argv


# Every command with --json, in a form that reaches each text line kind.
REPORTS = [
    ["stretch", str(DATA / "diamond.txt"), "--per-vertex", "--verify"],
    ["diameter", str(DATA / "diamond.txt"), "--all-pairs", "--verify"],
    ["diameter", str(DATA / "two_comps.txt")],
    ["layer", str(DATA / "diamond.txt"), "--verify"],
    ["layer", str(DATA / "skewed.txt"), "--algo", "pq"],
    ["check", str(DATA / "diamond.txt")],
    ["check", str(DATA / "skewed.txt"), "--verify"],
    ["gen", "--n", "6", "--p", "0.5", "--seed", "42"],
    ["gen", "--layered", "3", "2", "--p", "1.0", "--seed", "1", "--verify"],
]


def test_json_runs_no_text_rendering(capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("text rendered")

    for name in ["_stretch_text", "_diameter_text", "_layer_text", "_gen_text", "_plural"]:
        monkeypatch.setattr(cli, name, forbidden)
    for argv in REPORTS:
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code in (0, 1), argv
        assert json.loads(out)["command"] == argv[0]
        with pytest.raises(AssertionError, match="text rendered"):
            cli.run(argv)  # the same command in text mode reaches a renderer
    capsys.readouterr()


SUMMARY = re.compile(r"graph: (\d+) (?:vertex|vertices), (\d+) edges?, (\d+) components?")
HEADLINE = {"stretch": "stretch", "diameter": "diameter", "layer": "balanced", "check": "balanced"}


@settings(max_examples=40, deadline=None)
@given(
    model=GEN_MODELS,
    p=st.sampled_from(["0.0", "0.2", "0.5", "1.0"]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_text_and_json_report_the_same_facts(tmp_path_factory, model, p, seed):
    code, text = _run_quiet(["gen", *model, "--p", p, "--seed", str(seed)])
    assert code == 0
    path = tmp_path_factory.mktemp("gen") / "g.txt"
    path.write_text(text)
    for command, key in HEADLINE.items():
        for verify in [[], ["--verify"]]:
            argv = [command, str(path), *verify]
            code, out = _run_quiet(argv)
            json_code, js = _run_quiet([*argv, "--json"])
            assert code == json_code, argv
            report = json.loads(js)
            lines = out.splitlines()
            counts = SUMMARY.fullmatch(lines[0])
            assert counts, lines[0]
            inp = report["input"]
            assert [int(c) for c in counts.groups()] == [inp["vertices"], inp["edges"], inp["components"]]
            value = report["result"][key]
            shown = ("yes" if value else "no") if isinstance(value, bool) else value
            assert lines[1] == f"{key}: {shown}", argv
            verdict = [line for line in lines if line.startswith("verified: ")]
            if not verify:
                assert verdict == [] and report["verified"] is None
            elif report["verified"] is None:
                assert verdict == [lines[-1]] and lines[-1].startswith("verified: skipped ")
            else:
                assert verdict == [lines[-1]] == [f"verified: {str(report['verified']).lower()}"]


# Lines that are mostly edges, with stray tokens among them: they make
# valid graphs, cycles, self-loops, duplicate edges, malformed lines and
# comments.
LABELS = ["a", "b", "c", "d", "e"]
TOKENS = LABELS + ["#", "\ufeff", "\x00", "\xe9", "\t", "\r"]
EDGE = st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS)).map(" ".join)
LINE = st.one_of(EDGE, EDGE, EDGE, st.lists(st.sampled_from(TOKENS), max_size=3).map(" ".join))
STDIN_BYTES = st.one_of(
    st.binary(max_size=120), st.lists(LINE, max_size=8).map(lambda lines: "\n".join(lines).encode())
)
FUZZED = [
    ["stretch"],
    ["diameter"],
    ["diameter", "--all-pairs"],
    ["layer", "--algo", "pq"],
    ["layer", "--algo", "traversal"],
    ["check"],
]


@settings(max_examples=100, deadline=None)
@given(data=STDIN_BYTES)
def test_any_stdin_maps_to_an_exit_code(data):
    stdin = sys.stdin
    try:
        for command in FUZZED:
            for flags in [[], ["--json"], ["--verify"], ["--json", "--verify"]]:
                argv = [command[0], "-", *command[1:], *flags]
                sys.stdin = SimpleNamespace(buffer=io.BytesIO(data))
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.run(argv)
                assert code in (0, 1, 2), argv
                assert code != 1 or command == ["check"], argv
                if code == 2:
                    assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv
                elif "--json" in flags:
                    assert json.loads(out.getvalue())["verified"] is not False, argv
                else:
                    assert "verified: false" not in out.getvalue(), argv
    finally:
        sys.stdin = stdin

import ast
import gc
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagmetrics import (
    CycleDetected,
    Dag,
    DagBuildInput,
    DagError,
    DuplicateEdge,
    EmptyGraph,
    MalformedLine,
    SelfLoop,
    build_dag,
    gen_layered_dag,
    parse_edge_list,
    read_dag,
    weakly_connected_components,
)
from dagmetrics import core
from dagmetrics.core import _collector_paused, _toposort
from graphs import dag_from_edges, diamond


def reference_parse(text: str) -> DagBuildInput:
    """The line-by-line parser that ``parse_edge_list`` replaced."""
    edges: list[tuple[str, str]] = []
    isolated: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) > 2:
            raise MalformedLine(
                lineno, f"expected 'FROM TO' or a single vertex, got {len(tokens)} tokens"
            )
        for tok in tokens:
            if tok.startswith("#"):
                raise MalformedLine(lineno, f"label may not begin with '#': {tok!r}")
        if len(tokens) == 2:
            edges.append((tokens[0], tokens[1]))
        else:
            isolated.append(tokens[0])
    return DagBuildInput(edges=edges, isolated=isolated)


def reference_build(inp: DagBuildInput) -> Dag:
    """The builder as it was before ingest paused the collector."""
    index_of: dict[str, int] = {}
    labels: list[str] = []
    out_adj: list[list[int]] = []
    in_adj: list[list[int]] = []
    for a, b in inp.edges:
        u = index_of.get(a)
        if u is None:
            u = len(labels)
            index_of[a] = u
            labels.append(a)
            out_adj.append([])
            in_adj.append([])
        v = index_of.get(b)
        if v is None:
            v = len(labels)
            index_of[b] = v
            labels.append(b)
            out_adj.append([])
            in_adj.append([])
        if u == v:
            raise SelfLoop(a)
        out_adj[u].append(v)
        in_adj[v].append(u)
    for a in inp.isolated:
        if a not in index_of:
            index_of[a] = len(labels)
            labels.append(a)
            out_adj.append([])
            in_adj.append([])
    m = 0
    for u, row in enumerate(out_adj):
        row.sort()
        m += len(row)
        for x, y in zip(row, row[1:]):
            if x == y:
                raise DuplicateEdge(labels[u], labels[x])
    for row in in_adj:
        row.sort()
    topo = _toposort(out_adj, in_adj, labels)
    return Dag(n=len(labels), m=m, out_adj=out_adj, in_adj=in_adj, labels=labels, topo=topo)


def reference_read(text: str) -> Dag:
    return reference_build(reference_parse(text))


def outcome(fn, arg):
    """What ``fn(arg)`` returns, or the class and message of the DagError it raises."""
    try:
        return fn(arg)
    except DagError as e:
        return type(e), str(e)


# A few labels, so that self-loops, duplicate edges and cycles are common;
# "#" and "#a" make comments in first position and bad labels in second.
TOKENS = st.sampled_from(["a", "b", "c", "d", "é"] * 4 + ["#", "#a"])
# Mostly edges, so that many soups get as far as build_dag.
LENGTHS = st.sampled_from([0, 1, 3, 4] + [2] * 24)
GAPS = st.sampled_from([" ", "\t", " \t "])
EDGES = st.sampled_from(["", " ", "\t "])  # leading and trailing blanks
BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\u2028"])


@st.composite
def token_soups(draw) -> str:
    """Lines of 0 to 4 tokens (blank, whitespace-only, comment, vertex,
    edge or too long) joined by any of the line breaks splitlines knows."""
    text = ""
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        tokens = [draw(TOKENS) for _ in range(draw(LENGTHS))]
        line = draw(EDGES)
        for i, tok in enumerate(tokens):
            line += (draw(GAPS) if i else "") + tok
        text += line + draw(EDGES) + draw(BREAKS)
    return text + draw(st.sampled_from(["", "a b", "a"]))


# Lines per ingest run: one and two put run boundaries inside every soup.
RUN_LINES = [1, 2, core._RUN_LINES]


@settings(max_examples=400, deadline=None)
@given(text=token_soups(), run_lines=st.sampled_from(RUN_LINES))
def test_ingest_matches_line_by_line_reference(text, run_lines):
    with mock.patch.object(core, "_RUN_LINES", run_lines):
        parsed = outcome(parse_edge_list, text)
        assert parsed == outcome(reference_parse, text)
        if isinstance(parsed, DagBuildInput):
            assert outcome(build_dag, parsed) == outcome(reference_build, parsed)
        assert outcome(read_dag, text) == outcome(reference_read, text)


@pytest.mark.parametrize(
    "text, expected",
    [
        # the self-loop on line 1 is raised only after the scan, so the
        # malformed line 2 wins, as it does when parsing comes first
        ("a a\nb c d\n", (MalformedLine, "line 2: expected 'FROM TO' or a single vertex, got 3 tokens")),
        # lone vertices are numbered after every edge endpoint
        ("x\na b\nx y\n", ["a", "b", "x", "y"]),
        # a self-loop outranks an earlier duplicate edge
        ("a b\na b\na a\n", (SelfLoop, "self-loop at 'a'")),
    ],
)
@pytest.mark.parametrize("run_lines", RUN_LINES)
def test_read_dag_pinned_examples(text, expected, run_lines):
    with mock.patch.object(core, "_RUN_LINES", run_lines):
        got = outcome(read_dag, text)
        assert got == outcome(reference_read, text)
    assert (got.labels if isinstance(got, Dag) else got) == expected


def test_read_dag_index_of_is_a_plain_dict():
    g = read_dag("a b\n")
    assert type(g.index_of) is dict
    with pytest.raises(KeyError):
        g.index_of["c"]
    assert "c" not in g.index_of and g.n == 2


@pytest.mark.parametrize(
    "make", [read_dag, lambda text: build_dag(parse_edge_list(text))], ids=["read", "build"]
)
def test_index_of_is_built_from_labels_on_first_read(make):
    g = make("b a\nc\na c\n")
    assert "index_of" not in Dag._fields
    assert "index_of" not in vars(g)
    assert g.index_of == dict(zip(g.labels, range(g.n))) == {"b": 0, "a": 1, "c": 2}
    assert "index_of" in vars(g)
    h = g._replace(labels=["x", "y", "z"])
    assert "index_of" not in vars(h)
    assert h.index_of == {"x": 0, "y": 1, "z": 2}


def test_read_dag_peak_memory_within_budget():
    # Ingest may not hold much more than it keeps: no string pair per
    # edge beside the adjacency rows. Counted in bytes, not seconds.
    inp = gen_layered_dag(10001, 2, 1.0, seed=7)
    text = "".join(f"{a} {b}\n" for a, b in inp.edges)
    del inp
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        g = read_dag(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert g.n == 20002 and g.m == 40000
    assert peak - base <= 1.25 * (held - base)


class TestCollectorPaused:
    def test_build_dag_restores_state_after_cycle(self, collector):
        with pytest.raises(CycleDetected):
            dag_from_edges([("a", "b"), ("b", "a")])
        assert gc.isenabled() == collector

    def test_ingest_restores_state(self, collector):
        build_dag(parse_edge_list("a b\n"))
        assert gc.isenabled() == collector

    def test_read_dag_restores_state_after_error(self, collector):
        with pytest.raises(MalformedLine):
            read_dag("a b c\n")
        assert gc.isenabled() == collector

    def test_nested_pause_keeps_outer_pause(self, collector):
        with _collector_paused():
            with _collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() == collector


class TestParseEdgeList:
    def test_basic(self):
        inp = parse_edge_list("a b\nb c\n")
        assert inp.edges == [("a", "b"), ("b", "c")]
        assert inp.isolated == []

    def test_single_token_line_is_isolated_vertex(self):
        inp = parse_edge_list("a b\nlonely\n")
        assert inp.edges == [("a", "b")]
        assert inp.isolated == ["lonely"]

    def test_blank_lines_and_comments_skipped(self):
        inp = parse_edge_list("# header\n\na b\n   \n# trailing\n")
        assert inp.edges == [("a", "b")]

    def test_whitespace_flexible(self):
        inp = parse_edge_list("  a\t\tb  \n")
        assert inp.edges == [("a", "b")]

    def test_three_tokens_rejected(self):
        with pytest.raises(MalformedLine) as exc:
            parse_edge_list("a b\na b c\n")
        assert exc.value.line_number == 2
        assert "line 2" in str(exc.value)

    def test_hash_token_rejected(self):
        # '#' only introduces a comment at the start of a line; a bare
        # token beginning with '#' elsewhere is a malformed label.
        with pytest.raises(MalformedLine):
            parse_edge_list("a #b\n")

    def test_empty_text(self):
        inp = parse_edge_list("")
        assert inp.edges == [] and inp.isolated == []


class TestBuildDag:
    def test_indices_follow_first_appearance(self):
        g = dag_from_edges([("x", "y"), ("a", "x")])
        assert g.labels == ["x", "y", "a"]
        assert g.index_of == {"x": 0, "y": 1, "a": 2}

    def test_isolated_vertices_appended(self):
        g = build_dag(DagBuildInput(edges=[("a", "b")], isolated=["z"]))
        assert g.labels == ["a", "b", "z"]
        assert g.n == 3 and g.m == 1
        assert g.out_adj[2] == [] and g.in_adj[2] == []

    def test_lone_vertex_lines_get_ids_after_the_last_edge(self):
        # c is the first label in the text, yet its line declares a lone
        # vertex, so it is interned only after every edge
        text = "c\na b\n"
        assert read_dag(text).labels == ["a", "b", "c"]
        assert build_dag(parse_edge_list(text)).labels == ["a", "b", "c"]

    def test_isolated_duplicate_of_edge_vertex_ignored(self):
        g = build_dag(DagBuildInput(edges=[("a", "b")], isolated=["a"]))
        assert g.n == 2

    def test_adjacency_sorted(self):
        g = dag_from_edges([("s", "c"), ("s", "a"), ("s", "b")])
        assert g.out_adj[0] == sorted(g.out_adj[0])

    def test_self_loop(self):
        with pytest.raises(SelfLoop) as exc:
            dag_from_edges([("a", "b"), ("b", "b")])
        assert str(exc.value) == "self-loop at 'b'"

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge) as exc:
            dag_from_edges([("a", "b"), ("a", "b")])
        assert str(exc.value) == "duplicate edge: a -> b"

    def test_duplicate_edge_names_smallest_source_then_target(self):
        # indices a0 x1 z2 b3 y4: b's duplicate comes first in the file and
        # a's duplicate of x last, yet a -> x is the one reported
        with pytest.raises(DuplicateEdge) as exc:
            dag_from_edges(
                [("a", "x"), ("a", "z"), ("b", "y"), ("b", "y"), ("a", "z"), ("a", "x")]
            )
        assert str(exc.value) == "duplicate edge: a -> x"

    def test_cycle_detected_with_witness(self):
        with pytest.raises(CycleDetected) as exc:
            dag_from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        assert str(exc.value) == "cycle detected: a -> b -> c -> a"
        assert exc.value.cycle == ["a", "b", "c"]

    def test_cycle_buried_in_larger_graph(self):
        edges = [("r", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("b", "t")]
        with pytest.raises(CycleDetected) as exc:
            dag_from_edges(edges)
        assert exc.value.cycle == ["a", "b", "c"]

    def test_two_cycle(self):
        with pytest.raises(CycleDetected) as exc:
            dag_from_edges([("u", "v"), ("v", "u")])
        assert str(exc.value) == "cycle detected: u -> v -> u"

    def test_empty_input_builds_empty_graph(self):
        g = build_dag(DagBuildInput(edges=[], isolated=[]))
        assert g.n == 0 and g.m == 0 and g.topo == []


class TestTopologicalOrder:
    def test_every_edge_points_forward(self):
        g = diamond()
        pos = {v: i for i, v in enumerate(g.topo)}
        for u in range(g.n):
            for v in g.out_adj[u]:
                assert pos[u] < pos[v]

    def test_chain(self):
        g = dag_from_edges([("a", "b"), ("b", "c")])
        assert g.topo == [0, 1, 2]


class TestComponents:
    def test_single(self):
        assert len(weakly_connected_components(diamond())) == 1

    def test_direction_ignored(self):
        # a->c and b->c are one weak component despite no directed a..b path
        g = dag_from_edges([("a", "c"), ("b", "c")])
        assert weakly_connected_components(g) == [[0, 1, 2]]

    def test_two_components_ordered_by_smallest_member(self):
        g = build_dag(DagBuildInput(edges=[("0", "1")], isolated=["2"]))
        assert weakly_connected_components(g) == [[0, 1], [2]]

    def test_members_sorted(self):
        g = dag_from_edges([("z", "a")])
        comps = weakly_connected_components(g)
        assert comps == [[0, 1]]


def test_empty_graph_error_message():
    assert str(EmptyGraph()) == "graph has no vertices"


def test_no_module_imports_typing():
    # parsed, not read off sys.modules, so the module that names the import
    # is the one that fails; the test below checks what the CLI import loads
    for path in Path(core.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert alias.name not in ("dataclasses", "typing"), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module not in ("dataclasses", "typing"), path.name


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S skips site, which may import typing itself (through certifi, say),
    # so the package directory goes on sys.path by hand
    src = str(Path(core.__file__).parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import dagmetrics.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr

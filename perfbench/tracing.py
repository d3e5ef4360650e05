"""Spans around the public calls into each dagmetrics module, recorded from outside.

While a ``Tracer`` is installed, every reference to a traced function in the
package's modules points at a wrapper, including the copies that
``from ... import`` made, so the calls the CLI and the library make to each
other are recorded with their parent span. Spans stay in memory until
``dump``. GC pauses are timed through ``gc.callbacks`` and charged to every
span open at the time.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import dagmetrics
from dagmetrics import cli, core, layering, metrics, oracle

TRACED = {
    core: ("parse_edge_list", "build_dag", "weakly_connected_components"),
    metrics: ("stretch", "diameter"),
    layering: ("layer_traversal", "layer_pq"),
    oracle: ("oracle_stretch", "oracle_diameter", "oracle_graded", "gen_layered_dag", "gen_random_dag"),
}
MODULES = (dagmetrics, core, metrics, layering, oracle, cli)
VERIFY_ORACLES = ("oracle.oracle_stretch", "oracle.oracle_diameter", "oracle.oracle_graded")
GENERATORS = ("oracle.gen_layered_dag", "oracle.gen_random_dag")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.input: str | None = None  # input name recorded on new spans
        self.last_dag = None  # the Dag most recently returned by build_dag
        self._open: list[dict] = []
        self._gc_total = 0.0
        self._gc_start = 0.0
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "root": parent["root"] if parent else name,
            "input": self.input,
            "gc_s": -self._gc_total,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["gc_s"] += self._gc_total
            self._open.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self._gc_total += time.perf_counter() - self._gc_start

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            record.update(_counts(name, args, result))
            if name == "core.build_dag":
                self.last_dag = result
            return result

        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for module, names in TRACED.items():
            layer = module.__name__.rpartition(".")[2]
            for fn_name in names:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = self._wrap(f"{layer}.{fn_name}", fn)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def _counts(name: str, args: tuple, result) -> dict:
    if name == "core.parse_edge_list":
        return {"lines": args[0].count("\n")}
    if name == "core.build_dag":
        return {"vertices": result.n, "edges": result.m}
    if name == "core.weakly_connected_components":
        return {"components": len(result)}
    if isinstance(result, tuple) and len(result) == 2 and dataclasses.is_dataclass(result[1]):
        return dataclasses.asdict(result[1])  # InstrumentationCounters
    return {}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals over one traced pass.

    Function times are inclusive of nested calls. ``cli.run.<command>.self_s``
    is a run span minus its direct children: reading the file, argument
    parsing, the CLI's own passes over the result, rendering and JSON.
    ``oracle.gen.s`` is the only figure taken from the set-up spans.
    """
    total: dict[str, float] = defaultdict(float)
    children: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        if s["root"] == "setup":
            if name in GENERATORS:
                total["oracle.gen.s"] += dur
            continue
        total[f"{name}.s"] += dur
        total[f"{name}.gc_s"] += s["gc_s"]
        if name.startswith("cli.run."):
            total[f"{name}.self_s"] += dur - children[s["id"]]
        if name in VERIFY_ORACLES:
            total["oracle.verify.s"] += dur
        for key in ("lines", "vertices", "edges", "components",
                    "vertex_evaluations", "edge_examinations", "distance_updates"):
            if key in s:
                layer = "core" if name.startswith("core.") else name
                total[f"{layer}.{key}"] += s[key]
    return total

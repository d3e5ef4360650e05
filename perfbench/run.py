"""Benchmark of the dagmetrics CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it times whole ``python -m dagmetrics`` processes of the
checkout under test in a closed loop, one child at a time, and prints the
end-to-end metrics named in BENCHMARK.json. With ``--trace 1`` it runs the
same commands in-process under ``tracing.Tracer`` and prints the per-layer
metrics instead. Every answer is checked (see ``checks``). The last line of
stdout is the result object; the line before it records the seed and the
machine state, and stderr gets a readable table.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 3
IMPORT_REPEATS = 7
WARMUP_GRAPH = "0 1\n0 2\n1 3\n2 3\n"


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("DAGMETRICS_ORACLE_BOUND", None)
    return env


def run_child(args: list[str], env: dict[str, str]) -> tuple[float, float, int, str]:
    """Run one interpreter child to completion: wall s, peak RSS MB, exit code, stdout."""
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, cwd=WORK, env=env)
        # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would be a
        # running maximum over every child so far.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode, out_path.read_text()


def warm_up_argvs() -> list[list[str]]:
    """One call per command on a four-vertex graph, made before timing."""
    path = WORK / "warmup.txt"
    path.write_text(WARMUP_GRAPH)
    return [[*argv, str(path)] for argv in workloads.COMMANDS.values()]


def warm_up(env: dict[str, str]) -> None:
    """Compile the bytecode and check that the children import the checkout's sources."""
    _, _, code, out = run_child(["-c", "import dagmetrics; print(dagmetrics.__file__)"], env)
    if code != 0 or not Path(out.strip()).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"children import dagmetrics from {out.strip()!r}, not {SRC}")
    for argv in warm_up_argvs():
        run_child(["-m", "dagmetrics", *argv], env)


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile: a measured value, never a blend of two ops."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workloads.setup(name, WORK, seed)
        setup_times.append(time.perf_counter() - start)
        gc.collect()
    env = child_env()
    warm_up(env)
    samples: list[dict] = []
    passes = 0
    start = time.perf_counter()
    while True:
        for op in workload.ops:
            wall, rss, code, out = run_child(["-m", "dagmetrics", *op.argv], env)
            error = checks.check(op, code, out)
            samples.append({"command": op.command, "input": op.input, "wall_s": wall,
                            "rss_mb": rss, "exit": code, "error": error})
        passes += 1
        # Start another pass only if, at the pace so far, it ends in time.
        if (time.perf_counter() - start) * (passes + 1) / passes > seconds:
            break
    by_command = defaultdict(list)
    for s in samples:
        by_command[s["command"]].append(s["wall_s"])
    walls_ms = [s["wall_s"] * 1000 for s in samples]
    values = {
        "setup_s": statistics.median(setup_times),
        **{f"{c}_s": statistics.median(w) for c, w in by_command.items()},
        "peak_rss_mb": max(s["rss_mb"] for s in samples),
        "op_p50_ms": percentile(walls_ms, 50),
        "op_p90_ms": percentile(walls_ms, 90),
    }
    detail = {"passes": passes, "setup_s": setup_times, "samples": samples}
    return values, detail


def in_process(argv: list[str]) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return time.perf_counter() - start, code, out.getvalue()


def import_ms(env: dict[str, str]) -> float:
    """Median start-up with ``import dagmetrics.cli`` minus bare interpreter start-up."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(run_child(["-c", "pass"], env)[0])
        full.append(run_child(["-c", "import dagmetrics.cli"], env)[0])
    return (statistics.median(full) - statistics.median(bare)) * 1000


def traced_memory_mb(fn, *args) -> tuple[float, float]:
    """Memory still held by the result of ``fn(*args)`` and the peak during
    the call, by tracemalloc. tracemalloc slows allocation-heavy code
    several times over, so it runs in its own pass, never a timed one."""
    tracemalloc.start()
    try:
        result = fn(*args)  # noqa: F841  (kept alive until measured)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held / 2**20, peak / 2**20


def build(name: str):
    return core.build_dag(core.parse_edge_list((WORK / f"{name}.txt").read_text()))


def traced_run(name: str, seed: int) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    with tracer, tracer.span("setup"):
        workload = workloads.setup(name, WORK, seed)
    env = child_env()
    for argv in warm_up_argvs():
        in_process(argv)
    samples: list[dict] = []
    untraced = 0.0
    for op in workload.ops:
        wall, code, out = in_process(op.argv)
        untraced += wall
        samples.append({"command": op.command, "input": op.input, "traced": False, "exit": code,
                        "error": checks.check(op, code, out)})
    with tracer:
        for op in workload.ops:
            tracer.input = op.input
            with tracer.span(f"cli.run.{op.command}"):
                _, code, out = in_process(op.argv)
            if op.command == "layer" and tracer.last_dag is not None:
                layering.layer_pq(tracer.last_dag)
            tracer.last_dag = None
            samples.append({"command": op.command, "input": op.input, "traced": True, "exit": code,
                            "error": checks.check(op, code, out)})
    tracer.input = None
    values = tracing.layer_metrics(tracer.spans)
    traced = sum(s["end"] - s["start"] for s in tracer.spans if s["name"].startswith("cli.run."))
    values["trace.overhead_ratio"] = traced / untraced
    values["cli.import_ms"] = import_ms(env)
    values["core.dag.retained_mb"] = traced_memory_mb(build, workload.dag_input)[0]
    values["metrics.diameter.peak_mb"] = traced_memory_mb(metrics.diameter, build(workload.diameter_input))[1]
    trace_path = WORK / f"trace-{name}-seed{seed}.json"
    tracer.dump(trace_path)
    return values, {"samples": samples, "spans": str(trace_path.relative_to(ROOT))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.SETUPS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks.self_test()
    WORK.mkdir(exist_ok=True)
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }
    if args.trace:
        values, detail = traced_run(args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        values, detail = timed_run(args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    attempted = len(detail["samples"])
    failed = sum(s["error"] is not None for s in detail["samples"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": int(v) if m["unit"] == "count" else v, "unit": m["unit"]}
            for m in wanted
            for v in [values[m["name"]]]
        },
    }
    environment["fail_ratio"] = failed / attempted
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps({"environment": environment, **result, **detail}, indent=1))
    for s in detail["samples"]:
        if s["error"]:
            print(f"FAILED {s['command']} on {s['input']}: {s['error']}", file=sys.stderr)
    for metric, entry in result["metrics"].items():
        print(f"{metric:42} {entry['value']:>14.6g} {entry['unit']}", file=sys.stderr)
    print(f"{'fail_ratio':42} {failed:>7} / {attempted}", file=sys.stderr)
    print(json.dumps(environment))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "dagmetrics" / "__init__.py").is_file():
        sys.exit(f"no dagmetrics sources at {SRC}; run from the root of a dagmetrics checkout")
    sys.path.insert(0, str(SRC))
    import checks
    import tracing
    import workloads
    from dagmetrics import cli, core, layering, metrics

    sys.exit(main())

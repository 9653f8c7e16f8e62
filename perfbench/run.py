"""The ait benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload chain_sample --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  It makes the workload's inputs from the
seed, times the set-up of fresh interpreters, then runs whole passes, each in
a fresh interpreter (the enumeration and interval-table caches are
module-level, and a command-line user never gets a warm pass).  It starts
another pass only while that is expected to end within ``--seconds``; there
is always at least one.  With ``--trace 0`` it prints every end-to-end metric
of BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced passes
and prints every per-layer metric.  The last line of standard output is the
result; the line before it records the run's context, and the full record
(and, when traced, the spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

SETUP_SAMPLES = 15
SETUP_CODE = "import ait, ait.cli, sys, time; sys.stdout.write(repr(time.monotonic()))"
DEADLINE_S = 170          # every run must end within 180 s


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    """The passes import the checkout's sources, with a fixed string hash and
    with bytecode caching on, as an installed command-line user has it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; the
    benchmark may run from an export that has no .git at all."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_times(env: dict) -> list[float]:
    """Seconds from starting an interpreter to every ait module being imported."""
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                   check=True, capture_output=True, timeout=60)  # writes the bytecode caches
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              check=True, capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout) - start)
    return times


def run_pass(spec: dict, env: dict, timeout: float) -> dict:
    done = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py")],
                          input=json.dumps(spec), env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        fail(f"worker exited with {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def layer_functions(per_layer: list[dict]) -> list[str]:
    """``<module>.<function>`` for every per-layer metric named
    ``<module>.<function>.<field>``."""
    return sorted({m["name"].rsplit(".", 1)[0] for m in per_layer
                   if m["name"].count(".") == 2})


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by the Beta(q(n+1), (1-q)(n+1)) density (midpoint
    rule).  A single order statistic jumps when the sample has a gap near
    the quantile, as the chain sample's clustered latencies do at the median;
    this estimate moves smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    items_ms = [s * 1000 for p in passes for s in p["items_s"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "item_p50_ms": quantile(items_ms, 0.5),
        "item_p90_ms": quantile(items_ms, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def _layer_value(name: str, traced: dict, report_rows: int, untraced_wall: float,
                 traced_wall: float) -> float:
    stats = traced["functions"]
    if name == "harness.report_rows":
        return report_rows
    if name == "trace.overhead_ratio":
        return traced_wall / untraced_wall - 1
    if name == "trace.attributed_ratio":
        return traced["top_s"] / traced_wall
    qualname, field = name.rsplit(".", 1)
    entry = stats.get(qualname, {"calls": 0, "ok": 0, "total_s": 0.0, "self_s": 0.0})
    if field in ("calls", "total_s", "self_s"):
        return entry[field]
    if field == "miss_ratio":
        misses = traced["children"].get(f"{qualname} > machine.enumerate_halting", 0)
        return misses / entry["calls"] if entry["calls"] else 0.0
    if field.endswith("_ratio"):
        return entry["ok"] / entry["calls"] if entry["calls"] else 0.0
    raise ValueError(f"no rule computes the layer metric {name!r}")


def per_layer(metrics: list[dict], untraced: list[dict], traced: list[dict]) -> dict:
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    values = {}
    for metric in metrics:
        values[metric["name"]] = statistics.median(
            _layer_value(metric["name"], p["trace"], p["report_rows"], untraced_wall,
                         p["wall_s"])
            for p in traced)
    return values


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ait" / "__init__.py").is_file():
        fail(f"no ait package under {ROOT / 'src'}; run from a checkout of the repository")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()
    started = time.monotonic()
    setups = [] if args.trace else setup_times(env)

    spec = {"workload": args.workload, "inputs": make_inputs(args.workload, args.seed),
            "functions": layer_functions(bench["per_layer"])}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    modes = [False, True] if args.trace else [False]
    passes: dict[bool, list[dict]] = {False: [], True: []}
    measure_start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for traced in modes:
            index = len(passes[traced])
            spec.update(trace=traced, run_id=f"{tag}-pass{index}",
                        trace_path=str(OUT_DIR / f"{tag}-pass{index}.spans.jsonl"))
            timeout = DEADLINE_S - (time.monotonic() - started)
            passes[traced].append(run_pass(spec, env, timeout))
        now = time.monotonic()
        if now - measure_start + (now - round_start) > args.seconds:
            break

    every = passes[False] + passes[True]
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    if args.trace:
        values = per_layer(bench["per_layer"], passes[False], passes[True])
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        values = end_to_end(passes[False], setups)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "commit": git_commit(),
        "passes": len(every), "setup_samples_s": setups,
        "failures": [f for p in every for f in p["failures"]][:20],
    }
    record = {"context": context, "passes": every, "metrics": metrics}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

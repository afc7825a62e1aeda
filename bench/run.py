"""kickedtop benchmark: run workloads, check their output, print the metrics.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from the checkout's src/.
Without --workload every workload runs, one after another.  For each
workload this process builds the seeded round of CLI invocations and
their references, times set-up in fresh interpreters, then runs the
round repeatedly for S seconds in fresh worker processes (worker.py):
four one after another in a timed run, one in a traced run.
It prints every check and metric by name, and as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones
from a traced run.  Results and traces are written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from worker import typical_round_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PACKAGE = ROOT / "src" / "kickedtop" / "__init__.py"

SETUP_PROBES = 7
# A timed run is split over this many fresh worker processes, one after
# another, so that how fast one process happens to run (where it lands,
# its memory layout) is sampled several times per run.
TIMED_WORKERS = 4
# Leeway past its deadline before a worker is killed; a round takes seconds.
WORKER_GRACE_S = 90


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def child_env() -> dict[str, str]:
    """The environment for child interpreters: src/ and bench/ importable, threads untouched."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(BENCH)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def setup_seconds(env: dict[str, str]) -> float:
    """Median time from starting a fresh interpreter to kickedtop and kickedtop.cli imported."""
    code = "import kickedtop, kickedtop.cli, time; print(time.monotonic())"
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()  # CLOCK_MONOTONIC is shared by all processes
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=60, check=True,
        )
        samples.append(float(done.stdout) - t0)
    return statistics.median(samples)


def end_to_end(result: dict, setup_s: float) -> dict[str, float]:
    rounds = result["rounds"]
    # Each workload does one kind of work: pair concurrences on the quantum
    # workloads, classical map steps on lyapunov-csv.  Every round does the same.
    work = rounds[0]["pairs"] + rounds[0]["steps"]
    return {
        "setup_s": setup_s,
        "throughput_per_s": work / typical_round_s(rounds),
        "invocation_ms_p50": 1e3 * statistics.median(t for r in rounds for t in r["invocations_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, env: dict[str, str]) -> dict:
    ops = workloads.build(name, seed)
    setup_s = None if trace else setup_seconds(env)
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}"
    n_workers = 1 if trace else TIMED_WORKERS
    results = []
    with tempfile.TemporaryDirectory(dir=OUT, prefix="scratch-") as scratch:
        start = time.monotonic()
        for k in range(n_workers):
            deadline = start + seconds * (k + 1) / n_workers
            plan = {
                "ops": ops, "deadline": deadline, "trace": trace,
                "scratch_dir": scratch, "trace_path": str(OUT / f"trace-{stem}.npz"),
            }
            plan_path = os.path.join(scratch, "plan.json")
            result_path = os.path.join(scratch, "result.json")
            with open(plan_path, "w") as f:
                json.dump(plan, f)
            subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), plan_path, result_path],
                env=env, cwd=ROOT, timeout=deadline - time.monotonic() + WORKER_GRACE_S, check=True,
            )
            with open(result_path) as f:
                results.append(json.load(f))
    result = merge(results)
    values = result["layers"] if trace else end_to_end(result, setup_s)
    declared = declared_metrics("per_layer" if trace else "end_to_end")
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json's {sorted(declared)}")
    result["metrics"] = {k: {"value": values[k], "unit": unit} for k, unit in declared.items()}
    with open(OUT / f"result-{stem}-trace{int(trace)}.json", "w") as f:
        json.dump({"workload": name, "seed": seed, "seconds": seconds, **result}, f, indent=1)
    return result


def merge(results: list[dict]) -> dict:
    """One run's result from its workers' results, taken one after another."""
    merged = {"rounds": [], "attempted": 0, "failed": 0, "correct": True, "peak_rss_mb": 0.0, "checks": {}}
    for r in results:
        merged["rounds"] += r["rounds"]
        merged["attempted"] += r["attempted"]
        merged["failed"] += r["failed"]
        merged["correct"] = merged["correct"] and r["correct"]
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], r["peak_rss_mb"])
        for name, c in r["checks"].items():
            m = merged["checks"].setdefault(name, {"worst": 0.0, "tol": c["tol"], "count": 0, "passed": True})
            m["worst"] = max(m["worst"], c["worst"])
            m["count"] += c["count"]
            m["passed"] = m["passed"] and c["passed"]
    # A traced run has a single worker.
    merged.update({k: results[0][k] for k in ("layers", "absent") if k in results[0]})
    return merged


def report(name: str, seed: int, result: dict) -> None:
    rounds = result["rounds"]
    print(f"workload {name} seed {seed}: {len(rounds)} rounds, "
          f"{result['attempted']} invocations attempted, {result['failed']} failed")
    for check, r in sorted(result["checks"].items()):
        verdict = "PASS" if r["passed"] else "FAIL"
        print(f"  check {verdict} {check}: worst {r['worst']:.3g} (tol {r['tol']:.3g}, {r['count']} checked)")
    for absent in result.get("absent", []):
        print(f"  absent {absent}: not found in the package, reported as never called")
    for metric, m in result["metrics"].items():
        print(f"  metric {metric} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS), help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"error: {PACKAGE.relative_to(ROOT)} not found; run from a kickedtop checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        report(name, args.seed, result)
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

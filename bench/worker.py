"""Runs one workload in a fresh process: `python3 worker.py PLAN.json RESULT.json`.

The plan (written by run.py) holds the round of CLI invocations, the
deadline (on the CLOCK_MONOTONIC clock all processes share) and whether
to trace.  Each invocation is one in-process call
`kickedtop.cli.main(["--out", <scratch CSV>, ...])`; only that call is
timed.  The CSV is then read back and checked.  Rounds repeat until the
deadline has passed; the last round always completes.

With tracing on, rounds alternate untraced and traced (an even number
of rounds in all), so the per-layer figures come from the traced rounds
and the tracing overhead is the difference between the two kinds.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from checks import Checks, check_csv, known_fault
from tracer import LAYERS, Tracer


def run_rounds(cli, plan: dict, checks: Checks, tracer) -> dict:
    csv_path = os.path.join(plan["scratch_dir"], "op.csv")
    rounds = []
    attempted = failed = 0
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        times = []
        pairs = steps = rows = 0
        for op in plan["ops"]:
            attempted += 1
            fault = op["check"].get("known_fault")
            error, code = None, None
            t0 = time.perf_counter()
            try:
                code = cli.main(["--out", csv_path, *op["argv"]])
            except Exception as exc:  # an invocation's failure is counted, not fatal
                error = exc
            times.append(time.perf_counter() - t0)
            if fault is None:
                checks.holds("invocation returns exit code 0", error is None and code == 0)
            if error is not None or code != 0:
                failed += 1
                if fault is None and error is not None:
                    traceback.print_exception(error)
                checks.holds(f"known fault {fault}: fails only in the named way",
                             fault is not None and error is not None and known_fault(error, fault))
                continue
            rows += check_csv(csv_path, op["check"], checks)
            pairs += op["pairs"]
            steps += op["steps"]
        if traced:
            tracer.uninstall()
        rounds.append({"traced": traced, "invocations_s": times, "pairs": pairs, "steps": steps, "rows": rows})
        if time.monotonic() >= plan["deadline"] and (tracer is None or len(rounds) % 2 == 0):
            break
    return {"rounds": rounds, "attempted": attempted, "failed": failed}


def typical_round_s(rounds: list[dict]) -> float:
    """Time of a typical round: each invocation at its median time over `rounds`."""
    return sum(statistics.median(column) for column in zip(*(r["invocations_s"] for r in rounds)))


def layer_metrics(tracer, rounds: list[dict]) -> dict[str, float]:
    """Per-layer figures from the traced rounds; see README.md for each definition."""
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    n_rounds = len(traced)
    pairs = sum(r["pairs"] for r in traced)
    steps = sum(r["steps"] for r in traced)
    rows = sum(r["rows"] for r in traced)
    name, parent, dur, self_time = tracer.arrays()
    ids = {label: i for i, label in enumerate(tracer.names)}

    def mask(label):
        return name == ids.get(label, -1)

    def calls(label):
        return int(mask(label).sum())

    def per(value, count, scale=1.0):
        return scale * value / count if count else 0.0

    def us_per_call(label):
        return per(float(dur[mask(label)].sum()), calls(label), 1e6)

    out = {}
    for module, functions in LAYERS.items():
        in_module = np.isin(name, [ids[f"{module}.{f}"] for f in functions if f"{module}.{f}" in ids])
        out[f"{module}.self_s"] = per(float(self_time[in_module].sum()), n_rounds)
    out["kicked_top.floquet.calls"] = per(calls("kicked_top.floquet"), n_rounds)
    out["kicked_top.floquet.us_per_call"] = us_per_call("kicked_top.floquet")
    out["kicked_top.evolve.us_per_call"] = us_per_call("kicked_top.evolve")
    for label in ("collective_expectations", "reduce_symmetric", "epr_reduce"):
        out[f"pairwise.{label}.us_per_call"] = us_per_call(f"pairwise.{label}")
    out["spin.collective_operators.calls_per_pair"] = per(calls("spin.collective_operators"), pairs)
    for label in ("coherent_from_angles", "number_state", "spin_coherent"):
        out[f"spin.{label}.us_per_call"] = us_per_call(f"spin.{label}")
    out["concurrence.wootters.us_per_call"] = us_per_call("concurrence.wootters")
    # hermitian_eigen calls spent on pair concurrences: those not made by
    # unitary_from_hermitian while building a Floquet operator.
    eigh = mask("numerics.hermitian_eigen")
    by_unitary = np.zeros_like(eigh)
    caller = np.where(parent[eigh] >= 0, name[parent[eigh]], -1)
    by_unitary[eigh] = caller == ids.get("numerics.unitary_from_hermitian", -2)
    out["numerics.hermitian_eigen.calls_per_pair"] = per(int((eigh & ~by_unitary).sum()), pairs)
    out["numerics.hermitian_eigen.us_per_call"] = us_per_call("numerics.hermitian_eigen")
    out["numerics.unitary_from_hermitian.calls"] = per(calls("numerics.unitary_from_hermitian"), n_rounds)
    out["analytic3.analytic_concurrence_series.us_per_call"] = us_per_call(
        "analytic3.analytic_concurrence_series"
    )
    out["classical.lyapunov_running.ns_per_step"] = per(
        float(dur[mask("classical.lyapunov_running")].sum()), steps, 1e9
    )
    out["cli.main.rows_written"] = per(rows, n_rounds)
    out["cli.main.self_us_per_row"] = per(float(self_time[mask("cli.main")].sum()), rows, 1e6)
    out["trace.overhead_s"] = typical_round_s(traced) - typical_round_s(untraced)
    return out


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as f:
        plan = json.load(f)
    # Imported here, not at the top: run.py imports this module without src/ on its path.
    import kickedtop.cli as cli

    tracer = Tracer() if plan["trace"] else None
    checks = Checks()
    result = run_rounds(cli, plan, checks, tracer)
    result["checks"] = checks.results
    result["correct"] = checks.passed
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result["rounds"])
        result["absent"] = tracer.absent
        tracer.save(plan["trace_path"])
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

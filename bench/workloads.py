"""The benchmark's workloads: seeded CLI arguments plus what to check them against.

A workload is a round of CLI invocations that is repeated until the
run's time is up.  Each invocation ("op") carries its argument list
(without the global --out flag, which the worker adds), the work it
does (pair concurrences, classical map steps), and a check spec the
worker applies to the CSV it reads back.  References are computed here,
in the parent process, by `reference`; the program receives only the
generated arguments.

The seed jitters the kappa0 grids, the start angles (theta0/phi0 and
the coherent-state eta values) and the Lyapunov tangent seeds.  Sizes
(spin lengths, kick counts, qubit counts, step counts) do not depend on
it, so every seed does the same amount of work.
"""

from __future__ import annotations

import math
import random

import reference

J32_KICKS = 200
J32_GRID = 50

SWEEP_TWO_J = 200
SWEEP_KICKS = 30

LYAPUNOV_STEPS = 100_000
# The CLI runs lyapunov_running with its default transient of 100 kicks
# before accumulating; those steps are work too.
LYAPUNOV_TRANSIENT = 100
LYAPUNOV_START = (math.sin(2.25), 0.0, math.cos(2.25))

# The coherent invocations that fail today: spin_coherent takes np.sqrt of
# binomials that exceed 2^64 once N >= 68.  Their inputs are fixed, not seeded.
OVERFLOW_COHERENT = [(68, "1"), (80, "1"), (120, "0.5")]


def _op(argv, check, pairs=0, steps=0):
    return {"argv": argv, "check": check, "pairs": pairs, "steps": steps}


def _qkt_j15_grid(rng: random.Random) -> list[dict]:
    ops = []
    width = 3.0 * math.pi / J32_GRID
    for i in range(J32_GRID):
        kappa0 = (i + rng.uniform(0.05, 0.95)) * width
        argv = ["qkt-series", "--j", "1.5", "--kappa0", repr(kappa0), "--n-max", str(J32_KICKS)]
        check = {"kind": "series_j32", "ref": reference.j32_closed_form(kappa0, J32_KICKS)}
        ops.append(_op(argv, check, pairs=J32_KICKS))
    return ops


def _qkt_j100_sweep(rng: random.Random) -> list[dict]:
    grid = [0.0] + [base + rng.uniform(-0.3, 0.3) for base in (1.5, 3.0, 4.5)]
    ops = []
    for base in (0.6, 1.4, 2.2):
        theta0 = base + rng.uniform(-0.15, 0.15)
        phi0 = rng.uniform(0.0, 2.0 * math.pi)
        argv = [
            "qkt-sweep", "--j", str(SWEEP_TWO_J // 2),
            "--kappa0", ",".join(repr(k) for k in grid),
            "--theta0", repr(theta0), "--phi0", repr(phi0),
            "--n-max", str(SWEEP_KICKS),
        ]
        ref = reference.sweep_time_averages(SWEEP_TWO_J, grid, theta0, phi0, SWEEP_KICKS)
        check = {"kind": "sweep", "kappa0": grid, "ref": ref, "n_qubits": SWEEP_TWO_J}
        ops.append(_op(argv, check, pairs=len(grid) * SWEEP_KICKS))
    return ops


def _static_families(rng: random.Random) -> list[dict]:
    ops = []
    dicke_n = [6, 13, 24, 37, 50]
    rows = [
        [n, two_m / 2.0, reference.dicke_closed_form(n, two_m / 2.0)]
        for n in dicke_n
        for two_m in range(-n, n + 1, 2)
    ]
    ops.append(
        _op(["dicke", "--N", ",".join(map(str, dicke_n))], {"kind": "dicke", "rows": rows}, pairs=len(rows))
    )
    epr_n = list(range(1, 65))
    ops.append(
        _op(["epr", "--N", ",".join(map(str, epr_n))], {"kind": "epr", "N": epr_n}, pairs=len(epr_n))
    )
    for n in (2, 5, 17, 33, 50, 67):
        etas = sorted(math.tan(rng.uniform(0.05, math.pi - 0.05) / 2.0) for _ in range(5))
        argv = ["coherent", "--N", str(n), "--eta", ",".join(repr(e) for e in etas)]
        ops.append(_op(argv, {"kind": "coherent", "eta": etas}, pairs=len(etas)))
    for n, eta in OVERFLOW_COHERENT:
        argv = ["coherent", "--N", str(n), "--eta", eta]
        check = {"kind": "coherent", "eta": [float(eta)], "known_fault": "spin_coherent_sqrt_overflow"}
        ops.append(_op(argv, check, pairs=1))
    return ops


def _lyapunov_csv(rng: random.Random) -> list[dict]:
    seeds = sorted(rng.sample(range(100), 2))
    cases = [
        (0.0, "zero"),
        (rng.uniform(0.6, 1.5), "regular"),
        (rng.uniform(5.5, 6.0), "chaotic"),
        (rng.uniform(6.0, 6.5), "chaotic"),
    ]
    ops = []
    for kappa0, regime in cases:
        argv = [
            "lyapunov", "--kappa0", repr(kappa0),
            "--seeds", ",".join(map(str, seeds)), "--steps", str(LYAPUNOV_STEPS),
        ]
        ref = 0.0
        if regime != "zero":
            ref = reference.benettin_lyapunov(kappa0, LYAPUNOV_START, LYAPUNOV_STEPS, LYAPUNOV_TRANSIENT)
        check = {
            "kind": "lyapunov", "kappa0": kappa0, "seeds": seeds, "steps": LYAPUNOV_STEPS,
            "regime": regime, "ref": ref,
        }
        ops.append(_op(argv, check, steps=len(seeds) * (LYAPUNOV_STEPS + LYAPUNOV_TRANSIENT)))
    return ops


WORKLOADS = {
    "qkt-j1.5-grid": _qkt_j15_grid,
    "qkt-j100-sweep": _qkt_j100_sweep,
    "static-families": _static_families,
    "lyapunov-csv": _lyapunov_csv,
}


def build(name: str, seed: int) -> list[dict]:
    """The round of ops for workload `name`; the same seed gives the same round."""
    return WORKLOADS[name](random.Random(f"{name}/{seed}"))

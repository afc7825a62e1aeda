"""Microseconds per call of each kick-pipeline layer at 2j = 3, 30 and 200.

    python3 bench/layer_table.py

Runs `kickedtop qkt-series` in process under the benchmark's tracer, a
few series per spin size after one untraced warm-up series, and prints
a markdown table of the mean inclusive time per call of floquet,
collective_expectations, reduce_symmetric, wootters and evolve (one
kick each), and the time per kick of the whole series.  BLAS threading is left as the environment
sets it.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import kickedtop.cli as cli  # noqa: E402

from tracer import Tracer  # noqa: E402

KICKS = {3: 200, 30: 100, 200: 20}  # 2j -> kicks per series
REPEATS = 5
CALLS = [
    "kicked_top.floquet",
    "pairwise.collective_expectations",
    "pairwise.reduce_symmetric",
    "concurrence.wootters",
    "kicked_top.evolve",
]


def measure(two_j: int, kicks: int, csv_path: str) -> dict[str, float]:
    """Mean microseconds per call of each of CALLS, plus "per kick" for the whole series."""
    argv = ["--out", csv_path, "qkt-series", "--j", str(two_j / 2), "--kappa0", "1.0",
            "--theta0", "0.7", "--n-max", str(kicks)]
    tracer = Tracer()
    for traced in [False] + [True] * REPEATS:  # one untraced warm-up series first
        if traced:
            tracer.install()
        try:
            if cli.main(argv) != 0:
                raise RuntimeError(f"qkt-series failed at 2j = {two_j}")
        finally:
            tracer.uninstall()
    name, _, dur, _ = tracer.arrays()
    out = {}
    for label in CALLS + ["cli.main"]:
        picked = dur[name == tracer.names.index(label)]
        out[label] = 1e6 * picked.mean()
    out["per kick"] = out.pop("cli.main") / kicks
    return out


def main() -> int:
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        table = {two_j: measure(two_j, kicks, os.path.join(scratch, "series.csv"))
                 for two_j, kicks in KICKS.items()}
    print("| layer call | " + " | ".join(f"2j = {two_j}" for two_j in table) + " |")
    print("| --- |" + " --- |" * len(table))
    for label in CALLS + ["per kick"]:
        print(f"| `{label}` | " + " | ".join(f"{table[t][label]:,.1f}" for t in table) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

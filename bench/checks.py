"""Checks the worker applies to each CSV the CLI wrote.

Each check has a name, the worst value seen and a tolerance; a check
passes when every value stayed within its tolerance.  The check specs
come from `workloads`, which put the references in them.
"""

from __future__ import annotations

import math

# Tolerances, with the reason for each size.
TOL_J32_SIM = 1e-9  # simulator vs closed form: acceptance criterion 04's tolerance
TOL_CSV = 2e-12  # closed forms read back from a CSV that keeps 12 significant digits
TOL_SWEEP_REF = 1e-7  # the reference's lambdas are sqrt of eigvals of rho rho~, so ~sqrt(eps) near 0
TOL_ZERO = 1e-12  # "zero to roundoff"
TOL_DICKE = 1e-10  # pipeline roundoff at N <= 50 is ~1e-14; the CSV keeps 12 digits
TOL_SEPARABLE = 1e-10
TOL_LYAP_REGULAR = 1e-3  # both estimates decay as log(n)/n on a torus, ~1e-4 at 10^5 steps
TOL_LYAP_CHAOTIC = 0.05  # different orbits of one chaotic sea: difference sd ~0.006

# How spin_coherent fails today for N >= 68 (see workloads.OVERFLOW_COHERENT).
KNOWN_FAULTS = {
    "spin_coherent_sqrt_overflow": (TypeError, "spin_coherent", "has no callable sqrt method"),
}


class Checks:
    def __init__(self) -> None:
        self.results: dict[str, dict] = {}

    def within(self, name: str, value: float, tol: float) -> None:
        r = self.results.setdefault(name, {"worst": 0.0, "tol": tol, "count": 0, "passed": True})
        r["count"] += 1
        if not value <= tol:  # NaN fails too
            r["passed"] = False
        if not value <= r["worst"]:
            r["worst"] = value

    def holds(self, name: str, ok: bool) -> None:
        self.within(name, 0.0 if ok else 1.0, 0.0)

    @property
    def passed(self) -> bool:
        return all(r["passed"] for r in self.results.values())


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as f:
        lines = f.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def known_fault(exc: BaseException, fault: str) -> bool:
    """True when `exc` is the named fault: its type, the function it left, its message."""
    exc_type, function, message = KNOWN_FAULTS[fault]
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    return (
        type(exc) is exc_type
        and tb is not None
        and tb.tb_frame.f_code.co_name == function
        and message in str(exc)
    )


def check_csv(path: str, spec: dict, checks: Checks) -> int:
    """Apply the check spec to the CSV at `path`; return its data row count."""
    header, rows = read_csv(path)
    CHECKERS[spec["kind"]](header, rows, spec, checks)
    return len(rows)


def _series_j32(header, rows, spec, checks):
    ref = spec["ref"]
    checks.holds("qkt-series: columns n,C,C_analytic and one row per kick",
                 header == ["n", "C", "C_analytic"] and len(rows) == len(ref)
                 and all(int(r[0]) == n for n, r in enumerate(rows, start=1)))
    c = [float(r[1]) for r in rows]
    ca = [float(r[2]) for r in rows]
    checks.within("qkt-series: C vs own closed form", max(abs(x - y) for x, y in zip(c, ref)), TOL_J32_SIM)
    checks.within("qkt-series: C_analytic vs own closed form",
                  max(abs(x - y) for x, y in zip(ca, ref)), TOL_CSV)
    checks.within("qkt-series: |C(2k-1) - C(2k)|",
                  max(abs(c[k] - c[k + 1]) for k in range(0, len(c) - 1, 2)), TOL_J32_SIM)


def _sweep(header, rows, spec, checks):
    grid, ref = spec["kappa0"], spec["ref"]
    checks.holds("qkt-sweep: columns kappa0,C_timeavg and one row per kappa0",
                 header == ["kappa0", "C_timeavg"] and len(rows) == len(grid)
                 and all(abs(float(r[0]) - k) <= 1e-9 * max(1.0, k) for r, k in zip(rows, grid)))
    values = [float(r[1]) for r in rows]
    bound = 2.0 / spec["n_qubits"]
    checks.within("qkt-sweep: distance outside [0, 2/N]",
                  max(max(-v, v - bound, 0.0) for v in values), TOL_ZERO)
    checks.within("qkt-sweep: C_timeavg at kappa0 = 0",
                  max(abs(v) for v, k in zip(values, grid) if k == 0.0), TOL_ZERO)
    checks.within("qkt-sweep: C_timeavg vs reference simulator",
                  max(abs(v - r) for v, r in zip(values, ref)), TOL_SWEEP_REF)


def _dicke(header, rows, spec, checks):
    ref = spec["rows"]
    checks.holds("dicke: columns N,M,C_closed,C_numeric and the expected (N, M) rows",
                 header == ["N", "M", "C_closed", "C_numeric"] and len(rows) == len(ref)
                 and all(int(r[0]) == n and float(r[1]) == m for r, (n, m, _) in zip(rows, ref)))
    checks.within("dicke: C_closed and C_numeric vs own closed form",
                  max(max(abs(float(r[2]) - c), abs(float(r[3]) - c)) for r, (_, _, c) in zip(rows, ref)),
                  TOL_DICKE)


def _epr(header, rows, spec, checks):
    ns = spec["N"]
    checks.holds("epr: columns N,C and one row per N",
                 header == ["N", "C"] and [int(r[0]) for r in rows] == ns)
    checks.within("epr: C vs 1/N", max(abs(float(r[1]) - 1.0 / n) for r, n in zip(rows, ns)), TOL_CSV)


def _coherent(header, rows, spec, checks):
    etas = spec["eta"]
    checks.holds("coherent: columns eta,c_lambda and one row per eta",
                 header == ["eta", "c_lambda"] and len(rows) == len(etas)
                 and all(abs(float(r[0]) - e) <= 1e-11 * max(1.0, abs(e)) for r, e in zip(rows, etas)))
    c_lambda = [float(r[1]) for r in rows]
    checks.within("coherent: |c_lambda|", max(abs(c) for c in c_lambda), TOL_SEPARABLE)
    checks.holds("coherent: C = max(0, c_lambda) is 0", all(c <= 0.0 for c in c_lambda))


def _lyapunov(header, rows, spec, checks):
    steps, seeds, kappa0 = spec["steps"], spec["seeds"], spec["kappa0"]
    ok = header == ["kappa0", "seed", "n", "lambda_running"] and len(rows) == steps * len(seeds)
    finals = []
    if ok:
        for b, seed in enumerate(seeds):
            last = rows[(b + 1) * steps - 1]
            ok = ok and int(last[1]) == seed and int(last[2]) == steps
            ok = ok and abs(float(last[0]) - kappa0) <= 1e-9 * max(1.0, kappa0)
            finals.append(float(last[3]))
    checks.holds("lyapunov: columns, one row per (seed, step), blocks end at n = steps", ok)
    if not finals:
        return
    worst = max(abs(lam - spec["ref"]) for lam in finals)
    if spec["regime"] == "zero":
        checks.within("lyapunov: final exponent at kappa0 = 0", max(abs(x) for x in finals), TOL_ZERO)
    elif spec["regime"] == "regular":
        checks.within("lyapunov: regular kappa0, final vs own Benettin", worst, TOL_LYAP_REGULAR)
    else:
        checks.within("lyapunov: chaotic kappa0, final vs own Benettin", worst, TOL_LYAP_CHAOTIC)
    checks.holds("lyapunov: final exponents finite", all(math.isfinite(x) for x in finals))


CHECKERS = {
    "series_j32": _series_j32,
    "sweep": _sweep,
    "dicke": _dicke,
    "epr": _epr,
    "coherent": _coherent,
    "lyapunov": _lyapunov,
}

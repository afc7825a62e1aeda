"""Command-line front end emitting CSV for every figure-class output.

Every command writes a header row plus data rows, floats formatted to
12 significant digits with '\\n' line endings, so identical invocations
are byte-identical.  Output goes to stdout, or atomically to --out
(temp file in the target directory, then rename).

Exit codes: 0 success, 2 argument error, 3 numerical failure.  Spin
sizes 2j and qubit counts N above MAX_QUBITS are argument errors,
rejected before anything is allocated.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile

import numpy as np

from .analytic3 import analytic_concurrence_series
from .classical import lyapunov_running
from .concurrence import ConcurrenceResult, dicke_concurrence_closed, wootters
from .errors import DimensionTooLarge, DomainError, NumericalError
from .kicked_top import KickedTopParams, concurrence_series, concurrence_sweep, time_average
from .pairwise import collective_expectations, epr_reduce, reduce_symmetric
from .spin import SpinQuantum, number_state, spin_coherent

SWEEP_GRID_POINTS = 25
# Largest 2j or N accepted: a dense rotation at 2j = 4096 is 268 MB.
MAX_QUBITS = 4096
LYAPUNOV_START = (math.sin(2.25), 0.0, math.cos(2.25))


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "{:.12g}".format(float(value))


def _emit(header: list[str], rows: list[tuple], out_path: str | None) -> None:
    """Write the CSV line by line; rows is complete before anything is written."""

    def write(f) -> None:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)

    if out_path is None:
        write(sys.stdout)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            write(f)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"expected comma-separated integers, got {text!r}") from exc


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"expected comma-separated numbers, got {text!r}") from exc


def _check_size(n_qubits: int) -> None:
    if n_qubits > MAX_QUBITS:
        raise DimensionTooLarge(f"{n_qubits} qubits exceeds the cap of {MAX_QUBITS}")


def _qubit_counts(text: str, minimum: int) -> list[int]:
    """Sorted counts from a comma-separated list, each checked before any is used."""
    counts = sorted(_int_list(text))
    for n_qubits in counts:
        if n_qubits < minimum:
            raise DomainError(f"N must be >= {minimum}")
        _check_size(n_qubits)
    return counts


def _spin_from_j(j: float) -> SpinQuantum:
    if not math.isfinite(j):
        raise DomainError(f"j must be finite, got {j}")
    two_j = round(2.0 * j)
    if abs(2.0 * j - two_j) > 1e-9 or two_j < 1:
        raise DomainError(f"j = {j} is not a positive half-integer")
    _check_size(two_j)
    return SpinQuantum(two_j)


def _resolve_kappa0(kappa0: str | None, kappa: str | None) -> list[float]:
    """Exactly one of --kappa0 / --kappa; the latter is kappa0/6."""
    if (kappa0 is None) == (kappa is None):
        raise DomainError("give exactly one of --kappa0 and --kappa")
    if kappa0 is not None:
        return _float_list(kappa0)
    return [6.0 * k for k in _float_list(kappa)]


def _resolve_kappa0_single(kappa0: str | None, kappa: str | None) -> float:
    values = _resolve_kappa0(kappa0, kappa)
    if len(values) != 1:
        raise DomainError(f"expected a single twist strength, got {len(values)}")
    return values[0]


def _pair_wootters(states: list) -> ConcurrenceResult:
    """Wootters' formula on the pair reductions of states, as one stack."""
    stack = np.stack([state.amps for state in states])
    return wootters(reduce_symmetric(collective_expectations(stack)))


def cmd_dicke(args) -> None:
    for bound in (args.M_min, args.M_max):
        if bound is not None and not math.isfinite(bound):
            raise DomainError(f"M bounds must be finite, got {bound}")
    lo = -math.inf if args.M_min is None else args.M_min - 1e-12
    hi = math.inf if args.M_max is None else args.M_max + 1e-12
    rows = []
    for n_qubits in _qubit_counts(args.N, 2):
        levels = [n for n in range(n_qubits + 1) if lo <= n - n_qubits / 2 <= hi]
        if not levels:
            continue
        numeric = _pair_wootters([number_state(n_qubits, n) for n in levels]).concurrence
        for n, c in zip(levels, numeric):
            m = n - n_qubits / 2
            rows.append((n_qubits, m, dicke_concurrence_closed(n_qubits, m), c))
    _emit(["N", "M", "C_closed", "C_numeric"], rows, args.out)


def cmd_epr(args) -> None:
    counts = _qubit_counts(args.N, 1)
    rows = []
    if counts:
        rows = list(zip(counts, wootters(epr_reduce(counts)).concurrence))
    _emit(["N", "C"], rows, args.out)


def cmd_coherent(args) -> None:
    n_qubits = args.N
    if n_qubits < 2:
        raise DomainError("N must be >= 2")
    _check_size(n_qubits)
    etas = sorted(_float_list(args.eta))
    rows = []
    if etas:
        c_lambda = _pair_wootters([spin_coherent(n_qubits, eta) for eta in etas]).c_lambda
        rows = list(zip(etas, c_lambda))
    _emit(["eta", "c_lambda"], rows, args.out)


def cmd_qkt_series(args) -> None:
    q = _spin_from_j(args.j)
    kappa0 = _resolve_kappa0_single(args.kappa0, args.kappa)
    params = KickedTopParams(q, kappa0)
    series = concurrence_series(params, args.theta0, args.phi0, args.n_max)
    if q.two_j == 3:
        analytic = analytic_concurrence_series(args.n_max, kappa0)
        rows = [(n, c, analytic[n - 1]) for n, c in series.entries]
        _emit(["n", "C", "C_analytic"], rows, args.out)
    else:
        _emit(["n", "C"], list(series.entries), args.out)


def cmd_qkt_sweep(args) -> None:
    q = _spin_from_j(args.j)
    if args.kappa0 is None and args.kappa is None:
        grid = list(np.linspace(0.0, math.pi * q.j, SWEEP_GRID_POINTS))
    else:
        grid = _resolve_kappa0(args.kappa0, args.kappa)
    sweep = concurrence_sweep(q, sorted(grid), args.theta0, args.phi0, args.n_max)
    rows = [(s.params.kappa0, time_average(s, args.burn_in)) for s in sweep]
    _emit(["kappa0", "C_timeavg"], rows, args.out)


def cmd_analytic3(args) -> None:
    kappa0 = _resolve_kappa0_single(args.kappa0, args.kappa)
    values = analytic_concurrence_series(args.n_max, kappa0)
    rows = [(n, values[n - 1]) for n in range(1, args.n_max + 1)]
    _emit(["n", "C_analytic"], rows, args.out)


def cmd_lyapunov(args) -> None:
    grid = sorted(_resolve_kappa0(args.kappa0, args.kappa))
    seeds = sorted(_int_list(args.seeds))
    rows = []
    for kappa0 in grid:
        for seed in seeds:
            running = lyapunov_running(
                kappa0, math.pi / 2.0, LYAPUNOV_START, args.steps, seed=seed
            )
            rows.extend(
                (kappa0, seed, n, lam) for n, lam in enumerate(running, start=1)
            )
    _emit(["kappa0", "seed", "n", "lambda_running"], rows, args.out)


def _add_kappa_flags(p: argparse.ArgumentParser, as_list: bool) -> None:
    hint = "comma-separated list" if as_list else "value"
    p.add_argument("--kappa0", help=f"twist strength kappa0 ({hint})")
    p.add_argument("--kappa", help=f"alternative scaling kappa = kappa0/6 ({hint})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kickedtop",
        description="Kicked-top and collective-spin entanglement data as CSV.",
    )
    parser.add_argument("--out", help="write CSV to this path atomically (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dicke", help="columns N,M,C_closed,C_numeric over a Dicke-state sweep")
    p.add_argument("--N", required=True, help="comma-separated qubit counts, each >= 2")
    p.add_argument("--M-min", dest="M_min", type=float, help="lowest M to include")
    p.add_argument("--M-max", dest="M_max", type=float, help="highest M to include")
    p.set_defaults(func=cmd_dicke)

    p = sub.add_parser("epr", help="columns N,C for the shared singlet-pair ensemble")
    p.add_argument("--N", required=True, help="comma-separated pair counts, each >= 1")
    p.set_defaults(func=cmd_epr)

    p = sub.add_parser("coherent", help="columns eta,c_lambda for spin-coherent states")
    p.add_argument("--N", required=True, type=int, help="qubit count >= 2")
    p.add_argument("--eta", required=True, help="comma-separated stereographic parameters")
    p.set_defaults(func=cmd_coherent)

    p = sub.add_parser("qkt-series", help="columns n,C (plus C_analytic when 2j = 3)")
    p.add_argument("--j", required=True, type=float, help="spin size, half-integer")
    _add_kappa_flags(p, as_list=False)
    p.add_argument("--theta0", type=float, default=0.0, help="initial polar angle")
    p.add_argument("--phi0", type=float, default=0.0, help="initial azimuth")
    p.add_argument("--n-max", dest="n_max", required=True, type=int, help="number of kicks")
    p.set_defaults(func=cmd_qkt_series)

    p = sub.add_parser("qkt-sweep", help="columns kappa0,C_timeavg over a kappa0 grid")
    p.add_argument("--j", required=True, type=float, help="spin size, half-integer")
    _add_kappa_flags(p, as_list=True)
    p.add_argument("--theta0", type=float, default=0.0, help="initial polar angle")
    p.add_argument("--phi0", type=float, default=0.0, help="initial azimuth")
    p.add_argument("--n-max", dest="n_max", required=True, type=int, help="kicks per point")
    p.add_argument("--burn-in", dest="burn_in", type=int, default=0, help="kicks dropped from the average")
    p.set_defaults(func=cmd_qkt_sweep)

    p = sub.add_parser("analytic3", help="columns n,C_analytic from the 3-qubit closed form")
    _add_kappa_flags(p, as_list=False)
    p.add_argument("--n-max", dest="n_max", required=True, type=int, help="number of kicks")
    p.set_defaults(func=cmd_analytic3)

    p = sub.add_parser(
        "lyapunov",
        help="columns kappa0,seed,n,lambda_running; start point fixed at "
        "(sin 2.25, 0, cos 2.25), precession pi/2",
    )
    _add_kappa_flags(p, as_list=True)
    p.add_argument("--steps", required=True, type=int, help="accumulated steps, >= 1000")
    p.add_argument("--seeds", default="0", help="comma-separated tangent seeds")
    p.set_defaults(func=cmd_lyapunov)

    return parser


# Built on first use and then shared by every main() call in the process.
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end emitting CSV for every figure-class output.

Every command computes all of its values first and then writes a header
row plus one line per data row through a single writer, _emit.  The
values come as computed columns, in blocks that share their leading
values (one block per kappa0 and seed of lyapunov, per N of dicke, one
block elsewhere), and the writer zips each block's columns into rows
strictly, so a column of another length raises ValueError instead of
dropping rows.  Each value is written by the printf code '%d' when it is
an integer, '%.12g' (12 significant digits) otherwise, with '\\n' line
endings, so identical invocations are byte-identical.  Every row goes
out in one loop, CHUNK_ROWS rows at a time through one '%' on the
block's line template repeated once per row.
Output goes to stdout, or atomically to --out (temp file in the target
directory, then rename).

Exit codes: 0 success, 2 argument error, 3 numerical failure.  Spin
sizes 2j and qubit counts N above MAX_QUBITS, kick and step counts
above MAX_STEPS, and an --out path that cannot be written are argument
errors; the caps are checked before anything is allocated.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .analytic3 import analytic_concurrence_series
from .classical import lyapunov_running
from .concurrence import dicke_concurrence_closed, wootters
from .errors import DomainError, NumericalError
from .kicked_top import (
    DEFAULT_PRECESSION,
    KICK_BLOCK_AMPLITUDES,
    KickedTopParams,
    _check_burn_in,
    concurrence_series,
    concurrence_sweep,
    time_average,
)
from .pairwise import collective_expectations, epr_reduce, reduce_symmetric
from .spin import POLE_SNAP_TOL, SpinQuantum, _count, _real, number_state, spin_coherent

SWEEP_GRID_POINTS = 25
# Largest 2j or N accepted: at 2j = 4095 and 4096 building the rotation's
# parity blocks takes 0.9-1.0 s on 2 cores, and a qkt-series run takes
# 1.1-1.2 s.  It peaks at 198 MB resident at 2j = 4096, the interpreter's
# 28 MB plus five (2j//2 + 1)^2 float arrays during the block products,
# and at 168 MB at 2j = 4095, whose one reflection class needs four.
MAX_QUBITS = 4096
# Largest --n-max or --steps accepted; nothing in use needs more than 1e5.
MAX_STEPS = 10**7
LYAPUNOV_START = (math.sin(2.25), 0.0, math.cos(2.25))
# Rows formatted and written together by _emit: one '%' call and one write
# per chunk, so memory stays bounded by a chunk of text.
CHUNK_ROWS = 1024


def _code(value) -> str:
    return "%d" if isinstance(value, (int, np.integer)) else "%.12g"


def _emit(
    header: list[str], blocks: Iterable[tuple[tuple, tuple[Sequence, ...]]], out_path: str | None
) -> None:
    """Write the CSV from (lead, columns) blocks, one format call per chunk of rows.

    lead holds the leading column values shared by every row of its
    block and columns the equal-length sequences of the remaining
    columns, already computed; zip(*columns, strict=True) forms the rows,
    so a column of another length raises ValueError.  Every value is
    written by its printf code, '%d' for an int or np.integer and
    '%.12g' for any other.  The codes of the row columns come from the
    first row of the first non-empty block, so a later block with
    another column count raises TypeError; a block with no rows writes
    nothing.  Up to CHUNK_ROWS rows are flattened into one tuple and
    formatted by one '%' on the block's template repeated once per row.
    """

    def write(f) -> None:
        f.write(",".join(header) + "\n")
        codes = None
        for lead, columns in blocks:
            rows = zip(*columns, strict=True)
            while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
                if codes is None:
                    codes = [_code(v) for v in chunk[0]]
                # The lead's text is digits, sign, '.', 'e', 'inf' or 'nan',
                # never a '%', so it needs no escaping in the template.
                template = ",".join([_code(v) % v for v in lead] + codes) + "\n"
                f.write(template * len(chunk) % tuple(itertools.chain.from_iterable(chunk)))

    if out_path is None:
        write(sys.stdout)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
        try:
            with os.fdopen(fd, "w", newline="") as f:
                write(f)
            os.replace(tmp, out_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DomainError(f"cannot write {out_path}: {exc.strerror}") from exc


def _list(text: str, kind: type) -> list:
    """The non-blank comma-separated tokens of text, each read by kind (int or float).

    A list needs at least one entry.
    """
    noun = "integers" if kind is int else "numbers"
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"expected comma-separated {noun}, got {text!r}") from exc
    if not values:
        raise DomainError(f"expected comma-separated {noun}, got none in {text!r}")
    return values


def _check_size(count: int, cap: int = MAX_QUBITS, unit: str = "qubits") -> None:
    if count > cap:
        raise DomainError(f"{count} {unit} exceeds the cap of {cap}")


def _qubit_count(n_qubits: int, minimum: int) -> int:
    _check_size(_count("N", n_qubits, minimum))
    return n_qubits


def _qubit_counts(text: str, minimum: int) -> list[int]:
    """Sorted counts from a comma-separated list, each checked before any is used."""
    return [_qubit_count(n_qubits, minimum) for n_qubits in sorted(_list(text, int))]


def _spin_from_j(j: float) -> SpinQuantum:
    _real("j", j)
    # cap 2j before round(), which raises OverflowError on an infinite 2j,
    # and clamp it at 0 for the same reason; a 2j that rounds to at most
    # the cap goes on to the half-integer check
    if 2.0 * j > MAX_QUBITS + 0.5:
        raise DomainError(f"{2.0 * j:.12g} qubits exceeds the cap of {MAX_QUBITS}")
    two_j = round(2.0 * max(j, 0.0))
    if abs(2.0 * j - two_j) > 1e-9 or two_j < 1:
        raise DomainError(f"j = {j} is not a positive half-integer")
    return SpinQuantum(two_j)


def _resolve_kappa0(kappa0: str | None, kappa: str | None) -> list[float]:
    """Exactly one of --kappa0 / --kappa; the latter is kappa0/6."""
    if (kappa0 is None) == (kappa is None):
        raise DomainError("give exactly one of --kappa0 and --kappa")
    if kappa0 is not None:
        return _list(kappa0, float)
    return [6.0 * _real("kappa", k, 0) for k in _list(kappa, float)]


def _resolve_kappa0_single(kappa0: str | None, kappa: str | None) -> float:
    values = _resolve_kappa0(kappa0, kappa)
    if len(values) != 1:
        raise DomainError(f"expected a single twist strength, got {len(values)}")
    return values[0]


def _pair_wootters(
    states: Iterable[np.ndarray], n_qubits: int
) -> Iterator[tuple[float, float]]:
    """(concurrence, c_lambda) of the pair reduction of each N-qubit state, in order.

    The states are drawn lazily and go through Wootters' formula in
    stacks of at most KICK_BLOCK_AMPLITUDES amplitudes, so memory does
    not grow with the number of states.
    """
    per_block = max(1, KICK_BLOCK_AMPLITUDES // (n_qubits + 1))
    states = iter(states)
    while block := list(itertools.islice(states, per_block)):
        result = wootters(reduce_symmetric(collective_expectations(np.stack(block))))
        yield from zip(result.concurrence, result.c_lambda)


def cmd_dicke(args) -> None:
    lo = -math.inf if args.M_min is None else _real("M bounds", args.M_min) - 1e-12
    hi = math.inf if args.M_max is None else _real("M bounds", args.M_max) + 1e-12
    blocks = []
    for n_qubits in _qubit_counts(args.N, 2):
        levels = [n for n in range(n_qubits + 1) if lo <= n - n_qubits / 2 <= hi]
        ms = [n - n_qubits / 2 for n in levels]
        closed = [dicke_concurrence_closed(n_qubits, m) for m in ms]
        states = (number_state(n_qubits, n) for n in levels)
        numeric = [c for c, _ in _pair_wootters(states, n_qubits)]
        blocks.append(((n_qubits,), (ms, closed, numeric)))
    _emit(["N", "M", "C_closed", "C_numeric"], blocks, args.out)


def cmd_epr(args) -> None:
    counts = _qubit_counts(args.N, 1)
    concurrence = wootters(epr_reduce(counts)).concurrence
    _emit(["N", "C"], [((), (counts, concurrence))], args.out)


def cmd_coherent(args) -> None:
    n_qubits = _qubit_count(args.N, 2)
    etas = sorted(_list(args.eta, float))
    results = _pair_wootters((spin_coherent(n_qubits, eta) for eta in etas), n_qubits)
    c_lambdas = [c_lambda for _, c_lambda in results]
    _emit(["eta", "c_lambda"], [((), (etas, c_lambdas))], args.out)


def cmd_qkt_series(args) -> None:
    q = _spin_from_j(args.j)
    _check_size(args.n_max, MAX_STEPS, "kicks")
    kappa0 = _resolve_kappa0_single(args.kappa0, args.kappa)
    params = KickedTopParams(q, kappa0)
    series = concurrence_series(params, args.theta0, args.phi0, args.n_max)
    kicks = range(1, args.n_max + 1)
    # the closed form belongs to the |000> start; G takes it to the other
    # pole by one-qubit rotations, which leave pair concurrence unchanged
    if q.two_j == 3 and (args.theta0 == 0.0 or abs(args.theta0 - math.pi) <= POLE_SNAP_TOL):
        analytic = analytic_concurrence_series(args.n_max, kappa0)
        _emit(["n", "C", "C_analytic"], [((), (kicks, series.concurrence, analytic))], args.out)
    else:
        _emit(["n", "C"], [((), (kicks, series.concurrence))], args.out)


def cmd_qkt_sweep(args) -> None:
    q = _spin_from_j(args.j)
    _check_size(args.n_max, MAX_STEPS, "kicks")
    if args.kappa0 is None and args.kappa is None:
        grid = list(np.linspace(0.0, math.pi * q.j, SWEEP_GRID_POINTS))
    else:
        grid = _resolve_kappa0(args.kappa0, args.kappa)
    _check_size(len(grid) * args.n_max, MAX_STEPS, "kicks over the kappa0 grid")
    _check_burn_in(args.burn_in, args.n_max)
    sweep = concurrence_sweep(q, sorted(grid), args.theta0, args.phi0, args.n_max)
    averages = [time_average(s, args.burn_in) for s in sweep]
    kappa0s = [s.params.kappa0 for s in sweep]
    _emit(["kappa0", "C_timeavg"], [((), (kappa0s, averages))], args.out)


def cmd_analytic3(args) -> None:
    _check_size(args.n_max, MAX_STEPS, "kicks")
    kappa0 = _resolve_kappa0_single(args.kappa0, args.kappa)
    values = analytic_concurrence_series(args.n_max, kappa0)
    _emit(["n", "C_analytic"], [((), (range(1, args.n_max + 1), values))], args.out)


def cmd_lyapunov(args) -> None:
    _check_size(args.steps, MAX_STEPS, "steps")
    grid = sorted(_resolve_kappa0(args.kappa0, args.kappa))
    seeds = sorted(_list(args.seeds, int))
    # every run's list is held until the write, so the cap is on their total
    _check_size(len(grid) * len(seeds) * args.steps, MAX_STEPS, "steps over all runs")
    runs = [
        ((kappa0, seed), lyapunov_running(kappa0, DEFAULT_PRECESSION, LYAPUNOV_START, args.steps, seed=seed))
        for kappa0 in grid
        for seed in seeds
    ]
    blocks = [(lead, (range(1, args.steps + 1), running)) for lead, running in runs]
    _emit(["kappa0", "seed", "n", "lambda_running"], blocks, args.out)


def _add_kappa_flags(p: argparse.ArgumentParser, as_list: bool) -> None:
    hint = "comma-separated list" if as_list else "value"
    p.add_argument("--kappa0", help=f"twist strength kappa0 ({hint})")
    p.add_argument("--kappa", help=f"alternative scaling kappa = kappa0/6 ({hint})")


def _add_float_flag(p: argparse.ArgumentParser, flag: str, text: str, **kwargs) -> None:
    # argparse takes a separate "-inf", and on some versions "-1e-3", for an option name
    hint = f"; give a negative value with an exponent or -inf as {flag}=-1e-3"
    p.add_argument(flag, type=float, help=text + hint, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kickedtop",
        description="Kicked-top and collective-spin entanglement data as CSV.",
    )
    parser.add_argument("--out", help="write CSV to this path atomically (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dicke", help="columns N,M,C_closed,C_numeric over a Dicke-state sweep")
    p.add_argument("--N", required=True, help="comma-separated qubit counts, each >= 2")
    _add_float_flag(p, "--M-min", "lowest M to include", dest="M_min")
    _add_float_flag(p, "--M-max", "highest M to include", dest="M_max")
    p.set_defaults(func=cmd_dicke)

    p = sub.add_parser("epr", help="columns N,C for the shared singlet-pair ensemble")
    p.add_argument("--N", required=True, help="comma-separated pair counts, each >= 1")
    p.set_defaults(func=cmd_epr)

    p = sub.add_parser("coherent", help="columns eta,c_lambda for spin-coherent states")
    p.add_argument("--N", required=True, type=int, help="qubit count >= 2")
    p.add_argument("--eta", required=True, help="comma-separated stereographic parameters")
    p.set_defaults(func=cmd_coherent)

    p = sub.add_parser("qkt-series", help="columns n,C (plus C_analytic when 2j = 3 from a pole)")
    p.add_argument("--j", required=True, type=float, help="spin size, half-integer")
    _add_kappa_flags(p, as_list=False)
    _add_float_flag(p, "--theta0", "initial polar angle", default=0.0)
    _add_float_flag(p, "--phi0", "initial azimuth", default=0.0)
    p.add_argument("--n-max", dest="n_max", required=True, type=int, help="number of kicks")
    p.set_defaults(func=cmd_qkt_series)

    p = sub.add_parser("qkt-sweep", help="columns kappa0,C_timeavg over a kappa0 grid")
    p.add_argument("--j", required=True, type=float, help="spin size, half-integer")
    _add_kappa_flags(p, as_list=True)
    _add_float_flag(p, "--theta0", "initial polar angle", default=0.0)
    _add_float_flag(p, "--phi0", "initial azimuth", default=0.0)
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

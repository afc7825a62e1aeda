"""Reduction of symmetric multiqubit states to the two-qubit density matrix.

For a permutation-symmetric state every qubit pair has the same reduced
density matrix, and it is determined entirely by collective first and
second moments (Wang and Molmer, Eur. Phys. J. D 18, 385, 2002).  Each
moment is an O(N) sum along the J+ ladder over the N+1 amplitudes, so no
collective operator is ever formed.  The matrix lives on the basis
{|00>, |01>, |10>, |11>}, and reduce_symmetric names its entries

        [ v+   x+*  x+*  u*  ]
        [ x+   w    w    x-* ]
        [ x+   w    w    x-* ]
        [ u    x-   x-   v-  ]

Every pair of a symmetric state lives on the triplet, so <01|rho|10> =
<01|rho|01> = w and the two inner rows are one row written twice.  A
stack of T states gives a (T, 4, 4) stack of these matrices in one call.
TwoQubitDensity.from_matrix validates a stack, and its positivity check
factors each matrix as X X^dagger by pivoted Cholesky, a factor that
wootters reuses.  The singlet lies in the kernel of every symmetric pair
matrix by construction, so the factor of a reduced state has rank 3 at
most.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError
from .spin import _count, _ladder

TRACE_TOL = 1e-10
# Kick roundoff moves sum |a_n|^2 by up to about 6e-16 per kick, the same
# way every kick (measured at 2j <= 1001), so by about 6e-9 over the 1e7
# kicks the CLI accepts: this leaves a wide margin above that drift and
# still catches any real normalisation error.
NORM_TOL = 1e-6
HERMITIZE_TOL = 1e-10
# The lowest eigenvalue a pair matrix may have, enforced through the
# residual of its Cholesky factor (see TwoQubitDensity.from_matrix).
PSD_FLOOR = -1e-7
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CollectiveExpectations:
    """First and second collective moments of a symmetric state.

    These five moments fix the pair matrix.  Each moment is a number for
    one state and a (T,) array for a stack of T states.
    """

    n_qubits: int
    sz: float | np.ndarray
    sz2: float | np.ndarray
    splus: complex | np.ndarray
    splus2: complex | np.ndarray
    splus_sz_anti: complex | np.ndarray    # <[S+, Sz]_+>


def _check_rows(ok: np.ndarray, single: bool, message, error=NumericalError) -> None:
    """Raise error for the first row where ok is False; name the row in a stack."""
    if ok.all():
        return
    i = int(np.argmin(ok))
    raise error(message(i) if single else f"row {i}: {message(i)}")


def _pivoted_cholesky(a: np.ndarray, floor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X, E) with a = X X^dagger + E for a Hermitian (T, 4, 4) stack, by pivoted Cholesky.

    Step k takes each row's largest remaining diagonal as its pivot and
    peels off the column through it.  Once a pivot is at or below the
    row's floor, the row's factor ends and every later column is exactly
    zero.  The (T, 4, r) factor X holds the columns in pivot order, and r
    is the largest rank kept in the stack: the steps stop there.  E is
    what the steps leave of a, the residual a - X X^dagger.

    Each step subtracts its column's outer product from the whole 4x4, so
    a used pivot's diagonal is left at roundoff, at most about 3*eps*tr(a),
    and not set to zero.  Later steps only lower it, so it never passes a
    floor of 16*eps*tr(a) again.
    """
    rows = np.arange(len(a))
    rest = a.copy()
    x = np.zeros_like(a)
    live = np.ones(len(a), dtype=bool)
    for k in range(4):
        diag = rest.diagonal(axis1=-2, axis2=-1).real
        p = diag.argmax(axis=-1)
        pivot = diag[rows, p]
        live &= pivot > floor
        if not live.any():
            return x[..., :k], rest
        col = rest[rows, :, p] * (live / np.sqrt(np.where(live, pivot, 1.0)))[:, None]
        x[..., k] = col
        rest -= col[:, :, None] * col[:, None, :].conj()
    return x, rest


@dataclass(frozen=True)
class TwoQubitDensity:
    """Validated 4x4 two-qubit density matrix and its Cholesky factor.

    rho is one (4, 4) matrix or a (T, 4, 4) stack, laid out as in the
    module docstring's picture.  factor is the (4, r) or (T, 4, r) X with
    rho = X X^dagger to roundoff, made by the positivity check in
    from_matrix and kept so that consumers need not factor rho again.
    Its columns are in pivot order, r is the largest rank kept in the
    stack, and a row of lower rank has exact zeros in its later columns.
    """

    rho: np.ndarray = field(repr=False)
    factor: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def from_matrix(cls, rho: np.ndarray) -> "TwoQubitDensity":
        """Validate, symmetrize roundoff, and wrap a raw 4x4 matrix or a stack.

        Hermitizes via (rho + rho^dagger)/2 and insists the correction
        is below HERMITIZE_TOL, then checks trace and positivity.  Each
        check runs on every matrix of a (T, 4, 4) stack, and its error
        names the first failing row.  The Hermitized matrix equals its
        conjugate transpose bit for bit (a - b is exactly -(b - a)), and
        a NaN fails the HERMITIZE_TOL check, so that check is the only
        Hermiticity check the stack needs.

        Positivity: a diagonally pivoted Cholesky factors rho = X X^dagger,
        and a row's factor ends once its pivot is at or below
        16*eps*tr(rho).  This is backward stable on semidefinite matrices
        and stops at their rank (Higham, 1990).  A row is rejected when
        the residual the steps leave, ||rho - X X^dagger||_F, exceeds
        -PSD_FLOOR.  X X^dagger is semidefinite and the Frobenius norm
        bounds the spectral norm, so every matrix with an eigenvalue below
        PSD_FLOOR is rejected.
        """
        rho = np.asarray(rho, dtype=complex)
        if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4) or rho.size == 0:
            raise DomainError(f"expected 4x4 or a stack of 4x4, got {rho.shape}")
        single = rho.ndim == 2
        stack = rho.reshape(-1, 4, 4)
        sym = (stack + stack.conj().swapaxes(-1, -2)) / 2
        corr = np.abs(sym - stack).max(axis=(-2, -1))
        _check_rows(corr <= HERMITIZE_TOL, single,
                    lambda i: f"hermitizing moved an entry by {corr[i]:.3e}")
        tr = np.trace(sym, axis1=-2, axis2=-1).real
        _check_rows(np.abs(tr - 1) <= TRACE_TOL, single,
                    lambda i: f"trace = {float(tr[i])!r}, expected 1")
        # far from semidefinite, the steps may overflow: the residual is then inf or nan
        with np.errstate(over="ignore", invalid="ignore"):
            x, rest = _pivoted_cholesky(sym, 16.0 * _EPS * tr)
            resid = np.linalg.norm(rest, axis=(-2, -1))
        _check_rows(resid <= -PSD_FLOOR, single,
                    lambda i: f"not positive semidefinite: residual {resid[i]:.3e} above {-PSD_FLOOR:.1e}")
        if single:
            return cls(rho=sym[0], factor=x[0])
        return cls(rho=sym, factor=x)


def collective_expectations(state: np.ndarray) -> CollectiveExpectations:
    """Collective moments <Sz>, <Sz^2>, <S+>, <S+^2>, <[S+, Sz]_+>.

    state is one state's N+1 amplitudes (the moments are numbers) or a
    (T, N+1) stack of amplitude rows (the moments are (T,) arrays).  Each moment
    is an O(N) sum along the ladder, read straight from the amplitudes
    a_n with m_n = n - N/2 and c_n = <n+1|S+|n>:

        <Sz^k>         = sum |a_n|^2 m_n^k
        <S+>           = sum c_n a*_{n+1} a_n
        <[S+, Sz]_+>   = sum c_n a*_{n+1} a_n (2 m_n + 1)
        <S+^2>         = sum c_n c_{n+1} a*_{n+2} a_n

    Each sum is scaled by 1/<psi|psi> = 1/sum |a_n|^2, so the moments are
    those of the normalised state: the drift of a norm within NORM_TOL,
    such as many kicks leave, adds no spurious component to the pair
    matrix.  Every sum runs along its own row, so a row of a stack gives
    the same moments as that state alone.

    A state whose sum |a_n|^2 is off 1 by more than NORM_TOL raises
    DomainError, and nothing later would catch it: the trace of the
    pair matrix of reduce_symmetric, v+ + v- + 2w = (4N^2 - 4N) /
    (4N(N-1)), is 1 for any moments, so an unnormalised state, the zero
    vector among them, gives a plausible-looking matrix or fails only
    the positivity check.  A NaN amplitude, which only a failed
    computation makes, passes this check and fails the Hermiticity
    check of TwoQubitDensity.from_matrix as a NumericalError.
    """
    amps = np.asarray(state, dtype=complex)
    if amps.ndim not in (1, 2):
        raise DomainError(f"expected amplitudes or a stack of them, got shape {amps.shape}")
    a = np.atleast_2d(amps)
    n = a.shape[-1] - 1
    m, c = _ladder(n)
    prob = a.real**2 + a.imag**2
    norm2 = prob.sum(axis=-1)
    # written as not-above, so that a NaN passes on to the Hermiticity check
    _check_rows(~(np.abs(norm2 - 1.0) > NORM_TOL), amps.ndim == 1,
                lambda i: f"squared amplitudes sum to {float(norm2[i])!r}, not 1", DomainError)
    hop = c * a[:, 1:].conj() * a[:, :-1]
    sums = {
        "sz": (prob * m).sum(axis=-1),
        "sz2": (prob * (m * m)).sum(axis=-1),
        "splus": hop.sum(axis=-1),
        "splus2": (c[1:] * c[:-1] * a[:, 2:].conj() * a[:, :-2]).sum(axis=-1),
        "splus_sz_anti": (hop * (2 * m[:-1] + 1)).sum(axis=-1),
    }
    # a NaN row stays NaN, silently, for the Hermiticity check to report
    inv_norm2 = 1.0 / norm2
    moments = {name: value * inv_norm2 for name, value in sums.items()}
    if amps.ndim == 1:
        moments = {name: value[0].item() for name, value in moments.items()}
    return CollectiveExpectations(n_qubits=n, **moments)


def reduce_symmetric(exp: CollectiveExpectations) -> TwoQubitDensity:
    """Two-qubit reduced density matrix from collective moments.

    Moments of a stack of states give a (T, 4, 4) stack of matrices.
    """
    n = _count("n_qubits", exp.n_qubits, 2)
    denom4 = 4 * n * (n - 1)
    v_plus = (n * n - 2 * n + 4 * exp.sz2 + 4 * exp.sz * (n - 1)) / denom4
    v_minus = (n * n - 2 * n + 4 * exp.sz2 - 4 * exp.sz * (n - 1)) / denom4
    w = (n * n - 4 * exp.sz2) / denom4
    u = exp.splus2 / (n * (n - 1))
    x_plus = ((n - 1) * exp.splus + exp.splus_sz_anti) / (2 * n * (n - 1))
    x_minus = ((n - 1) * exp.splus - exp.splus_sz_anti) / (2 * n * (n - 1))
    rho = np.array(
        [
            [v_plus, x_plus.conjugate(), x_plus.conjugate(), u.conjugate()],
            [x_plus, w, w, x_minus.conjugate()],
            [x_plus, w, w, x_minus.conjugate()],
            [u, x_minus, x_minus, v_minus],
        ],
        dtype=complex,
    )
    return TwoQubitDensity.from_matrix(np.moveaxis(rho, (0, 1), (-2, -1)))


def _epr_moments(n_qubits):
    """<J1z J2z> = N(N+2)/12 and <J1+ J2+> = N(N+2)/6, for a count or an array of counts."""
    j1z_j2z = n_qubits * (n_qubits + 2.0) / 12.0
    return j1z_j2z, 2.0 * j1z_j2z


def epr_expectations(n_qubits: int) -> tuple[float, float]:
    """<J1z J2z> = j(j+1)/3 and <J1+ J2+> = 2j(j+1)/3 in the diagonal two-ensemble state.

    The state pairs level n with level n, each with weight 1/(N+1), so the
    moments are the level averages of m_n^2 and of the squared ladder
    coefficient j(j+1) - m_n(m_n+1).
    """
    j1z_j2z, j1p_j2p = _epr_moments(_count("n_qubits", n_qubits, 1))
    return float(j1z_j2z), float(j1p_j2p)


def epr_reduce(n_qubits: int | Sequence[int]) -> TwoQubitDensity:
    """Reduced matrix of one qubit from each ensemble of the EPR state.

    Diagonal-plus-corner form: w = 1/4 - <J1z J2z>/N^2 on the inner
    diagonal, corner u = <J1+ J2+>/N^2, v = (1 - 2w)/2 at both ends,
    x and the inner coherence rho_21 identically zero.  A sequence of
    counts gives the stack of their matrices, in order; each count goes
    through the one count rule, and the first bad one is named.
    """
    single = np.ndim(n_qubits) == 0
    counts = np.array([_count("n_qubits", n, 1) for n in ([n_qubits] if single else n_qubits)])
    if not counts.size:
        raise DomainError(f"need at least one n_qubits, got {n_qubits}")
    n2 = np.square(counts, dtype=float)  # an int64 square wraps past N = 3.04e9
    j1z_j2z, j1p_j2p = _epr_moments(counts)
    w = 0.25 - j1z_j2z / n2
    u = j1p_j2p / n2
    v = (1 - 2 * w) / 2
    rho = np.zeros((counts.size, 4, 4), dtype=complex)
    rho[:, 0, 0] = rho[:, 3, 3] = v
    rho[:, 1, 1] = rho[:, 2, 2] = w
    rho[:, 3, 0] = rho[:, 0, 3] = u
    return TwoQubitDensity.from_matrix(rho[0] if single else rho)

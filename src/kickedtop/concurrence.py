"""Two-qubit entanglement measures.

The general route is Wootters' formula: with the spin-flipped state
rho~ = (sigma_y x sigma_y) rho* (sigma_y x sigma_y), let lambda_1 >= ...
>= lambda_4 be the square roots of the eigenvalues of rho rho~, and set
C = max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4).  The lambdas are
computed without forming rho rho~: factor rho = X X^dagger by pivoted
Cholesky, which stops at the rank of rho, and the lambdas are exactly
the singular values of the complex symmetric matrix
tau = X^T (sigma_y x sigma_y) X (Wootters, PRL 80, 2245 (1998);
Uhlmann, PRA 62, 032307 (2000)).  tau is r x r for a factor of rank r,
and the other 4 - r lambdas are exact zeros.  Both steps are backward
stable, so no lambda is ever recovered from a square root of a
roundoff-sized eigenvalue.

Structured shortcuts (`concurrence_dicke_form`, `concurrence_x_form`)
cover the sparsity patterns produced by :mod:`.pairwise`.  Each checks
its pattern and then applies the one closed form for X-shaped matrices,
C = 2 max(0, |rho_30| - sqrt(rho_11 rho_22), |rho_21| - sqrt(rho_00 rho_33))
(Yu and Eberly, Quantum Inf. Comput. 7, 459 (2007)).  They use neither
`wootters` nor the Cholesky factor, so either route can check the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .pairwise import _EPS, TwoQubitDensity
from .spin import _count, _real

STRUCTURE_TOL = 1e-10

@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence plus the quantities it is clipped from.

    concurrence = max(0, c_lambda); lambdas are the four descending
    square-rooted eigenvalues of the spin-flip product.  c_lambda is
    kept because its sign separates "entangled" from "how far inside
    the separable ball" and tests pin it directly.  For a stack of T
    matrices concurrence and c_lambda are (T,) arrays and lambdas is
    (T, 4).
    """

    concurrence: float | np.ndarray
    c_lambda: float | np.ndarray
    lambdas: np.ndarray


def _density_matrix(rho) -> TwoQubitDensity:
    """Accept a TwoQubitDensity or a raw 4x4 array; validate raw input."""
    if isinstance(rho, TwoQubitDensity):
        return rho
    return TwoQubitDensity.from_matrix(np.asarray(rho))


def _single_matrix(rho) -> TwoQubitDensity:
    """A TwoQubitDensity holding one 4x4 matrix, for the structured shortcuts."""
    dm = _density_matrix(rho)
    if dm.rho.ndim != 2:
        raise DomainError(f"expected one 4x4 matrix, got shape {dm.rho.shape}")
    return dm


def wootters(rho) -> ConcurrenceResult:
    """Concurrence of an arbitrary two-qubit density matrix, or of a stack.

    rho = X X^dagger is the pivoted Cholesky factor that
    TwoQubitDensity.from_matrix already made for its positivity check.
    It keeps r columns, r the largest rank in the stack: a row's factor
    ends at the first pivot at or below 16*eps*tr(rho), since the rest
    is roundoff of a rank-deficient rho and contributes nothing but
    noise.  The lambdas are the singular values of the r x r matrix
    tau = X^T S X, S = sigma_y x sigma_y, padded with exact zeros to
    four.  Since the singular values of tau carry absolute errors of
    order eps*tr(rho), lambdas far below the entry scale come out
    accurate in absolute terms; nothing is squared and then
    square-rooted.

    One snap remains, for exactly separable states such as spin
    coherent pairs: when even lambda_1 <= 8*sqrt(eps)*tr(rho), the
    whole spectrum is taken as zero, so those states report
    concurrence and c_lambda of exactly 0.

    A (T, 4, 4) stack runs every step matrix by matrix in one call
    each, with one stacked SVD at the kept rank; one 4x4 matrix is the
    T = 1 case and gives plain floats.
    """
    dm = _density_matrix(rho)
    single = dm.rho.ndim == 2
    x = dm.factor.reshape(-1, 4, dm.factor.shape[-1])
    # S = sigma_y x sigma_y is real, antidiag(-1, 1, 1, -1) in the basis
    # |00>, |01>, |10>, |11>, so it pairs row i of X with row 3 - i:
    # tau = m + m^T with m = x_1 x_2^T - x_0 x_3^T, x_i = X[i, :]
    m = x[:, 1, :, None] * x[:, 2, None, :] - x[:, 0, :, None] * x[:, 3, None, :]
    lam = np.zeros((len(x), 4))
    try:
        lam[:, : x.shape[-1]] = np.linalg.svd(m + m.swapaxes(-1, -2), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(str(exc)) from exc

    trace = np.trace(dm.rho.reshape(-1, 4, 4), axis1=-2, axis2=-1).real
    lam[lam[:, 0] <= 8.0 * math.sqrt(_EPS) * trace] = 0.0
    c_lambda = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    concurrence = np.maximum(0.0, c_lambda)
    if single:
        return ConcurrenceResult(float(concurrence[0]), float(c_lambda[0]), lam[0])
    return ConcurrenceResult(concurrence, c_lambda, lam)


def _x_state_concurrence(r: np.ndarray) -> float:
    """Concurrence of one X-shaped 4x4 matrix r (no one-flip coherences).

    C = 2 max(0, |r_30| - sqrt(r_11 r_22), |r_21| - sqrt(r_00 r_33))
    (Yu and Eberly, Quantum Inf. Comput. 7, 459 (2007)), with the
    diagonals clipped at 0 so that a roundoff-negative one takes no
    square root.  It holds for any X state: the inner diagonals may
    differ and both coherences may be complex, of either sign.
    """
    d = np.maximum(r.diagonal().real, 0.0)
    return 2.0 * max(0.0, abs(r[3, 0]) - math.sqrt(d[1] * d[2]), abs(r[2, 1]) - math.sqrt(d[0] * d[3]))


def _one_flip(r: np.ndarray) -> float:
    """Largest one-flip coherence |r_10|, |r_20|, |r_31|, |r_32|; an X state has none."""
    return max(abs(r[1, 0]), abs(r[2, 0]), abs(r[3, 1]), abs(r[3, 2]))


def concurrence_dicke_form(rho) -> float:
    """Concurrence shortcut for the Dicke-state sparsity pattern.

    Valid when the matrix has no corner coherence and no one-flip
    coherences (u = x_plus = x_minus = 0, rho_21 real); the X-state formula
    then reads C = 2 max(0, |rho_21| - sqrt(v_plus v_minus)), which is 1 on
    the singlet.
    """
    r = _single_matrix(rho).rho
    off = max(abs(r[3, 0]), _one_flip(r), abs(r[2, 1].imag))
    if off > STRUCTURE_TOL:
        raise DomainError(f"matrix is not in Dicke form: off-pattern magnitude {off:.3e}")
    return _x_state_concurrence(r)


def concurrence_x_form(rho) -> float:
    """Concurrence shortcut for X-shaped matrices (x_plus = x_minus = 0).

    C = 2 max(0, |u| - sqrt(rho_11 rho_22), |rho_21| - sqrt(v_plus v_minus)),
    for unequal inner diagonals and complex u and rho_21 alike.
    """
    r = _single_matrix(rho).rho
    off = _one_flip(r)
    if off > STRUCTURE_TOL:
        raise DomainError(f"matrix is not an X shape: off-pattern magnitude {off:.3e}")
    return _x_state_concurrence(r)


def dicke_concurrence_closed(n_qubits: int, m: float) -> float:
    """Closed-form pairwise concurrence of the N-qubit Dicke state |j, M>.

    With a = N^2 - 4M^2 and b = (N-2)^2 - 4M^2,
    C = max(0, a - sqrt(a*b)) / (2 N (N-1)).  Both a and b are exact
    integers once 2M is, so the special values C(N, 0) = 1/(N-1) and
    C(N, +-(N/2 - 1)) = 2/N come out exact to the last float digit.
    """
    n_qubits = _count("n_qubits", n_qubits, 2)
    _real("M", m)
    two_m = 2.0 * m
    two_m_int = round(two_m)
    if abs(two_m - two_m_int) > 1e-9:
        raise DomainError(f"M = {m} is not on the half-integer grid")
    if (n_qubits - two_m_int) % 2 != 0:
        raise DomainError(f"M = {m} has the wrong parity for N = {n_qubits}")
    if abs(two_m_int) > n_qubits:
        raise DomainError(f"|M| = {abs(m)} exceeds N/2 = {n_qubits / 2}")
    a = n_qubits**2 - two_m_int**2
    b = (n_qubits - 2) ** 2 - two_m_int**2
    num = a - math.sqrt(a * b)
    return max(0.0, num / (2.0 * n_qubits * (n_qubits - 1)))

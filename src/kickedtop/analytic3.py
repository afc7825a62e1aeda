"""Exactly solvable three-qubit kicked top (j = 3/2).

At j = 3/2 the Floquet operator splits over a parity-adapted basis into
two 2x2 blocks, so the dynamics reduces to products of 2x2 unitaries
and everything downstream (the evolved state, the two-qubit reduced
matrix, the concurrence) has a closed form in Chebyshev polynomials of
chi = sin(kappa0/3)/2.

The block decomposition here is always constructed numerically, by
conjugating the full j = 3/2 Floquet matrix into the parity basis.
The Chebyshev route is an independent closed form; agreement between
the two is a test obligation, not an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlockLeakage, DomainError
from .kicked_top import KickedTopParams, floquet
from .pairwise import TwoQubitDensity
from .spin import SpinQuantum

BLOCK_LEAKAGE_TOL = 1e-9

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class ParityBasis:
    """Parity eigenvectors of the 3-qubit symmetric subspace.

    Each vector is 4 coordinates over the symmetric states ordered by
    the number of qubits in |0>: (|111>, |W-bar>, |W>, |000>).
    """

    sym_phi1_plus: np.ndarray
    sym_phi2_plus: np.ndarray
    sym_phi1_minus: np.ndarray
    sym_phi2_minus: np.ndarray


@dataclass(frozen=True)
class ChebyshevStep:
    """Closed-form block data after n kicks.

    t = T_n(chi) and u_prev = U_{n-1}(chi) are the Chebyshev values the
    block entries are made of; alpha and beta are the entries
    themselves (phases of the overall block stripped); gamma is the
    per-kick rotation angle, cos(gamma) = chi.
    """

    n: int
    chi: float
    t: float
    u_prev: float
    alpha: complex
    beta: complex
    gamma: float


def parity_operator(q: SpinQuantum) -> np.ndarray:
    """Flip-all-qubits parity on the symmetric subspace.

    Equals the product of single-qubit sigma_y's restricted to the
    symmetric sector: i^N times the rotation by pi about y.  That
    rotation sends |n> to (-1)^(N-n) |N-n>, so the result is i^N times
    the signed antidiagonal, exact and built without an eigensolver.
    """
    n_qubits = q.n_qubits
    n = np.arange(n_qubits + 1)
    parity = np.zeros((n_qubits + 1, n_qubits + 1), dtype=complex)
    parity[n_qubits - n, n] = (1, 1j, -1, -1j)[n_qubits % 4] * (-1.0) ** (n_qubits - n)
    return parity


def build_parity_basis() -> ParityBasis:
    """The four parity eigenvectors spanning the j = 3/2 subspace.

    phi1_pm = (|000> -+ i|111>)/sqrt(2) and phi2_pm = (|W> +- i|W-bar>)/sqrt(2),
    with W the one-|1> and W-bar the two-|1> symmetric states.
    """
    ket111, w_bar, w, ket000 = np.eye(4, dtype=complex)
    s2 = 1.0 / math.sqrt(2.0)
    return ParityBasis(
        sym_phi1_plus=s2 * (ket000 - 1j * ket111),
        sym_phi2_plus=s2 * (w + 1j * w_bar),
        sym_phi1_minus=s2 * (ket000 + 1j * ket111),
        sym_phi2_minus=s2 * (w - 1j * w_bar),
    )


def chebyshev_table(n_max: int, kappa0: float) -> tuple[np.ndarray, np.ndarray]:
    """Arrays t, u with t[n] = T_n(chi), u[n] = U_{n-1}(chi) for n <= n_max.

    One pass of the three-term recurrence.  The recurrence, not acos/cos
    evaluation, keeps the endpoint values at chi = +-1/2 exact and stays
    well-conditioned since |chi| <= 1/2.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    if not (math.isfinite(kappa0) and kappa0 >= 0.0):
        raise DomainError(f"kappa0 must be finite and >= 0, got {kappa0}")
    chi = math.sin(kappa0 / 3.0) / 2.0
    t = np.empty(n_max + 1)
    u = np.empty(n_max + 1)
    t[0], u[0] = 1.0, 0.0
    if n_max >= 1:
        t[1], u[1] = chi, 1.0
    for k in range(2, n_max + 1):
        t[k] = 2.0 * chi * t[k - 1] - t[k - 2]
        u[k] = 2.0 * chi * u[k - 1] - u[k - 2]
    return t, u


def chebyshev_step(n: int, kappa0: float) -> ChebyshevStep:
    """Block entries alpha_n, beta_n after n kicks, phases stripped.

    With kappa = kappa0/6 and chi = sin(2*kappa)/2:
        alpha_n = T_n(chi) + (i/2) U_{n-1}(chi) cos(2*kappa)
        beta_n  = (sqrt(3)/2) U_{n-1}(chi) exp(2i*kappa)
    """
    if n < 0:
        raise DomainError(f"kick count must be >= 0, got {n}")
    kappa = kappa0 / 6.0
    chi = math.sin(2.0 * kappa) / 2.0
    t, u = chebyshev_table(n, kappa0)
    t_n, u_prev = float(t[n]), float(u[n])
    alpha = complex(t_n, 0.5 * u_prev * math.cos(2.0 * kappa))
    beta = (_SQRT3 / 2.0) * u_prev * complex(math.cos(2.0 * kappa), math.sin(2.0 * kappa))
    gamma = math.acos(max(-1.0, min(1.0, chi)))
    return ChebyshevStep(n=n, chi=chi, t=t_n, u_prev=u_prev, alpha=alpha, beta=beta, gamma=gamma)


def rho12_analytic(n: int, kappa0: float) -> TwoQubitDensity:
    """Closed-form two-qubit reduced matrix after an even number of kicks.

    The evolved |000> state alternates (period 4 in n) between a
    branch concentrated on {|000>, |W-bar>} and one on {|111>, |W>};
    both reduce to an X-shaped matrix with the same spectrum, mirrored
    along the diagonal.  n = 2 mod 4 carries |alpha|^2 on |11><11|,
    n = 0 mod 4 on |00><00|.
    """
    if n < 2 or n % 2 != 0:
        raise DomainError(f"closed form needs even n >= 2, got {n}")
    step = chebyshev_step(n, kappa0)
    a, b = step.alpha, step.beta
    pa = abs(a) ** 2
    pb = abs(b) ** 2 / 3.0
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = pb
    rho[1, 2] = rho[2, 1] = pb
    if n % 4 == 0:
        rho[0, 0] = pa
        rho[3, 3] = pb
        corner = -1j * a * b.conjugate() / _SQRT3
    else:
        rho[0, 0] = pb
        rho[3, 3] = pa
        corner = 1j * a.conjugate() * b / _SQRT3
    rho[0, 3] = corner
    rho[3, 0] = corner.conjugate()
    return TwoQubitDensity.from_matrix(rho)


def analytic_concurrence(n: int, kappa0: float) -> float:
    """Closed-form pairwise concurrence after n kicks of the |000> top.

    The closed form lives on even n; odd kicks share the value of the
    following even kick, so n is rounded up to even first.
    """
    if n < 1:
        raise DomainError(f"kick count must be >= 1, got {n}")
    return float(analytic_concurrence_series(n, kappa0)[-1])


def analytic_concurrence_series(n_max: int, kappa0: float) -> np.ndarray:
    """analytic_concurrence(n, kappa0) for n = 1..n_max in one pass.

    One Chebyshev recurrence pass serves every n; the per-n function
    is the last entry of this series.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    even_top = n_max if n_max % 2 == 0 else n_max + 1
    _, u = chebyshev_table(even_top, kappa0)
    mag = np.abs(u)
    inner = np.sqrt(np.clip(1.0 - 0.75 * mag * mag, 0.0, None))
    c_even = mag * np.abs(0.5 * mag - inner)
    n = np.arange(1, n_max + 1)
    return c_even[np.where(n % 2 == 0, n, n + 1)]


def first_kick_concurrence(kappa0: float) -> float:
    """Concurrence produced by the very first kick, on kappa0 in [0, 3*pi].

    C = s*(sqrt(1 - (3/4)s^2) - s/2) with s = sin(kappa0/3).  The
    kappa0-dependence is 6*pi periodic; reduce into the window first.
    """
    if not -1e-12 <= kappa0 <= 3.0 * math.pi + 1e-12:
        raise DomainError(f"kappa0 = {kappa0} outside [0, 3*pi]")
    s = math.sin(min(max(kappa0, 0.0), 3.0 * math.pi) / 3.0)
    return s * (math.sqrt(max(0.0, 1.0 - 0.75 * s * s)) - 0.5 * s)


def blocks_u_pm(kappa0: float) -> tuple[np.ndarray, np.ndarray]:
    """The 2x2 parity blocks (U+, U-) of the j = 3/2 Floquet matrix.

    Constructed by conjugation into the parity basis, which is the
    authoritative route; closed forms are checked against it, never
    substituted for it.  Raises BlockLeakage if the off-block coupling
    exceeds 1e-9 (it must vanish by parity symmetry).
    """
    u = floquet(KickedTopParams(SpinQuantum(3), kappa0))
    basis = build_parity_basis()
    v = np.column_stack(
        [basis.sym_phi1_plus, basis.sym_phi2_plus, basis.sym_phi1_minus, basis.sym_phi2_minus]
    )
    w = v.conj().T @ u @ v
    leakage = max(float(np.abs(w[:2, 2:]).max()), float(np.abs(w[2:, :2]).max()))
    if leakage > BLOCK_LEAKAGE_TOL:
        raise BlockLeakage(f"off-block coupling {leakage:.3e} exceeds {BLOCK_LEAKAGE_TOL:.1e}")
    return np.ascontiguousarray(w[:2, :2]), np.ascontiguousarray(w[2:, 2:])

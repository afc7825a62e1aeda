"""Reference values the benchmark checks the program's CSV output against.

Nothing here imports kickedtop: every reference is derived from its own
formula or its own simulator, and none is a stored copy of program
output.

- `j32_closed_form`: the j = 3/2 kicked-top concurrence series from the
  Chebyshev closed form C_n = |U| * | |U|/2 - sqrt(1 - 3/4 U^2) |, with
  U = U_{n'-1}(chi), chi = sin(kappa0/3)/2 and n' = n rounded up to even.
- `sweep_time_averages`: a large-j kicked-top simulator.  J_y comes from
  the ladder coefficients, the rotation from scipy's expm, the pair
  reduction from splitting each Dicke state into two qubits and the
  rest, and the concurrence from numpy's eigvals of rho rho~.
- `dicke_closed_form`: (a - sqrt(ab)) / (2N(N-1)), a = N^2 - 4M^2,
  b = (N-2)^2 - 4M^2.
- `benettin_lyapunov`: a Benettin estimate of the classical kicked top's
  largest Lyapunov exponent, with the map written as 3x3 rotation
  matrices.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# sigma_y x sigma_y on |00>, |01>, |10>, |11>.
_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float)


def j32_closed_form(kappa0: float, n_max: int) -> list[float]:
    """C_n for n = 1..n_max after n kicks of the |j, j> top at j = 3/2."""
    chi = math.sin(kappa0 / 3.0) / 2.0
    top = n_max + (n_max % 2)
    # u[k] = U_{k-1}(chi): U_{-1} = 0, U_0 = 1, U_k = 2 chi U_{k-1} - U_{k-2}.
    u = [0.0, 1.0]
    for _ in range(top - 1):
        u.append(2.0 * chi * u[-1] - u[-2])
    out = []
    for n in range(1, n_max + 1):
        mag = abs(u[n + (n % 2)])
        out.append(mag * abs(0.5 * mag - math.sqrt(max(0.0, 1.0 - 0.75 * mag * mag))))
    return out


def dicke_closed_form(n_qubits: int, m: float) -> float:
    """Pair concurrence of the N-qubit Dicke state with J_z eigenvalue M."""
    a = n_qubits * n_qubits - 4.0 * m * m
    b = (n_qubits - 2) ** 2 - 4.0 * m * m
    return (a - math.sqrt(max(0.0, a * b))) / (2.0 * n_qubits * (n_qubits - 1))


def _spin_matrices(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """(J_y, m) on |j, m>, m = -j..j ascending, from the ladder coefficients."""
    j = two_j / 2.0
    m = np.arange(two_j + 1) - j
    ladder = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))  # <m+1|J+|m>
    jplus = np.diag(ladder, -1).astype(complex)
    return (jplus - jplus.conj().T) / 2j, m


def _pair_split_weights(two_j: int) -> np.ndarray:
    """w[a, r] = sqrt(C(2,a) C(N-2,r) / C(N,a+r)): |N,k> = sum_a w[a,k-a] |2,a>|N-2,k-a>.

    |N, k> is the normalized Dicke state with k qubits up; binomials go
    through lgamma so large N cannot overflow.
    """
    n = two_j

    def lbinom(top, k):
        return math.lgamma(top + 1) - math.lgamma(k + 1) - math.lgamma(top - k + 1)

    w = np.zeros((3, n - 1))
    for a in range(3):
        for r in range(n - 1):
            w[a, r] = math.exp(
                0.5 * (lbinom(2, a) + lbinom(n - 2, r) - lbinom(n, a + r))
            )
    return w


def _pair_density(psi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """4x4 reduced matrix of two qubits of the symmetric state sum_k psi[k] |N,k>."""
    n_rest = weights.shape[1]
    coeff = np.empty((3, n_rest), dtype=complex)
    for a in range(3):
        coeff[a] = psi[a : a + n_rest] * weights[a]
    sym = coeff @ coeff.conj().T  # over |2,0> = |11>, |2,1>, |2,2> = |00>
    # Columns: the symmetric two-qubit states in the product basis.
    iso = np.zeros((4, 3))
    iso[3, 0] = 1.0
    iso[1, 1] = iso[2, 1] = 1.0 / math.sqrt(2.0)
    iso[0, 2] = 1.0
    return iso @ sym @ iso.T


def concurrence_eigvals(rho: np.ndarray) -> float:
    """Wootters' C from the eigenvalues of rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y)."""
    ev = np.linalg.eigvals(rho @ _YY @ rho.conj() @ _YY).real
    lam = np.sort(np.sqrt(np.clip(ev, 0.0, None)))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def sweep_time_averages(
    two_j: int, kappa0s: list[float], theta0: float, phi0: float, n_max: int, p: float = math.pi / 2.0
) -> list[float]:
    """Mean pair concurrence over kicks 1..n_max for each kappa0.

    One period is exp(-i kappa0 J_z^2 / 2j) exp(-i p J_y).  The start
    state is the rotation exp(-i phi0 J_z) exp(-i theta0 J_y) of |j, j>.
    """
    jy, m = _spin_matrices(two_j)
    rot = expm(-1j * p * jy)
    top = np.zeros(two_j + 1, dtype=complex)
    top[-1] = 1.0
    psi0 = np.exp(-1j * phi0 * m) * (expm(-1j * theta0 * jy) @ top)
    weights = _pair_split_weights(two_j)
    out = []
    for kappa0 in kappa0s:
        u = np.exp(-1j * kappa0 * m * m / two_j)[:, None] * rot
        psi = psi0
        total = 0.0
        for _ in range(n_max):
            psi = u @ psi
            total += concurrence_eigvals(_pair_density(psi, weights))
        out.append(total / n_max)
    return out


def _rot_y(a: float):
    c, s = math.cos(a), math.sin(a)
    return ((c, 0.0, s), (0.0, 1.0, 0.0), (-s, 0.0, c))


def _rot_z(a: float):
    c, s = math.cos(a), math.sin(a)
    return ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))


def _apply(m, v):
    return (
        m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2],
        m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2],
        m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2],
    )


def benettin_lyapunov(
    kappa0: float, start: tuple[float, float, float], steps: int, transient: int, p: float = math.pi / 2.0
) -> float:
    """Largest Lyapunov exponent of r -> R_z(kappa0 z') R_y(p) r, z' = (R_y(p) r)_z.

    The tangent vector goes through the map's Jacobian
    J v = R_z(theta) R_y v + kappa0 (R_y v)_z R_z'(theta) R_y r, is
    renormalized every step, and the log stretches after `transient`
    discarded steps are averaged.
    """
    ry = _rot_y(p)
    r = start
    # A unit tangent at the start point: start x e_y, or start x e_x at the y poles.
    v = (-r[2], 0.0, r[0]) if abs(r[1]) < 0.9 else (0.0, r[2], -r[1])
    norm = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
    v = (v[0] / norm, v[1] / norm, v[2] / norm)
    total = 0.0
    for k in range(transient + steps):
        rr = _apply(ry, r)
        vr = _apply(ry, v)
        theta = kappa0 * rr[2]
        rz = _rot_z(theta)
        r = _apply(rz, rr)
        w = _apply(rz, vr)
        # R_z'(theta) R_y r = e_z x (R_z R_y r) = (-r_y, r_x, 0).
        g = kappa0 * vr[2]
        w = (w[0] - g * r[1], w[1] + g * r[0], w[2])
        rn = math.sqrt(r[0] ** 2 + r[1] ** 2 + r[2] ** 2)
        r = (r[0] / rn, r[1] / rn, r[2] / rn)
        dot = w[0] * r[0] + w[1] * r[1] + w[2] * r[2]
        w = (w[0] - dot * r[0], w[1] - dot * r[1], w[2] - dot * r[2])
        wn = math.sqrt(w[0] ** 2 + w[1] ** 2 + w[2] ** 2)
        v = (w[0] / wn, w[1] / wn, w[2] / wn)
        if k >= transient:
            total += math.log(wn)
    return total / steps

"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's own algorithms:
eigenvalues come from power iteration with deflation instead of the
characteristic polynomial, reduced matrices from embedding into the
full 2^N tensor space instead of collective moments, Jacobians from
finite differences instead of the chain rule.  Agreement between the
two routes is the point; neither side may call the other.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)
EPS_LD = float(np.finfo(np.longdouble).eps)


# ---------------------------------------------------------------------------
# Eigenvalues by repeated squaring + power iteration, Householder deflation.


def power_iteration_eigvals(m, n_squarings: int = 60) -> list[complex]:
    """Eigenvalues of a small matrix, largest-|.|-first, by power iteration.

    Repeated squaring of the normalized matrix isolates the dominant
    eigenspace; a two-sided Rayleigh quotient reads off the eigenvalue;
    a Householder similarity moves the found eigenvector to the first
    coordinate so the remaining spectrum lives in the trailing block.
    Runs in extended precision: deflation junk sits near eps_ld * |A|,
    which keeps eigenvalues far below the entry scale resolvable.
    """
    a = np.asarray(m).astype(np.clongdouble)
    scale0 = float(np.linalg.norm(a.astype(complex)))
    if scale0 == 0.0:
        return [0.0] * a.shape[0]
    vals: list[complex] = []
    while a.shape[0] > 1:
        k = a.shape[0]
        fro = np.sqrt(np.sum(np.abs(a) ** 2))
        if float(fro) <= 64.0 * EPS_LD * scale0:
            # remaining block is deflation noise: spectrum exhausted
            vals.extend([0.0] * k)
            return vals
        sq = a / fro
        for _ in range(n_squarings):
            nxt = sq @ sq
            f = np.sqrt(np.sum(np.abs(nxt) ** 2))
            if float(f) == 0.0 or not np.isfinite(float(f)):
                break
            sq = nxt / f
        j = int(np.argmax(np.sum(np.abs(sq) ** 2, axis=0)))
        v = sq[:, j]
        v = v / np.sqrt(np.sum(np.abs(v) ** 2))
        i = int(np.argmax(np.sum(np.abs(sq) ** 2, axis=1)))
        w = sq[i, :]
        denom = w @ v
        if abs(complex(denom)) > 1e-10 * float(np.sqrt(np.sum(np.abs(w) ** 2))):
            lam = (w @ a @ v) / denom
        else:
            lam = v.conj() @ a @ v
        vals.append(complex(lam))
        alpha = v[0] / abs(v[0]) if v[0] != 0 else np.clongdouble(1.0)
        h = v.copy()
        h[0] += alpha
        hn2 = np.real(h.conj() @ h)
        if float(hn2) > 0.0:
            house = np.eye(k, dtype=np.clongdouble) - (2.0 / hn2) * np.outer(h, h.conj())
            a = house @ a @ house
        a = a[1:, 1:]
    if a.shape[0] == 1:
        vals.append(complex(a[0, 0]))
    return vals


def concurrence_power_iteration(rho: np.ndarray) -> float:
    """Concurrence via the power-iteration eigenvalue route.

    Same spin-flip construction as the package, different eigensolver.
    The zero-snap mirrors the structure of the production one but with
    its own constants: all-noise spectra collapse entirely, otherwise
    values below the extended-precision floor of tr(rho)^2 drop.
    """
    rho = np.asarray(rho, dtype=complex)
    signs = np.array([-1.0, 1.0, 1.0, -1.0])
    flipped = rho.conj()[::-1, ::-1] * np.outer(signs, signs)
    prod = rho.astype(np.clongdouble) @ flipped.astype(np.clongdouble)
    vals = np.array([v.real for v in power_iteration_eigvals(prod)])
    vmax = float(np.abs(vals).max()) if vals.size else 0.0
    tr2 = float(np.trace(rho).real) ** 2
    if vmax <= 64.0 * EPS * tr2:
        vals[:] = 0.0
    else:
        vals[np.abs(vals) <= 64.0 * EPS_LD * tr2] = 0.0
    lam = np.sqrt(np.maximum(vals, 0.0))
    lam[::-1].sort()
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


# ---------------------------------------------------------------------------
# Brute-force tensor-space reference: embeddings, partial traces, operators.
# Qubit 1 is the most significant bit of the basis index; bit value 0
# means the qubit is in |0>.


def symmetric_embedding(n_qubits: int) -> np.ndarray:
    """2^N x (N+1) isometry whose column n is the Dicke state |n>.

    |n> is the normalized uniform superposition of the bitstrings with
    exactly n zero bits, matching the package's |n counts qubits in
    |0>| convention.
    """
    dim = 1 << n_qubits
    e = np.zeros((dim, n_qubits + 1), dtype=complex)
    for idx in range(dim):
        zeros = n_qubits - bin(idx).count("1")
        e[idx, zeros] = 1.0 / math.sqrt(math.comb(n_qubits, zeros))
    return e


def embed_symmetric(amps: np.ndarray) -> np.ndarray:
    """Full 2^N amplitude vector of a symmetric state."""
    amps = np.asarray(amps, dtype=complex)
    return symmetric_embedding(len(amps) - 1) @ amps


def pair_reduction_bruteforce(amps: np.ndarray) -> np.ndarray:
    """Two-qubit reduced matrix of a symmetric state by partial trace.

    Embeds into the full tensor space, keeps the first two qubits, and
    traces the rest.  Quadratic in 2^N; intended for N <= 10 or so.
    """
    n = len(amps) - 1
    if n < 2:
        raise ValueError("need at least 2 qubits")
    psi = embed_symmetric(amps).reshape(2, 2, 1 << (n - 2))
    rho = np.einsum("abr,cdr->abcd", psi, psi.conj())
    return rho.reshape(4, 4)


def epr_state_bruteforce(n_qubits: int) -> np.ndarray:
    """Full 2^N x 2^N amplitude matrix of the diagonal two-ensemble state."""
    e = symmetric_embedding(n_qubits)
    amps = np.eye(n_qubits + 1, dtype=complex) / math.sqrt(n_qubits + 1)
    return e @ amps @ e.T


def epr_pair_reduction_bruteforce(n_qubits: int) -> np.ndarray:
    """Reduced matrix of (first qubit of ensemble 1, first qubit of ensemble 2)."""
    half = 1 << (n_qubits - 1)
    psi = epr_state_bruteforce(n_qubits).reshape(2, half, 2, half)
    rho = np.einsum("arbs,crds->abcd", psi, psi.conj())
    return rho.reshape(4, 4)


def _collective_full(n_qubits: int, single: np.ndarray) -> np.ndarray:
    """Sum over qubits of a single-qubit operator, on the full 2^N space."""
    dim = 1 << n_qubits
    total = np.zeros((dim, dim), dtype=complex)
    for k in range(n_qubits):
        op = np.eye(1, dtype=complex)
        for pos in range(n_qubits):
            op = np.kron(op, single if pos == k else np.eye(2, dtype=complex))
        total += op
    return total


# bit value 0 = |0> carries m = +1/2; sigma_plus flips |1> -> |0>
SZ_HALF = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def collective_jz_full(n_qubits: int) -> np.ndarray:
    return _collective_full(n_qubits, SZ_HALF)


def collective_jplus_full(n_qubits: int) -> np.ndarray:
    return _collective_full(n_qubits, SIGMA_PLUS)


def epr_expectations_bruteforce(n_qubits: int) -> tuple[float, float]:
    """<J1z J2z> and <J1+ J2+> by explicit tensor-space operators.

    The state lives as a matrix psi[x1, x2] over the two ensembles, so
    A (x) B acts as A @ psi @ B.T; expectations are Frobenius inner
    products.  Exact brute force, exponential in N: keep N <= 6.
    """
    psi = epr_state_bruteforce(n_qubits)
    jz = collective_jz_full(n_qubits)
    jp = collective_jplus_full(n_qubits)
    jzz = np.vdot(psi, jz @ psi @ jz.T)
    jpp = np.vdot(psi, jp @ psi @ jp.T)
    return float(jzz.real), float(jpp.real)


# ---------------------------------------------------------------------------
# Finite-difference Jacobian of the classical map.


def tangent_step_fd(classical_map, pt, v, kappa0: float, p: float, eps: float = 1e-6):
    """Directional derivative of the map by central differences.

    Displaces along the tangent, renormalizes back onto the sphere
    (a second-order correction since v is tangent), maps, differences,
    and projects onto the tangent plane of the image point, mirroring
    the projection the analytic Jacobian applies.
    """
    x = np.array(pt, dtype=float)
    v = np.array(v, dtype=float)

    def at(sign: float) -> np.ndarray:
        q = x + sign * eps * v
        q = q / np.linalg.norm(q)
        img = classical_map(tuple(q), kappa0, p)
        return np.array(img)

    w = (at(+1.0) - at(-1.0)) / (2.0 * eps)
    img0 = classical_map(tuple(x), kappa0, p)
    n0 = np.array(img0)
    w = w - np.dot(w, n0) * n0
    return tuple(float(c) for c in w)


# ---------------------------------------------------------------------------
# Shared deterministic state generators.


def random_density(rng: np.random.Generator) -> np.ndarray:
    """Random low-rank two-qubit density matrix (mixture of 1-4 pure states)."""
    k = int(rng.integers(1, 5))
    weights = rng.random(k)
    weights /= weights.sum()
    rho = np.zeros((4, 4), dtype=complex)
    for w in weights:
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        rho += w * np.outer(psi, psi.conj())
    return (rho + rho.conj().T) / 2.0


def fibonacci_sphere(count: int) -> list[tuple[float, float, float]]:
    """Deterministic well-spread points on the unit sphere, poles excluded."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    pts = []
    for i in range(count):
        z = 1.0 - (2.0 * i + 1.0) / count
        r = math.sqrt(max(0.0, 1.0 - z * z))
        ang = golden * i
        pts.append((r * math.cos(ang), r * math.sin(ang), z))
    return pts

"""Quantum kicked top on the symmetric subspace.

One period is a rotation by angle p about y followed by a torsion
about z whose strength kappa0 is scaled by 1/(2j):

    U = exp[-i (kappa0/2j) Jz^2] . exp[-i p Jy]

The torsion factor is diagonal in the Jz eigenbasis, so it is applied
as explicit phases exp(-i kappa0 m^2 / (2j)) rather than through a
matrix exponential.  The rotation is the real orthogonal Wigner
d-matrix, built with no eigensolver: the eigenvectors of the
tridiagonal Jx, whose eigenvalues are exactly m = -j..j, come from the
Jx three-term recurrence run up to the middle index and reflected
through it, and one real matrix product then gives the whole rotation.

`concurrence_sweep` is the one engine behind every concurrence series.
For one (2j, p) it builds the rotation exp(-i p Jy) once and pushes the
coherent start through the kicks for all K values of kappa0 together,
as a (2j+1, K) array: one matrix product per kick, then each column
takes its own torsion phases.  The kick axis is collected in blocks of
at most KICK_BLOCK_AMPLITUDES amplitudes, so memory does not grow with
the kick count, and each block goes through the two-qubit reduction in
:mod:`.pairwise` and Wootters' formula as one stack.
`concurrence_series` is the K = 1 case.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .concurrence import wootters
from .errors import DomainError
from .pairwise import collective_expectations, reduce_symmetric
from .spin import SpinQuantum, _as_int, _ladder, coherent_from_angles

DEFAULT_PRECESSION = math.pi / 2.0

# Amplitudes (kicks x kappa0 values x (2j+1)) held per block of the kick
# axis, and per block of states in the CLI; 2^14 complex amplitudes are
# 256 KiB.
KICK_BLOCK_AMPLITUDES = 1 << 14

# Sign of rotation entry [a, b] by k = (a - b) mod 4: (-i)^k times C for
# even k, (-i)^k times -iS for odd k.
_QUARTER_TURN_SIGN = np.array([1.0, -1.0, -1.0, 1.0])

# A column of the Jx recurrence is scaled by _RESCALE_STEP (exact, a
# power of two) once an entry passes _RESCALE_AT.  One step grows an
# entry by at most about 1.5 sqrt(N), so for any N below 2^250 the
# squared entries of a column cannot sum past the float range.
_RESCALE_AT = 2.0**256
_RESCALE_STEP = 2.0**-256


@dataclass(frozen=True)
class KickedTopParams:
    """Parameters of one kicked-top period.

    kappa0 is the torsion strength before the 1/(2j) scaling; p is the
    precession angle per period (hbar = 1 and unit period throughout).
    """

    q: SpinQuantum
    kappa0: float
    p: float = DEFAULT_PRECESSION

    def __post_init__(self) -> None:
        if not math.isfinite(self.kappa0) or self.kappa0 < 0.0:
            raise DomainError(f"kappa0 must be finite and >= 0, got {self.kappa0}")
        # _torsion forms kappa0 m^2 before it divides by 2j, and m^2 <= j^2
        if not math.isfinite(self.kappa0 * self.q.j**2):
            raise DomainError(f"kappa0 * j^2 = {self.kappa0} * {self.q.j**2} overflows the float range")
        if not math.isfinite(self.p):
            raise DomainError(f"p must be finite, got {self.p}")


@dataclass(frozen=True)
class ConcurrenceSeries:
    """Pairwise concurrence after each kick, n = 1..n_max.

    concurrence[n - 1] belongs to kick n.
    """

    params: KickedTopParams
    theta0: float
    phi0: float
    concurrence: np.ndarray

    @property
    def entries(self) -> list[tuple[int, float]]:
        """(n, C) for each kick n = 1..n_max."""
        return [(n, float(c)) for n, c in enumerate(self.concurrence, start=1)]


def _rotation(q: SpinQuantum, p: float) -> np.ndarray:
    """exp(-i p Jy) on the (2j+1)-dimensional symmetric subspace, as a real matrix.

    Jy = D Jx D^dagger with D = diag((-i)^n), and Jx is real symmetric
    tridiagonal with eigenvalues exactly m = -j..j, so with Jx = V W V^T
    the rotation is R[a, b] = (-i)^(a-b) (C - iS)[a, b],
    C = V cos(pW) V^T, S = V sin(pW) V^T.

    Column b of V solves c[n-1] v[n-1] + c[n] v[n+1] = 2 m_b v[n], run
    upward from v[0] = 1 for all b at once up to the middle index; the
    upper half follows from v[N-n] = (-1)^(N-b) v[n], since Jx commutes
    with n -> N-n.  A column is rescaled by _RESCALE_STEP whenever it
    passes _RESCALE_AT, then every column is normalised (its sign does
    not matter, as V enters only as V f(W) V^T).

    The recurrence gives v(-m) = diag((-1)^n) v(m) exactly, so C is zero
    at odd a - b and S at even a - b, and one product
    V (cos(pW) + sin(pW)) V^T holds both: every entry of R is real,
    +-C[a, b] for even a - b and +-S[a, b] for odd a - b.
    """
    m, c = _ladder(q.n_qubits)
    top, half = q.n_qubits, q.n_qubits // 2
    two_m = 2.0 * m
    v = np.empty((q.dim, q.dim))
    v[0] = 1.0
    below = np.zeros(q.dim)  # c[n-1] v[n-1], absent at n = 0
    for n in range(half):
        v[n + 1] = (two_m * v[n] - below) / c[n]
        below = c[n] * v[n]
        big = np.abs(v[n + 1]) > _RESCALE_AT
        if big.any():
            v[: n + 2, big] *= _RESCALE_STEP
            below[big] *= _RESCALE_STEP
    v[top - half :] = v[half::-1] * (-1.0) ** np.arange(top, -1, -1)
    v /= np.sqrt(np.einsum("nb,nb->b", v, v))
    # the rescaled far edges of the outer columns end up subnormal, and
    # subnormals slow the GEMM down about 1.5x at 2j = 4096
    v[np.abs(v) < np.finfo(float).tiny] = 0.0
    angles = p * m
    rotation = (v * (np.cos(angles) + np.sin(angles))) @ v.T
    for a in range(4):
        rotation[a::4] *= _QUARTER_TURN_SIGN[(a - np.arange(q.dim)) % 4]
    return rotation


def _torsion(q: SpinQuantum, kappa0s) -> np.ndarray:
    """exp(-i kappa0 m^2 / (2j)): one row per m = -j..j, one column per kappa0."""
    m, _ = _ladder(q.n_qubits)
    return np.exp(-1j * np.asarray(kappa0s, dtype=float) * m[:, None] ** 2 / (2.0 * q.j))


def floquet(params: KickedTopParams) -> np.ndarray:
    """One-period unitary on the (2j+1)-dimensional symmetric subspace."""
    return _torsion(params.q, [params.kappa0]) * _rotation(params.q, params.p)


def evolve(state: np.ndarray, u: np.ndarray, n: int) -> np.ndarray:
    """Apply the one-period unitary n times to a state's amplitudes."""
    if _as_int("n", n) < 0:
        raise DomainError(f"kick count must be >= 0, got {n}")
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DomainError(f"operator shape {u.shape} is not square")
    amps = np.asarray(state, dtype=complex)
    if u.shape[0] != amps.shape[0]:
        raise DomainError(f"operator dim {u.shape[0]} does not match state dim {amps.shape[0]}")
    for _ in range(n):
        amps = u @ amps
    return amps


def concurrence_sweep(
    q: SpinQuantum,
    kappa0s: Sequence[float],
    theta0: float,
    phi0: float,
    n_max: int,
    p: float = DEFAULT_PRECESSION,
) -> list[ConcurrenceSeries]:
    """Concurrence of any qubit pair after each of the first n_max kicks, per kappa0.

    Every kappa0 starts from the spin-coherent state at (theta0, phi0),
    and every entry is computed from the actual evolved state; no
    even/odd shortcut is taken, so identities between neighboring kicks
    remain observable facts rather than baked-in assumptions.  Returns
    one series per kappa0, in the order given.
    """
    params = [KickedTopParams(q, kappa0, p) for kappa0 in kappa0s]
    if not params:
        raise DomainError("need at least one kappa0")
    if q.n_qubits < 2:
        raise DomainError(f"need at least 2 qubits for pairwise concurrence, got {q.n_qubits}")
    if _as_int("n_max", n_max) < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    start = coherent_from_angles(q.n_qubits, theta0, phi0)
    # complex once here, so each kick is one complex GEMM and not a
    # real-by-complex product that casts the rotation on every call
    rotation = _rotation(q, p).astype(complex)
    torsion = _torsion(q, kappa0s)
    dim, k = torsion.shape
    psi = np.repeat(start[:, None], k, axis=1)
    block = max(1, KICK_BLOCK_AMPLITUDES // (dim * k))
    c = np.empty((n_max, k))
    for first in range(0, n_max, block):
        amps = np.empty((min(block, n_max - first), k, dim), dtype=complex)
        for kick in amps:
            psi = torsion * (rotation @ psi)
            kick[:] = psi.T
        pairs = reduce_symmetric(collective_expectations(amps.reshape(-1, dim)))
        c[first : first + len(amps)] = wootters(pairs).concurrence.reshape(-1, k)
    return [ConcurrenceSeries(par, theta0, phi0, c[:, i].copy()) for i, par in enumerate(params)]


def concurrence_series(
    params: KickedTopParams, theta0: float, phi0: float, n_max: int
) -> ConcurrenceSeries:
    """Concurrence of any qubit pair after each of the first n_max kicks.

    The one-kappa0 case of concurrence_sweep; the state starts
    spin-coherent at (theta0, phi0).
    """
    (series,) = concurrence_sweep(params.q, [params.kappa0], theta0, phi0, n_max, params.p)
    return series


def time_average(series: ConcurrenceSeries, burn_in: int) -> float:
    """Mean concurrence over entries with kick index n > burn_in."""
    if _as_int("burn_in", burn_in) < 0:
        raise DomainError(f"burn_in must be >= 0, got {burn_in}")
    tail = series.concurrence[burn_in:]
    if tail.size == 0:
        raise DomainError(f"burn_in {burn_in} leaves no entries out of {series.concurrence.size}")
    return float(np.mean(tail))

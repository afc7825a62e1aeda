"""Quantum kicked top on the symmetric subspace.

One period is a rotation by angle p about y followed by a torsion
about z whose strength kappa0 is scaled by 1/(2j):

    U = exp[-i (kappa0/2j) Jz^2] . exp[-i p Jy]

The torsion factor is diagonal in the Jz eigenbasis, so it is applied
as explicit phases exp(-i kappa0 m^2 / (2j)) rather than through a
matrix exponential.  The rotation is the real orthogonal Wigner
d-matrix: `_rotation` builds it from one real symmetric eigensolve of
the tridiagonal Jx, with no complex eigensolver.

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
from .errors import DimensionMismatch, DomainError, EmptyWindow
from .numerics import hermitian_eigen
from .pairwise import collective_expectations, reduce_symmetric
from .spin import SpinQuantum, SymmetricState, _ladder, coherent_from_angles

DEFAULT_PRECESSION = math.pi / 2.0

# Amplitudes (kicks x kappa0 values x (2j+1)) held per block of the kick
# axis; a block of 2^14 complex amplitudes is 256 KiB.
KICK_BLOCK_AMPLITUDES = 1 << 14

# Sign of rotation entry [a, b] by k = (a - b) mod 4: (-i)^k times C for
# even k, (-i)^k times -iS for odd k.
_QUARTER_TURN_SIGN = np.array([1.0, -1.0, -1.0, 1.0])


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
    tridiagonal, so with Jx = V W V^T the rotation is
    R[a, b] = (-i)^(a-b) (C - iS)[a, b], C = V cos(pW) V^T, S = V sin(pW) V^T.
    C only couples n to n +- even and S to n +- odd, so every entry is
    real: +-C[a, b] for even a - b and +-S[a, b] for odd a - b.
    """
    _, c = _ladder(q.n_qubits)
    lower = np.diag(c / 2.0, k=-1)
    jx = lower + lower.T
    dec = hermitian_eigen(jx)
    v, angles = dec.vectors, p * dec.values
    cos_part = (v * np.cos(angles)) @ v.T
    sin_part = (v * np.sin(angles)) @ v.T
    n = np.arange(q.dim)
    offset = (n[:, None] - n[None, :]) % 4
    return _QUARTER_TURN_SIGN[offset] * np.where(offset % 2 == 0, cos_part, sin_part)


def _torsion(q: SpinQuantum, kappa0s) -> np.ndarray:
    """exp(-i kappa0 m^2 / (2j)): one row per m = -j..j, one column per kappa0."""
    m, _ = _ladder(q.n_qubits)
    return np.exp(-1j * np.asarray(kappa0s, dtype=float) * m[:, None] ** 2 / (2.0 * q.j))


def floquet(params: KickedTopParams) -> np.ndarray:
    """One-period unitary on the (2j+1)-dimensional symmetric subspace."""
    return _torsion(params.q, [params.kappa0]) * _rotation(params.q, params.p)


def evolve(state: SymmetricState, u: np.ndarray, n: int) -> SymmetricState:
    """Apply the one-period unitary n times."""
    if n < 0:
        raise DomainError(f"kick count must be >= 0, got {n}")
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"operator shape {u.shape} is not square")
    amps = np.asarray(state.amps, dtype=complex)
    if u.shape[0] != amps.shape[0]:
        raise DimensionMismatch(
            f"operator dim {u.shape[0]} does not match state dim {amps.shape[0]}"
        )
    for _ in range(n):
        amps = u @ amps
    return SymmetricState(amps)


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
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    start = coherent_from_angles(q.n_qubits, theta0, phi0).amps
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
    tail = series.concurrence[max(burn_in, 0) :]
    if tail.size == 0:
        raise EmptyWindow(
            f"burn_in {burn_in} leaves no entries out of {series.concurrence.size}"
        )
    return float(np.mean(tail))

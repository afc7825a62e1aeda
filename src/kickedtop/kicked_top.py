"""Quantum kicked top on the symmetric subspace.

One period is a rotation by angle p about y followed by a torsion
about z whose strength kappa0 is scaled by 1/(2j):

    U = exp[-i (kappa0/2j) Jz^2] . exp[-i p Jy]

The torsion factor is diagonal in the Jz eigenbasis, so it is applied
as explicit phases exp(-i kappa0 m^2 / (2j)) rather than through a
matrix exponential.  Repeated application of U to a spin-coherent
initial state, followed by the two-qubit reduction in :mod:`.pairwise`
and Wootters' formula, yields the pairwise concurrence time series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .concurrence import wootters
from .errors import DimensionMismatch, DomainError, EmptyWindow
from .numerics import unitary_from_hermitian
from .pairwise import collective_expectations, reduce_symmetric
from .spin import SpinQuantum, SymmetricState, coherent_from_angles, collective_operators

DEFAULT_PRECESSION = math.pi / 2.0


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
    """Pairwise concurrence after each kick, n = 1..n_max."""

    params: KickedTopParams
    theta0: float
    phi0: float
    entries: list[tuple[int, float]] = field(default_factory=list)


def floquet(params: KickedTopParams) -> np.ndarray:
    """One-period unitary on the (2j+1)-dimensional symmetric subspace."""
    ops = collective_operators(params.q)
    rotation = unitary_from_hermitian(ops.jy, params.p)
    j = params.q.j
    m = np.diag(ops.jz).real
    kick = np.exp(-1j * params.kappa0 * m**2 / (2.0 * j))
    return kick[:, None] * rotation


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


def concurrence_series(
    params: KickedTopParams, theta0: float, phi0: float, n_max: int
) -> ConcurrenceSeries:
    """Concurrence of any qubit pair after each of the first n_max kicks.

    The state starts spin-coherent at (theta0, phi0).  Every entry is
    computed from the actual evolved state; no even/odd shortcut is
    taken, so identities between neighboring kicks remain observable
    facts rather than baked-in assumptions.
    """
    n_qubits = params.q.n_qubits
    if n_qubits < 2:
        raise DomainError(f"need at least 2 qubits for pairwise concurrence, got {n_qubits}")
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    u = floquet(params)
    state = coherent_from_angles(n_qubits, theta0, phi0)
    entries: list[tuple[int, float]] = []
    for n in range(1, n_max + 1):
        state = evolve(state, u, 1)
        rho12 = reduce_symmetric(collective_expectations(state))
        entries.append((n, wootters(rho12).concurrence))
    return ConcurrenceSeries(params, theta0, phi0, entries)


def time_average(series: ConcurrenceSeries, burn_in: int) -> float:
    """Mean concurrence over entries with kick index n > burn_in."""
    tail = [c for n, c in series.entries if n > burn_in]
    if not tail:
        raise EmptyWindow(
            f"burn_in {burn_in} leaves no entries out of {len(series.entries)}"
        )
    return float(sum(tail) / len(tail))

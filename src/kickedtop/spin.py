"""Collective spin operators and reference states on the symmetric subspace.

Basis convention used by the whole package: a symmetric N-qubit state
is a vector over |n>, n = 0..N, where n counts the qubits in |0> and
the Jz eigenvalue is m = n - N/2.  So |n=0> is the all-|1> state at
the bottom of the ladder and |n=N> = |00...0> is the top.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRange

# theta this close to pi is treated as the exact bottom-pole basis
# state; the phi dependence is pure global phase there.
POLE_SNAP_TOL = 1e-12


@dataclass(frozen=True)
class SpinQuantum:
    """Spin j = two_j/2 realized as N = two_j symmetric qubits."""

    two_j: int

    def __post_init__(self):
        if self.two_j < 1:
            raise IndexOutOfRange(f"two_j must be >= 1, got {self.two_j}")

    @property
    def j(self) -> float:
        return self.two_j / 2

    @property
    def n_qubits(self) -> int:
        return self.two_j

    @property
    def dim(self) -> int:
        return self.two_j + 1


@dataclass(frozen=True)
class SymmetricState:
    """Normalized amplitudes over |n>, n ascending from 0 to N."""

    amps: np.ndarray = field(repr=False)

    @property
    def n_qubits(self) -> int:
        return len(self.amps) - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class CollectiveOps:
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    jplus: np.ndarray
    jminus: np.ndarray


def _ladder(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """m_n = n - N/2 for n = 0..N, and c_n = <n+1|J+|n> for n = 0..N-1.

    c_n = sqrt(j(j+1) - m_n(m_n+1)): the one place the ladder convention
    of the basis is written down.
    """
    j = n_qubits / 2
    m = np.arange(n_qubits + 1) - j
    c = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    return m, c


def collective_operators(q: SpinQuantum) -> CollectiveOps:
    """Jx, Jy, Jz and ladder operators on the (N+1)-dimensional subspace.

    <m+1|J+|m> = sqrt(j(j+1) - m(m+1)) with m = n - N/2 ascending along
    the basis index.
    """
    m, c = _ladder(q.n_qubits)
    jz = np.diag(m.astype(complex))
    jplus = np.diag(c.astype(complex), k=-1)
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2
    jy = (jplus - jminus) / 2j
    return CollectiveOps(jx=jx, jy=jy, jz=jz, jplus=jplus, jminus=jminus)


def number_state(n_qubits: int, n: int) -> SymmetricState:
    """|n>: exactly n qubits in |0>, an eigenstate of Jz with m = n - N/2."""
    if not 0 <= n <= n_qubits:
        raise IndexOutOfRange(f"n = {n} outside 0..{n_qubits}")
    amps = np.zeros(n_qubits + 1, dtype=complex)
    amps[n] = 1.0
    return SymmetricState(amps=amps)


def _product_state(n_qubits: int, up: complex, down: complex) -> SymmetricState:
    """N copies of the qubit up|0> + down|1>, as amplitudes over |n>.

    amps[n] is proportional to binom(N,n)^(1/2) up^n down^(N-n).  The
    magnitudes come from lgamma log-magnitudes scaled by their maximum
    before exponentiating, so no binomial or power overflows at any N.
    Amplitude n gets the phase (n - n0)(arg up - arg down), where n0 is
    the lowest index whose magnitude did not underflow: the global
    phase leaves that amplitude real and positive.
    """
    if up == 0:
        return number_state(n_qubits, 0)
    if down == 0:
        return number_state(n_qubits, n_qubits)
    ns = np.arange(n_qubits + 1)
    log_fact = np.array([math.lgamma(k + 1) for k in range(n_qubits + 1)])
    log_mag = (
        0.5 * (log_fact[-1] - log_fact - log_fact[::-1])
        + ns * math.log(abs(up))
        + (n_qubits - ns) * math.log(abs(down))
    )
    mag = np.exp(log_mag - log_mag.max())
    mag /= np.linalg.norm(mag)
    n0 = np.flatnonzero(mag)[0]
    alpha = cmath.phase(up) - cmath.phase(down)
    return SymmetricState(amps=mag * np.exp(1j * alpha * (ns - n0)))


def spin_coherent(n_qubits: int, eta: complex) -> SymmetricState:
    """Product state of N identical qubits, amplitudes binomial in eta.

    amps[n] = (1+|eta|^2)^(-N/2) * binom(N,n)^(1/2) * eta^n, up to the
    global phase that makes the lowest nonzero amplitude real and
    positive.  eta = 0 is the bottom pole |n=0>; |eta| -> infinity
    approaches the top pole.
    """
    if n_qubits < 1:
        raise IndexOutOfRange(f"n_qubits must be >= 1, got {n_qubits}")
    return _product_state(n_qubits, complex(eta), 1.0)


def coherent_from_angles(n_qubits: int, theta: float, phi: float) -> SymmetricState:
    """Coherent state pointed along (sin(theta)cos(phi), sin(theta)sin(phi), cos(theta)).

    Every qubit is cos(theta/2)|0> + e^(i phi) sin(theta/2)|1>, with the
    same global phase convention as spin_coherent.  theta = 0 is the
    all-|0> top pole |n=N| with <Jz> = +N/2; theta = pi (within
    POLE_SNAP_TOL) snaps to the exact bottom basis state, where phi no
    longer matters.
    """
    if n_qubits < 1:
        raise IndexOutOfRange(f"n_qubits must be >= 1, got {n_qubits}")
    if abs(theta - math.pi) <= POLE_SNAP_TOL:
        return number_state(n_qubits, 0)
    return _product_state(
        n_qubits, math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)
    )


def epr_state(n_qubits: int) -> np.ndarray:
    """Two N-qubit ensembles in the diagonal superposition over (n, n).

    Returns the (N+1) x (N+1) amplitude matrix amps[n1, n2], equal to
    1/sqrt(N+1) on the diagonal.  The state is annihilated by
    J1z - J2z since only n1 = n2 carries weight.
    """
    if n_qubits < 1:
        raise IndexOutOfRange(f"n_qubits must be >= 1, got {n_qubits}")
    dim = n_qubits + 1
    amps = np.zeros((dim, dim), dtype=complex)
    np.fill_diagonal(amps, 1 / math.sqrt(dim))
    return amps

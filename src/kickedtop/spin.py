"""Spin sizes and reference states on the symmetric subspace.

Basis convention used by the whole package: a symmetric N-qubit state
is its 1-D complex array of amplitudes over |n>, n = 0..N, where n
counts the qubits in |0> and the Jz eigenvalue is m = n - N/2.  So
|n=0> is the all-|1> state at the bottom of the ladder and |n=N> =
|00...0> is the top.  A stack of T states is a (T, N+1) array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# theta this close to pi is treated as the exact bottom-pole basis
# state; the phi dependence is pure global phase there.
POLE_SNAP_TOL = 1e-12


def _as_int(name: str, value) -> int:
    """value as an int; DomainError unless it is a Python or numpy integer, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value}")
    return int(value)


def _count(name: str, value, minimum: int) -> int:
    """value as an int; DomainError unless it is an integer >= minimum."""
    count = _as_int(name, value)
    if count < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return count


def _real(name: str, value, minimum: float | None = None) -> float:
    """value as a float; DomainError unless it is finite, not a bool and, given a minimum, >= minimum."""
    finite = not isinstance(value, (bool, np.bool_)) and math.isfinite(value)
    if not (finite and (minimum is None or value >= minimum)):
        bound = "" if minimum is None else f" and >= {minimum}"
        raise DomainError(f"{name} must be finite{bound}, got {value}")
    return float(value)


@dataclass(frozen=True)
class SpinQuantum:
    """Spin j = two_j/2 realized as N = two_j symmetric qubits."""

    two_j: int

    def __post_init__(self):
        _count("two_j", self.two_j, 1)

    @property
    def j(self) -> float:
        return self.two_j / 2

    @property
    def n_qubits(self) -> int:
        return self.two_j

    @property
    def dim(self) -> int:
        return self.two_j + 1


def _ladder(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """m_n = n - N/2 for n = 0..N, and c_n = <n+1|J+|n> for n = 0..N-1.

    c_n = sqrt(j(j+1) - m_n(m_n+1)): the one place the ladder convention
    of the basis is written down.
    """
    j = n_qubits / 2
    m = np.arange(n_qubits + 1) - j
    c = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    return m, c


def number_state(n_qubits: int, n: int) -> np.ndarray:
    """|n>: exactly n qubits in |0>, an eigenstate of Jz with m = n - N/2."""
    n_qubits = _count("n_qubits", n_qubits, 1)
    n = _as_int("n", n)
    if not 0 <= n <= n_qubits:
        raise DomainError(f"n = {n} outside 0..{n_qubits}")
    amps = np.zeros(n_qubits + 1, dtype=complex)
    amps[n] = 1.0
    return amps


def _product_state(n_qubits: int, up: complex, down: complex) -> np.ndarray:
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
    return mag * np.exp(1j * alpha * (ns - n0))


def spin_coherent(n_qubits: int, eta: complex) -> np.ndarray:
    """Product state of N identical qubits, amplitudes binomial in eta.

    amps[n] = (1+|eta|^2)^(-N/2) * binom(N,n)^(1/2) * eta^n, up to the
    global phase that makes the lowest nonzero amplitude real and
    positive.  eta = 0 is the bottom pole |n=0>; |eta| -> infinity
    approaches the top pole.
    """
    _count("n_qubits", n_qubits, 1)
    if not cmath.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta}")
    return _product_state(n_qubits, complex(eta), 1.0)


def coherent_from_angles(n_qubits: int, theta: float, phi: float) -> np.ndarray:
    """Coherent state pointed along (sin(theta)cos(phi), sin(theta)sin(phi), cos(theta)).

    Every qubit is cos(theta/2)|0> + e^(i phi) sin(theta/2)|1>, with the
    same global phase convention as spin_coherent.  theta = 0 is the
    all-|0> top pole |n=N| with <Jz> = +N/2; theta = pi (within
    POLE_SNAP_TOL) snaps to the exact bottom basis state, where phi no
    longer matters.
    """
    _count("n_qubits", n_qubits, 1)
    _real("theta", theta)
    _real("phi", phi)
    if abs(theta - math.pi) <= POLE_SNAP_TOL:
        return number_state(n_qubits, 0)
    return _product_state(
        n_qubits, math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)
    )

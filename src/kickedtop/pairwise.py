"""Reduction of symmetric multiqubit states to the two-qubit density matrix.

For a permutation-symmetric state every qubit pair has the same reduced
density matrix, and it is determined entirely by collective first and
second moments.  The matrix lives on the basis {|00>, |01>, |10>, |11>}
and has the named entries

        [ v+   x+*  x+*  u*  ]
        [ x+   w    y    x-* ]
        [ x+   y    w    x-* ]
        [ u    x-   x-   v-  ]

with y real for symmetric states (swap symmetry forces it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotPhysical, NumericalFailure
from .numerics import EigenDecomposition, hermitian_eigen
from .spin import SymmetricState, collective_operators, SpinQuantum

TRACE_TOL = 1e-10
HERMITIZE_TOL = 1e-10
PSD_FLOOR = -1e-7


@dataclass(frozen=True)
class CollectiveExpectations:
    """First and second collective moments of a symmetric state."""

    n_qubits: int
    sz: float
    sz2: float
    sxsy_anti: float          # <[Sx, Sy]_+>
    sx2_plus_sy2: float
    splus: complex
    splus2: complex
    splus_sz_anti: complex    # <[S+, Sz]_+>


@dataclass(frozen=True)
class TwoQubitDensity:
    """4x4 two-qubit density matrix with named entry accessors.

    eig is the Hermitian eigendecomposition of rho made by the positivity
    check in from_matrix, kept so that consumers need not repeat it.
    """

    rho: np.ndarray = field(repr=False)
    eig: EigenDecomposition = field(repr=False, compare=False)

    @classmethod
    def from_matrix(cls, rho: np.ndarray) -> "TwoQubitDensity":
        """Validate, symmetrize roundoff, and wrap a raw 4x4 matrix.

        Hermitizes via (rho + rho^dagger)/2 and insists the correction
        is below HERMITIZE_TOL, then checks trace and positivity.
        """
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (4, 4):
            raise DomainError(f"expected 4x4, got {rho.shape}")
        sym = (rho + rho.conj().T) / 2
        corr = np.abs(sym - rho).max()
        if corr > HERMITIZE_TOL:
            raise NumericalFailure(f"hermitizing moved an entry by {corr:.3e}")
        tr = sym.trace().real
        if abs(tr - 1) > TRACE_TOL:
            raise NotPhysical(f"trace = {tr!r}, expected 1")
        eig = hermitian_eigen(sym)
        lo = eig.values[0]
        if lo < PSD_FLOOR:
            raise NotPhysical(f"eigenvalue {lo:.3e} below {PSD_FLOOR:.1e}")
        return cls(rho=sym, eig=eig)

    @property
    def v_plus(self) -> float:
        return self.rho[0, 0].real

    @property
    def v_minus(self) -> float:
        return self.rho[3, 3].real

    @property
    def w(self) -> float:
        return self.rho[1, 1].real

    @property
    def y(self) -> complex:
        return self.rho[2, 1]

    @property
    def u(self) -> complex:
        return self.rho[3, 0]

    @property
    def x_plus(self) -> complex:
        return self.rho[1, 0]

    @property
    def x_minus(self) -> complex:
        return self.rho[3, 1]


def collective_expectations(state: SymmetricState) -> CollectiveExpectations:
    """Collective moments <Sz>, <Sz^2>, <S+>, <S+^2>, anticommutators.

    <Sx^2 + Sy^2> comes from j(j+1) - <Sz^2>, exact on the symmetric
    subspace; everything else is a direct matrix expectation.
    Imaginary parts of Hermitian expectations are pure roundoff and are
    dropped.
    """
    n = state.n_qubits
    ops = collective_operators(SpinQuantum(two_j=n))
    psi = state.amps
    j = n / 2

    def expect(op):
        return complex(np.vdot(psi, op @ psi))

    sz = expect(ops.jz).real
    sz2 = expect(ops.jz @ ops.jz).real
    sxsy_anti = expect(ops.jx @ ops.jy + ops.jy @ ops.jx).real
    splus = expect(ops.jplus)
    splus2 = expect(ops.jplus @ ops.jplus)
    splus_sz_anti = expect(ops.jplus @ ops.jz + ops.jz @ ops.jplus)
    return CollectiveExpectations(
        n_qubits=n,
        sz=sz,
        sz2=sz2,
        sxsy_anti=sxsy_anti,
        sx2_plus_sy2=j * (j + 1) - sz2,
        splus=splus,
        splus2=splus2,
        splus_sz_anti=splus_sz_anti,
    )


def reduce_symmetric(exp: CollectiveExpectations) -> TwoQubitDensity:
    """Two-qubit reduced density matrix from collective moments."""
    n = exp.n_qubits
    if n < 2:
        raise DomainError(f"need at least 2 qubits, got {n}")
    denom4 = 4 * n * (n - 1)
    v_plus = (n * n - 2 * n + 4 * exp.sz2 + 4 * exp.sz * (n - 1)) / denom4
    v_minus = (n * n - 2 * n + 4 * exp.sz2 - 4 * exp.sz * (n - 1)) / denom4
    w = (n * n - 4 * exp.sz2) / denom4
    y = (2 * exp.sx2_plus_sy2 - n) / (2 * n * (n - 1))
    u = exp.splus2 / (n * (n - 1))
    x_plus = ((n - 1) * exp.splus + exp.splus_sz_anti) / (2 * n * (n - 1))
    x_minus = ((n - 1) * exp.splus - exp.splus_sz_anti) / (2 * n * (n - 1))
    rho = np.array(
        [
            [v_plus, x_plus.conjugate(), x_plus.conjugate(), u.conjugate()],
            [x_plus, w, y, x_minus.conjugate()],
            [x_plus, y, w, x_minus.conjugate()],
            [u, x_minus, x_minus, v_minus],
        ],
        dtype=complex,
    )
    return TwoQubitDensity.from_matrix(rho)


def epr_expectations(n_qubits: int) -> tuple[float, float]:
    """<J1z J2z> and <J1+ J2+> in the diagonal two-ensemble state.

    Both collapse to single sums over the diagonal amplitudes: the
    state pairs level n with level n, so J1z J2z contributes m_n^2 and
    J1+ J2+ couples (n, n) to (n+1, n+1) with the squared ladder
    coefficient.
    """
    n = n_qubits
    dim = n + 1
    m = np.arange(dim) - n / 2
    j = n / 2
    j1z_j2z = float(np.sum(m * m) / dim)
    c = j * (j + 1) - m[:-1] * (m[:-1] + 1)  # <n+1|J+|n>^2
    j1p_j2p = float(np.sum(c) / dim)
    return j1z_j2z, j1p_j2p


def epr_reduce(n_qubits: int) -> TwoQubitDensity:
    """Reduced matrix of one qubit from each ensemble of the EPR state.

    Diagonal-plus-corner form: w = 1/4 - <J1z J2z>/N^2 on the inner
    diagonal, corner u = <J1+ J2+>/N^2, v = (1 - 2w)/2 at both ends,
    x and y identically zero.
    """
    if n_qubits < 1:
        raise DomainError(f"n_qubits must be >= 1, got {n_qubits}")
    n2 = n_qubits * n_qubits
    j1z_j2z, j1p_j2p = epr_expectations(n_qubits)
    w = 0.25 - j1z_j2z / n2
    u = j1p_j2p / n2
    v = (1 - 2 * w) / 2
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = v
    rho[1, 1] = rho[2, 2] = w
    rho[3, 0] = u
    rho[0, 3] = np.conjugate(u)
    return TwoQubitDensity.from_matrix(rho)

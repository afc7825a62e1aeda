"""Hermitian eigendecomposition, the one eigensolver of the package.

Delegated to LAPACK via numpy and wrapped so that bad input and failed
iterations surface as package errors.  A real symmetric input is
decomposed in real arithmetic and gives real eigenvectors.  Its one
caller in the package is the two-qubit pair path
(`TwoQubitDensity.from_matrix`, on stacks of 4x4 matrices); the kick
rotation needs no eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError

# Largest max|H - H^dagger| that hermitian_eigen accepts.
HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues ascending plus the matching orthonormal eigenvectors.

    vectors[..., :, k] belongs to values[..., k]; for a stack of
    matrices both carry the same leading stack axes.
    """

    values: np.ndarray
    vectors: np.ndarray


def _as_square_matrices(m) -> np.ndarray:
    a = np.asarray(m)
    a = a.astype(complex if np.iscomplexobj(a) else float, copy=False)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise DomainError(f"expected square matrices, got shape {a.shape}")
    return a


def hermitian_eigen(h) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, values ascending.

    h is one matrix or a stack of them along leading axes, decomposed
    matrix by matrix.  Complex input gives complex eigenvectors; real
    input is taken as real symmetric and gives real ones.  Raises
    NumericalError when max|H - H^dagger| exceeds HERMITICITY_TOL
    anywhere in the stack or the underlying iteration gives up.
    """
    a = _as_square_matrices(h)
    dev = np.abs(a - a.conj().swapaxes(-1, -2)).max()
    if dev > HERMITICITY_TOL:
        raise NumericalError(f"max |H - H^dagger| = {dev:.3e} exceeds {HERMITICITY_TOL:.1e}")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(str(exc)) from exc
    return EigenDecomposition(values=values, vectors=vectors)

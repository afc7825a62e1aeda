"""Hermitian eigendecomposition, the one eigensolver of the package.

Delegated to LAPACK via numpy and wrapped so that bad input and failed
iterations surface as package errors.  A real symmetric input is
decomposed in real arithmetic and gives real eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
)

# Default Hermiticity bound for hermitian_eigen; call sites may override
# it per invocation.
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
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    return a


def hermitian_eigen(h, tol: float = HERMITICITY_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, values ascending.

    h is one matrix or a stack of them along leading axes, decomposed
    matrix by matrix.  Complex input gives complex eigenvectors; real
    input is taken as real symmetric and gives real ones.  Raises
    NotHermitian when max|H - H^dagger| exceeds tol anywhere in the
    stack, and NoConvergence if the underlying iteration gives up.
    """
    a = _as_square_matrices(h)
    dev = np.abs(a - a.conj().swapaxes(-1, -2)).max()
    if dev > tol:
        raise NotHermitian(f"max |H - H^dagger| = {dev:.3e} exceeds {tol:.1e}")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return EigenDecomposition(values=values, vectors=vectors)

"""Dense collective spin operators, the reference the tests compare against.

The package never builds these (N+1) x (N+1) matrices: it works from
the ladder coefficients and collective moments directly.  Here they are
written out from the textbook matrix elements in the package's basis,
|n> with n = 0..N and m = n - N/2 ascending along the index.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from kickedtop import SpinQuantum


class DenseOps(NamedTuple):
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    jplus: np.ndarray
    jminus: np.ndarray


def collective_operators(q: SpinQuantum) -> DenseOps:
    """Jx, Jy, Jz, J+ and J- of spin j = q.two_j / 2.

    <m+1|J+|m> = sqrt(j(j+1) - m(m+1)).
    """
    j = q.two_j / 2
    m = np.arange(q.two_j + 1) - j
    jz = np.diag(m.astype(complex))
    jplus = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)).astype(complex), k=-1)
    jminus = jplus.conj().T
    return DenseOps(
        jx=(jplus + jminus) / 2, jy=(jplus - jminus) / 2j, jz=jz, jplus=jplus, jminus=jminus
    )


def jvec(psi) -> np.ndarray:
    """(<Jx>, <Jy>, <Jz>) of a state's amplitudes, from the dense operators."""
    ops = collective_operators(SpinQuantum(len(psi) - 1))
    return np.array([np.vdot(psi, op @ psi).real for op in (ops.jx, ops.jy, ops.jz)])

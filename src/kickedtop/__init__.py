"""Kicked-top dynamics and pairwise entanglement of collective spin states.

The package covers three routes to the two-qubit concurrence of
permutation-symmetric N-qubit states: closed forms (Dicke states, the
exactly solvable 3-qubit kicked top), the general reduction from
collective expectation values, and Wootters' formula on the reduced
matrix.  A classical-limit map with Lyapunov estimation and a CSV CLI
round out the figure-generating surface.
"""

from .errors import (
    BlockLeakage,
    DimensionMismatch,
    DimensionTooLarge,
    DomainError,
    EmptyWindow,
    IndexOutOfRange,
    KickedTopError,
    NoConvergence,
    NotHermitian,
    NotPhysical,
    NotTangent,
    NumericalError,
    NumericalFailure,
    OffSphere,
    WrongStructure,
)
from .numerics import (
    EigenDecomposition,
    hermitian_eigen,
)
from .spin import (
    CollectiveOps,
    SpinQuantum,
    SymmetricState,
    coherent_from_angles,
    collective_operators,
    epr_state,
    number_state,
    spin_coherent,
)
from .pairwise import (
    CollectiveExpectations,
    TwoQubitDensity,
    collective_expectations,
    epr_expectations,
    epr_reduce,
    reduce_symmetric,
)
from .concurrence import (
    ConcurrenceResult,
    binary_entropy,
    concurrence_dicke_form,
    concurrence_x_form,
    dicke_concurrence_closed,
    entanglement_of_formation,
    von_neumann_entropy,
    wootters,
)
from .kicked_top import (
    ConcurrenceSeries,
    KickedTopParams,
    concurrence_series,
    concurrence_sweep,
    evolve,
    floquet,
    time_average,
)
from .analytic3 import (
    ChebyshevStep,
    ParityBasis,
    analytic_concurrence,
    analytic_concurrence_series,
    blocks_u_pm,
    build_parity_basis,
    chebyshev_step,
    chebyshev_table,
    first_kick_concurrence,
    parity_operator,
    rho12_analytic,
)
from .classical import (
    LyapunovEstimate,
    SpherePoint,
    classical_map,
    lyapunov,
    lyapunov_running,
    tangent_step,
)

__all__ = [
    "BlockLeakage",
    "ChebyshevStep",
    "CollectiveExpectations",
    "CollectiveOps",
    "ConcurrenceResult",
    "ConcurrenceSeries",
    "DimensionMismatch",
    "DimensionTooLarge",
    "DomainError",
    "EigenDecomposition",
    "EmptyWindow",
    "IndexOutOfRange",
    "KickedTopError",
    "KickedTopParams",
    "LyapunovEstimate",
    "NoConvergence",
    "NotHermitian",
    "NotPhysical",
    "NotTangent",
    "NumericalError",
    "NumericalFailure",
    "OffSphere",
    "ParityBasis",
    "SpherePoint",
    "SpinQuantum",
    "SymmetricState",
    "TwoQubitDensity",
    "WrongStructure",
    "analytic_concurrence",
    "analytic_concurrence_series",
    "binary_entropy",
    "blocks_u_pm",
    "build_parity_basis",
    "chebyshev_step",
    "chebyshev_table",
    "classical_map",
    "coherent_from_angles",
    "collective_expectations",
    "collective_operators",
    "concurrence_dicke_form",
    "concurrence_series",
    "concurrence_sweep",
    "concurrence_x_form",
    "dicke_concurrence_closed",
    "entanglement_of_formation",
    "epr_expectations",
    "epr_reduce",
    "epr_state",
    "evolve",
    "first_kick_concurrence",
    "floquet",
    "hermitian_eigen",
    "lyapunov",
    "lyapunov_running",
    "number_state",
    "parity_operator",
    "reduce_symmetric",
    "rho12_analytic",
    "spin_coherent",
    "time_average",
    "tangent_step",
    "von_neumann_entropy",
    "wootters",
]

__version__ = "0.1.0"

"""Kicked-top dynamics and pairwise entanglement of collective spin states.

The package covers three routes to the two-qubit concurrence of
permutation-symmetric N-qubit states: closed forms (Dicke states, the
exactly solvable 3-qubit kicked top), the general reduction from
collective expectation values, and Wootters' formula on the reduced
matrix.  A classical-limit map with Lyapunov estimation and a CSV CLI
round out the figure-generating surface.
"""

from .errors import DomainError, KickedTopError, NumericalError
from .spin import (
    SpinQuantum,
    coherent_from_angles,
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
    concurrence_dicke_form,
    concurrence_x_form,
    dicke_concurrence_closed,
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
    classical_map,
    lyapunov,
    lyapunov_running,
    tangent_step,
)

__all__ = [
    "ChebyshevStep",
    "CollectiveExpectations",
    "ConcurrenceResult",
    "ConcurrenceSeries",
    "DomainError",
    "KickedTopError",
    "KickedTopParams",
    "LyapunovEstimate",
    "NumericalError",
    "ParityBasis",
    "SpinQuantum",
    "TwoQubitDensity",
    "analytic_concurrence",
    "analytic_concurrence_series",
    "blocks_u_pm",
    "build_parity_basis",
    "chebyshev_step",
    "chebyshev_table",
    "classical_map",
    "coherent_from_angles",
    "collective_expectations",
    "concurrence_dicke_form",
    "concurrence_series",
    "concurrence_sweep",
    "concurrence_x_form",
    "dicke_concurrence_closed",
    "epr_expectations",
    "epr_reduce",
    "evolve",
    "first_kick_concurrence",
    "floquet",
    "lyapunov",
    "lyapunov_running",
    "number_state",
    "parity_operator",
    "reduce_symmetric",
    "rho12_analytic",
    "spin_coherent",
    "time_average",
    "tangent_step",
    "wootters",
]

__version__ = "0.1.0"

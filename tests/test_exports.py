"""The public export list stays importable."""

import kickedtop


def test_every_exported_name_resolves():
    missing = [name for name in kickedtop.__all__ if not hasattr(kickedtop, name)]
    assert not missing
    assert len(set(kickedtop.__all__)) == len(kickedtop.__all__)


def test_one_error_class_per_exit_code():
    errors = [
        name
        for name in kickedtop.__all__
        if isinstance(getattr(kickedtop, name), type)
        and issubclass(getattr(kickedtop, name), Exception)
    ]
    assert sorted(errors) == ["DomainError", "KickedTopError", "NumericalError"]


def test_the_public_surface_is_pinned():
    assert sorted(kickedtop.__all__) == [
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
        "tangent_step",
        "time_average",
        "wootters",
    ]

"""Floquet operator, state evolution, and the concurrence time series."""

import math

import numpy as np
import pytest

import kickedtop.kicked_top as kicked_top
from kickedtop import (
    DimensionMismatch,
    DomainError,
    EmptyWindow,
    KickedTopParams,
    SpinQuantum,
    analytic_concurrence_series,
    coherent_from_angles,
    collective_operators,
    concurrence_series,
    concurrence_sweep,
    evolve,
    floquet,
    number_state,
    parity_operator,
    time_average,
)


def jvec(state):
    ops = collective_operators(SpinQuantum(state.n_qubits))
    psi = state.amps
    return np.array([np.vdot(psi, op @ psi).real for op in (ops.jx, ops.jy, ops.jz)])


def test_params_validation():
    q = SpinQuantum(3)
    with pytest.raises(DomainError):
        KickedTopParams(q, -0.1)
    with pytest.raises(DomainError):
        KickedTopParams(q, math.nan)
    with pytest.raises(DomainError):
        KickedTopParams(q, 1.0, p=math.inf)


def test_floquet_is_unitary_across_spin_sizes():
    for two_j in (1, 2, 3, 7, 20, 50):
        u = floquet(KickedTopParams(SpinQuantum(two_j), 2.7))
        gram = u.conj().T @ u
        assert np.abs(gram - np.eye(two_j + 1)).max() <= 1e-11


def test_zero_torsion_is_a_pure_precession():
    # p = pi/2 about y sends the +z pole to +x and has period 4
    u = floquet(KickedTopParams(SpinQuantum(6), 0.0))
    top = coherent_from_angles(6, 0.0, 0.0)
    np.testing.assert_allclose(jvec(evolve(top, u, 1)), [3.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(jvec(evolve(top, u, 2)), [0.0, 0.0, -3.0], atol=1e-12)
    back = evolve(top, u, 4)
    assert abs(abs(np.vdot(top.amps, back.amps)) - 1.0) < 1e-12


def test_evolution_preserves_norm_over_many_kicks():
    params = KickedTopParams(SpinQuantum(9), 5.3)
    state = coherent_from_angles(9, 1.0, 0.5)
    state = evolve(state, floquet(params), 500)
    assert abs(state.norm() - 1.0) < 1e-11


def test_evolve_validation():
    u = floquet(KickedTopParams(SpinQuantum(3), 1.0))
    state = number_state(3, 0)
    with pytest.raises(DomainError):
        evolve(state, u, -1)
    with pytest.raises(DimensionMismatch):
        evolve(number_state(4, 0), u, 1)
    with pytest.raises(DimensionMismatch):
        evolve(state, np.zeros((3, 4)), 1)


def test_parity_commutes_with_floquet():
    pi_op = parity_operator(SpinQuantum(3))
    for kappa0 in (0.0, 0.7, 1.2, 3.9, 6.5):
        u = floquet(KickedTopParams(SpinQuantum(3), kappa0))
        comm = u @ pi_op - pi_op @ u
        assert np.abs(comm).max() <= 1e-10


def test_series_zero_torsion_stays_separable():
    series = concurrence_series(KickedTopParams(SpinQuantum(3), 0.0), 0.0, 0.0, 50)
    assert [n for n, _ in series.entries] == list(range(1, 51))
    assert all(c == 0.0 for _, c in series.entries)


def test_series_matches_closed_form_at_one_torsion():
    kappa0 = 1.7
    series = concurrence_series(KickedTopParams(SpinQuantum(3), kappa0), 0.0, 0.0, 60)
    analytic = analytic_concurrence_series(60, kappa0)
    worst = max(abs(c - analytic[n - 1]) for n, c in series.entries)
    assert worst <= 1e-9


def test_series_odd_even_pairing():
    series = concurrence_series(KickedTopParams(SpinQuantum(3), 2.4), 0.0, 0.0, 40)
    cs = dict(series.entries)
    for m in range(1, 21):
        assert cs[2 * m - 1] == pytest.approx(cs[2 * m], abs=1e-9)


def test_series_is_six_pi_periodic_in_torsion():
    kappa0 = 1.7
    a = concurrence_series(KickedTopParams(SpinQuantum(3), kappa0), 0.0, 0.0, 30)
    b = concurrence_series(
        KickedTopParams(SpinQuantum(3), kappa0 + 6.0 * math.pi), 0.0, 0.0, 30
    )
    for (_, ca), (_, cb) in zip(a.entries, b.entries):
        assert ca == pytest.approx(cb, abs=1e-12)


def test_sweep_columns_equal_single_series_across_kick_blocks(monkeypatch):
    q = SpinQuantum(5)
    grid = [0.0, 1.7, 2.4, 6.0]
    whole = concurrence_sweep(q, grid, 0.7, 0.3, 40)
    # 3 kicks per block for 4 kappa0 values at 2j = 5
    monkeypatch.setattr(kicked_top, "KICK_BLOCK_AMPLITUDES", 3 * 4 * 6)
    blocked = concurrence_sweep(q, grid, 0.7, 0.3, 40)
    for kappa0, a, b in zip(grid, whole, blocked):
        assert a.params.kappa0 == kappa0
        single = concurrence_series(KickedTopParams(q, kappa0), 0.7, 0.3, 40)
        np.testing.assert_allclose(a.concurrence, single.concurrence, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(b.concurrence, a.concurrence, rtol=0.0, atol=1e-14)
    assert all(c == 0.0 for c in whole[0].concurrence)


def test_large_j_zero_torsion_keeps_coherent_states_separable():
    # at kappa0 = 0 every kick is a rotation, so the state stays coherent
    # and every pair is exactly separable; 1000 kicks at 2j = 1000 span
    # many kick blocks
    q = SpinQuantum(1000)
    assert kicked_top.KICK_BLOCK_AMPLITUDES // q.dim < 1000
    series = concurrence_series(KickedTopParams(q, 0.0), 0.7, 0.0, 1000)
    assert series.concurrence.shape == (1000,)
    assert np.all(series.concurrence == 0.0)


def test_large_j_evolution_preserves_norm():
    state = coherent_from_angles(1000, 0.7, 0.0)
    state = evolve(state, floquet(KickedTopParams(SpinQuantum(1000), 1.0)), 1000)
    assert abs(state.norm() - 1.0) <= 1e-11


def test_series_validation():
    with pytest.raises(DomainError):
        concurrence_series(KickedTopParams(SpinQuantum(1), 1.0), 0.0, 0.0, 5)
    with pytest.raises(DomainError):
        concurrence_series(KickedTopParams(SpinQuantum(3), 1.0), 0.0, 0.0, 0)
    with pytest.raises(DomainError):
        concurrence_sweep(SpinQuantum(3), [], 0.0, 0.0, 5)


def test_time_average():
    series = concurrence_series(KickedTopParams(SpinQuantum(3), 2.4), 0.0, 0.0, 20)
    values = [c for _, c in series.entries]
    assert time_average(series, 0) == pytest.approx(sum(values) / 20, abs=1e-15)
    assert time_average(series, 15) == pytest.approx(sum(values[15:]) / 5, abs=1e-15)
    with pytest.raises(EmptyWindow):
        time_average(series, 20)

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


def complex_route_rotation(q, p):
    # exp(-i p Jy) from a complex eigendecomposition of the dense Jy
    w, v = np.linalg.eigh(collective_operators(q).jy)
    return (v * np.exp(-1j * p * w)) @ v.conj().T


@pytest.mark.parametrize("two_j", [1, 2, 3, 30, 200])
def test_rotation_is_real_and_matches_the_complex_route(two_j):
    q = SpinQuantum(two_j)
    for p in (math.pi / 2.0, 0.37, 2.9):
        r = kicked_top._rotation(q, p)
        assert r.dtype == np.float64 and r.shape == (q.dim, q.dim)
        assert np.abs(r - complex_route_rotation(q, p)).max() <= 1e-13


def test_rotation_at_spin_half_is_the_closed_form_block():
    # exp(-i p sigma_y / 2) = [[c, -s], [s, c]] in the order (m = +1/2, -1/2),
    # the reverse of the ascending basis index
    p = 0.737
    c, s = math.cos(p / 2.0), math.sin(p / 2.0)
    r = kicked_top._rotation(SpinQuantum(1), p)
    np.testing.assert_allclose(r[::-1, ::-1], [[c, -s], [s, c]], rtol=0.0, atol=1e-15)


def test_rotation_composes_additively():
    q = SpinQuantum(7)
    ra, rb = kicked_top._rotation(q, 0.3), kicked_top._rotation(q, 1.1)
    np.testing.assert_allclose(ra @ rb, kicked_top._rotation(q, 1.4), rtol=0.0, atol=1e-13)


def test_rotation_stays_orthogonal_at_large_j():
    r = kicked_top._rotation(SpinQuantum(2000), math.pi / 2.0)
    assert np.abs(r.T @ r - np.eye(2001)).max() <= 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5, 30])
def test_parity_is_the_exact_signed_antidiagonal(two_j):
    q = SpinQuantum(two_j)
    pi_op = parity_operator(q)
    expected = np.zeros((q.dim, q.dim), dtype=complex)
    for n in range(q.dim):
        expected[two_j - n, n] = 1j**two_j * (-1) ** (two_j - n)
    assert np.array_equal(pi_op, expected)
    assert np.array_equal(pi_op @ pi_op, np.eye(q.dim))
    # i^N times the rotation by pi about y
    np.testing.assert_allclose(
        pi_op, 1j**two_j * complex_route_rotation(q, math.pi), rtol=0.0, atol=1e-13
    )


def test_parity_commutes_with_floquet():
    for two_j in (2, 3, 4, 5, 30):
        q = SpinQuantum(two_j)
        pi_op = parity_operator(q)
        for kappa0 in (0.0, 0.7, 1.2, 3.9, 6.5):
            u = floquet(KickedTopParams(q, kappa0))
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

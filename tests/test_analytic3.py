"""Closed-form three-qubit dynamics: parity blocks and Chebyshev route."""

import math

import numpy as np
import pytest

from kickedtop import (
    DomainError,
    KickedTopParams,
    SpinQuantum,
    analytic_concurrence,
    analytic_concurrence_series,
    blocks_u_pm,
    build_parity_basis,
    chebyshev_step,
    chebyshev_table,
    coherent_from_angles,
    collective_expectations,
    concurrence_x_form,
    evolve,
    first_kick_concurrence,
    floquet,
    parity_operator,
    reduce_symmetric,
    rho12_analytic,
    wootters,
)

KAPPA0_GRID = [0.0, 0.3, 1.2, 2.4, math.pi, 6.012, 3 * math.pi]


def closed_block_power(n, kappa0, sign):
    """(U+-)^n assembled from ChebyshevStep entries and the pinned phases."""
    st = chebyshev_step(n, kappa0)
    kappa = kappa0 / 6.0
    a, b = st.alpha, st.beta
    lead = np.exp(-1j * n * kappa0 / 4.0)
    if sign > 0:
        core = np.array([[a, -np.conj(b)], [b, np.conj(a)]])
        return lead * np.exp(-1j * n * (math.pi / 4.0 + kappa)) * core
    core = np.array([[a, np.conj(b)], [-b, np.conj(a)]])
    return lead * ((-1.0) ** n) * np.exp(-1j * n * (-math.pi / 4.0 + kappa)) * core


def test_parity_basis_is_orthonormal_and_parity_adapted():
    basis = build_parity_basis()
    vecs = [basis.sym_phi1_plus, basis.sym_phi2_plus, basis.sym_phi1_minus, basis.sym_phi2_minus]
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-14)
    pi_op = parity_operator(SpinQuantum(3))
    for vec, sign in [
        (basis.sym_phi1_plus, 1.0),
        (basis.sym_phi2_plus, 1.0),
        (basis.sym_phi1_minus, -1.0),
        (basis.sym_phi2_minus, -1.0),
    ]:
        np.testing.assert_allclose(pi_op @ vec, sign * vec, atol=1e-12)


def test_blocks_are_unitary_and_reconstruct_the_floquet_matrix():
    for kappa0 in KAPPA0_GRID:
        up, um = blocks_u_pm(kappa0)
        np.testing.assert_allclose(up.conj().T @ up, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(um.conj().T @ um, np.eye(2), atol=1e-12)
        basis = build_parity_basis()
        v = np.column_stack(
            [basis.sym_phi1_plus, basis.sym_phi2_plus, basis.sym_phi1_minus, basis.sym_phi2_minus]
        )
        u = floquet(KickedTopParams(SpinQuantum(3), kappa0))
        block = np.zeros((4, 4), dtype=complex)
        block[:2, :2] = up
        block[2:, 2:] = um
        np.testing.assert_allclose(v @ block @ v.conj().T, u, atol=1e-12)


def test_block_powers_match_chebyshev_closed_form():
    for kappa0 in (0.4, 1.2, 2.9, 6.1):
        up, um = blocks_u_pm(kappa0)
        for n in (1, 2, 3, 7, 16):
            np.testing.assert_allclose(
                np.linalg.matrix_power(up, n), closed_block_power(n, kappa0, +1), atol=1e-12
            )
            np.testing.assert_allclose(
                np.linalg.matrix_power(um, n), closed_block_power(n, kappa0, -1), atol=1e-12
            )


def test_block_off_diagonal_magnitude_is_constant():
    # the per-kick block mixes the two parity-even states with fixed
    # weight sqrt(3)/2 regardless of torsion
    for kappa0 in KAPPA0_GRID:
        up, um = blocks_u_pm(kappa0)
        assert abs(abs(up[0, 1]) - math.sqrt(3) / 2) < 1e-12
        assert abs(abs(um[0, 1]) - math.sqrt(3) / 2) < 1e-12


def test_chebyshev_step_anchors():
    st0 = chebyshev_step(0, 2.0)
    assert (st0.t, st0.u_prev) == (1.0, 0.0)
    assert st0.alpha == 1.0 and st0.beta == 0.0
    st1 = chebyshev_step(1, 2.0)
    assert st1.t == pytest.approx(st1.chi, abs=1e-15)
    assert st1.u_prev == 1.0
    assert abs(st1.alpha) == pytest.approx(0.5, abs=1e-12)
    assert abs(st1.beta) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    assert math.cos(st1.gamma) == pytest.approx(st1.chi, abs=1e-12)
    with pytest.raises(DomainError):
        chebyshev_step(-1, 1.0)


def test_chebyshev_recurrence_matches_trigonometric_form():
    for kappa0 in (0.7, 2.0, 5.5):
        chi = math.sin(kappa0 / 3.0) / 2.0
        theta = math.acos(chi)
        t, u = chebyshev_table(1000, kappa0)
        for n in (1, 2, 5, 50, 500, 1000):
            assert t[n] == pytest.approx(math.cos(n * theta), abs=1e-10)
            assert u[n] == pytest.approx(math.sin(n * theta) / math.sin(theta), abs=1e-10)
    with pytest.raises(DomainError):
        chebyshev_table(-1, 1.0)


def test_chebyshev_table_agrees_with_per_step_values():
    t, u = chebyshev_table(64, 1.9)
    for n in (0, 1, 2, 17, 64):
        st = chebyshev_step(n, 1.9)
        assert t[n] == pytest.approx(st.t, abs=1e-13)
        assert u[n] == pytest.approx(st.u_prev, abs=1e-13)


def test_pell_identity_and_bounds():
    for kappa0 in KAPPA0_GRID:
        chi = math.sin(kappa0 / 3.0) / 2.0
        t, u = chebyshev_table(10_000, kappa0)
        pell = t * t + (1.0 - chi * chi) * u * u
        assert np.abs(pell - 1.0).max() <= 1e-12
        assert np.abs(u).max() <= 2.0 / math.sqrt(3.0) + 1e-12


def test_block_entries_stay_normalized():
    for kappa0 in KAPPA0_GRID:
        for n in (0, 1, 2, 3, 10, 101, 10_000):
            st = chebyshev_step(n, kappa0)
            norm = abs(st.alpha) ** 2 + abs(st.beta) ** 2
            assert abs(norm - 1.0) <= 1e-12


def test_rho12_closed_form_matches_the_simulator():
    for kappa0 in (0.3, 1.2, 2.4, 6.012):
        u = floquet(KickedTopParams(SpinQuantum(3), kappa0))
        state = coherent_from_angles(3, 0.0, 0.0)
        for n in range(1, 25):
            state = evolve(state, u, 1)
            if n % 2 != 0:
                continue
            sim = reduce_symmetric(collective_expectations(state)).rho
            np.testing.assert_allclose(rho12_analytic(n, kappa0).rho, sim, atol=1e-12)


def test_rho12_analytic_rejects_odd_or_small_n():
    with pytest.raises(DomainError):
        rho12_analytic(3, 1.0)
    with pytest.raises(DomainError):
        rho12_analytic(0, 1.0)


def test_analytic_concurrence_values_and_parity():
    ref = (math.sqrt(13.0) - 1.0) / 8.0
    assert analytic_concurrence(2, math.pi / 2) == pytest.approx(ref, abs=1e-12)
    for kappa0 in (0.9, 2.2, 7.7):
        for m in (1, 2, 5):
            assert analytic_concurrence(2 * m - 1, kappa0) == analytic_concurrence(2 * m, kappa0)
    assert analytic_concurrence(4, 0.0) == 0.0
    with pytest.raises(DomainError):
        analytic_concurrence(0, 1.0)


def test_analytic_series_equals_per_n_closed_form():
    for kappa0 in (0.8, 2.9, 6.012):
        series = analytic_concurrence_series(101, kappa0)
        assert len(series) == 101
        for n in (1, 2, 3, 50, 101):
            assert series[n - 1] == pytest.approx(analytic_concurrence(n, kappa0), abs=1e-14)
    with pytest.raises(DomainError):
        analytic_concurrence_series(0, 1.0)


def test_analytic_concurrence_is_six_pi_periodic():
    for n in (2, 8, 14):
        assert analytic_concurrence(n, 1.7) == pytest.approx(
            analytic_concurrence(n, 1.7 + 6.0 * math.pi), abs=1e-12
        )


def test_first_kick_concurrence():
    assert first_kick_concurrence(0.0) == 0.0
    for kappa0 in (0.5, 1.2, 2.4, 4.4, 3 * math.pi):
        assert first_kick_concurrence(kappa0) == pytest.approx(
            analytic_concurrence(1, kappa0), abs=1e-12
        )
    with pytest.raises(DomainError):
        first_kick_concurrence(-0.5)
    with pytest.raises(DomainError):
        first_kick_concurrence(3 * math.pi + 0.1)


def test_rho12_concurrence_routes_agree():
    for kappa0 in (0.3, 1.2, 2.4):
        for n in (2, 4, 10, 16):
            dm = rho12_analytic(n, kappa0)
            assert concurrence_x_form(dm) == pytest.approx(
                wootters(dm).concurrence, abs=1e-10
            )
            assert wootters(dm).concurrence == pytest.approx(
                analytic_concurrence(n, kappa0), abs=1e-10
            )

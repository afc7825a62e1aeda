"""Reduction from collective moments, validated against tensor-space brute force."""

import math

import numpy as np
import pytest

from kickedtop import (
    DomainError,
    NotPhysical,
    NumericalFailure,
    SpinQuantum,
    TwoQubitDensity,
    collective_expectations,
    collective_operators,
    epr_expectations,
    epr_reduce,
    number_state,
    reduce_symmetric,
    spin_coherent,
)
from kickedtop.spin import SymmetricState
from oracles import (
    epr_expectations_bruteforce,
    epr_pair_reduction_bruteforce,
    pair_reduction_bruteforce,
)


def random_symmetric_state(rng, n_qubits):
    amps = rng.standard_normal(n_qubits + 1) + 1j * rng.standard_normal(n_qubits + 1)
    amps /= np.linalg.norm(amps)
    return SymmetricState(amps=amps)


def test_collective_expectations_on_number_states():
    n_qubits = 6
    j = n_qubits / 2
    for n in range(n_qubits + 1):
        exp = collective_expectations(number_state(n_qubits, n))
        m = n - j
        assert abs(exp.sz - m) < 1e-12
        assert abs(exp.sz2 - m * m) < 1e-12
        assert abs(exp.sx2_plus_sy2 - (j * (j + 1) - m * m)) < 1e-12
        # a Jz eigenstate has no ladder coherences
        assert abs(exp.splus) < 1e-12
        assert abs(exp.splus2) < 1e-12
        assert abs(exp.splus_sz_anti) < 1e-12


def test_ladder_sum_moments_match_dense_operator_expectations():
    rng = np.random.default_rng(5)
    for n_qubits in (1, 2, 3, 30, 200):
        ops = collective_operators(SpinQuantum(n_qubits))
        atol = 1e-12 * max(1.0, n_qubits**2)
        for _ in range(4):
            state = random_symmetric_state(rng, n_qubits)
            psi = state.amps

            def dense(op):
                return complex(np.vdot(psi, op @ psi))

            exp = collective_expectations(state)
            assert exp.n_qubits == n_qubits
            assert abs(exp.sz - dense(ops.jz)) < atol
            assert abs(exp.sz2 - dense(ops.jz @ ops.jz)) < atol
            assert abs(exp.sx2_plus_sy2 - dense(ops.jx @ ops.jx + ops.jy @ ops.jy)) < atol
            assert abs(exp.splus - dense(ops.jplus)) < atol
            assert abs(exp.splus2 - dense(ops.jplus @ ops.jplus)) < atol
            anti = ops.jplus @ ops.jz + ops.jz @ ops.jplus
            assert abs(exp.splus_sz_anti - dense(anti)) < atol


def test_reduce_symmetric_matches_tensor_partial_trace():
    rng = np.random.default_rng(42)
    for n_qubits in (2, 3, 4, 5, 6):
        for _ in range(6):
            state = random_symmetric_state(rng, n_qubits)
            got = reduce_symmetric(collective_expectations(state)).rho
            want = pair_reduction_bruteforce(state.amps)
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_reduced_matrix_trace_identity_and_swap_symmetry():
    rng = np.random.default_rng(9)
    for n_qubits in (2, 4, 7, 11):
        dm = reduce_symmetric(collective_expectations(random_symmetric_state(rng, n_qubits)))
        assert abs(dm.v_plus + dm.v_minus + 2.0 * dm.w - 1.0) < 1e-12
        # pair swap symmetry: the two one-flip coherences coincide and y is real
        np.testing.assert_allclose(dm.rho[1, 0], dm.rho[2, 0], atol=1e-12)
        np.testing.assert_allclose(dm.rho[3, 1], dm.rho[3, 2], atol=1e-12)
        assert abs(dm.y.imag) < 1e-12


def test_coherent_state_reduces_to_the_exact_pair_product():
    # every pair of a product state is the same rank-1 matrix, with
    # entries proportional to eta powers: eta^4 : eta^3 : eta^2 : eta : 1
    for n_qubits in (2, 3, 7, 15):
        for eta in (0.4, 1.0, 2.3):
            got = reduce_symmetric(
                collective_expectations(spin_coherent(n_qubits, eta))
            ).rho
            pair = np.array([eta * eta, eta, eta, 1.0]) / (1.0 + eta * eta)
            want = np.outer(pair, pair)
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_reduce_symmetric_rejects_single_qubit():
    exp = collective_expectations(number_state(1, 0))
    with pytest.raises(DomainError):
        reduce_symmetric(exp)


def test_from_matrix_validation():
    with pytest.raises(DomainError):
        TwoQubitDensity.from_matrix(np.eye(3))
    with pytest.raises(NumericalFailure):
        skew = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        skew[0, 1] = 1e-3  # far beyond the hermitizing tolerance
        TwoQubitDensity.from_matrix(skew)
    with pytest.raises(NotPhysical):
        TwoQubitDensity.from_matrix(np.eye(4) * 0.5)  # trace 2
    with pytest.raises(NotPhysical):
        TwoQubitDensity.from_matrix(np.diag([0.7, 0.5, -0.1, -0.1]))


def test_from_matrix_named_accessors():
    rho = np.array(
        [
            [0.40, 0.02 - 0.01j, 0.02 - 0.01j, 0.05 - 0.02j],
            [0.02 + 0.01j, 0.15, 0.10, 0.01 - 0.03j],
            [0.02 + 0.01j, 0.10, 0.15, 0.01 - 0.03j],
            [0.05 + 0.02j, 0.01 + 0.03j, 0.01 + 0.03j, 0.30],
        ]
    )
    dm = TwoQubitDensity.from_matrix(rho)
    assert dm.v_plus == pytest.approx(0.40)
    assert dm.v_minus == pytest.approx(0.30)
    assert dm.w == pytest.approx(0.15)
    assert dm.y == pytest.approx(0.10)
    assert dm.u == pytest.approx(0.05 + 0.02j)
    assert dm.x_plus == pytest.approx(0.02 + 0.01j)
    assert dm.x_minus == pytest.approx(0.01 + 0.03j)


def test_epr_expectations_closed_sums():
    for n in range(1, 51):
        jzz, jpp = epr_expectations(n)
        assert abs(jzz - n * (n + 2) / 12.0) < 1e-10 * max(1.0, n * n)
        assert abs(jpp - n * (n + 2) / 6.0) < 1e-10 * max(1.0, n * n)


def test_epr_expectations_match_bruteforce_tensor_oracle():
    for n in range(1, 7):
        got = epr_expectations(n)
        want = epr_expectations_bruteforce(n)
        assert abs(got[0] - want[0]) < 1e-12 * max(1.0, n * n)
        assert abs(got[1] - want[1]) < 1e-12 * max(1.0, n * n)


def test_epr_reduce_matches_bruteforce_partial_trace():
    for n in range(1, 6):
        got = epr_reduce(n).rho
        want = epr_pair_reduction_bruteforce(n)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_epr_reduce_structure():
    dm = epr_reduce(4)
    assert abs(dm.x_plus) < 1e-15 and abs(dm.x_minus) < 1e-15
    assert abs(dm.y) < 1e-15
    assert abs(dm.v_plus - dm.v_minus) < 1e-15
    assert abs(dm.v_plus + dm.v_minus + 2 * dm.w - 1.0) < 1e-12
    with pytest.raises(DomainError):
        epr_reduce(0)

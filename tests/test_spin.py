"""Collective operators and reference states on the symmetric subspace."""

import math

import numpy as np
import pytest

from kickedtop import (
    IndexOutOfRange,
    SpinQuantum,
    coherent_from_angles,
    collective_expectations,
    collective_operators,
    epr_state,
    number_state,
    spin_coherent,
)
from oracles import embed_symmetric


def jvec(state):
    ops = collective_operators(SpinQuantum(state.n_qubits))
    psi = state.amps
    return np.array([np.vdot(psi, op @ psi).real for op in (ops.jx, ops.jy, ops.jz)])


def test_spin_quantum_properties_and_validation():
    q = SpinQuantum(3)
    assert q.j == 1.5
    assert q.n_qubits == 3
    assert q.dim == 4
    with pytest.raises(IndexOutOfRange):
        SpinQuantum(0)


def test_single_qubit_operators_are_pauli_halves():
    # basis ascending in m: index 0 = |1> (m=-1/2), index 1 = |0> (m=+1/2)
    ops = collective_operators(SpinQuantum(1))
    np.testing.assert_allclose(ops.jz, np.diag([-0.5, 0.5]), atol=1e-15)
    np.testing.assert_allclose(ops.jx, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)
    np.testing.assert_allclose(ops.jy, [[0.0, 0.5j], [-0.5j, 0.0]], atol=1e-15)
    np.testing.assert_allclose(ops.jplus, [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)


def test_su2_algebra_and_casimir():
    for two_j in (1, 2, 3, 7, 12):
        q = SpinQuantum(two_j)
        ops = collective_operators(q)
        j = q.j
        np.testing.assert_allclose(
            ops.jx @ ops.jy - ops.jy @ ops.jx, 1j * ops.jz, atol=1e-12
        )
        np.testing.assert_allclose(
            ops.jy @ ops.jz - ops.jz @ ops.jy, 1j * ops.jx, atol=1e-12
        )
        casimir = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
        np.testing.assert_allclose(casimir, j * (j + 1) * np.eye(q.dim), atol=1e-12)
        np.testing.assert_allclose(ops.jminus, ops.jplus.conj().T, atol=1e-15)


def test_ladder_action_on_number_states():
    n_qubits = 5
    ops = collective_operators(SpinQuantum(n_qubits))
    j = n_qubits / 2
    for n in range(n_qubits):
        m = n - j
        got = ops.jplus @ number_state(n_qubits, n).amps
        want = math.sqrt(j * (j + 1) - m * (m + 1)) * number_state(n_qubits, n + 1).amps
        np.testing.assert_allclose(got, want, atol=1e-15)


def test_number_state_basics():
    s = number_state(3, 2)
    np.testing.assert_array_equal(s.amps, [0, 0, 1, 0])
    assert s.n_qubits == 3
    assert s.norm() == 1.0
    with pytest.raises(IndexOutOfRange):
        number_state(3, 4)
    with pytest.raises(IndexOutOfRange):
        number_state(3, -1)


def test_spin_coherent_exact_binomial_amplitudes():
    s = spin_coherent(2, 1.0)
    np.testing.assert_allclose(s.amps, [0.5, math.sqrt(2) / 2, 0.5], atol=1e-15)
    # eta = 0 is the bottom pole, all qubits in |1>
    np.testing.assert_array_equal(spin_coherent(4, 0.0).amps, [1, 0, 0, 0, 0])
    with pytest.raises(IndexOutOfRange):
        spin_coherent(0, 1.0)


def test_spin_coherent_is_a_product_state_in_the_full_tensor_space():
    for n_qubits, eta in [(2, 0.3), (4, 1.7), (5, 0.9 - 0.4j), (3, 2.0j)]:
        single = np.array([eta, 1.0], dtype=complex)
        single /= np.linalg.norm(single)
        full = np.array([1.0], dtype=complex)
        for _ in range(n_qubits):
            full = np.kron(full, single)
        got = embed_symmetric(spin_coherent(n_qubits, eta).amps)
        # compare up to the global phase the constructor fixes
        overlap = np.vdot(got, full)
        assert abs(abs(overlap) - 1.0) < 1e-12
        np.testing.assert_allclose(got * overlap / abs(overlap), full, atol=1e-12)


def test_coherent_from_angles_points_the_spin_vector():
    for n_qubits, theta, phi in [(4, 0.9, 0.4), (3, 2.0, -1.1), (6, 1.2, 2.0)]:
        v = jvec(coherent_from_angles(n_qubits, theta, phi))
        want = (n_qubits / 2) * np.array(
            [
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            ]
        )
        np.testing.assert_allclose(v, want, atol=1e-12)


def test_coherent_from_angles_poles():
    top = coherent_from_angles(4, 0.0, 0.3)
    np.testing.assert_array_equal(top.amps, [0, 0, 0, 0, 1])
    # theta within the snap window of pi collapses to the exact bottom state
    bottom = coherent_from_angles(4, math.pi - 1e-13, 0.7)
    np.testing.assert_array_equal(bottom.amps, [1, 0, 0, 0, 0])


def test_coherent_matches_stereographic_parameterization():
    # eta = cot(theta/2) at phi = 0: the two constructors build the
    # same state and the same fixed global phase
    for n_qubits, eta in [(3, 0.7), (5, 2.5), (8, 0.05)]:
        a = spin_coherent(n_qubits, eta).amps
        b = coherent_from_angles(n_qubits, 2.0 * math.atan(1.0 / eta), 0.0).amps
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_coherent_from_angles_at_large_n():
    # (200, 0.05): the lowest amplitude sin(0.025)^200 is subnormal.
    # (1100, 0.7): binom(1100, 550) is beyond the float range.
    for n_qubits, theta, phi in [(200, 0.05, 0.3), (1100, 0.7, 0.3)]:
        state = coherent_from_angles(n_qubits, theta, phi)
        assert np.all(np.isfinite(state.amps))
        assert abs(state.norm() - 1.0) < 1e-14
        lead = state.amps[np.flatnonzero(state.amps)[0]]
        assert lead.imag == 0.0 and lead.real > 0
        exp = collective_expectations(state)
        j = n_qubits / 2
        assert abs(exp.sz - j * math.cos(theta)) < 1e-12 * j
        want = j * math.sin(theta) * complex(math.cos(phi), math.sin(phi))
        assert abs(exp.splus - want) < 1e-12 * j


def test_global_phase_convention():
    s = coherent_from_angles(5, 1.1, 0.9)
    lead = s.amps[np.flatnonzero(np.abs(s.amps) > 0)[0]]
    assert abs(lead.imag) < 1e-15 and lead.real > 0


def test_epr_state_diagonal_amplitudes():
    amps = epr_state(3)
    assert amps.shape == (4, 4)
    np.testing.assert_allclose(amps, np.eye(4) / 2.0, atol=1e-15)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-15
    with pytest.raises(IndexOutOfRange):
        epr_state(0)

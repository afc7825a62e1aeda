"""Reduction from collective moments, validated against tensor-space brute force."""

import math
import warnings

import numpy as np
import pytest

from kickedtop import (
    CollectiveExpectations,
    DomainError,
    KickedTopParams,
    NumericalError,
    SpinQuantum,
    TwoQubitDensity,
    coherent_from_angles,
    collective_expectations,
    epr_expectations,
    epr_reduce,
    floquet,
    number_state,
    reduce_symmetric,
    spin_coherent,
    wootters,
)
from dense_spin import collective_operators
from oracles import (
    epr_expectations_bruteforce,
    epr_pair_reduction_bruteforce,
    pair_reduction_bruteforce,
)


def random_symmetric_state(rng, n_qubits):
    amps = rng.standard_normal(n_qubits + 1) + 1j * rng.standard_normal(n_qubits + 1)
    amps /= np.linalg.norm(amps)
    return amps


def test_collective_expectations_on_number_states():
    n_qubits = 6
    j = n_qubits / 2
    for n in range(n_qubits + 1):
        exp = collective_expectations(number_state(n_qubits, n))
        m = n - j
        assert abs(exp.sz - m) < 1e-12
        assert abs(exp.sz2 - m * m) < 1e-12
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
            psi = random_symmetric_state(rng, n_qubits)

            def dense(op):
                return complex(np.vdot(psi, op @ psi))

            exp = collective_expectations(psi)
            assert exp.n_qubits == n_qubits
            assert abs(exp.sz - dense(ops.jz)) < atol
            assert abs(exp.sz2 - dense(ops.jz @ ops.jz)) < atol
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
            want = pair_reduction_bruteforce(state)
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_reduced_matrix_trace_identity_and_swap_symmetry():
    rng = np.random.default_rng(9)
    for n_qubits in (2, 4, 7, 11):
        r = reduce_symmetric(collective_expectations(random_symmetric_state(rng, n_qubits))).rho
        # v+ + v- + 2w
        assert abs(r[0, 0].real + r[3, 3].real + 2.0 * r[1, 1].real - 1.0) < 1e-12
        # pair swap symmetry: the two one-flip coherences coincide and w is real
        np.testing.assert_allclose(r[1, 0], r[2, 0], atol=1e-12)
        np.testing.assert_allclose(r[3, 1], r[3, 2], atol=1e-12)
        assert abs(r[2, 1].imag) < 1e-12


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


def test_unnormalised_states_are_domain_errors():
    # the zero vector would give a plausible-looking matrix, and a doubled
    # state a negative eigenvalue reported as a numerical failure
    with pytest.raises(DomainError, match=r"^squared amplitudes sum to 0\.0, not 1$"):
        reduce_symmetric(collective_expectations(np.zeros(4)))
    with pytest.raises(DomainError, match=r"^squared amplitudes sum to 4\.0, not 1$"):
        reduce_symmetric(collective_expectations(2 * number_state(3, 1)))
    stack = np.array([number_state(3, 1), number_state(3, 2) * 1.001])
    with pytest.raises(DomainError, match=r"^row 1: squared amplitudes sum to 1\.002"):
        collective_expectations(stack)
    # a drift of 1e-7, far above the roundoff of 1e7 kicks, still passes
    collective_expectations(number_state(3, 1) * math.sqrt(1.0 + 1e-7))


def test_inputs_of_the_wrong_shape_are_domain_errors():
    with pytest.raises(DomainError, match=r"^expected amplitudes or a stack of them, got shape \(2, 2, 4\)$"):
        collective_expectations(np.zeros((2, 2, 4)))
    with pytest.raises(DomainError, match=r"^need at least one n_qubits, got \[\]$"):
        epr_reduce([])


def test_the_pair_trace_is_one_for_any_moments():
    # v+ + v- + 2w = (4N^2 - 4N) / (4N(N-1)) whatever the moments, so the
    # norm check of collective_expectations is the only guard against an
    # unnormalised state.  Moments built by hand skip that check.
    n = 10
    # the zero vector, and 1.4 times the squared amplitudes of (|4> + |6>)/sqrt(2)
    zero = CollectiveExpectations(n, 0.0, 0.0, 0j, 0j, 0j)
    heavy = CollectiveExpectations(n, 0.0, 1.4, 0j, 1.4 * 15 + 0j, 0j)
    for moments in (zero, heavy):
        rho = reduce_symmetric(moments).rho
        assert abs(np.trace(rho) - 1.0) <= 1e-15
    # <Sz^2> = 40 exceeds N^2/4 = 25, so w < 0: the matrix keeps trace 1 and
    # fails only the positivity check, which runs after the trace check
    beyond = CollectiveExpectations(n, 0.0, 40.0, 0j, 0j, 0j)
    with pytest.raises(
        NumericalError, match=r"^not positive semidefinite: residual 3\.333e-01 above 1\.0e-07$"
    ):
        reduce_symmetric(beyond)


def test_from_matrix_validation():
    with pytest.raises(DomainError):
        TwoQubitDensity.from_matrix(np.eye(3))
    with pytest.raises(NumericalError, match=r"^hermitizing moved an entry by"):
        skew = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        skew[0, 1] = 1e-3  # far beyond the hermitizing tolerance
        TwoQubitDensity.from_matrix(skew)
    with pytest.raises(NumericalError, match=r"^trace = 2\.0, expected 1$"):
        TwoQubitDensity.from_matrix(np.eye(4) * 0.5)  # trace 2
    with pytest.raises(
        NumericalError, match=r"^not positive semidefinite: residual 1\.414e-01 above 1\.0e-07$"
    ):
        TwoQubitDensity.from_matrix(np.diag([0.7, 0.5, -0.1, -0.1]))


def random_pair_stack(rng, t):
    a = rng.standard_normal((t, 4, 4)) + 1j * rng.standard_normal((t, 4, 4))
    rho = a @ a.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def test_from_matrix_factors_an_exactly_hermitian_stack():
    # from_matrix's HERMITIZE_TOL check is the pair path's only Hermiticity
    # check, and the factor reads one column per pivot: so the Hermitized
    # stack must equal its own conjugate transpose exactly, with a real
    # diagonal, and one factor covers the whole stack.
    rng = np.random.default_rng(23)
    cases = []
    for t in (1, 7, 64):
        rho = random_pair_stack(rng, t)
        b = 1e-11 * (rng.standard_normal((t, 4, 4)) + 1j * rng.standard_normal((t, 4, 4)))
        cases.append((TwoQubitDensity.from_matrix, rho + b - b.conj().swapaxes(-1, -2)))
    for n_qubits in (3, 30, 200):
        amps = rng.standard_normal((9, n_qubits + 1)) + 1j * rng.standard_normal((9, n_qubits + 1))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        cases.append((reduce_symmetric, collective_expectations(amps)))
    for make, arg in cases:
        dm = make(arg)
        rho = dm.rho
        assert dm.factor.shape[:-1] == rho.shape[:-1]
        assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))
        assert (rho.diagonal(axis1=-2, axis2=-1).imag == 0.0).all()


def kicked_stack(two_j, n_kicks, theta0=0.7):
    """Amplitude rows after each of n_kicks kicks from a tilted coherent start.

    The rows are not renormalised: kick roundoff drifts sum |a_n|^2 by
    about 6e-16 per kick, and the moments, taken of the normalised state,
    must still give a pair matrix of the rank its state's pair has.
    """
    u = floquet(KickedTopParams(SpinQuantum(two_j), 2.5))
    amps = [coherent_from_angles(two_j, theta0, 0.3)]
    for _ in range(n_kicks):
        amps.append(u @ amps[-1])
    return np.array(amps[1:])


@pytest.mark.parametrize(
    "make, rank",
    [
        (lambda: TwoQubitDensity.from_matrix(random_pair_stack(np.random.default_rng(8), 64)), 4),
        (lambda: reduce_symmetric(collective_expectations(
            np.array([spin_coherent(17, eta) for eta in (0.3, 1.0, 2.0 - 0.5j)]))), 1),
        # the pair of three qubits shares its state with the third qubit alone
        (lambda: reduce_symmetric(collective_expectations(kicked_stack(3, 200))), 2),
        # the singlet is in the kernel of every symmetric pair matrix
        (lambda: reduce_symmetric(collective_expectations(kicked_stack(200, 8))), 3),
    ],
    ids=["random-full-rank", "coherent-rank-1", "kicked-2j3-rank-2", "kicked-2j200-rank-3"],
)
def test_the_factor_reproduces_the_matrix_at_its_rank(make, rank):
    dm = make()
    x = dm.factor
    assert x.shape == dm.rho.shape[:-1] + (rank,)
    resid = np.linalg.norm(dm.rho - x @ x.conj().swapaxes(-1, -2), axis=(-2, -1))
    assert (resid <= 1e-14).all(), resid.max()
    # once a row drops a pivot, every later column of that row is exactly zero
    kept = (x != 0).any(axis=-2)
    assert (kept[:, 0]).all()
    assert (kept[:, :-1] | ~kept[:, 1:]).all()
    lambdas = wootters(dm).lambdas
    assert lambdas.shape == (len(x), 4)
    assert (np.diff(lambdas, axis=-1) <= 0).all()
    # the squared lambdas are the eigenvalues of rho rho~, so they sum to its trace
    signs = np.array([-1.0, 1.0, 1.0, -1.0])
    flipped = dm.rho.conj()[:, ::-1, ::-1] * np.outer(signs, signs)
    np.testing.assert_allclose(
        (lambdas**2).sum(axis=-1), np.trace(dm.rho @ flipped, axis1=-2, axis2=-1).real, atol=1e-13
    )


@pytest.mark.parametrize("two_j", [2, 3, 4, 10, 30, 200, 1001])
def test_the_two_inner_rows_of_a_symmetric_pair_matrix_are_one_row(two_j):
    # every pair of a symmetric state lives on the triplet, so
    # <01|rho|10> = <01|rho|01> and the |01> and |10> rows are one row
    rng = np.random.default_rng(3)
    randoms = np.array([random_symmetric_state(rng, two_j) for _ in range(100)])
    for amps in (randoms, kicked_stack(two_j, 20)):
        rho = reduce_symmetric(collective_expectations(amps)).rho
        assert np.array_equal(rho[..., 1, :], rho[..., 2, :])
        assert np.array_equal(rho[..., 1, 2], rho[..., 1, 1])


def test_the_residual_rejects_every_matrix_below_the_eigenvalue_floor():
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    for lowest in (-1.01e-7, -1e-3):
        d = np.array([0.5, 0.3, 0.2 - lowest, lowest])
        rho = (q * d) @ q.conj().T
        with pytest.raises(NumericalError, match=r"^not positive semidefinite: residual .* above 1\.0e-07$"):
            TwoQubitDensity.from_matrix(rho)
        stack = random_pair_stack(rng, 9)
        stack[4] = rho
        with pytest.raises(NumericalError, match=r"^row 4: not positive semidefinite: residual "):
            TwoQubitDensity.from_matrix(stack)
    # far from semidefinite the steps overflow, quietly, and the residual is inf
    huge = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    huge[0, 1] = huge[1, 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^not positive semidefinite: residual inf above"):
            TwoQubitDensity.from_matrix(huge)


def test_a_product_state_with_roundoff_noise_is_accepted_and_separable():
    rng = np.random.default_rng(6)
    a, b = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
    psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    noise = 1e-17 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    dm = TwoQubitDensity.from_matrix(np.outer(psi, psi.conj()) + noise + noise.conj().T)
    assert dm.factor.shape == (4, 1)
    result = wootters(dm)
    assert (result.concurrence, result.c_lambda) == (0.0, 0.0)


def test_from_matrix_keeps_a_hermitian_matrix_bit_for_bit():
    rho = np.array(
        [
            [0.40, 0.02 - 0.01j, 0.02 - 0.01j, 0.05 - 0.02j],
            [0.02 + 0.01j, 0.15, 0.10, 0.01 - 0.03j],
            [0.02 + 0.01j, 0.10, 0.15, 0.01 - 0.03j],
            [0.05 + 0.02j, 0.01 + 0.03j, 0.01 + 0.03j, 0.30],
        ]
    )
    # exactly Hermitian, so hermitizing gives (a + a)/2 == a on every entry
    assert np.array_equal(TwoQubitDensity.from_matrix(rho).rho, rho)


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


def test_epr_reduce_beyond_the_int64_square():
    # N^2 passes the int64 range from N = 3.04e9 on
    counts = np.array([3_100_000_000, 2**32])
    rho = epr_reduce(counts).rho
    np.testing.assert_allclose(rho[:, 1, 1].real, 0.25 - (counts + 2) / (12.0 * counts), rtol=1e-15)
    np.testing.assert_allclose(rho[:, 0, 3].real, (counts + 2) / (6.0 * counts), rtol=1e-15)


def test_epr_reduce_structure():
    r = epr_reduce(4).rho
    # x+, x-, rho_21, v+ - v- and v+ + v- + 2w
    assert abs(r[1, 0]) < 1e-15 and abs(r[3, 1]) < 1e-15
    assert abs(r[2, 1]) < 1e-15
    assert abs(r[0, 0].real - r[3, 3].real) < 1e-15
    assert abs(r[0, 0].real + r[3, 3].real + 2 * r[1, 1].real - 1.0) < 1e-12
    with pytest.raises(DomainError):
        epr_reduce(0)

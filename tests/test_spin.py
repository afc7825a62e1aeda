"""Collective operators and reference states on the symmetric subspace."""

import math

import numpy as np
import pytest

from kickedtop import (
    CollectiveExpectations,
    DomainError,
    KickedTopParams,
    SpinQuantum,
    analytic_concurrence,
    analytic_concurrence_series,
    chebyshev_step,
    chebyshev_table,
    classical_map,
    coherent_from_angles,
    collective_expectations,
    concurrence_series,
    concurrence_sweep,
    dicke_concurrence_closed,
    epr_expectations,
    epr_reduce,
    evolve,
    floquet,
    lyapunov,
    lyapunov_running,
    number_state,
    reduce_symmetric,
    spin_coherent,
    time_average,
)
from kickedtop.cli import build_parser
from dense_spin import collective_operators, jvec
from oracles import embed_symmetric

LYAPUNOV_START = (math.sin(2.25), 0.0, math.cos(2.25))


def kicked_series(n_max):
    return concurrence_series(KickedTopParams(SpinQuantum(2), 1.0), 0.3, 0.0, n_max)


def test_spin_quantum_properties_and_validation():
    q = SpinQuantum(3)
    assert q.j == 1.5
    assert q.n_qubits == 3
    assert q.dim == 4
    with pytest.raises(DomainError, match=r"^two_j must be >= 1, got 0$"):
        SpinQuantum(0)


def moments_of_the_bottom_state(n):
    """The moments of |n=0>, m = -N/2, built by hand for a count n."""
    return CollectiveExpectations(n, -0.5 * n, n * n / 4, 0j, 0j, 0j)


def run_command(*argv):
    """Parse argv and run its subcommand, so that a DomainError propagates."""
    args = build_parser().parse_args(argv)
    args.func(args)


# One callable per count rule, keyed by test id; each passes its argument
# as the count under test.
COUNT_MAKERS = {
    "SpinQuantum": lambda n: SpinQuantum(n).dim,
    "number_state-N": lambda n: number_state(n, 1),
    "number_state-n": lambda n: number_state(4, n),
    "spin_coherent": lambda n: spin_coherent(n, 0.8),
    "coherent_from_angles": lambda n: coherent_from_angles(n, 0.7, 0.3),
    "epr_expectations": lambda n: epr_expectations(n),
    "epr_reduce": lambda n: epr_reduce(n).rho,
    "epr_reduce-list": lambda n: epr_reduce([2, n]).rho,
    "concurrence_sweep-n_max":
        lambda n: concurrence_sweep(SpinQuantum(2), [1.0], 0.3, 0.0, n)[0].concurrence,
    "concurrence_sweep-n_qubits":
        lambda n: concurrence_sweep(SpinQuantum(n), [1.0], 0.3, 0.0, 3)[0].concurrence,
    "concurrence_series-n_max": lambda n: kicked_series(n).concurrence,
    "time_average-burn_in": lambda n: time_average(kicked_series(5), n),
    "evolve-n":
        lambda n: evolve(number_state(2, 0), floquet(KickedTopParams(SpinQuantum(2), 1.0)), n),
    "lyapunov_running-steps": lambda n: lyapunov_running(1.0, math.pi / 2, LYAPUNOV_START, 1000 * n),
    "lyapunov_running-transient":
        lambda n: lyapunov_running(1.0, math.pi / 2, LYAPUNOV_START, 1000, transient=n),
    "lyapunov-steps": lambda n: lyapunov(1.0, math.pi / 2, LYAPUNOV_START, 1000 * n).lam,
    "lyapunov-seed": lambda n: lyapunov(1.0, math.pi / 2, LYAPUNOV_START, 1000, seed=n).lam,
    "chebyshev_table-n_max": lambda n: chebyshev_table(n, 1.0),
    "chebyshev_step-n": lambda n: chebyshev_step(n, 1.0).alpha,
    "analytic_concurrence_series-n_max": lambda n: analytic_concurrence_series(n, 1.0),
    "analytic_concurrence-n": lambda n: analytic_concurrence(n, 1.0),
    "dicke_concurrence_closed": lambda n: dicke_concurrence_closed(n, 0.5),
    "reduce_symmetric": lambda n: reduce_symmetric(moments_of_the_bottom_state(n)).rho,
}

# One callable per finite-real rule, keyed by test id; each passes its
# argument as the real number under test.
REAL_MAKERS = {
    "KickedTopParams-kappa0": lambda x: KickedTopParams(SpinQuantum(2), x),
    "KickedTopParams-p": lambda x: KickedTopParams(SpinQuantum(2), 1.0, x),
    "classical-kappa0": lambda x: classical_map((0.0, 0.0, 1.0), x, math.pi / 2),
    "classical-p": lambda x: classical_map((0.0, 0.0, 1.0), 1.0, x),
    "chebyshev_table-kappa0": lambda x: chebyshev_table(3, x),
    "coherent_from_angles-theta": lambda x: coherent_from_angles(3, x, 0.3),
    "coherent_from_angles-phi": lambda x: coherent_from_angles(3, 0.7, x),
    "dicke_concurrence_closed-M": lambda x: dicke_concurrence_closed(4, x),
    "cli-j": lambda x: run_command("qkt-series", "--j", str(x), "--kappa0", "1", "--n-max", "2"),
    "cli-M_min": lambda x: run_command("dicke", "--N", "4", "--M-min", str(x)),
    "cli-M_max": lambda x: run_command("dicke", "--N", "4", "--M-max", str(x)),
}


@pytest.mark.parametrize("maker", list(COUNT_MAKERS))
def test_counts_must_be_integers(maker):
    make = COUNT_MAKERS[maker]
    with pytest.raises(DomainError, match=r"^[\w ]+ must be an integer, got "):
        make(2.5)
    for count in (np.int64(3), np.int32(3)):
        np.testing.assert_array_equal(make(count), make(3))


# the two step counts are scaled by 1000, which turns a bool into an int
@pytest.mark.parametrize("maker", [m for m in COUNT_MAKERS if not m.endswith("-steps")])
@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
def test_a_bool_is_not_a_count(maker, flag):
    with pytest.raises(DomainError, match=r"^[\w ]+ must be an integer, got True$"):
        COUNT_MAKERS[maker](flag)


@pytest.mark.parametrize(
    "maker, count, message",
    [
        ("SpinQuantum", 0, "two_j must be >= 1, got 0"),
        ("number_state-N", 0, "n_qubits must be >= 1, got 0"),
        ("spin_coherent", 0, "n_qubits must be >= 1, got 0"),
        ("coherent_from_angles", 0, "n_qubits must be >= 1, got 0"),
        ("epr_expectations", 0, "n_qubits must be >= 1, got 0"),
        ("epr_reduce", 0, "n_qubits must be >= 1, got 0"),
        ("epr_reduce-list", 0, "n_qubits must be >= 1, got 0"),
        ("concurrence_sweep-n_max", 0, "n_max must be >= 1, got 0"),
        ("concurrence_sweep-n_qubits", 1, "n_qubits must be >= 2, got 1"),
        ("time_average-burn_in", -1, "burn_in must be >= 0, got -1"),
        ("evolve-n", -1, "kick count must be >= 0, got -1"),
        ("lyapunov_running-steps", 0, "steps must be >= 1000, got 0"),
        ("chebyshev_table-n_max", -1, "n_max must be >= 0, got -1"),
        ("chebyshev_step-n", -1, "kick count must be >= 0, got -1"),
        ("analytic_concurrence_series-n_max", 0, "n_max must be >= 1, got 0"),
        ("analytic_concurrence-n", 0, "kick count must be >= 1, got 0"),
        ("dicke_concurrence_closed", 1, "n_qubits must be >= 2, got 1"),
        ("reduce_symmetric", 1, "n_qubits must be >= 2, got 1"),
    ],
)
def test_counts_below_their_minimum(maker, count, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        COUNT_MAKERS[maker](count)


REAL_RULES = [
    ("KickedTopParams-kappa0", "kappa0 must be finite and >= 0, got {}"),
    ("KickedTopParams-p", "p must be finite, got {}"),
    ("classical-kappa0", "kappa0 must be finite and >= 0, got {}"),
    ("classical-p", "p must be finite, got {}"),
    ("chebyshev_table-kappa0", "kappa0 must be finite and >= 0, got {}"),
    ("coherent_from_angles-theta", "theta must be finite, got {}"),
    ("coherent_from_angles-phi", "phi must be finite, got {}"),
    ("dicke_concurrence_closed-M", "M must be finite, got {}"),
    ("cli-j", "j must be finite, got {}"),
    ("cli-M_min", "M bounds must be finite, got {}"),
    ("cli-M_max", "M bounds must be finite, got {}"),
]


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("maker, message", REAL_RULES)
def test_reals_must_be_finite(maker, message, value):
    with pytest.raises(DomainError, match=f"^{message.format(value)}$"):
        REAL_MAKERS[maker](value)


# the command line reads text, so no bool reaches its rules
@pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "numpy-bool"])
@pytest.mark.parametrize("maker, message", [rule for rule in REAL_RULES if not rule[0].startswith("cli-")])
def test_a_bool_is_not_a_real(maker, message, value):
    with pytest.raises(DomainError, match=f"^{message.format(value)}$"):
        REAL_MAKERS[maker](value)


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
        got = ops.jplus @ number_state(n_qubits, n)
        want = math.sqrt(j * (j + 1) - m * (m + 1)) * number_state(n_qubits, n + 1)
        np.testing.assert_allclose(got, want, atol=1e-15)


def test_number_state_basics():
    s = number_state(3, 2)
    assert isinstance(s, np.ndarray) and s.shape == (4,) and s.dtype == complex
    np.testing.assert_array_equal(s, [0, 0, 1, 0])
    assert np.linalg.norm(s) == 1.0
    with pytest.raises(DomainError, match=r"^n = 4 outside 0\.\.3$"):
        number_state(3, 4)
    with pytest.raises(DomainError, match=r"^n = -1 outside 0\.\.3$"):
        number_state(3, -1)


def test_spin_coherent_exact_binomial_amplitudes():
    s = spin_coherent(2, 1.0)
    assert isinstance(s, np.ndarray) and s.shape == (3,) and s.dtype == complex
    np.testing.assert_allclose(s, [0.5, math.sqrt(2) / 2, 0.5], atol=1e-15)
    # eta = 0 is the bottom pole, all qubits in |1>
    np.testing.assert_array_equal(spin_coherent(4, 0.0), [1, 0, 0, 0, 0])
    with pytest.raises(DomainError, match=r"^n_qubits must be >= 1, got 0$"):
        spin_coherent(0, 1.0)


def test_spin_coherent_is_a_product_state_in_the_full_tensor_space():
    for n_qubits, eta in [(2, 0.3), (4, 1.7), (5, 0.9 - 0.4j), (3, 2.0j)]:
        single = np.array([eta, 1.0], dtype=complex)
        single /= np.linalg.norm(single)
        full = np.array([1.0], dtype=complex)
        for _ in range(n_qubits):
            full = np.kron(full, single)
        got = embed_symmetric(spin_coherent(n_qubits, eta))
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
    assert isinstance(top, np.ndarray) and top.shape == (5,) and top.dtype == complex
    np.testing.assert_array_equal(top, [0, 0, 0, 0, 1])
    # theta within the snap window of pi collapses to the exact bottom state
    bottom = coherent_from_angles(4, math.pi - 1e-13, 0.7)
    np.testing.assert_array_equal(bottom, [1, 0, 0, 0, 0])


def test_coherent_matches_stereographic_parameterization():
    # eta = cot(theta/2) at phi = 0: the two constructors build the
    # same state and the same fixed global phase
    for n_qubits, eta in [(3, 0.7), (5, 2.5), (8, 0.05)]:
        a = spin_coherent(n_qubits, eta)
        b = coherent_from_angles(n_qubits, 2.0 * math.atan(1.0 / eta), 0.0)
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_coherent_from_angles_at_large_n():
    # (200, 0.05): the lowest amplitude sin(0.025)^200 is subnormal.
    # (1100, 0.7): binom(1100, 550) is beyond the float range.
    for n_qubits, theta, phi in [(200, 0.05, 0.3), (1100, 0.7, 0.3)]:
        state = coherent_from_angles(n_qubits, theta, phi)
        assert np.all(np.isfinite(state))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-14
        lead = state[np.flatnonzero(state)[0]]
        assert lead.imag == 0.0 and lead.real > 0
        exp = collective_expectations(state)
        j = n_qubits / 2
        assert abs(exp.sz - j * math.cos(theta)) < 1e-12 * j
        want = j * math.sin(theta) * complex(math.cos(phi), math.sin(phi))
        assert abs(exp.splus - want) < 1e-12 * j


def test_global_phase_convention():
    s = coherent_from_angles(5, 1.1, 0.9)
    lead = s[np.flatnonzero(np.abs(s) > 0)[0]]
    assert abs(lead.imag) < 1e-15 and lead.real > 0

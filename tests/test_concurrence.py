"""Wootters concurrence and its structured shortcuts."""

import math

import numpy as np
import pytest

from kickedtop import (
    spin_coherent,
    DomainError,
    KickedTopParams,
    NumericalError,
    SpinQuantum,
    TwoQubitDensity,
    coherent_from_angles,
    collective_expectations,
    concurrence_dicke_form,
    concurrence_x_form,
    dicke_concurrence_closed,
    epr_reduce,
    floquet,
    number_state,
    reduce_symmetric,
    wootters,
)
from oracles import concurrence_power_iteration, power_iteration_eigvals, random_density

BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5

PSI_MINUS = np.zeros(4, dtype=complex)
PSI_MINUS[1] = 1 / math.sqrt(2)
PSI_MINUS[2] = -1 / math.sqrt(2)


def werner(f):
    return f * np.outer(PSI_MINUS, PSI_MINUS.conj()) + (1 - f) * np.eye(4) / 4


def random_pure_rho(rng):
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj()), psi


def test_bell_state_is_maximally_entangled():
    res = wootters(BELL)
    assert res.concurrence == pytest.approx(1.0, abs=1e-12)
    assert res.c_lambda == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(res.lambdas, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_product_state_gives_exact_zero():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    res = wootters(rho)
    assert res.concurrence == 0.0
    assert res.c_lambda == 0.0
    assert np.all(res.lambdas == 0.0)


def test_werner_line():
    # c_lambda = (3f-1)/2 along the whole line, including the
    # separable stretch where the clipped concurrence is 0
    for f in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.6, 0.9, 1.0):
        res = wootters(werner(f))
        want = (3.0 * f - 1.0) / 2.0
        assert res.c_lambda == pytest.approx(want, abs=1e-12)
        assert res.concurrence == pytest.approx(max(0.0, want), abs=1e-12)


def test_pure_state_determinant_formula():
    rng = np.random.default_rng(23)
    for _ in range(100):
        rho, psi = random_pure_rho(rng)
        want = 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2])
        assert wootters(rho).concurrence == pytest.approx(want, abs=1e-12)


def test_local_unitary_invariance():
    rng = np.random.default_rng(31)
    for _ in range(50):
        rho = random_density(rng)
        base = wootters(rho).concurrence
        for _ in range(2):
            q1, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            q2, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            u = np.kron(q1, q2)
            rotated = u @ rho @ u.conj().T
            assert wootters(rotated).concurrence == pytest.approx(base, abs=1e-10)


def test_wootters_against_power_iteration_oracle():
    rng = np.random.default_rng(77)
    for _ in range(200):
        rho = random_density(rng)
        assert wootters(rho).concurrence == pytest.approx(
            concurrence_power_iteration(rho), abs=1e-8
        )


def test_wootters_resolves_small_lambda_under_cancellation():
    # X state whose corner coherence nearly saturates sqrt(ad): one lambda
    # is delta, far below the O(1) entries, and the local rotation makes
    # rho rho~ dense so the cancellation is not visible in the pattern
    a, b, c, d = 0.3, 0.2, 0.2, 0.3
    y = 0.1995 * np.exp(-0.3j)
    rng = np.random.default_rng(5)
    for delta in (1e-6, 1e-9, 1e-12, 1e-14):
        z = (math.sqrt(a * d) - delta) * np.exp(0.7j)
        rho = np.diag([a, b, c, d]).astype(complex)
        rho[3, 0], rho[0, 3] = z, np.conj(z)
        rho[2, 1], rho[1, 2] = y, np.conj(y)
        want = sorted(
            [
                math.sqrt(a * d) + abs(z),
                math.sqrt(a * d) - abs(z),
                math.sqrt(b * c) + abs(y),
                math.sqrt(b * c) - abs(y),
            ],
            reverse=True,
        )
        q1, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        q2, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        u = np.kron(q1, q2)
        res = wootters(u @ rho @ u.conj().T)
        np.testing.assert_allclose(res.lambdas, want, rtol=0.0, atol=1e-14)


def test_wootters_lambdas_on_graded_rank_deficient_states_match_oracle():
    # rho = V diag(d) V^dagger of rank 2 and 3 with d spanning up to
    # eight orders of magnitude: wootters drops the null eigencomponents
    # of rho, and the kept small ones must still yield every lambda.
    # Reference: descending sqrt of the extended-precision power-iteration
    # eigenvalues of rho rho~, formed as concurrence_power_iteration does.
    rng = np.random.default_rng(41)
    signs = np.array([-1.0, 1.0, 1.0, -1.0])
    for smallest in (1e-4, 1e-6, 1e-8):
        for d in ([1.0, smallest], [1.0, math.sqrt(smallest), smallest]):
            for _ in range(5):
                z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                q, r = np.linalg.qr(z)
                v = (q * (np.diag(r) / np.abs(np.diag(r))))[:, : len(d)]
                rho = (v * np.array(d)) @ v.conj().T
                rho = (rho + rho.conj().T) / 2.0
                rho /= rho.trace().real
                flipped = rho.conj()[::-1, ::-1] * np.outer(signs, signs)
                prod = rho.astype(np.clongdouble) @ flipped.astype(np.clongdouble)
                vals = np.array([complex(x).real for x in power_iteration_eigvals(prod)])
                want = np.sort(np.sqrt(np.maximum(vals, 0.0)))[::-1]
                res = wootters(rho)
                np.testing.assert_allclose(res.lambdas, want, rtol=0.0, atol=1e-9)


def test_stacked_reduction_and_wootters_equal_one_state_at_a_time():
    rng = np.random.default_rng(17)
    for n_qubits in (3, 30, 200):
        amps = rng.standard_normal((12, n_qubits + 1)) + 1j * rng.standard_normal((12, n_qubits + 1))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        amps[0] = 0.0
        amps[0, -1] = 1.0  # a product state: the separable snap on one row
        stack = reduce_symmetric(collective_expectations(amps))
        res = wootters(stack)
        assert stack.rho.shape == (12, 4, 4)
        assert res.concurrence.shape == (12,) and res.lambdas.shape == (12, 4)
        for t, row in enumerate(amps):
            dm = reduce_symmetric(collective_expectations(row))
            one = wootters(dm)
            np.testing.assert_allclose(stack.rho[t], dm.rho, rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(res.lambdas[t], one.lambdas, rtol=0.0, atol=1e-14)
            assert abs(res.c_lambda[t] - one.c_lambda) <= 1e-14
            assert abs(res.concurrence[t] - one.concurrence) <= 1e-14
        assert res.c_lambda[0] == 0.0


def test_stack_errors_name_the_failing_row():
    good = np.stack([werner(f) for f in np.linspace(0.0, 1.0, 8)])
    skew = good.copy()
    skew[5, 0, 1] += 1e-3
    with pytest.raises(NumericalError, match=r"^row 5: hermitizing"):
        TwoQubitDensity.from_matrix(skew)
    heavy = good.copy()
    heavy[3] *= 2.0
    with pytest.raises(NumericalError, match=r"^row 3: trace"):
        wootters(heavy)
    negative = good.copy()
    negative[6] = np.diag([0.7, 0.5, -0.1, -0.1])
    with pytest.raises(
        NumericalError, match=r"^row 6: not positive semidefinite: residual 1\.414e-01 above 1\.0e-07$"
    ):
        TwoQubitDensity.from_matrix(negative)
    rng = np.random.default_rng(3)
    amps = rng.standard_normal((4, 31)) + 1j * rng.standard_normal((4, 31))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    amps[2, 7] = np.nan
    with pytest.raises(NumericalError, match=r"^row 2: hermitizing"):
        reduce_symmetric(collective_expectations(amps))
    with pytest.raises(DomainError):
        concurrence_x_form(good)  # the shortcuts take one matrix


def test_dicke_form_agrees_with_wootters_and_closed_form():
    for n_qubits in (3, 6, 9):
        for n in range(n_qubits + 1):
            dm = reduce_symmetric(collective_expectations(number_state(n_qubits, n)))
            shortcut = concurrence_dicke_form(dm)
            full = wootters(dm).concurrence
            closed = dicke_concurrence_closed(n_qubits, n - n_qubits / 2.0)
            assert shortcut == pytest.approx(full, abs=1e-10)
            assert shortcut == pytest.approx(closed, abs=1e-10)


def test_x_form_agrees_with_wootters_on_epr_reductions():
    for n in (1, 2, 3, 7, 20):
        dm = epr_reduce(n)
        assert concurrence_x_form(dm) == pytest.approx(1.0 / n, abs=1e-10)
        assert wootters(dm).concurrence == pytest.approx(1.0 / n, abs=1e-10)


def test_x_form_agrees_with_wootters_on_random_x_matrices():
    rng = np.random.default_rng(13)
    for _ in range(100):
        v = rng.random(3)
        w = v[1]
        u_mag = rng.random() * math.sqrt(v[0] * v[2])
        y_mag = rng.random() * w
        phi_u, phi_y = rng.random(2) * 2 * math.pi
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = v[0], w, w, v[2]
        rho[3, 0] = u_mag * np.exp(1j * phi_u)
        rho[0, 3] = rho[3, 0].conjugate()
        rho[2, 1] = y_mag * np.exp(1j * phi_y)
        rho[1, 2] = rho[2, 1].conjugate()
        rho /= rho.trace().real
        assert concurrence_x_form(rho) == pytest.approx(wootters(rho).concurrence, abs=1e-10)


def random_x_state(rng, dicke_pattern):
    # diagonal d, and coherences within |rho_30|^2 <= d0 d3 and
    # |rho_21|^2 <= d1 d2 so that rho is positive: complex u and y with
    # unequal inner diagonals, or u = 0 and y real of either sign
    d = rng.random(4)
    d /= d.sum()
    rho = np.diag(d).astype(complex)
    if dicke_pattern:
        rho[2, 1] = rng.uniform(-1.0, 1.0) * math.sqrt(d[1] * d[2])
    else:
        rho[3, 0] = rng.random() * math.sqrt(d[0] * d[3]) * np.exp(2j * math.pi * rng.random())
        rho[2, 1] = rng.random() * math.sqrt(d[1] * d[2]) * np.exp(2j * math.pi * rng.random())
    rho[0, 3], rho[1, 2] = rho[3, 0].conjugate(), rho[2, 1].conjugate()
    return rho


@pytest.mark.parametrize("dicke_pattern", [False, True], ids=["x-state", "dicke-pattern"])
def test_shortcuts_agree_with_wootters_on_any_x_state(dicke_pattern):
    rng = np.random.default_rng(30 + dicke_pattern)
    stack = np.array([random_x_state(rng, dicke_pattern) for _ in range(1000)])
    assert np.abs(stack[:, 1, 1] - stack[:, 2, 2]).max() > 0.5
    full = wootters(stack).concurrence
    assert (full > 0.1).sum() > 100  # not only separable states
    shortcuts = [concurrence_x_form]
    if dicke_pattern:
        assert (stack[:, 2, 1].real < 0).sum() > 400  # y of either sign
        shortcuts.insert(0, concurrence_dicke_form)
    for shortcut in shortcuts:
        got = np.array([shortcut(rho) for rho in stack])
        assert np.abs(got - full).max() <= 1e-12, shortcut.__name__


def test_shortcuts_give_one_on_the_singlet():
    singlet = np.outer(PSI_MINUS, PSI_MINUS.conj())
    assert concurrence_dicke_form(singlet) == pytest.approx(1.0, abs=1e-15)
    assert concurrence_x_form(singlet) == pytest.approx(1.0, abs=1e-15)


def test_shortcuts_reject_off_pattern_matrices():
    with pytest.raises(DomainError, match=r"^matrix is not in Dicke form"):
        concurrence_dicke_form(epr_reduce(3))  # corner coherence present
    with pytest.raises(DomainError, match=r"^matrix is not in Dicke form"):
        concurrence_dicke_form(BELL)
    lopsided = np.diag([0.4, 0.35, 0.15, 0.1]).astype(complex)
    # unequal inner diagonals are an X shape too
    assert concurrence_x_form(lopsided) == wootters(lopsided).concurrence == 0.0
    coherent_pair = reduce_symmetric(
        collective_expectations(spin_coherent(4, 0.8))
    )  # physical, but carries one-flip coherences
    with pytest.raises(DomainError, match=r"^matrix is not an X shape"):
        concurrence_x_form(coherent_pair)
    with pytest.raises(DomainError, match=r"^matrix is not in Dicke form"):
        concurrence_dicke_form(coherent_pair)


def test_dicke_closed_special_values_are_exact():
    for n in (4, 10, 16, 30):
        assert dicke_concurrence_closed(n, 0.0) == 1.0 / (n - 1)
        assert dicke_concurrence_closed(n, n / 2.0 - 1.0) == 2.0 / n
        assert dicke_concurrence_closed(n, -(n / 2.0 - 1.0)) == 2.0 / n
        assert dicke_concurrence_closed(n, n / 2.0) == 0.0
    assert dicke_concurrence_closed(15, 0.5) == pytest.approx(
        dicke_concurrence_closed(15, -0.5), abs=0.0
    )


def test_dicke_closed_domain_errors():
    with pytest.raises(DomainError):
        dicke_concurrence_closed(1, 0.5)
    with pytest.raises(DomainError):
        dicke_concurrence_closed(4, 0.3)  # off the half-integer grid
    with pytest.raises(DomainError):
        dicke_concurrence_closed(15, 0.0)  # wrong parity for odd N
    with pytest.raises(DomainError):
        dicke_concurrence_closed(4, 3.0)  # |M| > N/2
    for m in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=r"^M must be finite, got"):
            dicke_concurrence_closed(4, m)


def monogamy_excess(stack):
    # (N - 1) C^2 - tau_1 on each row, with the one-tangle of one qubit
    # tau_1 = 1 - (4/N^2)(<Sz>^2 + |<S+>|^2) of Coffman, Kundu and Wootters
    exp = collective_expectations(stack)
    n = exp.n_qubits
    c = wootters(reduce_symmetric(exp)).concurrence
    tau1 = 1.0 - 4.0 / n**2 * (exp.sz**2 + np.abs(exp.splus) ** 2)
    return (n - 1) * c**2 - tau1


@pytest.mark.parametrize("two_j", [2, 3, 4, 5, 8, 30, 200])
def test_pair_concurrence_obeys_the_monogamy_bound(two_j):
    # (N - 1) C^2 <= tau_1 for every N-qubit symmetric state: kicked
    # stacks across the torsion range, every Dicke state (the W-like
    # ones saturate it) and spin coherent states
    eps = np.finfo(float).eps
    q = SpinQuantum(two_j)
    for kappa0 in np.linspace(0.0, math.pi * q.j, 13):
        u = floquet(KickedTopParams(q, float(kappa0)))
        states = [coherent_from_angles(two_j, 0.9, 0.4)]
        for _ in range(60):
            states.append(u @ states[-1])
        assert np.max(monogamy_excess(np.array(states))) <= 16 * eps, kappa0
    dicke = np.array([number_state(two_j, n) for n in range(two_j + 1)])
    assert np.max(monogamy_excess(dicke)) <= 16 * eps
    coherent = np.array([spin_coherent(two_j, eta) for eta in (0.0, 0.3, 1.0, 4.0)])
    assert np.max(monogamy_excess(coherent)) <= 16 * eps


def test_haar_random_symmetric_states():
    # a normalised complex Gaussian vector of N + 1 amplitudes is Haar-random
    # on the symmetric subspace, so the seeded generator is the whole oracle;
    # Wang, Ghose, Sanders and Hu set chaotic time averages beside these
    rng = np.random.default_rng(1)
    eps = np.finfo(float).eps
    for two_j in (3, 4, 10, 30, 200):
        z = rng.standard_normal((400, two_j + 1)) + 1j * rng.standard_normal((400, two_j + 1))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        c = wootters(reduce_symmetric(collective_expectations(z))).concurrence
        assert np.max(c) <= 2.0 / two_j
        assert np.max(monogamy_excess(z)) <= 16 * eps
        if two_j == 3:
            assert 0.25 <= np.mean(c) <= 0.29 and np.count_nonzero(c > 0) >= 398
        if two_j >= 30:
            assert not c.any()

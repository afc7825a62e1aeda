"""Floquet operator, state evolution, and the concurrence time series."""

import math

import numpy as np
import pytest

import kickedtop.kicked_top as kicked_top
import kickedtop.spin as spin
from kickedtop import (
    DomainError,
    KickedTopParams,
    SpinQuantum,
    analytic_concurrence_series,
    coherent_from_angles,
    collective_expectations,
    concurrence_series,
    concurrence_sweep,
    evolve,
    floquet,
    number_state,
    parity_operator,
    reduce_symmetric,
    time_average,
    wootters,
)
from dense_spin import collective_operators, jvec


def test_params_validation():
    q = SpinQuantum(3)
    with pytest.raises(DomainError):
        KickedTopParams(q, -0.1)
    with pytest.raises(DomainError):
        KickedTopParams(q, math.nan)
    with pytest.raises(DomainError):
        KickedTopParams(q, 1.0, p=math.inf)


@pytest.mark.parametrize("two_j, kappa0", [(3, 8e307), (200, 1e305)])
def test_torsion_overflow_is_a_domain_error(two_j, kappa0):
    # kappa0 is finite, but kappa0 j^2, which the torsion phases form, is not
    with pytest.raises(DomainError, match=r"^kappa0 \* j\^2 = .* overflows the float range$"):
        floquet(KickedTopParams(SpinQuantum(two_j), kappa0))


def test_torsion_just_inside_the_float_range_is_unitary():
    # kappa0 j^2 = 1.78e308 is finite, and so is every torsion phase
    u = floquet(KickedTopParams(SpinQuantum(3), 7.9e307))
    assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12


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
    assert abs(abs(np.vdot(top, back)) - 1.0) < 1e-12


def test_evolution_preserves_norm_over_many_kicks():
    params = KickedTopParams(SpinQuantum(9), 5.3)
    state = coherent_from_angles(9, 1.0, 0.5)
    state = evolve(state, floquet(params), 500)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-11


def test_evolve_validation():
    u = floquet(KickedTopParams(SpinQuantum(3), 1.0))
    state = number_state(3, 0)
    with pytest.raises(DomainError, match=r"^kick count must be >= 0"):
        evolve(state, u, -1)
    with pytest.raises(DomainError, match=r"^operator dim 4 does not match state dim 5$"):
        evolve(number_state(4, 0), u, 1)
    with pytest.raises(DomainError, match=r"^operator shape \(3, 4\) is not square$"):
        evolve(state, np.zeros((3, 4)), 1)


def complex_route_rotation(q, p):
    # exp(-i p Jy) from a complex eigendecomposition of the dense Jy
    w, v = np.linalg.eigh(collective_operators(q).jy)
    return (v * np.exp(-1j * p * w)) @ v.conj().T


def rotation(q, p):
    # exp(-i p Jy) as the engine builds it: the floquet matrix at zero torsion, exactly real
    u = floquet(KickedTopParams(q, 0.0, p))
    assert not u.imag.any()
    return u.real


@pytest.mark.parametrize("two_j", [1, 2, 3, 30, 200])
def test_rotation_is_real_and_matches_the_complex_route(two_j):
    q = SpinQuantum(two_j)
    for p in (math.pi / 2.0, 0.37, 2.9):
        r = rotation(q, p)
        assert r.dtype == np.float64 and r.shape == (q.dim, q.dim)
        assert np.abs(r - complex_route_rotation(q, p)).max() <= 1e-13


def test_rotation_at_spin_half_is_the_closed_form_block():
    # exp(-i p sigma_y / 2) = [[c, -s], [s, c]] in the order (m = +1/2, -1/2),
    # the reverse of the ascending basis index
    p = 0.737
    c, s = math.cos(p / 2.0), math.sin(p / 2.0)
    r = rotation(SpinQuantum(1), p)
    np.testing.assert_allclose(r[::-1, ::-1], [[c, -s], [s, c]], rtol=0.0, atol=1e-15)


def test_rotation_composes_additively():
    q = SpinQuantum(7)
    ra, rb = rotation(q, 0.3), rotation(q, 1.1)
    np.testing.assert_allclose(ra @ rb, rotation(q, 1.4), rtol=0.0, atol=1e-13)


def test_rotation_stays_orthogonal_at_large_j():
    r = rotation(SpinQuantum(2000), math.pi / 2.0)
    assert np.abs(r.T @ r - np.eye(2001)).max() <= 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5, 200, 2000])
def test_rotation_turns_jz_towards_jx(two_j):
    # R Jz R^T = cos p Jz + sin p Jx, with no eigensolver on either side;
    # at 2j = 2000 the recurrence behind R has to rescale its columns
    q = SpinQuantum(two_j)
    m, c = spin._ladder(two_j)
    lower = np.diag(c / 2.0, k=-1)
    jz, jx = np.diag(m), lower + lower.T
    for p in (math.pi / 2.0, 0.37, 2.9):
        r = rotation(q, p)
        turned = (r * m) @ r.T  # R Jz R^T, as Jz is diagonal
        assert np.abs(turned - (math.cos(p) * jz + math.sin(p) * jx)).max() <= 1e-13 * q.j


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


def g_basis(two_j):
    # (2, 2j+1, h) columns of the eigenbasis of G = exp(-i pi Jy), block by
    # block, with G|n> = g_n |N-n> and g_n = (-1)^(N-n); the smaller even
    # block is padded with a zero column
    n, half = two_j, two_j // 2
    r = math.sqrt(0.5)
    basis = np.zeros((2, n + 1, half + 1), dtype=complex)
    for a in range(n - half):
        g = (-1) ** (n - a)
        basis[:, a, a] = r
        if n % 2:
            basis[:, n - a, a] = [-1j * g * r, 1j * g * r]
        else:
            basis[:, n - a, a] = [g * r, -g * r]
    if n % 2 == 0:
        basis[half % 2, half, half] = 1.0
    return basis


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5, 6, 7, 30, 31, 200, 201])
def test_parity_blocks_are_the_g_basis_projection_of_the_complex_route(two_j):
    q = SpinQuantum(two_j)
    basis = g_basis(two_j)
    h = basis.shape[-1]
    # the basis holds eigenvectors of G: +1 and -1 for even N, +i and -i for odd N
    eig = [1.0, -1.0] if two_j % 2 == 0 else [1j, -1j]
    g_op = complex_route_rotation(q, math.pi)
    for b, lam in zip(basis, eig):
        assert np.abs(g_op @ b - lam * b).max() <= 1e-13
    for p in (math.pi / 2.0, 0.37, 2.9):
        projected = basis.conj().swapaxes(1, 2) @ complex_route_rotation(q, p) @ basis
        blocks = kicked_top._parity_blocks(q, p)
        assert blocks.shape == (2, h, h)
        assert blocks.dtype == (np.complex128 if two_j % 2 else np.float64)
        assert np.abs(blocks - projected).max() <= 1e-13


@pytest.mark.parametrize("two_j", [1000, 1001])
def test_parity_blocks_stay_unitary_through_the_rescale(two_j):
    # the Jx recurrence rescales some of its columns 4 times on the way to
    # the middle row at 2j = 1000, and 3 times at 2j = 1001
    half = two_j // 2
    for p in (math.pi / 2.0, 0.37, 2.9):
        blocks = kicked_top._parity_blocks(SpinQuantum(two_j), p)
        assert blocks.shape == (2, half + 1, half + 1)
        assert blocks.dtype == (np.complex128 if two_j % 2 else np.float64)
        if two_j % 2 == 0:
            # the smaller block is padded with an exactly zero row and column
            padded = blocks[1 - half % 2]
            assert not padded[half].any() and not padded[:, half].any()
            padded[half, half] = 1.0
        for block in blocks:
            gram = block.conj().T @ block
            assert np.abs(gram - np.eye(half + 1)).max() <= 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5, 6, 7, 8, 200, 201])
def test_parity_coords_and_jz_amplitudes_invert_each_other(two_j):
    rng = np.random.default_rng(two_j)
    x = rng.normal(size=(two_j + 1, 3)) + 1j * rng.normal(size=(two_j + 1, 3))
    coords = kicked_top._parity_coords(x, two_j)
    back = kicked_top._jz_amplitudes(coords[None], two_j)[0].T
    assert np.abs(back - x).max() <= 4.0 * np.finfo(float).eps * np.abs(x).max()
    half = two_j // 2
    if two_j % 2 == 0:
        # the middle row goes into the block of g_(N/2) and comes back exactly
        assert np.array_equal(coords[half % 2, half], x[half])
        assert not coords[1 - half % 2, half].any()
        assert np.array_equal(back[half], x[half])
    else:
        blocks = kicked_top._parity_blocks(SpinQuantum(two_j), 0.37)
        assert np.array_equal(blocks[1], blocks[0].conj())


def torsion_rows(two_j, kappa0):
    # t_a = exp(-i kappa0 (a - j)^2 / (2j)) on the G-basis rows a = 0..N//2,
    # from the formula, as a column
    a = np.arange(two_j // 2 + 1)
    return np.exp(-1j * kappa0 * (a - two_j / 2) ** 2 / two_j)[:, None]


def spectrum_gap(a, b):
    # largest distance when each eigenvalue of a takes the nearest unused one of b
    b, worst = list(b), 0.0
    for x in a:
        gaps = np.abs(np.array(b) - x)
        worst = max(worst, gaps.min())
        b.pop(int(np.argmin(gaps)))
    return worst


@pytest.mark.parametrize("two_j", [2, 4, 6, 8, 10, 30, 200])
def test_even_blocks_split_by_row_parity_at_a_quarter_turn(two_j):
    # at p = pi/2, Rx = exp(-i pi Jx) is +-1 on the rows of each G block; the
    # G = +1 block commutes with the row parity and the G = -1 block
    # anticommutes with it, so their entries at odd and even a - b vanish
    a = np.arange(two_j // 2 + 1)
    odd = (a[:, None] - a[None, :]) % 2 == 1
    blocks = kicked_top._parity_blocks(SpinQuantum(two_j), math.pi / 2.0)
    assert max(np.abs(blocks[0][odd]).max(), np.abs(blocks[1][~odd]).max()) <= 64 * np.finfo(float).eps
    # at another p the same entries are of order one
    blocks = kicked_top._parity_blocks(SpinQuantum(two_j), 1.7)
    assert max(np.abs(blocks[0][odd]).max(), np.abs(blocks[1][~odd]).max()) > 0.1


@pytest.mark.parametrize("two_j", [3, 5, 21, 101])
def test_odd_block_spectra_are_a_quarter_turn_apart_at_a_quarter_turn(two_j):
    # at p = pi/2, Rx swaps the G = +i and G = -i blocks and takes U to U G^-1,
    # so spec(U_-i) = -i spec(U_+i)
    for kappa0 in (0.0, 1.5, 10.0):
        t = torsion_rows(two_j, kappa0)
        gaps = []
        for p in (math.pi / 2.0, 1.7):
            plus, minus = t * kicked_top._parity_blocks(SpinQuantum(two_j), p)
            gaps.append(spectrum_gap(np.linalg.eigvals(minus), -1j * np.linalg.eigvals(plus)))
        assert gaps[0] <= 1e-12 and gaps[1] > 0.05, (kappa0, gaps)


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5, 8, 21, 40, 201])
def test_g_block_spectra_make_up_the_floquet_spectrum(two_j):
    # diag(t) B_k is the Floquet block of G sector k; for even N the block
    # that does not hold |N/2> drops its last row and column, the padding
    half = two_j // 2
    for kappa0 in (0.0, 2.7):
        for p in (math.pi / 2.0, 0.37):
            sectors = list(torsion_rows(two_j, kappa0) * kicked_top._parity_blocks(SpinQuantum(two_j), p))
            if two_j % 2 == 0:
                sectors[1 - half % 2] = sectors[1 - half % 2][:half, :half]
            levels = np.concatenate([np.linalg.eigvals(s) for s in sectors])
            full = np.linalg.eigvals(floquet(KickedTopParams(SpinQuantum(two_j), kappa0, p)))
            assert levels.size == two_j + 1
            assert spectrum_gap(levels, full) <= 1e-12, (kappa0, p)


@pytest.mark.parametrize("two_j", [2, 4, 6, 8, 10, 30, 200, 202])
def test_even_minus_block_levels_pair_up_half_a_turn_apart_at_a_quarter_turn(two_j):
    # at p = pi/2 the G = -1 block anticommutes with the row parity
    # P = diag((-1)^a), and so does diag(t) B_-1, as P commutes with diag(t):
    # its levels come in pairs phi, phi + pi, that is spec = -spec
    half = two_j // 2
    for kappa0 in (0.0, 1.5, 10.0):
        t = torsion_rows(two_j, kappa0)
        gaps = []
        for p in (math.pi / 2.0, 1.7):
            minus = (t * kicked_top._parity_blocks(SpinQuantum(two_j), p))[1]
            if half % 2 == 0:
                minus = minus[:half, :half]  # the padded row and column
            levels = np.linalg.eigvals(minus)
            gaps.append(spectrum_gap(levels, -levels))
        assert gaps[0] <= 1e-12 and gaps[1] > 0.1, (kappa0, gaps)


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5, 8, 21, 40, 201])
def test_g_block_levels_at_zero_torsion_are_the_rotation_phases_of_their_sector(two_j):
    # at kappa0 = 0 the period is exp(-i p Jy), whose level exp(-i p m) has
    # G = exp(-i pi Jy) eigenvalue exp(-i pi m); block k holds exactly the
    # m with exp(-i pi m) = g_k, g = (1, -1) for even N and (i, -i) for odd N
    half = two_j // 2
    m = np.arange(two_j + 1) - two_j / 2.0
    g = (1.0, -1.0) if two_j % 2 == 0 else (1j, -1j)
    for p in (math.pi / 2.0, 0.37, 2.9):
        blocks = list(kicked_top._parity_blocks(SpinQuantum(two_j), p))
        if two_j % 2 == 0:
            blocks[1 - half % 2] = blocks[1 - half % 2][:half, :half]
        for block, g_k in zip(blocks, g):
            expected = np.exp(-1j * p * m[np.abs(np.exp(-1j * math.pi * m) - g_k) < 1e-9])
            levels = np.linalg.eigvals(block)
            assert levels.size == expected.size, (p, g_k)
            assert spectrum_gap(levels, expected) <= 1e-12, (p, g_k)


def reference_sweep(q, unitaries, theta0, phi0, n_max):
    # the full-size loop: u @ psi per kick, then the moments and wootters
    series = []
    for u in unitaries:
        psi, kicks = coherent_from_angles(q.n_qubits, theta0, phi0), []
        for _ in range(n_max):
            psi = u @ psi
            kicks.append(psi)
        pairs = reduce_symmetric(collective_expectations(np.array(kicks)))
        series.append(wootters(pairs).concurrence)
    return series


@pytest.mark.parametrize(
    "two_j, n_max",
    [(2, 60), (3, 60), (4, 60), (5, 60), (6, 60), (7, 60), (200, 30), (201, 30), (1001, 12)],
)
def test_sweep_matches_the_full_size_reference_loop(two_j, n_max, monkeypatch):
    q = SpinQuantum(two_j)
    grid = [0.0, 1.7, 4.9]
    # dense eigh of Jy and the torsion phases in the Jz basis, no parity blocks
    m, _ = spin._ladder(two_j)
    r = complex_route_rotation(q, math.pi / 2.0)
    unitaries = [np.exp(-1j * kappa0 * m**2 / two_j)[:, None] * r for kappa0 in grid]
    # 5 kicks per block, so every sweep spans several blocks
    monkeypatch.setattr(kicked_top, "KICK_BLOCK_AMPLITUDES", 5 * len(grid) * q.dim)
    # the top pole, a tilted start and the bottom pole
    for theta0, phi0 in [(0.0, 0.0), (0.7, 0.3), (math.pi, 0.0)]:
        sweep = concurrence_sweep(q, grid, theta0, phi0, n_max)
        reference = reference_sweep(q, unitaries, theta0, phi0, n_max)
        for series, expected in zip(sweep, reference, strict=True):
            assert np.abs(series.concurrence - expected).max() <= 1e-12


def test_parity_commutes_with_floquet():
    for two_j in (2, 3, 4, 5, 30):
        q = SpinQuantum(two_j)
        pi_op = parity_operator(q)
        for kappa0 in (0.0, 0.7, 1.2, 3.9, 6.5):
            u = floquet(KickedTopParams(q, kappa0))
            assert np.array_equal(u @ pi_op, pi_op @ u)


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
    for (_, ca), (_, cb) in zip(a.entries, b.entries, strict=True):
        assert ca == pytest.approx(cb, abs=1e-12)


@pytest.mark.parametrize("two_j", [3, 4, 201, 1000, 1001])
def test_series_keeps_its_exact_symmetries(two_j):
    # C is unchanged by collective rotations, and at p = pi/2 Rx U Rx^dagger
    # = U G^-1, so the Rx image (pi - theta0, -phi0) and the z image
    # (theta0, phi0 + pi) of the start give the same series.  The torsion
    # phases kappa0 m^2 / (2j) make it periodic in kappa0 with period 4 pi j.
    q = SpinQuantum(two_j)
    kappa0, theta0, phi0, n_max = 2.5, 0.9, 0.4, 30
    shifted = kappa0 + 4.0 * math.pi * q.j
    base, period = concurrence_sweep(q, [kappa0, shifted], theta0, phi0, n_max)
    for image in ((math.pi - theta0, -phi0), (theta0, phi0 + math.pi)):
        other = concurrence_series(KickedTopParams(q, kappa0), *image, n_max)
        assert np.abs(other.concurrence - base.concurrence).max() <= 1e-13
    # a torsion phase reaches shifted * j / 2 rad, so each kick rounds it off by
    # up to about shifted * j * eps, and n_max kicks add that up
    eps = np.finfo(float).eps
    assert np.abs(period.concurrence - base.concurrence).max() <= n_max * shifted * q.j * eps
    # away from the quarter turn the Rx image is a different series
    start = concurrence_series(KickedTopParams(q, kappa0, 1.7), theta0, phi0, n_max)
    rx = concurrence_series(KickedTopParams(q, kappa0, 1.7), math.pi - theta0, -phi0, n_max)
    assert np.abs(rx.concurrence - start.concurrence).max() > 1e-4


def test_sweep_columns_equal_single_series_across_kick_blocks(monkeypatch):
    q = SpinQuantum(5)
    grid = [0.0, 1.7, 2.4, 6.0]
    whole = concurrence_sweep(q, grid, 0.7, 0.3, 40)
    # 3 kicks per block for 4 kappa0 values at 2j = 5
    monkeypatch.setattr(kicked_top, "KICK_BLOCK_AMPLITUDES", 3 * 4 * 6)
    blocked = concurrence_sweep(q, grid, 0.7, 0.3, 40)
    for kappa0, a, b in zip(grid, whole, blocked, strict=True):
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
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-11


def test_series_validation():
    with pytest.raises(DomainError):
        concurrence_series(KickedTopParams(SpinQuantum(1), 1.0), 0.0, 0.0, 5)
    with pytest.raises(DomainError):
        concurrence_series(KickedTopParams(SpinQuantum(3), 1.0), 0.0, 0.0, 0)
    with pytest.raises(DomainError):
        concurrence_sweep(SpinQuantum(3), [], 0.0, 0.0, 5)


@pytest.mark.parametrize(
    "theta0, phi0, message",
    [(math.nan, 0.0, "theta must be finite, got nan"), (0.7, math.inf, "phi must be finite, got inf")],
    ids=["nan-0.0", "0.7-inf"],
)
def test_bad_start_angles_fail_before_the_blocks_are_built(theta0, phi0, message, monkeypatch):
    def blocks_not_reached(q, p):
        raise AssertionError("the parity blocks were built before the start was checked")

    monkeypatch.setattr(kicked_top, "_parity_blocks", blocks_not_reached)
    with pytest.raises(DomainError, match=f"^{message}$"):
        concurrence_sweep(SpinQuantum(30), [1.0], theta0, phi0, 3)


def test_a_single_qubit_fails_before_the_blocks_are_built(monkeypatch):
    monkeypatch.setattr(kicked_top, "_parity_blocks", None)
    with pytest.raises(DomainError, match=r"^n_qubits must be >= 2, got 1$"):
        concurrence_sweep(SpinQuantum(1), [1.0], 0.0, 0.0, 3)


def test_time_average():
    series = concurrence_series(KickedTopParams(SpinQuantum(3), 2.4), 0.0, 0.0, 20)
    values = [c for _, c in series.entries]
    assert time_average(series, 0) == pytest.approx(sum(values) / 20, abs=1e-15)
    assert time_average(series, 15) == pytest.approx(sum(values[15:]) / 5, abs=1e-15)
    with pytest.raises(DomainError, match=r"^burn_in 20 leaves no entries out of 20$"):
        time_average(series, 20)
    with pytest.raises(DomainError, match=r"^burn_in must be >= 0, got -3$"):
        time_average(series, -3)

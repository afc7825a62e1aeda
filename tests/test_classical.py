"""Classical stroboscopic map, tangent dynamics, and Lyapunov estimates."""

import math
import re

import numpy as np
import pytest

from kickedtop import (
    DomainError,
    LyapunovEstimate,
    NumericalError,
    classical_map,
    lyapunov,
    lyapunov_running,
    tangent_step,
)
from kickedtop.classical import _seed_tangent
from oracles import fibonacci_sphere, tangent_step_fd

HALF_PI = math.pi / 2.0
START = (math.sin(2.25), 0.0, math.cos(2.25))


def random_tangent_pair(rng):
    p = rng.standard_normal(3)
    p /= np.linalg.norm(p)
    v = rng.standard_normal(3)
    v -= np.dot(v, p) * p
    v /= np.linalg.norm(v)
    return tuple(p), tuple(v)


def test_zero_torsion_pole_orbit_has_period_four():
    pt = (0.0, 0.0, 1.0)
    expect = [(1.0, 0.0, 0.0), (0.0, 0.0, -1.0), (-1.0, 0.0, 0.0), (0.0, 0.0, 1.0)]
    for want in expect:
        pt = classical_map(pt, 0.0, HALF_PI)
        np.testing.assert_allclose(pt, want, atol=1e-15)


def test_minus_y_is_a_fixed_point_for_every_torsion():
    for kappa0 in (0.0, 0.5, 2.0, 6.0, 10.0):
        img = classical_map((0.0, -1.0, 0.0), kappa0, HALF_PI)
        np.testing.assert_allclose(img, (0.0, -1.0, 0.0), atol=1e-15)


def test_map_stays_on_sphere():
    pt = classical_map(START, 3.3, HALF_PI)
    assert type(pt) is tuple and len(pt) == 3 and all(type(c) is float for c in pt)
    for _ in range(50):
        pt = classical_map(pt, 3.3, HALF_PI)
        assert abs(sum(c * c for c in pt) - 1.0) < 1e-12


def test_map_rejects_off_sphere_input():
    with pytest.raises(DomainError, match=r"^\|pt\|\^2 = .* is not 1$"):
        classical_map((0.0, 0.0, 1.1), 1.0, HALF_PI)
    with pytest.raises(DomainError, match=r"^\|pt\|\^2 = .* is not 1$"):
        tangent_step((0.5, 0.5, 0.5), (0.0, 0.0, 0.0), 1.0, HALF_PI)
    # a NaN coordinate is not on the sphere either
    with pytest.raises(DomainError, match=r"^\|pt\|\^2 = nan is not 1$"):
        classical_map((math.nan, 0.0, 1.0), 1.0, HALF_PI)
    with pytest.raises(DomainError, match=r"^\|pt\|\^2 = nan is not 1$"):
        tangent_step((0.0, 0.0, math.nan), (1.0, 0.0, 0.0), 1.0, HALF_PI)


def test_points_and_tangents_need_three_components():
    with pytest.raises(DomainError, match=r"^pt must have 3 components, got 2$"):
        classical_map((0.0, 1.0), 1.0, 1.0)
    with pytest.raises(DomainError, match=r"^pt must have 3 components, got 4$"):
        lyapunov(1.0, 1.0, (0.0, 0.0, 1.0, 0.0), 1000)
    with pytest.raises(DomainError, match=r"^v must have 3 components, got 2$"):
        tangent_step((0.0, 0.0, 1.0), (1.0, 0.0), 1.0, HALF_PI)
    with pytest.raises(DomainError, match=r"^v must have 3 components, got 4$"):
        tangent_step((0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0), 1.0, HALF_PI)


@pytest.mark.parametrize(
    "kappa0, p, message",
    [
        (math.inf, HALF_PI, "kappa0 must be finite and >= 0, got inf"),
        (math.nan, HALF_PI, "kappa0 must be finite and >= 0, got nan"),
        (-1.0, HALF_PI, "kappa0 must be finite and >= 0, got -1.0"),
        (1.0, math.inf, "p must be finite, got inf"),
        (1.0, math.nan, "p must be finite, got nan"),
    ],
    ids=["inf-kappa0", "nan-kappa0", "negative-kappa0", "inf-p", "nan-p"],
)
def test_map_and_tangent_step_reject_bad_kappa0_and_p(kappa0, p, message):
    match = f"^{re.escape(message)}$"
    with pytest.raises(DomainError, match=match):
        classical_map((0.0, 0.0, 1.0), kappa0, p)
    with pytest.raises(DomainError, match=match):
        tangent_step((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), kappa0, p)


def test_zero_torsion_map_is_an_isometry():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(3)
        b /= np.linalg.norm(b)
        fa = np.array(classical_map(tuple(a), 0.0, 1.234))
        fb = np.array(classical_map(tuple(b), 0.0, 1.234))
        assert np.dot(fa, fb) == pytest.approx(np.dot(a, b), abs=1e-12)


def test_tangent_step_matches_finite_difference_jacobian():
    rng = np.random.default_rng(5)
    for _ in range(100):
        pt, v = random_tangent_pair(rng)
        for kappa0 in (0.0, 0.5, 2.0, 6.0):
            got = tangent_step(pt, v, kappa0, HALF_PI)
            want = tangent_step_fd(classical_map, pt, v, kappa0, HALF_PI)
            np.testing.assert_allclose(got, want, atol=1e-5)


def test_tangent_step_output_is_tangent_at_the_image():
    rng = np.random.default_rng(8)
    for _ in range(20):
        pt, v = random_tangent_pair(rng)
        img = np.array(classical_map(pt, 4.1, HALF_PI))
        w = np.array(tangent_step(pt, v, 4.1, HALF_PI))
        assert abs(np.dot(w, img)) < 1e-12


def test_zero_tangent_maps_to_zero():
    # the zero vector is tangent everywhere, and the loop behind
    # tangent_step never divides by its norm
    rng = np.random.default_rng(11)
    points = [(0.0, 0.0, 1.0), (0.0, -1.0, 0.0), START]
    points += [random_tangent_pair(rng)[0] for _ in range(5)]
    for pt in points:
        for kappa0 in (0.0, 4.1, 1e300):
            for p in (HALF_PI, 0.37):
                assert tangent_step(pt, (0.0, 0.0, 0.0), kappa0, p) == (0.0, 0.0, 0.0)


def test_tangent_step_rejects_non_tangent_vectors():
    with pytest.raises(DomainError, match=r"^v \. pt = .* is not 0$"):
        tangent_step((0.0, 0.0, 1.0), (0.0, 0.1, 1.0), 1.0, HALF_PI)
    # a NaN or infinite tangent is not tangent either
    with pytest.raises(DomainError, match=r"^v \. pt = nan is not 0$"):
        tangent_step((0.0, 0.0, 1.0), (math.nan, 0.0, 0.0), 1.0, HALF_PI)
    with pytest.raises(DomainError, match=r"^v \. pt = inf is not 0$"):
        tangent_step((0.6, 0.0, 0.8), (math.inf, 0.0, 0.0), 1.0, HALF_PI)


def test_lyapunov_validation():
    with pytest.raises(DomainError):
        lyapunov(1.0, HALF_PI, START, 999)
    with pytest.raises(DomainError):
        lyapunov(1.0, HALF_PI, START, 1000, transient=1000)
    with pytest.raises(DomainError):
        lyapunov(1.0, HALF_PI, START, 1000, transient=-1)
    # a NaN start is bad input, not a numerical failure of the loop
    with pytest.raises(DomainError, match=r"^\|pt\|\^2 = nan is not 1$"):
        lyapunov(1.0, HALF_PI, (math.nan, 0.0, 1.0), 1000)
    # so is a seed that is not an integer
    for seed in (0.5, math.nan):
        with pytest.raises(DomainError, match=r"^seed must be an integer, got"):
            lyapunov(1.0, HALF_PI, START, 1000, seed=seed)


@pytest.mark.parametrize("kappa0", [3e154, 1e300])
@pytest.mark.parametrize("transient", [0, 100])
def test_tangent_norm_overflow_is_a_numerical_error(kappa0, transient):
    # the norm overflows on the first period and the tangent is 0 on the
    # next; the period after that divides by 0 (transient=100) or, if the
    # stretch is summed, takes log(0) first (transient=0)
    with pytest.raises(NumericalError, match=r"^tangent norm left the float range at kappa0 = "):
        lyapunov_running(kappa0, HALF_PI, START, 1000, transient=transient)


def test_lyapunov_regular_and_chaotic_anchors():
    est = lyapunov(0.0, HALF_PI, START, 5000)
    assert isinstance(est, LyapunovEstimate)
    assert est.steps == 5000 and est.transient == 100
    assert abs(est.lam) < 1e-6
    assert lyapunov(0.5, HALF_PI, START, 10_000).lam < 0.02
    assert lyapunov(6.0, HALF_PI, START, 10_000).lam > 0.3


def test_lyapunov_seed_independence_in_the_chaotic_regime():
    # the tangent forgets its seed exponentially fast once lambda > 0
    lams = [lyapunov(6.0, HALF_PI, START, 10_000, seed=s).lam for s in range(4)]
    assert max(lams) - min(lams) < 1e-6
    # regular orbits converge more slowly but stay in a narrow band
    lams = [lyapunov(0.5, HALF_PI, START, 10_000, seed=s).lam for s in range(4)]
    assert max(lams) - min(lams) < 1e-3


def test_lyapunov_running_is_consistent_with_the_final_estimate():
    running = lyapunov_running(3.0, HALF_PI, START, 2000)
    assert len(running) == 2000
    assert running[-1] == lyapunov(3.0, HALF_PI, START, 2000).lam
    # running[k-1] is a mean of k log-stretches: partial sums must be coherent
    sums = np.array(running) * np.arange(1, 2001)
    increments = np.diff(sums)
    assert np.all(np.isfinite(increments))


TORSIONS = {
    "2.7-half_pi": (2.7, HALF_PI),
    "6.3-half_pi": (6.3, HALF_PI),
    "1.1-0.37": (1.1, 0.37),
    "5.8-2.9": (5.8, 2.9),
    "0-half_pi": (0.0, HALF_PI),
}
# START seeds its tangent from _seed_tangent's y branch, these from its x and z branches
STARTS = {
    "": START,
    "-x_branch": (0.0, math.sin(2.25), math.cos(2.25)),
    "-z_branch": (math.sin(2.25), math.cos(2.25), 0.0),
}


@pytest.mark.parametrize(
    "kappa0, p, start",
    [
        pytest.param(kappa0, p, start, id=torsion + branch)
        for torsion, (kappa0, p) in TORSIONS.items()
        for branch, start in STARTS.items()
    ],
)
def test_inlined_loop_equals_public_map_and_tangent(kappa0, p, start):
    # classical_map and tangent_step are one-period runs of the loop that
    # lyapunov_running runs for many periods; n one-period calls with the
    # renormalisation done out here equal one n-period run, bit for bit
    steps = 1000
    running = lyapunov_running(kappa0, p, start, steps, transient=0, seed=3)
    pt = start
    v = _seed_tangent(*start, seed=3)
    acc = 0.0
    manual = []
    for _ in range(steps):
        w = tangent_step(pt, v, kappa0, p)
        pt = classical_map(pt, kappa0, p)
        wnorm = math.sqrt(sum(c * c for c in w))
        v = tuple(c / wnorm for c in w)
        acc += math.log(wnorm)
        manual.append(acc / (len(manual) + 1))
    assert running == manual


def test_median_lyapunov_ordering_over_sphere_points():
    # small-scale version of the chaos-ordering property
    pts = fibonacci_sphere(8)
    meds = []
    for kappa0 in (0.5, 6.0):
        meds.append(np.median([lyapunov(kappa0, HALF_PI, p, 2000).lam for p in pts]))
    assert meds[0] < meds[1]
    assert meds[1] > 0.3

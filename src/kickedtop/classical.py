"""Classical kicked top: stroboscopic map on the unit sphere.

One period rotates the spin direction by p about the y axis and then
twists it about z by an angle proportional to the post-rotation z
component.  The convention is fixed by two anchors shared with the
quantum side: at kappa0 = 0, p = pi/2 the north pole runs the period-4
orbit (0,0,1) -> (1,0,0) -> ..., and (0,-1,0) is a fixed point for
every kappa0.

The Lyapunov exponent is estimated by the Benettin method: carry a
tangent vector through the analytic Jacobian of the map, renormalize
it every step, and average the log stretch factors.  One private loop,
_periods, runs the map and its Jacobian; classical_map and
tangent_step are one period of it and lyapunov_running is many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NumericalError
from .spin import _as_int, _count, _real

SPHERE_TOL = 1e-9
TANGENT_TOL = 1e-9
DEFAULT_TRANSIENT = 100

# Angle between successive deterministic tangent seeds (golden angle,
# so distinct seeds never repeat a direction).
_SEED_STRIDE = math.pi * (3.0 - math.sqrt(5.0))

Vec3 = tuple[float, float, float]


@dataclass(frozen=True)
class LyapunovEstimate:
    """Per-kick exponent, with the step counts that produced it."""

    lam: float
    steps: int
    transient: int


def _vec3(name: str, v) -> Vec3:
    """v as three floats; DomainError unless it has exactly three components."""
    comps = tuple(float(c) for c in v)
    if len(comps) != 3:
        raise DomainError(f"{name} must have 3 components, got {len(comps)}")
    return comps


def _sphere_point(pt) -> Vec3:
    """pt as three floats; DomainError unless it is on the unit sphere (a NaN is not)."""
    x, y, z = _vec3("pt", pt)
    if not abs(x * x + y * y + z * z - 1.0) <= SPHERE_TOL:
        raise DomainError(f"|pt|^2 = {x * x + y * y + z * z} is not 1")
    return x, y, z


def _check_params(kappa0: float, p: float) -> None:
    _real("kappa0", kappa0, 0)
    _real("p", p)


def _periods(
    pt: Vec3,
    v: Vec3,
    kappa0: float,
    p: float,
    n: int,
    transient: int = 1,
    out: list[float] | None = None,
) -> tuple[Vec3, Vec3, float]:
    """n periods of the map and its Jacobian from the point pt and the tangent v.

    Each period first divides the carried tangent by the norm the
    previous period left (1.0 on the first period, which is exact), so a
    one-period run never divides by its own norm.  The rotation acts on
    the tangent as the rotation matrix itself; the twist adds the
    kappa0 * d(z') terms of its Jacobian column.  The result is
    re-projected onto the tangent plane of the image point, which
    removes the roundoff-sized normal component the chain rule leaves
    behind.  From period `transient` on (counting from 0), the log of
    each projected norm is summed and the running mean appended to out.
    Returns the last image point, the last projected tangent before
    renormalisation, and the sum of log stretches.
    """
    x, y, z = pt
    vx, vy, vz = v
    cp, sp = math.cos(p), math.sin(p)
    cos, sin, sqrt, log = math.cos, math.sin, math.sqrt, math.log
    wnorm = 1.0
    acc = 0.0
    count = 0
    for k in range(n):
        vx, vy, vz = vx / wnorm, vy / wnorm, vz / wnorm
        xr = x * cp + z * sp
        zr = z * cp - x * sp
        dxr = vx * cp + vz * sp
        dzr = vz * cp - vx * sp
        theta = kappa0 * zr
        ct, st = cos(theta), sin(theta)
        xt = xr * ct - y * st
        yt = xr * st + y * ct
        # the twist column of the Jacobian is kappa0 * (-yt, xt)
        kd = kappa0 * dzr
        wx = dxr * ct - vy * st - kd * yt
        wy = dxr * st + vy * ct + kd * xt
        norm = sqrt(xt * xt + yt * yt + zr * zr)
        x, y, z = xt / norm, yt / norm, zr / norm
        dot = wx * x + wy * y + dzr * z
        vx, vy, vz = wx - dot * x, wy - dot * y, dzr - dot * z
        wnorm = sqrt(vx * vx + vy * vy + vz * vz)
        if k >= transient:
            acc += log(wnorm)
            count += 1
            out.append(acc / count)
    return (x, y, z), (vx, vy, vz), acc


def classical_map(pt, kappa0: float, p: float) -> Vec3:
    """One kicked-top period applied to a point on the unit sphere."""
    _check_params(kappa0, p)
    return _periods(_sphere_point(pt), (0.0, 0.0, 0.0), kappa0, p, 1)[0]


def tangent_step(pt, v, kappa0: float, p: float) -> Vec3:
    """Push a tangent vector through the Jacobian of classical_map.

    The result is the tangent at the image point, projected onto its
    tangent plane and not renormalised: one period of the loop behind
    lyapunov_running.
    """
    _check_params(kappa0, p)
    x, y, z = _sphere_point(pt)
    vx, vy, vz = _vec3("v", v)
    vnorm = math.sqrt(vx * vx + vy * vy + vz * vz)
    dot = vx * x + vy * y + vz * z
    if not (math.isfinite(vnorm) and abs(dot) <= TANGENT_TOL * max(1.0, vnorm)):
        raise DomainError(f"v . pt = {dot:.3e} is not 0")
    return _periods((x, y, z), (vx, vy, vz), kappa0, p, 1)[1]


def _seed_tangent(x: float, y: float, z: float, seed: int) -> Vec3:
    """Deterministic unit tangent at (x,y,z), distinct per seed."""
    # Basis vector least aligned with the point, to avoid degeneracy.
    ax, ay, az = abs(x), abs(y), abs(z)
    if ax <= ay and ax <= az:
        rx, ry, rz = 1.0, 0.0, 0.0
    elif ay <= az:
        rx, ry, rz = 0.0, 1.0, 0.0
    else:
        rx, ry, rz = 0.0, 0.0, 1.0
    dot = rx * x + ry * y + rz * z
    e1x, e1y, e1z = rx - dot * x, ry - dot * y, rz - dot * z
    n1 = math.sqrt(e1x * e1x + e1y * e1y + e1z * e1z)
    e1x, e1y, e1z = e1x / n1, e1y / n1, e1z / n1
    e2x = y * e1z - z * e1y
    e2y = z * e1x - x * e1z
    e2z = x * e1y - y * e1x
    ang = _SEED_STRIDE * seed
    ca, sa = math.cos(ang), math.sin(ang)
    return (ca * e1x + sa * e2x, ca * e1y + sa * e2y, ca * e1z + sa * e2z)


def lyapunov(
    kappa0: float,
    p: float,
    pt0,
    steps: int,
    transient: int = DEFAULT_TRANSIENT,
    seed: int = 0,
) -> LyapunovEstimate:
    """Largest Lyapunov exponent along the orbit of pt0.

    Runs `transient` discarded periods, then `steps` accumulated ones;
    lambda is the mean log stretch per period.  Deterministic: the
    initial tangent direction is a fixed function of (pt0, seed).
    """
    running = lyapunov_running(kappa0, p, pt0, steps, transient, seed)
    return LyapunovEstimate(lam=running[-1], steps=steps, transient=transient)


def lyapunov_running(
    kappa0: float,
    p: float,
    pt0,
    steps: int,
    transient: int = DEFAULT_TRANSIENT,
    seed: int = 0,
) -> list[float]:
    """Running Benettin estimates lambda_k = S_k / k for k = 1..steps.

    classical_map and tangent_step are one period of the same loop, so
    their tests hold the arithmetic this runs.  Raises NumericalError
    when the tangent norm leaves the float range, which happens for
    kappa0 beyond about 1e154.
    """
    _count("steps", steps, 1000)
    _check_params(kappa0, p)
    if not 0 <= _as_int("transient", transient) < steps:
        raise DomainError(f"need 0 <= transient < steps, got transient={transient}")
    pt = _sphere_point(pt0)
    v = _seed_tangent(*pt, _as_int("seed", seed))
    out: list[float] = []
    # A tangent norm that overflows makes the next tangent 0 (a division
    # by zero, or log(0) if its stretch is summed) or NaN (a non-finite
    # sum, caught after the call).
    try:
        acc = _periods(pt, v, kappa0, p, transient + steps, transient, out)[2]
    except (ZeroDivisionError, ValueError):
        acc = math.nan
    if not math.isfinite(acc):
        raise NumericalError(f"tangent norm left the float range at kappa0 = {kappa0}")
    return out

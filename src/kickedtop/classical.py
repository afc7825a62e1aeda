"""Classical kicked top: stroboscopic map on the unit sphere.

One period rotates the spin direction by p about the y axis and then
twists it about z by an angle proportional to the post-rotation z
component.  The convention is fixed by two anchors shared with the
quantum side: at kappa0 = 0, p = pi/2 the north pole runs the period-4
orbit (0,0,1) -> (1,0,0) -> ..., and (0,-1,0) is a fixed point for
every kappa0.

The Lyapunov exponent is estimated by the Benettin method: carry a
tangent vector through the analytic Jacobian of the map, renormalize
it every step, and average the log stretch factors.
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


def classical_map(pt, kappa0: float, p: float) -> Vec3:
    """One kicked-top period applied to a point on the unit sphere."""
    _check_params(kappa0, p)
    x, y, z = _sphere_point(pt)
    cp, sp = math.cos(p), math.sin(p)
    xr = x * cp + z * sp
    zr = z * cp - x * sp
    theta = kappa0 * zr
    ct, st = math.cos(theta), math.sin(theta)
    xt = xr * ct - y * st
    yt = xr * st + y * ct
    norm = math.sqrt(xt * xt + yt * yt + zr * zr)
    return (xt / norm, yt / norm, zr / norm)


def tangent_step(pt, v, kappa0: float, p: float) -> Vec3:
    """Push a tangent vector through the Jacobian of classical_map.

    The rotation part acts as the rotation matrix itself; the twist
    contributes d(theta)/d(z') = kappa0 terms in the z' column.  The
    result is re-projected onto the tangent plane of the image point,
    which removes the roundoff-sized normal component the chain rule
    leaves behind.
    """
    _check_params(kappa0, p)
    x, y, z = _sphere_point(pt)
    vx, vy, vz = _vec3("v", v)
    vnorm = math.sqrt(vx * vx + vy * vy + vz * vz)
    dot = vx * x + vy * y + vz * z
    if not (math.isfinite(vnorm) and abs(dot) <= TANGENT_TOL * max(1.0, vnorm)):
        raise DomainError(f"v . pt = {dot:.3e} is not 0")

    cp, sp = math.cos(p), math.sin(p)
    xr = x * cp + z * sp
    zr = z * cp - x * sp
    dxr = vx * cp + vz * sp
    dzr = vz * cp - vx * sp

    theta = kappa0 * zr
    ct, st = math.cos(theta), math.sin(theta)
    wx = dxr * ct - vy * st + kappa0 * dzr * (-xr * st - y * ct)
    wy = dxr * st + vy * ct + kappa0 * dzr * (xr * ct - y * st)
    wz = dzr

    nx, ny, nz = classical_map(pt, kappa0, p)
    dot = wx * nx + wy * ny + wz * nz
    return (wx - dot * nx, wy - dot * ny, wz - dot * nz)


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

    The map and Jacobian are inlined in the loop body; a unit test
    holds the inlined arithmetic equal to classical_map/tangent_step.
    Raises NumericalError when the tangent norm leaves the float range,
    which happens for kappa0 beyond about 1e154.
    """
    _count("steps", steps, 1000)
    _check_params(kappa0, p)
    if not 0 <= _as_int("transient", transient) < steps:
        raise DomainError(f"need 0 <= transient < steps, got transient={transient}")
    x, y, z = _sphere_point(pt0)
    vx, vy, vz = _seed_tangent(x, y, z, _as_int("seed", seed))

    cp, sp = math.cos(p), math.sin(p)
    out: list[float] = []
    acc = 0.0
    count = 0
    cos, sin, sqrt, log = math.cos, math.sin, math.sqrt, math.log
    # A tangent norm that overflows makes the next tangent 0 (a division
    # by zero) or NaN (a non-finite sum); both are caught after the loop.
    try:
        for k in range(transient + steps):
            xr = x * cp + z * sp
            zr = z * cp - x * sp
            dxr = vx * cp + vz * sp
            dzr = vz * cp - vx * sp
            theta = kappa0 * zr
            ct, st = cos(theta), sin(theta)
            xt = xr * ct - y * st
            yt = xr * st + y * ct
            # the twist column of the Jacobian is kappa0 * (-yt, xt); negation
            # and rounding commute, so this is tangent_step's arithmetic bit for bit
            kd = kappa0 * dzr
            wx = dxr * ct - vy * st - kd * yt
            wy = dxr * st + vy * ct + kd * xt
            wz = dzr
            norm = sqrt(xt * xt + yt * yt + zr * zr)
            x, y, z = xt / norm, yt / norm, zr / norm
            dot = wx * x + wy * y + wz * z
            wx, wy, wz = wx - dot * x, wy - dot * y, wz - dot * z
            wnorm = sqrt(wx * wx + wy * wy + wz * wz)
            vx, vy, vz = wx / wnorm, wy / wnorm, wz / wnorm
            if k >= transient:
                acc += log(wnorm)
                count += 1
                out.append(acc / count)
    except ZeroDivisionError:
        acc = math.nan
    if not math.isfinite(acc):
        raise NumericalError(f"tangent norm left the float range at kappa0 = {kappa0}")
    return out

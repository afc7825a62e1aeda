"""Quantum kicked top on the symmetric subspace.

One period is a rotation by angle p about y followed by a torsion
about z whose strength kappa0 is scaled by 1/(2j):

    U = exp[-i (kappa0/2j) Jz^2] . exp[-i p Jy]

The torsion factor is diagonal in the Jz eigenbasis, so it is applied
as explicit phases exp(-i kappa0 m^2 / (2j)) rather than through a
matrix exponential.  The rotation is the real orthogonal Wigner
d-matrix, built with no eigensolver: the eigenvectors of the
tridiagonal Jx, whose eigenvalues are exactly m = -j..j, come from the
Jx three-term recurrence run up to the middle index.

Both factors commute with the pi-rotation G = exp(-i pi Jy), which maps
|n> to g_n |N-n> with g_n = (-1)^(N-n) (N = 2j; the flip-all parity of
Haake, Kus and Scharf, Z. Phys. B 65, 381, 1987, is i^N G).  So U splits
into two blocks of size N//2 + 1 in the eigenbasis of G:

    even N: (|a> +- g_a |N-a>)/sqrt(2) for a < N/2, plus |N/2> in the
            block of its eigenvalue g_(N/2); both blocks are real, and
            the smaller is padded with a zero row and column;
    odd N:  (|a> -+ i g_a |N-a>)/sqrt(2); the second block is the complex
            conjugate of the first.

_parity_blocks builds each block as a function of Jx on one class of
the reflection n -> N-n, which Jx commutes with: a half-size product of
the class's eigenvectors folded onto the rows n <= N/2, never the full
rotation.  _kick_stream is the one kick loop.  It builds the blocks and
the torsion phases on the same coordinates, moves (N+1, K) start
columns into the eigenbasis of G as a (2, N//2+1, K) array, takes one
matrix product per kick, then the torsion phases, and yields the kicks
back in the Jz basis, a block of the kick axis at a time.  Row k of that
array holds block k's own coordinates for either N; _parity_coords and
_jz_amplitudes move columns into that basis and back, with the basis
rows of _g_rows.

`floquet` is the first kick of the Jz basis columns under one kappa0.
`concurrence_sweep` is the engine behind every concurrence series.  For
one (2j, p) it pushes the coherent start through the kicks for all K
values of kappa0 together.  The kick axis is collected in blocks of at
most KICK_BLOCK_AMPLITUDES amplitudes, so memory does not grow with the
kick count, and each block goes through the two-qubit reduction in
:mod:`.pairwise` and Wootters' formula as one stack.
`concurrence_series` is the K = 1 case.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .concurrence import wootters
from .errors import DomainError
from .pairwise import collective_expectations, reduce_symmetric
from .spin import SpinQuantum, _count, _ladder, _real, coherent_from_angles

DEFAULT_PRECESSION = math.pi / 2.0

# Amplitudes (kicks x kappa0 values x (2j+1)) held per block of the kick
# axis, and per block of states in the CLI; 2^14 complex amplitudes are
# 256 KiB.
KICK_BLOCK_AMPLITUDES = 1 << 14

# Sign of entry [a, b] of an even-N block by k = (a - b) mod 4: (-i)^k
# times C for even k, (-i)^k times -iS for odd k.
_QUARTER_TURN_SIGN = np.array([1.0, -1.0, -1.0, 1.0])

# Every _RESCALE_EVERY steps, a column of the Jx recurrence whose last
# two entries pass _RESCALE_AT is scaled by _RESCALE_STEP (exact, a
# power of two).  One step grows an entry by at most about 1.5 sqrt(N),
# so between checks an entry stays below 2^256 (1.5 sqrt(N))^32, which
# is 2^467 at N = 4096, and the squared entries of a column cannot sum
# past the float range for any N up to about 20 000.
_RESCALE_EVERY = 32
_RESCALE_AT = 2.0**256
_RESCALE_STEP = 2.0**-256


@dataclass(frozen=True)
class KickedTopParams:
    """Parameters of one kicked-top period.

    kappa0 is the torsion strength before the 1/(2j) scaling; p is the
    precession angle per period (hbar = 1 and unit period throughout).
    """

    q: SpinQuantum
    kappa0: float
    p: float = DEFAULT_PRECESSION

    def __post_init__(self) -> None:
        _real("kappa0", self.kappa0, 0)
        # _kick_stream forms kappa0 m^2 before it divides by 2j, and m^2 <= j^2
        if not math.isfinite(self.kappa0 * self.q.j**2):
            raise DomainError(f"kappa0 * j^2 = {self.kappa0} * {self.q.j**2} overflows the float range")
        _real("p", self.p)


@dataclass(frozen=True)
class ConcurrenceSeries:
    """Pairwise concurrence after each kick, n = 1..n_max.

    concurrence[n - 1] belongs to kick n.
    """

    params: KickedTopParams
    theta0: float
    phi0: float
    concurrence: np.ndarray

    @property
    def entries(self) -> list[tuple[int, float]]:
        """(n, C) for each kick n = 1..n_max."""
        return [(n, float(c)) for n, c in enumerate(self.concurrence, start=1)]


def _jx_top_rows(n_qubits: int, eigvals: np.ndarray) -> np.ndarray:
    """The eigenvectors of Jx folded onto rows n = 0..N//2, one unit column per eigenvalue.

    Column b solves c[n-1] v[n-1] + c[n] v[n+1] = 2 m_b v[n], run upward
    from v[0] = 1 for all columns at once; every _RESCALE_EVERY steps a
    column whose last two entries pass _RESCALE_AT is rescaled.  Jx
    commutes with the reflection n -> N-n, so the rows below the middle
    mirror these, v[N-n] = (-1)^(N-b) v[n].  Row n < N/2 is v[n] times
    sqrt(2), the component along (|n> +- |N-n>)/sqrt(2), and each column
    is normalised over its N//2 + 1 rows (its sign does not matter, as
    the columns enter only as U f(W) U^T).
    """
    _, c = _ladder(n_qubits)
    half = n_qubits // 2
    two_m = 2.0 * eigvals
    inv_c = 1.0 / c
    v = np.empty((half + 1, eigvals.size))
    v[0] = 1.0
    below = np.empty(eigvals.size)  # c[n-1] v[n-1]
    for n in range(half):
        row = v[n + 1]
        np.multiply(two_m, v[n], out=row)
        if n:
            np.multiply(c[n - 1], v[n - 1], out=below)
            row -= below
        row *= inv_c[n]
        if n % _RESCALE_EVERY == _RESCALE_EVERY - 1:
            big = (np.abs(v[n : n + 2]) > _RESCALE_AT).any(axis=0)
            if big.any():
                v[: n + 2, big] *= _RESCALE_STEP
    # a row n < N/2 stands for |n> and |N-n>
    v[: n_qubits - half] *= math.sqrt(2.0)
    v /= np.sqrt(np.einsum("nb,nb->b", v, v))
    # the rescaled far edges of the outer columns end up subnormal, and
    # subnormals slow the products down about 1.5x at 2j = 4096
    v[np.abs(v) < np.finfo(float).tiny] = 0.0
    return v


def _parity_blocks(q: SpinQuantum, p: float) -> np.ndarray:
    """exp(-i p Jy) in the eigenbasis of G (see the module docstring), h = N//2 + 1.

    Returns a (2, h, h) stack, the blocks of G = +1 and G = -1 for even
    N, both real, and of G = +i and G = -i for odd N, the second the
    exact conjugate of the first.  The full rotation is never formed.

    Jy = D Jx D^dagger with D = diag((-i)^n), so exp(-i p Jy) =
    D exp(-i p Jx) D^dagger.  D^dagger maps the G-basis vector of row a
    to i^a times the unit vector (|a> + r |N-a>)/sqrt(2) (|N/2> for the
    middle of even N) of the reflection n -> N-n, with r = +-(-1)^(N/2)
    for G = +-1 and r = (-1)^((N+1)/2) for G = +i.  Jx commutes with the
    reflection, so with Jx = V W V^T each block is i^(b-a) U exp(-i p W) U^T
    over the Jx eigenvectors of class r, U their folded unit columns.

    For even N, m and -m share a class, and v(-m) = diag((-1)^n) v(m)
    makes C = U cos(pW) U^T zero at odd a - b and S = U sin(pW) U^T zero
    at even a - b; so U (cos(pW) + sin(pW)) U^T holds both, and the block
    is that times a real sign.  For odd N, -m lies in the other class,
    and the G = +i block takes C and S apart.
    """
    n, half, h = q.n_qubits, q.n_qubits // 2, q.n_qubits // 2 + 1
    m, _ = _ladder(n)
    cols = np.arange(h)
    if n % 2 == 0:
        # the h columns with reflection sign (-1)^(N-k) = +1 first, then the rest
        eigvals = m[np.r_[0 : n + 1 : 2, 1 : n + 1 : 2]]
        angles = p * eigvals
        v = _jx_top_rows(n, eigvals)
        # the middle row of sign -1 is 0 in exact arithmetic, and pads its block
        v[half, h:] = 0.0
        f = np.cos(angles) + np.sin(angles)
        blocks = np.empty((2, h, h))
        for k, cls in ((half % 2, slice(0, h)), (1 - half % 2, slice(h, None))):
            np.matmul(v[:, cls] * f[cls], v[:, cls].T, out=blocks[k])
        for a in range(4):
            blocks[:, a::4] *= _QUARTER_TURN_SIGN[(a - cols) % 4]
        return blocks
    # the class of G = +i alone: m_k for k = N//2 mod 2, whose reflection
    # sign (-1)^(N-k) is (-1)^((N+1)/2)
    eigvals = m[half % 2 :: 2]
    v = _jx_top_rows(n, eigvals)
    cos = np.matmul(v * np.cos(p * eigvals), v.T)
    sin = np.matmul(v * np.sin(p * eigvals), v.T)
    del v
    blocks = np.empty((2, h, h), dtype=complex)
    blocks[0].real = cos
    np.negative(sin, out=blocks[0].imag)
    del cos, sin  # so that at most four (h, h) float arrays are held at once
    for a in range(4):
        blocks[0, a::4] *= (-1j) ** ((a - cols) % 4)
    np.conj(blocks[0], out=blocks[1])
    return blocks


def _g_rows(n_qubits: int, back: bool) -> tuple[np.ndarray, np.ndarray]:
    """Mirror factor and row scale of the G-basis rows a = 0..N//2, as (N//2+1, 1) columns.

    Going in, block k's coordinate of row a is s_a (x_a +- w g_a x_(N-a))
    with g_a = (-1)^(N-a), w = 1 for even N and i for odd N, and
    s_a = 1/sqrt(2); coming back, x_a = s_a (c_0 + c_1) and
    x_(N-a) = s_a (c_0 - c_1) g_a / w.  The middle row of even N has
    a = N-a, and s_a is 1/2 going in and 1 coming back: (x + x)/2 = x
    and (x - x)/2 = 0 exactly, and x_(N/2) is written twice, the same.
    """
    a = np.arange(n_qubits // 2 + 1)
    mirror = (-1.0) ** (n_qubits - a) * (-1j if back else 1j) ** (n_qubits % 2)
    scale = np.full(a.size, math.sqrt(0.5))
    scale[n_qubits - n_qubits // 2 :] = 1.0 if back else 0.5  # empty for odd N
    return mirror[:, None], scale[:, None]


def _parity_coords(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    """(2, N//2+1, K) coordinates in the eigenbasis of G of (N+1, K) Jz amplitude columns.

    Row k holds block k's coefficients, the form _kick_stream carries.
    """
    mirror, scale = _g_rows(n_qubits, back=False)
    top = amps[: scale.size]
    turned = amps[::-1][: scale.size] * mirror
    return np.stack([(top + turned) * scale, (top - turned) * scale])


def _jz_amplitudes(coords: np.ndarray, n_qubits: int) -> np.ndarray:
    """(T, K, N+1) Jz amplitudes of a (T, 2, N//2+1, K) stack of G-basis coordinates.

    The inverse of _parity_coords, for every kick and column at once.
    """
    mirror, scale = _g_rows(n_qubits, back=True)
    h = scale.size
    first, second = coords[:, 0], coords[:, 1]
    amps = np.empty((coords.shape[0], coords.shape[-1], n_qubits + 1), dtype=complex)
    amps[:, :, :h] = ((first + second) * scale).swapaxes(1, 2)
    amps[:, :, ::-1][:, :, :h] = ((first - second) * (mirror * scale)).swapaxes(1, 2)
    return amps


def _kick_stream(q: SpinQuantum, p: float, kappa0s, columns: np.ndarray, n_max: int):
    """Jz amplitudes of (N+1, K) start columns after kicks 1..n_max, column k under kappa0s[k].

    The one kick loop.  It builds the parity blocks and the torsion
    phases exp(-i kappa0 m^2 / (2j)), moves the columns into the
    eigenbasis of G with _parity_coords, and kicks them as a (2, h, K)
    array: one matrix product with the blocks per kick, then the
    torsion.  A single start column is repeated across the K values of
    kappa0, and a single kappa0 is shared by every column.  The kick axis
    is yielded in blocks of at most KICK_BLOCK_AMPLITUDES amplitudes, each
    as the (T, K, N+1) stack of _jz_amplitudes.
    """
    n = q.n_qubits
    blocks = _parity_blocks(q, p)
    m, _ = _ladder(n)
    h = blocks.shape[-1]
    # row a of either block pairs |a> with |N-a>, which share m^2 with
    # m = a - j, so both blocks take the same phases; the row is stored
    # once per block, as one (1, h, K) row broadcast over both made a
    # 200-kick sweep at 2j = 3 about 20 % slower (one BLAS thread)
    torsion = np.exp(-1j * np.asarray(kappa0s, dtype=float) * m[:h, None] ** 2 / (2.0 * q.j))
    phases = np.stack([torsion, torsion])
    k = max(columns.shape[1], torsion.shape[1])
    state = _parity_coords(np.broadcast_to(columns, (n + 1, k)), n)
    # the real blocks of even N act on the real view, (2, h, 2K) floats
    operand = (lambda a: a) if np.iscomplexobj(blocks) else (lambda a: a.view(float))
    per_block = max(1, KICK_BLOCK_AMPLITUDES // (q.dim * k))
    for first in range(0, n_max, per_block):
        kicks = np.empty((min(per_block, n_max - first), 2, h, k), dtype=complex)
        for kick in kicks:
            np.matmul(blocks, operand(state), out=operand(kick))
            np.multiply(phases, kick, out=kick)
            state = kick
        yield _jz_amplitudes(kicks, n)


def floquet(params: KickedTopParams) -> np.ndarray:
    """One-period unitary on the (2j+1)-dimensional symmetric subspace.

    The first kick of the Jz basis columns through the parity blocks:
    column b is the image of |b>, computed as every concurrence series is.
    """
    q = params.q
    (amps,) = next(_kick_stream(q, params.p, [params.kappa0], np.eye(q.dim), 1))
    return amps.T


def evolve(state: np.ndarray, u: np.ndarray, n: int) -> np.ndarray:
    """Apply the one-period unitary n times to a state's amplitudes."""
    _count("kick count", n, 0)
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DomainError(f"operator shape {u.shape} is not square")
    amps = np.asarray(state, dtype=complex)
    if u.shape[0] != amps.shape[0]:
        raise DomainError(f"operator dim {u.shape[0]} does not match state dim {amps.shape[0]}")
    for _ in range(n):
        amps = u @ amps
    return amps


def concurrence_sweep(
    q: SpinQuantum,
    kappa0s: Sequence[float],
    theta0: float,
    phi0: float,
    n_max: int,
    p: float = DEFAULT_PRECESSION,
) -> list[ConcurrenceSeries]:
    """Concurrence of any qubit pair after each of the first n_max kicks, per kappa0.

    Every kappa0 starts from the spin-coherent state at (theta0, phi0),
    and every entry is computed from the actual evolved state; no
    even/odd shortcut is taken, so identities between neighboring kicks
    remain observable facts rather than baked-in assumptions.  Returns
    one series per kappa0, in the order given.
    """
    params = [KickedTopParams(q, kappa0, p) for kappa0 in kappa0s]
    if not params:
        raise DomainError("need at least one kappa0")
    n = _count("n_qubits", q.n_qubits, 2)
    _count("n_max", n_max, 1)
    # the start checks theta0 and phi0, so bad angles fail before the blocks are built
    start = coherent_from_angles(n, theta0, phi0)[:, None]
    c = np.concatenate([
        wootters(reduce_symmetric(collective_expectations(amps.reshape(-1, q.dim)))).concurrence
        for amps in _kick_stream(q, p, kappa0s, start, n_max)
    ]).reshape(n_max, -1)
    return [ConcurrenceSeries(par, theta0, phi0, c[:, i].copy()) for i, par in enumerate(params)]


def concurrence_series(
    params: KickedTopParams, theta0: float, phi0: float, n_max: int
) -> ConcurrenceSeries:
    """Concurrence of any qubit pair after each of the first n_max kicks.

    The one-kappa0 case of concurrence_sweep; the state starts
    spin-coherent at (theta0, phi0).
    """
    (series,) = concurrence_sweep(params.q, [params.kappa0], theta0, phi0, n_max, params.p)
    return series


def _check_burn_in(burn_in: int, n_max: int) -> None:
    """DomainError unless n_max >= 1 and burn_in is in 0..n_max-1, so an entry is left to average.

    n_max is checked first, so a run of no kicks is named as such.
    """
    n_max = _count("n_max", n_max, 1)
    if _count("burn_in", burn_in, 0) >= n_max:
        raise DomainError(f"burn_in {burn_in} leaves no entries out of {n_max}")


def time_average(series: ConcurrenceSeries, burn_in: int) -> float:
    """Mean concurrence over entries with kick index n > burn_in."""
    _check_burn_in(burn_in, series.concurrence.size)
    return float(np.mean(series.concurrence[burn_in:]))

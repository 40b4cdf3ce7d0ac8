"""Physical constants, the config units' factors to rad/s, and shared numeric
scaffolding.

Internal convention: every energy-like number handed between modules is an
angular frequency in rad/s, and library functions take plain rad/s floats.
A config gives a value/unit pair, which the scenario field table multiplies
by the unit's factor in :data:`ANGULAR_UNITS`, so the factor-of-2*pi
bookkeeping lives in exactly one place (this module). Energies map to
angular frequency through E = hbar*omega.

Constants are pinned to CODATA-2018.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# CODATA-2018 values, SI.
HBAR = 1.054571817e-34          # J s
BOLTZMANN = 1.380649e-23        # J / K (exact)
ELEMENTARY_CHARGE = 1.602176634e-19  # C (exact)
BOHR_MAGNETON = 9.2740100783e-24     # J / T
GAMMA_PROTON = 2.6752218744e8        # rad / (s T), free proton

TWO_PI = 2.0 * math.pi


# The config unit of each energy-like quantity and its factor to rad/s, in the
# order the schema lists them. eV converts through E = hbar*omega; ordinary
# frequencies pick up 2*pi.
ANGULAR_UNITS = {
    "eV": ELEMENTARY_CHARGE / HBAR,
    "THz": TWO_PI * 1e12,
    "GHz": TWO_PI * 1e9,
    "MHz": TWO_PI * 1e6,
    "kHz": TWO_PI * 1e3,
    "rad/s": 1.0,
}


def unit_scaled(a: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """(a / top, top), top the largest |entry| of ``a`` or 1.0 if all are 0: every matrix
    check runs on a / top, so no norm overflows. Raises DomainError for a non-finite entry."""
    top = float(np.abs(a).max(initial=0.0)) or 1.0
    if not math.isfinite(top):
        raise DomainError(f"{what} has non-finite entries")
    return a / top, top


def bose_occupation(omega, temperature: float):
    """Mean thermal occupation of a mode at angular frequency omega.

    Parameters
    ----------
    omega : float or array of float
        Mode angular frequencies in rad/s, each strictly positive (not NaN).
    temperature : float
        Temperature in kelvin, non-negative. Exactly zero gives exactly 0.

    Returns
    -------
    float or ndarray
        1 / (exp(hbar*omega / k_B T) - 1), monotone increasing in T and
        decreasing in omega; a float for a scalar omega.
    """
    w = np.asarray(omega, dtype=float)
    if not np.all(w > 0.0):
        raise DomainError(f"omega must be positive, got {w[~(w > 0.0)][0]}")
    if temperature < 0.0:
        raise DomainError(f"temperature must be non-negative, got {temperature}")
    x = HBAR * w / (BOLTZMANN * temperature) if temperature > 0.0 else w * math.inf
    live = x <= 700.0  # above 700 (and at T = 0) exp would overflow; n is 0 there
    n = np.where(live, 1.0 / np.expm1(np.where(live, x, 1.0)), 0.0)
    return float(n) if w.ndim == 0 else n


@functools.cache
def _graded_rule():
    """Offsets from the nearer end and weights of the panels [0, 2^-48], [2^-48, 2^-47],
    ..., [1/4, 1/2] of half of [0, 1], with 32 then 16 Gauss-Legendre nodes each."""
    edges = np.concatenate([[0.0], 2.0 ** np.arange(-48.0, 0.0)])
    mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    x, w = map(np.concatenate, zip(*(np.polynomial.legendre.leggauss(n) for n in (32, 16))))
    return mid[:, None] + half[:, None] * x, half[:, None] * w


def quad(integrand, lo: float, hi: float) -> tuple[float, float]:
    """(integral of integrand over [lo, hi], error estimate) by one fixed rule:
    panels halving toward both ends down to 2^-48 of the interval, so a Bose scale
    or a density peak far below it is resolved, 32-node Gauss-Legendre on each, and
    |Q32 - Q16| summed over the panels. integrand maps all nodes, as one array."""
    offsets, weights = _graded_rule()
    span = hi - lo
    f = integrand(np.concatenate([lo + span * offsets, hi - span * offsets]))
    panels = span * np.concatenate([weights, weights]) * f
    q32, q16 = panels[:, :32].sum(axis=1), panels[:, 32:].sum(axis=1)
    return float(q32.sum()), float(np.abs(q32 - q16).sum())


# Numerator coefficients of the degree-13 Padé approximant to exp, and the
# 1-norm up to which it meets double precision unscaled (Higham 2005, Table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def solve_ivp_on_lookup(module: str):
    """A module ``__getattr__`` that resolves the name ``solve_ivp`` alone,
    importing scipy.integrate only when that name is looked up, so that no
    run loads scipy."""

    def lookup(name):
        if name == "solve_ivp":
            from scipy.integrate import solve_ivp

            return solve_ivp
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    return lookup


def expm(a) -> np.ndarray:
    """Matrix exponential of each square matrix in the stack ``a`` (..., n, n):
    the degree-13 Padé approximant with scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179, 2005). Each matrix is scaled by 2^-s, with
    the fewest s that brings its 1-norm to at most theta_13, and its
    approximant is squared s times. A zero row of a matrix gives exactly the
    identity's row of its exponential."""
    a = np.asarray(a)
    stack = a.reshape((-1,) + a.shape[-2:])
    norms = np.abs(stack).sum(axis=-2).max(axis=-1)
    squarings = np.maximum(0, np.ceil(np.log2(np.maximum(norms, 1e-300) / _THETA13))).astype(int)
    x = stack * np.ldexp(1.0, -squarings)[:, None, None]
    b = _PADE13
    ident = np.eye(a.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2) + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident
    # r = (v + u)(v - u)^-1 = 1 + 2 u (v - u)^-1. Solved from the right, a
    # zero row of u gives an exactly zero row of the solution, so r keeps
    # the identity's row there, and so does every square of r.
    r = ident + 2.0 * np.linalg.solve((v - u).swapaxes(-1, -2), u.swapaxes(-1, -2)).swapaxes(-1, -2)
    for k in range(int(squarings.max(initial=0))):
        again = squarings > k
        r[again] = r[again] @ r[again]
    return r.reshape(a.shape)


# CF4 (Blanes and Moan, Appl. Numer. Math. 56, 1519, 2006): a step applies
# exp(dt (q A1 + p A2)) exp(dt (p A1 + q A2)) with A at its two Gauss nodes,
# p, q = 1/4 +- sqrt(3)/6; row k of _CF4_WEIGHTS weighs (A1, A2) in the k-th
# exponent to act. One block of _CF4_BLOCK steps bounds the scratch arrays and
# holds every pinned Raman segment (1608 steps at most).
_CF4_NODES = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)
_CF4_WEIGHTS = 0.25 + np.array([[1.0, -1.0], [-1.0, 1.0]]) * (math.sqrt(3.0) / 6.0)
_CF4_BLOCK = 2048

# The most CF4 steps one propagation may take, counted before any array is
# built: one Raman write-stage segment, or a crot gate's coarse pass and its
# three halvings together. It admits every shipped config and every gate of
# the tier-1 tests at their own step density (at most 9,177 steps); at the
# budget a gate takes 0.6 s and a segment 0.3 s on one core of a 2-core
# x86-64 host.
CF4_STEP_BUDGET = 1 << 15


def cf4_propagator(constant, drives, start: float, stop: float, steps: int) -> np.ndarray:
    """Propagator of x' = A(t) x from start to stop in ``steps`` equal CF4
    steps, A(t) = constant + sum_k f_k(t) B_k over the (f_k, B_k) pairs of
    ``drives``, f_k mapping an array of times to its values. Each block of
    _CF4_BLOCK steps takes one stacked expm and a pairwise product and is
    folded into the running product, later factors on the left. A factor is
    a contraction when the Hermitian part of A is negative semidefinite, and
    unitary to rounding when A is anti-Hermitian."""
    dt = (stop - start) / steps
    half = (0.5 * dt) * constant
    u = None
    for first in range(0, steps, _CF4_BLOCK):
        nodes = start + dt * (np.arange(first, min(first + _CF4_BLOCK, steps))[:, None] + _CF4_NODES)
        exponents = np.repeat(half[None], 2 * len(nodes), axis=0)
        for envelope, coupling in drives:
            exponents += (dt * (envelope(nodes) @ _CF4_WEIGHTS.T)).reshape(-1, 1, 1) * coupling
        factors = expm(exponents)
        while len(factors) > 1:
            if len(factors) % 2:
                factors = np.concatenate((factors, np.eye(len(half))[None]))
            factors = factors[1::2] @ factors[0::2]
        u = factors[0] if u is None else factors[0] @ u
    return u


# A box's moment expansion serves the targets at least _FAR box half-widths
# from its centre, and _EPS bounds its truncation error there relative to the
# box's own contribution. _BLOCK caps the elements of each scratch array.
_FAR = 4.0
_EPS = 1e-15
_BLOCK = 1 << 14


def _expansion_terms(rho: float) -> int:
    """Fewest moments P that meet _EPS for poles within rho box half-widths of
    the box centre. With u the pole and t the target in half-widths from the
    centre, the truncation error of 1/(p - f) is (u/t)^P / (t - u) over the
    half-width: its imaginary part is at most Im(u) times its largest
    u-derivative, and the exact imaginary part is at least Im(u) / (|t| + rho)^2."""
    p = np.arange(1, 100)
    r = rho / _FAR
    bound = (p / _FAR * r ** (p - 1) / (_FAR - rho) + r**p / (_FAR - rho) ** 2) * (_FAR + rho) ** 2
    return int(p[np.argmax(bound <= _EPS)])


def _direct_sum(out, freqs, centers, halves, weights):
    """Add the given lines to out at freqs, a block of lines at a time."""
    step = max(1, _BLOCK // max(1, freqs.size))
    for k in range(0, centers.size, step):
        c, h, w = (a[k : k + step, None] for a in (centers, halves, weights))
        out += (w * (h / math.pi) / ((freqs - c) ** 2 + h**2)).sum(axis=0)


def _multipole_sum(out, freqs, centers, halves, weights, box, start, half_box):
    """Add lines narrower than their box to out at the sorted freqs: the box
    expansions at far targets, the box's lines directly at near ones. Line j
    lies in box box[j], of half-width half_box, box 0 starting at start."""
    by_box = np.argsort(box, kind="stable")
    box, centers, halves, weights = box[by_box], centers[by_box], halves[by_box], weights[by_box]
    firsts = np.flatnonzero(np.diff(box, prepend=-1))
    mids = start + (2.0 * box[firsts] + 1.0) * half_box
    u = (centers - (start + (2.0 * box + 1.0) * half_box)) / half_box - 1j * (halves / half_box)
    terms = _expansion_terms(float(np.abs(u).max()))
    # coefs[k, b]: -Im(sum_j w_j u_j^k) / (pi s); the k = 0 moment is real.
    coefs = np.zeros((terms, firsts.size))
    power = weights.astype(complex)
    for k in range(1, terms):
        power *= u
        coefs[k] = np.add.reduceat(power.imag, firsts)
    coefs *= -1.0 / (math.pi * half_box)

    rows = max(1, _BLOCK // firsts.size)
    for k in range(0, freqs.size, rows):
        d = freqs[k : k + rows, None] - mids
        far = np.abs(d) >= _FAR * half_box
        if not far.any():
            continue
        x = np.divide(half_box, d, out=np.zeros_like(d), where=far)
        acc = np.zeros_like(d)
        for coef in coefs[::-1]:
            acc += coef
            acc *= x
        out[k : k + rows] += acc.sum(axis=1)

    lasts = np.append(firsts[1:], centers.size)
    for mid, a, b in zip(mids, firsts, lasts):
        d = freqs - mid
        lo = np.searchsorted(d, -_FAR * half_box, side="right")
        hi = np.searchsorted(d, _FAR * half_box, side="left")
        _direct_sum(out[lo:hi], freqs[lo:hi], centers[a:b], halves[a:b], weights[a:b])


def _boxes(freqs, centers, halves, start, span):
    """(half_box, box) for the line sum: the half-width of the equal boxes
    over the line span and each line's box, or (0, None) for the direct sum.

    The candidates are the power-of-two box counts up to the line count whose
    half-width span / 2^(level + 1) exceeds the narrowest half-width. A
    candidate's work is its wide lines (h >= the box half-width) times the
    targets, each occupied box's lines times its near targets, and P times
    the targets times the occupied boxes plus the narrow lines, P the moment
    count for poles within sqrt(2) half-widths; the direct sum's is the lines
    times the targets. Each line is counted once, in its box at the finest
    level where it is narrow, and each level's occupancy is the pairwise sum
    of the next finer one's plus its own lines: O(lines + boxes) in all.
    Every candidate's work is at least P times the targets, so at most P
    lines are summed directly with no estimate made.
    """
    terms = _expansion_terms(math.sqrt(2.0))
    finest = centers.size.bit_length() - 1
    while finest >= 0 and span / 2.0 ** (finest + 1) <= halves.min():
        finest -= 1
    if finest < 0 or centers.size <= terms:
        return 0.0, None
    half_boxes = span / 2.0 ** np.arange(1, finest + 2)
    finest_box = ((centers - start) / (2.0 * half_boxes[-1])).astype(int)
    np.minimum(finest_box, (1 << finest) - 1, out=finest_box)
    # Line j is narrow at the levels below narrow[j]; it is counted at the
    # last. pyramid[2^level - 1 + b] holds the narrow lines of box b at level.
    narrow = np.searchsorted(-half_boxes, -halves, side="left")
    counted = narrow > 0
    last = narrow[counted] - 1
    pyramid = np.bincount(
        (1 << last) - 1 + (finest_box[counted] >> (finest - last)), minlength=(2 << finest) - 1
    )
    for level in range(finest - 1, -1, -1):
        pyramid[(1 << level) - 1 : (2 << level) - 1] += (
            pyramid[(2 << level) - 1 : (4 << level) - 1].reshape(-1, 2).sum(axis=1)
        )
    best, least = -1, centers.size * freqs.size
    for level, half_box in enumerate(half_boxes):
        counts = pyramid[(1 << level) - 1 : (2 << level) - 1]
        occupied = np.flatnonzero(counts)
        mids = start + (2.0 * occupied + 1.0) * half_box
        near = np.searchsorted(freqs, mids + _FAR * half_box, side="left") - np.searchsorted(
            freqs, mids - _FAR * half_box, side="right"
        )
        lines = int(counts.sum())
        work = (
            (centers.size - lines) * freqs.size
            + int(counts[occupied] @ near)
            + terms * (freqs.size * occupied.size + lines)
        )
        if work < least:
            best, least = level, work
    if best < 0:
        return 0.0, None
    return half_boxes[best], finest_box >> (finest - best)


def lorentzian_sum(freqs, centers, fwhms, weights) -> np.ndarray:
    """Sum over lines j of weights[j] times a Lorentzian of unit area centred
    at centers[j] with FWHM fwhms[j] > 0, sampled on the array ``freqs``.

    The sum is (1/pi) Im sum_j w_j / (p_j - f) over poles p_j = c_j - i h_j
    (h_j the half-width), evaluated by a one-level fast multipole method
    (Greengard and Rokhlin, J. Comput. Phys. 73, 325, 1987). The centres are
    binned into equal boxes of half-width s. Each box keeps P moments of its
    poles about the box centre in units of s, so that they stay O(1) at
    optical offsets. A target at least 4 s from a box centre takes that box's
    expansion, a nearer target its lines directly, and a line at least as
    wide as s is summed directly everywhere. The box count is the power of
    two, with no box narrower than the narrowest line, of least estimated
    work for where the lines and their widths lie (_boxes), so clustered
    lines get boxes sized to their clusters. Where the direct sum's work is
    less, as for a few lines, every line is summed directly. P keeps the
    truncation error below 1e-15 of the expanded lines' own contribution at
    each target, so for non-negative weights the result is the ordered sum
    over lines up to rounding. Lines x targets and targets x boxes are taken
    in blocks of at most 2^14 elements. For lines spread over their span the
    work grows as targets x sqrt(lines) + lines, not as targets x lines.

    Raises DomainError when an offset or a half-width overflows its square.
    """
    f = np.asarray(freqs, dtype=float)
    c = np.asarray(centers, dtype=float)
    h = 0.5 * np.asarray(fwhms, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not (c.size and f.size):
        return np.zeros(f.shape)
    reach, widest = float(np.abs(f).max()) + float(np.abs(c).max()), float(h.max())
    if max(reach, widest) >= math.sqrt(np.finfo(float).max):
        raise DomainError(
            f"Lorentzian offset {reach:.3e} or half-width {widest:.3e} overflows its square"
        )
    order = np.argsort(f, axis=None, kind="stable")
    fs = f.ravel()[order]
    start, span = float(c.min()), float(c.max() - c.min())
    # With half_box 0 every line is wide and summed directly.
    half_box, box = _boxes(fs, c, h, start, span) if span > 0.0 else (0.0, None)
    sums = np.zeros(fs.size)
    wide = h >= half_box
    _direct_sum(sums, fs, c[wide], h[wide], w[wide])
    if not wide.all():
        narrow = ~wide
        _multipole_sum(sums, fs, c[narrow], h[narrow], w[narrow], box[narrow], start, half_box)
    out = np.empty(fs.size)
    out[order] = sums
    return out.reshape(f.shape)


@dataclass(frozen=True)
class FrequencyGrid:
    """A uniform, strictly increasing grid of angular frequencies (rad/s)."""

    start: float
    stop: float
    points: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("grid endpoints must be finite")
        if self.stop <= self.start:
            raise ValueError(
                f"grid must be strictly increasing, got [{self.start}, {self.stop}]"
            )
        if int(self.points) != self.points or self.points < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.points}")

    @functools.cached_property
    def frequencies(self) -> np.ndarray:
        """The grid points, computed once per grid and read-only."""
        freqs = np.linspace(self.start, self.stop, int(self.points))
        freqs.flags.writeable = False
        return freqs

    @property
    def spacing(self) -> float:
        return (self.stop - self.start) / (int(self.points) - 1)

"""Physical constants, unit-tagged quantities, and shared numeric scaffolding.

Internal convention: every energy-like number handed between modules is an
angular frequency in rad/s. Public entry points accept tagged quantities and
convert on the way in, so the factor-of-2*pi bookkeeping lives in exactly one
place (this module). Energies map to angular frequency through E = hbar*omega.

Constants are pinned to CODATA-2018.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IncompatibleUnits

# CODATA-2018 values, SI.
HBAR = 1.054571817e-34          # J s
PLANCK = 6.62607015e-34         # J s (exact)
BOLTZMANN = 1.380649e-23        # J / K (exact)
ELEMENTARY_CHARGE = 1.602176634e-19  # C (exact)
BOHR_MAGNETON = 9.2740100783e-24     # J / T
G_ELECTRON_FREE = 2.00231930436256   # dimensionless
GAMMA_PROTON = 2.6752218744e8        # rad / (s T), free proton

TWO_PI = 2.0 * math.pi


class Unit(enum.Enum):
    """Unit tags understood by :func:`convert`."""

    EV = "eV"
    THZ = "THz"
    GHZ = "GHz"
    MHZ = "MHz"
    KHZ = "kHz"
    RAD_PER_S = "rad/s"
    KELVIN = "K"
    TESLA = "T"
    SECOND = "s"
    DIMENSIONLESS = "1"


# Multiplicative factor taking one unit of each energy-like tag to rad/s.
# eV converts through E = hbar*omega; ordinary frequencies pick up 2*pi.
_TO_RAD_PER_S = {
    Unit.EV: ELEMENTARY_CHARGE / HBAR,
    Unit.THZ: TWO_PI * 1e12,
    Unit.GHZ: TWO_PI * 1e9,
    Unit.MHZ: TWO_PI * 1e6,
    Unit.KHZ: TWO_PI * 1e3,
    Unit.RAD_PER_S: 1.0,
}


@dataclass(frozen=True)
class Quantity:
    """A scalar tagged with one of the supported units."""

    value: float
    unit: Unit

    def __post_init__(self):
        if not isinstance(self.unit, Unit):
            raise IncompatibleUnits(f"unknown unit tag {self.unit!r}")
        if not math.isfinite(self.value):
            raise DomainError(f"quantity value must be finite, got {self.value!r}")

    def to(self, target: Unit) -> "Quantity":
        return convert(self, target)

    @property
    def rad_per_s(self) -> float:
        """The value as angular frequency; raises for non-energy-like tags."""
        return convert(self, Unit.RAD_PER_S).value


def convert(quantity: Quantity, target: Unit) -> Quantity:
    """Convert a tagged quantity to another unit of the same dimension.

    Energy-like tags (eV, THz, GHz, MHz, kHz, rad/s) interconvert through
    E = hbar*omega. Kelvin, tesla, seconds, and dimensionless convert only
    to themselves; temperature never silently becomes an energy (use
    :func:`thermal_frequency` for that, explicitly).
    """
    if not isinstance(target, Unit):
        raise IncompatibleUnits(f"unknown unit tag {target!r}")
    if quantity.unit is target:
        return Quantity(quantity.value, target)
    if quantity.unit in _TO_RAD_PER_S and target in _TO_RAD_PER_S:
        rad = quantity.value * _TO_RAD_PER_S[quantity.unit]
        return Quantity(rad / _TO_RAD_PER_S[target], target)
    raise IncompatibleUnits(
        f"cannot convert {quantity.unit.value} to {target.value}"
    )


def thermal_frequency(temperature: float) -> float:
    """k_B*T expressed as an angular frequency in rad/s.

    The explicit temperature-to-energy operation; nothing else in the
    package performs this conversion implicitly.
    """
    if temperature < 0.0:
        raise DomainError(f"temperature must be non-negative, got {temperature}")
    return BOLTZMANN * temperature / HBAR


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


def _multipole_sum(out, freqs, centers, halves, weights, start, half_box, boxes):
    """Add lines narrower than their box to out at the sorted freqs: the box
    expansions at far targets, the box's lines directly at near ones."""
    box = np.minimum(((centers - start) / (2.0 * half_box)).astype(int), boxes - 1)
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
    wide as s is summed directly everywhere. The box count balances the
    direct and the expansion work for the line count, the line span and the
    target span; when every target would be near every box, as for a few
    lines, all lines are summed directly. P keeps the truncation error below
    1e-15 of the expanded lines' own contribution at each target, so for
    non-negative weights the result is the ordered sum over lines up to
    rounding. Lines x targets and targets x boxes are taken in blocks of at
    most 2^14 elements. For lines spread over their span the work grows as
    targets x sqrt(lines) + lines, not as targets x lines.

    Raises OverflowError when an offset or a half-width overflows its square.
    """
    f = np.asarray(freqs, dtype=float)
    c = np.asarray(centers, dtype=float)
    h = 0.5 * np.asarray(fwhms, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not (c.size and f.size):
        return np.zeros(f.shape)
    reach, widest = float(np.abs(f).max()) + float(np.abs(c).max()), float(h.max())
    if max(reach, widest) >= math.sqrt(np.finfo(float).max):
        raise OverflowError(
            f"Lorentzian offset {reach:.3e} or half-width {widest:.3e} overflows its square"
        )
    order = np.argsort(f, axis=None, kind="stable")
    fs = f.ravel()[order]
    start, span, target_span = float(c.min()), float(c.max() - c.min()), float(fs[-1] - fs[0])
    # A box's near zone is _FAR box widths wide. Where it would hold every
    # target, half_box stays 0 and every line is summed directly.
    boxes, half_box = 1, 0.0
    if span > 0.0 and target_span > 0.0:
        balance = _FAR * c.size * span / (target_span * _expansion_terms(math.sqrt(2.0)))
        boxes = int(min(c.size, max(1.0, round(math.sqrt(balance)))))
        if boxes * target_span > _FAR * span:
            half_box = 0.5 * span / boxes
    sums = np.zeros(fs.size)
    wide = h >= half_box
    _direct_sum(sums, fs, c[wide], h[wide], w[wide])
    if not wide.all():
        narrow = ~wide
        _multipole_sum(sums, fs, c[narrow], h[narrow], w[narrow], start, half_box, boxes)
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
            raise DomainError("grid endpoints must be finite")
        if self.stop <= self.start:
            raise DomainError(
                f"grid must be strictly increasing, got [{self.start}, {self.stop}]"
            )
        if int(self.points) != self.points or self.points < 2:
            raise DomainError(f"grid needs at least 2 points, got {self.points}")

    @functools.cached_property
    def frequencies(self) -> np.ndarray:
        """The grid points, computed once per grid and read-only."""
        freqs = np.linspace(self.start, self.stop, int(self.points))
        freqs.flags.writeable = False
        return freqs

    @property
    def spacing(self) -> float:
        return (self.stop - self.start) / (int(self.points) - 1)

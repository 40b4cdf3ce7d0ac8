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


def lorentzian_sum(freqs, centers, fwhms, weights) -> np.ndarray:
    """Sum over lines j of weights[j] times a Lorentzian of unit area centred
    at centers[j] with FWHM fwhms[j], sampled on the array ``freqs``.

    Lines are added one at a time in the given order: a lines x grid array
    would cost memory, and another summation order would change the bytes.
    """
    out = np.zeros_like(freqs)
    for center, fwhm, weight in zip(centers, fwhms, weights):
        half = 0.5 * fwhm
        out += weight * (half / math.pi) / ((freqs - center) ** 2 + half**2)
    return out


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

    @property
    def frequencies(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, int(self.points))

    @property
    def spacing(self) -> float:
        return (self.stop - self.start) / (int(self.points) - 1)

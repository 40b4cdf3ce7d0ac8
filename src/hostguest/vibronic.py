"""Vibronic coupling: Franck-Condon progressions, Debye-Waller factor,
normalized emission spectra, and the energy-gap law for intersystem crossing.

Vibron modes are discrete intramolecular oscillators with Huang-Rhys factors;
the host phonon continuum enters through a superohmic spectral density
J(w) = c * (w^3 / w_p^3) * exp(-w / w_p) truncated at the cutoff, whose
emission wing J(w)/w^2 * (n+1) peaks at w_p in the low-temperature limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, GridTooNarrow, IntegrationFailure
from .units import FrequencyGrid, bose_occupation, lorentzian_sum, thermal_frequency, where

_WEIGHT_FLOOR = 1e-12  # vibronic lines below this total weight are dropped
_MAX_QUANTA = 200  # longest progression kept per vibron mode


def franck_condon_progression(huang_rhys: float, max_quanta: int) -> np.ndarray:
    """Zero-temperature Franck-Condon factors P(m) = exp(-S) S^m / m!.

    Returns the array P(0..max_quanta), computed by stable upward recursion.
    """
    if huang_rhys < 0.0:
        raise DomainError(f"Huang-Rhys factor must be non-negative, got {huang_rhys}")
    if max_quanta < 0:
        raise DomainError(f"max_quanta must be non-negative, got {max_quanta}")
    out = np.empty(max_quanta + 1)
    out[0] = math.exp(-huang_rhys)
    for m in range(1, max_quanta + 1):
        out[m] = out[m - 1] * huang_rhys / m
    return out


@dataclass(frozen=True)
class VibronMode:
    """One intramolecular mode: frequency (rad/s), Huang-Rhys factor, and
    the population relaxation rate (rad/s) that broadens its emission lines."""

    frequency: float
    huang_rhys: float
    relaxation_rate: float

    def __post_init__(self):
        if self.frequency <= 0.0:
            raise ValueError(f"mode frequency must be positive, got {self.frequency}")
        if self.huang_rhys < 0.0:
            raise ValueError(f"Huang-Rhys factor must be non-negative")
        if self.relaxation_rate < 0.0:
            raise ValueError(f"relaxation rate must be non-negative")


@dataclass(frozen=True)
class PhononSpectralDensity:
    """Superohmic host spectral density with exponential cutoff.

    J(w) = coupling_weight * (w/peak_frequency)^3 * exp(-w/peak_frequency),
    truncated above cutoff_frequency. The dimensionless coupling_weight sets
    the integrated wing strength; peak_frequency is where the one-phonon
    emission wing J(w)/w^2*(n+1) is maximal at low temperature.
    """

    coupling_weight: float
    peak_frequency: float
    cutoff_frequency: float

    def __post_init__(self):
        if not (self.cutoff_frequency > self.peak_frequency > 0.0):
            raise ValueError("need cutoff_frequency > peak_frequency > 0")
        if self.coupling_weight < 0.0:
            raise ValueError("coupling_weight must be non-negative")

    def density(self, omega):
        """J(omega); accepts scalars or arrays, zero outside (0, cutoff]."""
        w = np.asarray(omega, dtype=float)[()]  # a numpy float for a scalar
        x = w / self.peak_frequency
        j = self.coupling_weight * x**3 * np.exp(-x)
        j = where((w > 0.0) & (w <= self.cutoff_frequency), j, 0.0)
        return float(j) if np.isscalar(j) else j

    def one_phonon(self, delta, temperature: float):
        """One-phonon sideband density at the offset delta = w_zpl - w, for
        scalars or arrays: J(|d|)/d^2 (n(|d|,T) + 1) for d > 0 (Stokes),
        J(|d|)/d^2 n(|d|,T) for d < 0 (anti-Stokes), 0 at d = 0 and above
        the cutoff. It integrates to the phonon exponent, and S(w) S(w_v - w)
        is the two-phonon decay integrand."""
        d = np.asarray(delta, dtype=float)[()]  # a numpy float for a scalar
        w = np.abs(d)
        # Off the support (0, cutoff], evaluate past the cutoff, where J is 0.
        w = where((w > 0.0) & (w <= self.cutoff_frequency), w, 2.0 * self.cutoff_frequency)
        s = self.density(w) / (w * w) * (bose_occupation(w, temperature) + (d > 0.0))
        return float(s) if np.isscalar(s) else s


@dataclass(frozen=True)
class ActivatedDephasing:
    """Optional thermally activated pure-dephasing linewidth b*exp(-Ea/kB T);
    amplitude and activation energy are both angular frequencies (rad/s)."""

    amplitude: float
    activation_energy: float

    def rate(self, temperature: float) -> float:
        if temperature <= 0.0:
            return 0.0
        return self.amplitude * math.exp(
            -self.activation_energy / thermal_frequency(temperature)
        )


@dataclass(frozen=True)
class VibronicModel:
    """Emitter model: ZPL position, radiative rate, vibron modes, phonons.

    zpl_frequency and radiative_rate (the ZPL FWHM floor) are in rad/s;
    temperature in kelvin. extra_linewidth adds a static pure-dephasing
    contribution to the ZPL width, and activated_dephasing an Arrhenius one.
    """

    zpl_frequency: float
    radiative_rate: float
    vibron_modes: tuple[VibronMode, ...] = field(default=())
    phonon_density: PhononSpectralDensity | None = None
    temperature: float = 0.0
    extra_linewidth: float = 0.0
    activated_dephasing: ActivatedDephasing | None = None

    def __post_init__(self):
        object.__setattr__(self, "vibron_modes", tuple(self.vibron_modes))
        if self.zpl_frequency <= 0.0:
            raise ValueError("zpl_frequency must be positive")
        if self.radiative_rate <= 0.0:
            raise ValueError("radiative_rate must be positive")
        if self.temperature < 0.0:
            raise ValueError("temperature must be non-negative")
        if self.extra_linewidth < 0.0:
            raise ValueError("extra_linewidth must be non-negative")

    @property
    def zpl_linewidth(self) -> float:
        """ZPL FWHM: radiative floor plus any pure-dephasing contributions."""
        width = self.radiative_rate + self.extra_linewidth
        if self.activated_dephasing is not None:
            width += self.activated_dephasing.rate(self.temperature)
        return width


def _phonon_exponent(density: PhononSpectralDensity | None, temperature: float) -> float:
    """integral of J(w)/w^2 * (2 n(w,T) + 1) dw over the truncated support."""
    if density is None or density.coupling_weight == 0.0:
        return 0.0

    def integrand(w):
        return density.one_phonon(w, temperature) + density.one_phonon(-w, temperature)

    value, abserr = quad(
        integrand, 0.0, density.cutoff_frequency, epsabs=1e-14, epsrel=1e-10, limit=200
    )
    if abserr > 1e-8 * max(abs(value), 1.0):
        raise IntegrationFailure(
            f"phonon-exponent quadrature error {abserr:.2e} exceeds tolerance"
        )
    return value


def _coupling_exponents(model: VibronicModel) -> tuple[float, float]:
    """(vibron, phonon) exponents: sum_i S_i (2 n(w_i,T)+1) and
    integral J(w)/w^2 (2 n(w,T)+1) dw."""
    vibron = 0.0
    for mode in model.vibron_modes:
        occ = bose_occupation(mode.frequency, model.temperature)
        vibron += mode.huang_rhys * (2.0 * occ + 1.0)
    return vibron, _phonon_exponent(model.phonon_density, model.temperature)


def debye_waller(model: VibronicModel) -> float:
    """Fraction of the emission carried by the zero-phonon line.

    exp(-sum_i S_i (2 n(w_i,T)+1) - integral J(w)/w^2 (2 n(w,T)+1) dw);
    equals 1 for a bare emitter and decreases strictly with temperature
    whenever any coupling is present.
    """
    vibron, phonon = _coupling_exponents(model)
    return math.exp(-(vibron + phonon))


def zpl_branching_ratio(model: VibronicModel) -> float:
    """Integrated ZPL weight of the normalized emission spectrum.

    Coincides with the Debye-Waller factor by construction of
    :func:`emission_spectrum`.
    """
    return debye_waller(model)


def _vibron_lines(model: VibronicModel):
    """Multi-mode zero-temperature Franck-Condon lines excluding the origin.

    Yields (red shift in rad/s, relative weight, added FWHM); weights carry
    the product Poisson structure and sum to 1 - prod_i P_i(0) up to the
    pruning floor. Each mode keeps its quanta m <= _MAX_QUANTA with
    P(m) >= _WEIGHT_FLOOR (a weight below the floor stays below it in every
    product) and raises DomainError if they miss more than 1e-10 of 1.
    """
    lines = [(0.0, 1.0, 0.0)]
    for mode in model.vibron_modes:
        s = mode.huang_rhys
        probs = franck_condon_progression(s, _MAX_QUANTA).tolist()
        kept = [(m, p) for m, p in enumerate(probs) if p >= _WEIGHT_FLOOR]
        missing = 1.0 - math.fsum(p for _, p in kept)
        if missing > 1e-10:
            raise DomainError(
                f"Huang-Rhys factor {s!r} needs more than {_MAX_QUANTA} vibron "
                f"quanta: the kept Franck-Condon weights miss {missing:.2e}"
            )
        lines = [
            (shift + m * mode.frequency, weight * p, width + m * mode.relaxation_rate)
            for shift, weight, width in lines
            for m, p in kept
            if weight * p >= _WEIGHT_FLOOR
        ]
    return [(s, w, b) for s, w, b in lines if s > 0.0]


@dataclass(frozen=True)
class Spectrum:
    """A non-negative spectral density on a grid, normalized to unit integral.

    zpl_weight is the zero-phonon-line weight :func:`emission_spectrum`
    assigned, which is the Debye-Waller factor of its model; None for a
    spectrum built otherwise.
    """

    grid: FrequencyGrid
    intensity: np.ndarray
    zpl_weight: float | None = None

    def __post_init__(self):
        intensity = np.asarray(self.intensity, dtype=float)
        if intensity.shape != (int(self.grid.points),):
            raise ValueError("intensity length must match the grid")
        if np.any(intensity < 0.0):
            raise ValueError("spectral intensity must be non-negative")
        area = float(np.trapezoid(intensity, self.grid.frequencies))
        if abs(area - 1.0) > 1e-6:
            raise ValueError(f"spectrum integral {area!r} deviates from 1 beyond 1e-6")
        object.__setattr__(self, "intensity", intensity)

    @property
    def frequencies(self) -> np.ndarray:
        return self.grid.frequencies


def emission_spectrum(model: VibronicModel, grid: FrequencyGrid) -> Spectrum:
    """Normalized emission spectrum: ZPL, vibronic lines, one-phonon wing.

    The ZPL Lorentzian carries exactly the Debye-Waller weight; the
    remaining weight is split between the discrete vibronic progression
    (zero-temperature Franck-Condon structure, lifetime-broadened per mode)
    and the one-phonon wing shaped by J(w)/w^2 with Stokes (n+1) and
    anti-Stokes (n) branches, in proportion to their coupling exponents.
    The sampled spectrum is renormalized to unit trapezoid integral, so the
    grid must resolve and contain all structure for the weights to be
    faithful.
    """
    zpl = model.zpl_frequency
    gamma = model.zpl_linewidth
    max_vibron = max((m.frequency for m in model.vibron_modes), default=0.0)
    lo_required = zpl - 1.2 * max_vibron
    hi_required = zpl + 5.0 * model.radiative_rate
    if grid.start > lo_required or grid.stop < hi_required:
        raise GridTooNarrow(
            f"grid [{grid.start:.3e}, {grid.stop:.3e}] must span "
            f"[{lo_required:.3e}, {hi_required:.3e}]"
        )

    vibron_exponent, phonon_exponent = _coupling_exponents(model)
    total_exponent = vibron_exponent + phonon_exponent
    alpha = math.exp(-total_exponent)

    freqs = grid.frequencies
    centers, fwhms, weights = [zpl], [gamma], [alpha]
    wing = 0.0
    sideband_weight = 1.0 - alpha
    if total_exponent > 0.0 and sideband_weight > 0.0:
        vibron_share = sideband_weight * vibron_exponent / total_exponent
        wing_share = sideband_weight * phonon_exponent / total_exponent

        lines = _vibron_lines(model)
        if lines and vibron_share > 0.0:
            norm = sum(w for _, w, _ in lines)
            for shift, weight, extra in lines:
                centers.append(zpl - shift)
                fwhms.append(gamma + extra)
                weights.append(vibron_share * weight / norm)

        if wing_share > 0.0 and model.phonon_density is not None:
            shape = model.phonon_density.one_phonon(zpl - freqs, model.temperature)
            wing = wing_share * shape / phonon_exponent  # shape integrates to the exponent
    intensity = lorentzian_sum(freqs, centers, fwhms, weights) + wing

    area = float(np.trapezoid(intensity, freqs))
    if area <= 0.0:
        raise GridTooNarrow("grid captures no spectral weight")
    return Spectrum(grid=grid, intensity=intensity / area, zpl_weight=alpha)


def energy_gap_isc_rate(prefactor: float, gap_slope: float, energy_gap: float) -> float:
    """Energy-gap law for intersystem crossing: rate = A * exp(-gamma * dE).

    prefactor is a rate (1/s), gap_slope the inverse-width of the law in
    s/rad, and energy_gap the singlet-triplet separation in rad/s. The rate
    decreases exponentially as the gap opens.
    """
    if prefactor <= 0.0:
        raise DomainError(f"prefactor must be positive, got {prefactor}")
    if gap_slope <= 0.0:
        raise DomainError(f"gap_slope must be positive, got {gap_slope}")
    if energy_gap < 0.0:
        raise DomainError(f"energy gap must be non-negative, got {energy_gap}")
    return prefactor * math.exp(-gap_slope * energy_gap)

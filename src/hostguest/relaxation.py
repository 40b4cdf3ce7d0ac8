"""Vibrational relaxation channels of a guest molecule in a host lattice.

A vibron decays by emitting two lattice phonons when it fits inside twice
the phonon cutoff; above that it can cascade through a lower vibron that
leaves a two-phonon-sized remainder; otherwise the energy must flow through
intramolecular anharmonicity alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from scipy.integrate import quad

from .errors import DomainError, IntegrationFailure
from .units import bose_occupation

from .vibronic import PhononSpectralDensity


class RelaxationChannel(enum.Enum):
    TWO_PHONON = "two_phonon"
    VIBRON_ASSISTED = "vibron_assisted"
    INTRAMOLECULAR = "intramolecular"


@dataclass(frozen=True)
class RelaxationInput:
    """Decaying vibron frequency, host phonon cutoff, and the other vibron
    frequencies available as intermediate steps (all rad/s, all below the
    decaying mode)."""

    vibron_frequency: float
    phonon_cutoff: float
    other_vibrons: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.vibron_frequency <= 0.0:
            raise ValueError("vibron frequency must be positive")
        if self.phonon_cutoff <= 0.0:
            raise ValueError("phonon cutoff must be positive")
        others = tuple(float(w) for w in self.other_vibrons)
        if any(w <= 0.0 or w >= self.vibron_frequency for w in others):
            raise ValueError("intermediate vibrons must lie strictly below the decaying mode")
        object.__setattr__(self, "other_vibrons", others)


def classify_relaxation(data: RelaxationInput) -> RelaxationChannel:
    """Assign the decay channel; exactly one category applies to any input."""
    window = 2.0 * data.phonon_cutoff
    if data.vibron_frequency <= window:
        return RelaxationChannel.TWO_PHONON
    if any(data.vibron_frequency - w <= window for w in data.other_vibrons):
        return RelaxationChannel.VIBRON_ASSISTED
    return RelaxationChannel.INTRAMOLECULAR


def two_phonon_rate(
    vibron_frequency: float,
    density: PhononSpectralDensity,
    coupling: float,
    temperature: float = 0.0,
) -> float:
    """Spontaneous two-phonon emission rate of a vibron (arbitrary units).

    rate = coupling^2 * integral rho(w) rho(w_v - w) (n(w)+1)(n(w_v-w)+1) dw
    over the energy-conserving window, with the one-phonon density of states
    rho(w) = J(w)/w^2 on (0, cutoff]. Absolute units follow the supplied
    coupling; ratios and temperature trends are the meaningful output.
    """
    if vibron_frequency <= 0.0:
        raise DomainError("vibron frequency must be positive")
    if temperature < 0.0:
        raise DomainError("temperature must be non-negative")
    cutoff = density.cutoff_frequency
    if vibron_frequency > 2.0 * cutoff:
        raise DomainError(
            "two-phonon emission impossible above twice the phonon cutoff"
        )
    lo = max(0.0, vibron_frequency - cutoff)
    hi = min(vibron_frequency, cutoff)
    if hi <= lo:
        return 0.0

    def rho(w):
        return density.density(w) / (w * w)

    def occ(w):
        return bose_occupation(w, temperature) + 1.0

    def integrand(w):
        rest = vibron_frequency - w
        if w <= 0.0 or rest <= 0.0:
            return 0.0
        return rho(w) * rho(rest) * occ(w) * occ(rest)

    value, abserr = quad(integrand, lo, hi, epsabs=1e-300, epsrel=1e-10, limit=200)
    if value != 0.0 and abserr > 1e-6 * abs(value):
        raise IntegrationFailure(
            f"two-phonon quadrature error {abserr:.2e} exceeds tolerance"
        )
    return coupling * coupling * value

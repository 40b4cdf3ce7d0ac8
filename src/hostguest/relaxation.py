"""Vibrational relaxation channels of a guest molecule in a host lattice.

A vibron decays by emitting two lattice phonons when it fits inside twice
the phonon cutoff; above that it can cascade through a lower vibron that
leaves a two-phonon-sized remainder; otherwise the energy must flow through
intramolecular anharmonicity alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import DomainError, IntegrationFailure
from .units import quad
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

    rate = coupling^2 * integral S(w) S(w_v - w) dw over the energy-conserving
    window, with S(w) = J(w)/w^2 (n(w)+1) the Stokes one-phonon density
    :meth:`PhononSpectralDensity.one_phonon`. Absolute units follow the
    supplied coupling; ratios and temperature trends are the meaningful output.
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

    s = density.one_phonon
    value, error = quad(lambda w: s(w, temperature) * s(vibron_frequency - w, temperature), lo, hi)
    # Near underflow the error estimate is rounding noise: the floor ignores it.
    if error > max(1e-6 * abs(value), 1e-300):
        raise IntegrationFailure(
            f"two-phonon quadrature error {error:.2e} exceeds tolerance"
        )
    return coupling * coupling * value

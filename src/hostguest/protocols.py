"""Quantum-interface protocols built on the molecular level structure.

Three independent estimators: an off-resonant Raman write/read memory using
a long-lived vibron, a one-sided Fabry-Perot spin-photon interface via the
coupled/uncoupled cavity response, and the optomechanical cooperativity of
a vibrational mode read out through the zero-phonon line.

The memory cycle propagates only its write stage, by the fourth-order
commutator-free Magnus (CF4) steps of units.cf4_propagator: the amplitude
generator A(t) is complex symmetric, A(t)^T = A(t), so the time-reversed
read stage propagates with the transpose of the write propagator, and the
hold enters as a closed-form factor. The pulse-window edges cut the write
stage into segments, each stepped at the narrowest pulse width active in
it; the dark gap between disjoint windows is in closed form. Every step
count is fixed from the spec before any array is built. Cycles that differ
only in the hold share one write stage: a caller passes the storage it
already holds. A cavity spec computes its on-resonance response once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DomainError
from .units import CF4_STEP_BUDGET, bose_occupation, cf4_propagator, solve_ivp_on_lookup


# bench/tracer.py looks up a module-level ``solve_ivp`` here and wraps it;
# nothing here calls it. Goes away with ROADMAP item 1.
__getattr__ = solve_ivp_on_lookup(__name__)


_PULSE_TAILS = 6.0  # integration window extends this many widths past centers

# CF4 steps per pulse width at vanishing pulse area, detuning and decay (see
# _segment_steps).
_STEPS_PER_WIDTH = 48.0


@dataclass(frozen=True)
class Pulse:
    """A Gaussian drive envelope: peak Rabi frequency (rad/s), center and
    width (seconds). Omega(t) = peak * exp(-(t-center)^2 / (2 width^2))."""

    peak_rabi: float
    center: float
    width: float

    def __post_init__(self):
        if self.peak_rabi < 0.0:
            raise ValueError("peak Rabi frequency must be non-negative")
        if self.width <= 0.0:
            raise ValueError("pulse width must be positive")

    def envelope(self, t):
        """Omega at the time or array of times t."""
        # exp has underflowed to 0 well before 40 widths; the cap keeps arg * arg finite.
        arg = np.minimum(np.abs(t - self.center), 40.0 * self.width) / self.width
        return self.peak_rabi * np.exp(-0.5 * arg * arg)


@dataclass(frozen=True)
class RamanMemorySpec:
    """Write/read memory on the lambda system S0 -- S1 -- stored vibron.

    gamma0 is the S1 amplitude decay (1/s), kappa_v the vibron decay (1/s),
    detuning the one-photon detuning from S1 (rad/s); storage_hold is the
    dark interval between write and read (seconds).
    """

    gamma0: float
    kappa_v: float
    detuning: float
    signal_pulse: Pulse
    control_pulse: Pulse
    storage_hold: float

    def __post_init__(self):
        if self.gamma0 < 0.0 or self.kappa_v < 0.0:
            raise ValueError("decay rates must be non-negative")
        if self.storage_hold < 0.0:
            raise ValueError("storage hold must be non-negative")


def raman_memory_efficiency(
    spec: RamanMemorySpec, storage: float | None = None
) -> tuple[float, float]:
    """(storage efficiency, total efficiency) of one write/hold/read cycle.

    Storage is the write stage's (see _write_storage). The read stage
    replays both pulses time-reversed. A(t) is complex symmetric (each
    coupling is -i Omega/2 on both off-diagonals), so the time-reversed
    propagator is the transpose of the write propagator, and the read
    returns c_v times the held amplitude (Gorshkov, Andre, Lukin and
    Sorensen, Phys. Rev. Lett. 98, 123601, 2007). Hence total =
    storage^2 exp(-kappa_v hold), and 0 <= total <= storage <= 1 holds
    whenever storage <= 1. A caller that already holds the storage of a
    spec that differs from this one only in storage_hold passes it as
    ``storage`` so that the write stage is not stepped again.
    """
    if storage is None:
        storage = _write_storage(spec)
    return storage, storage * storage * math.exp(-spec.kappa_v * spec.storage_hold)


def _write_storage(spec: RamanMemorySpec) -> float:
    """|c_v|^2 after the write stage; storage_hold plays no part.

    The amplitudes (c_g, c_e, c_v) start in the incoming-photon channel and
    evolve as c' = A(t) c through the segments of _write_segments. A
    segment inside a pulse window is stepped by CF4 with the full A(t). A
    dark gap between disjoint windows, where A is diagonal, is propagated
    in closed form: c_g is unchanged, c_e gains
    exp(-(gamma0/2 + i detuning) T) and c_v exp(-kappa_v T / 2).
    """
    c = np.array([1.0, 0.0, 0.0], dtype=complex)
    for start, stop, steps in _write_segments(spec):
        if steps:
            c = _segment_propagator(spec, start, stop, steps) @ c
            continue
        gap = stop - start
        if gap == math.inf:
            raise DomainError("pulse windows too far apart: the dark gap overflows")
        # the phase delta * gap is reduced mod 2 pi before it can overflow
        turn = math.fmod(spec.detuning, math.tau / gap) * gap
        dark_e = math.exp(-0.5 * spec.gamma0 * gap) * cmath.exp(-1j * turn)
        c *= np.array([1.0, dark_e, math.exp(-0.5 * spec.kappa_v * gap)])
    return float(abs(c[2]) ** 2)


def _write_segments(spec: RamanMemorySpec) -> list[tuple[float, float, int]]:
    """(start, stop, CF4 steps) of each write-stage segment, in time order.

    Each pulse window holds its pulse to _PULSE_TAILS widths. The window
    edges cut the write stage into segments; a segment covered by no
    window is a dark gap and takes 0 steps. Every count is fixed here,
    before any array is built.
    """
    windows = [
        (p.center - _PULSE_TAILS * p.width, p.center + _PULSE_TAILS * p.width, p)
        for p in (spec.signal_pulse, spec.control_pulse)
    ]
    edges = sorted({t for start, stop, _ in windows for t in (start, stop)})
    segments = []
    for start, stop in zip(edges, edges[1:]):
        active = [p for a, b, p in windows if a <= start and stop <= b]
        steps = _segment_steps(spec, stop - start, active) if active else 0
        segments.append((start, stop, steps))
    return segments


def _segment_steps(spec: RamanMemorySpec, length: float, pulses) -> int:
    """CF4 steps for a segment of the given length (seconds) inside the
    windows of the given pulses.

    With w the narrowest of their widths and Omega the largest of their
    peak Rabi frequencies, the count is _STEPS_PER_WIDTH sqrt(w r) steps
    per w, where r is the root sum of squares of the rates 1/w (pulse
    resolution), |detuning|, Omega/4 (pulse area) and min(gamma0/2,
    Omega^2 w) (decay). The area enters at a quarter: couplings of one
    pulse shape commute, so only their offset and width ratio cost steps.
    Decay enters only up to Omega^2 w: past it the excited state follows
    the pulses adiabatically, the CF4 error relative to storage settles at
    second order in the step, and storage itself falls as
    (Omega^2 w / gamma0)^2. A count above units.CF4_STEP_BUDGET is a
    DomainError.
    """
    width = min(p.width for p in pulses)
    peak = max(p.peak_rabi for p in pulses)
    decay = min(0.5 * spec.gamma0, peak * peak * width)
    rate = math.hypot(1.0 / width, spec.detuning, 0.25 * peak, decay)
    steps = length * _STEPS_PER_WIDTH * math.sqrt(rate / width)
    if not steps <= CF4_STEP_BUDGET:
        raise DomainError(
            f"the Raman write stage needs {steps:.3g} CF4 steps in one segment, "
            f"over the cap of {CF4_STEP_BUDGET}"
        )
    return max(1, math.ceil(steps))


def _segment_propagator(
    spec: RamanMemorySpec, start: float, stop: float, steps: int
) -> np.ndarray:
    """3x3 propagator of c' = A(t) c from start to stop in `steps` CF4 steps.

    A(t) = D + C(t) with D = diag(0, -(gamma0/2 + i detuning), -kappa_v/2)
    and C(t) the couplings -i Omega/2, which are anti-Hermitian. Each CF4
    exponent is dt (D/2 + anti-Hermitian), whose Hermitian part dt Re(D)/2
    is negative semidefinite, so every factor is a contraction.
    """
    decay = np.diag([0.0, -(0.5 * spec.gamma0 + 1j * spec.detuning), -0.5 * spec.kappa_v])
    signal, control = np.zeros((2, 3, 3), dtype=complex)
    signal[0, 1] = signal[1, 0] = control[1, 2] = control[2, 1] = -0.5j
    drives = ((spec.signal_pulse.envelope, signal), (spec.control_pulse.envelope, control))
    return cf4_propagator(decay, drives, start, stop, steps)


@dataclass(frozen=True)
class CavityInterfaceSpec:
    """Two-port cavity with an optionally coupled narrow-band emitter.

    kappa is the total cavity energy decay rate, kappa_in/kappa_out the
    port couplings (all 1/s, kappa_in + kappa_out <= kappa); g the
    emitter-cavity coupling and gamma the emitter linewidth. When
    emitter_coupled is False the emitter is spectrally shelved and the bare
    cavity response applies.
    """

    g: float
    kappa: float
    kappa_in: float
    kappa_out: float
    gamma: float
    emitter_coupled: bool = True

    def __post_init__(self):
        if min(self.g, self.kappa, self.kappa_in, self.kappa_out, self.gamma) < 0.0:
            raise ValueError("cavity parameters must be non-negative")
        if self.kappa <= 0.0:
            raise ValueError("total cavity linewidth must be positive")
        if self.kappa_in + self.kappa_out > self.kappa * (1.0 + 1e-12):
            raise ValueError("port couplings cannot exceed the total linewidth")

    @property
    def cooperativity(self) -> float:
        if self.gamma == 0.0:
            return math.inf if self.g > 0.0 else 0.0
        return 4.0 * self.g**2 / (self.kappa * self.gamma)

    @cached_property
    def on_resonance(self) -> tuple[np.ndarray, np.ndarray]:
        """cavity_response(self, 0.0), computed once per spec and read-only."""
        reflection, transmission = cavity_response(self, 0.0)
        reflection.flags.writeable = transmission.flags.writeable = False
        return reflection, transmission


def cavity_response(spec: CavityInterfaceSpec, detunings):
    """Reflection and transmission amplitudes over detuning (rad/s).

    t(d) = sqrt(kappa_in kappa_out) / (i d + kappa/2 + g_eff^2/(i d + gamma/2))
    r(d) = -1 + kappa_in / (same denominator)

    with g_eff = g when the emitter is coupled and 0 otherwise. Satisfies
    |r|^2 + |t|^2 <= 1, with equality exactly for a lossless configuration
    (ports exhaust kappa and no emitter scattering).
    """
    detunings = np.atleast_1d(np.asarray(detunings, dtype=float))
    g_eff = spec.g if spec.emitter_coupled else 0.0
    cavity_pole = 1j * detunings + 0.5 * spec.kappa
    if g_eff > 0.0:
        emitter_pole = 1j * detunings + 0.5 * spec.gamma
        # A pole at or near zero (gamma 1e-300 MHz on resonance) makes the
        # emitter term inf, by division or by overflow: the emitter then
        # blocks the cavity, r = -1 and t = 0, as set below.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lamb = np.where(
                np.abs(emitter_pole) > 0.0, g_eff**2 / emitter_pole, np.inf
            )
        denom = cavity_pole + lamb
    else:
        denom = cavity_pole
    finite = np.isfinite(denom)
    transmission = np.zeros_like(denom)
    reflection = np.full_like(denom, -1.0 + 0.0j)
    transmission[finite] = math.sqrt(spec.kappa_in * spec.kappa_out) / denom[finite]
    reflection[finite] = -1.0 + spec.kappa_in / denom[finite]
    return reflection, transmission


def vacuum_rabi_splitting(spec: CavityInterfaceSpec, detunings) -> float:
    """Separation of the two transmission maxima (rad/s) on the given grid."""
    _, transmission = cavity_response(spec, detunings)
    power = np.abs(transmission) ** 2
    detunings = np.atleast_1d(np.asarray(detunings, dtype=float))
    left = detunings < 0.0
    right = detunings > 0.0
    if not left.any() or not right.any():
        raise DomainError("detuning grid must straddle zero")
    peak_left = detunings[left][np.argmax(power[left])]
    peak_right = detunings[right][np.argmax(power[right])]
    return float(peak_right - peak_left)


def spin_photon_fidelity(spec: CavityInterfaceSpec) -> float:
    """Overlap fidelity of the reflection/transmission spin-photon gate.

    The singlet branch reflects with the coupled on-resonance amplitude
    r_on -> -C/(1+C); the shelved branch transmits with the bare amplitude
    t_off. The ideal map has r = -1, t = +1, giving
    F = |t_off - r_on|^2 / 4, monotone in the cooperativity.
    """
    r0, t0 = spec.on_resonance
    r1, t1 = replace(spec, emitter_coupled=not spec.emitter_coupled).on_resonance
    r_on, t_off = (r0, t1) if spec.emitter_coupled else (r1, t0)
    return float(abs(t_off[0] - r_on[0]) ** 2) / 4.0


@dataclass(frozen=True)
class OptomechParams:
    """Single-molecule optomechanics: vacuum coupling g0 and vibron
    frequency omega_v (rad/s), vibron and ZPL decay rates (1/s), bath
    temperature (kelvin)."""

    g0: float
    omega_v: float
    kappa_v: float
    gamma0: float
    temperature: float

    def __post_init__(self):
        if self.g0 < 0.0:
            raise ValueError("g0 must be non-negative")
        if self.omega_v <= 0.0:
            raise ValueError("vibron frequency must be positive")
        if self.kappa_v <= 0.0 or self.gamma0 <= 0.0:
            raise ValueError("decay rates must be positive")
        if self.temperature < 0.0:
            raise ValueError("temperature must be non-negative")


@dataclass(frozen=True)
class OptomechResult:
    cooperativity: float
    thermal_occupation: float
    ultrastrong: bool


def optomech_cooperativity(
    params: OptomechParams, n_bar: float | None = None
) -> OptomechResult:
    """Thermal cooperativity C = 4 g0^2 / (n_bar kappa_v gamma0).

    n_bar defaults to the Bose occupation of the vibron at the bath
    temperature; passing it explicitly overrides that (an explicit 0 yields
    a divergent cooperativity, reported as +inf). The ultrastrong flag marks
    g0/omega_v in [0.1, 0.5].
    """
    if n_bar is None:
        if params.temperature == 0.0:
            raise DomainError(
                "thermal occupation vanishes at T = 0; pass n_bar explicitly"
            )
        n_bar = bose_occupation(params.omega_v, params.temperature)
    if n_bar < 0.0:
        raise DomainError("n_bar must be non-negative")
    ratio = params.g0 / params.omega_v
    ultrastrong = 0.1 <= ratio <= 0.5
    if n_bar == 0.0:
        return OptomechResult(math.inf, 0.0, ultrastrong)
    coop = 4.0 * params.g0**2 / (n_bar * params.kappa_v * params.gamma0)
    return OptomechResult(coop, float(n_bar), ultrastrong)

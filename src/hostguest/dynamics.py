"""Open-system dynamics: Lindblad evolution, steady states, photon
correlations, and classical rate networks for optically detected magnetic
resonance.

Density matrices are plain complex ndarrays; the Liouvillian acts on their
row-major vectorization. Everything here is deterministic; Monte Carlo
cross-checks live with the tests, not the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

# Never called here. bench/tracer.py looks this module-level name up and
# wraps it, so it stays until the tracer names the package's own kernels.
from scipy.integrate import solve_ivp  # noqa: F401

from .errors import DegenerateSteadyState, DomainError, InvalidState, SingularNetwork
from .levels import RADIATIVE_CLASSES, LevelKet, S0, S1, T1, classify_transition
from .units import expm

# A step with ||L||_1 * dt above this is over 2^52 times the generator's
# fastest time scale. expm would square its scaled propagator at least 50
# times, and 2^50 times a one-ulp error of a slow mode is 0.1.
_MAX_STEP_NORM = 2.0**52


@dataclass(frozen=True)
class OpenSystem:
    """A Hamiltonian (rad/s) plus collapse channels [(operator, rate)].

    Rates are in 1/s and non-negative; operators are square matrices of the
    system dimension.
    """

    hamiltonian: np.ndarray
    collapse_channels: tuple = field(default=())

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"hamiltonian must be square, got {h.shape}")
        scale = max(float(np.linalg.norm(h)), 1.0)
        if float(np.linalg.norm(h - h.conj().T)) > 1e-10 * scale:
            raise ValueError("hamiltonian must be Hermitian")
        channels = []
        for op, rate in self.collapse_channels:
            op = np.asarray(op, dtype=complex)
            if op.shape != h.shape:
                raise ValueError("collapse operator shape mismatch")
            if rate < 0.0:
                raise ValueError(f"collapse rate must be non-negative, got {rate}")
            channels.append((op, float(rate)))
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "collapse_channels", tuple(channels))

    @property
    def dimension(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def generator(self) -> np.ndarray:
        """The Liouvillian, built once per system and read-only."""
        gen = liouvillian(self)
        gen.flags.writeable = False
        return gen


def liouvillian(system: OpenSystem) -> np.ndarray:
    """Matrix of the generator acting on row-major vectorized density matrices."""
    d = system.dimension
    ident = np.eye(d, dtype=complex)
    h = system.hamiltonian
    gen = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
    for op, rate in system.collapse_channels:
        if rate == 0.0:
            continue
        opdag_op = op.conj().T @ op
        gen += rate * (
            np.kron(op, op.conj())
            - 0.5 * (np.kron(opdag_op, ident) + np.kron(ident, opdag_op.T))
        )
    return gen


def _check_state(rho: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise InvalidState(f"state shape {rho.shape} does not match dimension {dim}")
    if float(np.linalg.norm(rho - rho.conj().T)) > 1e-9:
        raise InvalidState("initial state is not Hermitian within 1e-9")
    if abs(np.trace(rho).real - 1.0) > 1e-9 or abs(np.trace(rho).imag) > 1e-9:
        raise InvalidState("initial state trace deviates from 1 beyond 1e-9")
    eigmin = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if eigmin < -1e-9:
        raise InvalidState(f"initial state has negative eigenvalue {eigmin:.2e}")
    return rho


def _check_times(times, name: str) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    valid = times.ndim == 1 and len(times) > 0 and np.all(np.isfinite(times))
    # Differences from a prepended 0 are all >= 0 exactly when the times are
    # sorted and start at t >= 0.
    if not (valid and np.all(np.diff(times, prepend=0.0) >= 0.0)):
        raise ValueError(f"{name} must be a non-empty, finite, sorted, non-negative sequence")
    return times


def _propagate_matrix(gen: np.ndarray, x0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Propagate a (not necessarily trace-one) matrix from t = 0 under the
    generator to times that passed _check_times: one exact step propagator
    per bit-distinct step between the distinct times, all exponentiated in
    one stacked call. A repeated time is reached once and its state repeated.

    The state is stepped in the coordinates z = S y of its row-major vector
    y: z_0 = tr, z_k = y_k otherwise, so S and S^-1 are 0/+-1 matrices. The
    generator conserves the trace, so row 0 of S L S^-1 is zero up to
    rounding; it is set to zero, which expm keeps exact, so every step
    propagator's row 0 is e_0^T and the trace is carried exactly however
    stiff the generator."""
    d = x0.shape[0]
    distinct, index = np.unique(times, return_inverse=True)
    steps, which = np.unique(np.diff(distinct, prepend=0.0), return_inverse=True)
    norm = float(np.abs(gen).sum(axis=0).max())
    if norm * float(steps[-1]) > _MAX_STEP_NORM:
        raise DomainError(
            f"time step {steps[-1]:.3e} s is over 2^52 times the generator's fastest "
            f"time scale 1/||L||_1 = {1.0 / norm:.3e} s; use more time points"
        )
    s, s_inv = np.eye(d * d), np.eye(d * d)
    s[0, d + 1 :: d + 1], s_inv[0, d + 1 :: d + 1] = 1.0, -1.0
    gen_z = s @ gen @ s_inv
    gen_z[0] = 0.0
    propagators = list(expm(steps[:, None, None] * gen_z))
    z = s @ x0.reshape(-1)
    states = []
    for j in which.tolist():
        z = propagators[j].dot(z)
        states.append(z)
    out = (np.array(states) @ s_inv.T)[index].reshape(len(times), d, d)
    # The generator preserves Hermiticity exactly; scrub roundoff.
    return 0.5 * (out + np.conj(np.transpose(out, (0, 2, 1))))


def evolve(system: OpenSystem, rho0: np.ndarray, times) -> np.ndarray:
    """Density matrices at the requested times (sorted, starting at t >= 0).

    Exact propagation: one matrix exponential of the Liouvillian per
    distinct time step (units.expm), applied step by step. Outputs keep the
    initial trace and Hermiticity to roundoff, however stiff the system.
    Raises DomainError for a step over 2^52 times the generator's fastest
    time scale.
    """
    times = _check_times(times, "times")
    rho0 = _check_state(rho0, system.dimension)
    return _propagate_matrix(system.generator, rho0, times)


def _null_vector(matrix: np.ndarray) -> tuple[int, np.ndarray]:
    """Kernel dimension of a square matrix at 1e-10 relative to its largest
    singular value, and its last right-singular vector."""
    _, svals, vh = np.linalg.svd(matrix)
    scale = max(float(svals[0]), 1e-300)
    return int(np.sum(svals < 1e-10 * scale)), vh[-1]


def steady_state(system: OpenSystem) -> np.ndarray:
    """The unique trace-one kernel element of the Liouvillian.

    Solved by singular-value decomposition of the vectorized generator with
    the trace constraint applied afterwards; raises DegenerateSteadyState
    when the kernel is empty or more than one-dimensional.
    """
    if system.dimension > 64:
        raise DomainError("direct steady-state solve supports dimension <= 64")
    null_count, vector = _null_vector(system.generator)
    if null_count == 0:
        raise DegenerateSteadyState("Liouvillian has no null vector at tolerance")
    if null_count > 1:
        raise DegenerateSteadyState(
            f"steady state is not unique ({null_count}-dimensional kernel)"
        )
    d = system.dimension
    rho = vector.conj().reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.trace(rho).real)
    if abs(tr) < 1e-12:
        raise DegenerateSteadyState("null vector is traceless; no physical steady state")
    rho = rho / tr
    if float(np.linalg.eigvalsh(rho).min()) < -1e-7:
        raise DegenerateSteadyState("steady-state candidate is not positive")
    return rho


def g2_correlation(system: OpenSystem, emission_operator, taus) -> np.ndarray:
    """Normalized second-order correlation via the quantum regression theorem.

    g2(tau) = Tr[a^dag a exp(L tau)(a rho_ss a^dag)] / Tr[a^dag a rho_ss]^2,
    evaluated at the requested non-negative delays.
    """
    taus = _check_times(taus, "taus")
    a = np.asarray(emission_operator, dtype=complex)
    rho_ss = steady_state(system)
    number_op = a.conj().T @ a
    flux = float(np.trace(number_op @ rho_ss).real)
    if flux <= 0.0:
        raise DegenerateSteadyState("steady state emits no photons; g2 undefined")
    seed = a @ rho_ss @ a.conj().T
    propagated = _propagate_matrix(system.generator, seed, taus)
    values = np.einsum("ij,tji->t", number_op, propagated).real
    return values / flux**2


@dataclass(frozen=True)
class RateNetwork:
    """Classical rate network over level kets.

    rates maps ordered (source, target) pairs to non-negative rates in 1/s;
    emissive_flags marks the states whose radiative decay is detected as
    fluorescence.
    """

    state_labels: tuple[LevelKet, ...]
    rates: Mapping
    emissive_flags: Mapping

    def __post_init__(self):
        labels = tuple(self.state_labels)
        if len(set(labels)) != len(labels):
            raise ValueError("state labels must be unique")
        known = set(labels)
        rates = {}
        for (src, dst), rate in dict(self.rates).items():
            if src == dst:
                raise ValueError(f"self-loop on {src}")
            if src not in known or dst not in known:
                raise ValueError(f"rate references unknown state {src} -> {dst}")
            if rate < 0.0:
                raise ValueError("rates must be non-negative")
            rates[(src, dst)] = float(rate)
        flags = {k: bool(v) for k, v in dict(self.emissive_flags).items()}
        if any(k not in known for k in flags):
            raise ValueError("emissive flag references unknown state")
        object.__setattr__(self, "state_labels", labels)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "emissive_flags", flags)

    def rate_matrix(self) -> np.ndarray:
        """M with dp/dt = M p for the population vector in label order."""
        n = len(self.state_labels)
        index = {k: i for i, k in enumerate(self.state_labels)}
        m = np.zeros((n, n))
        for (src, dst), rate in self.rates.items():
            i, j = index[src], index[dst]
            m[j, i] += rate
            m[i, i] -= rate
        return m


def steady_populations(network: RateNetwork) -> np.ndarray:
    """Normalized stationary populations of the rate network."""
    null_count, vector = _null_vector(network.rate_matrix())
    if null_count != 1:
        raise SingularNetwork(
            f"rate network kernel is {null_count}-dimensional; no unique steady state"
        )
    p = np.real(vector)
    total = p.sum()
    if abs(total) < 1e-12:
        raise SingularNetwork("stationary vector does not normalize")
    p = p / total
    if np.any(p < -1e-9):
        raise SingularNetwork("stationary vector has negative populations")
    return np.clip(p, 0.0, None)


def _fluorescence(network: RateNetwork) -> float:
    """Detected fluorescence: emissive-state populations weighted by their
    radiative (optically classified) decay rates."""
    p = steady_populations(network)
    index = {k: i for i, k in enumerate(network.state_labels)}
    signal = 0.0
    for state, emissive in network.emissive_flags.items():
        if not emissive:
            continue
        radiative = sum(
            rate
            for (src, dst), rate in network.rates.items()
            if src == state
            and classify_transition(src, dst, radiative=True) in RADIATIVE_CLASSES
        )
        signal += p[index[state]] * radiative
    return signal


def odmr_contrast(network: RateNetwork, mw_pair, mw_mixing_rate: float) -> float:
    """Relative fluorescence change when a microwave tone mixes two triplet
    sublevels: (F_on - F_off) / F_off from two steady-state solves.

    mw_pair names the two T1 sublevels ('x', 'y', 'z') to connect with a
    symmetric mixing rate (1/s).
    """
    if mw_mixing_rate < 0.0:
        raise ValueError("mixing rate must be non-negative")
    manifolds = {k.manifold for k in network.state_labels}
    if S0 not in manifolds or S1 not in manifolds:
        raise ValueError("network must contain S0 and S1 states")
    sublevels = {k.sublevel for k in network.state_labels if k.manifold == T1}
    if sublevels != {"x", "y", "z"}:
        raise ValueError("network must contain all three T1 sublevels")

    targets = []
    for tag in mw_pair:
        matches = [
            k for k in network.state_labels if k.manifold == T1 and k.sublevel == tag
        ]
        if len(matches) != 1:
            raise ValueError(f"sublevel {tag!r} must match exactly one T1 state")
        targets.append(matches[0])
    a, b = targets
    if a == b:
        raise ValueError("mw_pair must name two distinct sublevels")

    f_off = _fluorescence(network)
    driven = dict(network.rates)
    driven[(a, b)] = driven.get((a, b), 0.0) + mw_mixing_rate
    driven[(b, a)] = driven.get((b, a), 0.0) + mw_mixing_rate
    f_on = _fluorescence(
        RateNetwork(network.state_labels, driven, network.emissive_flags)
    )
    if f_off <= 0.0:
        raise SingularNetwork("no fluorescence without the microwave drive")
    return (f_on - f_off) / f_off

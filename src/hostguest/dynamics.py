"""Open-system dynamics: Lindblad evolution, steady states, photon
correlations, and classical rate networks for optically detected magnetic
resonance.

Density matrices are plain complex ndarrays; the Liouvillian acts on their
row-major vectorization. Everything here is deterministic; Monte Carlo
cross-checks live with the tests, not the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import DegenerateSteadyState, DomainError, InvalidState, SingularNetwork
from .levels import RADIATIVE_CLASSES, LevelKet, S0, S1, T1, classify_transition
from .units import expm, solve_ivp_on_lookup, unit_scaled


# bench/tracer.py looks up a module-level ``solve_ivp`` here and wraps it;
# nothing here calls it. Goes away with ROADMAP item 1.
__getattr__ = solve_ivp_on_lookup(__name__)


# A step with ||L||_1 * dt above this is over 2^52 times the generator's
# fastest time scale. expm would square its scaled propagator at least 50
# times, and 2^50 times a one-ulp error of a slow mode is 0.1.
_MAX_STEP_NORM = 2.0**52

# The most complex entries the stacked states of one batch of points may hold
# (2^14, 256 KB), as units._CF4_BLOCK bounds a block of CF4 steps: a longer
# sweep is stepped in several batches.
BATCH_ENTRIES = 1 << 14


@dataclass(frozen=True)
class OpenSystem:
    """A Hamiltonian (rad/s) plus collapse channels [(operator, rate)].

    Rates are in 1/s, finite and non-negative; operators are square
    matrices of the system dimension. H is Hermitian to 1e-10 relative to its
    largest entry (units.unit_scaled); a non-finite entry of H or of an
    operator raises DomainError.
    """

    hamiltonian: np.ndarray
    collapse_channels: tuple = field(default=())

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"hamiltonian must be square, got {h.shape}")
        unit, _ = unit_scaled(h, "hamiltonian")
        if float(np.linalg.norm(unit - unit.conj().T)) > 1e-10 * float(np.linalg.norm(unit)):
            raise ValueError("hamiltonian must be Hermitian")
        channels = []
        for op, rate in self.collapse_channels:
            op = np.asarray(op, dtype=complex)
            if op.shape != h.shape:
                raise ValueError("collapse operator shape mismatch")
            unit_scaled(op, "collapse operator")
            if not 0.0 <= rate < math.inf:
                raise ValueError(f"collapse rate must be finite and non-negative, got {rate}")
            channels.append((op, float(rate)))
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "collapse_channels", tuple(channels))

    @property
    def dimension(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def generator(self) -> np.ndarray:
        """The Liouvillian, built once per system and read-only."""
        gen = liouvillian(self.hamiltonian, self.collapse_channels)
        gen.flags.writeable = False
        return gen

    @cached_property
    def steady_state(self) -> np.ndarray:
        """The unique trace-one kernel element of the Liouvillian, solved once
        per system and read-only.

        Uniqueness is decided on the unit-rate structure, the Liouvillian of H
        and of each positive-rate channel with every operator scaled to a
        largest entry of 1 and every rate 1, so no rate size sways it: its
        kernel counts the singular values at most 1e-10 times the largest. The
        state is one solve of the generator with row 0 replaced by the trace row
        (QuTiP's "direct" method). Raises DegenerateSteadyState for a kernel of
        more than one dimension, a singular solve or a state that is not positive.
        """
        ops = [op for op, rate in self.collapse_channels if rate > 0.0]
        unit_rate = liouvillian(
            unit_scaled(self.hamiltonian, "hamiltonian")[0],
            [(unit_scaled(op, "collapse operator")[0], 1.0) for op in ops],
        )
        svals = np.linalg.svd(unit_rate, compute_uv=False)
        kernel = int(np.sum(svals <= 1e-10 * svals[0]))
        if kernel > 1:
            raise DegenerateSteadyState(
                f"steady state is not unique ({kernel}-dimensional kernel at unit rates)"
            )
        d = self.dimension
        bordered = np.array(self.generator)
        bordered[0] = np.eye(d).reshape(-1)
        try:
            rho = np.linalg.solve(bordered, np.r_[1.0, np.zeros(d * d - 1)]).reshape(d, d)
        except np.linalg.LinAlgError:
            raise DegenerateSteadyState("steady state is not unique (singular generator)") from None
        rho = 0.5 * (rho + rho.conj().T)
        if float(np.linalg.eigvalsh(rho).min()) < -1e-7:
            raise DegenerateSteadyState("steady-state candidate is not positive")
        rho.flags.writeable = False
        return rho


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two d x d matrices, product for product, as one broadcast."""
    d = a.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(d * d, d * d)


def liouvillian(hamiltonian: np.ndarray, channels) -> np.ndarray:
    """Matrix of the generator of a complex Hamiltonian and its collapse channels
    [(complex operator, rate)] on row-major vectorized density matrices."""
    ident = np.eye(len(hamiltonian), dtype=complex)
    gen = -1j * (_kron(hamiltonian, ident) - _kron(ident, hamiltonian.T))
    for op, rate in channels:
        if rate == 0.0:
            continue
        opdag_op = op.conj().T @ op
        gen += rate * (
            _kron(op, op.conj())
            - 0.5 * (_kron(opdag_op, ident) + _kron(ident, opdag_op.T))
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


def _step_layout(times: np.ndarray):
    """(index, steps, which) for times that passed _check_times: the distinct
    times are reached in turn by the bit-distinct steps steps[which], and time
    i is distinct time index[i]. steps[-1] is the longest step."""
    distinct, index = np.unique(times, return_inverse=True)
    steps, which = np.unique(np.diff(distinct, prepend=0.0), return_inverse=True)
    return index, steps, which


def _check_step(gen: np.ndarray, longest: float) -> np.ndarray:
    norm = float(np.abs(gen).sum(axis=0).max())
    # A Python float, not an np.float64: its product goes to inf without a warning.
    longest = float(longest)
    if norm * longest > _MAX_STEP_NORM:
        raise DomainError(
            f"time step {longest:.3e} s is over 2^52 times the generator's fastest "
            f"time scale 1/||L||_1 = {1.0 / norm:.3e} s; use more time points"
        )
    return gen


def _propagate_matrix(gens: np.ndarray, x0s: np.ndarray, layout) -> np.ndarray:
    """Propagate a batch of m (not necessarily trace-one) matrices x0s
    (m, d, d) from t = 0, each under its generator in gens (m, d^2, d^2), to
    the times of ``layout`` (see _step_layout), whose longest step passed
    _check_step for every generator; returns (m, len(times), d, d). One
    exact step propagator per bit-distinct step and point, all exponentiated
    in one stacked call; each step advances the whole batch with one stacked
    matvec. A repeated time is reached once and its state repeated. Raises
    nothing.

    The state is stepped in the coordinates z = S y of its row-major vector
    y: z_0 = tr, z_k = y_k otherwise, so S and S^-1 are 0/+-1 matrices. The
    generator conserves the trace, so row 0 of S L S^-1 is zero up to
    rounding; it is set to zero, which expm keeps exact, so every step
    propagator's row 0 is e_0^T and the trace is carried exactly however
    stiff the generator."""
    index, steps, which = layout
    m, d = x0s.shape[0], x0s.shape[-1]
    s, s_inv = np.eye(d * d), np.eye(d * d)
    s[0, d + 1 :: d + 1], s_inv[0, d + 1 :: d + 1] = 1.0, -1.0
    gen_z = s @ gens @ s_inv
    gen_z[:, 0] = 0.0
    propagators = expm(steps[:, None, None, None] * gen_z)  # (step, point, d^2, d^2)
    z = np.matvec(s, x0s.reshape(m, d * d))
    propagators = list(propagators)  # a list indexes faster than an array
    stepped = np.empty((len(which), m, d * d), dtype=complex)
    for k, j in enumerate(which.tolist()):
        z = np.matvec(propagators[j], z, out=stepped[k])
    out = (stepped.swapaxes(0, 1) @ s_inv.T)[:, index].reshape(m, len(index), d, d)
    # The generator preserves Hermiticity exactly; scrub roundoff.
    return 0.5 * (out + np.conj(out.swapaxes(-1, -2)))


def evolve(system, rho0, times) -> np.ndarray:
    """Density matrices at the requested times (sorted, starting at t >= 0).

    Exact propagation: one matrix exponential of the Liouvillian per
    distinct time step (units.expm), applied step by step. Outputs keep the
    initial trace and Hermiticity to roundoff, however stiff the system.
    Raises InvalidState for a bad initial state and DomainError for a step
    over 2^52 times the generator's fastest time scale.

    Batch form: ``system`` an iterable of m systems of one dimension and
    ``rho0`` an iterable of their initial states give the (m, len(times), d,
    d) stack, each point's rows the bytes of its plain call. The two are
    drawn together, and each point is checked as it is drawn, state then
    step, before the next is drawn; only then is the batch stepped together,
    which raises nothing. Keep a batch's states within BATCH_ENTRIES complex
    entries: m * len(times) * d^2 <= 2^14 (256 KB).
    """
    times = _check_times(times, "times")
    plain = isinstance(system, OpenSystem)
    if plain:
        system, rho0 = (system,), (rho0,)
    _, steps, _ = layout = _step_layout(times)
    gens, x0s = [], []
    for one, state in zip(system, rho0):
        x0s.append(_check_state(state, one.dimension))
        gens.append(_check_step(one.generator, steps[-1]))
    states = _propagate_matrix(np.array(gens), np.array(x0s), layout)
    return states[0] if plain else states


def steady_state(system: OpenSystem) -> np.ndarray:
    """The unique trace-one kernel element of the Liouvillian:
    system.steady_state, solved once per system and read-only."""
    return system.steady_state


def g2_correlation(system, emission_operator, taus) -> np.ndarray:
    """Normalized second-order correlation via the quantum regression theorem.

    g2(tau) = Tr[a^dag a exp(L tau)(a rho_ss a^dag)] / Tr[a^dag a rho_ss]^2,
    evaluated at the requested non-negative delays. Raises
    DegenerateSteadyState for a steady state that is not unique or emits no
    photons, and DomainError for a step over 2^52 times the generator's
    fastest time scale.

    Batch form: ``system`` an iterable of m systems of one dimension and
    ``emission_operator`` an iterable of their operators give the
    (m, len(taus)) values, each row the bytes of its plain call. Each point
    is checked in turn (steady state, photon flux, step) before the batch is
    stepped together, as in evolve, whose BATCH_ENTRIES bound applies.
    """
    taus = _check_times(taus, "taus")
    plain = isinstance(system, OpenSystem)
    if plain:
        system, emission_operator = (system,), (emission_operator,)
    _, steps, _ = layout = _step_layout(taus)
    gens, seeds, numbers, fluxes = [], [], [], []
    for one, a in zip(system, emission_operator):
        a = np.asarray(a, dtype=complex)
        rho_ss = steady_state(one)
        number_op = a.conj().T @ a
        flux = float(np.trace(number_op @ rho_ss).real)
        if flux <= 0.0:
            raise DegenerateSteadyState("steady state emits no photons; g2 undefined")
        gens.append(_check_step(one.generator, steps[-1]))
        seeds.append(a @ rho_ss @ a.conj().T)
        numbers.append(number_op)
        fluxes.append(flux)
    propagated = _propagate_matrix(np.array(gens), np.array(seeds), layout)
    values = np.array([
        np.einsum("ij,tji->t", number_op, states).real / flux**2
        for number_op, states, flux in zip(numbers, propagated, fluxes)
    ])
    return values[0] if plain else values


@dataclass(frozen=True)
class RateNetwork:
    """Classical rate network over level kets.

    rates maps ordered (source, target) pairs to finite, non-negative rates
    in 1/s; emissive_flags marks the states whose radiative decay is detected
    as fluorescence.
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
            if not 0.0 <= rate < math.inf:
                message = f"rates must be finite and non-negative, got {rate} for {src} -> {dst}"
                raise ValueError(message)
            rates[(src, dst)] = float(rate)
        flags = {k: bool(v) for k, v in dict(self.emissive_flags).items()}
        if any(k not in known for k in flags):
            raise ValueError("emissive flag references unknown state")
        object.__setattr__(self, "state_labels", labels)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "emissive_flags", flags)

    @cached_property
    def fluorescence(self) -> float:
        """Detected fluorescence, computed once per network: emissive-state
        populations weighted by their radiative (optically classified) decay
        rates."""
        p = steady_populations(self)
        index = {k: i for i, k in enumerate(self.state_labels)}
        signal = 0.0
        for state, emissive in self.emissive_flags.items():
            if not emissive:
                continue
            radiative = sum(
                rate
                for (src, dst), rate in self.rates.items()
                if src == state
                and classify_transition(src, dst, radiative=True) in RADIATIVE_CLASSES
            )
            signal += p[index[state]] * radiative
        return signal

    def microwave_targets(self, mw_pair) -> tuple[LevelKet, LevelKet]:
        """The two distinct T1 states that a microwave tone on the sublevels
        mw_pair mixes; ValueError unless S0, S1 and each T1 sublevel are here."""
        manifolds = {k.manifold for k in self.state_labels}
        if S0 not in manifolds or S1 not in manifolds:
            raise ValueError("network must contain S0 and S1 states")
        triplet = [k for k in self.state_labels if k.manifold == T1]
        if {k.sublevel for k in triplet} != {"x", "y", "z"}:
            raise ValueError("network must contain all three T1 sublevels")
        targets = []
        for tag in mw_pair:
            matches = [k for k in triplet if k.sublevel == tag]
            if len(matches) != 1:
                raise ValueError(f"sublevel {tag!r} must match exactly one T1 state")
            targets.append(matches[0])
        a, b = targets
        if a == b:
            raise ValueError("mw_pair must name two distinct sublevels")
        return a, b


def steady_populations(network: RateNetwork) -> np.ndarray:
    """Normalized stationary populations of the rate network.

    They are unique exactly when some state is reachable from every state
    through positive rates, that is, when there is one closed class (Norris,
    Markov Chains, 1997); a boolean reachability closure decides it with no
    tolerance. The populations come from the Grassmann-Taksar-Heyman state
    reduction (Oper. Res. 33, 1107, 1985) rooted at such a state. It adds
    and multiplies rates but never subtracts them, so each population is
    >= 0 to a small relative error, and a transient state's is exactly 0.
    """
    n = len(network.state_labels)
    index = {k: i for i, k in enumerate(network.state_labels)}
    rates = np.zeros((n, n))  # rates[i, j]: the rate from state i to state j
    for (src, dst), rate in network.rates.items():
        rates[index[src], index[dst]] = rate
    reach = (rates > 0.0) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):  # each pass doubles the path length
        reach = reach @ reach
    roots = np.flatnonzero(reach.all(axis=0))
    if len(roots) == 0:
        raise SingularNetwork("no state is reachable from every state; no unique steady state")
    # Reduce every other state away, the last one first, so the root is left.
    order = np.r_[roots[0], np.delete(np.arange(n), roots[0])]
    q = rates[np.ix_(order, order)]
    with np.errstate(all="ignore"):
        for k in range(n - 1, 0, -1):
            q[:k, k] /= q[k, :k].sum()
            q[:k, :k] += np.outer(q[:k, k], q[k, :k])
        p = np.ones(n)
        for j in range(1, n):
            p[j] = p[:j] @ q[:j, j]
        total = p.sum()
    # Every p[j] >= 0 and p[0] = 1, so a non-finite or overflowing one shows in the total.
    if not np.isfinite(total):
        raise DomainError(
            f"population ratios of the rate network leave the float range (sum {total})"
        )
    populations = np.empty(n)
    populations[order] = p / total
    return populations


def odmr_contrast(network: RateNetwork, mw_pair, mw_mixing_rate: float) -> float:
    """Relative fluorescence change when a microwave tone mixes two triplet
    sublevels: (F_on - F_off) / F_off from two steady-state solves.

    mw_pair names the two T1 sublevels ('x', 'y', 'z') to connect with a
    symmetric mixing rate (1/s); see RateNetwork.microwave_targets.
    """
    if mw_mixing_rate < 0.0:
        raise ValueError("mixing rate must be non-negative")
    a, b = network.microwave_targets(mw_pair)
    f_off = network.fluorescence
    driven = dict(network.rates)
    driven[(a, b)] = driven.get((a, b), 0.0) + mw_mixing_rate
    driven[(b, a)] = driven.get((b, a), 0.0) + mw_mixing_rate
    f_on = RateNetwork(network.state_labels, driven, network.emissive_flags).fluorescence
    if f_off <= 0.0:
        raise SingularNetwork("no fluorescence without the microwave drive")
    return (f_on - f_off) / f_off

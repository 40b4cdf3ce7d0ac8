"""Triplet electron spin with nuclear coupling: Hamiltonians, ODMR, gates.

The electron triplet lives in the S = 1 space; each nucleus contributes a
(2I+1)-dimensional factor. All couplings are angular frequencies (rad/s);
magnetic fields are tesla. The zero-field splitting is parametrized by the
conventional axial/transverse pair (D, E) in the molecular frame.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DimensionOverflow, DomainError, NotHermitian, PreconditionViolated
from .units import (
    BOHR_MAGNETON, CF4_STEP_BUDGET, GAMMA_PROTON, HBAR, cf4_propagator, lorentzian_sum, unit_scaled
)

# Spec'd default g-factor for the triplet electron spin.
G_ELECTRON_DEFAULT = 2.0023

DIMENSION_CAP = 4096


def angular_momentum_operators(spin) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sx, Sy, Sz) for arbitrary spin, basis ordered m = s, s-1, ..., -s."""
    s = Fraction(spin)
    if s < 0 or s.denominator not in (1, 2):
        raise ValueError(f"spin must be a non-negative half-integer, got {spin}")
    dim = int(2 * s) + 1
    m = s - np.arange(dim)  # descending projections
    mf = np.array([float(x) for x in m])
    # <m+1| S+ |m> = sqrt(s(s+1) - m(m+1))
    sp = np.zeros((dim, dim))
    ladder = np.sqrt(float(s * (s + 1)) - mf[1:] * (mf[1:] + 1.0))
    sp[np.arange(dim - 1), np.arange(1, dim)] = ladder
    sm = sp.T
    sx = 0.5 * (sp + sm).astype(complex)
    sy = -0.5j * (sp - sm)
    sz = np.diag(mf).astype(complex)
    return sx, sy, sz


@dataclass(frozen=True)
class NucleusSpec:
    """One nuclear spin: magnitude, hyperfine tensor, gyromagnetic ratio.

    hyperfine_tensor is the symmetric 3x3 coupling in rad/s entering
    S . A . I; gyromagnetic_ratio is in rad/(s T) and defaults to the free
    proton for the common I = 1/2 case. Symmetry is checked on A over its
    largest entry (units.unit_scaled) to 1e-12; a non-finite entry raises DomainError.
    """

    spin: Fraction
    hyperfine_tensor: tuple[tuple[float, ...], ...]
    gyromagnetic_ratio: float = GAMMA_PROTON

    def __post_init__(self):
        s = Fraction(self.spin)
        if s <= 0 or s.denominator not in (1, 2):
            raise ValueError(f"nuclear spin must be a positive half-integer, got {self.spin}")
        object.__setattr__(self, "spin", s)
        a = np.asarray(self.hyperfine_tensor, dtype=float)
        if a.shape != (3, 3):
            raise ValueError(f"hyperfine tensor must be 3x3, got shape {a.shape}")
        unit, _ = unit_scaled(a, "hyperfine tensor")
        if np.max(np.abs(unit - unit.T)) > 1e-12:
            raise ValueError("hyperfine tensor must be symmetric to 1e-12 (relative)")
        object.__setattr__(self, "hyperfine_tensor", tuple(map(tuple, a)))

    @property
    def tensor(self) -> np.ndarray:
        return np.asarray(self.hyperfine_tensor, dtype=float)

    @property
    def dimension(self) -> int:
        return int(2 * self.spin) + 1


@dataclass(frozen=True)
class SpinSystemSpec:
    """Triplet spin system: ZFS pair, static field, g-factor, nuclei.

    zfs_d and zfs_e are angular frequencies (rad/s) obeying the conventional
    ordering |E| <= |D|/3; magnetic_field is the lab-frame field in tesla.
    """

    zfs_d: float
    zfs_e: float = 0.0
    magnetic_field: tuple[float, float, float] = (0.0, 0.0, 0.0)
    g_electron: float = G_ELECTRON_DEFAULT
    nuclei: tuple[NucleusSpec, ...] = field(default=())

    def __post_init__(self):
        b = tuple(float(x) for x in self.magnetic_field)
        if len(b) != 3:
            raise ValueError("magnetic_field must have three cartesian components")
        object.__setattr__(self, "magnetic_field", b)
        object.__setattr__(self, "nuclei", tuple(self.nuclei))
        # zfs_tensor's 2D/3 overflows for |D| above about 9e307 rad/s.
        if not math.isfinite(2.0 * self.zfs_d / 3.0):
            raise ValueError(f"2D/3 is not finite for D={self.zfs_d}")
        # A bound on H's entries: the ZFS, electron Zeeman, nuclear Zeeman and
        # hyperfine terms, each its couplings times its spin. Past the float
        # range assemble_spin_hamiltonian overflows. Summed in Python floats,
        # which overflow to inf without a numpy warning.
        field_sum = sum(map(abs, b))
        larmor = abs(float(self.g_electron)) * BOHR_MAGNETON / HBAR
        bound = abs(float(self.zfs_d)) + abs(float(self.zfs_e)) + larmor * field_sum
        for nuc in self.nuclei:
            hyperfine = sum(abs(float(x)) for row in nuc.hyperfine_tensor for x in row)
            nuclear_zeeman = abs(float(nuc.gyromagnetic_ratio)) * field_sum
            bound += float(nuc.spin) * (nuclear_zeeman + hyperfine)
        if not math.isfinite(bound):
            raise ValueError(
                "the Hamiltonian entries overflow: the sum of the ZFS, Zeeman and"
                " hyperfine terms is not finite"
            )
        if abs(self.zfs_e) > abs(self.zfs_d) / 3.0 + 1e-12 * abs(self.zfs_d):
            raise ValueError(
                f"|E| <= |D|/3 required, got D={self.zfs_d}, E={self.zfs_e}"
            )


def zfs_tensor(zfs_d: float, zfs_e: float) -> np.ndarray:
    """Traceless principal-axis tensor with S.T.S = D(Sz^2 - S^2/3) + E(Sx^2 - Sy^2)."""
    return np.diag(
        [-zfs_d / 3.0 + zfs_e, -zfs_d / 3.0 - zfs_e, 2.0 * zfs_d / 3.0]
    )


def assemble_spin_hamiltonian(
    zfs: np.ndarray,
    magnetic_field,
    g_electron: float,
    nuclei: tuple[NucleusSpec, ...],
) -> np.ndarray:
    """Spin Hamiltonian from an explicit 3x3 ZFS tensor (rad/s).

    The tensor form exists so that globally rotated configurations (field,
    hyperfine, and ZFS all rotated together) can be assembled; the
    convenience wrapper :func:`build_spin_hamiltonian` uses the principal
    (D, E) parametrization. H = h_e (x) 1 + sum_a S_a (x) T_a - 1 (x) Z is
    built from its electron blocks: the 3x3 electron part h_e = S.D.S +
    (g mu_B / hbar) B.S, the hyperfine fields T_a = sum_k sum_c A^k_ac I^k_c
    and the nuclear Zeeman term Z = sum_k gamma_k B.I^k. T_a and Z are grown
    one nucleus at a time, X <- X (x) 1_k + 1 (x) X_k, so H takes five
    full-dimension Kronecker products whatever the number of nuclei.
    """
    nuclear_dimension = math.prod(n.dimension for n in nuclei)
    if 3 * nuclear_dimension > DIMENSION_CAP:
        raise DimensionOverflow(
            f"product space dimension {3 * nuclear_dimension} exceeds cap {DIMENSION_CAP}"
        )
    zfs = np.asarray(zfs, dtype=float)
    unit, _ = unit_scaled(zfs, "zfs tensor")
    if zfs.shape != (3, 3) or np.max(np.abs(unit - unit.T)) > 1e-12:
        raise ValueError("zfs tensor must be a symmetric 3x3 matrix")
    b = np.asarray(magnetic_field, dtype=float)
    svec = np.array(angular_momentum_operators(Fraction(1)))
    larmor = g_electron * BOHR_MAGNETON / HBAR
    h_e = sum(zfs[a, c] * (svec[a] @ svec[c]) for a in range(3) for c in range(3))
    h_e = h_e + larmor * np.tensordot(b, svec, axes=1)
    field_ops = np.zeros((3, 1, 1), dtype=complex)
    nuclear_zeeman = np.zeros((1, 1), dtype=complex)
    for nuc in nuclei:
        ivec = np.array(angular_momentum_operators(nuc.spin))
        before, own = np.eye(len(nuclear_zeeman)), np.eye(nuc.dimension)
        fields = np.tensordot(nuc.tensor, ivec, axes=1)
        zeeman = nuc.gyromagnetic_ratio * np.tensordot(b, ivec, axes=1)
        field_ops = np.kron(field_ops, own) + np.kron(before, fields)
        nuclear_zeeman = np.kron(nuclear_zeeman, own) + np.kron(before, zeeman)
    h = np.kron(h_e, np.eye(nuclear_dimension))
    for s_a, t_a in zip(svec, field_ops):
        h += np.kron(s_a, t_a)
    h -= np.kron(np.eye(3), nuclear_zeeman)
    return 0.5 * (h + h.conj().T)


def build_spin_hamiltonian(spec: SpinSystemSpec) -> np.ndarray:
    """Full spin Hamiltonian of the triplet plus its nuclei, in rad/s."""
    return assemble_spin_hamiltonian(
        zfs_tensor(spec.zfs_d, spec.zfs_e),
        spec.magnetic_field,
        spec.g_electron,
        spec.nuclei,
    )


@dataclass(frozen=True)
class SpinEigensystem:
    """Eigenvalues (ascending, rad/s) and eigenvector columns of a spin Hamiltonian."""

    energies: np.ndarray
    states: np.ndarray


def diagonalize(hamiltonian: np.ndarray) -> SpinEigensystem:
    """Eigendecomposition, checked on h over its largest entry (units.unit_scaled):
    Hermitian to 1e-10 and rebuilt to 1e-9 of its norm; non-finite is a DomainError."""
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"hamiltonian must be square, got shape {h.shape}")
    unit, top = unit_scaled(h, "hamiltonian")
    scale = float(np.linalg.norm(unit))
    if float(np.linalg.norm(unit - unit.conj().T)) > 1e-10 * scale:
        raise NotHermitian("hamiltonian deviates from Hermiticity beyond 1e-10 (relative)")
    energies, states = np.linalg.eigh(h)
    residual = float(np.linalg.norm((states * (energies / top)) @ states.conj().T - unit))
    if residual > 1e-9 * scale:
        raise NotHermitian(f"eigendecomposition residual {residual:.3e} too large")
    return SpinEigensystem(energies=energies, states=states)


def _spin_elements(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<f|S+|i> / sqrt(2) and <f|Sz|i> between eigenvector columns.

    With the eigenvectors' electron blocks v+, v0, v- (m = +1, 0, -1,
    consecutive rows), <f|S+|i> / sqrt(2) is the product of the row slices
    (v+; v0)^dag (v0; v-) and <f|Sz|i> is v+^dag v+ - v-^dag v-: 4/3 d^3 of
    complex work, against 3 d^3 for one block contraction per S_a. Every
    S_a follows, since Sx = (S+ + S-) / 2 and Sy = (S+ - S-) / 2i.
    """
    vh, n = states.conj().T, states.shape[0] // 3
    raising = vh[:, : 2 * n] @ states[n:]
    return raising, vh[:, :n] @ states[:n] - vh[:, 2 * n :] @ states[2 * n :]


def _transition_lines(eig: SpinEigensystem):
    """All upward eigenpair transitions with spin matrix-element weights.

    The weight sum_a |<f|S_a|i>|^2 is |<f|Sz|i>|^2 + (|<f|S+|i>|^2 +
    |<i|S+|f>|^2) / 2, from the elements of :func:`_spin_elements`.
    """
    raising, sz = _spin_elements(eig.states)
    weights = np.abs(sz) ** 2 + np.abs(raising) ** 2 + np.abs(raising.T) ** 2
    lower, upper = np.triu_indices(len(eig.energies), k=1)
    return eig.energies[upper] - eig.energies[lower], weights[upper, lower]


def odmr_spectrum(
    spec: SpinSystemSpec, grid, linewidth: float, eigensystem: SpinEigensystem | None = None
):
    """Magnetic-dipole stick spectrum convolved with a Lorentzian.

    Every eigenpair gap is weighted by |<f|Sx|i>|^2 + |<f|Sy|i>|^2 +
    |<f|Sz|i>|^2 and broadened to the given FWHM (rad/s). Returns the grid
    frequencies and the response sampled on them. A caller that already
    holds the diagonalized Hamiltonian of ``spec`` passes it as
    ``eigensystem`` so that it is not computed again.
    """
    if linewidth <= 0.0:
        raise ValueError(f"linewidth must be positive, got {linewidth}")
    if eigensystem is None:
        eigensystem = diagonalize(build_spin_hamiltonian(spec))
    gaps, weights = _transition_lines(eigensystem)
    bright = weights > 0.0
    freqs = grid.frequencies
    return freqs, lorentzian_sum(
        freqs, gaps[bright], np.full(int(bright.sum()), linewidth), weights[bright]
    )


@dataclass(frozen=True)
class CrotResult:
    """Realized gate unitary (interaction picture, in the H0 eigenbasis with
    energies ascending) and fidelity."""

    unitary: np.ndarray
    fidelity: float
    addressed: tuple[int, int]
    # CF4 steps evaluated for the accepted propagator: one drive period
    # plus the remainder segment, not duration / dt.
    step_count: int


# Coarse CF4 steps per radian of the fastest phase, max(|E|, omega_d, rabi) t;
# the halving check doubles them at least once. At 25 the shipped gate takes
# 324 steps in 11.2 ms and lies 1.1e-10 from a 32x finer propagation; the
# commutator Magnus form this replaced took 646 steps at 50 in 14.7 ms, 5.3e-10
# from its own, and CF4 at 50 costs 1.6x that. Over 120 seeded gates that pass
# the check, U moves by at most 1.3e-7, where both are 5-7e-8 from a 64x one.
_STEPS_PER_RADIAN = 25.0


def _period_layout(period, duration, steps_per_period):
    """Whole drive periods in ``duration``, the remainder after them and its
    CF4 steps at the density of steps_per_period per period; a float
    steps_per_period past the float range gives inf steps, not an error."""
    periods = int(duration // period)
    remainder = max(0.0, duration - periods * period)
    tail = steps_per_period * remainder / period if remainder else 0
    return periods, remainder, math.ceil(tail) if tail < math.inf else tail


def _magnus_propagate(h0, drive_op, amplitude, omega_d, duration, steps_per_period):
    """U(duration, 0) for H(t) = H0 + amplitude cos(omega_d t) drive_op.

    H(t) has period T = 2 pi / omega_d, so U(t + T, t) = U(T, 0) (Shirley,
    Phys. Rev. 138, B979, 1965): one period is integrated with
    steps_per_period CF4 steps of the generator -i H(t) and raised to the
    number of whole periods by repeated squaring; the remainder, which
    again starts at drive phase 0, gets steps at the same density. Returns
    the propagator and the number of CF4 steps evaluated.
    """
    period = 2.0 * math.pi / omega_d
    periods, remainder, tail_steps = _period_layout(period, duration, steps_per_period)
    generator = -1j * h0
    drives = [(lambda t: amplitude * np.cos(omega_d * t), -1j * drive_op)]
    u = np.eye(h0.shape[0], dtype=complex)
    evaluated = 0
    if periods:
        one_period = cf4_propagator(generator, drives, 0.0, period, steps_per_period)
        u = np.linalg.matrix_power(one_period, periods)
        evaluated += steps_per_period
    if tail_steps:
        u = cf4_propagator(generator, drives, 0.0, remainder, tail_steps) @ u
        evaluated += tail_steps
    return u, evaluated


def crot_gate(
    spec: SpinSystemSpec,
    drive_frequency: float,
    rabi_frequency: float,
    duration: float,
    drive_axis=(1.0, 0.0, 0.0),
) -> CrotResult:
    """Conditional electron rotation on one I = 1/2 nucleus.

    Integrates the Schroedinger equation for the monochromatic drive
    H(t) = H0 + A cos(w_d t) (u . S), with A scaled so rabi_frequency is the
    on-resonance population-oscillation angular frequency of the addressed
    transition (a pi pulse therefore takes duration = pi / rabi_frequency).
    The returned unitary is reported in the interaction picture of H0 and in
    the H0 eigenbasis (energies ascending), where an ideal gate is the
    identity everywhere except a pi rotation on the addressed pair; the
    fidelity is |Tr(U_ideal^dag U)/dim|^2 maximized over the free equatorial
    rotation-axis phase.
    """
    if len(spec.nuclei) != 1 or spec.nuclei[0].spin != Fraction(1, 2):
        raise PreconditionViolated("crot_gate requires exactly one I = 1/2 nucleus")
    if rabi_frequency < 0.0 or duration <= 0.0 or drive_frequency <= 0.0:
        raise PreconditionViolated("drive frequency and duration must be positive")

    axis = np.asarray(drive_axis, dtype=float)
    largest = float(np.max(np.abs(axis)))
    if not 0.0 < largest < math.inf:
        raise PreconditionViolated(f"drive axis must be finite and nonzero, got {axis.tolist()}")
    axis = axis / largest  # first, so that the norm is finite and nonzero
    axis = axis / np.linalg.norm(axis)

    eig = diagonalize(build_spin_hamiltonian(spec))
    energies = eig.energies
    omega_scale = max(float(np.max(np.abs(energies))), drive_frequency, rabi_frequency)
    period = 2.0 * math.pi / drive_frequency
    # Steps per drive period; omega_scale >= drive_frequency makes this >= 158.
    steps = period * _STEPS_PER_RADIAN * omega_scale
    steps = math.ceil(steps) if steps < math.inf else steps
    # Every step the coarse pass and its three halvings may evaluate, each over
    # one drive period (if the gate spans one) and the remainder, counted in
    # floats: a count past their range is inf and refused as well.
    count = 0.0
    for k in range(4):
        periods, _, tail_steps = _period_layout(period, duration, float(steps) * 2**k)
        count += (float(steps) * 2**k if periods else 0.0) + tail_steps
    if not count <= CF4_STEP_BUDGET:
        raise DomainError(
            f"the crot gate needs {count:.3g} CF4 steps, over the cap of {CF4_STEP_BUDGET}"
        )
    # Propagate in the H0 eigenbasis: H0 is diag(E) and the drive is u . S
    # there, Sx = (raising + lowering) / sqrt(2), Sy = -i (raising - lowering) / sqrt(2).
    raising, sz = _spin_elements(eig.states)
    lowering = raising.conj().T
    drive = math.sqrt(0.5) * (
        axis[0] * (raising + lowering) - 1j * axis[1] * (raising - lowering)
    ) + axis[2] * sz
    dim = len(energies)

    # Addressed pair: the drive-coupled transition nearest the drive tone,
    # ties broken by gap, lower level, upper level, then element size.
    upper, lower = np.nonzero(np.tril(np.abs(drive), k=-1) > 1e-9)
    if not upper.size:
        raise PreconditionViolated("drive axis couples no transition")
    elems, gaps = np.abs(drive[upper, lower]), energies[upper] - energies[lower]
    best = np.lexsort((elems, upper, lower, gaps, np.abs(gaps - drive_frequency)))[0]
    gap, lo, hi, elem = gaps[best], int(lower[best]), int(upper[best]), elems[best]
    others = np.abs(gaps - gap)
    if rabi_frequency > 0.1 * others.min(initial=np.inf, where=others > 1e-6 * max(gap, 1.0)):
        warnings.warn(
            "rabi frequency is not small against the splitting being addressed",
            stacklevel=2,
        )

    amplitude = 0.0 if rabi_frequency == 0.0 else rabi_frequency / elem
    # The steps resolve omega_scale; a nearly forbidden addressed pair makes
    # the drive term, at its largest absolute row sum, outrun it.
    drive_norm = amplitude * float(np.abs(drive).sum(axis=1).max())
    if drive_norm > omega_scale:
        raise PreconditionViolated(
            f"drive term {drive_norm:.3e} rad/s outruns the step scale {omega_scale:.3e} rad/s:"
            f" the addressed pair ({lo}, {hi}) has drive element {elem:.3e}"
        )
    h0 = np.diag(energies)
    u_coarse, _ = _magnus_propagate(h0, drive, amplitude, drive_frequency, duration, steps)
    # Halve the step until two propagators agree, at most three times.
    for _ in range(3):
        steps *= 2
        u, evaluated = _magnus_propagate(h0, drive, amplitude, drive_frequency, duration, steps)
        err = float(np.linalg.norm(u - u_coarse)) / math.sqrt(dim)
        if err <= 1e-6:
            break
        u_coarse = u
    else:
        warnings.warn(f"step-halving check stalled at {err:.2e}", stacklevel=2)

    # Interaction picture of H0: in its eigenbasis exp(i H0 T) is a row phase,
    # and the addressed indices label rows/columns of the matrix directly.
    b = np.exp(1j * energies * duration)[:, None] * u

    spectator = sum(b[k, k] for k in range(dim) if k not in (lo, hi))
    phis = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    trace = spectator + 1j * (
        b[hi, lo] * np.exp(-1j * phis) + b[lo, hi] * np.exp(1j * phis)
    )
    fidelity = float(np.max(np.abs(trace) ** 2) / dim**2)
    return CrotResult(
        unitary=b, fidelity=fidelity, addressed=(lo, hi), step_count=evaluated
    )

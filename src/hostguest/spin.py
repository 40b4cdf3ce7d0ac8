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

from .errors import DimensionOverflow, NotHermitian, PreconditionViolated
from .units import BOHR_MAGNETON, GAMMA_PROTON, HBAR, lorentzian_sum

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
    proton for the common I = 1/2 case.
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
        scale = max(1.0, float(np.max(np.abs(a))))
        if np.max(np.abs(a - a.T)) > 1e-12 * scale:
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
        if abs(self.zfs_e) > abs(self.zfs_d) / 3.0 + 1e-12 * abs(self.zfs_d):
            raise ValueError(
                f"|E| <= |D|/3 required, got D={self.zfs_d}, E={self.zfs_e}"
            )

    @property
    def dimension(self) -> int:
        d = 3
        for nuc in self.nuclei:
            d *= nuc.dimension
        return d


def zfs_tensor(zfs_d: float, zfs_e: float) -> np.ndarray:
    """Traceless principal-axis tensor with S.T.S = D(Sz^2 - S^2/3) + E(Sx^2 - Sy^2)."""
    return np.diag(
        [-zfs_d / 3.0 + zfs_e, -zfs_d / 3.0 - zfs_e, 2.0 * zfs_d / 3.0]
    )


def _nuclear_operators(nuclei: tuple[NucleusSpec, ...]):
    """Per-nucleus vector operators embedded in the nuclear product space."""
    dims = [n.dimension for n in nuclei]
    embedded = []
    for k, nuc in enumerate(nuclei):
        before = np.eye(math.prod(dims[:k]), dtype=complex)
        after = np.eye(math.prod(dims[k + 1 :]), dtype=complex)
        embedded.append(
            tuple(
                np.kron(np.kron(before, op), after)
                for op in angular_momentum_operators(nuc.spin)
            )
        )
    return embedded


def _electron_operators(spec: SpinSystemSpec):
    """Electron vector operator S_a (x) I over the full product space."""
    identity = np.eye(spec.dimension // 3, dtype=complex)
    return tuple(np.kron(op, identity) for op in angular_momentum_operators(Fraction(1)))


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
    and the nuclear Zeeman term Z = sum_k gamma_k B.I^k. T_a and Z are summed
    in the nuclear space, so H takes five full-dimension Kronecker products
    whatever the number of nuclei.
    """
    nuclear_dimension = math.prod(n.dimension for n in nuclei)
    if 3 * nuclear_dimension > DIMENSION_CAP:
        raise DimensionOverflow(
            f"product space dimension {3 * nuclear_dimension} exceeds cap {DIMENSION_CAP}"
        )
    zfs = np.asarray(zfs, dtype=float)
    if zfs.shape != (3, 3) or np.max(np.abs(zfs - zfs.T)) > 1e-12 * max(
        1.0, float(np.max(np.abs(zfs)))
    ):
        raise ValueError("zfs tensor must be a symmetric 3x3 matrix")
    b = np.asarray(magnetic_field, dtype=float)
    svec = np.array(angular_momentum_operators(Fraction(1)))
    larmor = g_electron * BOHR_MAGNETON / HBAR
    h_e = sum(zfs[a, c] * (svec[a] @ svec[c]) for a in range(3) for c in range(3))
    h_e = h_e + larmor * np.tensordot(b, svec, axes=1)
    field_ops = np.zeros((3, nuclear_dimension, nuclear_dimension), dtype=complex)
    nuclear_zeeman = np.zeros((nuclear_dimension, nuclear_dimension), dtype=complex)
    for nuc, ivec in zip(nuclei, map(np.array, _nuclear_operators(nuclei))):
        field_ops += np.tensordot(nuc.tensor, ivec, axes=1)
        nuclear_zeeman += nuc.gyromagnetic_ratio * np.tensordot(b, ivec, axes=1)
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
    """Eigendecomposition with Hermiticity and reconstruction checks."""
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"hamiltonian must be square, got shape {h.shape}")
    scale = max(float(np.linalg.norm(h)), 1e-300)
    if float(np.linalg.norm(h - h.conj().T)) > 1e-10 * scale:
        raise NotHermitian("hamiltonian deviates from Hermiticity beyond 1e-10 (relative)")
    energies, states = np.linalg.eigh(h)
    residual = float(
        np.linalg.norm(states @ np.diag(energies) @ states.conj().T - h)
    )
    if residual > 1e-9 * scale:
        raise NotHermitian(f"eigendecomposition residual {residual:.3e} too large")
    return SpinEigensystem(energies=energies, states=states)


def _transition_lines(spec: SpinSystemSpec, eig: SpinEigensystem):
    """All upward eigenpair transitions with spin matrix-element weights."""
    v = eig.states
    weights = sum(np.abs(v.conj().T @ op @ v) ** 2 for op in _electron_operators(spec))
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
    gaps, weights = _transition_lines(spec, eigensystem)
    bright = weights > 0.0
    fwhms = [linewidth] * int(bright.sum())
    freqs = grid.frequencies
    return freqs, lorentzian_sum(freqs, gaps[bright].tolist(), fwhms, weights[bright].tolist())


@dataclass(frozen=True)
class CrotResult:
    """Realized gate unitary (interaction picture, product basis) and fidelity."""

    unitary: np.ndarray
    fidelity: float
    addressed: tuple[int, int]
    # Magnus steps evaluated for the accepted propagator: one drive period
    # plus the remainder segment, not duration / dt.
    step_count: int


# Steps evaluated per stacked eigh call; bounds the scratch arrays to a few MB.
_MAGNUS_BATCH = 4096


def _magnus_segment(h0, drive_op, amplitude, omega_d, duration, steps):
    """Fourth-order two-point Magnus propagator over [0, duration]; exactly unitary.

    The steps are independent, so each batch is diagonalized in one stacked
    eigh call; the step exponentials are then multiplied in time order.
    """
    dt = duration / steps
    c1 = 0.5 - math.sqrt(3.0) / 6.0
    c2 = 0.5 + math.sqrt(3.0) / 6.0
    k_comm = math.sqrt(3.0) * dt * dt / 12.0
    u = np.eye(h0.shape[0], dtype=complex)
    for first in range(0, steps, _MAGNUS_BATCH):
        t = np.arange(first, min(first + _MAGNUS_BATCH, steps)) * dt
        a1 = amplitude * np.cos(omega_d * (t + c1 * dt))
        a2 = amplitude * np.cos(omega_d * (t + c2 * dt))
        h1 = h0 + a1[:, None, None] * drive_op
        h2 = h0 + a2[:, None, None] * drive_op
        m = (0.5 * dt) * (h1 + h2) - (1j * k_comm) * (h2 @ h1 - h1 @ h2)
        w, v = np.linalg.eigh(m)
        for step in (v * np.exp(-1j * w)[:, None, :]) @ v.conj().transpose(0, 2, 1):
            u = step @ u
    return u


def _magnus_propagate(h0, drive_op, amplitude, omega_d, duration, steps_per_period):
    """U(duration, 0) for H(t) = H0 + amplitude cos(omega_d t) drive_op.

    H(t) has period T = 2 pi / omega_d, so U(t + T, t) = U(T, 0) (Shirley,
    Phys. Rev. 138, B979, 1965): one period is integrated with
    steps_per_period Magnus steps and raised to the number of whole periods
    by repeated squaring; the remainder, which again starts at drive phase
    0, gets steps at the same density. Returns the propagator and the
    number of Magnus steps evaluated.
    """
    period = 2.0 * math.pi / omega_d
    periods = int(duration // period)
    remainder = max(0.0, duration - periods * period)
    u = np.eye(h0.shape[0], dtype=complex)
    evaluated = 0
    if periods:
        one_period = _magnus_segment(h0, drive_op, amplitude, omega_d, period, steps_per_period)
        u = np.linalg.matrix_power(one_period, periods)
        evaluated += steps_per_period
    tail_steps = math.ceil(steps_per_period * remainder / period)
    if tail_steps:
        u = _magnus_segment(h0, drive_op, amplitude, omega_d, remainder, tail_steps) @ u
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

    h0 = build_spin_hamiltonian(spec)
    eig = diagonalize(h0)
    sx, sy, sz = _electron_operators(spec)
    u_axis = np.asarray(drive_axis, dtype=float)
    u_axis = u_axis / np.linalg.norm(u_axis)
    drive = u_axis[0] * sx + u_axis[1] * sy + u_axis[2] * sz
    v = eig.states
    drive_eig = v.conj().T @ drive @ v
    dim = h0.shape[0]

    # Addressed pair: the drive-coupled transition nearest the drive tone.
    coupled = []
    for i in range(dim):
        for f in range(i + 1, dim):
            elem = abs(drive_eig[f, i])
            if elem > 1e-9:
                gap = float(eig.energies[f] - eig.energies[i])
                coupled.append((abs(gap - drive_frequency), gap, i, f, elem))
    if not coupled:
        raise PreconditionViolated("drive axis couples no transition")
    coupled.sort()
    _, gap, lo, hi, elem = coupled[0]
    others = [abs(c[1] - gap) for c in coupled[1:] if abs(c[1] - gap) > 1e-6 * max(gap, 1.0)]
    if others and rabi_frequency > 0.1 * min(others):
        warnings.warn(
            "rabi frequency is not small against the splitting being addressed",
            stacklevel=2,
        )

    amplitude = 0.0 if rabi_frequency == 0.0 else rabi_frequency / elem
    omega_scale = max(
        float(np.max(np.abs(eig.energies))), drive_frequency, rabi_frequency
    )
    # Steps per drive period; omega_scale >= drive_frequency makes this >= 315.
    steps = math.ceil(2.0 * math.pi / drive_frequency * 50.0 * omega_scale)
    u_coarse, _ = _magnus_propagate(h0, drive, amplitude, drive_frequency, duration, steps)
    # Halve the step until two propagators agree, at most three times.
    for _ in range(3):
        steps *= 2
        u_lab, evaluated = _magnus_propagate(
            h0, drive, amplitude, drive_frequency, duration, steps
        )
        err = float(np.linalg.norm(u_lab - u_coarse)) / math.sqrt(dim)
        if err <= 1e-6:
            break
        u_coarse = u_lab
    else:
        warnings.warn(f"step-halving check stalled at {err:.2e}", stacklevel=2)

    # Interaction picture of H0, expressed in the H0 eigenbasis so the
    # addressed indices label rows/columns of the returned matrix directly.
    phase = v @ np.diag(np.exp(1j * eig.energies * duration)) @ v.conj().T
    b = v.conj().T @ (phase @ u_lab) @ v

    spectator = sum(b[k, k] for k in range(dim) if k not in (lo, hi))
    phis = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    trace = spectator + 1j * (
        b[hi, lo] * np.exp(-1j * phis) + b[lo, hi] * np.exp(1j * phis)
    )
    fidelity = float(np.max(np.abs(trace) ** 2) / dim**2)
    return CrotResult(
        unitary=b, fidelity=fidelity, addressed=(lo, hi), step_count=evaluated
    )

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.spatial.transform import Rotation

from hostguest import spin
from hostguest.errors import DimensionOverflow, NotHermitian, PreconditionViolated
from hostguest.spin import (
    G_ELECTRON_DEFAULT,
    NucleusSpec,
    SpinSystemSpec,
    angular_momentum_operators,
    assemble_spin_hamiltonian,
    build_spin_hamiltonian,
    crot_gate,
    diagonalize,
    odmr_spectrum,
    zfs_tensor,
)
from hostguest.units import BOHR_MAGNETON, HBAR, FrequencyGrid

TWO_PI = 2.0 * math.pi


# --- angular momentum algebra ------------------------------------------------


@pytest.mark.parametrize("s", ["1/2", 1, "3/2", 2])
def test_su2_algebra(s):
    sx, sy, sz = angular_momentum_operators(s)
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-14)
    assert np.allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-14)
    casimir = sx @ sx + sy @ sy + sz @ sz
    spin = float(eval(str(s))) if isinstance(s, str) else float(s)
    assert np.allclose(casimir, spin * (spin + 1.0) * np.eye(sx.shape[0]), atol=1e-13)


def test_operators_are_hermitian():
    for op in angular_momentum_operators(1):
        assert np.allclose(op, op.conj().T)


def test_invalid_spin_rejected():
    with pytest.raises(ValueError):
        angular_momentum_operators("2/3")
    with pytest.raises(ValueError):
        angular_momentum_operators(-1)


# --- zero-field splitting ------------------------------------------------------


def test_zero_field_eigenvalues_closed_form():
    d, e = TWO_PI * 1.4e9, TWO_PI * 0.2e9
    spec = SpinSystemSpec(zfs_d=d, zfs_e=e)
    eig = diagonalize(build_spin_hamiltonian(spec))
    expected = np.sort([-2.0 * d / 3.0, d / 3.0 - e, d / 3.0 + e])
    assert np.allclose(eig.energies, expected, rtol=1e-12, atol=1e-3)


def test_zero_field_eigenvalues_random_draws():
    rng = np.random.default_rng(42)
    for _ in range(25):
        d = TWO_PI * rng.uniform(0.1e9, 5e9) * rng.choice([-1.0, 1.0])
        e = rng.uniform(-1.0, 1.0) * abs(d) / 3.0
        eig = diagonalize(build_spin_hamiltonian(SpinSystemSpec(zfs_d=d, zfs_e=e)))
        expected = np.sort([-2.0 * d / 3.0, d / 3.0 - e, d / 3.0 + e])
        assert np.max(np.abs(eig.energies - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_zfs_tensor_is_traceless():
    t = zfs_tensor(TWO_PI * 1e9, TWO_PI * 0.1e9)
    assert abs(np.trace(t)) <= 1e-6
    assert np.allclose(t, t.T)


def test_e_bounded_by_d_over_3():
    with pytest.raises(ValueError):
        SpinSystemSpec(zfs_d=TWO_PI * 1e9, zfs_e=TWO_PI * 0.4e9)
    # the boundary itself is legal
    SpinSystemSpec(zfs_d=TWO_PI * 1e9, zfs_e=TWO_PI * 1e9 / 3.0)


# --- Zeeman ------------------------------------------------------------------


def test_pure_zeeman_splitting():
    b = 5e-3
    spec = SpinSystemSpec(zfs_d=0.0, zfs_e=0.0, magnetic_field=(0.0, 0.0, b))
    eig = diagonalize(build_spin_hamiltonian(spec))
    larmor = G_ELECTRON_DEFAULT * BOHR_MAGNETON * b / HBAR
    assert np.allclose(eig.energies, [-larmor, 0.0, larmor], rtol=1e-12, atol=1e-2)


def test_g_factor_scales_zeeman():
    spec_a = SpinSystemSpec(zfs_d=0.0, magnetic_field=(0, 0, 1e-3), g_electron=2.0)
    spec_b = SpinSystemSpec(zfs_d=0.0, magnetic_field=(0, 0, 1e-3), g_electron=4.0)
    ea = diagonalize(build_spin_hamiltonian(spec_a)).energies
    eb = diagonalize(build_spin_hamiltonian(spec_b)).energies
    assert np.allclose(eb, 2.0 * ea, rtol=1e-12, atol=1e-3)


# --- hyperfine ----------------------------------------------------------------


def test_hyperfine_doublet_matches_secular_projection():
    # One I=1/2 nucleus, A diagonal, weak axial field: each electron line
    # splits into a doublet separated by |A_zz| to first order.
    a_zz = TWO_PI * 10e6
    nucleus = NucleusSpec(
        spin="1/2",
        hyperfine_tensor=np.diag([TWO_PI * 1e6, TWO_PI * 1e6, a_zz]),
    )
    spec = SpinSystemSpec(
        zfs_d=TWO_PI * 1.4e9,
        magnetic_field=(0.0, 0.0, 2e-3),
        nuclei=(nucleus,),
    )
    eig = diagonalize(build_spin_hamiltonian(spec))
    energies = eig.energies  # ascending, dim 6
    # upper electron branch (m_S = +1) is the top pair of levels
    upper = energies[-2:]
    # lower branch of the m_S = 0 manifold is the bottom pair
    lower = energies[:2]
    lines = np.array([u - l for u in upper for l in lower])
    lines.sort()
    # m_I-conserving lines form the doublet; its splitting tracks A_zz
    doublet = lines[-1] - lines[0]
    assert doublet == pytest.approx(a_zz, rel=0.01)


def test_nucleus_spec_validation():
    with pytest.raises(ValueError):
        NucleusSpec(spin="1/2", hyperfine_tensor=np.ones((2, 2)))
    asym = np.diag([1.0, 1.0, 2.0])
    asym[0, 1] = 1e6
    with pytest.raises(ValueError):
        NucleusSpec(spin="1/2", hyperfine_tensor=asym)
    with pytest.raises(ValueError):
        NucleusSpec(spin=0, hyperfine_tensor=np.eye(3))


def test_dimension_cap():
    # 3 * 4^6 = 12288 > 4096
    nuclei = tuple(
        NucleusSpec(spin="3/2", hyperfine_tensor=np.eye(3) * 1e6) for _ in range(6)
    )
    spec = SpinSystemSpec(zfs_d=TWO_PI * 1e9, nuclei=nuclei)
    with pytest.raises(DimensionOverflow):
        build_spin_hamiltonian(spec)


def test_diagonalize_rejects_non_hermitian():
    m = np.eye(3, dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        diagonalize(m)


def test_rotation_invariance_with_co_rotated_tensors():
    # Rotating the molecular frame (ZFS tensor, hyperfine tensor, field
    # vector together) must leave the spectrum invariant.
    rng = np.random.default_rng(3)
    d, e = TWO_PI * 2.1e9, TWO_PI * 0.3e9
    a = np.diag([TWO_PI * 2e6, TWO_PI * 3e6, TWO_PI * 40e6])
    b = np.array([1.2e-3, -0.4e-3, 2.5e-3])
    nucleus = NucleusSpec(spin="1/2", hyperfine_tensor=a)
    h0 = assemble_spin_hamiltonian(zfs_tensor(d, e), b, G_ELECTRON_DEFAULT, (nucleus,))
    e0 = diagonalize(h0).energies
    for _ in range(5):
        r = Rotation.random(random_state=rng).as_matrix()
        h1 = assemble_spin_hamiltonian(
            r @ zfs_tensor(d, e) @ r.T,
            r @ b,
            G_ELECTRON_DEFAULT,
            (NucleusSpec(spin="1/2", hyperfine_tensor=r @ a @ r.T),),
        )
        e1 = diagonalize(h1).energies
        assert np.max(np.abs(e1 - e0)) <= 1e-9 * np.max(np.abs(e0))


def _dense_hamiltonian(zfs, b, g_electron, nuclei):
    """Reference assembly: every operator embedded densely, terms multiplied."""
    dims = [3] + [n.dimension for n in nuclei]
    factors = [angular_momentum_operators(1)] + [
        angular_momentum_operators(n.spin) for n in nuclei
    ]
    embedded = []
    for k, triple in enumerate(factors):
        ops = []
        for op in triple:
            full = np.eye(1, dtype=complex)
            for j, d in enumerate(dims):
                full = np.kron(full, op if j == k else np.eye(d))
            ops.append(full)
        embedded.append(ops)
    s, nuclear = embedded[0], embedded[1:]
    larmor = g_electron * BOHR_MAGNETON / HBAR
    h = sum(zfs[a, c] * (s[a] @ s[c]) for a in range(3) for c in range(3))
    h = h + sum(larmor * b[a] * s[a] for a in range(3))
    for nuc, ivec in zip(nuclei, nuclear):
        a_tensor = nuc.tensor
        h = h + sum(a_tensor[a, c] * (s[a] @ ivec[c]) for a in range(3) for c in range(3))
        h = h - sum(nuc.gyromagnetic_ratio * b[a] * ivec[a] for a in range(3))
    return h


def _mixed_system(rng):
    """Rotated ZFS, a general field and full random hyperfine tensors on
    nuclei of spin 1/2, 1 and 3/2 (dimension 72)."""
    nuclei = []
    for s, gamma in (("1/2", 2.675e8), (1, 1.934e7), ("3/2", 7.08e7)):
        a = rng.uniform(-1.0, 1.0, (3, 3)) * TWO_PI * 5e6
        nuclei.append(
            NucleusSpec(spin=s, hyperfine_tensor=a + a.T, gyromagnetic_ratio=gamma)
        )
    r = Rotation.random(random_state=rng).as_matrix()
    zfs = r @ zfs_tensor(TWO_PI * 1.4e9, TWO_PI * 0.2e9) @ r.T
    b = np.array([1.5e-3, -2.0e-3, 0.7e-3])
    return zfs, b, tuple(nuclei)


def test_kronecker_assembly_matches_dense_embedding():
    zfs, b, nuclei = _mixed_system(np.random.default_rng(11))
    diagonal = tuple(
        NucleusSpec(
            spin=n.spin,
            hyperfine_tensor=np.diag(np.diag(n.tensor)),
            gyromagnetic_ratio=n.gyromagnetic_ratio,
        )
        for n in nuclei
    )
    uncoupled = tuple(NucleusSpec(spin=n.spin, hyperfine_tensor=np.zeros((3, 3))) for n in nuclei)
    mixed = (diagonal[0], uncoupled[1], nuclei[2])
    # Zero field and diagonal or all-zero hyperfine tensors: terms that vanish.
    zero = np.zeros(3)
    cases = [
        (b, nuclei),
        (zero, nuclei),
        (b, diagonal),
        (b, uncoupled),
        (zero, uncoupled),
        (b, mixed),
        (b, ()),
    ]
    for field_b, nuc in cases:
        h = assemble_spin_hamiltonian(zfs, field_b, G_ELECTRON_DEFAULT, nuc)
        reference = _dense_hamiltonian(zfs, field_b, G_ELECTRON_DEFAULT, nuc)
        assert h.shape == (3 * math.prod(n.dimension for n in nuc),) * 2
        assert np.max(np.abs(h - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_assembly_makes_five_full_dimension_kronecker_products(monkeypatch):
    # Electron part, three hyperfine field blocks and the nuclear Zeeman
    # term: five products of the full dimension, whatever the nuclei.
    zfs, b, nuclei = _mixed_system(np.random.default_rng(11))
    dim = 3 * math.prod(n.dimension for n in nuclei)
    kron = np.kron
    shapes = []

    def counting_kron(a, c):
        out = kron(a, c)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(spin.np, "kron", counting_kron)
    assemble_spin_hamiltonian(zfs, b, G_ELECTRON_DEFAULT, nuclei)
    assert shapes.count((dim, dim)) == 5


# --- ODMR spectrum -------------------------------------------------------------


def test_odmr_zero_field_line_positions():
    d, e = TWO_PI * 1.4e9, TWO_PI * 0.2e9
    spec = SpinSystemSpec(zfs_d=d, zfs_e=e)
    grid = FrequencyGrid(start=TWO_PI * 0.1e9, stop=TWO_PI * 2.0e9, points=4001)
    freqs, response = odmr_spectrum(spec, grid, linewidth=TWO_PI * 5e6)
    assert freqs.shape == response.shape == (4001,)
    assert np.all(response >= 0.0)
    # expected microwave lines: D-E, D+E, 2E
    for line in (d - e, d + e, 2.0 * e):
        k = int(np.argmin(np.abs(freqs - line)))
        window = response[max(k - 40, 0) : k + 41]
        assert response[k] >= 0.5 * window.max()
        assert window.max() == response[max(k - 40, 0) : k + 41].max()
        # a genuine local peak, well above the baseline
        assert response[k] > 10.0 * np.median(response)


def test_odmr_line_weights_scale_with_matrix_elements():
    spec = SpinSystemSpec(zfs_d=TWO_PI * 1.4e9, zfs_e=TWO_PI * 0.2e9)
    grid = FrequencyGrid(start=TWO_PI * 0.1e9, stop=TWO_PI * 2.0e9, points=8001)
    freqs, response = odmr_spectrum(spec, grid, linewidth=TWO_PI * 2e6)
    total = np.trapezoid(response, freqs)
    assert total > 0.0


def test_odmr_spectrum_makes_one_line_sum(monkeypatch):
    calls = []
    line_sum = spin.lorentzian_sum

    def counted(freqs, centers, fwhms, weights):
        calls.append(len(centers))
        return line_sum(freqs, centers, fwhms, weights)

    monkeypatch.setattr(spin, "lorentzian_sum", counted)
    nucleus = NucleusSpec(spin="1/2", hyperfine_tensor=np.diag([1.0, 1.0, 10.0]) * TWO_PI * 1e6)
    spec = SpinSystemSpec(
        zfs_d=TWO_PI * 1.4e9, zfs_e=TWO_PI * 0.2e9, magnetic_field=(0.0, 0.0, 2e-3),
        nuclei=(nucleus,),
    )
    grid = FrequencyGrid(start=TWO_PI * 0.1e9, stop=TWO_PI * 2.0e9, points=101)
    odmr_spectrum(spec, grid, linewidth=TWO_PI * 2e6)
    assert len(calls) == 1 and calls[0] > 1


def test_odmr_spectrum_sums_lines_in_pair_order():
    nucleus = NucleusSpec(spin=1, hyperfine_tensor=np.diag([1.0, 2.0, 9.0]) * TWO_PI * 1e6)
    spec = SpinSystemSpec(
        zfs_d=TWO_PI * 1.4e9,
        zfs_e=TWO_PI * 0.2e9,
        magnetic_field=(1e-3, 0.0, 2e-3),
        nuclei=(nucleus,),
    )
    grid = FrequencyGrid(start=TWO_PI * 0.1e9, stop=TWO_PI * 2.0e9, points=1001)
    linewidth = TWO_PI * 3e6
    eig = diagonalize(build_spin_hamiltonian(spec))
    _, response = odmr_spectrum(spec, grid, linewidth, eigensystem=eig)
    # The loop this replaced: one pair at a time, upper triangle, row order.
    v = eig.states
    weights = sum(
        np.abs(v.conj().T @ np.kron(op, np.eye(3)) @ v) ** 2
        for op in angular_momentum_operators(1)
    )
    expected = np.zeros_like(grid.frequencies)
    half = 0.5 * linewidth
    n = len(eig.energies)
    for i in range(n):
        for f in range(i + 1, n):
            omega0, weight = float(eig.energies[f] - eig.energies[i]), float(weights[f, i])
            if weight > 0.0:
                expected += weight * (half / math.pi) / (
                    (grid.frequencies - omega0) ** 2 + half**2
                )
    assert np.array_equal(response, expected)


# --- conditional rotation gate --------------------------------------------------


def _crot_spec():
    a = np.diag([TWO_PI * 0.5e6, TWO_PI * 0.5e6, TWO_PI * 4e6])
    return SpinSystemSpec(
        zfs_d=TWO_PI * 50e6,
        magnetic_field=(0.0, 0.0, 5e-4),
        nuclei=(NucleusSpec(spin="1/2", hyperfine_tensor=a),),
    )


def test_crot_produces_unitary_pi_pulse():
    spec = _crot_spec()
    rabi = TWO_PI * 0.3e6
    result = crot_gate(
        spec,
        drive_frequency=TWO_PI * 66.0144e6,
        rabi_frequency=rabi,
        duration=math.pi / rabi,
    )
    u = result.unitary
    dim = u.shape[0]
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-9
    lo, hi = result.addressed
    # full population transfer on the addressed pair, conditional on m_I
    assert abs(u[hi, lo]) == pytest.approx(1.0, abs=5e-3)
    assert abs(u[lo, hi]) == pytest.approx(1.0, abs=5e-3)
    assert result.fidelity >= 0.99
    # spectator levels stay put
    spectators = [k for k in range(dim) if k not in (lo, hi)]
    for k in spectators:
        assert abs(u[k, k]) >= 0.99


def test_crot_zero_rabi_is_identity():
    result = crot_gate(
        _crot_spec(),
        drive_frequency=TWO_PI * 66.0144e6,
        rabi_frequency=0.0,
        duration=1e-7,
    )
    dim = result.unitary.shape[0]
    assert np.max(np.abs(result.unitary - np.eye(dim))) <= 1e-9
    # against the identity target the realized gate is perfect
    fid_identity = abs(np.trace(result.unitary) / dim) ** 2
    assert fid_identity == pytest.approx(1.0, abs=1e-9)


def test_crot_far_detuned_drive_moves_no_population():
    # detuned ~14 MHz from both hyperfine lines with a 0.2 MHz drive
    spec = _crot_spec()
    rabi = TWO_PI * 0.2e6
    result = crot_gate(
        spec,
        drive_frequency=TWO_PI * 80e6,
        rabi_frequency=rabi,
        duration=5e-7,
    )
    u = result.unitary
    lo, hi = result.addressed
    assert abs(u[hi, lo]) ** 2 <= 1e-2


def test_crot_requires_single_spin_half_nucleus():
    with pytest.raises(PreconditionViolated):
        crot_gate(
            SpinSystemSpec(zfs_d=TWO_PI * 50e6),
            drive_frequency=TWO_PI * 50e6,
            rabi_frequency=TWO_PI * 1e6,
            duration=1e-6,
        )


def test_crot_rejects_nonpositive_drive():
    with pytest.raises(PreconditionViolated):
        crot_gate(
            _crot_spec(),
            drive_frequency=TWO_PI * 66e6,
            rabi_frequency=-TWO_PI * 1e6,
            duration=1e-6,
        )
    with pytest.raises(PreconditionViolated):
        crot_gate(
            _crot_spec(),
            drive_frequency=TWO_PI * 66e6,
            rabi_frequency=TWO_PI * 1e6,
            duration=0.0,
        )


def _serial_magnus(h0, drive_op, amplitude, omega_d, duration, steps_per_period):
    """Step-by-step two-point Magnus product in absolute time, no period reuse.

    Same step grid as the propagator: whole periods at T / m, then the
    remainder at the same density.
    """
    period = TWO_PI / omega_d
    periods = int(duration // period)
    remainder = duration - periods * period
    tail = math.ceil(steps_per_period * remainder / period)
    starts = [(j * period + k * period / steps_per_period, period / steps_per_period)
              for j in range(periods) for k in range(steps_per_period)]
    starts += [(periods * period + k * remainder / tail, remainder / tail) for k in range(tail)]
    c1, c2 = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0
    u = np.eye(h0.shape[0], dtype=complex)
    for t, dt in starts:
        h1 = h0 + amplitude * math.cos(omega_d * (t + c1 * dt)) * drive_op
        h2 = h0 + amplitude * math.cos(omega_d * (t + c2 * dt)) * drive_op
        omega = 0.5 * dt * (h1 + h2) - 1j * (math.sqrt(3.0) * dt * dt / 12.0) * (
            h2 @ h1 - h1 @ h2
        )
        u = expm(-1j * omega) @ u
    return u


# (drive periods, Magnus steps evaluated at 200 per period)
@pytest.mark.parametrize(
    "periods, expected_steps", [(0.4321, 87), (4.0, 200), (2.3711, 200 + 75)]
)
def test_period_reuse_matches_serial_magnus(periods, expected_steps, monkeypatch):
    # Small batches, so that segments span several stacked eigh calls.
    monkeypatch.setattr(spin, "_MAGNUS_BATCH", 64)
    spec = _crot_spec()
    h0 = build_spin_hamiltonian(spec)
    drive = np.kron(angular_momentum_operators(1)[0], np.eye(2))
    omega_d = TWO_PI * 66.0144e6
    amplitude = TWO_PI * 0.3e6 / 0.7
    steps = 200
    duration = periods * TWO_PI / omega_d
    u, evaluated = spin._magnus_propagate(h0, drive, amplitude, omega_d, duration, steps)
    reference = _serial_magnus(h0, drive, amplitude, omega_d, duration, steps)
    assert evaluated == expected_steps
    assert np.max(np.abs(u - reference)) <= 1e-10
    assert np.max(np.abs(u.conj().T @ u - np.eye(6))) <= 1e-12

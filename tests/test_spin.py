import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.spatial.transform import Rotation

from hostguest import spin, units
from hostguest.errors import DimensionOverflow, DomainError, NotHermitian, PreconditionViolated
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
from hostguest.scenarios import validate_config
from hostguest.units import BOHR_MAGNETON, HBAR, FrequencyGrid

from line_sum_oracle import assert_matches_ordered_sum

TWO_PI = 2.0 * math.pi
REPO = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize(
    "system",
    [
        *({"magnetic_field": np.eye(3)[axis] * 1e300} for axis in range(3)),
        {"g_electron": 1e300},  # inf times a zero field
        {"magnetic_field": (0.0, 0.0, 10.0), "nuclei": (NucleusSpec("1/2", np.eye(3), 1e308),)},
        {"nuclei": (NucleusSpec("1/2", np.eye(3) * 1e308),)},  # three entries of 1e308
    ],
)
def test_a_spec_whose_hamiltonian_overflows_is_refused(system):
    # Refused without a numpy warning, before any array is built.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="the Hamiltonian entries overflow"):
            SpinSystemSpec(zfs_d=TWO_PI * 1e9, **system)


def test_a_spec_with_huge_finite_terms_is_assembled_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        proton = NucleusSpec(spin="1/2", hyperfine_tensor=np.diag([1e6, 1e6, 3e6]))
        spec = SpinSystemSpec(zfs_d=1e307, magnetic_field=(0.0, 0.0, 1e150), nuclei=(proton,))
        assert np.isfinite(build_spin_hamiltonian(spec)).all()


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


# Symmetry is relative to the largest entry at every scale, so a tensor whose
# entries are all below 1 is held to 1e-12 of them too.
_SMALL_ASYMMETRIC = np.diag([1e-3, 1e-3, 2e-3])
_SMALL_ASYMMETRIC[0, 1] = 1e-14


@pytest.mark.parametrize(
    "check",
    [
        lambda tensor: NucleusSpec(spin="1/2", hyperfine_tensor=tensor),
        lambda tensor: assemble_spin_hamiltonian(tensor, (0.0, 0.0, 0.0), G_ELECTRON_DEFAULT, ()),
    ],
    ids=["hyperfine", "zfs"],
)
def test_tensor_checks_refuse_small_asymmetry_and_non_finite_entries(check):
    check(_SMALL_ASYMMETRIC + _SMALL_ASYMMETRIC.T)
    with pytest.raises(ValueError, match="symmetric"):
        check(_SMALL_ASYMMETRIC)
    nan = np.eye(3)
    nan[2, 2] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="tensor has non-finite entries$"):
            check(nan)


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


@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_diagonalize_checks_relative_to_the_largest_entry(scale):
    # Checked on h over its largest entry: a 1e-9 relative asymmetry is
    # caught at any scale, and a Hermitian h of entries near 1e200 (whose
    # plain norm overflows) passes without a warning.
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (a + a.conj().T) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        energies = diagonalize(h).energies
        h[0, 1] += 1e-9 * np.abs(h).max()
        with pytest.raises(NotHermitian):
            diagonalize(h)
    assert np.all(np.isfinite(energies))


@pytest.mark.parametrize("entry", [math.inf, math.nan])
def test_diagonalize_rejects_non_finite_entries_without_a_warning(entry):
    h = np.eye(3, dtype=complex)
    h[1, 1] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-finite"):
            diagonalize(h)


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
    # term: five products of the full dimension, whatever the nuclei. The
    # fields and Z grow one nucleus at a time, X <- X (x) 1_k + 1 (x) X_k, so
    # only the last nucleus's step makes products of the nuclear dimension:
    # two for the stacked fields and two for Z.
    zfs, b, nuclei = _mixed_system(np.random.default_rng(11))
    nuclear = math.prod(n.dimension for n in nuclei)
    dim = 3 * nuclear
    kron = np.kron
    shapes = []

    def counting_kron(a, c):
        out = kron(a, c)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(spin.np, "kron", counting_kron)
    assemble_spin_hamiltonian(zfs, b, G_ELECTRON_DEFAULT, nuclei)
    assert shapes.count((dim, dim)) == 5
    assert sum(shape[-2:] == (nuclear, nuclear) for shape in shapes) == 4


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, response = odmr_spectrum(spec, grid, linewidth, eigensystem=eig)
    # The loop this replaced: one pair at a time, upper triangle, row order.
    weights = _dense_weights(eig)
    n = len(eig.energies)
    pairs = [(i, f) for i in range(n) for f in range(i + 1, n) if weights[f, i] > 0.0]
    centers = [eig.energies[f] - eig.energies[i] for i, f in pairs]
    assert_matches_ordered_sum(
        grid.frequencies, centers, [linewidth] * len(pairs), [weights[f, i] for i, f in pairs],
        response=response,
    )


def _dense_weights(eig):
    """sum_a |<f|S_a (x) 1|i>|^2 from the full-dimension electron operators."""
    v = eig.states
    identity = np.eye(v.shape[0] // 3)
    return sum(
        np.abs(v.conj().T @ np.kron(op, identity) @ v) ** 2
        for op in angular_momentum_operators(1)
    )


def _random_spec(rng, spins):
    def tensor():
        a = rng.normal(size=(3, 3))
        return (a + a.T) * TWO_PI * rng.uniform(0.5, 5.0) * 1e6

    d = TWO_PI * rng.uniform(1.0, 2.0) * 1e9
    return SpinSystemSpec(
        zfs_d=d,
        zfs_e=rng.uniform(0.0, 1.0 / 3.0) * d,
        magnetic_field=tuple(rng.uniform(-2e-3, 2e-3, 3)),
        nuclei=tuple(NucleusSpec(spin=s, hyperfine_tensor=tensor()) for s in spins),
    )


@pytest.mark.parametrize("spins", [("1/2",), (1, "3/2"), ("1/2",) * 4, (1, "1/2", "1/2", "1/2")])
def test_transition_weights_match_the_dense_electron_operators(spins):
    eig = diagonalize(build_spin_hamiltonian(_random_spec(np.random.default_rng(len(spins)), spins)))
    _, weights = spin._transition_lines(eig)
    lower, upper = np.triu_indices(len(eig.energies), k=1)
    assert np.max(np.abs(weights - _dense_weights(eig)[upper, lower])) <= 1e-14


def _block_contraction(states, op):
    """<f|(op (x) 1)|i> by applying the 3x3 electron operator to the
    eigenvectors' electron blocks: the contraction that _spin_elements
    replaced in crot_gate, kept as its oracle."""
    blocks = states.reshape(3, -1, states.shape[1])
    return states.conj().T @ np.tensordot(op, blocks, axes=1).reshape(states.shape)


def _three_operator_weights(eig):
    """sum_a |<f|S_a|i>|^2 by one electron-block product per S_a: the formula
    that _transition_lines replaced, kept as its oracle."""
    return sum(
        np.abs(_block_contraction(eig.states, op)) ** 2 for op in angular_momentum_operators(1)
    )


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize(
    "spins", [(), ("1/2",), (1,), ("3/2",), (1, "3/2"), ("1/2", 1, "3/2"), ("3/2", "3/2", 1)]
)
def test_transition_weights_match_the_three_operator_products(spins, seed):
    # Nuclear dimensions 1 to 48, several not a power of two.
    eig = diagonalize(build_spin_hamiltonian(_random_spec(np.random.default_rng(seed), spins)))
    _, weights = spin._transition_lines(eig)
    lower, upper = np.triu_indices(len(eig.energies), k=1)
    expected = _three_operator_weights(eig)[upper, lower]
    assert np.max(np.abs(weights - expected)) <= 1e-14 * np.max(expected)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("spins", [(), ("1/2",), (1,), ("3/2",), (1, "3/2"), ("1/2", 1, "3/2")])
def test_spin_elements_give_the_block_contraction_drive(spins, seed):
    # Nuclear dimensions 1 to 24, several not a power of two; a random axis
    # mixes all three drive components.
    rng = np.random.default_rng(seed)
    states = diagonalize(build_spin_hamiltonian(_random_spec(rng, spins))).states
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    expected = _block_contraction(
        states, np.tensordot(axis, angular_momentum_operators(1), axes=1)
    )
    raising, sz = spin._spin_elements(states)
    lowering = raising.conj().T
    drive = math.sqrt(0.5) * (
        axis[0] * (raising + lowering) - 1j * axis[1] * (raising - lowering)
    ) + axis[2] * sz
    assert np.max(np.abs(drive - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("seed", range(3))
def test_crot_drives_with_the_spin_element_products(seed, monkeypatch):
    # The drive that crot_gate propagates is u . S built from _spin_elements,
    # the pair that also gives the ODMR weights.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3))
    spec = SpinSystemSpec(
        zfs_d=TWO_PI * 1.4e9,
        zfs_e=TWO_PI * 0.2e9,
        magnetic_field=tuple(rng.uniform(-2e-3, 2e-3, 3)),
        nuclei=(NucleusSpec(spin="1/2", hyperfine_tensor=(a + a.T) * TWO_PI * 5e6),),
    )
    axis = rng.normal(size=3)
    captured = []
    propagate = spin._magnus_propagate

    def capture(h0, drive_op, *args):
        captured.append(drive_op)
        return propagate(h0, drive_op, *args)

    monkeypatch.setattr(spin, "_magnus_propagate", capture)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        crot_gate(spec, TWO_PI * 1.2e9, TWO_PI * 1e3, 1e-8, axis)
    states = diagonalize(build_spin_hamiltonian(spec)).states
    expected = _block_contraction(
        states, np.tensordot(axis / np.linalg.norm(axis), angular_momentum_operators(1), axes=1)
    )
    assert captured
    for drive in captured:
        assert np.max(np.abs(drive - expected)) <= 1e-14 * np.max(np.abs(expected))


def _assert_odmr_matches_ordered_line_sum(spec, grid, linewidth):
    eig = diagonalize(build_spin_hamiltonian(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        freqs, response = odmr_spectrum(spec, grid, linewidth, eigensystem=eig)
    gaps, weights = spin._transition_lines(eig)
    bright = weights > 0.0
    assert_matches_ordered_sum(
        freqs, gaps[bright], np.full(bright.sum(), linewidth), weights[bright], response=response
    )


@pytest.mark.parametrize(
    "spins",
    [
        ("1/2",) * 4,  # dimension 48
        (1, 1, "1/2", "1/2", "1/2"),  # 216
        ("3/2", 1, "1/2", "1/2", "1/2", "1/2"),  # 576
        ("1/2",) * 7,  # 384
        ("1/2",) * 8,  # 768
    ],
)
def test_odmr_spectrum_of_random_nuclei_matches_the_ordered_line_sum(spins):
    rng = np.random.default_rng(len(spins))
    spec = _random_spec(rng, spins)
    grid = FrequencyGrid(start=TWO_PI * 0.1e9, stop=1.5 * spec.zfs_d, points=601)
    _assert_odmr_matches_ordered_line_sum(spec, grid, TWO_PI * rng.uniform(1e6, 5e6))


def _clustered_spec(rng, count):
    """Axial hyperfine nuclei of 2-10 MHz in a field of a few mT, so the
    lines crowd into narrow clusters around the electron transitions."""

    def tensor():
        perp, par = rng.uniform(0.2, 2.0), rng.uniform(2.0, 10.0)
        a = np.diag([perp, perp * rng.uniform(0.8, 1.2), par])
        off = np.triu(rng.uniform(-0.3, 0.3, (3, 3)), k=1)
        return (a + off + off.T) * TWO_PI * 1e6

    return SpinSystemSpec(
        zfs_d=TWO_PI * 1.4e9 * rng.uniform(0.9, 1.1),
        zfs_e=TWO_PI * 0.2e9 * rng.uniform(0.5, 1.0),
        magnetic_field=(rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3), rng.uniform(1e-3, 3e-3)),
        nuclei=tuple(NucleusSpec(spin="1/2", hyperfine_tensor=tensor()) for _ in range(count)),
    )


@pytest.mark.parametrize("count, seed", [(4, 0), (5, 1), (6, 2), (6, 3)])
def test_clustered_odmr_lines_take_the_box_expansions(count, seed, multipole_lines):
    # Dimension 48 to 192 on the shipped grid with a 5 MHz linewidth.
    spec = _clustered_spec(np.random.default_rng(seed), count)
    grid = FrequencyGrid(start=TWO_PI * 0.2e9, stop=TWO_PI * 2.0e9, points=1801)
    _assert_odmr_matches_ordered_line_sum(spec, grid, TWO_PI * 5e6)
    assert multipole_lines


def test_bench_odmr_variants_match_the_ordered_line_sum(monkeypatch):
    # Every spin_spectrum entry of the benchmark's variant pool.
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import jobs

    monkeypatch.setattr(jobs, "SCENARIOS", REPO / "scenarios")
    keys = [k for k in jobs.pool_keys() if k.startswith("spin/spin_spectrum/")]
    assert keys
    for key in keys:
        (params,) = validate_config(jobs.make_job(key)["config"])
        _assert_odmr_matches_ordered_line_sum(
            params["spin_system"], params["grid"], params["linewidth"]
        )


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


def _lab_frame_crot(spec, drive_frequency, rabi_frequency, duration, drive_axis):
    """The gate propagated in the lab frame with the full-dimension drive.

    Same pair choice, amplitude and step-halving schedule as crot_gate, but
    H0 and kron(u . S, 1) stay in the product basis and the interaction
    picture is formed densely: v^dag exp(i H0 T) U v.
    """
    h0 = build_spin_hamiltonian(spec)
    eig = diagonalize(h0)
    v, energies = eig.states, eig.energies
    axis = np.asarray(drive_axis, dtype=float) / np.linalg.norm(drive_axis)
    electron = np.tensordot(axis, angular_momentum_operators(1), axes=1)
    drive = np.kron(electron, np.eye(h0.shape[0] // 3))
    drive_eig = v.conj().T @ drive @ v
    dim = len(energies)
    coupled = sorted(
        (abs(gap - drive_frequency), gap, i, f, abs(drive_eig[f, i]))
        for i in range(dim)
        for f in range(i + 1, dim)
        for gap in [float(energies[f] - energies[i])]
        if abs(drive_eig[f, i]) > 1e-9
    )
    _, _, lo, hi, elem = coupled[0]
    amplitude = rabi_frequency / elem
    scale = max(float(np.max(np.abs(energies))), drive_frequency, rabi_frequency)
    steps = math.ceil(TWO_PI / drive_frequency * spin._STEPS_PER_RADIAN * scale)
    u_coarse, _ = spin._magnus_propagate(h0, drive, amplitude, drive_frequency, duration, steps)
    for _ in range(3):
        steps *= 2
        u, evaluated = spin._magnus_propagate(
            h0, drive, amplitude, drive_frequency, duration, steps
        )
        if np.linalg.norm(u - u_coarse) / math.sqrt(dim) <= 1e-6:
            break
        u_coarse = u
    phase = v @ np.diag(np.exp(1j * energies * duration)) @ v.conj().T
    return v.conj().T @ phase @ u @ v, (lo, hi), evaluated


@pytest.mark.parametrize(
    "drive_axis", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (1.0, 2.0, -1.0)]
)
def test_crot_in_the_eigenbasis_matches_the_lab_frame_propagation(drive_axis):
    spec = _crot_spec()
    rabi = TWO_PI * 0.3e6
    args = (TWO_PI * 66.0144e6, rabi, math.pi / rabi, drive_axis)
    result = crot_gate(spec, *args)
    reference, addressed, step_count = _lab_frame_crot(spec, *args)
    assert result.addressed == addressed
    assert result.step_count == step_count
    assert np.max(np.abs(result.unitary - reference)) <= 1e-10


def test_crot_rejects_an_infinite_drive_axis():
    # The schema admits no inf, so only a direct caller can pass one; the zero
    # axis is covered through the CLI.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionViolated, match="drive axis must be finite and nonzero"):
            crot_gate(_crot_spec(), TWO_PI * 66e6, TWO_PI * 0.3e6, 1e-6, (math.inf, 0.0, 0.0))


def test_crot_refuses_a_drive_term_that_outruns_its_step_scale(monkeypatch):
    # Zero field and a 10 kHz hyperfine tensor: the in-plane drive reaches
    # the Tx <-> Ty pair at 2E only through hyperfine mixing, an element of
    # 4e-6, so the 0.3 MHz rabi frequency takes a drive term over 100 times
    # the energies the steps resolve. Propagating it stalled the halving
    # check at 1.3e-6.
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    spec = SpinSystemSpec(
        zfs_d=TWO_PI * 1.4e9,
        zfs_e=TWO_PI * 0.2e9,
        nuclei=(NucleusSpec(spin="1/2", hyperfine_tensor=(a + a.T) * TWO_PI * 1e4),),
    )
    axis = (*rng.normal(size=2), 0.0)

    def propagate(*args):
        raise AssertionError("propagated a drive the steps cannot resolve")

    monkeypatch.setattr(spin, "_magnus_propagate", propagate)
    rabi = TWO_PI * 0.3e6
    with pytest.raises(PreconditionViolated, match=r"addressed pair \(3, 4\) has drive element 4\.1"):
        crot_gate(spec, TWO_PI * 0.4e9, rabi, math.pi / rabi, axis)


def _serial_cf4(h0, drive_op, amplitude, omega_d, duration, steps_per_period):
    """Step-by-step CF4 product in absolute time, no period reuse, one
    scipy expm per exponent.

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
    p, q = 0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0
    u = np.eye(h0.shape[0], dtype=complex)
    for t, dt in starts:
        h1 = h0 + amplitude * math.cos(omega_d * (t + c1 * dt)) * drive_op
        h2 = h0 + amplitude * math.cos(omega_d * (t + c2 * dt)) * drive_op
        u = expm(-1j * dt * (q * h1 + p * h2)) @ expm(-1j * dt * (p * h1 + q * h2)) @ u
    return u


# (drive periods, CF4 steps evaluated at 200 per period)
@pytest.mark.parametrize(
    "periods, expected_steps", [(0.4321, 87), (4.0, 200), (2.3711, 200 + 75)]
)
def test_period_reuse_matches_serial_magnus(periods, expected_steps, monkeypatch):
    # Small blocks, so that segments span several stacked expm calls.
    monkeypatch.setattr(units, "_CF4_BLOCK", 64)
    spec = _crot_spec()
    h0 = build_spin_hamiltonian(spec)
    drive = np.kron(angular_momentum_operators(1)[0], np.eye(2))
    omega_d = TWO_PI * 66.0144e6
    amplitude = TWO_PI * 0.3e6 / 0.7
    steps = 200
    duration = periods * TWO_PI / omega_d
    u, evaluated = spin._magnus_propagate(h0, drive, amplitude, omega_d, duration, steps)
    reference = _serial_cf4(h0, drive, amplitude, omega_d, duration, steps)
    assert evaluated == expected_steps
    assert np.max(np.abs(u - reference)) <= 1e-10
    assert np.max(np.abs(u.conj().T @ u - np.eye(6))) <= 1e-12


def _shipped_crot():
    rabi = TWO_PI * 0.3e6
    return crot_gate(_crot_spec(), TWO_PI * 66.0144e6, rabi, math.pi / rabi)


def test_crot_diagonalizes_once_and_propagates_without_eigh(monkeypatch):
    calls = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    _shipped_crot()
    assert calls == [(6, 6)]


def test_shipped_crot_matches_a_32x_finer_propagation(monkeypatch):
    result = _shipped_crot()
    monkeypatch.setattr(spin, "_STEPS_PER_RADIAN", 32 * spin._STEPS_PER_RADIAN)
    monkeypatch.setattr(spin, "CF4_STEP_BUDGET", 32 * spin.CF4_STEP_BUDGET)
    fine = _shipped_crot()
    assert fine.step_count > 31 * result.step_count
    assert np.max(np.abs(result.unitary - fine.unitary)) <= 1e-9

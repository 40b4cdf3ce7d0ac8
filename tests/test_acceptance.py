"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line on the real stdout (bypassing
pytest capture) so the verdicts are visible in plain test logs, then
asserts. Numbered criteria with stated tolerances and runtime caps; the
checks use independent oracles (closed forms, quadrature, a quantum-jump
Monte Carlo) rather than the library's own code paths wherever possible.
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from hostguest.dynamics import OpenSystem, evolve, g2_correlation, steady_state
from hostguest.protocols import (
    CavityInterfaceSpec,
    OptomechParams,
    Pulse,
    RamanMemorySpec,
    cavity_response,
    optomech_cooperativity,
    raman_memory_efficiency,
    spin_photon_fidelity,
    vacuum_rabi_splitting,
)
from hostguest.relaxation import (
    RelaxationChannel,
    RelaxationInput,
    classify_relaxation,
)
from hostguest.scenarios import load_config, run_scenario
from hostguest.screening import (
    MoleculeRecord,
    SelectionCriteria,
    fit_linear_scaling,
    ingest,
    select_candidates,
)
from hostguest.spin import (
    NucleusSpec,
    SpinSystemSpec,
    angular_momentum_operators,
    build_spin_hamiltonian,
)
from hostguest.units import GAMMA_PROTON, FrequencyGrid
from hostguest.vibronic import (
    PhononSpectralDensity,
    VibronicModel,
    debye_waller,
    emission_spectrum,
    franck_condon_progression,
    zpl_branching_ratio,
)

TWO_PI = 2.0 * math.pi
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def _report(capsys, index, name, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {index:02d} {name}: {detail}", flush=True)


# -- 1: zero-field triplet eigenvalues ----------------------------------------


def test_criterion_01_zero_field_eigenvalues(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        d = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3e9, 3.0e9)) * TWO_PI
        e = float(rng.uniform(-1.0, 1.0)) * abs(d) / 3.0
        h = build_spin_hamiltonian(SpinSystemSpec(zfs_d=d, zfs_e=e))
        got = np.sort(np.linalg.eigvalsh(h))
        want = np.sort([-2.0 * d / 3.0, d / 3.0 - e, d / 3.0 + e])
        worst = max(worst, float(np.max(np.abs(got - want))) / np.max(np.abs(want)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(
        capsys, 1, "zero-field triplet eigenvalues",
        ok, f"max rel dev {worst:.2e} over 100 draws, {elapsed:.2f} s",
    )
    assert ok


# -- 2: first-order hyperfine splitting under a weak field ---------------------


def test_criterion_02_weak_field_hyperfine_splitting(capsys):
    start = time.perf_counter()
    d, e = TWO_PI * 1.4e9, TWO_PI * 50e6
    b_z = 3.0e-3
    a_tensor = np.diag([TWO_PI * 1.0e6, TWO_PI * 1.0e6, TWO_PI * 10.0e6])
    a_zz = a_tensor[2, 2]

    electron = SpinSystemSpec(zfs_d=d, zfs_e=e, magnetic_field=(0.0, 0.0, b_z))
    h_el = build_spin_hamiltonian(electron)
    energies_el, states_el = np.linalg.eigh(h_el)
    _, _, sz = angular_momentum_operators(1)

    nucleus = NucleusSpec(spin=Fraction(1, 2), hyperfine_tensor=a_tensor)
    full = SpinSystemSpec(
        zfs_d=d, zfs_e=e, magnetic_field=(0.0, 0.0, b_z), nuclei=(nucleus,)
    )
    energies_full = np.linalg.eigvalsh(build_spin_hamiltonian(full))

    worst = 0.0
    for k in range(3):
        vec = states_el[:, k]
        sz_mean = float(np.real(vec.conj() @ sz @ vec))
        predicted = abs(a_zz * sz_mean - GAMMA_PROTON * b_z)
        pair = np.sort(np.abs(energies_full - energies_el[k]))[:2]
        members = energies_full[np.argsort(np.abs(energies_full - energies_el[k]))[:2]]
        split = float(abs(members[1] - members[0]))
        worst = max(worst, abs(split - predicted) / split)
        del pair
    elapsed = time.perf_counter() - start
    ok = worst <= 0.01 and elapsed < 1.0
    _report(
        capsys, 2, "weak-field hyperfine splitting",
        ok, f"max rel dev {worst:.2e} vs first-order projection, {elapsed:.2f} s",
    )
    assert ok


# -- 3: trajectory physicality and the driven steady state ---------------------


def test_criterion_03_lindblad_physicality_and_saturation(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_trace, worst_eig = 0.0, 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (h + h.conj().T) / 2.0
        channels = []
        for _ in range(int(rng.integers(1, 3))):
            c = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            channels.append((c, float(rng.uniform(0.1, 1.0))))
        system = OpenSystem(hamiltonian=h, collapse_channels=tuple(channels))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho0 = a @ a.conj().T
        rho0 /= np.trace(rho0).real
        for rho in evolve(system, rho0, np.linspace(0.0, 2.0, 6)):
            worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(rho).min()))

    gamma = 1.0e6
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    h2 = np.array([[0.0, gamma / 2.0], [gamma / 2.0, 0.0]], dtype=complex)
    rho_ss = steady_state(OpenSystem(hamiltonian=h2, collapse_channels=((lower, gamma),)))
    p_ee = float(rho_ss[1, 1].real)
    elapsed = time.perf_counter() - start
    ok = (
        worst_trace <= 1e-7
        and worst_eig >= -1e-7
        and abs(p_ee - 1.0 / 3.0) <= 1e-4
        and elapsed < 30.0
    )
    _report(
        capsys, 3, "trajectory physicality / saturation",
        ok,
        f"trace dev {worst_trace:.1e}, min eig {worst_eig:.1e}, "
        f"p_ee {p_ee:.6f}, {elapsed:.1f} s",
    )
    assert ok


# -- 4: antibunching, regression theorem vs quantum-jump Monte Carlo -----------


def test_criterion_04_antibunching_mc_cross_check(capsys):
    start = time.perf_counter()
    gamma, rabi = 1.0, 3.0
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    h = np.array([[0.0, rabi / 2.0], [rabi / 2.0, 0.0]], dtype=complex)
    system = OpenSystem(hamiltonian=h, collapse_channels=((lower, gamma),))
    g2_zero = float(g2_correlation(system, lower, [0.0])[0])

    n_bins, tau_max = 8, 1.6
    dtau = tau_max / n_bins
    per_bin = 50
    taus_fine = np.linspace(0.0, tau_max, n_bins * per_bin + 1)
    g2_fine = g2_correlation(system, lower, taus_fine)
    qrt_avg = np.array(
        [
            np.trapezoid(
                g2_fine[b * per_bin : (b + 1) * per_bin + 1],
                taus_fine[b * per_bin : (b + 1) * per_bin + 1],
            )
            / dtau
            for b in range(n_bins)
        ]
    )

    # quantum-jump Monte Carlo with the exact one-step non-Hermitian
    # propagator; jumps fire when the squared norm crosses a uniform
    # threshold, photon times land on the step grid
    rng = np.random.default_rng(404)
    n_traj, block = 100_000, 1_000
    n_blocks = n_traj // block
    dt, t_total, burn = 0.002, 25.0, 8.0
    steps = int(round(t_total / dt))
    h_eff = np.array([[0.0, rabi / 2.0], [rabi / 2.0, -0.5j * gamma]])
    u = expm(-1j * h_eff * dt)

    # ground and excited amplitudes as two contiguous columns, stepped
    # elementwise (about 2x faster per step than an (n, 2) @ (2, 2) matmul)
    ground = np.ones(n_traj, dtype=complex)
    excited = np.zeros(n_traj, dtype=complex)
    thresholds = rng.uniform(size=n_traj)
    traj_chunks, step_chunks = [], []
    for k in range(1, steps + 1):
        ground, excited = (
            u[0, 0] * ground + u[0, 1] * excited,
            u[1, 0] * ground + u[1, 1] * excited,
        )
        norm2 = (ground.real * ground.real + ground.imag * ground.imag) + (
            excited.real * excited.real + excited.imag * excited.imag
        )
        jumped = norm2 <= thresholds
        if jumped.any():
            idx = np.nonzero(jumped)[0]
            traj_chunks.append(idx.astype(np.int32))
            step_chunks.append(np.full(idx.size, k, dtype=np.int32))
            ground[idx] = 1.0
            excited[idx] = 0.0
            thresholds[idx] = rng.uniform(size=idx.size)

    traj = np.concatenate(traj_chunks)
    times = np.concatenate(step_chunks).astype(float) * dt
    order = np.lexsort((times, traj))
    traj, times = traj[order], times[order]
    blocks = traj // block

    counted = times >= burn
    rate_blk = np.bincount(blocks[counted], minlength=n_blocks) / (
        block * (t_total - burn)
    )
    eligible = counted & (times <= t_total - tau_max)
    starts_blk = np.bincount(blocks[eligible], minlength=n_blocks).astype(float)

    pair_hist = np.zeros((n_blocks, n_bins))
    offset = 1
    while offset < 200:
        same = traj[offset:] == traj[:-offset]
        if not same.any():
            break
        if not (times[offset:][same] - times[:-offset][same] < tau_max).any():
            break
        sel = same & eligible[:-offset]
        diffs = times[offset:][sel] - times[:-offset][sel]
        close = diffs < tau_max
        if close.any():
            bins = np.minimum((diffs[close] / dtau).astype(int), n_bins - 1)
            np.add.at(pair_hist, (blocks[:-offset][sel][close], bins), 1)
        offset += 1

    g2_blk = pair_hist / (starts_blk * rate_blk * dtau)[:, None]
    mc_mean = g2_blk.mean(axis=0)
    mc_sem = g2_blk.std(axis=0, ddof=1) / math.sqrt(n_blocks)
    pulls = np.abs(mc_mean - qrt_avg) / mc_sem
    elapsed = time.perf_counter() - start
    ok = g2_zero <= 1e-6 and bool(np.all(pulls <= 3.0)) and elapsed < 120.0
    _report(
        capsys, 4, "antibunching vs Monte Carlo",
        ok,
        f"g2(0) {g2_zero:.1e}, max |pull| {pulls.max():.2f} sigma over "
        f"{n_bins} bins ({int(pair_hist.sum())} pairs), {elapsed:.1f} s",
    )
    assert ok


# -- 5: Franck-Condon factors against displaced-oscillator overlaps ------------


def _displaced_overlap_sq(huang_rhys: float, m: int) -> float:
    # numeric overlap |<m|displaced 0>|^2 by Gauss-Hermite quadrature
    nodes, weights = np.polynomial.hermite.hermgauss(160)
    d = math.sqrt(2.0 * huang_rhys)
    coeff = np.zeros(m + 1)
    coeff[m] = 1.0
    hm = np.polynomial.hermite.hermval(nodes + d / 2.0, coeff)
    norm_m = math.sqrt(math.sqrt(math.pi) * (2.0**m) * math.factorial(m))
    overlap = math.exp(-d * d / 4.0) / (norm_m * math.pi**0.25) * float(
        np.sum(weights * hm)
    )
    return overlap * overlap


def test_criterion_05_franck_condon_oracle(capsys):
    start = time.perf_counter()
    worst = 0.0
    for s in (0.1, 0.5, 1.0, 2.0, 5.0):
        probs = franck_condon_progression(s, 12)
        for m in range(13):
            worst = max(worst, abs(probs[m] - _displaced_overlap_sq(s, m)))
    min_sum = min(
        float(franck_condon_progression(s, 40).sum()) for s in (0.1, 0.5, 1.0, 2.0, 5.0)
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and min_sum >= 1.0 - 1e-6
    _report(
        capsys, 5, "Franck-Condon factors",
        ok, f"max abs dev {worst:.1e} (m <= 12), min sum(40) {min_sum:.9f}, {elapsed:.1f} s",
    )
    assert ok


# -- 6: Debye-Waller factor and ZPL branching ----------------------------------


def test_criterion_06_debye_waller_branching(capsys):
    start = time.perf_counter()
    omega_p = TWO_PI * 0.5e12
    cutoff = 10.0 * omega_p
    # invert exp(-phi) = 0.30 for the weight of a cubic-in-frequency density
    phi_target = -math.log(0.30)
    weight = phi_target * omega_p / (1.0 - math.exp(-10.0) * 11.0)
    density = PhononSpectralDensity(
        coupling_weight=weight, peak_frequency=omega_p, cutoff_frequency=cutoff
    )
    gamma0 = TWO_PI * 20e6
    zpl = TWO_PI * 466e12

    def model(temperature):
        return VibronicModel(
            zpl_frequency=zpl,
            radiative_rate=gamma0,
            phonon_density=density,
            temperature=temperature,
        )

    alphas = [debye_waller(model(t)) for t in np.linspace(0.0, 300.0, 10)]
    decreasing = all(b < a for a, b in zip(alphas, alphas[1:]))
    branch = zpl_branching_ratio(model(0.0))

    grid = FrequencyGrid(
        start=zpl - cutoff, stop=zpl + 2000.0 * gamma0, points=1_300_001
    )
    spectrum = emission_spectrum(model(0.0), grid)
    window = 40.0 * gamma0
    mask = np.abs(spectrum.frequencies - zpl) <= window
    mass = float(np.trapezoid(spectrum.intensity[mask], spectrum.frequencies[mask]))
    captured = (2.0 / math.pi) * math.atan(2.0 * window / gamma0)
    integral_branch = mass / captured

    elapsed = time.perf_counter() - start
    ok = (
        decreasing
        and abs(branch - 0.30) <= 1e-3
        and abs(integral_branch - 0.30) <= 1e-3
    )
    _report(
        capsys, 6, "Debye-Waller / ZPL branching",
        ok,
        f"branching {branch:.6f}, spectrum integral {integral_branch:.6f}, "
        f"alpha(T) strictly decreasing: {decreasing}, {elapsed:.1f} s",
    )
    assert ok


# -- 7: relaxation channel partition -------------------------------------------


def test_criterion_07_relaxation_partition(capsys):
    start = time.perf_counter()
    w_max = TWO_PI * 4.5e12
    examples = [
        (RelaxationInput(TWO_PI * 6e12, w_max), RelaxationChannel.TWO_PHONON),
        (
            RelaxationInput(TWO_PI * 10e12, w_max, other_vibrons=(TWO_PI * 2e12,)),
            RelaxationChannel.VIBRON_ASSISTED,
        ),
        (
            RelaxationInput(TWO_PI * 93e12, w_max, other_vibrons=(TWO_PI * 2e12,)),
            RelaxationChannel.INTRAMOLECULAR,
        ),
    ]
    examples_ok = all(classify_relaxation(data) is channel for data, channel in examples)

    rng = np.random.default_rng(707)
    counts = {c: 0 for c in RelaxationChannel}
    partition_ok = True
    for _ in range(10_000):
        w_v = TWO_PI * float(rng.uniform(0.2e12, 60e12))
        others = tuple(
            float(f)
            for f in rng.uniform(0.05 * w_v, 0.95 * w_v, size=int(rng.integers(0, 4)))
        )
        channel = classify_relaxation(
            RelaxationInput(vibron_frequency=w_v, phonon_cutoff=w_max, other_vibrons=others)
        )
        counts[channel] += 1
        if w_v <= 2.0 * w_max:
            expected = RelaxationChannel.TWO_PHONON
        elif any(w_v - w_j <= 2.0 * w_max for w_j in others):
            expected = RelaxationChannel.VIBRON_ASSISTED
        else:
            expected = RelaxationChannel.INTRAMOLECULAR
        if channel is not expected:
            partition_ok = False
            break
    populated = all(v > 0 for v in counts.values())
    elapsed = time.perf_counter() - start
    ok = examples_ok and partition_ok and populated
    _report(
        capsys, 7, "relaxation channel partition",
        ok,
        f"worked examples {examples_ok}, 10000-sample partition exact "
        f"{partition_ok}, all channels hit {populated}, {elapsed:.1f} s",
    )
    assert ok


# -- 8: optomechanical cooperativity and its scaling ----------------------------


def test_criterion_08_optomech_cooperativity(capsys):
    start = time.perf_counter()
    omega_v = TWO_PI * 1.0e12
    base = OptomechParams(
        g0=0.1 * omega_v,
        omega_v=omega_v,
        kappa_v=1.0e11,
        gamma0=TWO_PI * 1.0e6,
        temperature=300.0,
    )
    reference = 2513274.1228718343
    c0 = optomech_cooperativity(base, n_bar=1.0).cooperativity

    quad_g = optomech_cooperativity(
        OptomechParams(2 * base.g0, omega_v, base.kappa_v, base.gamma0, 300.0),
        n_bar=1.0,
    ).cooperativity
    inv_n = optomech_cooperativity(base, n_bar=2.0).cooperativity
    inv_kv = optomech_cooperativity(
        OptomechParams(base.g0, omega_v, 2 * base.kappa_v, base.gamma0, 300.0),
        n_bar=1.0,
    ).cooperativity
    inv_g0 = optomech_cooperativity(
        OptomechParams(base.g0, omega_v, base.kappa_v, 2 * base.gamma0, 300.0),
        n_bar=1.0,
    ).cooperativity

    scaling_ok = (
        abs(quad_g - 4.0 * c0) <= 1e-9 * c0
        and abs(inv_n - c0 / 2.0) <= 1e-9 * c0
        and abs(inv_kv - c0 / 2.0) <= 1e-9 * c0
        and abs(inv_g0 - c0 / 2.0) <= 1e-9 * c0
    )
    elapsed = time.perf_counter() - start
    ok = abs(c0 - reference) <= 0.01 * reference and c0 > 1.0e5 and scaling_ok
    _report(
        capsys, 8, "optomechanical cooperativity",
        ok, f"C {c0:.1f} (ref {reference:.1f}), scaling laws exact {scaling_ok}, {elapsed:.2f} s",
    )
    assert ok


# -- 9: cavity transmission dip, Rabi splitting, gate fidelity -------------------


def test_criterion_09_cavity_interface(capsys):
    start = time.perf_counter()
    kappa, gamma = TWO_PI * 1.0e9, TWO_PI * 1.0e7

    def spec_for(coop):
        g = math.sqrt(coop * kappa * gamma / 4.0)
        return CavityInterfaceSpec(
            g=g, kappa=kappa, kappa_in=kappa / 2.0, kappa_out=kappa / 2.0, gamma=gamma
        )

    spec = spec_for(45.0)
    _, t0 = cavity_response(spec, 0.0)
    t_dev = abs(abs(t0[0]) ** 2 - 1.0 / 46.0**2)

    # the transmission peaks sit at +-g (1 + 1/(2C) + ...), so the 2g reading
    # requires a resolved splitting; check it deep in the strong-coupling
    # regime where that pull is negligible
    strong = CavityInterfaceSpec(
        g=TWO_PI * 2.0e9, kappa=TWO_PI * 2.0e8,
        kappa_in=TWO_PI * 1.0e8, kappa_out=TWO_PI * 1.0e8, gamma=TWO_PI * 2.0e7,
    )
    detunings = np.linspace(-3.0 * strong.g, 3.0 * strong.g, 240_001)
    splitting = vacuum_rabi_splitting(strong, detunings)
    split_dev = abs(splitting - 2.0 * strong.g) / (2.0 * strong.g)

    fidelity = spin_photon_fidelity(spec)
    sweep = [spin_photon_fidelity(spec_for(c)) for c in np.geomspace(1.0, 1000.0, 10)]
    monotone = all(b > a for a, b in zip(sweep, sweep[1:]))

    elapsed = time.perf_counter() - start
    ok = t_dev <= 1e-9 and split_dev <= 0.01 and fidelity >= 0.95 and monotone
    _report(
        capsys, 9, "cavity spin-photon interface",
        ok,
        f"|t(0)|^2 dev {t_dev:.1e}, splitting dev {split_dev:.2e}, "
        f"fidelity {fidelity:.4f}, monotone {monotone}, {elapsed:.1f} s",
    )
    assert ok


# -- 10: memory efficiency bounds -----------------------------------------------


def test_criterion_10_memory_bounds(capsys):
    start = time.perf_counter()
    signal = Pulse(peak_rabi=2.0e7, center=5.0e-8, width=1.0e-8)

    def spec(control_peak, gamma0, kappa_v, hold):
        return RamanMemorySpec(
            gamma0=gamma0,
            kappa_v=kappa_v,
            detuning=0.0,
            signal_pulse=signal,
            control_pulse=Pulse(peak_rabi=control_peak, center=5.0e-8, width=1.0e-8),
            storage_hold=hold,
        )

    zero_storage, zero_total = raman_memory_efficiency(spec(0.0, 5e7, 1e3, 1e-6))
    _, fast_total = raman_memory_efficiency(spec(3e7, 1e11, 1e6, 1e-3))
    _, held = raman_memory_efficiency(spec(3e7, 5e7, 1e3, 1e-6))
    _, unheld = raman_memory_efficiency(spec(3e7, 5e7, 1e3, 0.0))
    hold_loss = 1.0 - held / unheld

    rng = np.random.default_rng(1010)
    contractive = True
    for _ in range(100):
        random_spec = RamanMemorySpec(
            gamma0=float(rng.uniform(1e6, 1e8)),
            kappa_v=float(rng.uniform(1e2, 1e6)),
            detuning=float(rng.uniform(-5e7, 5e7)),
            signal_pulse=Pulse(
                peak_rabi=float(rng.uniform(0.0, 5e7)),
                center=float(rng.uniform(2e-8, 8e-8)),
                width=float(rng.uniform(5e-9, 2e-8)),
            ),
            control_pulse=Pulse(
                peak_rabi=float(rng.uniform(0.0, 5e7)),
                center=float(rng.uniform(2e-8, 8e-8)),
                width=float(rng.uniform(5e-9, 2e-8)),
            ),
            storage_hold=float(rng.uniform(0.0, 1e-5)),
        )
        storage, total = raman_memory_efficiency(random_spec)
        if not (0.0 <= total <= storage <= 1.0):
            contractive = False
            break
    elapsed = time.perf_counter() - start
    ok = (
        zero_storage == 0.0
        and zero_total == 0.0
        and fast_total <= 1e-6
        and hold_loss <= 0.002
        and contractive
        and elapsed < 60.0
    )
    _report(
        capsys, 10, "memory efficiency bounds",
        ok,
        f"zero-control ({zero_storage}, {zero_total}), fast-emitter total "
        f"{fast_total:.1e}, hold loss {hold_loss:.2e}, contractive over 100 "
        f"specs {contractive}, {elapsed:.1f} s",
    )
    assert ok


# -- 11: screening ingest, fit, and filter ---------------------------------------


def test_criterion_11_screening(capsys, tmp_path):
    start = time.perf_counter()
    fit = fit_linear_scaling(
        [
            MoleculeRecord("a", 10, 2.0, 1.0, True),
            MoleculeRecord("b", 12, 3.0, 1.6, False),
        ]
    )
    fit_ok = (
        abs(fit.slope - 0.6) <= 1e-12
        and abs(fit.intercept + 0.2) <= 1e-12
        and abs(fit.r_squared - 1.0) <= 1e-12
    )

    rng = np.random.default_rng(1111)
    records = []
    for i in range(1000):
        s1 = float(rng.uniform(1.2, 4.5))
        records.append(
            MoleculeRecord(
                f"m{i}", int(rng.integers(6, 60)), s1,
                float(rng.uniform(0.3, s1)), bool(rng.integers(2)),
            )
        )
    criteria = SelectionCriteria(min_t1_ev=1.8, max_s1_ev=3.2)
    got = select_candidates(records, criteria)
    brute = [r for r in records if r.e_t1_ev >= 1.8 and r.e_s1_ev <= 3.2]
    filter_ok = got == brute and 0 < len(got) < len(records)

    path = tmp_path / "candidates.csv"
    path.write_text(
        "name,carbon_count,e_s1_ev,e_t1_ev,centrosymmetric\n"
        "good,14,3.31,1.85,true\n"
        "badcount,xx,3.0,1.5,true\n"
        "badenergy,10,oops,1.5,false\n"
        "inverted,10,1.5,3.0,true\n"
        "also_good,18,2.63,1.25,no\n"
    )
    result = ingest(path)
    rejected = {d.row: d for d in result.rejected}
    ingest_ok = (
        [r.name for r in result] == ["good", "also_good"]
        and set(rejected) == {3, 4, 5}
        and rejected[3].column == "carbon_count"
        and rejected[4].column == "e_s1_ev"
        and "e_t1" in rejected[5].reason
    )
    elapsed = time.perf_counter() - start
    ok = fit_ok and filter_ok and ingest_ok
    _report(
        capsys, 11, "screening ingest/fit/filter",
        ok,
        f"two-point fit exact {fit_ok}, 1000-record filter matches "
        f"brute force {filter_ok}, diagnostics row-accurate {ingest_ok}, {elapsed:.1f} s",
    )
    assert ok


# -- 12: shipped scenarios reproduce byte-identically -----------------------------


def test_criterion_12_scenario_reproducibility(capsys, tmp_path):
    start = time.perf_counter()
    config_paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert config_paths, f"no scenario configs under {SCENARIO_DIR}"
    mismatches = []
    for path in config_paths:
        outputs = []
        for attempt in range(2):
            out = run_scenario(
                load_config(path),
                SCENARIO_DIR,
                output_dir=tmp_path / f"{path.stem}-{attempt}",
            )
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        if outputs[0] != outputs[1]:
            mismatches.append(path.stem)
        manifest = json.loads(outputs[0]["manifest.json"].decode())
        names = [a["name"] for a in manifest["artifacts"]]
        if names != sorted(names):
            mismatches.append(f"{path.stem}:unsorted-manifest")
    elapsed = time.perf_counter() - start
    ok = not mismatches
    _report(
        capsys, 12, "scenario reproducibility",
        ok,
        f"{len(config_paths)} scenarios re-run byte-identically"
        + (f", mismatches: {mismatches}" if mismatches else "")
        + f", {elapsed:.1f} s",
    )
    assert ok

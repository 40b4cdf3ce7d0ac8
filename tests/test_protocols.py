import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hostguest import protocols, units
from hostguest.errors import DomainError
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
from hostguest.scenarios import load_config, run_scenario, validate_config
from hostguest.units import bose_occupation

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def test_pulse_envelope_shape():
    pulse = Pulse(peak_rabi=2.0e7, center=5.0e-8, width=1.0e-8)
    assert pulse.envelope(5.0e-8) == pytest.approx(2.0e7)
    assert pulse.envelope(6.0e-8) == pytest.approx(2.0e7 * math.exp(-0.5))
    assert pulse.envelope(5.0e-8 + 6.0e-8) < 2.0e7 * 1e-7


def test_pulse_validation():
    with pytest.raises(ValueError):
        Pulse(peak_rabi=-1.0, center=0.0, width=1.0)
    with pytest.raises(ValueError):
        Pulse(peak_rabi=1.0, center=0.0, width=0.0)


def _memory_spec(control_peak, hold=1e-6, gamma0=5e7, kappa_v=1e3):
    return RamanMemorySpec(
        gamma0=gamma0,
        kappa_v=kappa_v,
        detuning=0.0,
        signal_pulse=Pulse(peak_rabi=2.0e7, center=5.0e-8, width=1.0e-8),
        control_pulse=Pulse(peak_rabi=control_peak, center=5.0e-8, width=1.0e-8),
        storage_hold=hold,
    )


def test_zero_control_stores_nothing():
    storage, total = raman_memory_efficiency(_memory_spec(0.0))
    assert storage == 0.0
    assert total == 0.0


def test_efficiencies_are_contractive():
    rng = np.random.default_rng(23)
    for _ in range(30):
        storage, total = raman_memory_efficiency(_random_memory_spec(rng))
        assert 0.0 <= total <= storage <= 1.0


def test_hold_decay_follows_vibron_lifetime():
    # doubling the hold scales the read-out exactly by exp(-kappa_v * hold)
    kappa_v = 2.0e5
    short = raman_memory_efficiency(_memory_spec(3.0e7, hold=1e-6, kappa_v=kappa_v))
    long = raman_memory_efficiency(_memory_spec(3.0e7, hold=3e-6, kappa_v=kappa_v))
    assert short[0] == pytest.approx(long[0], rel=1e-9)
    ratio = long[1] / short[1]
    assert ratio == pytest.approx(math.exp(-kappa_v * 2e-6), rel=1e-12)


def _time_reversed_total(spec):
    """Oracle: the write stage and the time-reversed read stage as two
    separate tight-tolerance solves, each pulse window shifted to start at 0."""

    def solve(y0, reverse_from):
        def rhs(t, y):
            tau = t if reverse_from is None else reverse_from - t
            omega_s = spec.signal_pulse.envelope(tau + t_start)
            omega_c = spec.control_pulse.envelope(tau + t_start)
            c_g, c_e, c_v = y
            return [
                -0.5j * omega_s * c_e,
                -0.5j * omega_s * c_g
                - 0.5j * omega_c * c_v
                - (0.5 * spec.gamma0 + 1j * spec.detuning) * c_e,
                -0.5j * omega_c * c_e - 0.5 * spec.kappa_v * c_v,
            ]

        sol = solve_ivp(
            rhs, (0.0, window), np.asarray(y0, dtype=complex),
            method="DOP853", rtol=1e-13, atol=1e-20,
        )
        assert sol.success
        return sol.y[:, -1]

    pulses = (spec.signal_pulse, spec.control_pulse)
    t_start = min(p.center - 6.0 * p.width for p in pulses)
    window = max(p.center + 6.0 * p.width for p in pulses) - t_start
    written = solve([1.0, 0.0, 0.0], None)
    held = written[2] * math.exp(-0.5 * spec.kappa_v * spec.storage_hold)
    return float(abs(solve([0.0, 0.0, held], window)[0]) ** 2)


def _random_memory_spec(rng):
    def pulse():
        return Pulse(
            peak_rabi=float(rng.uniform(0.0, 5e7)),
            center=float(rng.uniform(2e-8, 8e-8)),
            width=float(rng.uniform(5e-9, 2e-8)),
        )

    return RamanMemorySpec(
        gamma0=float(rng.uniform(1e6, 1e8)),
        kappa_v=float(rng.uniform(1e2, 1e6)),
        detuning=float(rng.uniform(-5e7, 5e7)),
        signal_pulse=pulse(),
        control_pulse=pulse(),
        storage_hold=float(rng.uniform(0.0, 1e-5)),
    )


def test_read_stage_is_the_transpose_of_the_write_stage():
    # A(t) is complex symmetric, so one write solve gives the retrieved
    # amplitude of the time-reversed read: total = storage^2 exp(-kappa_v hold)
    rng = np.random.default_rng(41)
    compared = []
    for _ in range(100):
        spec = _random_memory_spec(rng)
        _, total = raman_memory_efficiency(spec)
        if total > 1e-8:
            assert total == pytest.approx(_time_reversed_total(spec), rel=1e-9, abs=0.0)
            compared.append(spec)
    assert len(compared) >= 50
    # detuned specs whose pulse centres lie more than a width apart
    apart = [
        s for s in compared
        if abs(s.signal_pulse.center - s.control_pulse.center)
        > max(s.signal_pulse.width, s.control_pulse.width)
    ]
    assert len(apart) >= 10 and all(s.detuning != 0.0 for s in compared)


def test_memory_cycle_makes_one_solve(monkeypatch):
    spans = _counted_solves(monkeypatch)
    raman_memory_efficiency(_memory_spec(3.0e7))
    # one segment over the real pulse window, 6 widths either side of 50 ns
    assert len(spans) == 1
    assert spans[0] == pytest.approx((-1.0e-8, 1.1e-7), rel=1e-12)


def test_hold_sweep_keeps_the_stored_population(tmp_path):
    config = load_config(SCENARIO_DIR / "raman_memory.json")
    config["sweep"] = {"parameter": "storage_hold.value", "values": [0.0, 1e-6, 1e-4, 1e-3]}
    out = run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / "out")
    header, *rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()]
    columns = dict(zip(header, zip(*rows)))
    assert len(set(columns["storage_efficiency"])) == 1
    totals = [float(v) for v in columns["total_efficiency"]]
    assert totals == sorted(totals, reverse=True)


def _counted_solves(monkeypatch):
    """The time span of every write-stage segment stepped from now on."""
    spans = []
    original = protocols._segment_propagator

    def counted(spec, start, stop, steps):
        spans.append((start, stop))
        return original(spec, start, stop, steps)

    monkeypatch.setattr(protocols, "_segment_propagator", counted)
    return spans


def _raman_sweep(parameter, values):
    config = load_config(SCENARIO_DIR / "raman_memory.json")
    config["sweep"] = {"parameter": parameter, "values": values}
    return config


def test_hold_sweep_solves_its_write_stage_once(monkeypatch, tmp_path):
    spans = _counted_solves(monkeypatch)
    holds = [float(h) for h in np.linspace(0.0, 5e-6, 24)]
    run_scenario(_raman_sweep("storage_hold.value", holds), SCENARIO_DIR, tmp_path / "out")
    assert len(spans) == 1


def test_detuning_sweep_solves_each_write_stage(monkeypatch, tmp_path):
    spans = _counted_solves(monkeypatch)
    config = _raman_sweep("detuning.value", [-120.0, 0.0, 37.5])
    run_scenario(config, SCENARIO_DIR, tmp_path / "out")
    assert len(spans) == 3


def test_write_stage_reuse_ends_with_its_run(monkeypatch, tmp_path):
    spans = _counted_solves(monkeypatch)
    config = _raman_sweep("storage_hold.value", [0.0, 1e-6, 1e-4])
    run_scenario(config, SCENARIO_DIR, tmp_path / "first")
    assert len(spans) == 1
    run_scenario(config, SCENARIO_DIR, tmp_path / "second")
    assert len(spans) == 2
    first, second = (tmp_path / name / "sweep.csv" for name in ("first", "second"))
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("signal_first", [True, False])
def test_disjoint_pulse_windows_match_one_solve_across_the_gap(monkeypatch, signal_first):
    # Windows 6 widths either side of 50 ns and 350 ns: each is stepped on its
    # own and the 180 ns dark gap between them is propagated in closed form.
    spans = _counted_solves(monkeypatch)
    centers = (5.0e-8, 3.5e-7) if signal_first else (3.5e-7, 5.0e-8)
    spec = RamanMemorySpec(
        gamma0=2.0e6,
        kappa_v=2.0e5,
        detuning=3.0e7,
        signal_pulse=Pulse(peak_rabi=4.0e7, center=centers[0], width=1.0e-8),
        control_pulse=Pulse(peak_rabi=6.0e7, center=centers[1], width=1.0e-8),
        storage_hold=1.0e-6,
    )
    storage, total = raman_memory_efficiency(spec)
    assert spans == [pytest.approx(s, rel=1e-12) for s in ((-1e-8, 1.1e-7), (2.9e-7, 4.1e-7))]
    assert 0.0 <= total <= storage <= 1.0
    if signal_first:
        assert total > 1e-8
    assert total == pytest.approx(_time_reversed_total(spec), rel=1e-8, abs=1e-15)


def test_doubling_the_step_count_moves_storage_by_at_most_1e_10(monkeypatch):
    # the random specs of criterion 10 (same seed, same draws)
    rng = np.random.default_rng(1010)
    specs = [_random_memory_spec(rng) for _ in range(100)]
    stored = [raman_memory_efficiency(spec)[0] for spec in specs]
    monkeypatch.setattr(protocols, "_STEPS_PER_WIDTH", 2.0 * protocols._STEPS_PER_WIDTH)
    doubled = [raman_memory_efficiency(spec)[0] for spec in specs]
    assert max(abs(a - b) for a, b in zip(stored, doubled)) <= 1e-10


def _radau_storage(spec):
    """Oracle: the write stage as a real 6-dimensional system, (Re c, Im c),
    stepped by Radau at rtol 1e-12 with its exact Jacobian."""
    pulses = (spec.signal_pulse, spec.control_pulse)
    start = min(p.center - 6.0 * p.width for p in pulses)
    stop = max(p.center + 6.0 * p.width for p in pulses)

    def generator(t):
        omega_s = spec.signal_pulse.envelope(t)
        omega_c = spec.control_pulse.envelope(t)
        a = np.array(
            [
                [0.0, -0.5j * omega_s, 0.0],
                [-0.5j * omega_s, -(0.5 * spec.gamma0 + 1j * spec.detuning), -0.5j * omega_c],
                [0.0, -0.5j * omega_c, -0.5 * spec.kappa_v],
            ]
        )
        return np.block([[a.real, -a.imag], [a.imag, a.real]])

    sol = solve_ivp(
        lambda t, y: generator(t) @ y, (start, stop), [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        method="Radau", rtol=1e-12, atol=1e-16, jac=lambda t, y: generator(t),
    )
    assert sol.success
    return float(sol.y[2, -1] ** 2 + sol.y[5, -1] ** 2)


@pytest.mark.parametrize("gamma0", [1e11, 1e13])
def test_stiff_decay_matches_a_radau_oracle(gamma0):
    # the shipped raman_memory pulses, 2 pi x 20 and 40 MHz peaks
    spec = RamanMemorySpec(
        gamma0=gamma0,
        kappa_v=1.0e3,
        detuning=0.0,
        signal_pulse=Pulse(peak_rabi=2.0 * math.pi * 2.0e7, center=5.0e-8, width=1.0e-8),
        control_pulse=Pulse(peak_rabi=2.0 * math.pi * 4.0e7, center=5.0e-8, width=1.0e-8),
        storage_hold=1.0e-6,
    )
    storage, _ = raman_memory_efficiency(spec)
    assert storage > 0.0
    assert abs(storage - _radau_storage(spec)) <= 1e-10


def test_step_count_over_the_cap_is_a_domain_error_before_any_step(monkeypatch):
    spans = _counted_solves(monkeypatch)
    # a detuning of 1e15 rad/s
    with pytest.raises(DomainError, match="over the cap of 32768"):
        raman_memory_efficiency(replace(_memory_spec(3.0e7), detuning=1.0e15))
    # a control pulse area of about 1e6 rad, 1 s after a signal whose own
    # window is within the cap: no window is stepped before the check
    far = replace(_memory_spec(1.0e14), signal_pulse=Pulse(2.0e7, -1.0, 1.0e-8))
    with pytest.raises(DomainError, match="over the cap of 32768"):
        raman_memory_efficiency(far)
    assert spans == []


def test_write_stage_at_the_step_cap_is_folded_in_bounded_blocks(monkeypatch):
    # the shipped pulses at a detuning of 3e11 rad/s: one segment of 31,549
    # CF4 steps, just under the cap
    (shipped,) = validate_config(load_config(SCENARIO_DIR / "raman_memory.json"))
    spec = replace(shipped, detuning=3.0e11)
    assert [steps for *_, steps in protocols._write_segments(spec)] == [31549]
    tracemalloc.start()
    try:
        storage = protocols._write_storage(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    monkeypatch.setattr(units, "_CF4_BLOCK", 1 << 15)
    assert storage == pytest.approx(protocols._write_storage(spec), rel=1e-12, abs=0.0)


def test_short_signal_in_a_long_control_steps_each_segment_at_its_own_width(monkeypatch):
    # a 1 ns signal 50 ns after the centre of a 100 ns control: the 1.2 us
    # window is cut at the signal's window, whose 12 ns alone are stepped
    # at the 1 ns width
    spans = _counted_solves(monkeypatch)
    spec = RamanMemorySpec(
        gamma0=5.0e7,
        kappa_v=1.0e3,
        detuning=2.0e8,
        signal_pulse=Pulse(peak_rabi=1.5e9, center=6.5e-7, width=1.0e-9),
        control_pulse=Pulse(peak_rabi=6.0e7, center=6.0e-7, width=1.0e-7),
        storage_hold=1.0e-6,
    )
    _, total = raman_memory_efficiency(spec)
    edges = (0.0, 6.44e-7, 6.56e-7, 1.2e-6)
    assert spans == [pytest.approx(s, rel=1e-12, abs=1e-20) for s in zip(edges, edges[1:])]
    assert total == pytest.approx(_time_reversed_total(spec), rel=1e-8)


def test_dark_gap_phase_is_reduced_and_an_infinite_gap_is_a_domain_error():
    # detuning * gap is about 1e309 here; with gamma0 = 0 nothing damps c_e
    spec = RamanMemorySpec(
        gamma0=0.0,
        kappa_v=1.0e3,
        detuning=1.0e9,
        signal_pulse=Pulse(peak_rabi=4.0e7, center=-1.0e300, width=1.0e-8),
        control_pulse=Pulse(peak_rabi=6.0e7, center=5.0e-8, width=1.0e-8),
        storage_hold=0.0,
    )
    with np.errstate(over="ignore"):  # each far envelope overflows its exponent to 0
        assert raman_memory_efficiency(spec) == (0.0, 0.0)
        # centres 3.4e308 s apart: the gap itself overflows to inf
        far = Pulse(peak_rabi=6.0e7, center=1.7e308, width=1.0e-8)
        spec = replace(spec, signal_pulse=replace(far, center=-1.7e308), control_pulse=far)
        with pytest.raises(DomainError, match="dark gap overflows"):
            raman_memory_efficiency(spec)


def test_fast_emitter_long_hold_kills_the_memory():
    # 10 ps excited-state lifetime and a millisecond hold leave nothing
    spec = RamanMemorySpec(
        gamma0=1.0e11,
        kappa_v=1.0e6,
        detuning=0.0,
        signal_pulse=Pulse(peak_rabi=2.0e7, center=5.0e-8, width=1.0e-8),
        control_pulse=Pulse(peak_rabi=2.0e7, center=5.0e-8, width=1.0e-8),
        storage_hold=1.0e-3,
    )
    _, total = raman_memory_efficiency(spec)
    assert total <= 1e-6


def test_memory_spec_validation():
    pulse = Pulse(peak_rabi=1.0, center=0.0, width=1.0)
    with pytest.raises(ValueError):
        RamanMemorySpec(
            gamma0=-1.0, kappa_v=1.0, detuning=0.0,
            signal_pulse=pulse, control_pulse=pulse, storage_hold=0.0,
        )
    with pytest.raises(ValueError):
        RamanMemorySpec(
            gamma0=1.0, kappa_v=1.0, detuning=0.0,
            signal_pulse=pulse, control_pulse=pulse, storage_hold=-1.0,
        )


# --- cavity interface ---------------------------------------------------------


def _cavity(C, kappa=1.0e9, gamma=2.0 * math.pi * 1.0e7):
    g = math.sqrt(C * kappa * gamma / 4.0)
    return CavityInterfaceSpec(
        g=g, kappa=kappa, kappa_in=kappa / 2.0, kappa_out=kappa / 2.0, gamma=gamma
    )


def test_cooperativity_definition():
    spec = _cavity(45.0)
    assert spec.cooperativity == pytest.approx(45.0, rel=1e-12)


def test_on_resonance_amplitudes_closed_form():
    C = 45.0
    spec = _cavity(C)
    r, t = cavity_response(spec, 0.0)
    assert r[0].real == pytest.approx(-C / (1.0 + C), rel=1e-12)
    assert abs(r[0].imag) < 1e-15
    assert abs(t[0]) ** 2 == pytest.approx(1.0 / (1.0 + C) ** 2, rel=1e-9)


def test_bare_cavity_critically_coupled():
    spec = CavityInterfaceSpec(
        g=0.0, kappa=1.0e9, kappa_in=5.0e8, kappa_out=5.0e8, gamma=1.0e7
    )
    r, t = cavity_response(spec, 0.0)
    assert abs(r[0]) < 1e-12
    assert abs(t[0]) ** 2 == pytest.approx(1.0, rel=1e-12)


def test_energy_conservation_lossless_ports():
    spec = _cavity(10.0)
    detunings = np.linspace(-5e10, 5e10, 501)
    r, t = cavity_response(spec, detunings)
    total = np.abs(r) ** 2 + np.abs(t) ** 2
    assert np.all(total <= 1.0 + 1e-12)
    # far off resonance everything reflects
    assert abs(r[0]) ** 2 > 0.99


def test_lossy_cavity_absorbs():
    spec = CavityInterfaceSpec(
        g=0.0, kappa=1.0e9, kappa_in=3.0e8, kappa_out=3.0e8, gamma=1.0e7
    )
    r, t = cavity_response(spec, 0.0)
    assert abs(r[0]) ** 2 + abs(t[0]) ** 2 < 1.0 - 1e-3


def test_rabi_splitting_tracks_coupling():
    kappa, gamma = 5.0e8, 1.0e7
    g = 2.0e9  # deep strong coupling: splitting -> 2g
    spec = CavityInterfaceSpec(
        g=g, kappa=kappa, kappa_in=kappa / 2, kappa_out=kappa / 2, gamma=gamma
    )
    detunings = np.linspace(-4.0 * g, 4.0 * g, 160001)
    splitting = vacuum_rabi_splitting(spec, detunings)
    assert splitting == pytest.approx(2.0 * g, rel=1e-2)


def test_rabi_splitting_needs_straddling_grid():
    spec = _cavity(45.0)
    with pytest.raises(DomainError):
        vacuum_rabi_splitting(spec, np.linspace(1.0, 2.0, 11))


def test_spin_photon_fidelity_closed_form():
    # F = |t_off - r_on|^2 / 4 with r_on = -C/(1+C) and t_off = 1 at critical
    # coupling: C = 45 gives ((1 + 45/46)/2)^2 = (91/92)^2
    spec = _cavity(45.0)
    assert spin_photon_fidelity(spec) == pytest.approx(0.9783790170132324, rel=1e-12)


def test_spin_photon_fidelity_decoupled_floor():
    spec = CavityInterfaceSpec(
        g=0.0, kappa=1.0e9, kappa_in=5.0e8, kappa_out=5.0e8, gamma=1.0e7
    )
    # r_on = 0 and t_off = 1: |1 - 0|^2 / 4
    assert spin_photon_fidelity(spec) == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("coupled", [True, False])
def test_spin_photon_fidelity_reuses_given_on_resonance_response(coupled):
    spec = replace(_cavity(45.0), emitter_coupled=coupled)
    given = spin_photon_fidelity(spec, cavity_response(spec, 0.0))
    assert given == spin_photon_fidelity(spec)
    assert given == pytest.approx(0.9783790170132324, rel=1e-12)


def _count_cavity_responses(monkeypatch) -> list:
    """(emitter_coupled, number of detunings) of each cavity_response call."""
    calls = []
    original = protocols.cavity_response

    def counted(spec, detunings):
        calls.append((spec.emitter_coupled, np.size(detunings)))
        return original(spec, detunings)

    monkeypatch.setattr(protocols, "cavity_response", counted)
    return calls


def test_cavity_interface_run_evaluates_both_branches_at_zero_then_the_grid(monkeypatch, tmp_path):
    calls = _count_cavity_responses(monkeypatch)
    config = load_config(SCENARIO_DIR / "cavity_interface.json")
    run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / "out")
    # the scalars: the coupled and the shelved branch at detuning 0; then
    # response.csv: the 1201-point grid once
    assert calls == [(True, 1), (False, 1), (True, 1201)]


def test_cavity_interface_sweep_points_evaluate_no_grid(monkeypatch, tmp_path):
    calls = _count_cavity_responses(monkeypatch)
    config = load_config(SCENARIO_DIR / "cavity_interface.json")
    config["sweep"] = {"parameter": "g.value", "values": [0.1, 0.2, 0.3]}
    run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / "out")
    assert calls == [(True, 1), (False, 1)] * 3


def test_spin_photon_fidelity_monotone_in_cooperativity():
    values = [spin_photon_fidelity(_cavity(c)) for c in np.linspace(5.0, 500.0, 10)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0


def test_cavity_validation():
    with pytest.raises(ValueError):
        CavityInterfaceSpec(g=1.0, kappa=0.0, kappa_in=0.0, kappa_out=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        CavityInterfaceSpec(g=1.0, kappa=1.0, kappa_in=0.7, kappa_out=0.7, gamma=1.0)
    with pytest.raises(ValueError):
        CavityInterfaceSpec(g=-1.0, kappa=1.0, kappa_in=0.5, kappa_out=0.5, gamma=1.0)


# --- molecular optomechanics ---------------------------------------------------


def _reference_params():
    omega_v = 2.0 * math.pi * 1.0e12
    return OptomechParams(
        g0=0.1 * omega_v,
        omega_v=omega_v,
        kappa_v=1.0e11,
        gamma0=2.0 * math.pi * 1.0e6,
        temperature=300.0,
    )


def test_optomech_reference_point():
    result = optomech_cooperativity(_reference_params(), n_bar=1.0)
    assert result.cooperativity == pytest.approx(2513274.1228718343, rel=1e-12)
    assert result.cooperativity > 1.0e5
    assert result.thermal_occupation == 1.0
    assert result.ultrastrong


def test_optomech_scaling_laws():
    base = _reference_params()
    c0 = optomech_cooperativity(base, n_bar=1.0).cooperativity

    doubled_g = OptomechParams(
        2.0 * base.g0, base.omega_v, base.kappa_v, base.gamma0, base.temperature
    )
    assert optomech_cooperativity(doubled_g, n_bar=1.0).cooperativity == pytest.approx(
        4.0 * c0, rel=1e-12
    )
    assert optomech_cooperativity(base, n_bar=2.0).cooperativity == pytest.approx(
        c0 / 2.0, rel=1e-12
    )
    doubled_kv = OptomechParams(
        base.g0, base.omega_v, 2.0 * base.kappa_v, base.gamma0, base.temperature
    )
    assert optomech_cooperativity(doubled_kv, n_bar=1.0).cooperativity == pytest.approx(
        c0 / 2.0, rel=1e-12
    )
    doubled_g0 = OptomechParams(
        base.g0, base.omega_v, base.kappa_v, 2.0 * base.gamma0, base.temperature
    )
    assert optomech_cooperativity(doubled_g0, n_bar=1.0).cooperativity == pytest.approx(
        c0 / 2.0, rel=1e-12
    )


def test_optomech_default_occupation_is_thermal():
    base = _reference_params()
    result = optomech_cooperativity(base)
    expected_n = bose_occupation(base.omega_v, base.temperature)
    assert result.thermal_occupation == pytest.approx(expected_n, rel=1e-12)
    explicit = optomech_cooperativity(base, n_bar=expected_n)
    assert result.cooperativity == pytest.approx(explicit.cooperativity, rel=1e-12)


def test_optomech_ultrastrong_boundaries():
    omega_v = 2.0 * math.pi * 1.0e12

    def flag(ratio):
        p = OptomechParams(ratio * omega_v, omega_v, 1e11, 1e6, 300.0)
        return optomech_cooperativity(p, n_bar=1.0).ultrastrong

    assert not flag(0.099)
    assert flag(0.1)
    assert flag(0.5)
    assert not flag(0.501)


def test_optomech_zero_temperature_needs_explicit_occupation():
    base = _reference_params()
    frozen = OptomechParams(base.g0, base.omega_v, base.kappa_v, base.gamma0, 0.0)
    with pytest.raises(DomainError):
        optomech_cooperativity(frozen)
    result = optomech_cooperativity(frozen, n_bar=0.0)
    assert math.isinf(result.cooperativity)
    assert result.thermal_occupation == 0.0


def test_optomech_validation():
    with pytest.raises(ValueError):
        OptomechParams(-1.0, 1.0, 1.0, 1.0, 300.0)
    with pytest.raises(ValueError):
        OptomechParams(1.0, 0.0, 1.0, 1.0, 300.0)
    with pytest.raises(ValueError):
        OptomechParams(1.0, 1.0, 0.0, 1.0, 300.0)
    with pytest.raises(ValueError):
        OptomechParams(1.0, 1.0, 1.0, 1.0, -1.0)
    with pytest.raises(DomainError):
        optomech_cooperativity(_reference_params(), n_bar=-0.5)

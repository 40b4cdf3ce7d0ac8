import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from hostguest import dynamics
from hostguest.cli import main
from hostguest.dynamics import (
    OpenSystem,
    RateNetwork,
    evolve,
    g2_correlation,
    liouvillian,
    odmr_contrast,
    steady_populations,
    steady_state,
)
from hostguest.errors import DegenerateSteadyState, DomainError, InvalidState, SingularNetwork
from hostguest.levels import LevelKet, S0, S1, T1
from hostguest.scenarios import load_config, run_scenario, validate_config
from rate_network_oracle import exact_odmr_contrast

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def _random_system(rng, dim, n_channels=2):
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (h + h.conj().T) / 2.0
    channels = []
    for _ in range(n_channels):
        c = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        channels.append((c, float(rng.uniform(0.1, 2.0))))
    return OpenSystem(hamiltonian=h, collapse_channels=tuple(channels))


def _random_state(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _two_level(rabi, detuning, gamma, dephasing=0.0):
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    h = np.array(
        [[0.0, rabi / 2.0], [rabi / 2.0, detuning]], dtype=complex
    )
    channels = [(lower, gamma)]
    if dephasing > 0.0:
        channels.append((np.diag([0.0, 1.0]).astype(complex), dephasing))
    return OpenSystem(hamiltonian=h, collapse_channels=tuple(channels))


def test_evolve_matches_superoperator_exponential():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 4):
        system = _random_system(rng, dim)
        rho0 = _random_state(rng, dim)
        times = [0.0, 0.13, 0.57, 1.9]
        states = evolve(system, rho0, times)
        gen = liouvillian(system.hamiltonian, system.collapse_channels)
        for t, rho in zip(times, states):
            ref = (expm(gen * t) @ rho0.reshape(-1)).reshape(dim, dim)
            assert np.max(np.abs(rho - ref)) < 1e-7


def test_evolve_matches_the_exponential_on_the_shipped_lindblad_system():
    config = load_config(SCENARIO_DIR / "lindblad.json")
    (params,) = validate_config(config)
    system = params["system"]
    times = np.linspace(0.0, params["times"]["stop"], params["times"]["points"])
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    states = evolve(system, rho0, times)
    gen = liouvillian(system.hamiltonian, system.collapse_channels)
    for t, rho in zip(times, states):
        ref = (expm(gen * t) @ rho0.reshape(-1)).reshape(2, 2)
        assert np.max(np.abs(rho - ref)) < 1e-12


def test_evolve_preserves_trace_hermiticity_positivity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        dim = int(rng.integers(2, 7))
        system = _random_system(rng, dim, n_channels=int(rng.integers(1, 3)))
        rho0 = _random_state(rng, dim)
        times = np.linspace(0.0, 2.0, 9)
        for rho in evolve(system, rho0, times):
            assert abs(np.trace(rho).real - 1.0) < 1e-7
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-7
            assert np.linalg.eigvalsh(rho).min() > -1e-7


def test_unitary_rabi_oscillation():
    rabi = 2.0 * math.pi * 1.0
    system = _two_level(rabi, 0.0, 0.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    times = np.linspace(0.0, 2.0, 41)
    states = evolve(system, rho0, times)
    p_e = np.array([rho[1, 1].real for rho in states])
    expected = np.sin(rabi * times / 2.0) ** 2
    assert np.max(np.abs(p_e - expected)) < 1e-6


def test_pure_decay_is_exponential():
    gamma = 0.7
    system = _two_level(0.0, 0.0, gamma)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    times = np.linspace(0.0, 5.0, 21)
    states = evolve(system, rho0, times)
    p_e = np.array([rho[1, 1].real for rho in states])
    assert np.max(np.abs(p_e - np.exp(-gamma * times))) < 1e-7


def test_driven_steady_state_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rabi = float(rng.uniform(0.2, 4.0))
        delta = float(rng.uniform(-3.0, 3.0))
        gamma = float(rng.uniform(0.3, 2.0))
        rho = steady_state(_two_level(rabi, delta, gamma))
        expected = (rabi**2 / 4.0) / (
            delta**2 + gamma**2 / 4.0 + rabi**2 / 2.0
        )
        assert rho[1, 1].real == pytest.approx(expected, abs=1e-10)
        assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_resonant_saturation_third():
    rho = steady_state(_two_level(1.0, 0.0, 1.0))
    assert rho[1, 1].real == pytest.approx(1.0 / 3.0, abs=1e-12)


def _degenerate_systems():
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    excited = np.diag([0.0, 1.0]).astype(complex)
    ident = np.eye(2)
    collective = np.kron(lower, ident) + np.kron(ident, lower)
    swap_symmetric = np.kron(ident, excited) + np.kron(excited, ident)
    sinks = np.zeros((2, 3, 3), dtype=complex)
    sinks[0, 0, 2] = sinks[1, 1, 2] = 1.0  # |0><2| and |1><2|
    rng = np.random.default_rng(17)
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    return {
        "zero": OpenSystem(np.zeros((4, 4)), ()),
        "collective_decay": OpenSystem(np.zeros((4, 4)), ((collective, 1.0),)),
        "collective_decay_symmetric_h": OpenSystem(swap_symmetric, ((collective, 1.0),)),
        "two_sinks": OpenSystem(np.zeros((3, 3)), ((sinks[0], 1.0), (sinks[1], 2.0))),
        "two_sinks_rotated": OpenSystem(
            u @ np.diag([0.0, 0.7, 0.0]) @ u.conj().T,
            ((u @ sinks[0] @ u.conj().T, 1.0), (u @ sinks[1] @ u.conj().T, 2.0)),
        ),
        "h_only": _two_level(1.0, 0.3, 0.0),
        "h_only_diagonal": _two_level(0.0, 2.0e9, 0.0),
    }


@pytest.mark.parametrize("name", sorted(_degenerate_systems()))
def test_steady_state_requires_unique_null_space(name):
    # Each system has more than one stationary state: without channels every
    # state that commutes with H is stationary, the collective decay leaves
    # a dark state, and the two sinks leave every state on span{|0>, |1>}
    # stationary. A bordered solve without the unit-rate kernel count
    # returns a state for the symmetric-H and rotated-sink systems.
    with pytest.raises(DegenerateSteadyState):
        steady_state(_degenerate_systems()[name])


def _shipped(kind, field, value):
    config = load_config(SCENARIO_DIR / f"{kind}.json")
    config["parameters"]["system"][field]["value"] = value
    return config


@pytest.mark.parametrize(
    "field, value",
    [("decay", 1e12), ("detuning", 1e12), ("dephasing", 1e12), ("rabi", 1e12), ("decay", 1e-300)],
)
def test_stiff_steady_state_matches_the_closed_form(field, value):
    # rho_ee = (s/2)/(1+s), s = rabi^2 G2/(decay (detuning^2 + G2^2)) and
    # G2 = (decay + dephasing)/2, evaluated in rationals: the float form
    # underflows at a decay of 1e-300 MHz.
    (params,) = validate_config(_shipped("lindblad", field, value))
    system = params["system"]
    h = system.hamiltonian
    rabi, detuning = Fraction(2.0 * h[0, 1].real), Fraction(h[1, 1].real)
    decay, dephasing = (Fraction(rate) for _, rate in system.collapse_channels)
    g2 = (decay + dephasing) / 2
    exact = float(rabi**2 * g2 / (2 * (decay * (detuning**2 + g2**2) + rabi**2 * g2)))
    rho = steady_state(system)
    assert abs(rho[1, 1].real - exact) <= 1e-15 * exact
    assert abs(np.trace(rho).real - 1.0) <= 1e-15


def test_stiff_g2_tends_to_one(tmp_path):
    out = run_scenario(_shipped("g2", "decay", 1e12), SCENARIO_DIR, output_dir=tmp_path / "out")
    result = json.loads((out / "result.json").read_text())
    assert abs(result["g2_final"] - 1.0) <= 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e300, 1e-12, 1e-300])
def test_hermiticity_check_is_relative_and_does_not_overflow(scale):
    h = scale * np.array([[0.0, 1.0], [1.0, 0.5]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        OpenSystem(hamiltonian=h, collapse_channels=())
        h[0, 1] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="must be Hermitian"):
            OpenSystem(hamiltonian=h, collapse_channels=())


@pytest.mark.parametrize("entry", [math.inf, math.nan])
def test_non_finite_hamiltonian_is_a_domain_error_without_a_warning(entry):
    h = np.eye(2, dtype=complex)
    h[1, 1] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^hamiltonian has non-finite entries$"):
            OpenSystem(hamiltonian=h, collapse_channels=())


@pytest.mark.parametrize("rate", [math.inf, math.nan])
def test_non_finite_collapse_rate_is_refused_by_name(rate):
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^collapse rate must be finite and non-negative, got {rate}$"):
            OpenSystem(hamiltonian=np.eye(2, dtype=complex), collapse_channels=((lower, rate),))


def test_non_finite_collapse_operator_is_a_domain_error_without_a_warning():
    lower = np.array([[0.0, math.nan], [0.0, 0.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^collapse operator has non-finite entries$"):
            OpenSystem(hamiltonian=np.eye(2, dtype=complex), collapse_channels=((lower, 1.0),))


def test_steady_state_is_solved_once_and_read_only():
    system = _two_level(3.0, 0.5, 1.0, dephasing=0.2)
    assert steady_state(system) is system.steady_state
    with pytest.raises(ValueError):
        system.steady_state[0, 0] = 0.0


def test_lindblad_times_points_sweep_builds_one_unit_rate_liouvillian(monkeypatch, tmp_path):
    # The points share one OpenSystem: its generator and the unit-rate
    # structure of its steady state are each built once, whatever the grids.
    calls = []
    original = dynamics.liouvillian

    def counted(hamiltonian, channels):
        calls.append(hamiltonian)
        return original(hamiltonian, channels)

    monkeypatch.setattr(dynamics, "liouvillian", counted)
    config = load_config(SCENARIO_DIR / "lindblad.json")
    config["sweep"] = {"parameter": "times.points", "values": [101, 201, 501]}
    run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / "out")
    assert len(calls) == 2


def test_invalid_initial_states_rejected():
    system = _two_level(1.0, 0.0, 1.0)
    with pytest.raises(InvalidState):
        evolve(system, np.eye(3, dtype=complex) / 3.0, [0.0, 1.0])
    with pytest.raises(InvalidState):
        evolve(system, np.diag([0.7, 0.7]).astype(complex), [0.0, 1.0])
    skew = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
    with pytest.raises(InvalidState):
        evolve(system, skew, [0.0, 1.0])
    with pytest.raises(InvalidState):
        evolve(system, np.diag([1.5, -0.5]).astype(complex), [0.0, 1.0])


def test_times_must_be_sorted_nonnegative():
    system = _two_level(1.0, 0.0, 1.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        evolve(system, rho0, [0.0, -1.0])
    with pytest.raises(ValueError):
        evolve(system, rho0, [1.0, 0.5])


_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


@pytest.mark.parametrize(
    "call",
    [
        lambda times: evolve(_two_level(1.0, 0.0, 1.0), np.diag([1.0, 0.0]), times),
        lambda times: g2_correlation(_two_level(1.0, 0.0, 1.0), _LOWER, times),
    ],
    ids=["evolve", "g2_correlation"],
)
@pytest.mark.parametrize(
    "times",
    [[], [[0.0, 1.0]], [0.0, math.nan], [0.0, math.inf], [1.0, 0.5], [-1.0, 0.0]],
    ids=["empty", "2d", "nan", "inf", "unsorted", "negative"],
)
def test_time_axis_is_checked(call, times):
    with pytest.raises(ValueError, match="non-empty, finite, sorted, non-negative"):
        call(times)


@pytest.mark.parametrize(
    "call",
    [
        lambda times: evolve(_two_level(3.0, 0.5, 1.0), np.diag([1.0, 0.0]), times),
        lambda times: g2_correlation(_two_level(3.0, 0.5, 1.0), _LOWER, times),
    ],
    ids=["evolve", "g2_correlation"],
)
@pytest.mark.parametrize("times", [[0.2, 0.2, 0.5], [0.0, 0.0, 0.7, 0.7, 0.7]])
def test_repeated_times_repeat_the_state(call, times):
    # each distinct time is reached once, and every repeat is the row of
    # the strictly increasing call
    distinct, index = np.unique(times, return_inverse=True)
    assert np.array_equal(call(times), call(distinct)[index])


@pytest.mark.parametrize("kind", ["lindblad", "g2"])
def test_shipped_run_builds_the_liouvillian_once(kind, monkeypatch, tmp_path):
    # The run's own generator is built once; the steady state adds one
    # Liouvillian of the unit-rate structure, from the validated arrays:
    # the run builds no OpenSystem beyond the one its config validates to.
    config = load_config(SCENARIO_DIR / f"{kind}.json")
    (params,) = validate_config(config)
    own = params["system"]
    calls, built = [], []
    original, post_init = dynamics.liouvillian, OpenSystem.__post_init__

    def counted(hamiltonian, channels):
        calls.append((hamiltonian, channels))
        return original(hamiltonian, channels)

    def counted_post_init(system):
        built.append(system)
        post_init(system)

    monkeypatch.setattr(dynamics, "liouvillian", counted)
    monkeypatch.setattr(OpenSystem, "__post_init__", counted_post_init)
    run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / "out")

    def is_own(hamiltonian, channels):
        return np.array_equal(hamiltonian, own.hamiltonian) and [
            rate for _, rate in channels
        ] == [rate for _, rate in own.collapse_channels]

    def is_unit_rate(hamiltonian, channels):
        rates = {rate for _, rate in channels}
        return np.abs(hamiltonian).max() == pytest.approx(1.0) and rates == {1.0}

    assert len(calls) == 2
    assert [is_own(*c) for c in calls].count(True) == 1
    assert [is_unit_rate(*c) for c in calls].count(True) == 1
    assert len(built) == 1


def test_batch_rows_are_the_bytes_of_plain_calls():
    rng = np.random.default_rng(11)
    times = np.r_[0.0, 0.0, np.linspace(0.1, 2.0, 40), 2.0]
    for dim in (2, 3):
        systems = [_random_system(rng, dim) for _ in range(4)]
        states = [_random_state(rng, dim) for _ in range(4)]
        stacked = evolve(systems, states, times)
        assert stacked.shape == (4, len(times), dim, dim)
        for system, rho0, rows in zip(systems, states, stacked):
            assert rows.tobytes() == evolve(system, rho0, times).tobytes()
    systems = [_two_level(rabi, 0.5, 1.0) for rabi in (0.5, 3.0, 7.0)]
    values = g2_correlation(systems, [_LOWER] * 3, times)
    for system, row in zip(systems, values):
        assert row.tobytes() == g2_correlation(system, _LOWER, times).tobytes()


def test_batch_checks_each_point_as_it_draws_it():
    # Points are drawn one at a time: a check that fails stops the draw, and
    # the caller's work between two draws runs after the earlier point's checks.
    good, drawn = np.diag([1.0, 0.0]), []

    def systems(rabis):
        for rabi in rabis:
            drawn.append(rabi)
            yield _two_level(rabi, 0.0, 1.0)

    with pytest.raises(InvalidState):
        evolve(systems([1.0, 2.0, 3.0]), [good, np.diag([0.7, 0.7]), good], [0.0, 1.0])
    assert drawn == [1.0, 2.0]
    drawn.clear()
    with pytest.raises(DomainError, match="over 2"):
        evolve(systems([1.0, 1e300, 3.0]), [good] * 3, [0.0, 1.0])
    assert drawn == [1.0, 1e300]
    drawn.clear()
    with pytest.raises(DegenerateSteadyState, match="emits no photons"):
        g2_correlation(systems([1.0, 0.0, 1e300]), [_LOWER] * 3, [0.0, 1.0])
    assert drawn == [1.0, 0.0]


def _sweep_rows_and_plain_results(kind, parameter, values, tmp_path):
    config = load_config(SCENARIO_DIR / f"{kind}.json")
    config["sweep"] = {"parameter": parameter, "values": values}
    out = run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / "sweep")
    header, *rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()]
    plain = []
    for i, value in enumerate(values):
        config = load_config(SCENARIO_DIR / f"{kind}.json")
        *path, leaf = parameter.split(".")
        node = config["parameters"]
        for key in path:
            node = node[key]
        node[leaf] = value
        out = run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / f"plain{i}")
        plain.append(json.loads((out / "result.json").read_text()))
    return header, rows, plain


@pytest.mark.parametrize(
    "kind, parameter, values",
    [
        ("lindblad", "initial_state", ["ground", "excited", "excited", "ground"]),
        ("lindblad", "times.points", [101, 501, 501, 2001, 101]),
        ("lindblad", "system.rabi.value", [1.0 + 1.5 * i for i in range(10)]),
        ("g2", "taus.points", [101, 401, 401, 1601]),
        ("g2", "system.decay.value", [2.0 + 0.7 * i for i in range(12)]),
    ],
)
def test_sweep_rows_are_the_plain_run_scalars(kind, parameter, values, tmp_path):
    # Points on one time grid are stepped together, in batches capped by
    # BATCH_ENTRIES (8 lindblad or 10 g2 points here); each row holds the
    # repr of its plain run's scalars, bit for bit.
    header, rows, plain = _sweep_rows_and_plain_results(kind, parameter, values, tmp_path)
    assert header == [parameter, *sorted(plain[0])]
    assert len(rows) == len(values)
    for row, result in zip(rows, plain):
        assert row[1:] == [repr(result[key]) for key in header[1:]]


@pytest.mark.parametrize(
    "kind, parameter, values, sizes",
    [
        ("lindblad", "system.rabi.value", [1.0 + i for i in range(10)], [8, 2]),
        ("lindblad", "times.points", [101, 501, 501, 101], [1, 2, 1]),
        ("g2", "system.decay.value", [2.0 + i for i in range(12)], [10, 2]),
        ("g2", "taus.points", [4097], [1]),
    ],
)
def test_sweep_batches_share_one_grid_and_keep_within_the_cap(
    kind, parameter, values, sizes, monkeypatch, tmp_path
):
    name = "evolve" if kind == "lindblad" else "g2_correlation"
    original, batches = getattr(dynamics, name), []

    def counted(systems, *rest):
        systems = list(systems)
        batches.append(len(systems))
        return original(systems, *rest)

    monkeypatch.setattr(dynamics, name, counted)
    config = load_config(SCENARIO_DIR / f"{kind}.json")
    config["sweep"] = {"parameter": parameter, "values": values}
    run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / "out")
    assert batches == sizes


def test_generator_is_the_read_only_liouvillian():
    system = _two_level(3.0, 0.5, 1.0, dephasing=0.2)
    assert system.generator is system.generator
    assert np.array_equal(
        system.generator, liouvillian(system.hamiltonian, system.collapse_channels)
    )
    with pytest.raises(ValueError):
        system.generator[0, 0] = 0.0


def test_g2_matches_regression_oracle():
    system = _two_level(3.0, 0.5, 1.0, dephasing=0.2)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    taus = np.linspace(0.0, 6.0, 25)
    got = g2_correlation(system, lower, taus)

    gen = liouvillian(system.hamiltonian, system.collapse_channels)
    rho_ss = steady_state(system)
    n_op = lower.conj().T @ lower
    flux = np.trace(n_op @ rho_ss).real
    seed = lower @ rho_ss @ lower.conj().T
    expected = np.array(
        [
            np.trace(n_op @ (expm(gen * t) @ seed.reshape(-1)).reshape(2, 2)).real
            for t in taus
        ]
    ) / flux**2
    assert np.max(np.abs(got - expected)) < 1e-6


def test_single_emitter_antibunches():
    system = _two_level(1.0, 0.0, 1.0)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    g2 = g2_correlation(system, lower, [0.0, 50.0])
    assert abs(g2[0]) < 1e-9
    assert g2[1] == pytest.approx(1.0, abs=1e-6)


def test_g2_undefined_without_emission():
    system = _two_level(0.0, 0.0, 1.0)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(DegenerateSteadyState):
        g2_correlation(system, lower, [0.0, 1.0])


# --- classical rate networks -------------------------------------------------

_GROUND = LevelKet(manifold=S0)
_EXCITED = LevelKet(manifold=S1)
_TX = LevelKet(manifold=T1, sublevel="x")
_TY = LevelKet(manifold=T1, sublevel="y")
_TZ = LevelKet(manifold=T1, sublevel="z")


def test_two_state_network_balance():
    k_up, k_down = 2.0e6, 8.0e6
    network = RateNetwork(
        state_labels=(_GROUND, _EXCITED),
        rates={(_GROUND, _EXCITED): k_up, (_EXCITED, _GROUND): k_down},
        emissive_flags={_EXCITED: True},
    )
    p = steady_populations(network)
    assert p[1] == pytest.approx(k_up / (k_up + k_down), rel=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_chain_network_hand_solved():
    # S0 -> S1 -> T1,x -> S0 cycle; stationary flux equalizes through links
    pump, isc, decay = 1.0e6, 4.0e6, 0.5e6
    network = RateNetwork(
        state_labels=(_GROUND, _EXCITED, _TX, _TY, _TZ),
        rates={
            (_GROUND, _EXCITED): pump,
            (_EXCITED, _TX): isc,
            (_TX, _GROUND): decay,
            (_TY, _GROUND): decay,
            (_TZ, _GROUND): decay,
        },
        emissive_flags={_EXCITED: True},
    )
    p = steady_populations(network)
    idx = {k: i for i, k in enumerate(network.state_labels)}
    # flux balance: p_g*pump = p_e*isc = p_tx*decay, empty y/z sublevels
    assert p[idx[_TY]] == 0.0
    assert p[idx[_TZ]] == 0.0
    flux = p[idx[_GROUND]] * pump
    assert p[idx[_EXCITED]] * isc == pytest.approx(flux, rel=1e-10)
    assert p[idx[_TX]] * decay == pytest.approx(flux, rel=1e-10)


def test_disconnected_network_is_singular():
    network = RateNetwork(
        state_labels=(_GROUND, _EXCITED, _TX),
        rates={(_GROUND, _EXCITED): 1.0, (_EXCITED, _GROUND): 1.0},
        emissive_flags={},
    )
    with pytest.raises(SingularNetwork):
        steady_populations(network)


def test_two_absorbing_states_fed_by_one_transient_state_are_singular():
    network = RateNetwork(
        state_labels=(_EXCITED, _TX, _TY),
        rates={(_EXCITED, _TX): 1.0e7, (_EXCITED, _TY): 3.0e6},
        emissive_flags={},
    )
    with pytest.raises(SingularNetwork):
        steady_populations(network)


def test_network_validation():
    with pytest.raises(ValueError):
        RateNetwork(
            state_labels=(_GROUND, _GROUND),
            rates={},
            emissive_flags={},
        )
    with pytest.raises(ValueError):
        RateNetwork(
            state_labels=(_GROUND, _EXCITED),
            rates={(_GROUND, _GROUND): 1.0},
            emissive_flags={},
        )
    with pytest.raises(ValueError):
        RateNetwork(
            state_labels=(_GROUND, _EXCITED),
            rates={(_GROUND, _TX): 1.0},
            emissive_flags={},
        )
    with pytest.raises(ValueError):
        RateNetwork(
            state_labels=(_GROUND, _EXCITED),
            rates={(_GROUND, _EXCITED): -1.0},
            emissive_flags={},
        )


@pytest.mark.parametrize("rate", [math.inf, math.nan])
def test_non_finite_network_rate_is_refused_by_name(rate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^rates must be finite and non-negative, got {rate} for "):
            RateNetwork(
                state_labels=(_GROUND, _EXCITED),
                rates={(_GROUND, _EXCITED): rate, (_EXCITED, _GROUND): 1.0},
                emissive_flags={_EXCITED: True},
            )


def _odmr_network(decay_x=1e7):
    pump, radiative = 5.0e6, 6.0e7
    isc = {_TX: 5.0e7, _TY: 1.5e7, _TZ: 3.0e6}
    decay = {_TX: decay_x, _TY: 2.0e6, _TZ: 3.0e5}
    rates = {(_GROUND, _EXCITED): pump, (_EXCITED, _GROUND): radiative}
    for t in (_TX, _TY, _TZ):
        rates[(_EXCITED, t)] = isc[t]
        rates[(t, _GROUND)] = decay[t]
    return RateNetwork(
        state_labels=(_GROUND, _EXCITED, _TX, _TY, _TZ),
        rates=rates,
        emissive_flags={_EXCITED: True},
    )


def _brute_contrast(network, pair, mixing):
    f = []
    for extra in (0.0, mixing):
        rates = dict(network.rates)
        if extra > 0.0:
            a, b = pair
            rates[(a, b)] = rates.get((a, b), 0.0) + extra
            rates[(b, a)] = rates.get((b, a), 0.0) + extra
        net = RateNetwork(network.state_labels, rates, network.emissive_flags)
        p = steady_populations(net)
        idx = {k: i for i, k in enumerate(net.state_labels)}
        f.append(p[idx[_EXCITED]] * rates[(_EXCITED, _GROUND)])
    return (f[1] - f[0]) / f[0]


def test_odmr_contrast_matches_brute_force():
    network = _odmr_network()
    got = odmr_contrast(network, ("x", "z"), 1.0e7)
    expected = _brute_contrast(network, (_TX, _TZ), 1.0e7)
    assert got == pytest.approx(expected, rel=1e-10)
    assert got > 0.0


@pytest.mark.parametrize(
    "dotted",
    [None, *(f"network.rates.{i}.rate" for i in range(8)), "mw_mixing_rate"],
)
def test_shipped_odmr_contrast_matches_the_exact_oracle(dotted):
    # Each of the shipped network's rates, or the mixing rate, at 1e300
    # rad/s. Two of these contrasts are about 1e-293 and read 0.
    config = load_config(SCENARIO_DIR / "odmr.json")
    if dotted is not None:
        node = config["parameters"]
        for key in dotted.split("."):
            node = node[int(key)] if key.isdigit() else node[key]
        node["value"] = 1e300
    (drive,) = validate_config(config)
    exact = float(exact_odmr_contrast(*drive))
    assert abs(odmr_contrast(*drive) - exact) <= max(1e-12 * abs(exact), 1e-290)


def test_odmr_populations_past_the_float_range_exit_2_without_a_warning(tmp_path, capsys):
    # T1,x -> S0 at 1e-300 and S1 -> T1,x at 1e300 rad/s: the S1 population,
    # about 1e-601, has no float, and the reduction overflows.
    config = load_config(SCENARIO_DIR / "odmr.json")
    rates = config["parameters"]["network"]["rates"]
    rates[5]["rate"]["value"], rates[2]["rate"]["value"] = 1e-300, 1e300
    assert (rates[5]["source"], rates[2]["target"]) == ("T1,x;v=[];p=[];n=[]",) * 2
    path = tmp_path / "odmr.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="leave the float range"):
            steady_populations(validate_config(config)[0][0])
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert "leave the float range" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("points", [1, 4])
def test_mixing_rate_sweep_solves_the_undriven_network_once(points, monkeypatch, tmp_path):
    # The points share one RateNetwork, whose fluorescence F_off is solved
    # once; each point solves its own driven network.
    calls = []
    original = dynamics.steady_populations

    def counted(network):
        calls.append(network)
        return original(network)

    monkeypatch.setattr(dynamics, "steady_populations", counted)
    config = load_config(SCENARIO_DIR / "odmr.json")
    values = [1e6 * (k + 1) for k in range(points)]
    config["sweep"] = {"parameter": "mw_mixing_rate.value", "values": values}
    run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / "out")
    assert len(calls) == points + 1
    assert len({id(network) for network in calls}) == points + 1


def test_odmr_contrast_sign_flips_with_pair_ordering_of_lifetimes():
    # mixing a long-lived sublevel with a short-lived one raises fluorescence
    network = _odmr_network()
    up = odmr_contrast(network, ("x", "z"), 1.0e7)
    down = odmr_contrast(network, ("y", "z"), 1.0e7)
    assert up != pytest.approx(down, rel=1e-3)


def test_odmr_zero_mixing_zero_contrast():
    assert odmr_contrast(_odmr_network(), ("x", "z"), 0.0) == pytest.approx(
        0.0, abs=1e-12
    )


def test_odmr_argument_validation():
    network = _odmr_network()
    with pytest.raises(ValueError):
        odmr_contrast(network, ("x", "x"), 1.0e6)
    with pytest.raises(ValueError):
        odmr_contrast(network, ("x", "w"), 1.0e6)
    with pytest.raises(ValueError):
        odmr_contrast(network, ("x", "z"), -1.0)
    incomplete = RateNetwork(
        state_labels=(_GROUND, _EXCITED, _TX),
        rates={(_GROUND, _EXCITED): 1.0, (_EXCITED, _GROUND): 1.0},
        emissive_flags={_EXCITED: True},
    )
    with pytest.raises(ValueError):
        odmr_contrast(incomplete, ("x", "z"), 1.0e6)

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from hostguest import dynamics
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
from hostguest.errors import DegenerateSteadyState, InvalidState, SingularNetwork
from hostguest.levels import LevelKet, S0, S1, T1
from hostguest.scenarios import load_config, run_scenario, validate_config

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
        gen = liouvillian(system)
        for t, rho in zip(times, states):
            ref = (expm(gen * t) @ rho0.reshape(-1)).reshape(dim, dim)
            assert np.max(np.abs(rho - ref)) < 1e-7


def test_evolve_matches_the_exponential_on_the_shipped_lindblad_system():
    config = load_config(SCENARIO_DIR / "lindblad.json")
    (params,) = validate_config(config)
    p = params["system"]
    system = _two_level(p["rabi"], p["detuning"], p["decay"], p["dephasing"])
    times = np.linspace(0.0, params["times"]["stop"], params["times"]["points"])
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    states = evolve(system, rho0, times)
    gen = liouvillian(system)
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


def test_steady_state_requires_unique_null_space():
    # two decoupled decaying qubits: Liouvillian kernel is 2-dimensional
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    c = np.kron(lower, np.eye(2)) + np.kron(np.eye(2), lower)
    h = np.zeros((4, 4), dtype=complex)
    with pytest.raises(DegenerateSteadyState):
        steady_state(OpenSystem(hamiltonian=h, collapse_channels=()))
    del c


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
    calls = []
    original = dynamics.liouvillian

    def counted(system):
        calls.append(system.dimension)
        return original(system)

    monkeypatch.setattr(dynamics, "liouvillian", counted)
    config = load_config(SCENARIO_DIR / f"{kind}.json")
    run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / "out")
    assert calls == [2]


def test_generator_is_the_read_only_liouvillian():
    system = _two_level(3.0, 0.5, 1.0, dephasing=0.2)
    assert system.generator is system.generator
    assert np.array_equal(system.generator, liouvillian(system))
    with pytest.raises(ValueError):
        system.generator[0, 0] = 0.0


def test_g2_matches_regression_oracle():
    system = _two_level(3.0, 0.5, 1.0, dephasing=0.2)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    taus = np.linspace(0.0, 6.0, 25)
    got = g2_correlation(system, lower, taus)

    gen = liouvillian(system)
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
    assert p[idx[_TY]] == pytest.approx(0.0, abs=1e-15)
    assert p[idx[_TZ]] == pytest.approx(0.0, abs=1e-15)
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

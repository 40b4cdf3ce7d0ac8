import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from hostguest.cli import main
from hostguest.errors import DomainError
from hostguest.relaxation import (
    RelaxationChannel,
    RelaxationInput,
    classify_relaxation,
    two_phonon_rate,
)
from hostguest.units import BOLTZMANN, HBAR, bose_occupation
from hostguest.vibronic import PhononSpectralDensity, _phonon_exponent

TWO_PI = 2.0 * math.pi
W_MAX = TWO_PI * 4.5e12  # host lattice cutoff used throughout
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def test_low_frequency_mode_decays_by_two_phonons():
    data = RelaxationInput(vibron_frequency=TWO_PI * 6e12, phonon_cutoff=W_MAX)
    assert classify_relaxation(data) is RelaxationChannel.TWO_PHONON


def test_midband_mode_needs_a_bridging_vibron():
    data = RelaxationInput(
        vibron_frequency=TWO_PI * 10e12,
        phonon_cutoff=W_MAX,
        other_vibrons=(TWO_PI * 2e12,),
    )
    assert classify_relaxation(data) is RelaxationChannel.VIBRON_ASSISTED


def test_high_frequency_mode_is_intramolecular():
    data = RelaxationInput(
        vibron_frequency=TWO_PI * 93e12,
        phonon_cutoff=W_MAX,
        other_vibrons=(TWO_PI * 2e12,),
    )
    assert classify_relaxation(data) is RelaxationChannel.INTRAMOLECULAR


def test_boundary_belongs_to_two_phonon():
    data = RelaxationInput(vibron_frequency=2.0 * W_MAX, phonon_cutoff=W_MAX)
    assert classify_relaxation(data) is RelaxationChannel.TWO_PHONON


def test_without_bridge_midband_mode_is_intramolecular():
    data = RelaxationInput(vibron_frequency=TWO_PI * 10e12, phonon_cutoff=W_MAX)
    assert classify_relaxation(data) is RelaxationChannel.INTRAMOLECULAR


def test_partition_no_overlap_no_gap():
    rng = np.random.default_rng(17)
    counts = {c: 0 for c in RelaxationChannel}
    for _ in range(500):
        w_v = TWO_PI * rng.uniform(0.5e12, 40e12)
        others = tuple(
            float(f) for f in rng.uniform(0.1 * w_v, 0.95 * w_v, size=rng.integers(0, 3))
        )
        data = RelaxationInput(
            vibron_frequency=w_v, phonon_cutoff=W_MAX, other_vibrons=others
        )
        channel = classify_relaxation(data)
        assert isinstance(channel, RelaxationChannel)
        counts[channel] += 1
        # the three-way rule re-stated independently
        if w_v <= 2.0 * W_MAX:
            assert channel is RelaxationChannel.TWO_PHONON
        elif any(w_v - w_j <= 2.0 * W_MAX for w_j in others):
            assert channel is RelaxationChannel.VIBRON_ASSISTED
        else:
            assert channel is RelaxationChannel.INTRAMOLECULAR
    assert all(v > 0 for v in counts.values())


def test_other_vibrons_must_sit_below_the_relaxing_mode():
    with pytest.raises(ValueError):
        RelaxationInput(
            vibron_frequency=TWO_PI * 5e12,
            phonon_cutoff=W_MAX,
            other_vibrons=(TWO_PI * 6e12,),
        )
    with pytest.raises(ValueError):
        RelaxationInput(
            vibron_frequency=TWO_PI * 5e12,
            phonon_cutoff=W_MAX,
            other_vibrons=(0.0,),
        )


def _density():
    return PhononSpectralDensity(
        coupling_weight=1e12, peak_frequency=TWO_PI * 1e12, cutoff_frequency=W_MAX
    )


def test_two_phonon_rate_against_dense_quadrature():
    density = _density()
    w_v = TWO_PI * 6e12
    temp = 80.0
    got = two_phonon_rate(w_v, density, coupling=2.0, temperature=temp)

    lo, hi = w_v - W_MAX, W_MAX
    grid = np.linspace(lo, hi, 200001)

    def stokes(w):
        return density.density(w) / w**2 * (bose_occupation(w, temp) + 1.0)

    expected = 4.0 * simpson(stokes(grid) * stokes(w_v - grid), x=grid)
    assert got == pytest.approx(expected, rel=1e-6)


def test_two_phonon_rate_zero_temperature_spontaneous_only():
    density = _density()
    w_v = TWO_PI * 6e12
    cold = two_phonon_rate(w_v, density, coupling=1.0)
    warm = two_phonon_rate(w_v, density, coupling=1.0, temperature=200.0)
    assert 0.0 < cold < warm


def test_two_phonon_rate_scales_with_coupling_squared():
    density = _density()
    w_v = TWO_PI * 6e12
    r1 = two_phonon_rate(w_v, density, coupling=1.0)
    r3 = two_phonon_rate(w_v, density, coupling=3.0)
    assert r3 == pytest.approx(9.0 * r1, rel=1e-12)


def test_two_phonon_rate_domain():
    density = _density()
    with pytest.raises(DomainError):
        two_phonon_rate(2.0 * W_MAX * 1.001, density, coupling=1.0)


def test_two_phonon_rate_boundary_is_zero():
    # at exactly twice the cutoff the energy-conserving window collapses
    assert two_phonon_rate(2.0 * W_MAX, _density(), coupling=1.0) == 0.0



def test_underflowing_two_phonon_rate_runs(tmp_path):
    # At T = 0 and far above the density peak the integral is about 1e-304;
    # its error estimate is rounding noise (subnormal with scipy's quad).
    config = json.loads((SCENARIO_DIR / "relaxation_classify.json").read_text())
    params = config["parameters"]
    params["vibron_frequency"]["value"] = 1.1286 * 6.19
    params["phonon_cutoff"]["value"] = 6.19
    params["rate_model"]["density"]["peak_frequency"]["value"] = 0.01
    params["rate_model"]["density"]["cutoff_frequency"]["value"] = 6.19
    params["rate_model"]["coupling"] = 1.0
    params["rate_model"]["temperature"]["value"] = 0.0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["channel"] == "two_phonon"
    assert 0.0 < result["two_phonon_rate"] <= 1e-290


def _wing_reference(density, w: float, temperature: float) -> tuple[float, float]:
    """(J(w)/w^2, n(w,T)) with math functions; J is 0 outside (0, cutoff]."""
    if not 0.0 < w <= density.cutoff_frequency:
        return 0.0, 0.0
    x = w / density.peak_frequency
    y = math.inf if temperature == 0.0 else HBAR * w / (BOLTZMANN * temperature)
    n = 0.0 if y > 700.0 else 1.0 / math.expm1(y)
    return density.coupling_weight * x**3 * math.exp(-x) / w**2, n


def _split_quad(f, lo, hi, scales):
    """scipy's quad on [lo, hi] split at the given points: at a Bose scale
    far below the interval one adaptive pass can miss it entirely."""
    edges = [lo, *sorted({p for p in scales if lo < p < hi}), hi]
    return math.fsum(
        quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0] for a, b in zip(edges, edges[1:])
    )


def _oracle_cases():
    """(density, temperature, vibron frequency): the shipped emission density
    at 0.01 K and at T = 0, a cutoff 500 x its peak at 0, 0.01 and 300 K,
    then a seeded draw over peak 1 GHz-30 THz, cutoff 1.0001-1000 x peak
    and T = 0 or 1e-6-1e5 K."""
    shipped = PhononSpectralDensity(TWO_PI * 1e11, TWO_PI * 0.5e12, TWO_PI * 5e12)
    wide = PhononSpectralDensity(1e12, TWO_PI * 0.01e12, TWO_PI * 5e12)
    cases = [
        (shipped, 0.01, 1.3 * shipped.cutoff_frequency),
        (shipped, 0.0, 0.7 * shipped.cutoff_frequency),
        (wide, 0.0, 1.5 * wide.cutoff_frequency),
        (wide, 0.01, 0.2 * wide.cutoff_frequency),
        (wide, 300.0, 1.9 * wide.cutoff_frequency),
    ]
    rng = np.random.default_rng(2024)
    for _ in range(40):
        peak = TWO_PI * 10.0 ** rng.uniform(9.0, math.log10(30e12))
        cutoff = peak * 10.0 ** rng.uniform(math.log10(1.0001), 3.0)
        temperature = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-6.0, 5.0)
        density = PhononSpectralDensity(1e12, peak, cutoff)
        cases.append((density, temperature, rng.uniform(0.05, 1.95) * cutoff))
    return cases


def test_phonon_integrals_match_a_split_quad_oracle():
    for density, temp, w_v in _oracle_cases():
        peak, cutoff = density.peak_frequency, density.cutoff_frequency
        kt = BOLTZMANN * temp / HBAR
        bose = [kt * 4.0**k for k in range(-3, 4)]  # k_B T / hbar and its neighbourhood

        def exponent_integrand(w):
            rho, n = _wing_reference(density, w, temp)
            return rho * (2.0 * n + 1.0)

        want = _split_quad(exponent_integrand, 0.0, cutoff, [peak, *bose])
        assert _phonon_exponent(density, temp) == pytest.approx(want, rel=1e-12, abs=0.0)

        def two_phonon_integrand(w):
            (rho1, n1), (rho2, n2) = (_wing_reference(density, x, temp) for x in (w, w_v - w))
            return rho1 * (n1 + 1.0) * rho2 * (n2 + 1.0)

        lo, hi = max(0.0, w_v - cutoff), min(w_v, cutoff)
        scales = [peak, w_v - peak, *bose, *(w_v - b for b in bose)]
        want = _split_quad(two_phonon_integrand, lo, hi, scales)
        got = two_phonon_rate(w_v, density, coupling=1.0, temperature=temp)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

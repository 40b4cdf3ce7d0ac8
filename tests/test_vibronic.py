import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from hostguest import vibronic
from hostguest.errors import DomainError, GridTooNarrow
from hostguest.units import BOLTZMANN, HBAR, FrequencyGrid, bose_occupation
from hostguest.vibronic import (
    PhononSpectralDensity,
    Spectrum,
    VibronicModel,
    VibronMode,
    debye_waller,
    emission_spectrum,
    franck_condon_progression,
    zpl_branching_ratio,
)
from hostguest.scenarios import load_config, run_scenario

TWO_PI = 2.0 * math.pi
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def _displaced_overlap_sq(huang_rhys: float, m: int) -> float:
    """|<m|0_displaced>|^2 by Gauss-Hermite quadrature, independent of the
    Poisson closed form. Dimensionless oscillator, displacement d = sqrt(2S)."""
    d = math.sqrt(2.0 * huang_rhys)
    nodes, weights = np.polynomial.hermite.hermgauss(120)
    # <m|0_d> = e^{-d^2/4}/(norm_m norm_0) * int H_m(u + d/2) e^{-u^2} du,
    # completing the square with u = x - d/2 so the Gauss-Hermite weight
    # absorbs the Gaussian exactly
    x = nodes + d / 2.0
    herm = np.polynomial.hermite.hermval(x, [0.0] * m + [1.0])
    norm_m = math.sqrt(math.sqrt(math.pi) * (2.0**m) * math.factorial(m))
    norm_0 = math.pi**0.25
    overlap = math.exp(-d * d / 4.0) / (norm_m * norm_0) * float(np.sum(weights * herm))
    return overlap * overlap


# --- Franck-Condon progression ------------------------------------------------


def test_fc_poisson_values():
    p = franck_condon_progression(0.5, 4)
    expected = [math.exp(-0.5) * 0.5**m / math.factorial(m) for m in range(5)]
    assert np.allclose(p, expected, rtol=1e-14)


def test_fc_matches_displaced_oscillator_overlap():
    for s in (0.1, 1.0, 3.0):
        p = franck_condon_progression(s, 8)
        for m in range(9):
            assert p[m] == pytest.approx(_displaced_overlap_sq(s, m), abs=1e-10)


def test_fc_normalization():
    for s in (0.1, 2.0, 5.0):
        assert franck_condon_progression(s, 40).sum() >= 1.0 - 1e-6


def test_fc_rejects_bad_input():
    with pytest.raises(DomainError):
        franck_condon_progression(-0.1, 5)
    with pytest.raises(DomainError):
        franck_condon_progression(1.0, -1)


# --- phonon spectral density ---------------------------------------------------


def _density(weight=1e12, peak=TWO_PI * 1e12, cutoff=TWO_PI * 10e12):
    return PhononSpectralDensity(
        coupling_weight=weight, peak_frequency=peak, cutoff_frequency=cutoff
    )


def test_density_shape_and_support():
    d = _density()
    assert d.density(0.0) == 0.0
    assert d.density(-1.0) == 0.0
    assert d.density(d.cutoff_frequency * 1.001) == 0.0
    w = d.peak_frequency
    assert d.density(w) == pytest.approx(1e12 * math.exp(-1.0), rel=1e-12)
    # J itself peaks at 3x the characteristic frequency for a cubic rise
    grid = np.linspace(1e9, d.cutoff_frequency, 20001)
    peak_at = grid[np.argmax(d.density(grid))]
    assert peak_at == pytest.approx(3.0 * w, rel=1e-3)


def test_density_far_off_the_support_is_zero_without_overflow():
    # exp(-w / peak) at w = -1e16 rad/s would overflow if taken before the mask.
    d = _density()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert d.density(-1e16) == 0.0
        assert np.array_equal(d.density(np.array([-1e300, -1e16, 1e16, 1e300])), np.zeros(4))
        assert d.one_phonon(-1e16, 4.0) == 0.0


def _one_phonon_reference(density, delta: float, temperature: float) -> float:
    """The per-point scalar formula with math functions: J(|d|)/d^2 times
    n + 1 (d > 0) or n (d < 0), zero at d = 0 and past the cutoff."""
    w = abs(delta)
    if w == 0.0 or w > density.cutoff_frequency:
        return 0.0
    x = w / density.peak_frequency
    j = density.coupling_weight * x**3 * math.exp(-x)
    y = math.inf if temperature == 0.0 else HBAR * w / (BOLTZMANN * temperature)
    n = 0.0 if y > 700.0 else 1.0 / math.expm1(y)
    return j / w**2 * (n + 1.0 if delta > 0.0 else n)


def test_one_phonon_matches_the_scalar_formula():
    d = _density()
    c = d.cutoff_frequency
    edges = [0.0, c, -c, 1.001 * c, -1.001 * c, 50.0 * c, -50.0 * c, 1e-3, -1e-3]
    deltas = np.concatenate([edges, np.linspace(-1.2 * c, 1.2 * c, 2401)])
    for temp in (0.0, 4.2, 300.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = d.one_phonon(deltas, temp)
            scalars = [d.one_phonon(float(x), temp) for x in deltas]
            for form in (np.float64, np.asarray):
                assert [d.one_phonon(form(x), temp) for x in deltas] == scalars
        want = np.array([_one_phonon_reference(d, float(x), temp) for x in deltas])
        assert all(type(s) is float for s in scalars)
        for values in (got, np.array(scalars)):
            assert np.all(np.abs(values - want) <= 1e-15 * want)
        assert got[0] == 0.0 and got[1] > 0.0 and got[3:7].tolist() == [0.0] * 4
    assert d.one_phonon(-c, 0.0) == 0.0  # no anti-Stokes branch at T = 0


def test_one_phonon_detailed_balance():
    d = _density()
    deltas = np.linspace(0.0, d.cutoff_frequency, 501)[1:]
    for temp in (4.2, 77.0, 300.0):
        stokes, anti = d.one_phonon(deltas, temp), d.one_phonon(-deltas, temp)
        boltzmann = np.exp(-HBAR * deltas / (BOLTZMANN * temp))
        assert np.allclose(anti, boltzmann * stokes, rtol=1e-12, atol=0.0)


def test_debye_waller_trivial_model_is_one():
    model = VibronicModel(zpl_frequency=TWO_PI * 466e12, radiative_rate=TWO_PI * 30e6)
    assert debye_waller(model) == 1.0
    assert zpl_branching_ratio(model) == 1.0


def test_debye_waller_single_mode_zero_temperature():
    mode = VibronMode(frequency=TWO_PI * 6e12, huang_rhys=0.1, relaxation_rate=0.0)
    model = VibronicModel(
        zpl_frequency=TWO_PI * 466e12,
        radiative_rate=TWO_PI * 30e6,
        vibron_modes=(mode,),
    )
    assert debye_waller(model) == pytest.approx(math.exp(-0.1), rel=1e-12)


def test_debye_waller_phonon_exponent_analytic():
    # integral of J/w^2 dw for the superohmic-exponential form has a closed
    # form at T = 0: (c/wp) * (1 - exp(-xc)(1+xc))
    c, wp = 2.4e12, TWO_PI * 1e12
    cutoff = 10.0 * wp
    xc = cutoff / wp
    model = VibronicModel(
        zpl_frequency=TWO_PI * 466e12,
        radiative_rate=TWO_PI * 30e6,
        phonon_density=PhononSpectralDensity(
            coupling_weight=c, peak_frequency=wp, cutoff_frequency=cutoff
        ),
    )
    phi = (c / wp) * (1.0 - math.exp(-xc) * (1.0 + xc))
    assert debye_waller(model) == pytest.approx(math.exp(-phi), rel=1e-9)


def test_debye_waller_thermal_occupation_factor():
    mode = VibronMode(frequency=TWO_PI * 2e12, huang_rhys=0.4, relaxation_rate=0.0)
    temp = 150.0
    model = VibronicModel(
        zpl_frequency=TWO_PI * 466e12,
        radiative_rate=TWO_PI * 30e6,
        vibron_modes=(mode,),
        temperature=temp,
    )
    nbar = bose_occupation(mode.frequency, temp)
    assert debye_waller(model) == pytest.approx(
        math.exp(-0.4 * (2.0 * nbar + 1.0)), rel=1e-12
    )


def test_debye_waller_decreases_with_temperature():
    mode = VibronMode(frequency=TWO_PI * 3e12, huang_rhys=0.2, relaxation_rate=0.0)
    density = _density(weight=5e11)
    alphas = []
    for t in np.linspace(0.0, 300.0, 7):
        model = VibronicModel(
            zpl_frequency=TWO_PI * 466e12,
            radiative_rate=TWO_PI * 30e6,
            vibron_modes=(mode,),
            phonon_density=density,
            temperature=float(t),
        )
        alphas.append(debye_waller(model))
    assert all(b < a for a, b in zip(alphas, alphas[1:]))


# --- emission spectrum ----------------------------------------------------------


def test_trivial_spectrum_is_single_lorentzian():
    gamma = TWO_PI * 30e6
    zpl = TWO_PI * 466e12
    model = VibronicModel(zpl_frequency=zpl, radiative_rate=gamma)
    grid = FrequencyGrid(start=zpl - 4000 * gamma, stop=zpl + 4000 * gamma, points=200001)
    spec = emission_spectrum(model, grid)
    spacing = grid.frequencies[1] - grid.frequencies[0]
    assert np.trapezoid(spec.intensity, spec.frequencies) == pytest.approx(1.0, abs=1e-9)
    k = int(np.argmax(spec.intensity))
    assert abs(spec.frequencies[k] - zpl) <= spacing
    # half maximum at +/- gamma/2, up to grid quantization of the crossing
    half = spec.intensity[k] / 2.0
    above = spec.frequencies[spec.intensity >= half]
    assert (above[-1] - above[0]) == pytest.approx(gamma, abs=2.5 * spacing)


def test_single_mode_weight_ratio():
    # one mode with S = 0.1: integrated ZPL to first-sideband ratio is
    # e^{-0.1} : 0.1 e^{-0.1}, i.e. 1 : S. Equal windows, equal linewidths,
    # so the Lorentzian tail clipping cancels in the ratio.
    s_hr = 0.1
    gamma = TWO_PI * 5e9
    zpl = TWO_PI * 466e12
    omega_v = TWO_PI * 6e12  # 1200 linewidths: ZPL tail leakage < 2e-4 of line 1
    mode = VibronMode(frequency=omega_v, huang_rhys=s_hr, relaxation_rate=0.0)
    model = VibronicModel(
        zpl_frequency=zpl,
        radiative_rate=gamma,
        vibron_modes=(mode,),
    )
    grid = FrequencyGrid(
        start=zpl - 15.0 * omega_v, stop=zpl + 2000.0 * gamma, points=500001
    )
    spec = emission_spectrum(model, grid)
    freqs = spec.frequencies

    def window_weight(center, half_width):
        mask = np.abs(freqs - center) <= half_width
        return float(np.trapezoid(spec.intensity[mask], freqs[mask]))

    w = 50.0 * gamma
    ratio = window_weight(zpl - omega_v, w) / window_weight(zpl, w)
    assert ratio == pytest.approx(s_hr, rel=2e-3)


@pytest.mark.parametrize("s_hr, tolerance", [(36.0, 1e-11), (120.0, 1e-10)])
def test_strong_progression_keeps_its_sideband(s_hr, tolerance):
    # Every quantum above the floor is kept, so the weights sum to 1 - P(0)
    # up to the sub-floor lines dropped (and, at S = 120, the tail beyond the
    # 200-quanta cap); S^m and m! would overflow at S = 120.
    mode = VibronMode(frequency=TWO_PI * 6e12, huang_rhys=s_hr, relaxation_rate=0.0)
    model = VibronicModel(
        zpl_frequency=TWO_PI * 466e12, radiative_rate=TWO_PI * 5e9, vibron_modes=(mode,)
    )
    total = sum(w for _, w, _ in vibronic._vibron_lines(model))
    assert abs(total - (1.0 - math.exp(-s_hr))) <= tolerance


@pytest.mark.parametrize("s_hr", [124.0, 150.0, 1000.0, 1e300])
def test_progression_beyond_the_quanta_cap_raises(s_hr):
    # The kept weights miss 1.4e-10 at S = 124; above S = 745, exp(-S)
    # underflows and no quantum is kept at all.
    mode = VibronMode(frequency=TWO_PI * 6e12, huang_rhys=s_hr, relaxation_rate=0.0)
    model = VibronicModel(
        zpl_frequency=TWO_PI * 466e12, radiative_rate=TWO_PI * 5e9, vibron_modes=(mode,)
    )
    message = f"Huang-Rhys factor {s_hr!r} needs more than 200 vibron quanta"
    with pytest.raises(DomainError, match="^" + re.escape(message)):
        vibronic._vibron_lines(model)


def test_phonon_wing_peaks_at_density_peak():
    wp = TWO_PI * 1.75e12
    zpl = TWO_PI * 466e12
    gamma = TWO_PI * 50e6
    model = VibronicModel(
        zpl_frequency=zpl,
        radiative_rate=gamma,
        phonon_density=PhononSpectralDensity(
            coupling_weight=0.5 * wp, peak_frequency=wp, cutoff_frequency=8.0 * wp
        ),
    )
    grid = FrequencyGrid(start=zpl - 10.0 * wp, stop=zpl + 200.0 * gamma, points=400001)
    spec = emission_spectrum(model, grid)
    freqs = spec.frequencies
    # look only at the red wing, away from the ZPL core
    mask = freqs < zpl - 0.05 * wp
    peak = freqs[mask][np.argmax(spec.intensity[mask])]
    assert zpl - peak == pytest.approx(wp, rel=0.01)


@pytest.mark.parametrize("temperature", [0.0, 4.0, 4.2, 300.0])
def test_spectrum_records_the_debye_waller_weight(temperature):
    wp = TWO_PI * 0.5e12
    zpl = TWO_PI * 466e12
    model = VibronicModel(
        zpl_frequency=zpl,
        radiative_rate=TWO_PI * 30e6,
        vibron_modes=(
            VibronMode(frequency=TWO_PI * 10e12, huang_rhys=0.3, relaxation_rate=TWO_PI * 0.2e12),
        ),
        phonon_density=PhononSpectralDensity(
            coupling_weight=wp, peak_frequency=wp, cutoff_frequency=10.0 * wp
        ),
        temperature=temperature,
    )
    grid = FrequencyGrid(start=zpl - TWO_PI * 16e12, stop=zpl + TWO_PI * 4e12, points=4001)
    assert emission_spectrum(model, grid).zpl_weight == debye_waller(model)


def test_emission_spectrum_run_integrates_the_phonon_exponent_once(monkeypatch, tmp_path):
    calls = []
    original = vibronic._phonon_exponent

    def counted(density, temperature):
        calls.append(temperature)
        return original(density, temperature)

    monkeypatch.setattr(vibronic, "_phonon_exponent", counted)
    config = load_config(SCENARIO_DIR / "emission_spectrum.json")
    run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / "out")
    assert calls == [4.0]


def test_emission_spectrum_run_makes_one_line_sum(monkeypatch, tmp_path):
    calls = []
    line_sum = vibronic.lorentzian_sum

    def counted(freqs, centers, fwhms, weights):
        calls.append(len(centers))
        return line_sum(freqs, centers, fwhms, weights)

    monkeypatch.setattr(vibronic, "lorentzian_sum", counted)
    config = load_config(SCENARIO_DIR / "emission_spectrum.json")
    run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / "out")
    # the ZPL and the progression of the one vibron mode
    assert len(calls) == 1 and calls[0] > 2


def test_grid_too_narrow_raises():
    mode = VibronMode(frequency=TWO_PI * 6e12, huang_rhys=0.1, relaxation_rate=0.0)
    zpl = TWO_PI * 466e12
    model = VibronicModel(
        zpl_frequency=zpl, radiative_rate=TWO_PI * 30e6, vibron_modes=(mode,)
    )
    grid = FrequencyGrid(start=zpl - TWO_PI * 2e12, stop=zpl + TWO_PI * 1e9, points=101)
    with pytest.raises(GridTooNarrow):
        emission_spectrum(model, grid)


def test_spectrum_constructor_guards():
    grid = FrequencyGrid(start=0.0, stop=1.0, points=3)
    with pytest.raises(ValueError):
        Spectrum(grid, np.array([1.0, -0.1, 1.0]))
    with pytest.raises(ValueError):
        Spectrum(grid, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Spectrum(grid, np.array([5.0, 5.0, 5.0]))  # integrates to 5
    Spectrum(grid, np.array([1.0, 1.0, 1.0]))

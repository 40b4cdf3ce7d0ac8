import math
import warnings

import numpy as np
import pytest
import scipy.constants as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from hostguest.errors import DomainError, IncompatibleUnits
from hostguest.units import (
    BOLTZMANN,
    HBAR,
    FrequencyGrid,
    Quantity,
    Unit,
    bose_occupation,
    convert,
    lorentzian_sum,
    thermal_frequency,
    where,
)

FREQ_UNITS = [Unit.EV, Unit.THZ, Unit.GHZ, Unit.MHZ, Unit.KHZ, Unit.RAD_PER_S]


def test_ev_to_thz_anchor():
    # E/h for 1 eV, checked against scipy's CODATA table. The hbar route
    # differs from the h route only through rounding of hbar itself.
    got = convert(Quantity(1.0, Unit.EV), Unit.THZ).value
    assert got == pytest.approx(sc.e / sc.h / 1e12, rel=1e-8)
    assert got == pytest.approx(241.7990, abs=5e-4)


def test_thz_to_ev_anchor():
    got = convert(Quantity(1.0, Unit.THZ), Unit.EV).value
    assert got == pytest.approx(sc.h * 1e12 / sc.e, rel=1e-8)


def test_rad_per_s_is_identity_scale():
    q = Quantity(7.25e9, Unit.RAD_PER_S)
    assert convert(q, Unit.RAD_PER_S).value == 7.25e9
    assert q.rad_per_s == 7.25e9


def test_ghz_factor_is_2pi():
    assert convert(Quantity(1.0, Unit.GHZ), Unit.RAD_PER_S).value == pytest.approx(
        2.0 * math.pi * 1e9, rel=1e-15
    )


def test_round_trip_all_frequency_pairs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = rng.choice(len(FREQ_UNITS), size=2)
        value = float(rng.uniform(1e-3, 1e3))
        q = Quantity(value, FREQ_UNITS[a])
        back = convert(convert(q, FREQ_UNITS[b]), FREQ_UNITS[a]).value
        assert abs(back - value) <= 1e-12 * abs(value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    value=st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
    src=st.sampled_from(FREQ_UNITS),
    dst=st.sampled_from(FREQ_UNITS),
)
def test_round_trip_property(value, src, dst):
    back = convert(convert(Quantity(value, src), dst), src).value
    assert abs(back - value) <= 1e-12 * abs(value)


@pytest.mark.parametrize("unit", [Unit.KELVIN, Unit.TESLA, Unit.SECOND, Unit.DIMENSIONLESS])
def test_non_frequency_units_identity_only(unit):
    q = Quantity(3.5, unit)
    assert convert(q, unit).value == 3.5
    with pytest.raises(IncompatibleUnits):
        convert(q, Unit.GHZ)
    with pytest.raises(IncompatibleUnits):
        convert(Quantity(1.0, Unit.EV), unit)


def test_kelvin_to_tesla_rejected():
    with pytest.raises(IncompatibleUnits):
        convert(Quantity(300.0, Unit.KELVIN), Unit.TESLA)


def test_quantity_rejects_nonfinite():
    with pytest.raises(DomainError):
        Quantity(math.nan, Unit.GHZ)
    with pytest.raises(DomainError):
        Quantity(math.inf, Unit.EV)


def test_thermal_frequency_300k():
    assert thermal_frequency(300.0) == pytest.approx(sc.k * 300.0 / sc.hbar, rel=1e-8)
    assert thermal_frequency(0.0) == 0.0
    with pytest.raises(DomainError):
        thermal_frequency(-1.0)


def test_bose_occupation_reference_points():
    # 1 THz vibration at room temperature is classical-ish, 30 THz is frozen.
    w1 = 2.0 * math.pi * 1e12
    w30 = 2.0 * math.pi * 30e12
    assert bose_occupation(w1, 300.0) == pytest.approx(5.764311285022169, rel=1e-7)
    assert bose_occupation(w30, 300.0) == pytest.approx(0.00830437336423946, rel=1e-7)
    assert bose_occupation(w30, 300.0) < 0.01


def test_bose_occupation_zero_temperature_is_exact_zero():
    assert bose_occupation(2.0 * math.pi * 1e12, 0.0) == 0.0


def test_bose_occupation_extreme_argument_underflows_to_zero():
    # hbar*w/kT > 700 would overflow expm1; must clamp to zero occupation
    assert bose_occupation(2.0 * math.pi * 1e15, 1e-3) == 0.0


def test_bose_occupation_domain_errors():
    with pytest.raises(DomainError):
        bose_occupation(0.0, 300.0)
    with pytest.raises(DomainError):
        bose_occupation(-1e12, 300.0)
    with pytest.raises(DomainError):
        bose_occupation(1e12, -0.1)


def _bose_reference(omega: float, temperature: float) -> float:
    """The scalar formula with math.expm1, independent of numpy."""
    if temperature == 0.0 or HBAR * omega / (BOLTZMANN * temperature) > 700.0:
        return 0.0
    return 1.0 / math.expm1(HBAR * omega / (BOLTZMANN * temperature))


def test_bose_occupation_array_agrees_with_scalar_calls():
    omegas = 2.0 * math.pi * np.array([1e6, 1e9, 1e12, 30e12, 1e15, 1e18])
    for temp in (0.0, 1e-3, 4.2, 300.0, 1e5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bose_occupation(omegas, temp)
        assert isinstance(got, np.ndarray) and got.shape == omegas.shape
        scalars = [bose_occupation(float(w), temp) for w in omegas]
        for form in (np.float64, np.asarray):  # quad's nodes and 0-d arrays
            assert [bose_occupation(form(w), temp) for w in omegas] == scalars
        assert all(type(n) is float for n in scalars)
        want = np.array([_bose_reference(float(w), temp) for w in omegas])
        for values in (got, np.array(scalars)):
            assert np.all(np.abs(values - want) <= 1e-15 * want)


def test_bose_occupation_array_rejects_any_non_positive_entry():
    for omegas in ([1e12, 0.0], [-1e12, 1e12], [1e12, math.nan], [[1e12], [-1.0]]):
        with pytest.raises(DomainError, match="omega must be positive"):
            bose_occupation(np.array(omegas), 300.0)
    with pytest.raises(DomainError):
        bose_occupation(np.array([1e12, 2e12]), -0.1)


def test_bose_occupation_array_zero_temperature_is_exact_zero():
    n = bose_occupation(np.array([1e3, 1e12, 1e15]), 0.0)
    assert n.tolist() == [0.0, 0.0, 0.0]


def test_where_returns_the_chosen_operand_for_a_scalar_condition():
    a, b = np.float64(1.5), 2.5
    assert where(np.float64(1.0) > 0.0, a, b) is a
    assert where(False, a, b) is b
    got = where(np.array([True, False]), np.array([1.0, 2.0]), 0.0)
    assert got.tolist() == [1.0, 0.0]


def test_bose_occupation_classical_limit():
    # kT/hbar*w >> 1: n approaches kT/(hbar w) - 1/2
    w = 2.0 * math.pi * 1e9
    n = bose_occupation(w, 300.0)
    x = HBAR * w / (BOLTZMANN * 300.0)
    assert n == pytest.approx(1.0 / x - 0.5, rel=1e-3)


def test_frequency_grid_basics():
    grid = FrequencyGrid(start=0.0, stop=10.0, points=11)
    assert grid.spacing == pytest.approx(1.0)
    assert np.allclose(grid.frequencies, np.arange(11.0))


def test_frequency_grid_validation():
    with pytest.raises((ValueError, DomainError)):
        FrequencyGrid(start=1.0, stop=1.0, points=5)
    with pytest.raises((ValueError, DomainError)):
        FrequencyGrid(start=2.0, stop=1.0, points=5)
    with pytest.raises((ValueError, DomainError)):
        FrequencyGrid(start=0.0, stop=1.0, points=1)
    with pytest.raises((ValueError, DomainError)):
        FrequencyGrid(start=0.0, stop=math.inf, points=5)


def test_lorentzian_sum_adds_lines_in_order_with_their_own_widths():
    rng = np.random.default_rng(8)
    freqs = np.linspace(-50.0, 50.0, 2001)
    centers = rng.uniform(-40.0, 40.0, 30).tolist()
    fwhms = rng.uniform(0.1, 5.0, 30).tolist()
    weights = rng.uniform(0.0, 2.0, 30).tolist()
    expected = np.zeros_like(freqs)
    for center, fwhm, weight in zip(centers, fwhms, weights):
        half = 0.5 * fwhm
        expected += weight * (half / math.pi) / ((freqs - center) ** 2 + half**2)
    assert np.array_equal(lorentzian_sum(freqs, centers, fwhms, weights), expected)


@pytest.mark.parametrize(
    "center, fwhm, weight", [(0.0, 1.0, 1.0), (3.0, 0.2, 0.25), (-7.5, 4.0, 3.0)]
)
def test_each_lorentzian_line_integrates_to_its_weight(center, fwhm, weight):
    # +-2000 widths around the line; the two tails beyond hold
    # (2/pi) atan(1/4000) = 1.6e-4 of the weight.
    freqs = np.linspace(center - 2000.0 * fwhm, center + 2000.0 * fwhm, 400_001)
    line = lorentzian_sum(freqs, [center], [fwhm], [weight])
    area = float(np.trapezoid(line, freqs))
    assert area == pytest.approx(weight * (2.0 / math.pi) * math.atan(4000.0), rel=1e-9)
    assert area == pytest.approx(weight, rel=2e-4)

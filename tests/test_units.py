import math
import warnings

import numpy as np
import pytest
import scipy.constants as sc
import scipy.linalg

from hostguest.errors import DomainError
from hostguest.units import (
    ANGULAR_UNITS,
    BOLTZMANN,
    HBAR,
    FrequencyGrid,
    TWO_PI,
    bose_occupation,
    expm,
    lorentzian_sum,
)

from line_sum_oracle import assert_matches_ordered_sum, ordered_line_sum


def test_ev_to_thz_anchor():
    # E/h for 1 eV, checked against scipy's CODATA table. The hbar route
    # differs from the h route only through rounding of hbar itself.
    got = ANGULAR_UNITS["eV"] / ANGULAR_UNITS["THz"]
    assert got == pytest.approx(sc.e / sc.h / 1e12, rel=1e-8)
    assert got == pytest.approx(241.7990, abs=5e-4)


def test_thz_to_ev_anchor():
    got = ANGULAR_UNITS["THz"] / ANGULAR_UNITS["eV"]
    assert got == pytest.approx(sc.h * 1e12 / sc.e, rel=1e-8)


def test_rad_per_s_is_identity_scale():
    assert ANGULAR_UNITS["rad/s"] == 1.0


def test_ghz_factor_is_2pi():
    assert ANGULAR_UNITS["GHz"] == pytest.approx(2.0 * math.pi * 1e9, rel=1e-15)


def test_star_import_resolves_every_exported_name():
    import hostguest

    namespace: dict = {}
    exec("from hostguest import *", namespace)
    assert set(hostguest.__all__) <= namespace.keys()


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
        for form in (np.float64, np.asarray):  # numpy floats and 0-d arrays
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


def test_bose_occupation_classical_limit():
    # kT/hbar*w >> 1: n approaches kT/(hbar w) - 1/2
    w = 2.0 * math.pi * 1e9
    n = bose_occupation(w, 300.0)
    x = HBAR * w / (BOLTZMANN * 300.0)
    assert n == pytest.approx(1.0 / x - 0.5, rel=1e-3)


def test_frequency_grid_basics():
    grid = FrequencyGrid(start=0.0, stop=10.0, points=11)
    assert np.diff(grid.frequencies) == pytest.approx(np.ones(10))
    assert np.allclose(grid.frequencies, np.arange(11.0))


def test_frequency_grid_points_are_built_once_and_read_only():
    grid = FrequencyGrid(start=0.0, stop=10.0, points=11)
    assert grid.frequencies is grid.frequencies
    assert not grid.frequencies.flags.writeable
    with pytest.raises(ValueError):
        grid.frequencies[0] = 1.0


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
    assert_matches_ordered_sum(freqs, centers, fwhms, weights)


@pytest.mark.parametrize("seed", range(4))
def test_lorentzian_sum_of_clustered_lines_matches_the_ordered_sum(seed, multipole_lines):
    # Clusters of 10 Hz to 10 MHz spread, FWHMs log-uniform in 1e-3 Hz to 5 MHz:
    # boxes of very unequal load, lines far narrower than the grid spacing and
    # lines wider than their box.
    rng = np.random.default_rng(seed)
    clusters = rng.uniform(0.0, TWO_PI * 2e9, 6)
    centers = np.concatenate([k + rng.normal(0.0, 10 ** rng.uniform(1, 7), 1500) for k in clusters])
    fwhms = TWO_PI * 10 ** rng.uniform(-3.0, math.log10(5e6), centers.size)
    weights = rng.uniform(0.0, 1.0, centers.size)
    freqs = np.linspace(TWO_PI * 0.1e9, TWO_PI * 2e9, 1201)
    assert_matches_ordered_sum(freqs, centers, fwhms, weights)
    assert multipole_lines


@pytest.mark.parametrize("seed", range(3))
def test_lorentzian_sum_of_emission_lines_at_optical_offsets_matches_the_ordered_sum(
    seed, multipole_lines
):
    # A zero-phonon line near 466 THz and the two-mode vibronic lines
    # m1 w1 + m2 w2 below it, m1, m2 < 40, each broadened by its quanta, on a
    # 4001-point optical grid: box centres near 3e15 rad/s.
    rng = np.random.default_rng(seed)
    zpl, (m1, m2) = TWO_PI * 466e12, np.divmod(np.arange(1600.0), 40.0)
    w1, w2 = TWO_PI * rng.uniform(1e12, 8e12, 2)
    centers = zpl - (m1 * w1 + m2 * w2)
    fwhms = TWO_PI * (30e6 + (m1 + m2) * rng.uniform(1e9, 1e11))
    weights = np.exp(-m1 / rng.uniform(2.0, 8.0) - m2 / rng.uniform(2.0, 8.0))
    freqs = np.linspace(zpl - 1.2 * 39.0 * (w1 + w2), zpl + TWO_PI * 1e12, 4001)
    assert_matches_ordered_sum(freqs, centers, fwhms, weights)
    assert multipole_lines


def test_lorentzian_sum_keeps_the_shape_and_order_of_the_targets(multipole_lines):
    # Unsorted 2-d targets; the last 40 lines are wider than their box.
    rng = np.random.default_rng(5)
    centers, weights = rng.uniform(0, 100, 1000), rng.uniform(0, 1, 1000)
    fwhms = np.concatenate([rng.uniform(0.5, 2, 960), rng.uniform(30, 60, 40)])
    freqs = rng.permutation(np.linspace(0.0, 100.0, 1200)).reshape(30, 40)
    flat = lorentzian_sum(freqs.ravel(), centers, fwhms, weights)
    assert np.array_equal(lorentzian_sum(freqs, centers, fwhms, weights), flat.reshape(30, 40))
    assert_matches_ordered_sum(freqs.ravel(), centers, fwhms, weights, response=flat)
    assert multipole_lines == [960, 960]


def test_lorentzian_sum_expands_lines_as_wide_as_the_balanced_box(multipole_lines):
    # 20,000 lines spread over [0, 1000] and 2,001 targets: balancing direct
    # against expansion work for evenly spread lines gave 45 boxes of
    # half-width 1000 / 90, and lines that wide were all summed directly.
    # Boxes no narrower than the lines expand every one of them.
    rng = np.random.default_rng(11)
    centers, weights = rng.uniform(0.0, 1000.0, 20_000), rng.uniform(0.0, 1.0, 20_000)
    fwhms = np.full(20_000, 2.0 * 1000.0 / 90.0)
    freqs = np.linspace(0.0, 1000.0, 2001)
    assert_matches_ordered_sum(freqs, centers, fwhms, weights)
    assert multipole_lines == [20_000]


def test_lorentzian_sum_of_a_few_lines_is_the_ordered_sum(multipole_lines):
    # Every target is near every box here, so all lines are summed directly,
    # in order, in one block.
    freqs = np.linspace(-50.0, 50.0, 1001)
    centers, fwhms, weights = [-30.0, 10.0, 40.0], [1.0, 2.0, 0.5], [1.0, 0.25, 2.0]
    expected = ordered_line_sum(freqs, centers, fwhms, weights)
    assert np.array_equal(lorentzian_sum(freqs, centers, fwhms, weights), expected)
    assert not multipole_lines


@pytest.mark.parametrize("fwhm, center", [(1e300, 1.0), (1.0, 1e300), (3e154, 0.0)])
def test_lorentzian_sum_raises_domain_error_for_unsquarable_lines(fwhm, center):
    with pytest.raises(DomainError, match="overflows its square"):
        lorentzian_sum(np.linspace(0.0, 1.0, 5), [center], [fwhm], [1.0])


def test_lorentzian_sum_raises_domain_error_for_a_half_width_whose_square_underflows():
    freqs = np.linspace(-1.0, 1.0, 5)  # a target on the centre
    for fwhm, half in ((1e-300, "5.000e-301"), (2e-162, "1.000e-162")):
        with pytest.raises(DomainError, match=f"^Lorentzian half-width {half} underflows its square$"):
            lorentzian_sum(freqs, [0.0], [fwhm], [1.0])
    # A subnormal square is not 0: the peak 1 / (pi h) is summed without a
    # warning, to the few digits that the square keeps.
    peak = lorentzian_sum(freqs, [0.0], [1e-160], [1.0])[2]
    assert peak == pytest.approx(1.0 / (math.pi * 5e-161), rel=1e-4)


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


def _with_norm(a, norm):
    """The matrix a rescaled to the given 1-norm; a zero matrix stays zero."""
    scale = np.abs(a).sum(axis=0).max()
    return a * (norm / scale) if scale else a


def _dense(rng, n, norm):
    return _with_norm(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), norm)


def _trace_generator(rng, n, norm):
    """A random complex matrix with a zero first row whose other rows damp:
    the rest of its spectrum has real part at most minus the rest's 1-norm.
    This is the shape of a Liouvillian in trace coordinates."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rest = a[1:, 1:]
    if n > 1:
        shift = np.linalg.eigvals(rest).real.max() + np.abs(rest).sum(axis=0).max()
        rest -= shift * np.eye(n - 1)
    a[0] = 0.0
    return _with_norm(a, norm)


def _assert_matches_scipy(stack):
    got = expm(np.array(stack))
    for a, g in zip(stack, got):
        want = scipy.linalg.expm(a)
        assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", range(1, 26))
def test_expm_matches_scipy_on_random_stacks(n):
    # Dense random matrices up to 1-norm 10 only: a dense matrix with an
    # eigenvalue near 0 has an exponential conditioned like its norm, so two
    # backward-stable algorithms may differ by about 1e-16 times the norm.
    # Trace-coordinate generators stay well-conditioned up to 1-norm 1e12,
    # and their zero first row gives exactly e_0 as the exponential's first
    # row however many squarings are taken.
    rng = np.random.default_rng(n)
    _assert_matches_scipy([_dense(rng, n, 10.0**k) for k in range(-3, 2)])
    stack = [_trace_generator(rng, n, 10.0**k) for k in range(-3, 13)]
    _assert_matches_scipy(stack)
    first_rows = expm(np.array(stack))[:, 0, :]
    assert np.array_equal(first_rows, np.broadcast_to(np.eye(n)[0], first_rows.shape))


def test_expm_of_a_stack_mixing_small_and_large_norms():
    # Each matrix takes its own number of squarings, from 0 to 38.
    rng = np.random.default_rng(26)
    _assert_matches_scipy(
        [
            _trace_generator(rng, 6, 1e12),
            _dense(rng, 6, 1e-3),
            np.zeros((6, 6)),
            _trace_generator(rng, 6, 1e6),
            _dense(rng, 6, 10.0),
            _trace_generator(rng, 6, 1.0),
        ]
    )


def test_expm_of_zero_is_the_identity():
    assert np.array_equal(expm(np.zeros((3, 5, 5))), np.broadcast_to(np.eye(5), (3, 5, 5)))
    assert np.array_equal(expm(np.zeros((4, 4), dtype=complex)), np.eye(4))

"""The ordered direct Lorentzian line sum, kept as the oracle of
``units.lorentzian_sum``, and the gate the fast sum must pass against it."""

import math
import warnings

import numpy as np

from hostguest.units import lorentzian_sum

GATE = 1e-12  # max |fast - ordered| over max(ordered)


def ordered_line_sum(freqs, centers, fwhms, weights) -> np.ndarray:
    """One line at a time, in the given order, over the whole grid."""
    out = np.zeros_like(freqs)
    for center, fwhm, weight in zip(centers, fwhms, weights):
        half = 0.5 * float(fwhm)
        out += float(weight) * (half / math.pi) / ((freqs - float(center)) ** 2 + half**2)
    return out


def assert_matches_ordered_sum(freqs, centers, fwhms, weights, response=None):
    """The gate: no warning, a non-negative response, and max |delta| <=
    GATE * max(response) against the ordered sum. ``response`` is the fast
    sum as a caller computed it; by default it is computed here."""
    if response is None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            response = lorentzian_sum(freqs, centers, fwhms, weights)
    expected = ordered_line_sum(freqs, centers, fwhms, weights)
    assert np.all(response >= 0.0)
    assert np.max(np.abs(response - expected)) <= GATE * np.max(expected)

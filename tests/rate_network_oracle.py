"""Exact stationary populations of a rate network by elimination in
rationals, kept as the oracle of ``dynamics.steady_populations`` and
``dynamics.odmr_contrast``. Every float rate is a rational, so nothing here
rounds."""

from fractions import Fraction

from hostguest.levels import RADIATIVE_CLASSES, classify_transition


def exact_populations(labels, rates) -> list[Fraction]:
    """Stationary populations of a network with one closed class: the
    balance equations, the first replaced by the normalization, solved by
    Gauss-Jordan elimination."""
    n = len(labels)
    index = {k: i for i, k in enumerate(labels)}
    rows = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for (src, dst), rate in rates.items():
        rows[index[dst]][index[src]] += Fraction(rate)
        rows[index[src]][index[src]] -= Fraction(rate)
    rows[0] = [Fraction(1)] * (n + 1)  # sum of populations = 1
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n] for row in rows]


def _fluorescence(labels, rates, emissive_flags) -> Fraction:
    p = dict(zip(labels, exact_populations(labels, rates)))
    return sum(
        p[src] * Fraction(rate)
        for (src, dst), rate in rates.items()
        if emissive_flags.get(src)
        and classify_transition(src, dst, radiative=True) in RADIATIVE_CLASSES
    )


def exact_odmr_contrast(network, mw_pair, mw_mixing_rate) -> Fraction:
    """(F_on - F_off) / F_off of ``dynamics.odmr_contrast``, exactly."""
    a, b = network.microwave_targets(mw_pair)
    rates = {pair: Fraction(rate) for pair, rate in network.rates.items()}
    off = _fluorescence(network.state_labels, rates, network.emissive_flags)
    for pair in ((a, b), (b, a)):
        rates[pair] = rates.get(pair, Fraction(0)) + Fraction(mw_mixing_rate)
    on = _fluorescence(network.state_labels, rates, network.emissive_flags)
    return (on - off) / off

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hostguest.levels import (
    KET_PATTERN,
    RADIATIVE_CLASSES,
    SPIN_PATTERN,
    S0,
    S1,
    T1,
    LevelKet,
    Manifold,
    TransitionClass,
    classify_transition,
    format_ket,
    parse_ket,
)


def ket(manifold, sublevel=None, v=(), p=(), n=()):
    return LevelKet(manifold=manifold, sublevel=sublevel, vibrons=v, phonons=p, nuclei=n)


# --- manifolds ---------------------------------------------------------------


def test_manifold_kind_marks_triplets():
    assert T1.is_triplet and not S1.is_triplet


def test_sublevel_only_on_triplets():
    ket(T1, "x")
    with pytest.raises(ValueError):
        ket(S1, "x")
    with pytest.raises(ValueError):
        ket(T1)  # triplet requires a sublevel tag


# --- occupation handling -----------------------------------------------------


def test_zero_occupations_are_dropped():
    a = ket(S1, v=[0, 1])          # dense list: mode0 -> 0, mode1 -> 1
    b = ket(S1, v={1: 1})          # sparse map
    c = ket(S1, v=[(1, 1)])        # pair form
    assert a == b == c
    assert a.total_quanta == 1


def test_occupation_rejects_negative_and_duplicates():
    with pytest.raises(ValueError):
        ket(S1, v={0: -1})
    with pytest.raises(ValueError):
        ket(S1, v=[(0, 1), (0, 2)])


def test_vibrationless():
    assert ket(S1).vibrationless
    assert not ket(S1, v={0: 1}).vibrationless
    assert not ket(S1, p={0: 2}).vibrationless


def test_nuclei_fraction_validation():
    ket(S0, n=[(Fraction(1, 2), Fraction(1, 2))])
    ket(S0, n=[("1/2", "-1/2")])
    ket(S0, n=[(1, 0)])
    with pytest.raises(ValueError):
        ket(S0, n=[(Fraction(1, 2), Fraction(3, 2))])  # |m| > I
    with pytest.raises(ValueError):
        ket(S0, n=[(Fraction(1, 2), 0)])  # I - m must be integral
    with pytest.raises(ValueError):
        ket(S0, n=[(Fraction(1, 3), Fraction(1, 3))])  # not half-integer


# --- literal syntax ----------------------------------------------------------


def test_literal_round_trip_reference():
    text = "S1;v=[0,1];p=[];n=[(1/2,+1/2)]"
    assert format_ket(parse_ket(text)) == text


def test_literal_round_trip_triplet():
    text = "T1,x;v=[];p=[];n=[]"
    assert format_ket(parse_ket(text)) == text


def test_parse_rejects_malformed():
    for bad in (
        "S1;v=[];p=[]",                      # missing field
        "Q1;v=[];p=[];n=[]",                 # unknown manifold kind
        "S1,x;v=[];p=[];n=[]",               # sublevel on a singlet
        "T1;v=[];p=[];n=[]",                 # triplet without sublevel
        "S1;v=[-1];p=[];n=[]",               # negative occupation
        "S1;v=[];p=[];n=[(1/2,3/2)]",        # m out of range
        "S1;v=[];p=[];n=[(1/2)]",            # malformed nucleus
        "",
    ):
        with pytest.raises(ValueError):
            parse_ket(bad)


@pytest.mark.parametrize(
    "bad",
    [
        "S1;v=[ 1];p=[];n=[]",                  # space in a list
        "S1;v=[+1];p=[];n=[]",                  # signed occupation
        "S1;v=[\u0661];p=[];n=[]",              # non-ASCII digit
        "S01;v=[];p=[];n=[]",                   # leading zero
        "S1;v=[0];p=[];n=[]",                   # dense list ends in zero
        "S1;v=[1,0];p=[];n=[]",
        "S1;v=[];p=[];n=[(1/2,1/2)]",           # unsigned projection
        "S1;v=[];p=[];n=[(1,-0)]",              # zero is written +0
        "S1;v=[];p=[];n=[(2/2,+1)]",            # unreduced fraction
        "S1;v=[];p=[];n=[(1/2,+1/2),]",         # trailing comma
        "S1;v=[];p=[];n=[]\n",                  # trailing newline
    ],
)
def test_parse_rejects_non_canonical(bad):
    # format_ket prints none of these, so parse_ket accepts none of them.
    assert re.fullmatch(KET_PATTERN, bad) is None
    with pytest.raises(ValueError):
        parse_ket(bad)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=st.from_regex(KET_PATTERN, fullmatch=True))
def test_every_literal_the_pattern_admits_round_trips(text):
    # A projection beyond its spin, or off the spin's integer ladder, fits
    # the pattern; the ket rejects it.
    try:
        k = parse_ket(text)
    except ValueError as exc:
        assert "projection" in str(exc)
    else:
        assert format_ket(k) == text


def test_patterns_are_ecma_262_and_anchored():
    # The same text is the JSON-schema "pattern" of ket and spin fields.
    for pattern in (KET_PATTERN, SPIN_PATTERN):
        assert pattern.startswith("^") and pattern.endswith("$")
        for construct in ("\\d", "(?P", "\\A", "\\Z", "(?<"):
            assert construct not in pattern


def test_spin_pattern_is_the_positive_half_integers():
    for twice in range(1, 40):
        assert re.fullmatch(SPIN_PATTERN, str(Fraction(twice, 2)))
    for bad in ("0", "0.5", "3/4", "2/4", "2/2", "01", "+1/2", "-1/2", " 1/2", "abc", "1/2\n"):
        assert re.fullmatch(SPIN_PATTERN, bad) is None


_manifolds = st.sampled_from([S0, S1, T1, Manifold("S", 2), Manifold("T", 3)])
_occ = st.lists(st.integers(0, 3), max_size=3)
_spin_half = st.sampled_from(
    [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2)), (1, -1), (1, 0)]
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    manifold=_manifolds,
    sub=st.sampled_from(["x", "y", "z"]),
    v=_occ,
    p=_occ,
    n=st.lists(_spin_half, max_size=2),
)
def test_literal_round_trip_property(manifold, sub, v, p, n):
    k = ket(manifold, sub if manifold.is_triplet else None, v=v, p=p, n=n)
    text = format_ket(k)
    assert re.fullmatch(KET_PATTERN, text)
    assert parse_ket(text) == k
    assert format_ket(parse_ket(text)) == text


# --- transition taxonomy -----------------------------------------------------


def test_zpl():
    assert classify_transition(ket(S1), ket(S0)) is TransitionClass.ZPL


def test_vibronic_emission_and_phonon_wing():
    assert (
        classify_transition(ket(S1), ket(S0, v={0: 1}))
        is TransitionClass.VIBRONIC_EMISSION
    )
    assert classify_transition(ket(S1), ket(S0, p={0: 1})) is TransitionClass.PHONON_WING
    # vibrons and phonons together still land in the wing
    assert (
        classify_transition(ket(S1), ket(S0, v={0: 1}, p={0: 2}))
        is TransitionClass.PHONON_WING
    )


def test_microwave_spin():
    assert (
        classify_transition(ket(T1, "x"), ket(T1, "y")) is TransitionClass.MICROWAVE_SPIN
    )


def test_vibrational_relaxation():
    assert (
        classify_transition(ket(S0, v={0: 1}), ket(S0))
        is TransitionClass.VIBRATIONAL_RELAXATION
    )
    # quanta must strictly decrease
    assert classify_transition(ket(S0), ket(S0, v={0: 1})) is TransitionClass.FORBIDDEN


def test_isc_and_phosphorescence():
    assert classify_transition(ket(S1), ket(T1, "z")) is TransitionClass.ISC
    assert classify_transition(ket(T1, "z"), ket(S0)) is TransitionClass.ISC
    assert (
        classify_transition(ket(T1, "z"), ket(S0), radiative=True)
        is TransitionClass.PHOSPHORESCENCE
    )
    # radiative phosphorescence only from the relaxed T1 origin
    assert (
        classify_transition(ket(T1, "z", v={0: 1}), ket(S0), radiative=True)
        is TransitionClass.ISC
    )
    assert (
        classify_transition(ket(Manifold("T", 2), "x"), ket(S0), radiative=True)
        is TransitionClass.ISC
    )


def test_same_ket_forbidden():
    for k in (ket(S0), ket(S1, v={0: 2}), ket(T1, "y")):
        assert classify_transition(k, k) is TransitionClass.FORBIDDEN


def test_emission_requires_equal_nuclei():
    src = ket(S1, n=[("1/2", "+1/2")])
    dst = ket(S0, n=[("1/2", "-1/2")])
    assert classify_transition(src, dst) is TransitionClass.FORBIDDEN


def test_radiative_class_set():
    assert TransitionClass.ZPL in RADIATIVE_CLASSES
    assert TransitionClass.PHOSPHORESCENCE in RADIATIVE_CLASSES
    assert TransitionClass.MICROWAVE_SPIN not in RADIATIVE_CLASSES
    assert TransitionClass.FORBIDDEN not in RADIATIVE_CLASSES


def _random_ket(rng):
    manifold = [S0, S1, T1, Manifold("S", 2), Manifold("T", 2)][rng.integers(5)]
    sub = ["x", "y", "z"][rng.integers(3)] if manifold.is_triplet else None
    v = {int(i): int(rng.integers(0, 3)) for i in range(rng.integers(0, 3))}
    p = {int(i): int(rng.integers(0, 3)) for i in range(rng.integers(0, 2))}
    nuc = [("1/2", "+1/2"), ("1/2", "-1/2")][: rng.integers(0, 2)]
    return ket(manifold, sub, v=v, p=p, n=nuc)


def test_classification_is_total():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(2000):
        a, b = _random_ket(rng), _random_ket(rng)
        for radiative in (False, True):
            cls = classify_transition(a, b, radiative=radiative)
            assert isinstance(cls, TransitionClass)
            seen.add(cls)
    # the sampler is rich enough to touch most of the taxonomy
    assert TransitionClass.FORBIDDEN in seen
    assert TransitionClass.ISC in seen

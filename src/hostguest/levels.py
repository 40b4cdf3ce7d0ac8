"""Electronic-vibrational level bookkeeping and transition taxonomy.

Kets address a manifold (S0, S1, T1, higher Sj/Tj), a triplet sublevel where
applicable, sparse vibron and phonon occupation maps, and a list of nuclear
spin projections. This module knows nothing about energies; it only encodes
which transitions are optical, microwave, or forbidden, and the canonical
ket literal that configs name states by.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

SUBLEVELS = ("x", "y", "z")


@dataclass(frozen=True, order=True)
class Manifold:
    """An electronic manifold: spin kind ('S' or 'T') and index."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in ("S", "T"):
            raise ValueError(f"manifold kind must be 'S' or 'T', got {self.kind!r}")
        if self.index < 0 or int(self.index) != self.index:
            raise ValueError(f"manifold index must be a non-negative integer")
        if self.kind == "T" and self.index < 1:
            raise ValueError("triplet manifolds start at T1")

    @property
    def is_triplet(self) -> bool:
        return self.kind == "T"

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


S0 = Manifold("S", 0)
S1 = Manifold("S", 1)
T1 = Manifold("T", 1)


def _normalize_occupation(occ) -> tuple[tuple[int, int], ...]:
    """Canonicalize an occupation map; zero entries are dropped."""
    if occ is None:
        return ()
    if isinstance(occ, Mapping):
        items = occ.items()
    elif all(isinstance(x, int) for x in occ):
        # Dense list form: position is the mode index.
        items = enumerate(occ)
    else:
        items = occ
    out = {}
    for mode, n in items:
        mode = int(mode)
        n = int(n)
        if mode < 0:
            raise ValueError(f"mode index must be non-negative, got {mode}")
        if n < 0:
            raise ValueError(f"occupation must be non-negative, got {n}")
        if mode in out:
            raise ValueError(f"duplicate mode index {mode}")
        if n > 0:
            out[mode] = n
    return tuple(sorted(out.items()))


def _normalize_nuclei(nuclei) -> tuple[tuple[Fraction, Fraction], ...]:
    out = []
    for spin, projection in nuclei or ():
        i = Fraction(spin)
        m = Fraction(projection)
        if i < 0 or i.denominator not in (1, 2):
            raise ValueError(f"nuclear spin must be a non-negative half-integer, got {i}")
        if m.denominator not in (1, 2) or abs(m) > i:
            raise ValueError(f"projection {m} invalid for nuclear spin {i}")
        if (i - m).denominator != 1:
            raise ValueError(f"projection {m} must differ from {i} by an integer")
        out.append((i, m))
    return tuple(out)


@dataclass(frozen=True)
class LevelKet:
    """One basis ket |manifold(sublevel); vibrons, phonons; nuclei>.

    Occupation maps are sparse; a mode absent from the map has occupation
    zero, and two kets differing only by explicit zeros compare equal
    because construction canonicalizes the maps.
    """

    manifold: Manifold
    sublevel: str | None = None
    vibrons: tuple[tuple[int, int], ...] = field(default=())
    phonons: tuple[tuple[int, int], ...] = field(default=())
    nuclei: tuple[tuple[Fraction, Fraction], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "vibrons", _normalize_occupation(self.vibrons))
        object.__setattr__(self, "phonons", _normalize_occupation(self.phonons))
        object.__setattr__(self, "nuclei", _normalize_nuclei(self.nuclei))
        if self.manifold.is_triplet:
            if self.sublevel not in SUBLEVELS:
                raise ValueError(
                    f"triplet ket needs a sublevel from {SUBLEVELS}, got {self.sublevel!r}"
                )
        elif self.sublevel is not None:
            raise ValueError("singlet kets carry no sublevel")

    @property
    def total_quanta(self) -> int:
        return sum(n for _, n in self.vibrons) + sum(n for _, n in self.phonons)

    @property
    def vibrationless(self) -> bool:
        return not self.vibrons and not self.phonons

    def __str__(self) -> str:
        return format_ket(self)


class TransitionClass(enum.Enum):
    ZPL = "zpl"
    VIBRONIC_EMISSION = "vibronic_emission"
    PHONON_WING = "phonon_wing"
    ISC = "isc"
    PHOSPHORESCENCE = "phosphorescence"
    MICROWAVE_SPIN = "microwave_spin"
    VIBRATIONAL_RELAXATION = "vibrational_relaxation"
    FORBIDDEN = "forbidden"


# Classes that contribute to detected fluorescence.
RADIATIVE_CLASSES = frozenset(
    {
        TransitionClass.ZPL,
        TransitionClass.VIBRONIC_EMISSION,
        TransitionClass.PHONON_WING,
        TransitionClass.PHOSPHORESCENCE,
    }
)


def classify_transition(
    source: LevelKet, target: LevelKet, *, radiative: bool = False
) -> TransitionClass:
    """Classify the transition source -> target. Total: every pair maps to
    exactly one class, and a ket never transitions to itself.

    Singlet-triplet crossings are intersystem crossing; with radiative=True
    the special pair T1(0,0) -> S0(0,0) is reported as phosphorescence
    instead. Optical emission classes require the source to be the relaxed
    |S1; 0, 0> ket and the nuclear labels to be spectators.
    """
    if source == target:
        return TransitionClass.FORBIDDEN
    a, b = source.manifold, target.manifold

    if a.kind != b.kind:
        if (
            radiative
            and a == T1
            and b == S0
            and source.vibrationless
            and target.vibrationless
        ):
            return TransitionClass.PHOSPHORESCENCE
        return TransitionClass.ISC

    if a != b:
        if (
            a == S1
            and b == S0
            and source.vibrationless
            and source.nuclei == target.nuclei
        ):
            if target.vibrationless:
                return TransitionClass.ZPL
            if not target.phonons:
                return TransitionClass.VIBRONIC_EMISSION
            return TransitionClass.PHONON_WING
        return TransitionClass.FORBIDDEN

    # Same manifold.
    if source.nuclei != target.nuclei:
        return TransitionClass.FORBIDDEN
    if (
        a.is_triplet
        and source.sublevel != target.sublevel
        and source.vibrons == target.vibrons
        and source.phonons == target.phonons
    ):
        return TransitionClass.MICROWAVE_SPIN
    if (
        source.sublevel == target.sublevel
        and target.total_quanta < source.total_quanta
    ):
        return TransitionClass.VIBRATIONAL_RELAXATION
    return TransitionClass.FORBIDDEN


# --- ket literal syntax ----------------------------------------------------
#
# Canonical form:  S1;v=[0,1];p=[];n=[(1/2,+1/2)]
# Triplets name the sublevel after a comma:  T1,x;v=[];p=[];n=[]
# Occupation lists are dense (position = mode index) and end in a non-zero
# entry; nuclear entries are (spin, signed projection) as reduced fractions,
# zero written +0. parse_ket accepts only what format_ket prints, so the two
# round-trip exactly in both directions. The patterns are ECMA-262 regexes
# too (no \d, no named groups): the same text is a JSON-schema "pattern".

_POSITIVE = "[1-9][0-9]*"
_NATURAL = f"(?:0|{_POSITIVE})"
_ODD_HALF = f"(?:{_POSITIVE})?[13579]/2"
_HALF_INTEGER = f"(?:{_ODD_HALF}|{_NATURAL})"
_POSITIVE_HALF_INTEGER = f"(?:{_ODD_HALF}|{_POSITIVE})"
_DENSE = rf"\[((?:{_NATURAL},)*{_POSITIVE})?\]"
_NUCLEUS = rf"\(({_HALF_INTEGER}),(\+{_HALF_INTEGER}|-{_POSITIVE_HALF_INTEGER})\)"

SPIN_PATTERN = f"^{_POSITIVE_HALF_INTEGER}$"
KET_PATTERN = (
    rf"^(?:S({_NATURAL})|T({_POSITIVE}),([xyz]));v={_DENSE};p={_DENSE}"
    rf";n=\[((?:{_NUCLEUS}(?:,{_NUCLEUS})*)?)\]$"
)
KET_EXAMPLE = "T1,x;v=[0,1];p=[];n=[(1/2,+1/2)]"
_KET = re.compile(KET_PATTERN)


def _dense(occ: tuple[tuple[int, int], ...]) -> str:
    if not occ:
        return "[]"
    top = max(mode for mode, _ in occ)
    lookup = dict(occ)
    return "[" + ",".join(str(lookup.get(i, 0)) for i in range(top + 1)) + "]"


def _signed(m: Fraction) -> str:
    return ("+" if m >= 0 else "-") + str(abs(m))


def format_ket(ket: LevelKet) -> str:
    head = str(ket.manifold)
    if ket.sublevel is not None:
        head += f",{ket.sublevel}"
    nuclei = ",".join(f"({i},{_signed(m)})" for i, m in ket.nuclei)
    return f"{head};v={_dense(ket.vibrons)};p={_dense(ket.phonons)};n=[{nuclei}]"


def parse_ket(text: str) -> LevelKet:
    """Parse a literal of the form :func:`format_ket` prints, and only that;
    raises ValueError otherwise, or if the ket rejects a nuclear projection."""
    match = _KET.fullmatch(text)
    if match is None:
        raise ValueError(f"malformed ket literal {text!r}; expected e.g. {KET_EXAMPLE!r}")
    singlet, triplet, sublevel, v, p, n = match.groups()[:6]
    return LevelKet(
        manifold=Manifold("S", int(singlet)) if triplet is None else Manifold("T", int(triplet)),
        sublevel=sublevel,
        vibrons=tuple(map(int, v.split(","))) if v else (),
        phonons=tuple(map(int, p.split(","))) if p else (),
        nuclei=tuple((Fraction(i), Fraction(m)) for i, m in re.findall(_NUCLEUS, n)),
    )

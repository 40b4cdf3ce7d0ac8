"""hostguest: deterministic models of single organic molecules in solids.

Spin Hamiltonians of the metastable triplet, vibronic emission spectra,
open-system dynamics, and quantum-interface protocol estimators, with a
scenario-driven CLI. All internal energies are angular frequencies (rad/s);
see :mod:`hostguest.units`.
"""

from .units import ANGULAR_UNITS, FrequencyGrid, bose_occupation
from .levels import (
    LevelKet,
    Manifold,
    S0,
    S1,
    T1,
    TransitionClass,
    classify_transition,
    format_ket,
    parse_ket,
)

__version__ = "0.1.0"

__all__ = [
    "ANGULAR_UNITS",
    "FrequencyGrid",
    "bose_occupation",
    "LevelKet",
    "Manifold",
    "S0",
    "S1",
    "T1",
    "TransitionClass",
    "classify_transition",
    "format_ket",
    "parse_ket",
    "__version__",
]

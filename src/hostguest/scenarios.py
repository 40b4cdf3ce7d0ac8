"""Scenario configs: validation, execution, and deterministic artifacts.

A scenario is a JSON document naming one computation kind plus its
parameters, optionally swept over one dotted parameter path. A config is
checked against the field table of its kind alone; the JSON schema that
``hostguest schema`` prints is generated from the same table. The table
also builds the domain objects that the runners take, so ``validate``
rejects every config that ``run`` rejects as a config error. A schema loads
no physics module, a config only its kind's; no kind loads scipy.
Runs write each artifact atomically (temp file + rename) into an
output directory, then a manifest of content hashes; identical
config and seed give byte-identical files. All randomness is opt-in and
none of the shipped kinds use any; the seed is recorded for provenance.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import importlib
import json
import math
import numbers
import os
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from . import screening, spin
from .errors import ConfigError, DomainError
from .levels import KET_EXAMPLE, KET_PATTERN, SPIN_PATTERN, parse_ket
from .units import ANGULAR_UNITS, GAMMA_PROTON, TWO_PI, FrequencyGrid

SCHEMA_VERSION = 1

_REQUIRED = object()


# --- parameter fields --------------------------------------------------------
#
# Each parameter is declared once, as a Field in the table of its scenario
# kind. The field yields its JSON-schema fragment and its check: one walk
# over a config node that enforces that fragment, with the semantics of a
# JSON Schema 2020-12 validator, and coerces the node to the value the
# runners take: quantities become floats in rad/s, s or K, every number
# must be finite, and a record with a constructor becomes its domain object.


@dataclass(frozen=True)
class Field:
    """One parameter: JSON-schema fragment, check and default.

    ``check(node, where)`` raises ConfigError at the first violation of
    ``schema`` in ``node`` and otherwise returns the node's coerced value;
    ``where`` is the node's dotted path, named in any ConfigError. A field
    whose default is ``_REQUIRED`` must be present in its record.
    """

    schema: dict
    check: Callable[[object, str], object]
    default: object = _REQUIRED


def _fail(where: str, message: str) -> ConfigError:
    return ConfigError(f"at {where or '<root>'}: {message}")


def _join(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


# JSON types as JSON Schema tells them apart: a bool is neither a number nor
# an integer, and a float with no fractional part is an integer.
_JSON_TYPES = {
    "boolean": lambda x: isinstance(x, bool),
    "string": lambda x: isinstance(x, str),
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and x.is_integer()),
}


def _not_of_type(node, types: list[str], where: str) -> ConfigError:
    return _fail(where, f"{node!r} is not of type {', '.join(map(repr, types))}")


def _typed(json_type: str | list[str], default=_REQUIRED) -> Field:
    """A node of one of the JSON types; coerces to itself."""
    types = [json_type] if isinstance(json_type, str) else json_type
    tests = [_JSON_TYPES[t] for t in types]

    def check(node, where):
        if not any(test(node) for test in tests):
            raise _not_of_type(node, types, where)
        return node

    return Field({"type": json_type}, check, default)


def _finite(x, where: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise _fail(where, f"must be a finite number, got {x!r}")
    return x


def _bounded(json_type: str, coerce, default, bounds: dict) -> Field:
    """A number or integer under the JSON-schema keywords ``minimum``,
    ``exclusiveMinimum`` and ``maximum`` (the only bounds supported)."""
    unknown = set(bounds) - {"minimum", "exclusiveMinimum", "maximum"}
    if unknown:
        raise TypeError(f"unsupported bounds {sorted(unknown)}")
    low, above, high = map(bounds.get, ("minimum", "exclusiveMinimum", "maximum"))
    is_type = _JSON_TYPES[json_type]

    def check(node, where):
        if not is_type(node):
            raise _not_of_type(node, [json_type], where)
        if low is not None and node < low:
            raise _fail(where, f"{node!r} is less than the minimum of {low!r}")
        if above is not None and node <= above:
            raise _fail(where, f"{node!r} is less than or equal to the minimum of {above!r}")
        if high is not None and node > high:
            raise _fail(where, f"{node!r} is greater than the maximum of {high!r}")
        return coerce(node, where)

    return Field({"type": json_type, **bounds}, check, default)


def _quantity(units, default, bounds: dict, build=lambda value, unit: value) -> Field:
    # Every unit converts by a positive factor, so a sign bound on the value
    # holds in any unit.
    return record(value=number(**bounds), unit=enum(*units), default=default, build=build)


def _rad_per_s(value, unit):
    """``value`` ``unit`` in rad/s."""
    converted = value * ANGULAR_UNITS[unit]
    if not math.isfinite(converted):
        raise ValueError(f"{value!r} {unit} is not finite in rad/s")
    return converted


def angular(default=_REQUIRED, **bounds) -> Field:
    """A frequency, rate or energy; coerces to rad/s. ``bounds`` apply to
    its value, as for ``number``."""
    return _quantity(ANGULAR_UNITS, default, bounds, _rad_per_s)


def seconds(default=_REQUIRED, **bounds) -> Field:
    """A time; coerces to s."""
    return _quantity(["s"], default, bounds)


def kelvin(default=_REQUIRED, **bounds) -> Field:
    """A temperature; coerces to K."""
    return _quantity(["K"], default, bounds)


def number(default=_REQUIRED, **bounds) -> Field:
    """A finite float; ``bounds`` are keywords of ``_bounded``."""
    return _bounded("number", _finite, default, bounds)


def integer(minimum: int, default=_REQUIRED, **bounds) -> Field:
    return _bounded("integer", lambda node, _: int(node), default, {"minimum": minimum, **bounds})


def literal(pattern: str, parse, form: str) -> Field:
    """A string that ``pattern``, an anchored ECMA-262 regex the schema also
    carries, matches whole, coerced by ``parse``. A mismatch ("is not
    ``form``") and a ValueError from ``parse`` both fail at the node's path."""
    compiled = re.compile(pattern)

    def check(node, where):
        if not isinstance(node, str):
            raise _not_of_type(node, ["string"], where)
        if compiled.fullmatch(node) is None:
            raise _fail(where, f"{node!r} is not {form}")
        try:
            return parse(node)
        except ValueError as exc:
            raise _fail(where, f"{node!r}: {exc}") from None

    return Field({"type": "string", "pattern": pattern}, check)


def enum(*values: str) -> Field:
    """One of the strings ``values``; compared type-strictly, so 1 is never "1"."""

    def check(node, where):
        if not (isinstance(node, str) and node in values):
            raise _fail(where, f"{node!r} is not one of {list(values)!r}")
        return node

    return Field({"enum": list(values)}, check)


def _const(value) -> Field:
    def check(node, where):
        if isinstance(node, bool) or node != value:  # true is not 1
            raise _fail(where, f"{value!r} was expected")
        return node

    return Field({"const": value}, check)


# The checks of record and array nodes already made in the current
# validate_config call, by (id(node), where) -> (node, value). Holding the node
# keeps its id from being reused while the entry lives; the memo is dropped
# when the call returns, so a node mutated in place between calls is checked
# again.
_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar("memo", default=None)


def _memoized(check):
    """``check`` with its value reused for a node seen before at the same path
    in the current validate_config call; outside such a call, ``check``."""

    def memoized(node, where):
        memo = _MEMO.get()
        if memo is None:
            return check(node, where)
        key = (id(node), where)
        if key not in memo:
            memo[key] = (node, check(node, where))
        return memo[key][1]

    return memoized


def array(
    item: Field, length: int | None = None, default=_REQUIRED, min_items: int = 0, unique=False
) -> Field:
    """A list of ``item``, of exactly ``length`` entries if given, else of at
    least ``min_items``, with no two coerced entries equal if ``unique``;
    coerces to a tuple."""
    low, high = (length, length) if length is not None else (min_items, math.inf)
    schema = {"type": "array", "items": item.schema}
    if low:
        schema["minItems"] = low
    if high < math.inf:
        schema["maxItems"] = high
    if unique:
        schema["uniqueItems"] = True

    def check(node, where):
        if not isinstance(node, list):
            raise _not_of_type(node, ["array"], where)
        if len(node) < low:
            raise _fail(where, f"{node!r} is too short" if node else "[] should be non-empty")
        if len(node) > high:
            raise _fail(where, f"{node!r} is too long")
        items = tuple(item.check(x, _join(where, i)) for i, x in enumerate(node))
        if unique and len(set(items)) < len(items):
            raise _fail(where, f"{node!r} has non-unique elements")
        return items

    return Field(schema, _memoized(check), default)


def record(default=_REQUIRED, build=None, **fields: Field) -> Field:
    """An object with at most these keys; coerces to a dict holding every key,
    where a key left out takes its field's default. With a constructor
    ``build``, coerces to ``build(**that dict)``; its ValueError fails here."""
    required = tuple(key for key, f in fields.items() if f.default is _REQUIRED)
    schema = {
        "type": "object",
        "properties": {key: f.schema for key, f in fields.items()},
        "required": list(required),
        "additionalProperties": False,
    }

    def check(node, where):
        if not isinstance(node, dict):
            raise _not_of_type(node, ["object"], where)
        for key in required:
            if key not in node:
                raise _fail(where, f"{key!r} is a required property")
        for key in node:
            if key not in fields:
                raise _fail(where, f"unexpected property {key!r}; allowed: {', '.join(fields)}")
        values = {
            key: f.check(node[key], _join(where, key)) if key in node else f.default
            for key, f in fields.items()
        }
        if build is None:
            return values
        try:
            return build(**values)
        except ValueError as exc:
            raise _fail(where, str(exc)) from None

    return Field(schema, _memoized(check), default)


def nullable(field: Field) -> Field:
    """``field`` or null; null and absence both coerce to None."""

    def check(node, where):
        return None if node is None else field.check(node, where)

    return Field({"oneOf": [{"type": "null"}, field.schema]}, check, None)


def _physics(module: str, name: str, *kept: str):
    """A build by the constructor ``name`` of the physics module ``module``, imported
    at first use; keys named in ``kept`` skip it and follow the object in a tuple."""

    def build(**values):
        rest = [values.pop(key) for key in kept]
        built = getattr(importlib.import_module(f"{__package__}.{module}"), name)(**values)
        return (built, *rest) if kept else built

    return build


def _nucleus(hyperfine_tensor, hyperfine_unit, **nucleus) -> spin.NucleusSpec:
    """A NucleusSpec, its hyperfine tensor converted from ``hyperfine_unit``."""
    tensor = [[_rad_per_s(x, hyperfine_unit) for x in row] for row in hyperfine_tensor]
    return spin.NucleusSpec(hyperfine_tensor=tensor, **nucleus)


def _two_level(rabi, detuning, decay, dephasing):
    from . import dynamics

    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # basis (g, e)
    project_e = np.diag([0.0, 1.0]).astype(complex)
    h = detuning * project_e + 0.5 * rabi * (lower + lower.conj().T)
    return dynamics.OpenSystem(h, ((lower, decay), (project_e, dephasing)))


def _rate_network(states, rates, emissive):
    from . import dynamics

    pairs = {}
    for i, r in enumerate(rates):
        pair = (r["source"], r["target"])
        if pair in pairs:
            message = f"a second rate from {pair[0]} to {pair[1]}"
            raise _fail(f"parameters.network.rates.{i}", message)
        pairs[pair] = r["rate"]
    flags = dict.fromkeys(states, False) | dict.fromkeys(emissive, True)
    return dynamics.RateNetwork(states, pairs, flags)


def _microwave_drive(network, mw_pair, mw_mixing_rate):
    """odmr_contrast's arguments, once its preconditions on them hold."""
    network.microwave_targets(mw_pair)
    return network, mw_pair, mw_mixing_rate


_STRING = _typed("string")
_KET = literal(KET_PATTERN, parse_ket, f"a canonical ket literal such as {KET_EXAMPLE!r}")
# A length numpy can index: a larger one fails in np.linspace.
_POINTS = integer(2, maximum=int(np.iinfo(np.intp).max))
_GRID = record(start=angular(), stop=angular(), points=_POINTS, build=FrequencyGrid)
_TIME_AXIS = record(stop=seconds(exclusiveMinimum=0), points=_POINTS)
_PULSE = record(
    peak_rabi=angular(minimum=0),
    center=seconds(),
    width=seconds(exclusiveMinimum=0),
    build=_physics("protocols", "Pulse"),
)
_PHONON_DENSITY = record(
    coupling_weight=number(minimum=0),
    peak_frequency=angular(exclusiveMinimum=0),
    cutoff_frequency=angular(exclusiveMinimum=0),
    build=_physics("vibronic", "PhononSpectralDensity"),
)
_SPIN_SYSTEM = record(
    zfs_d=angular(),
    zfs_e=angular(),
    magnetic_field_tesla=array(number(), 3, default=(0.0, 0.0, 0.0)),
    g_electron=number(default=spin.G_ELECTRON_DEFAULT),
    nuclei=array(
        record(
            spin=literal(SPIN_PATTERN, Fraction, "a positive half-integer such as '3/2'"),
            hyperfine_tensor=array(array(number(), 3), 3),
            hyperfine_unit=enum(*ANGULAR_UNITS),
            gyromagnetic_ratio=number(default=GAMMA_PROTON),
            build=_nucleus,
        ),
        default=(),
    ),
    build=lambda magnetic_field_tesla, **system: spin.SpinSystemSpec(
        magnetic_field=magnetic_field_tesla, **system
    ),
)
_TWO_LEVEL = record(
    rabi=angular(),
    detuning=angular(),
    decay=angular(minimum=0),
    dephasing=angular(default=0.0, minimum=0),
    build=_two_level,
)

# Bounds: each minimum or exclusiveMinimum below is a sign rule that the
# kind's runner or a domain constructor enforces as well. A rule across
# fields (grid start < stop, port couplings <= kappa) is declared once, in
# the constructor that its record builds. The relaxation_classify rate model
# is built whatever the channel; its temperature is used, and its bound
# enforced by two_phonon_rate, only on the two-phonon channel.
PARAMETERS = {
    "spin_spectrum": record(
        spin_system=_SPIN_SYSTEM, grid=_GRID, linewidth=angular(exclusiveMinimum=0)
    ),
    "odmr": record(
        network=record(
            states=array(_KET, unique=True),
            rates=array(record(source=_KET, target=_KET, rate=angular(minimum=0))),
            emissive=array(_KET),
            build=_rate_network,
        ),
        mw_pair=array(enum("x", "y", "z"), 2, unique=True),
        mw_mixing_rate=angular(minimum=0),
        build=_microwave_drive,
    ),
    "crot": record(
        spin_system=_SPIN_SYSTEM,
        drive_frequency=angular(exclusiveMinimum=0),
        rabi_frequency=angular(minimum=0),
        duration=seconds(exclusiveMinimum=0),
        drive_axis=array(number(), 3, default=(1.0, 0.0, 0.0)),
    ),
    "emission_spectrum": record(
        model=record(
            zpl_frequency=angular(exclusiveMinimum=0),
            radiative_rate=angular(exclusiveMinimum=0),
            temperature=kelvin(minimum=0),
            vibron_modes=array(
                record(
                    frequency=angular(exclusiveMinimum=0),
                    huang_rhys=number(minimum=0),
                    relaxation_rate=angular(minimum=0),
                    build=_physics("vibronic", "VibronMode"),
                ),
                default=(),
            ),
            phonon_density=nullable(_PHONON_DENSITY),
            extra_linewidth=angular(default=0.0, minimum=0),
            build=_physics("vibronic", "VibronicModel"),
        ),
        grid=_GRID,
    ),
    "relaxation_classify": record(
        vibron_frequency=angular(exclusiveMinimum=0),
        phonon_cutoff=angular(exclusiveMinimum=0),
        other_vibrons=array(angular(exclusiveMinimum=0), default=()),
        rate_model=record(
            density=_PHONON_DENSITY,
            coupling=number(),
            temperature=kelvin(minimum=0),
            default=None,
        ),
        build=_physics("relaxation", "RelaxationInput", "rate_model"),
    ),
    "lindblad": record(
        system=_TWO_LEVEL, initial_state=enum("ground", "excited"), times=_TIME_AXIS
    ),
    "g2": record(system=_TWO_LEVEL, taus=_TIME_AXIS),
    "raman_memory": record(
        gamma0=angular(minimum=0),
        kappa_v=angular(minimum=0),
        detuning=angular(),
        signal_pulse=_PULSE,
        control_pulse=_PULSE,
        storage_hold=seconds(minimum=0),
        build=_physics("protocols", "RamanMemorySpec"),
    ),
    "cavity_interface": record(
        g=angular(minimum=0),
        kappa=angular(exclusiveMinimum=0),
        kappa_in=angular(minimum=0),
        kappa_out=angular(minimum=0),
        gamma=angular(minimum=0),
        emitter_coupled=_typed("boolean", default=True),
        grid=_GRID,
        build=_physics("protocols", "CavityInterfaceSpec", "grid"),
    ),
    "optomech": record(
        g0=angular(minimum=0),
        omega_v=angular(exclusiveMinimum=0),
        kappa_v=angular(exclusiveMinimum=0),
        gamma0=angular(exclusiveMinimum=0),
        temperature=kelvin(minimum=0),
        n_bar=nullable(number(minimum=0)),
        build=_physics("protocols", "OptomechParams", "n_bar"),
    ),
    "screening": record(
        input_csv=_STRING,
        criteria=record(
            min_t1_ev=number(default=screening.DEFAULT_MIN_T1_EV),
            max_s1_ev=number(default=screening.DEFAULT_MAX_S1_EV),
            default=screening.SelectionCriteria(),
            build=screening.SelectionCriteria,
        ),
    ),
}

SCENARIO_KINDS = tuple(sorted(PARAMETERS))


def _envelope(kind: str) -> Field:
    """The whole config of one kind: its parameters and the run settings."""
    return record(
        schema_version=_const(SCHEMA_VERSION),
        scenario_kind=_const(kind),
        parameters=PARAMETERS[kind],
        sweep=record(
            parameter=_STRING,
            values=array(_typed(["number", "string", "boolean"]), min_items=1),
            default=None,
        ),
        output_dir=_typed("string", default=None),
        seed=integer(0, default=0),
    )


_ENVELOPES = {kind: _envelope(kind) for kind in SCENARIO_KINDS}


def config_schema(kind: str) -> dict:
    """The full JSON schema for one scenario kind."""
    if kind not in PARAMETERS:
        raise ConfigError(
            f"unknown scenario kind {kind!r}; expected one of {', '.join(SCENARIO_KINDS)}"
        )
    return {"$schema": "https://json-schema.org/draft/2020-12/schema", **_ENVELOPES[kind].schema}


def validate_config(config) -> list:
    """Check a config and build its parameters.

    Returns what the kind's runner takes, each record with a constructor
    built: one entry for a plain run, or one per sweep value, in order.
    Each sweep value is put in place and checked with the rest of the
    parameters, so a bad value is named by the path of the swept leaf.
    A point shares every subtree off the swept path with the config, and
    such a subtree is checked once per call: the points share its coerced
    value or built object. Raises ConfigError naming the path of the first
    violation.
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    kind = config.get("scenario_kind")
    if not isinstance(kind, str) or kind not in PARAMETERS:
        raise ConfigError(
            f"scenario_kind must be one of {', '.join(SCENARIO_KINDS)}, got {kind!r}"
        )
    token = _MEMO.set({})
    try:
        checked = _ENVELOPES[kind].check(config, "")
        sweep = checked["sweep"]
        if sweep is None:
            return [checked["parameters"]]
        points = (_with_value(config["parameters"], sweep["parameter"], v) for v in sweep["values"])
        return [PARAMETERS[kind].check(params, "parameters") for params in points]
    finally:
        _MEMO.reset(token)


# --- CSV / JSON byte renderers ----------------------------------------------
#
# No artifact holds NaN or inf: each renderer raises DomainError naming the
# artifact and the column or key of the first non-finite value.


def _nonfinite(where: str, x) -> DomainError:
    return DomainError(f"{where}: non-finite value {x!r}")


def _json_scalar(x, where: str):
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if not math.isfinite(x):
            raise _nonfinite(where, x)
    return x


def _fmt(x, where: str) -> str:
    x = _json_scalar(x, where)
    if isinstance(x, bool):
        return "true" if x else "false"
    return repr(x) if isinstance(x, float) else str(x)


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quote(text: str) -> str:
    """One CSV field (RFC 4180): quoted, each ``"`` doubled, exactly when it
    holds a comma, a quote, a CR or an LF."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def _cells(column, where: str):
    """The text of one column: a float ndarray, or a list of floats alone
    (no bool or int), is checked in one vectorized call and formatted with
    ``repr``; anything else goes through ``_fmt`` and ``_quote``."""
    if isinstance(column, list) and all(isinstance(x, (float, np.floating)) for x in column):
        column = np.array(column, dtype=float)
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        finite = np.isfinite(column)
        if not finite.all():
            raise _nonfinite(where, column[~finite][0].item())
        return map(repr, column.tolist())
    return [_quote(_fmt(x, where)) for x in column]


def _csv_bytes(name: str, header, columns) -> bytes:
    """Render the artifact ``name``: a header row, then one row per index of
    the equally long ``columns``, each line ended by ``\\n``."""
    cells = [_cells(col, f"{name} column {title!r}") for title, col in zip(header, columns)]
    lines = [",".join(map(_quote, header)), *map(",".join, zip(*cells)), ""]
    return "\n".join(lines).encode()


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


# --- scenario runners --------------------------------------------------------
#
# A runner maps the built points of a run, an iterable drawn in order (one
# point for a plain run, one per sweep value), and the config directory to
# their results, one (scalars, tables) per point in the same order, yielded
# as it goes: a sweep's points, and a batch's states, go once their results are drawn.
# scalars are flat key -> scalar (these populate result.json and sweep
# columns), tables is a function of no arguments that returns file name ->
# (header, columns), where a column is a float ndarray or a list of scalars.
# Runners do not render: run_scenario calls and renders the tables of a
# plain run only. A check that decides a run's exit code stays outside
# tables, and each point runs its checks in the order of its plain run
# before any later point's, so a sweep fails on its first failing point as
# that point's plain run fails.
#
# Most kinds run one point at a time behind _each. lindblad and g2 step
# batches of points on one time grid (_grid_batches); raman_memory points share write stages.

_NO_TABLES = dict  # the tables of a runner that writes only result.json


def _run_spin_spectrum(params, _config_dir):
    system = params["spin_system"]
    eig = spin.diagonalize(spin.build_spin_hamiltonian(system))
    freqs, response = spin.odmr_spectrum(system, params["grid"], params["linewidth"], eig)
    gaps = np.diff(eig.energies)
    scalars = {
        "level_count": len(eig.energies),
        "smallest_gap_hz": float(gaps.min() / TWO_PI) if len(gaps) else 0.0,
        "largest_gap_hz": float((eig.energies[-1] - eig.energies[0]) / TWO_PI),
    }
    return scalars, lambda: {
        "spectrum.csv": (("frequency_hz", "response"), (freqs / TWO_PI, response)),
        "levels.csv": (
            ("index", "energy_hz"),
            (range(len(eig.energies)), eig.energies / TWO_PI),
        ),
    }


def _run_odmr(drive, _config_dir):
    from . import dynamics

    return {"contrast": dynamics.odmr_contrast(*drive)}, _NO_TABLES


def _run_crot(params, _config_dir):
    result = spin.crot_gate(
        params["spin_system"],
        drive_frequency=params["drive_frequency"],
        rabi_frequency=params["rabi_frequency"],
        duration=params["duration"],
        drive_axis=params["drive_axis"],
    )
    u = result.unitary
    header = [
        f"{part}_{i}{j}"
        for i in range(u.shape[0])
        for j in range(u.shape[1])
        for part in ("re", "im")
    ]
    # One row: column k holds element k of the row-major (re, im) pairs.
    flat = np.stack((u.real, u.imag), axis=-1).reshape(-1, 1)
    scalars = {
        "fidelity": result.fidelity,
        "addressed_lower": result.addressed[0],
        "addressed_upper": result.addressed[1],
        "step_count": result.step_count,
    }
    return scalars, lambda: {"unitary.csv": (header, list(flat))}


def _run_emission_spectrum(params, _config_dir):
    from . import vibronic

    model = params["model"]
    # Computed for a sweep point too: its checks (grid too narrow, no
    # spectral weight, normalisation) decide the exit code.
    spectrum = vibronic.emission_spectrum(model, params["grid"])
    # The ZPL branching ratio equals the Debye-Waller factor by construction.
    scalars = {
        "debye_waller": spectrum.zpl_weight,
        "zpl_branching_ratio": spectrum.zpl_weight,
        "zpl_linewidth_hz": model.zpl_linewidth / TWO_PI,
    }
    return scalars, lambda: {
        "spectrum.csv": (
            ("frequency_hz", "normalized_intensity"),
            (spectrum.frequencies / TWO_PI, spectrum.intensity),
        )
    }


def _run_relaxation_classify(params, _config_dir):
    from . import relaxation

    data, rm = params
    channel = relaxation.classify_relaxation(data)
    scalars = {"channel": channel.value, "two_phonon_rate": 0.0}
    if rm is not None and channel is relaxation.RelaxationChannel.TWO_PHONON:
        scalars["two_phonon_rate"] = relaxation.two_phonon_rate(data.vibron_frequency, **rm)
    return scalars, _NO_TABLES


def _grid_batches(points, grid: str):
    """Runs of consecutive points with equal ``params[grid]`` (a stop and a
    point count), each (times, batch), drawn from the iterable ``points``. A
    batch keeps its stacked states within dynamics.BATCH_ENTRIES complex
    entries."""
    from . import dynamics

    batch = []
    for params in points:
        if batch and (params[grid] != batch[0][grid] or len(batch) == size):
            yield times, batch
            batch = []
        if not batch:
            spec = params[grid]
            times = np.linspace(0.0, spec["stop"], spec["points"])
            size = max(1, dynamics.BATCH_ENTRIES // (len(times) * params["system"].dimension ** 2))
        batch.append(params)
    if batch:
        yield times, batch


def _run_lindblad(points, _config_dir):
    from . import dynamics

    for times, batch in _grid_batches(points, "times"):
        ground = [params["initial_state"] == "ground" for params in batch]
        rho0s = [np.diag([1.0, 0.0] if g else [0.0, 1.0]).astype(complex) for g in ground]
        steady = []

        def systems():
            # evolve checks a point's state and step when it draws it, so its
            # steady state is solved next, before the next point is drawn.
            for params in batch:
                yield params["system"]
                steady.append(dynamics.steady_state(params["system"]))

        stacked = dynamics.evolve(systems(), rho0s, times)
        for states, rho_ss in zip(stacked, steady):
            yield _lindblad_result(times, states, rho_ss)


def _lindblad_result(times, states, rho_ss):
    traces = np.trace(states, axis1=1, axis2=2).real
    scalars = {
        "final_excited_population": states[-1][1, 1].real,
        "steady_excited_population": rho_ss[1, 1].real,
        "max_trace_error": float(np.abs(traces - 1.0).max()),
    }
    table = (
        ("time_s", "ground_population", "excited_population", "coherence_re", "coherence_im"),
        (
            times,
            states[:, 0, 0].real,
            states[:, 1, 1].real,
            states[:, 0, 1].real,
            states[:, 0, 1].imag,
        ),
    )  # views of states: nothing is computed until it is rendered
    return scalars, lambda: {"trajectory.csv": table}


def _run_g2(points, _config_dir):
    from . import dynamics

    for taus, batch in _grid_batches(points, "taus"):
        systems = [params["system"] for params in batch]
        lowers = [system.collapse_channels[0][0] for system in systems]  # the decay channels
        for values in dynamics.g2_correlation(systems, lowers, taus):
            yield _g2_result(taus, values)


def _g2_result(taus, values):
    scalars = {"g2_zero": float(values[0]), "g2_final": float(values[-1])}
    return scalars, lambda: {"g2.csv": (("tau_s", "g2"), (taus, values))}


def _run_raman_memory(points, _config_dir):
    from . import protocols

    # Sweep points of one run that differ only in the hold share one write
    # stage; the dict is the runner's own, so nothing outlives the run.
    stored = {}
    for spec in points:
        write_stage = replace(spec, storage_hold=0.0)
        storage, total = protocols.raman_memory_efficiency(spec, stored.get(write_stage))
        stored[write_stage] = storage
        yield {"storage_efficiency": storage, "total_efficiency": total}, _NO_TABLES


def _run_cavity_interface(params, _config_dir):
    from . import protocols

    spec, grid = params
    r0, t0 = protocols.cavity_response(spec, 0.0)
    scalars = {
        "cooperativity": spec.cooperativity,
        "on_resonance_reflectance": float(abs(r0[0]) ** 2),
        "on_resonance_transmittance": float(abs(t0[0]) ** 2),
        "spin_photon_fidelity": protocols.spin_photon_fidelity(spec, (r0, t0)),
    }

    def tables():
        detunings = grid.frequencies
        reflection, transmission = protocols.cavity_response(spec, detunings)
        reflectance = np.abs(reflection) ** 2
        transmittance = np.abs(transmission) ** 2
        loss = 1.0 - reflectance - transmittance
        return {
            "response.csv": (
                ("detuning_hz", "reflectance", "transmittance", "loss"),
                (detunings / TWO_PI, reflectance, transmittance, loss),
            )
        }

    return scalars, tables


def _run_optomech(params, _config_dir):
    from . import protocols

    result = protocols.optomech_cooperativity(*params)
    scalars = {
        "cooperativity": result.cooperativity,
        "thermal_occupation": result.thermal_occupation,
        "ultrastrong": result.ultrastrong,
    }
    return scalars, _NO_TABLES


def _run_screening(params, config_dir):
    raw = Path(params["input_csv"])
    path = raw if raw.is_absolute() else config_dir / raw
    result = screening.ingest(path)
    chosen = screening.select_candidates(result, params["criteria"])
    fit = screening.fit_linear_scaling(result)
    scalars = {
        "record_count": len(result),
        "rejected_count": len(result.rejected),
        "candidate_count": len(chosen),
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
    }
    header = screening.CSV_COLUMNS  # the MoleculeRecord field names, in order
    return scalars, lambda: {
        "candidates.csv": (header, [[getattr(r, key) for r in chosen] for key in header])
    }


def _each(run_point):
    """The runner that runs ``run_point`` on each point in turn."""
    return lambda points, config_dir: (run_point(params, config_dir) for params in points)


_RUNNERS = {
    "spin_spectrum": _each(_run_spin_spectrum),
    "odmr": _each(_run_odmr),
    "crot": _each(_run_crot),
    "emission_spectrum": _each(_run_emission_spectrum),
    "relaxation_classify": _each(_run_relaxation_classify),
    "lindblad": _run_lindblad,
    "g2": _run_g2,
    "raman_memory": _run_raman_memory,
    "cavity_interface": _each(_run_cavity_interface),
    "optomech": _each(_run_optomech),
    "screening": _each(_run_screening),
}


# --- sweep plumbing and the driver ------------------------------------------


def _with_value(tree: dict, dotted: str, value) -> dict:
    """``tree`` with the node at the dotted path replaced by ``value``. Only
    the containers along the path are copied; the rest is shared."""

    def replaced(node, tokens):
        key = tokens[0]
        try:
            if isinstance(node, list):
                key = int(key)
                node[key]
            elif not (isinstance(node, dict) and key in node):
                raise KeyError(key)
        except (ValueError, IndexError, KeyError):
            raise ConfigError(f"sweep parameter path {dotted!r} does not resolve") from None
        out = node.copy()
        out[key] = value if len(tokens) == 1 else replaced(node[key], tokens[1:])
        return out

    return replaced(tree, dotted.split("."))


def _atomic_write(path: Path, data: bytes):
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _listed_artifacts(out: Path) -> set[str]:
    """The plain file names, other than manifest.json, that the manifest
    already in ``out`` lists; none if it is missing, unreadable or malformed."""
    try:
        listed = {a["name"] for a in json.loads((out / "manifest.json").read_bytes())["artifacts"]}
    except (OSError, ValueError, TypeError, KeyError, RecursionError):
        return set()
    plain = {n for n in listed if isinstance(n, str) and n == Path(n).name and "\0" not in n}
    return plain - {"", "..", "manifest.json"}


def load_config(path) -> dict:
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"no such config file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def run_scenario(config: dict, config_dir, output_dir=None) -> Path:
    """Validate and execute one scenario; returns the output directory.

    A plain run builds and renders the runner's tables and result.json. A
    sweep's points share the checked config (see validate_config); the
    runner takes them in order, lindblad and g2 points in batches on one
    time grid, each point's checks before a later point's, so the sweep
    fails on its first failing point. Each point computes only its
    scalars, its tables are never built, and the run renders sweep.csv
    alone. All files are staged in
    memory, so a run that fails before the write phase writes nothing. Each
    file is then renamed from ``<name>.tmp`` one at a time, the manifest
    last: a kill between renames leaves new artifacts beside the old
    manifest, and possibly a ``.tmp`` file. After the new manifest, the
    files that the previous manifest listed and this run did not write are
    deleted.
    """
    points = validate_config(config)
    kind = config["scenario_kind"]
    seed = int(config.get("seed", 0))
    out = Path(output_dir) if output_dir else Path(config.get("output_dir", "."))
    config_dir = Path(config_dir)
    if not out.is_absolute():
        out = config_dir / out
    runner = _RUNNERS[kind]

    files: dict[str, bytes] = {}
    sweep = config.get("sweep")
    if sweep:
        # Pop each point as the runner draws it, from the end of the reversed
        # list: the built objects of its swept path go with its batch.
        points.reverse()
        drawn = (points.pop() for _ in range(len(points)))
        results = [scalars for scalars, _ in runner(drawn, config_dir)]
        keys = sorted(results[0])
        columns = [sweep["values"], *([point[k] for point in results] for k in keys)]
        files["sweep.csv"] = _csv_bytes("sweep.csv", [sweep["parameter"], *keys], columns)
    else:
        ((scalars, tables),) = runner(points, config_dir)
        for name, (header, columns) in tables().items():
            files[name] = _csv_bytes(name, header, columns)
        files["result.json"] = _json_bytes(
            {k: _json_scalar(v, f"result.json key {k!r}") for k, v in scalars.items()}
        )

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "scenario_kind": kind,
        "seed": seed,
        "artifacts": [
            {
                "name": name,
                "sha256": hashlib.sha256(data).hexdigest(),
                "size_bytes": len(data),
            }
            for name, data in sorted(files.items())
        ],
    }
    out.mkdir(parents=True, exist_ok=True)
    stale = _listed_artifacts(out) - files.keys()
    for name, data in sorted(files.items()):
        _atomic_write(out / name, data)
    _atomic_write(out / "manifest.json", _json_bytes(manifest))
    for name in sorted(stale):
        with contextlib.suppress(OSError):
            (out / name).unlink()
    return out

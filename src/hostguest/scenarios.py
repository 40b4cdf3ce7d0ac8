"""Scenario configs: validation, execution, and deterministic artifacts.

A scenario is a JSON document naming one computation kind plus its
parameters, optionally swept over one dotted parameter path. A config is
checked against the field table of its kind alone; the JSON schema that
``hostguest schema`` prints is generated from the same table. Each runner
imports its physics module on first use, so checking a config, printing a
schema and the numpy-only kinds (``crot``, ``spin_spectrum``,
``screening``, ``emission_spectrum``, ``relaxation_classify``) never load
scipy. Runs write each artifact atomically (temp file + rename) into an
output directory, then a manifest of content hashes; identical
config and seed give byte-identical files. All randomness is opt-in and
none of the shipped kinds use any; the seed is recorded for provenance.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
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
from .units import GAMMA_PROTON, TWO_PI, FrequencyGrid, Quantity, Unit, convert

SCHEMA_VERSION = 1

_ANGULAR_UNITS = ["eV", "THz", "GHz", "MHz", "kHz", "rad/s"]
_REQUIRED = object()


# --- parameter fields --------------------------------------------------------
#
# Each parameter is declared once, as a Field in the table of its scenario
# kind. The field yields its JSON-schema fragment and its check: one walk
# over a config node that enforces that fragment, with the semantics of a
# JSON Schema 2020-12 validator, and coerces the node to the plain value the
# runners take: quantities become floats in rad/s, s or K, and every number
# must be finite.


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
    """A number or integer under the JSON-schema keywords ``minimum`` and
    ``exclusiveMinimum`` (the only bounds supported)."""
    unknown = set(bounds) - {"minimum", "exclusiveMinimum"}
    if unknown:
        raise TypeError(f"unsupported bounds {sorted(unknown)}")
    low, above = bounds.get("minimum"), bounds.get("exclusiveMinimum")
    is_type = _JSON_TYPES[json_type]

    def check(node, where):
        if not is_type(node):
            raise _not_of_type(node, [json_type], where)
        if low is not None and node < low:
            raise _fail(where, f"{node!r} is less than the minimum of {low!r}")
        if above is not None and node <= above:
            raise _fail(where, f"{node!r} is less than or equal to the minimum of {above!r}")
        return coerce(node, where)

    return Field({"type": json_type, **bounds}, check, default)


def _quantity(target: Unit, units: list[str], default, bounds: dict) -> Field:
    # Every unit converts by a positive factor, so a sign bound on the value
    # holds in any unit.
    fields = record(value=number(**bounds), unit=enum(*units))

    def check(node, where):
        q = fields.check(node, where)
        try:
            return convert(Quantity(q["value"], Unit(q["unit"])), target).value
        except DomainError:
            message = f"{q['value']!r} {q['unit']} is not finite in {target.value}"
            raise _fail(where, message) from None

    return Field(fields.schema, check, default)


def angular(default=_REQUIRED, **bounds) -> Field:
    """A frequency, rate or energy; coerces to rad/s. ``bounds`` apply to
    its value, as for ``number``."""
    return _quantity(Unit.RAD_PER_S, _ANGULAR_UNITS, default, bounds)


def seconds(default=_REQUIRED, **bounds) -> Field:
    """A time; coerces to s."""
    return _quantity(Unit.SECOND, [Unit.SECOND.value], default, bounds)


def kelvin(default=_REQUIRED, **bounds) -> Field:
    """A temperature; coerces to K."""
    return _quantity(Unit.KELVIN, [Unit.KELVIN.value], default, bounds)


def number(default=_REQUIRED, **bounds) -> Field:
    """A finite float; ``bounds`` are ``minimum`` or ``exclusiveMinimum``."""
    return _bounded("number", _finite, default, bounds)


def integer(minimum: int, default=_REQUIRED) -> Field:
    return _bounded("integer", lambda node, where: int(node), default, {"minimum": minimum})


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

    return Field(schema, check, default)


def record(default=_REQUIRED, **fields: Field) -> Field:
    """An object with at most these keys; coerces to a dict holding every key,
    where a key left out takes its field's default."""
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
        return {
            key: f.check(node[key], _join(where, key)) if key in node else f.default
            for key, f in fields.items()
        }

    return Field(schema, check, default)


def nullable(field: Field) -> Field:
    """``field`` or null; null and absence both coerce to None."""

    def check(node, where):
        return None if node is None else field.check(node, where)

    return Field({"oneOf": [{"type": "null"}, field.schema]}, check, None)


def _nucleus() -> Field:
    """A nuclear spin. Its hyperfine tensor coerces to rad/s through the
    sibling ``hyperfine_unit``; the result holds NucleusSpec's keywords."""
    fields = record(
        spin=literal(SPIN_PATTERN, Fraction, "a positive half-integer such as '3/2'"),
        hyperfine_tensor=array(array(number(), 3), 3),
        hyperfine_unit=enum(*_ANGULAR_UNITS),
        gyromagnetic_ratio=number(default=GAMMA_PROTON),
    )

    def check(node, where):
        nucleus = fields.check(node, where)
        unit = Unit(nucleus.pop("hyperfine_unit"))
        factor = convert(Quantity(1.0, unit), Unit.RAD_PER_S).value
        nucleus["hyperfine_tensor"] = [
            [_finite(factor * x, f"{where}.hyperfine_tensor") for x in row]
            for row in nucleus["hyperfine_tensor"]
        ]
        return nucleus

    return Field(fields.schema, check)


_STRING = _typed("string")
_KET = literal(KET_PATTERN, parse_ket, f"a canonical ket literal such as {KET_EXAMPLE!r}")
_GRID = record(start=angular(), stop=angular(), points=integer(2))
_TIME_AXIS = record(stop=seconds(exclusiveMinimum=0), points=integer(2))
_PULSE = record(
    peak_rabi=angular(minimum=0), center=seconds(), width=seconds(exclusiveMinimum=0)
)


def _phonon_density(**bounds) -> Field:
    """A phonon spectral density; ``bounds`` apply to both frequencies."""
    return record(
        coupling_weight=number(minimum=0),
        peak_frequency=angular(**bounds),
        cutoff_frequency=angular(**bounds),
    )


_SPIN_SYSTEM = record(
    zfs_d=angular(),
    zfs_e=angular(),
    magnetic_field_tesla=array(number(), 3, default=(0.0, 0.0, 0.0)),
    g_electron=number(default=spin.G_ELECTRON_DEFAULT),
    nuclei=array(_nucleus(), default=()),
)
_TWO_LEVEL = record(
    rabi=angular(),
    detuning=angular(),
    decay=angular(minimum=0),
    dephasing=angular(default=0.0, minimum=0),
)

# Bounds: each minimum or exclusiveMinimum below is a sign rule that the
# kind's runner or a domain constructor it always calls enforces as well;
# rules that span several fields (grid start < stop, port couplings <= kappa)
# stay with the constructors. relaxation_classify builds the density of its
# rate model whatever the channel; the model's temperature is used, and its
# bound enforced by two_phonon_rate, only on the two-phonon channel.
PARAMETERS = {
    "spin_spectrum": record(
        spin_system=_SPIN_SYSTEM, grid=_GRID, linewidth=angular(exclusiveMinimum=0)
    ),
    "odmr": record(
        network=record(
            states=array(_KET, unique=True),
            rates=array(record(source=_KET, target=_KET, rate=angular(minimum=0))),
            emissive=array(_KET),
        ),
        mw_pair=array(enum("x", "y", "z"), 2, unique=True),
        mw_mixing_rate=angular(minimum=0),
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
                ),
                default=(),
            ),
            phonon_density=nullable(_phonon_density(exclusiveMinimum=0)),
            extra_linewidth=angular(default=0.0, minimum=0),
        ),
        grid=_GRID,
    ),
    "relaxation_classify": record(
        vibron_frequency=angular(exclusiveMinimum=0),
        phonon_cutoff=angular(exclusiveMinimum=0),
        other_vibrons=array(angular(exclusiveMinimum=0), default=()),
        rate_model=record(
            density=_phonon_density(exclusiveMinimum=0),
            coupling=number(),
            temperature=kelvin(minimum=0),
            default=None,
        ),
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
    ),
    "cavity_interface": record(
        g=angular(minimum=0),
        kappa=angular(exclusiveMinimum=0),
        kappa_in=angular(minimum=0),
        kappa_out=angular(minimum=0),
        gamma=angular(minimum=0),
        emitter_coupled=_typed("boolean", default=True),
        grid=_GRID,
    ),
    "optomech": record(
        g0=angular(minimum=0),
        omega_v=angular(exclusiveMinimum=0),
        kappa_v=angular(exclusiveMinimum=0),
        gamma0=angular(exclusiveMinimum=0),
        temperature=kelvin(minimum=0),
        n_bar=nullable(number(minimum=0)),
    ),
    "screening": record(
        input_csv=_STRING,
        criteria=record(
            min_t1_ev=number(default=screening.DEFAULT_MIN_T1_EV),
            max_s1_ev=number(default=screening.DEFAULT_MAX_S1_EV),
            default={
                "min_t1_ev": screening.DEFAULT_MIN_T1_EV,
                "max_s1_ev": screening.DEFAULT_MAX_S1_EV,
            },
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


def validate_config(config) -> list[dict]:
    """Check a config and coerce its parameters.

    Returns the coerced parameters to run: one entry for a plain run, or one
    per sweep value, in order. Each sweep value is put in place and checked
    with the rest of the parameters, so a bad value is named by the path of
    the swept leaf. Raises ConfigError naming the path of the first
    violation.
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    kind = config.get("scenario_kind")
    if not isinstance(kind, str) or kind not in PARAMETERS:
        raise ConfigError(
            f"scenario_kind must be one of {', '.join(SCENARIO_KINDS)}, got {kind!r}"
        )
    checked = _ENVELOPES[kind].check(config, "")
    sweep = checked["sweep"]
    if sweep is None:
        return [checked["parameters"]]
    points = []
    for value in sweep["values"]:
        params = _with_value(config["parameters"], sweep["parameter"], value)
        points.append(PARAMETERS[kind].check(params, "parameters"))
    return points


def _spin_system(p: dict) -> spin.SpinSystemSpec:
    return spin.SpinSystemSpec(
        zfs_d=p["zfs_d"],
        zfs_e=p["zfs_e"],
        magnetic_field=p["magnetic_field_tesla"],
        g_electron=p["g_electron"],
        nuclei=tuple(spin.NucleusSpec(**n) for n in p["nuclei"]),
    )


def _two_level(p: dict):
    from . import dynamics

    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # basis (g, e)
    project_e = np.diag([0.0, 1.0]).astype(complex)
    h = p["detuning"] * project_e + 0.5 * p["rabi"] * (lower + lower.conj().T)
    return dynamics.OpenSystem(h, ((lower, p["decay"]), (project_e, p["dephasing"])))


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


def _cells(column, where: str):
    """The text of one column: a float ndarray is checked in one vectorized
    call and formatted with ``repr``; anything else goes through ``_fmt``."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        finite = np.isfinite(column)
        if not finite.all():
            raise _nonfinite(where, column[~finite][0].item())
        return map(repr, column.tolist())
    return [_fmt(x, where) for x in column]


def _csv_bytes(name: str, header, columns) -> bytes:
    """Render the artifact ``name``: a header row, then one row per index of
    the equally long ``columns``."""
    cells = [_cells(col, f"{name} column {title!r}") for title, col in zip(header, columns)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*cells))
    return buf.getvalue().encode()


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


# --- scenario runners --------------------------------------------------------
#
# Each runner maps coerced parameters to (scalars, tables); scalars are
# flat key -> scalar (these populate result.json and sweep columns),
# tables are file name -> (header, columns), where a column is a float
# ndarray or a list of scalars. Runners do not render: run_scenario renders
# the tables of a plain run and drops those of each sweep point. A runner
# owns the coerced dict it is given and may replace entries in it by the
# objects built from them.


def _run_spin_spectrum(params, _ctx):
    system = _spin_system(params["spin_system"])
    eig = spin.diagonalize(spin.build_spin_hamiltonian(system))
    freqs, response = spin.odmr_spectrum(
        system, FrequencyGrid(**params["grid"]), params["linewidth"], eig
    )
    gaps = np.diff(eig.energies)
    scalars = {
        "level_count": len(eig.energies),
        "smallest_gap_hz": float(gaps.min() / TWO_PI) if len(gaps) else 0.0,
        "largest_gap_hz": float((eig.energies[-1] - eig.energies[0]) / TWO_PI),
    }
    tables = {
        "spectrum.csv": (("frequency_hz", "response"), (freqs / TWO_PI, response)),
        "levels.csv": (
            ("index", "energy_hz"),
            (range(len(eig.energies)), eig.energies / TWO_PI),
        ),
    }
    return scalars, tables


def _run_odmr(params, _ctx):
    from . import dynamics

    node = params["network"]
    rates = {}
    for i, r in enumerate(node["rates"]):
        pair = (r["source"], r["target"])
        if pair in rates:
            raise _fail(f"parameters.network.rates.{i}", f"a second rate from {pair[0]} to {pair[1]}")
        rates[pair] = r["rate"]
    try:
        network = dynamics.RateNetwork(
            node["states"],
            rates,
            dict.fromkeys(node["states"], False) | dict.fromkeys(node["emissive"], True),
        )
    except ValueError as exc:
        raise ConfigError(f"at parameters.network: {exc}") from None
    contrast = dynamics.odmr_contrast(network, params["mw_pair"], params["mw_mixing_rate"])
    return {"contrast": contrast}, {}


def _run_crot(params, _ctx):
    result = spin.crot_gate(
        _spin_system(params["spin_system"]),
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
    return scalars, {"unitary.csv": (header, list(flat))}


def _run_emission_spectrum(params, _ctx):
    from . import vibronic

    node = params["model"]
    node["vibron_modes"] = tuple(vibronic.VibronMode(**m) for m in node["vibron_modes"])
    if node["phonon_density"] is not None:
        node["phonon_density"] = vibronic.PhononSpectralDensity(**node["phonon_density"])
    model = vibronic.VibronicModel(**node)
    spectrum = vibronic.emission_spectrum(model, FrequencyGrid(**params["grid"]))
    # The ZPL branching ratio equals the Debye-Waller factor by construction.
    scalars = {
        "debye_waller": spectrum.zpl_weight,
        "zpl_branching_ratio": spectrum.zpl_weight,
        "zpl_linewidth_hz": model.zpl_linewidth / TWO_PI,
    }
    table = (
        ("frequency_hz", "normalized_intensity"),
        (spectrum.frequencies / TWO_PI, spectrum.intensity),
    )
    return scalars, {"spectrum.csv": table}


def _run_relaxation_classify(params, _ctx):
    from . import relaxation, vibronic

    rm = params.pop("rate_model")
    density = None if rm is None else vibronic.PhononSpectralDensity(**rm["density"])
    data = relaxation.RelaxationInput(**params)
    channel = relaxation.classify_relaxation(data)
    scalars = {"channel": channel.value, "two_phonon_rate": 0.0}
    if density is not None and channel is relaxation.RelaxationChannel.TWO_PHONON:
        scalars["two_phonon_rate"] = relaxation.two_phonon_rate(
            data.vibron_frequency,
            density,
            coupling=rm["coupling"],
            temperature=rm["temperature"],
        )
    return scalars, {}


def _run_lindblad(params, _ctx):
    from . import dynamics

    system = _two_level(params["system"])
    stop, points = params["times"]["stop"], params["times"]["points"]
    times = np.linspace(0.0, stop, points)
    ground = params["initial_state"] == "ground"
    rho0 = np.diag([1.0, 0.0] if ground else [0.0, 1.0]).astype(complex)
    states = dynamics.evolve(system, rho0, times)
    rho_ss = dynamics.steady_state(system)
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
    )
    return scalars, {"trajectory.csv": table}


def _run_g2(params, _ctx):
    from . import dynamics

    system = _two_level(params["system"])
    stop, points = params["taus"]["stop"], params["taus"]["points"]
    taus = np.linspace(0.0, stop, points)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    values = dynamics.g2_correlation(system, lower, taus)
    scalars = {"g2_zero": float(values[0]), "g2_final": float(values[-1])}
    return scalars, {"g2.csv": (("tau_s", "g2"), (taus, values))}


def _run_raman_memory(params, ctx):
    from . import protocols

    for name in ("signal_pulse", "control_pulse"):
        params[name] = protocols.Pulse(**params[name])
    spec = protocols.RamanMemorySpec(**params)
    # Sweep points of one run that differ only in the hold share one write
    # stage; the dict lives in ctx, so nothing outlives the run.
    stored = ctx.setdefault("raman_storage", {})
    write_stage = replace(spec, storage_hold=0.0)
    storage, total = protocols.raman_memory_efficiency(spec, stored.get(write_stage))
    stored[write_stage] = storage
    return {"storage_efficiency": storage, "total_efficiency": total}, {}


def _run_cavity_interface(params, _ctx):
    from . import protocols

    detunings = FrequencyGrid(**params.pop("grid")).frequencies
    spec = protocols.CavityInterfaceSpec(**params)
    # Detuning 0 rides along as one extra point at the end of the grid.
    reflection, transmission = protocols.cavity_response(spec, np.append(detunings, 0.0))
    r0, t0 = reflection[-1:], transmission[-1:]
    reflectance = np.abs(reflection[:-1]) ** 2
    transmittance = np.abs(transmission[:-1]) ** 2
    loss = 1.0 - reflectance - transmittance
    scalars = {
        "cooperativity": spec.cooperativity,
        "on_resonance_reflectance": float(abs(r0[0]) ** 2),
        "on_resonance_transmittance": float(abs(t0[0]) ** 2),
        "spin_photon_fidelity": protocols.spin_photon_fidelity(spec, (r0, t0)),
    }
    table = (
        ("detuning_hz", "reflectance", "transmittance", "loss"),
        (detunings / TWO_PI, reflectance, transmittance, loss),
    )
    return scalars, {"response.csv": table}


def _run_optomech(params, _ctx):
    from . import protocols

    n_bar = params.pop("n_bar")
    result = protocols.optomech_cooperativity(protocols.OptomechParams(**params), n_bar)
    scalars = {
        "cooperativity": result.cooperativity,
        "thermal_occupation": result.thermal_occupation,
        "ultrastrong": result.ultrastrong,
    }
    return scalars, {}


def _run_screening(params, ctx):
    raw = Path(params["input_csv"])
    path = raw if raw.is_absolute() else ctx["config_dir"] / raw
    result = screening.ingest(path)
    criteria = screening.SelectionCriteria(**params["criteria"])
    chosen = screening.select_candidates(result, criteria)
    fit = screening.fit_linear_scaling(result)
    scalars = {
        "record_count": len(result),
        "rejected_count": len(result.rejected),
        "candidate_count": len(chosen),
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
    }
    columns = [
        [r.name for r in chosen],
        [r.carbon_count for r in chosen],
        [r.e_s1_ev for r in chosen],
        [r.e_t1_ev for r in chosen],
        [r.centrosymmetric for r in chosen],
    ]
    return scalars, {"candidates.csv": (screening.CSV_COLUMNS, columns)}


_RUNNERS = {
    "spin_spectrum": _run_spin_spectrum,
    "odmr": _run_odmr,
    "crot": _run_crot,
    "emission_spectrum": _run_emission_spectrum,
    "relaxation_classify": _run_relaxation_classify,
    "lindblad": _run_lindblad,
    "g2": _run_g2,
    "raman_memory": _run_raman_memory,
    "cavity_interface": _run_cavity_interface,
    "optomech": _run_optomech,
    "screening": _run_screening,
}


# --- sweep plumbing and the driver ------------------------------------------


def _invoke(runner, params, ctx):
    # Constructor ValueErrors at this point come from config-derived values.
    try:
        return runner(params, ctx)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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

    A plain run renders the runner's tables and result.json; a sweep keeps
    only each point's scalars and renders sweep.csv. All files are staged in
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
    if not out.is_absolute():
        out = Path(config_dir) / out
    ctx = {"config_dir": Path(config_dir)}
    runner = _RUNNERS[kind]

    files: dict[str, bytes] = {}
    sweep = config.get("sweep")
    if sweep:
        results = [_invoke(runner, params, ctx)[0] for params in points]
        keys = sorted(results[0])
        columns = [sweep["values"], *([point[k] for point in results] for k in keys)]
        files["sweep.csv"] = _csv_bytes("sweep.csv", [sweep["parameter"], *keys], columns)
    else:
        scalars, tables = _invoke(runner, points[0], ctx)
        for name, (header, columns) in tables.items():
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

"""Scenario configs: validation, execution, and deterministic artifacts.

A scenario is a JSON document naming one computation kind plus its
parameters, optionally swept over one dotted parameter path. Runs write
their artifacts atomically (temp file + rename) into an output directory
together with a manifest of content hashes; identical config and seed give
byte-identical files. All randomness is opt-in and none of the shipped
kinds use any; the seed is recorded for provenance.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from jsonschema import Draft202012Validator

from . import dynamics, levels, protocols, relaxation, screening, spin, vibronic
from .errors import ConfigError, DomainError
from .units import GAMMA_PROTON, FrequencyGrid, Quantity, Unit, convert

SCHEMA_VERSION = 1

_ANGULAR_UNITS = ["eV", "THz", "GHz", "MHz", "kHz", "rad/s"]
_REQUIRED = object()


# --- parameter fields --------------------------------------------------------
#
# Each parameter is declared once, as a Field in the table of its scenario
# kind. The field yields its JSON-schema fragment and its coercion from a
# schema-valid node to the plain value the runners take: quantities become
# floats in rad/s, s or K, and every number must be finite.


@dataclass(frozen=True)
class Field:
    """One parameter: JSON-schema fragment, coercion and default.

    ``coerce(node, where)`` maps a node that passed ``schema`` to its value;
    ``where`` is the node's dotted path, named in any ConfigError. A field
    whose default is ``_REQUIRED`` must be present in its record.
    """

    schema: dict
    coerce: Callable[[object, str], object] = lambda node, where: node
    default: object = _REQUIRED


def _finite(x, where: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ConfigError(f"at {where}: must be a finite number, got {x!r}")
    return x


def _quantity(target: Unit, units: list[str], default) -> Field:
    def coerce(node, where):
        value = _finite(node["value"], f"{where}.value")
        try:
            return convert(Quantity(value, Unit(node["unit"])), target).value
        except DomainError:
            raise ConfigError(
                f"at {where}: {value!r} {node['unit']} is not finite in {target.value}"
            ) from None

    schema = {
        "type": "object",
        "properties": {"value": {"type": "number"}, "unit": {"enum": units}},
        "required": ["value", "unit"],
        "additionalProperties": False,
    }
    return Field(schema, coerce, default)


def angular(default=_REQUIRED) -> Field:
    """A frequency, rate or energy; coerces to rad/s."""
    return _quantity(Unit.RAD_PER_S, _ANGULAR_UNITS, default)


def seconds(default=_REQUIRED) -> Field:
    """A time; coerces to s."""
    return _quantity(Unit.SECOND, [Unit.SECOND.value], default)


def kelvin(default=_REQUIRED) -> Field:
    """A temperature; coerces to K."""
    return _quantity(Unit.KELVIN, [Unit.KELVIN.value], default)


def number(default=_REQUIRED, **bounds) -> Field:
    """A finite float; ``bounds`` are JSON-schema keywords such as minimum."""
    return Field({"type": "number", **bounds}, _finite, default)


def integer(minimum: int) -> Field:
    return Field({"type": "integer", "minimum": minimum}, lambda node, where: int(node))


def enum(*values) -> Field:
    return Field({"enum": list(values)})


def array(item: Field, length: int | None = None, default=_REQUIRED) -> Field:
    """A list of ``item``, of exactly ``length`` entries if given; coerces to a tuple."""
    schema = {"type": "array", "items": item.schema}
    if length is not None:
        schema.update(minItems=length, maxItems=length)

    def coerce(node, where):
        return tuple(item.coerce(x, f"{where}.{i}") for i, x in enumerate(node))

    return Field(schema, coerce, default)


def record(default=_REQUIRED, **fields: Field) -> Field:
    """An object with at most these keys; coerces to a dict holding every key,
    where a key left out takes its field's default."""
    schema = {
        "type": "object",
        "properties": {key: f.schema for key, f in fields.items()},
        "required": [key for key, f in fields.items() if f.default is _REQUIRED],
        "additionalProperties": False,
    }

    def coerce(node, where):
        return {
            key: f.coerce(node[key], f"{where}.{key}") if key in node else f.default
            for key, f in fields.items()
        }

    return Field(schema, coerce, default)


def nullable(field: Field) -> Field:
    """``field`` or null; null and absence both coerce to None."""

    def coerce(node, where):
        return None if node is None else field.coerce(node, where)

    return Field({"oneOf": [{"type": "null"}, field.schema]}, coerce, None)


def _nucleus() -> Field:
    """A nuclear spin. Its hyperfine tensor coerces to rad/s through the
    sibling ``hyperfine_unit``; the result holds NucleusSpec's keywords."""
    fields = record(
        spin=_STRING,
        hyperfine_tensor=array(array(number(), 3), 3),
        hyperfine_unit=enum(*_ANGULAR_UNITS),
        gyromagnetic_ratio=number(default=GAMMA_PROTON),
    )

    def coerce(node, where):
        nucleus = fields.coerce(node, where)
        unit = Unit(nucleus.pop("hyperfine_unit"))
        factor = convert(Quantity(1.0, unit), Unit.RAD_PER_S).value
        nucleus["hyperfine_tensor"] = [
            [_finite(factor * x, f"{where}.hyperfine_tensor") for x in row]
            for row in nucleus["hyperfine_tensor"]
        ]
        return nucleus

    return Field(fields.schema, coerce)


_STRING = Field({"type": "string"})
_GRID = record(start=angular(), stop=angular(), points=integer(2))
_TIME_AXIS = record(stop=seconds(), points=integer(2))
_PULSE = record(peak_rabi=angular(), center=seconds(), width=seconds())
_PHONON_DENSITY = record(
    coupling_weight=number(minimum=0),
    peak_frequency=angular(),
    cutoff_frequency=angular(),
)
_SPIN_SYSTEM = record(
    zfs_d=angular(),
    zfs_e=angular(),
    magnetic_field_tesla=array(number(), 3, default=(0.0, 0.0, 0.0)),
    g_electron=number(default=spin.G_ELECTRON_DEFAULT),
    nuclei=array(_nucleus(), default=()),
)
_TWO_LEVEL = record(
    rabi=angular(), detuning=angular(), decay=angular(), dephasing=angular(default=0.0)
)

PARAMETERS = {
    "spin_spectrum": record(spin_system=_SPIN_SYSTEM, grid=_GRID, linewidth=angular()),
    "odmr": record(
        network=record(
            states=array(_STRING),
            rates=array(record(source=_STRING, target=_STRING, rate=angular())),
            emissive=array(_STRING),
        ),
        mw_pair=array(enum("x", "y", "z"), 2),
        mw_mixing_rate=angular(),
    ),
    "crot": record(
        spin_system=_SPIN_SYSTEM,
        drive_frequency=angular(),
        rabi_frequency=angular(),
        duration=seconds(),
        drive_axis=array(number(), 3, default=(1.0, 0.0, 0.0)),
    ),
    "emission_spectrum": record(
        model=record(
            zpl_frequency=angular(),
            radiative_rate=angular(),
            temperature=kelvin(),
            vibron_modes=array(
                record(
                    frequency=angular(),
                    huang_rhys=number(minimum=0),
                    relaxation_rate=angular(),
                ),
                default=(),
            ),
            phonon_density=nullable(_PHONON_DENSITY),
            extra_linewidth=angular(default=0.0),
        ),
        grid=_GRID,
    ),
    "relaxation_classify": record(
        vibron_frequency=angular(),
        phonon_cutoff=angular(),
        other_vibrons=array(angular(), default=()),
        rate_model=record(
            density=_PHONON_DENSITY, coupling=number(), temperature=kelvin(), default=None
        ),
    ),
    "lindblad": record(
        system=_TWO_LEVEL, initial_state=enum("ground", "excited"), times=_TIME_AXIS
    ),
    "g2": record(system=_TWO_LEVEL, taus=_TIME_AXIS),
    "raman_memory": record(
        gamma0=angular(),
        kappa_v=angular(),
        detuning=angular(),
        signal_pulse=_PULSE,
        control_pulse=_PULSE,
        storage_hold=seconds(),
    ),
    "cavity_interface": record(
        g=angular(),
        kappa=angular(),
        kappa_in=angular(),
        kappa_out=angular(),
        gamma=angular(),
        emitter_coupled=Field({"type": "boolean"}, default=True),
        grid=_GRID,
    ),
    "optomech": record(
        g0=angular(),
        omega_v=angular(),
        kappa_v=angular(),
        gamma0=angular(),
        temperature=kelvin(),
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


def config_schema(kind: str) -> dict:
    """The full JSON schema for one scenario kind."""
    if kind not in PARAMETERS:
        raise ConfigError(
            f"unknown scenario kind {kind!r}; expected one of {', '.join(SCENARIO_KINDS)}"
        )
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "scenario_kind": {"const": kind},
            "parameters": PARAMETERS[kind].schema,
            "sweep": {
                "type": "object",
                "properties": {
                    "parameter": {"type": "string"},
                    "values": {
                        "type": "array",
                        "items": {"type": ["number", "string", "boolean"]},
                        "minItems": 1,
                    },
                },
                "required": ["parameter", "values"],
                "additionalProperties": False,
            },
            "output_dir": {"type": "string"},
            "seed": {"type": "integer", "minimum": 0},
        },
        "required": ["schema_version", "scenario_kind", "parameters"],
        "additionalProperties": False,
    }


def _check(schema: dict, instance, where: str) -> None:
    """Raise ConfigError describing the first (deepest-path) violation."""
    errors = sorted(
        Draft202012Validator(schema).iter_errors(instance),
        key=lambda e: (-len(e.absolute_path), str(e.absolute_path)),
    )
    if errors:
        err = errors[0]
        path = ".".join([where, *map(str, err.absolute_path)]).lstrip(".")
        raise ConfigError(f"at {path or '<root>'}: {err.message}")


def _leaf_schema(schema: dict, dotted: str) -> dict:
    """The schema of the node at a dotted parameter path."""
    for tok in dotted.split("."):
        schema = next((s for s in schema.get("oneOf", ()) if s != {"type": "null"}), schema)
        if "properties" in schema and tok in schema["properties"]:
            schema = schema["properties"][tok]
        elif "items" in schema:
            schema = schema["items"]
        else:
            raise ConfigError(f"sweep parameter path {dotted!r} does not resolve")
    return schema


def validate_config(config) -> list[dict]:
    """Check a config and coerce its parameters.

    Returns the coerced parameters to run: one entry for a plain run, or one
    per sweep value, in order. A sweep value is checked against the schema of
    the swept leaf only. Raises ConfigError naming the path of the first
    violation.
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    kind = config.get("scenario_kind")
    if not isinstance(kind, str) or kind not in PARAMETERS:
        raise ConfigError(
            f"scenario_kind must be one of {', '.join(SCENARIO_KINDS)}, got {kind!r}"
        )
    _check(config_schema(kind), config, "")
    table = PARAMETERS[kind]
    sweep = config.get("sweep")
    if not sweep:
        return [table.coerce(config["parameters"], "parameters")]
    dotted = sweep["parameter"]
    leaf = _leaf_schema(table.schema, dotted)
    points = []
    for value in sweep["values"]:
        _check(leaf, value, f"parameters.{dotted}")
        params = copy.deepcopy(config["parameters"])
        _set_path(params, dotted, value)
        points.append(table.coerce(params, "parameters"))
    return points


def _spin_system(p: dict) -> spin.SpinSystemSpec:
    return spin.SpinSystemSpec(
        zfs_d=p["zfs_d"],
        zfs_e=p["zfs_e"],
        magnetic_field=p["magnetic_field_tesla"],
        g_electron=p["g_electron"],
        nuclei=tuple(spin.NucleusSpec(**n) for n in p["nuclei"]),
    )


def _two_level(p: dict) -> dynamics.OpenSystem:
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # basis (g, e)
    project_e = np.diag([0.0, 1.0]).astype(complex)
    h = p["detuning"] * project_e + 0.5 * p["rabi"] * (lower + lower.conj().T)
    channels = [(lower, p["decay"])]
    if p["dephasing"] > 0.0:
        channels.append((project_e, p["dephasing"]))
    return dynamics.OpenSystem(h, tuple(channels))


# --- CSV / JSON byte renderers ----------------------------------------------
#
# No artifact holds NaN or inf: each renderer raises DomainError naming the
# artifact and the column or key of the first non-finite value.


def _nonfinite(where: str, x) -> DomainError:
    return DomainError(f"{where}: non-finite value {x!r}")


def _fmt(x, where: str) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if not math.isfinite(x):
            raise _nonfinite(where, x)
        return repr(x)
    return str(x)


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

_TWO_PI = 2.0 * math.pi


def _run_spin_spectrum(params, _ctx):
    system = _spin_system(params["spin_system"])
    eig = spin.diagonalize(spin.build_spin_hamiltonian(system))
    freqs, response = spin.odmr_spectrum(
        system, FrequencyGrid(**params["grid"]), params["linewidth"], eig
    )
    gaps = np.diff(eig.energies)
    scalars = {
        "level_count": len(eig.energies),
        "smallest_gap_hz": float(gaps.min() / _TWO_PI) if len(gaps) else 0.0,
        "largest_gap_hz": float((eig.energies[-1] - eig.energies[0]) / _TWO_PI),
    }
    tables = {
        "spectrum.csv": (("frequency_hz", "response"), (freqs / _TWO_PI, response)),
        "levels.csv": (
            ("index", "energy_hz"),
            (range(len(eig.energies)), eig.energies / _TWO_PI),
        ),
    }
    return scalars, tables


def _parse_network(node):
    states = tuple(levels.parse_ket(s) for s in node["states"])
    rates = {}
    for item in node["rates"]:
        key = (levels.parse_ket(item["source"]), levels.parse_ket(item["target"]))
        rates[key] = item["rate"]
    flags = {k: False for k in states}
    for s in node["emissive"]:
        flags[levels.parse_ket(s)] = True
    return dynamics.RateNetwork(states, rates, flags)


def _run_odmr(params, _ctx):
    try:
        network = _parse_network(params["network"])
    except ValueError as exc:
        raise ConfigError(f"at network: {exc}") from None
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
        "zpl_linewidth_hz": model.zpl_linewidth / _TWO_PI,
    }
    table = (
        ("frequency_hz", "normalized_intensity"),
        (spectrum.frequencies / _TWO_PI, spectrum.intensity),
    )
    return scalars, {"spectrum.csv": table}


def _run_relaxation_classify(params, _ctx):
    rm = params.pop("rate_model")
    data = relaxation.RelaxationInput(**params)
    channel = relaxation.classify_relaxation(data)
    scalars = {"channel": channel.value, "two_phonon_rate": 0.0}
    if rm is not None and channel is relaxation.RelaxationChannel.TWO_PHONON:
        scalars["two_phonon_rate"] = relaxation.two_phonon_rate(
            data.vibron_frequency,
            vibronic.PhononSpectralDensity(**rm["density"]),
            coupling=rm["coupling"],
            temperature=rm["temperature"],
        )
    return scalars, {}


def _run_lindblad(params, _ctx):
    system = _two_level(params["system"])
    stop, points = params["times"]["stop"], params["times"]["points"]
    if stop <= 0.0:
        raise ConfigError("times.stop must be positive")
    times = np.linspace(0.0, stop, points)
    rho0 = (
        np.diag([1.0, 0.0]).astype(complex)
        if params["initial_state"] == "ground"
        else np.diag([0.0, 1.0]).astype(complex)
    )
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
    system = _two_level(params["system"])
    stop, points = params["taus"]["stop"], params["taus"]["points"]
    if stop <= 0.0:
        raise ConfigError("taus.stop must be positive")
    taus = np.linspace(0.0, stop, points)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    values = dynamics.g2_correlation(system, lower, taus)
    scalars = {"g2_zero": float(values[0]), "g2_final": float(values[-1])}
    return scalars, {"g2.csv": (("tau_s", "g2"), (taus, values))}


def _run_raman_memory(params, _ctx):
    for name in ("signal_pulse", "control_pulse"):
        params[name] = protocols.Pulse(**params[name])
    spec = protocols.RamanMemorySpec(**params)
    storage, total = protocols.raman_memory_efficiency(spec)
    return {"storage_efficiency": storage, "total_efficiency": total}, {}


def _run_cavity_interface(params, _ctx):
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
        (detunings / _TWO_PI, reflectance, transmittance, loss),
    )
    return scalars, {"response.csv": table}


def _run_optomech(params, _ctx):
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


def _set_path(tree: dict, dotted: str, value):
    tokens = dotted.split(".")
    node = tree
    for tok in tokens[:-1]:
        if isinstance(node, list):
            try:
                node = node[int(tok)]
            except (ValueError, IndexError):
                raise ConfigError(f"sweep parameter path {dotted!r} does not resolve")
        elif isinstance(node, dict) and tok in node:
            node = node[tok]
        else:
            raise ConfigError(f"sweep parameter path {dotted!r} does not resolve")
    leaf = tokens[-1]
    if isinstance(node, list):
        try:
            node[int(leaf)] = value
        except (ValueError, IndexError):
            raise ConfigError(f"sweep parameter path {dotted!r} does not resolve")
    elif isinstance(node, dict) and leaf in node:
        node[leaf] = value
    else:
        raise ConfigError(f"sweep parameter path {dotted!r} does not resolve")


def _atomic_write(path: Path, data: bytes):
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    try:
        with path.open() as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


def run_scenario(config: dict, config_dir, output_dir=None) -> Path:
    """Validate and execute one scenario; returns the output directory.

    The manifest plus all artifacts are staged in memory and written
    atomically at the end, so a failing run leaves no partial artifact
    behind. A plain run renders the runner's tables and result.json; a
    sweep keeps only each point's scalars and renders sweep.csv.
    """
    points = validate_config(config)
    kind = config["scenario_kind"]
    seed = int(config.get("seed", 0))
    out = Path(output_dir) if output_dir else Path(config.get("output_dir", "."))
    if not out.is_absolute():
        out = Path(config_dir) / out
    ctx = {"config_dir": Path(config_dir), "seed": seed}
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
    for name, data in sorted(files.items()):
        _atomic_write(out / name, data)
    _atomic_write(out / "manifest.json", _json_bytes(manifest))
    return out

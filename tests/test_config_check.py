"""Config checking against the field tables.

The schema that ``hostguest schema`` prints is pinned by SHA-256 per kind.
The field-table check is compared with jsonschema, used here as an oracle
only: each shipped config and a fixed list of single-field mutations must
be accepted or rejected by both alike. Every angular field and hyperfine
entry converts to rad/s by its unit's factor. The cold path is guarded: importing
the CLI or validating a config loads neither scipy nor jsonschema, running
any kind does not load scipy, and printing a schema or validating a config
loads only the physics modules of its kind.
"""

import copy
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from hostguest.cli import main
from hostguest.errors import ConfigError
from hostguest.scenarios import SCENARIO_KINDS, config_schema, load_config, validate_config
from hostguest.units import FrequencyGrid

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "scenarios"

SCHEMA_SHA256 = {
    "cavity_interface": "e331575ecee60884b9b4cb20883d849594e2771fa4b1d490602bfb0d51ae1a52",
    "crot": "cb817b89df36d8341344c15486ee48cbff8cd6986d625e40816b9d373566e29a",
    "emission_spectrum": "8fcdf21e728f148cb370b9e6ff82ba268e6f18daf3d7f007223c685581502620",
    "g2": "60a9ee2ef006f7a333b0a6b35483a5f22d9d01fea05d81b593693f68855f0663",
    "lindblad": "059ad3be6711199fc09dc570998ecc2f26ad9c63f609b1a8254e55c96f4e9e6d",
    "odmr": "d06f8c6484d4953918add920623fe57235b28ff82f2745b32084f2cfb58c98d8",
    "optomech": "16168f7c5639b3c98652afb99d0c36ffef45c6c7c1724345fc45e8b60923a2a3",
    "raman_memory": "64c4d212e22f2101c0b248a2ff9929a19ff0aab42fbc22bb49243760b8b60d15",
    "relaxation_classify": "ce9ba353881a053df3d05bab9195b5733339da9bb2c601b8bb61a9c522894ea0",
    "screening": "fc89251cb8984d7750efed2e5ae87744afc8cc6a789df01c30b2fc87bb302277",
    "spin_spectrum": "b40a06b074692918c9c2df132ebeb49bc76d061f67a88e7778c660c4fdde9058",
}


def test_every_kind_has_a_pinned_schema():
    assert sorted(SCHEMA_SHA256) == sorted(SCENARIO_KINDS)


@pytest.mark.parametrize("kind", sorted(SCHEMA_SHA256))
def test_schema_output_matches_pinned_hash(kind, capsys):
    assert main(["schema", kind]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCHEMA_SHA256[kind]


# --- agreement with jsonschema ----------------------------------------------

DELETE = object()
_ODMR_STATES = load_config(SCENARIO_DIR / "odmr.json")["parameters"]["network"]["states"]

# (kind, dotted path in the config, new value or DELETE, where): ``where`` is
# None for an input both checks accept, else the dotted path that the
# ConfigError of the field-table check starts with.
# Three kinds of reject stay out, because jsonschema accepts them: a ket that
# fits the pattern but not the ket rules, such as a projection beyond its
# spin; a literal with a trailing newline, which the ``$`` of Python's
# ``re.search`` admits and ECMA-262's does not; and a rule across fields
# that a domain constructor holds, such as an emissive ket missing from the
# network's states. test_cli covers all three.
MUTATIONS = [
    ("lindblad", "parameters.system.rabi.value", "5", "parameters.system.rabi.value"),
    ("lindblad", "parameters.system.rabi.value", True, "parameters.system.rabi.value"),
    ("lindblad", "parameters.system.rabi.value", 5, None),
    ("lindblad", "parameters.system.rabi.unit", "furlongs", "parameters.system.rabi.unit"),
    ("lindblad", "parameters.system.decay", None, "parameters.system.decay"),
    ("lindblad", "parameters.system.decay", DELETE, "parameters.system"),
    ("lindblad", "parameters.system.dephasing", DELETE, None),
    ("lindblad", "parameters.system.extra", 1, "parameters.system"),
    ("lindblad", "parameters.times.points", 501.0, None),
    ("lindblad", "parameters.times.points", 2.5, "parameters.times.points"),
    ("lindblad", "parameters.times.points", True, "parameters.times.points"),
    ("lindblad", "parameters.times.points", 1, "parameters.times.points"),
    ("lindblad", "parameters.times.points", 1e300, "parameters.times.points"),
    ("lindblad", "parameters.initial_state", "middle", "parameters.initial_state"),
    ("lindblad", "parameters.initial_state", 1, "parameters.initial_state"),
    ("lindblad", "parameters", [], "parameters"),
    ("lindblad", "parameters", DELETE, "<root>"),
    ("lindblad", "schema_version", 1.0, None),
    ("lindblad", "schema_version", True, "schema_version"),
    ("lindblad", "schema_version", 2, "schema_version"),
    ("lindblad", "schema_version", DELETE, "<root>"),
    ("lindblad", "seed", -1, "seed"),
    ("lindblad", "seed", 2.0, None),
    ("lindblad", "seed", True, "seed"),
    ("lindblad", "seed", DELETE, None),
    ("lindblad", "output_dir", 5, "output_dir"),
    ("lindblad", "extra", 1, "<root>"),
    ("lindblad", "sweep", None, "sweep"),
    ("lindblad", "sweep", {"parameter": "system.rabi.value", "values": []}, "sweep.values"),
    ("lindblad", "sweep", {"values": [1.0]}, "sweep"),
    ("lindblad", "sweep", {"parameter": "system.rabi.value", "values": [1.0], "x": 0}, "sweep"),
    ("lindblad", "sweep", {"parameter": 3, "values": [1.0]}, "sweep.parameter"),
    ("lindblad", "sweep", {"parameter": "system.rabi.value", "values": [[1.0]]}, "sweep.values.0"),
    ("lindblad", "sweep", {"parameter": "system.rabi.value", "values": [None]}, "sweep.values.0"),
    (
        "lindblad",
        "sweep",
        {"parameter": "system.rabi.value", "values": [1.0, "fast"]},
        "parameters.system.rabi.value",
    ),
    (
        "lindblad",
        "sweep",
        {"parameter": "system.rabi.value", "values": [True]},
        "parameters.system.rabi.value",
    ),
    ("lindblad", "sweep", {"parameter": "system.rabi.value", "values": [1, 2.5]}, None),
    ("lindblad", "sweep", {"parameter": "times.points", "values": [2, 3.0]}, None),
    ("lindblad", "sweep", {"parameter": "initial_state", "values": ["excited"]}, None),
    ("g2", "parameters.taus.points", "401", "parameters.taus.points"),
    ("crot", "parameters.drive_axis", [1.0, 0.0], "parameters.drive_axis"),
    ("crot", "parameters.drive_axis", [1, 0, 0, 0], "parameters.drive_axis"),
    ("crot", "parameters.drive_axis", DELETE, None),
    ("crot", "parameters.spin_system.g_electron", 2, None),
    ("crot", "parameters.spin_system.magnetic_field_tesla", DELETE, None),
    (
        "crot",
        "parameters.spin_system.nuclei.0.hyperfine_unit",
        "K",
        "parameters.spin_system.nuclei.0.hyperfine_unit",
    ),
    ("crot", "parameters.spin_system.nuclei.0.spin", 0.5, "parameters.spin_system.nuclei.0.spin"),
    ("crot", "parameters.spin_system.nuclei.0.spin", "abc", "parameters.spin_system.nuclei.0.spin"),
    ("crot", "parameters.spin_system.nuclei.0.spin", "3/4", "parameters.spin_system.nuclei.0.spin"),
    ("crot", "parameters.spin_system.nuclei.0.spin", "0", "parameters.spin_system.nuclei.0.spin"),
    ("crot", "parameters.spin_system.nuclei.0.spin", "0.5", "parameters.spin_system.nuclei.0.spin"),
    ("crot", "parameters.spin_system.nuclei.0.spin", "2/4", "parameters.spin_system.nuclei.0.spin"),
    ("crot", "parameters.spin_system.nuclei.0.spin", "1", None),
    ("crot", "parameters.spin_system.nuclei.0.spin", "11/2", None),
    (
        "crot",
        "parameters.spin_system.nuclei.0.hyperfine_tensor.2",
        [4.0],
        "parameters.spin_system.nuclei.0.hyperfine_tensor.2",
    ),
    ("spin_spectrum", "parameters.spin_system.nuclei", {}, "parameters.spin_system.nuclei"),
    ("spin_spectrum", "parameters.grid.points", 2, None),
    ("odmr", "parameters.mw_pair", ["x"], "parameters.mw_pair"),
    ("odmr", "parameters.mw_pair", ["x", "w"], "parameters.mw_pair.1"),
    ("odmr", "parameters.network.rates.0.source", None, "parameters.network.rates.0.source"),
    # ket literals: the schema pattern and the field check reject alike
    ("odmr", "parameters.network.states.1", "S1;v=[];p=[]", "parameters.network.states.1"),
    ("odmr", "parameters.network.states.1", "S1;v=[0];p=[];n=[]", "parameters.network.states.1"),
    ("odmr", "parameters.network.rates.0.target", "S01;v=[];p=[];n=[]", "parameters.network.rates.0.target"),
    (
        "odmr",
        "parameters.network.emissive.0",
        "S1;v=[];p=[];n=[(1/2,1/2)]",
        "parameters.network.emissive.0",
    ),
    (
        "odmr",
        "parameters.network.states",
        [*_ODMR_STATES, "S1;v=[0,2];p=[1];n=[(1,+0),(3/2,-3/2)]"],
        None,
    ),
    ("odmr", "parameters.network.states", [*_ODMR_STATES, "T12,z;v=[];p=[];n=[(1/2,-1/2)]"], None),
    (
        "odmr",
        "parameters.network.states",
        ["S0;v=[];p=[];n=[]", "S1;v=[];p=[];n=[]", "S0;v=[];p=[];n=[]"],
        "parameters.network.states",
    ),
    ("odmr", "parameters.mw_pair", ["x", "x"], "parameters.mw_pair"),
    ("odmr", "parameters.mw_pair", ["z", "x"], None),
    ("emission_spectrum", "parameters.model.phonon_density", None, None),
    ("emission_spectrum", "parameters.model.phonon_density", DELETE, None),
    ("emission_spectrum", "parameters.model.vibron_modes", DELETE, None),
    (
        "emission_spectrum",
        "parameters.model.vibron_modes.0.huang_rhys",
        -0.5,
        "parameters.model.vibron_modes.0.huang_rhys",
    ),
    (
        "emission_spectrum",
        "parameters.model.phonon_density.peak_frequency.unit",
        "K",
        "parameters.model.phonon_density",
    ),
    ("optomech", "parameters.n_bar", None, None),
    ("optomech", "parameters.n_bar", DELETE, None),
    ("optomech", "parameters.n_bar", -1, "parameters.n_bar"),
    ("optomech", "parameters.n_bar", "1", "parameters.n_bar"),
    ("cavity_interface", "parameters.emitter_coupled", 1, "parameters.emitter_coupled"),
    ("cavity_interface", "parameters.emitter_coupled", DELETE, None),
    ("relaxation_classify", "parameters.rate_model", None, "parameters.rate_model"),
    ("relaxation_classify", "parameters.rate_model", DELETE, None),
    (
        "relaxation_classify",
        "parameters.other_vibrons",
        [{"value": 1.0, "unit": "THz"}, 5],
        "parameters.other_vibrons.1",
    ),
    ("screening", "parameters.criteria", DELETE, None),
    ("screening", "parameters.criteria.min_t1_ev", "2", "parameters.criteria.min_t1_ev"),
    ("screening", "parameters.input_csv", 5, "parameters.input_csv"),
    # sign bounds: minimum and exclusiveMinimum on a quantity's value
    ("crot", "parameters.duration.value", 0.0, "parameters.duration.value"),
    ("crot", "parameters.duration.value", 1e-300, None),
    ("cavity_interface", "parameters.g.value", 0, None),
    ("cavity_interface", "parameters.g.value", -1e-300, "parameters.g.value"),
    ("cavity_interface", "parameters.kappa.value", 0, "parameters.kappa.value"),
    ("optomech", "parameters.temperature.value", -0.0, None),
    (
        "emission_spectrum",
        "parameters.model.phonon_density.peak_frequency.value",
        0.0,
        "parameters.model.phonon_density",
    ),
    (
        "relaxation_classify",
        "parameters.rate_model.density.peak_frequency.value",
        -1.0,
        "parameters.rate_model.density.peak_frequency.value",
    ),
    (
        "relaxation_classify",
        "parameters.rate_model.temperature.value",
        -300.0,
        "parameters.rate_model.temperature.value",
    ),
    ("relaxation_classify", "parameters.rate_model.temperature.value", 0, None),
    ("lindblad", "parameters.system.dephasing.value", -5.0, "parameters.system.dephasing.value"),
    ("g2", "parameters.system.dephasing", {"value": 0.0, "unit": "MHz"}, None),
    (
        "lindblad",
        "sweep",
        {"parameter": "times.stop.value", "values": [1e-6, -1e-6]},
        "parameters.times.stop.value",
    ),
]


def _parent(tree, dotted):
    *head, leaf = dotted.split(".")
    for tok in head:
        tree = tree[int(tok)] if isinstance(tree, list) else tree[tok]
    return tree, int(leaf) if isinstance(tree, list) else leaf


def _mutated(kind, dotted, value):
    config = load_config(SCENARIO_DIR / f"{kind}.json")
    node, key = _parent(config, dotted)
    if value is DELETE:
        del node[key]
    else:
        node[key] = copy.deepcopy(value)
    return config


def _jsonschema_accepts(config) -> bool:
    """The old contract: the whole config is valid under its kind's schema,
    and so is the config with each sweep value put in place."""
    schema = config_schema(config["scenario_kind"])
    jsonschema.Draft202012Validator.check_schema(schema)
    validator = jsonschema.Draft202012Validator(schema)
    if not validator.is_valid(config):
        return False
    sweep = config.get("sweep")
    for value in sweep["values"] if sweep else ():
        point = copy.deepcopy(config)
        del point["sweep"]
        node, key = _parent(point["parameters"], sweep["parameter"])
        node[key] = value
        if not validator.is_valid(point):
            return False
    return True


def _field_table_accepts(config) -> tuple[bool, str | None]:
    try:
        validate_config(config)
    except ConfigError as exc:
        return False, str(exc)
    return True, None


@pytest.mark.parametrize("kind", sorted(SCHEMA_SHA256))
def test_shipped_configs_pass_both_checks(kind):
    config = load_config(SCENARIO_DIR / f"{kind}.json")
    assert _jsonschema_accepts(config)
    assert _field_table_accepts(config) == (True, None)


@pytest.mark.parametrize("kind, dotted, value, where", MUTATIONS)
def test_field_table_agrees_with_jsonschema(kind, dotted, value, where):
    config = _mutated(kind, dotted, value)
    accepted, message = _field_table_accepts(config)
    assert accepted == _jsonschema_accepts(config)
    assert accepted == (where is None)
    if where is not None:
        assert message.startswith(f"at {where}"), message


# --- sweeps share the checked config -------------------------------------------


def _cavity_sweep(values) -> dict:
    config = load_config(SCENARIO_DIR / "cavity_interface.json")
    config["sweep"] = {"parameter": "g.value", "values": values}
    return config


def test_a_cavity_sweep_builds_one_grid_for_all_its_points(monkeypatch):
    built = []
    original = FrequencyGrid.__post_init__

    def counted(grid):
        built.append(grid)
        original(grid)

    monkeypatch.setattr(FrequencyGrid, "__post_init__", counted)
    points = validate_config(_cavity_sweep([0.01 * i for i in range(200)]))
    assert len(points) == 200
    assert len(built) == 1
    assert all(grid is built[0] for _, grid in points)
    assert len({spec.g for spec, _ in points}) == 200  # the swept record is built per point


def test_a_config_mutated_in_place_is_checked_again():
    config = _cavity_sweep([0.1, 0.2])
    [(_, grid), _] = validate_config(config)
    config["parameters"]["grid"]["points"] = 11  # off the swept path
    [(_, regrid), _] = validate_config(config)
    assert (grid.points, regrid.points) == (1201, 11)
    config["parameters"]["grid"]["points"] = 1
    with pytest.raises(ConfigError, match=r"^at parameters\.grid\.points: 1 is less than"):
        validate_config(config)


# --- units --------------------------------------------------------------------

# One of each config unit in rad/s: eV through E/h = 241.7990 THz, the rest
# through 2*pi.
RAD_PER_S = {
    "eV": 2 * math.pi * 241.7990e12,
    "THz": 2 * math.pi * 1e12,
    "GHz": 2 * math.pi * 1e9,
    "MHz": 2 * math.pi * 1e6,
    "kHz": 2 * math.pi * 1e3,
    "rad/s": 1.0,
}


def _unit_enums(node, where=""):
    """(path, enum) of every ``unit`` and ``hyperfine_unit`` property in a schema."""
    if isinstance(node, dict):
        for key, child in node.items():
            if key in ("unit", "hyperfine_unit") and isinstance(child, dict) and "enum" in child:
                yield f"{where}.{key}", child["enum"]
            else:
                yield from _unit_enums(child, f"{where}.{key}")
    elif isinstance(node, list):
        for child in node:
            yield from _unit_enums(child, where)


@pytest.mark.parametrize("kind", sorted(SCHEMA_SHA256))
def test_every_unit_enum_is_the_angular_list_or_a_single_unit(kind):
    enums = list(_unit_enums(config_schema(kind)))
    # screening reads its energies as plain eV numbers from its input CSV
    assert bool(enums) == (kind != "screening")
    for where, enum in enums:
        assert enum in (list(RAD_PER_S), ["s"], ["K"]), where


@pytest.mark.parametrize("unit", list(RAD_PER_S))
def test_angular_field_converts_by_its_unit_factor(unit):
    config = _mutated("spin_spectrum", "parameters.linewidth", {"value": 1.5, "unit": unit})
    (params,) = validate_config(config)
    assert params["linewidth"] == pytest.approx(1.5 * RAD_PER_S[unit], rel=1e-6)


@pytest.mark.parametrize("unit", list(RAD_PER_S))
def test_hyperfine_entries_convert_by_their_unit_factor(unit):
    config = _mutated("crot", "parameters.spin_system.nuclei.0.hyperfine_unit", unit)
    tensor = config["parameters"]["spin_system"]["nuclei"][0]["hyperfine_tensor"]
    (params,) = validate_config(config)
    (nucleus,) = params["spin_system"].nuclei
    expected = [[x * RAD_PER_S[unit] for x in row] for row in tensor]
    assert [list(row) for row in nucleus.hyperfine_tensor] == [
        pytest.approx(row, rel=1e-6) for row in expected
    ]


# --- the cold path ------------------------------------------------------------


def _loaded_after(code: str, tmp_path) -> set[str]:
    """Top-level packages among scipy and jsonschema that ``code`` loads in
    a fresh interpreter."""
    probe = code + (
        "\nimport sys, json\n"
        "loaded = {m.split('.')[0] for m in sys.modules}\n"
        "print(json.dumps(sorted(loaded & {'scipy', 'jsonschema'})))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_cli_import_loads_neither_scipy_nor_jsonschema(tmp_path):
    assert _loaded_after("import hostguest.cli", tmp_path) == set()


def test_validate_loads_neither_scipy_nor_jsonschema(tmp_path):
    configs = sorted(str(p) for p in SCENARIO_DIR.glob("*.json"))
    code = (
        "from hostguest.cli import main\n"
        f"for path in {configs!r}:\n"
        "    assert main(['validate', path]) == 0, path\n"
    )
    assert _loaded_after(code, tmp_path) == set()


def test_numpy_only_kinds_run_without_scipy(tmp_path):
    # every shipped kind, a Raman storage-hold sweep and a Raman config with
    # disjoint pulse windows
    raman = load_config(SCENARIO_DIR / "raman_memory.json")
    hold_sweep = dict(raman, sweep={"parameter": "storage_hold.value", "values": [0.0, 1e-6, 1e-4]})
    far_pulse = copy.deepcopy(raman)
    far_pulse["parameters"]["signal_pulse"]["center"]["value"] = -1.0
    configs = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(configs) == len(SCENARIO_KINDS) == 11
    for name, config in (("raman_hold_sweep", hold_sweep), ("raman_far_pulse", far_pulse)):
        configs.append(tmp_path / f"{name}.json")
        configs[-1].write_text(json.dumps(config))
    code = "from hostguest.cli import main\n"
    for config in configs:
        out = tmp_path / "out" / config.stem
        code += f"assert main(['run', {str(config)!r}, '--output-dir', {str(out)!r}]) == 0\n"
    code += "import sys\nassert not any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
    assert "scipy" not in _loaded_after(code, tmp_path)


# The physics modules that the field table itself imports, and those that
# validating a config of each kind adds by building its domain objects.
_TABLE_MODULES = {"levels", "screening", "spin", "units"}
_KIND_MODULES = {
    "cavity_interface": {"protocols"},
    "crot": set(),
    "emission_spectrum": {"vibronic"},
    "g2": {"dynamics"},
    "lindblad": {"dynamics"},
    "odmr": {"dynamics"},
    "optomech": {"protocols"},
    "raman_memory": {"protocols"},
    "relaxation_classify": {"relaxation", "vibronic"},
    "screening": set(),
    "spin_spectrum": set(),
}
_PHYSICS = _TABLE_MODULES | {"dynamics", "protocols", "relaxation", "vibronic"}


@pytest.mark.parametrize("kind", sorted(SCHEMA_SHA256))
def test_schema_and_validate_load_only_the_physics_of_the_kind(kind, tmp_path):
    probe = (
        "import contextlib, io, json, sys\n"
        "from hostguest.cli import main\n"
        f"physics = {sorted(_PHYSICS)!r}\n"
        "def loaded():\n"
        "    return sorted(m for m in physics if 'hostguest.' + m in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['schema', {kind!r}]) == 0\n"
        "    after_schema = loaded()\n"
        f"    assert main(['validate', {str(SCENARIO_DIR / f'{kind}.json')!r}]) == 0\n"
        "print(json.dumps([after_schema, loaded()]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    after_schema, after_validate = json.loads(out.stdout.splitlines()[-1])
    assert set(after_schema) == _TABLE_MODULES
    assert set(after_validate) == _TABLE_MODULES | _KIND_MODULES[kind]

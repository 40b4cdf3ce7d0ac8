import csv
import io
import json
import math
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hostguest
from hostguest import dynamics, scenarios
from hostguest.cli import main
from hostguest.errors import ConfigError, DomainError
from hostguest.scenarios import (
    SCENARIO_KINDS,
    config_schema,
    load_config,
    run_scenario,
    validate_config,
)

from contract_cases import ROWS, Row, check_row, mutate

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "scenarios"


def _lindblad_config(output_dir, rabi_mhz=5.0, points=101):
    return {
        "schema_version": 1,
        "scenario_kind": "lindblad",
        "parameters": {
            "system": {
                "rabi": {"value": rabi_mhz, "unit": "MHz"},
                "detuning": {"value": 0.0, "unit": "MHz"},
                "decay": {"value": 5.0, "unit": "MHz"},
                "dephasing": {"value": 0.0, "unit": "MHz"},
            },
            "initial_state": "ground",
            "times": {"stop": {"value": 1e-6, "unit": "s"}, "points": points},
        },
        "output_dir": str(output_dir),
        "seed": 0,
    }


def _write(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def test_run_writes_result_and_manifest(tmp_path, capsys):
    config = _lindblad_config(tmp_path / "out")
    path = _write(tmp_path, config)
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out

    out_dir = tmp_path / "out"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["scenario_kind"] == "lindblad"
    names = [a["name"] for a in manifest["artifacts"]]
    assert names == sorted(names)
    assert "result.json" in names
    assert "trajectory.csv" in names

    result = json.loads((out_dir / "result.json").read_text())
    assert result["steady_excited_population"] == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_validate_subcommand(tmp_path, capsys):
    path = _write(tmp_path, _lindblad_config(tmp_path / "out"))
    assert main(["validate", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_schema_subcommand_lists_required_keys(capsys):
    assert main(["schema", "lindblad"]) == 0
    schema = json.loads(capsys.readouterr().out)
    params = schema["properties"]["parameters"]["properties"]
    assert "system" in params
    assert schema["additionalProperties"] is False
    # each quantity's unit enum names only the units valid for it
    assert params["system"]["properties"]["rabi"]["properties"]["unit"]["enum"] == [
        "eV", "THz", "GHz", "MHz", "kHz", "rad/s"
    ]
    assert params["times"]["properties"]["stop"]["properties"]["unit"]["enum"] == ["s"]


def test_all_kinds_have_schemas():
    for kind in SCENARIO_KINDS:
        schema = config_schema(kind)
        assert schema["properties"]["scenario_kind"]["const"] == kind


def test_unknown_key_is_named_in_the_error(tmp_path, capsys):
    config = _lindblad_config(tmp_path / "out")
    config["parameters"]["sytem"] = config["parameters"].pop("system")
    path = _write(tmp_path, config)
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "system" in err  # the missing required property is spelled out


def test_bad_quantity_unit_is_rejected_with_path(tmp_path):
    config = _lindblad_config(tmp_path / "out")
    config["parameters"]["system"]["rabi"] = {"value": 5.0, "unit": "furlongs"}
    with pytest.raises(ConfigError) as excinfo:
        validate_config(config)
    assert "rabi" in str(excinfo.value)


def test_wrong_schema_version_rejected(tmp_path):
    config = _lindblad_config(tmp_path / "out")
    config["schema_version"] = 2
    with pytest.raises(ConfigError):
        validate_config(config)


def test_missing_file_and_bad_json_exit_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 1
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize("content", ["directory", "latin-1", "deep nesting"])
def test_unreadable_config_exits_1_naming_the_path(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    if content == "directory":
        path.mkdir()
    elif content == "latin-1":
        path.write_bytes('{"output_dir": "caf\u00e9"}'.encode("latin-1"))
    else:
        path.write_text("[" * 200_000)
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert str(path) in err
        assert len(err.splitlines()) == 1


def test_sweep_preserves_value_order(tmp_path):
    values = [2.0, 8.0, 0.5, 4.0]
    base = _lindblad_config(tmp_path / "serial")
    base["sweep"] = {"parameter": "system.rabi.value", "values": values}
    serial_dir = run_scenario(
        load_config(_write(tmp_path, base, "serial.json")), tmp_path
    )

    serial_rows = (serial_dir / "sweep.csv").read_text().splitlines()
    header = serial_rows[0].split(",")
    assert header[0] == "system.rabi.value"
    assert header[1:] == sorted(header[1:])
    swept = [float(r.split(",")[0]) for r in serial_rows[1:]]
    assert swept == values


def test_sweep_renders_only_sweep_csv(tmp_path, monkeypatch):
    rendered = []
    render = scenarios._csv_bytes

    def counting(*args):
        rendered.append(args[0])  # the artifact name
        return render(*args)

    monkeypatch.setattr(scenarios, "_csv_bytes", counting)
    config = load_config(SCENARIO_DIR / "cavity_interface.json")
    config["sweep"] = {"parameter": "g.value", "values": [0.1, 0.2, 0.3]}
    out = run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / "out")
    assert rendered == ["sweep.csv"]
    assert len((out / "sweep.csv").read_text().splitlines()) == 4


def test_sweep_into_a_plain_run_directory_removes_the_plain_artifacts(tmp_path):
    config = _lindblad_config(tmp_path / "out")
    assert main(["run", str(_write(tmp_path, config))]) == 0
    assert (tmp_path / "out" / "trajectory.csv").exists()
    config["sweep"] = {"parameter": "system.rabi.value", "values": [1.0, 5.0]}
    assert main(["run", str(_write(tmp_path, config))]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json", "sweep.csv"]


@pytest.mark.parametrize("listed", ["../outside.txt", "..", ".", "", "sub/x.txt", "manifest.json"])
def test_stale_cleanup_deletes_only_plain_names_inside_the_output_dir(tmp_path, listed):
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    keep = [tmp_path / "outside.txt", out / "sub" / "x.txt", out / "stale.csv"]
    for path in keep:
        path.write_text("keep")
    manifest = {"artifacts": [{"name": listed}, {"name": "stale.csv"}, {"name": ["bad"]}]}
    (out / "manifest.json").write_text(json.dumps(manifest))
    # An unhashable name makes the old manifest malformed: nothing is deleted.
    run_scenario(_lindblad_config(out), tmp_path)
    assert all(path.read_text() == "keep" for path in keep)
    manifest["artifacts"].pop()
    (out / "manifest.json").write_text(json.dumps(manifest))
    run_scenario(_lindblad_config(out), tmp_path)
    assert all(path.read_text() == "keep" for path in keep[:2])
    assert not (out / "stale.csv").exists()
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "result.json", "sub", "trajectory.csv"
    ]


@pytest.mark.parametrize("old", [b"not json", b"\xff", b"[]", b'{"artifacts": 3}', b"{}"])
def test_unreadable_or_malformed_old_manifest_deletes_nothing(tmp_path, old):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_bytes(old)
    (out / "result.json").write_text("old")
    (out / "other.csv").write_text("keep")
    run_scenario(_lindblad_config(out), tmp_path)
    assert (out / "other.csv").read_text() == "keep"
    assert json.loads((out / "manifest.json").read_text())["scenario_kind"] == "lindblad"


def test_output_dir_override(tmp_path):
    config = _lindblad_config(tmp_path / "default")
    path = _write(tmp_path, config)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "override")]) == 0
    assert (tmp_path / "override" / "manifest.json").exists()
    assert not (tmp_path / "default").exists()


def test_relative_input_csv_resolves_against_config_dir(tmp_path):
    data_dir = tmp_path / "cfg"
    data_dir.mkdir()
    (data_dir / "mols.csv").write_text(
        "name,carbon_count,e_s1_ev,e_t1_ev,centrosymmetric\n"
        "anthracene,14,3.31,1.85,true\n"
        "tetracene,18,2.63,1.25,false\n"
    )
    config = {
        "schema_version": 1,
        "scenario_kind": "screening",
        "parameters": {
            "input_csv": "mols.csv",
            "criteria": {"min_t1_ev": 1.0, "max_s1_ev": 3.5},
        },
        "output_dir": str(tmp_path / "out"),
        "seed": 0,
    }
    path = _write(data_dir, config)
    assert main(["run", str(path)]) == 0
    result = json.loads((tmp_path / "out" / "result.json").read_text())
    assert result["record_count"] == 2
    assert result["candidate_count"] == 2


@pytest.mark.parametrize("content", ["directory", "missing", "latin-1"])
def test_unreadable_input_csv_exits_2_naming_the_path(tmp_path, capsys, content):
    data = tmp_path / "mols.csv"
    if content == "directory":
        data.mkdir()
    elif content == "latin-1":
        data.write_bytes(
            "name,carbon_count,e_s1_ev,e_t1_ev,centrosymmetric\n"
            "café,14,3.31,1.85,true\n".encode("latin-1")
        )
    config = load_config(SCENARIO_DIR / "screening.json")
    config["parameters"]["input_csv"] = str(data)
    config["output_dir"] = str(tmp_path / "out")
    assert main(["run", str(_write(tmp_path, config))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ")
    assert str(data) in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()
    if content == "latin-1":
        assert "row 2: " in err  # the row that holds the bad byte


def test_rerun_is_byte_identical(tmp_path):
    config = _lindblad_config(tmp_path / "out")
    path = _write(tmp_path, config)
    assert main(["run", str(path)]) == 0
    first = {
        p.name: p.read_bytes()
        for p in sorted((tmp_path / "out").iterdir())
    }
    assert main(["run", str(path)]) == 0
    second = {
        p.name: p.read_bytes()
        for p in sorted((tmp_path / "out").iterdir())
    }
    assert first == second


# The shipped ODMR network without its T1,z sublevel.
_ODMR_NETWORK = load_config(SCENARIO_DIR / "odmr.json")["parameters"]["network"]
_ODMR_WITHOUT_TZ = {
    "states": [k for k in _ODMR_NETWORK["states"] if not k.startswith("T1,z")],
    "rates": [r for r in _ODMR_NETWORK["rates"] if "T1,z" not in r["source"] + r["target"]],
    "emissive": _ODMR_NETWORK["emissive"],
}


@pytest.mark.parametrize(
    "kind, dotted, value, where",
    [
        ("spin_spectrum", "parameters.spin_system.zfs_d.unit", "K", None),
        ("raman_memory", "parameters.storage_hold.unit", "GHz", None),
        ("optomech", "parameters.temperature.unit", "MHz", None),
        ("lindblad", "parameters.system.rabi.value", math.nan, None),
        ("emission_spectrum", "parameters.model.vibron_modes.0.huang_rhys", math.nan, None),
        (
            "lindblad",
            "sweep",
            {"parameter": "system.rabi.unit", "values": ["MHz", "K"]},
            "parameters.system.rabi.unit",
        ),
        ("lindblad", "parameters.times.stop.value", -1.0, None),
        ("lindblad", "parameters.system.decay.value", -5.0, None),
        ("g2", "parameters.taus.stop.value", 0, None),
        ("g2", "parameters.system.decay.value", -5.0, None),
        ("raman_memory", "parameters.signal_pulse.width.value", -1e-8, None),
        ("raman_memory", "parameters.control_pulse.width.value", 0.0, None),
        ("cavity_interface", "parameters.kappa.value", -1.0, None),
        ("cavity_interface", "parameters.kappa.value", 0.0, None),
        ("optomech", "parameters.kappa_v.value", -1e11, None),
        ("crot", "parameters.duration.value", -1.6e-6, None),
        ("lindblad", "parameters.system.dephasing.value", -5.0, None),
        (
            "g2",
            "parameters.system",  # the shipped system has no dephasing entry
            {**load_config(SCENARIO_DIR / "g2.json")["parameters"]["system"],
             "dephasing": {"value": -5.0, "unit": "MHz"}},
            "parameters.system.dephasing.value",
        ),
        ("relaxation_classify", "parameters.rate_model.temperature.value", -300.0, None),
        ("relaxation_classify", "parameters.rate_model.density.peak_frequency.value", -1.0, None),
        ("odmr", "parameters.network.states.1", "S1;v=[0];p=[];n=[]", None),
        ("odmr", "parameters.network.rates.0.target", "S1;v=[];p=[];n=[]\n", None),
        ("odmr", "parameters.network.emissive.0", "S1;v=[];p=[];n=[(1/2,1/2)]", None),
        ("odmr", "parameters.network.emissive.0", "S1;v=[];p=[];n=[(1/2,+3/2)]", None),
        (
            "odmr",
            "parameters.network.states",
            ["S0;v=[];p=[];n=[]", "S1;v=[];p=[];n=[]", "S0;v=[];p=[];n=[]"],
            None,
        ),
        ("odmr", "parameters.mw_pair", ["x", "x"], None),
        ("crot", "parameters.spin_system.nuclei.0.spin", "abc", None),
        ("crot", "parameters.spin_system.nuclei.0.spin", "3/4", None),
        ("crot", "parameters.spin_system.nuclei.0.spin", "0", None),
        ("crot", "parameters.spin_system.nuclei.0.spin", " 1/2", None),
        ("crot", "parameters.spin_system.nuclei.0.spin", "0.5", None),
        ("crot", "parameters.spin_system.nuclei.0.spin", "2/4", None),
        # rules across fields, held by the domain constructors
        ("spin_spectrum", "parameters.spin_system.zfs_e.value", 3, "parameters.spin_system"),
        (
            "emission_spectrum",
            "parameters.model.phonon_density.cutoff_frequency.value",
            1e-300,
            "parameters.model.phonon_density",
        ),
        (
            "relaxation_classify",
            "parameters.rate_model.density.peak_frequency.value",
            3,
            "parameters.rate_model.density",
        ),
        (
            "relaxation_classify",
            "parameters.other_vibrons",
            [{"value": 2.0, "unit": "THz"}],
            "parameters",
        ),
        ("spin_spectrum", "parameters.grid.start.value", 1e12, "parameters.grid"),
        (
            "cavity_interface",
            "sweep",
            {"parameter": "grid.stop.value", "values": [1.0, -1e3]},
            "parameters.grid",
        ),
        (
            "odmr",
            "parameters.network.emissive.0",
            "S1;v=[0,2];p=[1];n=[(1,+0),(3/2,-3/2)]",
            "parameters.network",
        ),
        (
            "odmr",
            "parameters.network.rates.0.source",
            "T12,z;v=[];p=[];n=[(1/2,-1/2)]",
            "parameters.network",
        ),
        ("odmr", "parameters.network", _ODMR_WITHOUT_TZ, "parameters"),
    ],
)
def test_validate_rejects_what_run_rejects(tmp_path, capsys, kind, dotted, value, where):
    config = load_config(SCENARIO_DIR / f"{kind}.json")
    config["output_dir"] = str(tmp_path / "out")
    mutate(config, dotted, value)
    path = _write(tmp_path, config)
    assert main(["validate", str(path)]) == 1
    assert f"at {where or dotted}:" in capsys.readouterr().err
    assert main(["run", str(path)]) == 1
    assert f"at {where or dotted}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_rate_model_is_checked_on_every_relaxation_channel(tmp_path, capsys):
    # An intramolecular vibron never uses the rate model, yet a density with
    # its cutoff below its peak is still a config error.
    config = load_config(SCENARIO_DIR / "relaxation_classify.json")
    config["output_dir"] = str(tmp_path / "out")
    config["parameters"]["vibron_frequency"]["value"] = 9.0
    config["parameters"]["rate_model"]["density"]["cutoff_frequency"]["value"] = 0.1
    path = _write(tmp_path, config)
    assert main(["run", str(path)]) == 1
    assert "cutoff_frequency > peak_frequency" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_scenario_kind(tmp_path):
    config = _lindblad_config(tmp_path / "out")
    config["scenario_kind"] = "mystery"
    with pytest.raises(ConfigError):
        validate_config(config)
    with pytest.raises(ConfigError):
        config_schema("mystery")


def test_csv_renderer_rejects_non_finite_float_array_columns():
    header = ("index", "value")
    ok = scenarios._csv_bytes("t.csv", header, ([1, 2], np.array([0.5, 1e-300])))
    assert ok == b"index,value\n1,0.5\n2,1e-300\n"
    with pytest.raises(DomainError, match=r"^t\.csv column 'value': non-finite value nan$"):
        scenarios._csv_bytes("t.csv", header, ([1, 2], np.array([0.5, np.nan])))


_CSV_TEXT = st.text(alphabet=[",", '"', "\n", "\r", "\t", " ", "é", "λ", "分", "😀"], max_size=6)
_CSV_CELLS = {
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "int": st.integers(),
    "bool": st.booleans(),
    "text": _CSV_TEXT,
}


@st.composite
def _csv_tables(draw):
    """A header and its columns, each column with the texts it must render to."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CSV_CELLS)), min_size=2, max_size=5))
    rows = draw(st.integers(0, 5))
    header = [draw(_CSV_TEXT) for _ in kinds]
    columns, texts = [], []
    for kind in kinds:
        values = draw(st.lists(_CSV_CELLS[kind], min_size=rows, max_size=rows))
        if kind == "float":
            columns.append(np.array(values, dtype=float))
            texts.append([repr(v) for v in values])
        elif kind == "bool":
            columns.append(values)
            texts.append(["true" if v else "false" for v in values])
        else:
            columns.append(values)
            texts.append([str(v) for v in values])
    return header, columns, [list(row) for row in zip(*texts)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=_csv_tables())
def test_csv_renderer_quotes_text_by_rfc_4180_and_reads_back(table):
    header, columns, rows = table
    rendered = scenarios._csv_bytes("t.csv", header, columns)
    text = rendered.decode()
    assert list(csv.reader(io.StringIO(text, newline=""))) == [header, *rows]
    if "\r" not in text:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        assert text == buf.getvalue()
    if not rows:
        assert text == ",".join(map(scenarios._quote, header)) + "\n"


def _emission_config(tmp_path, huang_rhys):
    config = load_config(SCENARIO_DIR / "emission_spectrum.json")
    config["output_dir"] = str(tmp_path / "out")
    config["parameters"]["model"]["vibron_modes"][0]["huang_rhys"] = huang_rhys
    return _write(tmp_path, config)


@pytest.mark.parametrize("huang_rhys", [36.0, 120.0])
def test_strong_progression_within_the_quanta_cap_runs(tmp_path, huang_rhys):
    assert main(["run", str(_emission_config(tmp_path, huang_rhys))]) == 0
    result = json.loads((tmp_path / "out" / "result.json").read_text())
    assert result["debye_waller"] < math.exp(-huang_rhys)


@pytest.fixture
def contract_env(monkeypatch):
    # The driver's processes import the hostguest this process imported.
    monkeypatch.setenv("PYTHONPATH", str(Path(hostguest.__file__).resolve().parents[1]))


@pytest.mark.usefixtures("contract_env")
@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_contract_row(tmp_path, row):
    check_row(row, tmp_path)


@pytest.mark.usefixtures("contract_env")
def test_the_driver_fails_a_row_with_a_wrong_exit_code_or_stderr_line(tmp_path):
    [row] = [row for row in ROWS if row.name == "crot_zero_drive_axis"]
    (tmp_path / "code").mkdir()
    with pytest.raises(AssertionError, match="run exits 2, not 1"):
        check_row(replace(row, run=1), tmp_path / "code")
    # The start of the real line is not enough: the whole line must match.
    (tmp_path / "prefix").mkdir()
    with pytest.raises(AssertionError, match="run stderr is not the one line"):
        check_row(replace(row, stderr=row.stderr.split(",")[0]), tmp_path / "prefix")


def test_a_row_names_its_stderr_and_mutates_only_paths_that_resolve():
    with pytest.raises(ValueError, match="needs its stderr line"):
        Row("crot_without_stderr", "crot", run=2)
    config = load_config(SCENARIO_DIR / "crot.json")
    for dotted in ("parameters.drive_axes", "parameters.drive_axis.3", "sweeps.values",
                   "parameters.spin_system.nuclei.0.spin.0"):
        with pytest.raises(ValueError, match=f"path {dotted} does not resolve"):
            mutate(config, dotted, 1.0)
    assert config == load_config(SCENARIO_DIR / "crot.json")
    mutate(config, "sweep", {"parameter": "rabi_frequency.value", "values": [0.3]})
    assert config["sweep"]["values"] == [0.3]


@pytest.mark.parametrize("scale", [1e200, 1e-300])
def test_scaled_crot_drive_axis_writes_the_x_axis_artifacts(tmp_path, scale):
    config = load_config(SCENARIO_DIR / "crot.json")
    assert config["parameters"]["drive_axis"] == [1.0, 0.0, 0.0]
    run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / "x")
    config["parameters"]["drive_axis"] = [scale, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / "scaled")
    for name in ("manifest.json", "result.json", "unitary.csv"):
        assert (tmp_path / "scaled" / name).read_bytes() == (tmp_path / "x" / name).read_bytes()


def _run_in_process(path, out):
    """(exit code, seconds) of ``hostguest run`` with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = time.perf_counter()
        code = main(["run", str(path), "--output-dir", str(out)])
        return code, time.perf_counter() - start


@pytest.mark.parametrize(
    "kind, dotted, value",
    [
        ("lindblad", "parameters.system.decay.value", 1e12),
        ("lindblad", "parameters.times.stop.value", 1e3),
        ("g2", "parameters.system.decay.value", 1e12),
        ("g2", "parameters.taus.stop.value", 1e3),
    ],
)
def test_stiff_two_level_runs_finish_in_a_second_with_the_trace_kept(tmp_path, kind, dotted, value):
    # A decay of 1e12 MHz, or a run 3e10 lifetimes long, kept the adaptive
    # solver of earlier versions past a 10 s timeout; each step is now one
    # exact exponential.
    config = load_config(SCENARIO_DIR / f"{kind}.json")
    mutate(config, dotted, value)
    out = tmp_path / "out"
    code, seconds = _run_in_process(_write(tmp_path, config), out)
    assert code == 0
    assert seconds < 1.0
    result = json.loads((out / "result.json").read_text())
    assert all(math.isfinite(v) for v in result.values())
    for table in out.glob("*.csv"):
        assert np.isfinite(np.loadtxt(table, delimiter=",", skiprows=1)).all()
    if kind == "lindblad":
        assert result["max_trace_error"] <= 1e-7


@pytest.mark.parametrize(
    "kind, dotted, step",
    [("lindblad", "parameters.times.stop.value", "2.000e+297"), ("g2", "parameters.taus.stop.value", "2.500e+297")],
)
def test_a_step_beyond_double_precision_exits_2_before_any_exponential(
    tmp_path, capsys, monkeypatch, kind, dotted, step
):
    def no_exponential(_):
        raise AssertionError("expm called")

    monkeypatch.setattr(dynamics, "expm", no_exponential)
    config = load_config(SCENARIO_DIR / f"{kind}.json")
    mutate(config, dotted, 1e300)
    out = tmp_path / "out"
    assert _run_in_process(_write(tmp_path, config), out)[0] == 2
    err = capsys.readouterr().err
    assert err.startswith(f"runtime error: time step {step} s is over 2^52 times")
    assert err.count("\n") == 1
    assert not out.exists()

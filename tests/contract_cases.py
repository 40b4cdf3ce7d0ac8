"""Runtime contract cases of the ``hostguest`` command line as table rows,
and the driver that runs a row: each command in a fresh process with every
warning an error, one whole stderr line and no output directory after a
failed run, and for a row that exits 0 two runs with two string-hash seeds
writing the same bytes (criterion 12 across processes). Tier-1 runs each
row as a test; ``python tests/contract_cases.py`` runs all rows on the
``hostguest`` that the interpreter imports. Standard library only: no test
extra needed."""

from __future__ import annotations

import csv
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
TIMEOUT = 30.0  # seconds per process; the slowest row, spin_spectrum_768, takes 1-2 s

# Every process runs with this many OpenBLAS threads, because eigh's rounding
# and so the spin_spectrum bytes with nuclei depend on it: spin_spectrum_768
# differs between 1 and 2 threads on 1,762 of 1,801 spectrum rows.
OPENBLAS_THREADS = "1"


@dataclass(frozen=True)
class Row:
    name: str
    base: str  # scenarios/<base>.json
    mutations: dict = field(default_factory=dict)  # dotted path -> value, in order
    validate: int = 0
    run: int = 0
    stderr: str = ""  # the one stderr line of each nonzero exit, whole
    check: Callable[[Path], bool] | None = None  # on the output of an exit-0 run
    files: dict = field(default_factory=dict)  # file name -> text, beside the config

    def __post_init__(self):
        if (self.validate or self.run) and not self.stderr:
            raise ValueError(f"row {self.name}: a nonzero exit needs its stderr line")


def mutate(config: dict, dotted: str, value) -> None:
    """Set ``dotted``, keys and list indices joined by dots, in ``config``.
    The path must resolve already, so that a misspelt one cannot pass as a
    rejected or a harmless value; only a top-level key such as ``sweep`` may
    be added."""
    *head, leaf = dotted.split(".")
    tree = config
    try:
        for key in head:
            tree = tree[_index(tree, key)]
        if head:
            tree[_index(tree, leaf)]
    except (KeyError, IndexError, TypeError, ValueError):
        raise ValueError(f"mutation path {dotted} does not resolve in the base config") from None
    tree[_index(tree, leaf)] = value


def _index(tree, key: str):
    return int(key) if isinstance(tree, list) else key


def _fail(row: Row, message: str):
    raise AssertionError(f"{row.name}: {message}")


def _start(args: list, hash_seed: int):
    env = dict(os.environ, PYTHONWARNINGS="error", PYTHONHASHSEED=str(hash_seed))
    env["OPENBLAS_NUM_THREADS"] = OPENBLAS_THREADS
    command = [sys.executable, "-m", "hostguest.cli", *map(str, args)]
    pipe = subprocess.PIPE
    proc = subprocess.Popen(command, cwd=args[1].parent, env=env, stdout=pipe, stderr=pipe, text=True)
    return proc, time.monotonic() + TIMEOUT


def _finish(started) -> tuple[int | None, str, str]:
    """(exit code, stdout, stderr); the code is None for a process killed at
    its deadline."""
    proc, deadline = started
    try:
        stdout, stderr = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        return None, *proc.communicate()
    return proc.returncode, stdout, stderr


def _expect(row: Row, command: str, code: int | None, stderr: str, expected: int) -> None:
    if code is None:
        _fail(row, f"{command} ran past {TIMEOUT:g} s")
    if code != expected:
        _fail(row, f"{command} exits {code}, not {expected}: {stderr!r}")
    if expected and stderr.splitlines() != [row.stderr]:
        _fail(row, f"{command} stderr is not the one line {row.stderr!r}: {stderr!r}")
    if not expected and stderr:
        _fail(row, f"{command} exits 0 but writes to stderr: {stderr!r}")


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def check_row(row: Row, work: Path) -> None:
    """Run ``row`` in the empty directory ``work``; an AssertionError names
    the row and what broke."""
    config = json.loads((SCENARIOS / f"{row.base}.json").read_text())
    for dotted, value in row.mutations.items():
        mutate(config, dotted, value)
    for shipped in SCENARIOS.glob("*.csv"):  # the inputs the shipped configs name
        shutil.copy(shipped, work)
    for name, text in row.files.items():
        (work / name).write_text(text, newline="")
    path = work / f"{row.name}.json"
    path.write_text(json.dumps(config))
    outs = [work / "out", work / "again"][: 1 if row.run else 2]
    started = [_start(["validate", path], 0)]
    started += [_start(["run", path, "--output-dir", out], seed) for seed, out in enumerate(outs, 1)]
    (code, stdout, stderr), *runs = [_finish(s) for s in started]
    _expect(row, "validate", code, stderr, row.validate)
    if not row.validate and stdout != f"ok: {path}\n":
        _fail(row, f"validate prints {stdout!r}")
    for (code, _, stderr), out in zip(runs, outs):
        _expect(row, "run", code, stderr, row.run)
        if row.run and out.exists():
            _fail(row, f"the failed run left {out}")
        if not row.run and not (out / "manifest.json").is_file():
            _fail(row, "the run wrote no manifest.json")
    if not row.run and _tree(outs[0]) != _tree(outs[1]):
        _fail(row, "two processes wrote different bytes")
    if row.check and not row.check(outs[0]):
        _fail(row, f"the output check fails on {(outs[0] / 'result.json').read_text()}")


def _mixed_nuclei() -> list:
    # I = 1/2, 1 and 3/2: dimension 72, a nuclear dimension not a power of two.
    rng = random.Random(72)
    nuclei = []
    for spin, gamma in (("1/2", 2.675e8), ("1", 1.934e7), ("3/2", 7.08e7)):
        tensor = [[0.0] * 3 for _ in range(3)]
        for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
            tensor[i][j] = tensor[j][i] = rng.uniform(-5.0, 5.0)
        nuclei.append({"spin": spin, "hyperfine_tensor": tensor, "hyperfine_unit": "MHz",
                       "gyromagnetic_ratio": gamma})
    return nuclei


def _axial_nuclei() -> list:
    # 8 I = 1/2 nuclei: dimension 768, its lines clustered by the hyperfine fields.
    rng = random.Random(768)
    nuclei = []
    for _ in range(8):
        perp, par = rng.uniform(0.2, 2.0), rng.uniform(2.0, 10.0)
        tensor = [[perp, 0.0, 0.0], [0.0, perp * rng.uniform(0.8, 1.2), 0.0], [0.0, 0.0, par]]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            tensor[i][j] = tensor[j][i] = rng.uniform(-0.3, 0.3)
        nuclei.append({"spin": "1/2", "hyperfine_tensor": tensor, "hyperfine_unit": "MHz"})
    return nuclei


# Names holding a comma, quotes and a CR, each quoted in candidates.csv.
QUOTED_NAMES = ["1,2-benzanthracene", 'a "quoted" name', "inner\rcr"]
_QUOTED_CSV = (
    '"name","carbon_count","e_s1_ev","e_t1_ev","centrosymmetric"\n'
    '"1,2-benzanthracene","14","3.0","2.2","true"\n'
    '"a ""quoted"" name","16","3.1","2.2","true"\n'
    '"inner\rcr","18","3.2","2.2","true"\n'
)


def _names_read_back(out: Path) -> bool:
    with open(out / "candidates.csv", newline="") as f:
        return [row[0] for row in csv.reader(f)][1:] == QUOTED_NAMES


def _result(out: Path) -> dict:
    return json.loads((out / "result.json").read_text())


def _runtime_error(name: str, base: str, mutations: dict, line: str) -> Row:
    """A valid config whose run fails with one line."""
    return Row(name, base, mutations, run=2, stderr="runtime error: " + line)


def _config_error(name: str, base: str, mutations: dict, line: str) -> Row:
    """A config that validate rejects as run does, before any compute."""
    return Row(name, base, mutations, validate=1, run=1, stderr="config error: " + line)


def _decay_sweep(values: list) -> dict:
    return {"sweep": {"parameter": "system.decay.value", "values": values}}


_SPIN = "parameters.spin_system"
_FIELD = f"{_SPIN}.magnetic_field_tesla"
_SYSTEM = "parameters.system"
_ODMR_RATES = json.loads((SCENARIOS / "odmr.json").read_text())["parameters"]["network"]["rates"]
_OVER_2_52 = ("time step {} s is over 2^52 times the generator's fastest time scale"
              " 1/||L||_1 = {} s; use more time points")
_CROT_STEPS = "the crot gate needs {} CF4 steps, over the cap of 32768"
_SQUARE = "Lorentzian offset {} or half-width {} overflows its square"
_EXACT = 0.10607352973339457
_NOT_UNIQUE = "steady state is not unique (2-dimensional kernel at unit rates)"

# fmt: off
ROWS = [
    *(Row(path.stem, path.stem) for path in sorted(SCENARIOS.glob("*.json"))),
    # raman_memory: one write stage for a 24-point hold sweep; pulse windows 1 s
    # and 1e300 s apart, stepped apart, the far envelopes 0 without a warning;
    # stiff CF4 steps; 31,549 CF4 steps in one segment, folded in blocks.
    Row("raman_hold_sweep", "raman_memory",
        {"sweep": {"parameter": "storage_hold.value", "values": [i * 2e-7 for i in range(24)]}}),
    Row("raman_far_pulse", "raman_memory", {"parameters.signal_pulse.center.value": -1.0},
        check=lambda out: 0.0 <= _result(out)["total_efficiency"]
        <= _result(out)["storage_efficiency"] <= 1e-12),
    Row("raman_farthest_pulse", "raman_memory", {"parameters.signal_pulse.center.value": -1e300},
        check=lambda out: _result(out)["storage_efficiency"]
        == _result(out)["total_efficiency"] == 0.0),
    Row("raman_stiff_decay", "raman_memory", {"parameters.gamma0": {"value": 1e13, "unit": "rad/s"}}),
    Row("raman_cap_detuning", "raman_memory", {"parameters.detuning": {"value": 3e11, "unit": "rad/s"}}),
    # The drive's x, y and z parts all come from the ODMR row-slice products.
    Row("crot_y_axis", "crot", {"parameters.drive_axis": [0.0, 1.0, 0.0]}),
    Row("crot_oblique_axis", "crot", {"parameters.drive_axis": [0.3, -0.5, 0.8]}),
    Row("spin_spectrum_mixed_nuclei", "spin_spectrum",
        {_FIELD: [5e-4, -3e-4, 2e-3], f"{_SPIN}.nuclei": _mixed_nuclei()}),
    Row("spin_spectrum_768", "spin_spectrum",
        {_FIELD: [5e-4, -3e-4, 2e-3], f"{_SPIN}.nuclei": _axial_nuclei()}),
    # Stiff two-level systems: each step one exact exponential, and one
    # stationary state whatever the rate ratios.
    Row("lindblad_stiff_decay", "lindblad", {f"{_SYSTEM}.decay.value": 1e12}),
    Row("g2_stiff_decay", "g2", {f"{_SYSTEM}.decay.value": 1e12}),
    Row("lindblad_stiff_dephasing", "lindblad", {f"{_SYSTEM}.dephasing.value": 1e12}),
    Row("lindblad_stiff_detuning", "lindblad", {f"{_SYSTEM}.detuning.value": 1e12}),
    Row("lindblad_tiny_decay", "lindblad", {f"{_SYSTEM}.decay.value": 1e-300}),
    Row("g2_stiff_rabi", "g2", {f"{_SYSTEM}.rabi.value": 1e12}),
    # A sweep fails on its first failing point, and a point on its first
    # failing check in the order of its plain run: lindblad checks the step
    # before the steady state, g2 the steady state before the step. Decay 0
    # leaves a 2-dimensional kernel; decay 1e22 MHz outruns the time step.
    *(_runtime_error(f"{kind}_decay_sweep_{name}", kind, _decay_sweep(values), line)
      for kind, step in (("lindblad", "2.000e-09"), ("g2", "1.250e-09"))
      for name, values, line in (("0_then_1e22", [0.0, 1e22], _NOT_UNIQUE),
                                 ("1e22_then_0", [1e22, 0.0], _OVER_2_52.format(step, "7.958e-30")))),
    _runtime_error("lindblad_point_failing_step_and_steady_state", "lindblad",
                   {f"{_SYSTEM}.rabi.value": 1e22, **_decay_sweep([0.0])}, _OVER_2_52.format("2.000e-09", "1.592e-29")),
    _runtime_error("g2_point_failing_step_and_steady_state", "g2",
                   {f"{_SYSTEM}.rabi.value": 1e22, **_decay_sweep([0.0])}, _NOT_UNIQUE),
    # The exact rational contrast with the mixing rate at 1e300 rad/s.
    Row("odmr_fast_mixing", "odmr", {"parameters.mw_mixing_rate.value": 1e300},
        check=lambda out: abs(_result(out)["contrast"] - _EXACT) <= 1e-12 * _EXACT),
    # An emitter linewidth of 1e-300 MHz overflows the emitter term on
    # resonance: the emitter blocks the cavity, r = -1 and t = 0.
    Row("cavity_tiny_gamma", "cavity_interface", {"parameters.gamma.value": 1e-300},
        check=lambda out: (_result(out)["on_resonance_reflectance"],
                           _result(out)["on_resonance_transmittance"]) == (1.0, 0.0)),
    Row("cavity_tiny_gamma_sweep", "cavity_interface",
        {"sweep": {"parameter": "gamma.value", "values": [1.0, 1e-300]}}),
    Row("screening_quoted_names", "screening", {"parameters.input_csv": "quoted_names.csv"},
        files={"quoted_names.csv": _QUOTED_CSV}, check=_names_read_back),
    # A 1e300 MHz two-level drive builds its system in validate without overflow.
    _runtime_error("lindblad_1e300_rabi", "lindblad", {f"{_SYSTEM}.rabi.value": 1e300},
                   _OVER_2_52.format("2.000e-09", "1.592e-307")),
    _runtime_error("lindblad_1e300_detuning", "lindblad", {f"{_SYSTEM}.detuning.value": 1e300},
                   _OVER_2_52.format("2.000e-09", "1.592e-307")),
    _runtime_error("g2_1e300_rabi", "g2", {f"{_SYSTEM}.rabi.value": 1e300},
                   _OVER_2_52.format("1.250e-09", "1.592e-307")),
    # Grids out to 1e308 s: a step of about 1e305 s times ||L||_1 overflows
    # to inf in the step check, which still gives its own line.
    _runtime_error("lindblad_1e308_times_stop", "lindblad", {"parameters.times.stop.value": 1e308},
                   _OVER_2_52.format("2.000e+305", "1.061e-08")),
    _runtime_error("g2_1e308_taus_stop", "g2", {"parameters.taus.stop.value": 1e308},
                   _OVER_2_52.format("2.500e+305", "1.061e-08")),
    # rho_ee is about rabi^2 / (4 detuning^2), about 1e-612: it underflows to 0.
    _runtime_error("g2_1e300_detuning", "g2", {f"{_SYSTEM}.detuning.value": 1e300},
                   "steady state emits no photons; g2 undefined"),
    # H past 1e154 rad/s is diagonalized without a norm overflow; the line sum
    # then cannot square its offset.
    _runtime_error("spin_spectrum_1e160_zfs", "spin_spectrum",
                   {f"{_SPIN}.zfs_d": {"value": 1e160, "unit": "rad/s"}},
                   _SQUARE.format("1.000e+160", "1.571e+07")),
    _runtime_error("spin_spectrum_1e150_field", "spin_spectrum", {_FIELD: [0.0, 0.0, 1e150]},
                   _SQUARE.format("1.761e+161", "1.571e+07")),
    _runtime_error("crot_zero_drive_axis", "crot", {"parameters.drive_axis": [0.0, 0.0, 0.0]},
                   "drive axis must be finite and nonzero, got [0.0, 0.0, 0.0]"),
    # 101 time points here and in lindblad_sweep_of_a_misspelt_path, as test_cli's lindblad config.
    _runtime_error("lindblad_no_unique_steady_state", "lindblad",
                   {"parameters.times.points": 101,
                    f"{_SYSTEM}.rabi.value": 0.0, f"{_SYSTEM}.decay.value": 0.0},
                   "steady state is not unique (4-dimensional kernel at unit rates)"),
    _runtime_error("spin_spectrum_1e300_linewidth", "spin_spectrum", {"parameters.linewidth.value": 1e300},
                   _SQUARE.format("2.262e+10", "3.142e+306")),
    # n_bar = 0 makes the optomech cooperativity infinite.
    _runtime_error("optomech_zero_n_bar", "optomech", {"parameters.n_bar": 0},
                   "result.json key 'cooperativity': non-finite value inf"),
    _runtime_error("optomech_n_bar_swept_to_zero", "optomech",
                   {"sweep": {"parameter": "n_bar", "values": [1.0, 0]}},
                   "sweep.csv column 'cooperativity': non-finite value inf"),
    # Franck-Condon weights that do not fit in 200 quanta (at 1000 and 1e300
    # exp(-S) underflows and no quantum is kept).
    *(_runtime_error(f"emission_{s!r}_huang_rhys", "emission_spectrum",
                     {"parameters.model.vibron_modes.0.huang_rhys": s},
                     f"Huang-Rhys factor {s!r} needs more than 200 vibron quanta:"
                     f" the kept Franck-Condon weights miss {miss}")
      for s, miss in ((150.0, "4.21e-05"), (1000.0, "1.00e+00"), (1e300, "1.00e+00"))),
    # Over the CF4 step budget: refused before any propagation array is built.
    _runtime_error("crot_1e12_mhz_zfs", "crot", {f"{_SPIN}.zfs_d.value": 1e12},
                   _CROT_STEPS.format("2.44e+13")),
    _runtime_error("crot_1e12_tesla_field", "crot", {f"{_FIELD}.2": 1e12},
                   _CROT_STEPS.format("1.03e+18")),
    _runtime_error("crot_1e300_mhz_hyperfine", "crot", {f"{_SPIN}.nuclei.0.hyperfine_tensor.2.2": 1e300},
                   _CROT_STEPS.format("1.83e+301")),
    _runtime_error("crot_steps_past_the_float_range", "crot",
                   {"parameters.drive_frequency.value": 1e-300, f"{_SPIN}.zfs_d.value": 1e12},
                   _CROT_STEPS.format("inf")),
    # A D whose 2D/3 is finite is refused at run time with one line.
    _runtime_error("spin_spectrum_8.9e307_zfs", "spin_spectrum",
                   {f"{_SPIN}.zfs_d": {"value": 8.9e307, "unit": "rad/s"}},
                   _SQUARE.format("8.900e+307", "1.571e+07")),
    _runtime_error("crot_8.9e307_zfs", "crot", {f"{_SPIN}.zfs_d": {"value": 8.9e307, "unit": "rad/s"}},
                   _CROT_STEPS.format("3.45e+302")),
    # A value and unit pair that overflows rad/s.
    _config_error("spin_spectrum_1e300_thz_zfs", "spin_spectrum",
                  {f"{_SPIN}.zfs_d": {"value": 1e300, "unit": "THz"}},
                  f"at {_SPIN}.zfs_d: 1e+300 THz is not finite in rad/s"),
    _config_error("crot_1e300_ev_hyperfine", "crot",
                  {f"{_SPIN}.nuclei.0.hyperfine_unit": "eV", f"{_SPIN}.nuclei.0.hyperfine_tensor.2.2": 1e300},
                  f"at {_SPIN}.nuclei.0: 1e+300 eV is not finite in rad/s"),
    # zfs_tensor's 2D/3 overflows although D is finite.
    *(_config_error(f"{kind}_1e308_zfs", kind, {f"{_SPIN}.zfs_d": {"value": 1e308, "unit": "rad/s"}},
                    f"at {_SPIN}: 2D/3 is not finite for D=1e+308")
      for kind in ("spin_spectrum", "crot")),
    # A field component at 1e300 T: H's entry bound overflows, refused before assembly.
    *(_config_error(f"{kind}_1e300_tesla_field_{axis}", kind, {f"{_FIELD}.{i}": 1e300},
                    f"at {_SPIN}: the Hamiltonian entries overflow: the sum of the ZFS,"
                    " Zeeman and hyperfine terms is not finite")
      for kind in ("spin_spectrum", "crot") for i, axis in enumerate("xyz")),
    _config_error("odmr_truncated_ket", "odmr", {"parameters.network.states.1": "S1;v=[];p=[]"},
                  "at parameters.network.states.1: 'S1;v=[];p=[]' is not a canonical ket literal"
                  " such as 'T1,x;v=[0,1];p=[];n=[(1/2,+1/2)]'"),
    _config_error("odmr_unknown_emissive", "odmr", {"parameters.network.emissive": ["S2;v=[];p=[];n=[]"]},
                  "at parameters.network: emissive flag references unknown state"),
    # Building the rate dict would otherwise keep only the last of the two.
    _config_error("odmr_repeated_rate_pair", "odmr",
                  {"parameters.network.rates": [dict(_ODMR_RATES[0], rate={"value": 1e12, "unit": "rad/s"}),
                                                *_ODMR_RATES]},
                  "at parameters.network.rates.1: a second rate from S0;v=[];p=[];n=[] to S1;v=[];p=[];n=[]"),
    _config_error("crot_asymmetric_hyperfine", "crot", {f"{_SPIN}.nuclei.0.hyperfine_tensor.0.1": 3.0},
                  f"at {_SPIN}.nuclei.0: hyperfine tensor must be symmetric to 1e-12 (relative)"),
    _config_error("cavity_kappa_in_over_kappa", "cavity_interface", {"parameters.kappa_in.value": 2.0},
                  "at parameters: port couplings cannot exceed the total linewidth"),
    _config_error("spin_spectrum_reversed_grid", "spin_spectrum",
                  {"parameters.grid.start.value": 2.0, "parameters.grid.stop.value": 0.2},
                  "at parameters.grid: grid must be strictly increasing,"
                  " got [12566370614.359173, 1256637061.4359174]"),
    # Points share the checked config; a bad swept value still fails at its leaf.
    _config_error("cavity_sweep_negative_g", "cavity_interface",
                  {"sweep": {"parameter": "g.value", "values": [0.1, -1.0, 0.3]}},
                  "at parameters.g.value: -1.0 is less than the minimum of 0"),
    _config_error("lindblad_sweep_of_a_misspelt_path", "lindblad",
                  {"parameters.times.points": 101,
                   "sweep": {"parameter": "system.rabbi.value", "values": [1.0]}},
                  "sweep parameter path 'system.rabbi.value' does not resolve"),
]
# fmt: on


def main() -> int:
    failed = 0
    for row in ROWS:
        start = time.monotonic()
        with tempfile.TemporaryDirectory() as work:
            try:
                check_row(row, Path(work))
                verdict = f"validate {row.validate}, run {row.run}"
            except AssertionError as exc:
                failed += 1
                verdict = f"FAILED: {exc}"
        print(f"{row.name}: {verdict}, {time.monotonic() - start:.2f} s", flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows hold, every process with PYTHONWARNINGS=error"
          f" and OPENBLAS_NUM_THREADS={OPENBLAS_THREADS}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

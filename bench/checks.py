"""Output checks for one finished job.

A job passes when its output directory matches its manifest, every number
it wrote is finite, the physical invariants of its kind hold, and its
outputs match the reference recorded for its pool key. References are
compared as numbers within a tolerance, never as hashes, so a change that
only moves round-off still passes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-6  # relative to the reference value
COLUMN_ATOL = 1e-7  # relative to the largest magnitude in the column
ATOL = 1e-12
SAMPLES = 5  # evenly spaced rows recorded per column

# Solver diagnostics, not physics: later solvers may redefine them. Each is
# still bounded by an invariant below where one applies.
EXCLUDED = {"step_count", "max_trace_error"}
# A unitary's entries are bounded by 1 whatever their own size.
TABLE_SCALE = {"unitary.csv": 1.0}
# An eigenvalue gap is accurate only relative to the width of the spectrum,
# so a small gap gets an absolute tolerance of EIGEN_RTOL times that width.
SCALAR_SCALE = {"smallest_gap_hz": "largest_gap_hz"}
EIGEN_RTOL = 1e-10

TRACE_TOL = 1e-7
SPECTRUM_TOL = 1e-6
UNITARY_TOL = 1e-8


def read_outputs(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def manifest_problems(files: dict[str, bytes]) -> list[str]:
    if "manifest.json" not in files:
        return ["no manifest.json"]
    listed = json.loads(files["manifest.json"])["artifacts"]
    problems = []
    names = {a["name"] for a in listed}
    if names != set(files) - {"manifest.json"}:
        problems.append(f"manifest lists {sorted(names)}, directory has {sorted(files)}")
    for a in listed:
        data = files.get(a["name"])
        if data is None:
            continue
        if hashlib.sha256(data).hexdigest() != a["sha256"] or len(data) != a["size_bytes"]:
            problems.append(f"{a['name']}: sha256 or size differs from manifest")
    return problems


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def parse_table(data: bytes) -> tuple[list[str], dict[str, list]]:
    """Header and columns of a CSV artifact; numeric columns become floats."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    header, body = rows[0], rows[1:]
    columns = {}
    for j, name in enumerate(header):
        cells = [row[j] for row in body]
        numbers = [_number(c) for c in cells]
        columns[name] = cells if None in numbers else numbers
    return header, columns


def _numeric(values) -> bool:
    return bool(values) and isinstance(values[0], float)


def _sample_rows(n: int) -> list[int]:
    return sorted({round(i * (n - 1) / (SAMPLES - 1)) for i in range(SAMPLES)}) if n else []


def parse_tables(files: dict[str, bytes]) -> dict[str, dict[str, list]]:
    return {name: parse_table(data)[1] for name, data in files.items() if name.endswith(".csv")}


def summarize(files: dict[str, bytes], tables: dict) -> dict:
    """What the reference records of a job: result scalars and, per CSV
    column, its extremes, mean and a few evenly spaced rows."""
    summary = {"result": json.loads(files.get("result.json", b"{}")), "tables": {}}
    for name, columns in tables.items():
        table = {}
        for col, values in columns.items():
            rows = _sample_rows(len(values))
            entry = {"samples": [values[i] for i in rows]}
            if _numeric(values):
                arr = np.asarray(values)
                entry.update(min=float(arr.min()), max=float(arr.max()), mean=float(arr.mean()))
            table[col] = entry
        summary["tables"][name] = {"rows": len(next(iter(columns.values()), [])), "columns": table}
    return summary


def _close(value, ref, scale) -> bool:
    return abs(value - ref) <= RTOL * abs(ref) + COLUMN_ATOL * scale + ATOL


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def finiteness_problems(files: dict[str, bytes], tables: dict) -> list[str]:
    problems = []
    if "result.json" in files:
        for k, v in json.loads(files["result.json"]).items():
            bad = (_is_number(v) and not math.isfinite(v)) or (
                isinstance(v, str) and v.lower().lstrip("+-") in ("nan", "inf", "infinity")
            )
            if bad:
                problems.append(f"result.json {k} is not finite: {v!r}")
    for name, columns in tables.items():
        for col, values in columns.items():
            if _numeric(values) and not np.all(np.isfinite(values)):
                problems.append(f"{name} column {col} has a non-finite value")
    return problems


def invariant_problems(kind: str, files: dict[str, bytes], tables: dict) -> list[str]:
    problems = []
    result = json.loads(files.get("result.json", b"{}"))
    sweep = tables.get("sweep.csv")
    if kind == "emission_spectrum" and "spectrum.csv" in tables:
        cols = tables["spectrum.csv"]
        area = float(np.trapezoid(cols["normalized_intensity"], 2 * math.pi * np.asarray(cols["frequency_hz"])))
        if abs(area - 1.0) > SPECTRUM_TOL:
            problems.append(f"emission spectrum integrates to {area!r}")
    if kind == "lindblad":
        errors = sweep["max_trace_error"] if sweep else [result["max_trace_error"]]
        if "trajectory.csv" in tables:
            cols = tables["trajectory.csv"]
            total = np.asarray(cols["ground_population"]) + np.asarray(cols["excited_population"])
            errors = list(errors) + [float(np.max(np.abs(total - 1.0)))]
        if max(errors) > TRACE_TOL:
            problems.append(f"Lindblad trace error {max(errors):.2e} exceeds {TRACE_TOL}")
    if kind == "raman_memory":
        pairs = (
            zip(sweep["storage_efficiency"], sweep["total_efficiency"])
            if sweep
            else [(result["storage_efficiency"], result["total_efficiency"])]
        )
        for storage, total in pairs:
            if not 0.0 <= total <= storage <= 1.0:
                problems.append(f"memory efficiencies out of order: total {total}, storage {storage}")
    if kind == "crot" and "unitary.csv" in tables:
        cols = tables["unitary.csv"]
        flat = [cols[c][0] for c in cols]
        dim = math.isqrt(len(flat) // 2)
        u = (np.asarray(flat[0::2]) + 1j * np.asarray(flat[1::2])).reshape(dim, dim)
        dev = float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))
        if dev > UNITARY_TOL:
            problems.append(f"crot unitary deviates from unitarity by {dev:.2e}")
    return problems


def reference_problems(summary: dict, ref: dict) -> list[str]:
    """Differences from the reference. Outputs the reference does not know
    (a new scalar, column or file) are not compared; missing ones fail."""
    problems = []
    got, want = summary["result"], ref["result"]
    for k in sorted(set(want) - EXCLUDED):
        a, r = got.get(k), want[k]
        if _is_number(a) and _is_number(r):
            width = abs(want.get(SCALAR_SCALE.get(k), 0.0))
            ok = abs(a - r) <= RTOL * abs(r) + EIGEN_RTOL * width + ATOL
        else:
            ok = a == r
        if not ok:
            problems.append(f"result {k} = {a!r}, reference {r!r}")
    for name, want_t in sorted(ref["tables"].items()):
        got_t = summary["tables"].get(name)
        if got_t is None or got_t["rows"] != want_t["rows"]:
            problems.append(f"{name} is missing or has another row count")
            continue
        for col in sorted(set(want_t["columns"]) - EXCLUDED):
            g, w = got_t["columns"].get(col), want_t["columns"][col]
            if g is None or ("max" in w) != ("max" in g):
                problems.append(f"{name} column {col} is missing or changed type")
            elif "max" not in w:
                if g["samples"] != w["samples"]:
                    problems.append(f"{name} column {col} differs from reference")
            else:
                scale = max(abs(w["min"]), abs(w["max"]), TABLE_SCALE.get(name, 0.0))
                pairs = [(g[s], w[s]) for s in ("min", "max", "mean")]
                pairs += zip(g["samples"], w["samples"])
                if not all(_close(a, r, scale) for a, r in pairs):
                    problems.append(f"{name} column {col} differs from reference")
    return problems


def check_job(kind: str, files: dict[str, bytes], ref: dict | None) -> list[str]:
    """Every problem found with one job's outputs; empty when it passes."""
    problems = manifest_problems(files)
    if problems:
        return problems
    tables = parse_tables(files)
    problems = finiteness_problems(files, tables) + invariant_problems(kind, files, tables)
    if ref is None:
        return problems + ["no reference recorded for this job"]
    return problems + reference_problems(summarize(files, tables), ref)

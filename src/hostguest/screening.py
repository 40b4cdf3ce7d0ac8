"""Candidate screening over tabulated molecular excitation energies.

Ingests a CSV of polycyclic aromatic candidates, fits the empirical linear
scaling of the triplet energy against the singlet energy, and filters on
energy windows. Energies in the table are in eV (column names say so);
nothing here converts units.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateFit, EmptyDataset, ParseError

CSV_COLUMNS = ("name", "carbon_count", "e_s1_ev", "e_t1_ev", "centrosymmetric")

# Selection window defaults; engineering placeholders for a deep-triplet,
# visible-singlet screen, not fitted values.
DEFAULT_MIN_T1_EV = 2.0
DEFAULT_MAX_S1_EV = 3.5

_TRUE_WORDS = {"true", "1", "yes"}
_FALSE_WORDS = {"false", "0", "no"}


@dataclass(frozen=True)
class MoleculeRecord:
    """One screening candidate; energies in eV, 0 < e_t1 <= e_s1."""

    name: str
    carbon_count: int
    e_s1_ev: float
    e_t1_ev: float
    centrosymmetric: bool

    def __post_init__(self):
        if not self.name:
            raise ValueError("molecule name must be non-empty")
        if self.carbon_count <= 0 or int(self.carbon_count) != self.carbon_count:
            raise ValueError(f"carbon count must be a positive integer")
        if not (0.0 < self.e_t1_ev <= self.e_s1_ev):
            raise ValueError(
                f"need 0 < e_t1 <= e_s1, got t1={self.e_t1_ev}, s1={self.e_s1_ev}"
            )


@dataclass(frozen=True)
class RowDiagnostic:
    """Why a data row was rejected: one-based row number, column, reason."""

    row: int
    column: str | None
    reason: str


@dataclass(frozen=True)
class SelectionCriteria:
    """Keep candidates with e_t1 >= min_t1_ev and e_s1 <= max_s1_ev."""

    min_t1_ev: float = DEFAULT_MIN_T1_EV
    max_s1_ev: float = DEFAULT_MAX_S1_EV

    def admits(self, record: MoleculeRecord) -> bool:
        return record.e_t1_ev >= self.min_t1_ev and record.e_s1_ev <= self.max_s1_ev


class IngestResult(list):
    """Validated records, list-like, with per-row rejection diagnostics."""

    def __init__(self, records, rejected):
        super().__init__(records)
        self.rejected: tuple[RowDiagnostic, ...] = tuple(rejected)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUE_WORDS:
        return True
    if lowered in _FALSE_WORDS:
        return False
    raise ValueError(f"not a boolean: {text!r}")


# The columns after the name: (column, parser, reason for a cell it rejects).
_TYPED_COLUMNS = (
    ("carbon_count", int, "not an integer"),
    ("e_s1_ev", float, "not a number"),
    ("e_t1_ev", float, "not a number"),
    ("centrosymmetric", _parse_bool, "not a boolean"),
)


def ingest(path) -> IngestResult:
    """Read candidate records from a CSV file.

    The header must be exactly name,carbon_count,e_s1_ev,e_t1_ev,
    centrosymmetric (a wrong or missing header raises ParseError; an empty
    file raises EmptyDataset). The file is read as UTF-8: a path that is
    not a readable file raises EmptyDataset and non-UTF-8 bytes raise
    ParseError at their row, both naming the path. Data rows that fail to
    parse or violate the record invariants are skipped and reported in the
    result's ``rejected`` diagnostics with their one-based row numbers.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    except OSError as exc:
        raise EmptyDataset(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(row, None, f"{path} is not UTF-8 text: {exc.reason}") from None
    if not rows:
        raise EmptyDataset(f"{path} is empty")
    header = [cell.strip() for cell in rows[0]]
    if tuple(header) != CSV_COLUMNS:
        raise ParseError(1, None, f"header must be {','.join(CSV_COLUMNS)}")

    records: list[MoleculeRecord] = []
    rejected: list[RowDiagnostic] = []
    for number, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(CSV_COLUMNS):
            rejected.append(
                RowDiagnostic(number, None, f"expected {len(CSV_COLUMNS)} fields, got {len(row)}")
            )
            continue
        cells = []
        for cell, (column, parse, reason) in zip(row[1:], _TYPED_COLUMNS):
            try:
                cells.append(parse(cell))
            except ValueError:
                rejected.append(RowDiagnostic(number, column, f"{reason}: {cell!r}"))
                break
        else:
            try:
                records.append(MoleculeRecord(row[0].strip(), *cells))
            except ValueError as exc:
                rejected.append(RowDiagnostic(number, None, str(exc)))
    return IngestResult(records, rejected)


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least squares e_t1 = slope * e_s1 + intercept."""

    slope: float
    intercept: float
    r_squared: float


def fit_linear_scaling(records) -> LinearFit:
    """Fit the triplet-against-singlet energy scaling across candidates."""
    records = list(records)
    x = np.array([r.e_s1_ev for r in records])
    y = np.array([r.e_t1_ev for r in records])
    if len(records) < 2 or np.ptp(x) == 0.0:
        raise DegenerateFit("need at least two records with distinct e_s1 values")
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(residuals @ residuals)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return LinearFit(float(slope), float(intercept), r_squared)


def select_candidates(records, criteria: SelectionCriteria | None = None):
    """Records passing the selection window, in their original order."""
    criteria = criteria or SelectionCriteria()
    return [r for r in records if criteria.admits(r)]

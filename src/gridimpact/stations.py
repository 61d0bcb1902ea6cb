"""Charging-station registry: CSV ingestion, capacity classes, peak allocation.

Stations fall into four capacity classes by nameplate rating: L1-L4 are kW
bands (below 50, 50-150, 150-350, and 350 kW and up), not the SAE J1772
charging levels. A peak-hour demand is split across the registry
proportionally to per-class weights, so a station in a higher class receives
a proportionally larger share:

    s_c = peak_kw * w_c / sum_c(n_c * w_c)

with the weights 1 : 2 : 4 : 8 of ``CapacityClass`` for the four classes.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .config import check_coordinates, check_finite
from .errors import SchemaError, check_id, read_text, record_label

__all__ = [
    "CapacityClass",
    "EvStation",
    "parse_stations",
    "load_stations",
    "classify",
    "allocate_peak",
]


class CapacityClass(Enum):
    """Capacity class with half-open kW bounds and its allocation weight.

    Boundary ratings are assigned upward: a 50 kW station is L2, a 350 kW
    station is L4.
    """

    L1 = (0.0, 50.0, 1)
    L2 = (50.0, 150.0, 2)
    L3 = (150.0, 350.0, 4)
    L4 = (350.0, math.inf, 8)

    def __init__(self, lower_kw: float, upper_kw: float, weight: int):
        self.lower_kw = lower_kw
        self.upper_kw = upper_kw
        self.weight = weight


@dataclass(frozen=True)
class EvStation:
    id: str
    name: str
    lat: float
    lon: float
    rated_kw: float

    def __post_init__(self):
        check_id(self.id)
        check_finite(self, "rated_kw")
        if not self.rated_kw > 0:
            raise ValueError(f"rated_kw must be > 0, got {self.rated_kw}")
        check_coordinates(self)


_COLUMNS = ("id", "name", "lat", "lon", "rated_kw")


def parse_stations(table: str) -> list[EvStation]:
    """Parse the station registry from delimited text with header
    ``id,name,lat,lon,rated_kw``. Extra columns are ignored and may repeat; a
    column that is read may not. Duplicate ids, non-numeric values and rows
    the CSV reader refuses (a field over its size limit, say) are rejected
    with the offending row number: the line the record starts on, header =
    row 1, as a quoted field may span lines. A station's own fault reads
    ``row N: station <id>: <fault>``.
    """
    rows = _rows(csv.reader(io.StringIO(table)))
    try:
        _, header = next(rows)
    except StopIteration:
        raise SchemaError("row 1: missing header") from None
    header = [h.strip() for h in header]
    positions = {}
    for column in _COLUMNS:
        if column not in header:
            raise SchemaError(f"row 1: missing column '{column}'")
        if header.count(column) > 1:
            raise SchemaError(f"row 1: column '{column}' appears twice")
        positions[column] = header.index(column)
    width = max(positions.values()) + 1  # a row may omit columns past those read

    stations: list[EvStation] = []
    seen: set[str] = set()
    for row_num, row in rows:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < width:
            raise SchemaError(f"row {row_num}: expected {width} columns, got {len(row)}")
        raw = {col: row[positions[col]].strip() for col in _COLUMNS}
        numeric = {}
        for col in ("lat", "lon", "rated_kw"):
            try:
                numeric[col] = float(raw[col])
            except ValueError:
                raise SchemaError(f"row {row_num}: non-numeric {col}") from None
        if raw["id"] in seen:
            raise SchemaError(f"row {row_num}: duplicate id {raw['id']}")
        seen.add(raw["id"])
        try:
            stations.append(EvStation(id=raw["id"], name=raw["name"], **numeric))
        except ValueError as exc:
            raise SchemaError(f"row {row_num}: {record_label('station', raw)}: {exc}") from None
    return stations


def _rows(reader):
    """``(line, row)`` for each row of ``reader``, ``line`` the line the row
    starts on; a row it refuses raises ``SchemaError`` naming that line."""
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise SchemaError(f"row {start}: {exc}") from None


def load_stations(path) -> list[EvStation]:
    """Read the registry file ``path``; every fault is a ``SchemaError``
    starting ``station registry <path>: ``."""
    text = read_text(path, "station registry")
    try:
        return parse_stations(text)
    except SchemaError as exc:
        raise SchemaError(f"station registry {path}: {exc}") from None


def classify(rated_kw: float) -> CapacityClass:
    if not 0 < rated_kw < math.inf:
        raise ValueError(f"rated_kw must be finite and > 0, got {rated_kw}")
    return next(klass for klass in CapacityClass if klass.lower_kw <= rated_kw < klass.upper_kw)


def allocate_peak(peak_kw: float, census: Counter[CapacityClass]) -> dict[CapacityClass, float]:
    """Per-station kW share for each capacity class, weighted by
    ``CapacityClass.weight``. ``census`` counts the stations of each class,
    ``Counter(classify(s.rated_kw) for s in stations)``; an absent class has none.

    The reconstruction identity sum_c(n_c * s_c) == peak_kw holds to 1e-9
    relative by construction.
    """
    if peak_kw < 0:
        raise ValueError(f"peak_kw must be >= 0, got {peak_kw}")
    denominator = math.fsum(census[c] * c.weight for c in CapacityClass)
    if denominator <= 0:
        raise ValueError("empty census: no weighted stations to allocate across")
    return {c: peak_kw * c.weight / denominator for c in CapacityClass}

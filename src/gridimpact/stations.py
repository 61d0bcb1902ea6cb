"""Charging-station registry: CSV ingestion, capacity classes, peak allocation.

Stations fall into four capacity levels by nameplate rating. A peak-hour
demand is split across the registry proportionally to per-class weights, so
a station in a higher class receives a proportionally larger share:

    s_c = peak_kw * w_c / sum_c(n_c * w_c)

with the weights 1 : 2 : 4 : 8 of ``CapacityClass`` for the four levels.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .errors import SchemaError, check_id

__all__ = [
    "CapacityClass",
    "EvStation",
    "parse_stations",
    "load_stations",
    "classify",
    "allocate_peak",
]


class CapacityClass(Enum):
    """Capacity level with half-open kW bounds and its allocation weight.

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
        check_id("station", self.id)
        if not 0 < self.rated_kw < math.inf:
            raise SchemaError(f"station {self.id}: rated_kw must be finite and > 0")
        if not -90.0 <= self.lat <= 90.0 or not -180.0 <= self.lon <= 180.0:
            raise SchemaError(f"station {self.id}: coordinates outside WGS84 bounds")


_COLUMNS = ("id", "name", "lat", "lon", "rated_kw")


def parse_stations(table: str) -> list[EvStation]:
    """Parse the station registry from delimited text with header
    ``id,name,lat,lon,rated_kw``. Extra columns are ignored; duplicate ids and
    non-numeric values are rejected with the offending row number (header = row 1).
    """
    reader = csv.reader(io.StringIO(table))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("row 1: missing header") from None
    header = [h.strip() for h in header]
    positions = {}
    for column in _COLUMNS:
        if column not in header:
            raise SchemaError(f"row 1: missing column '{column}'")
        positions[column] = header.index(column)

    stations: list[EvStation] = []
    seen: set[str] = set()
    for row in reader:
        row_num = reader.line_num
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            raise SchemaError(f"row {row_num}: expected {len(header)} columns, got {len(row)}")
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
            stations.append(EvStation(id=raw["id"], name=raw["name"],
                                      lat=numeric["lat"], lon=numeric["lon"],
                                      rated_kw=numeric["rated_kw"]))
        except SchemaError as exc:
            raise SchemaError(f"row {row_num}: {exc}") from None
    return stations


def load_stations(path) -> list[EvStation]:
    # utf-8-sig drops the byte-order mark that spreadsheet exports prepend
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        return parse_stations(handle.read())


def classify(rated_kw: float) -> CapacityClass:
    if not rated_kw > 0:
        raise ValueError(f"rated_kw must be > 0, got {rated_kw}")
    for klass in CapacityClass:
        if klass.lower_kw <= rated_kw < klass.upper_kw:
            return klass
    raise AssertionError("unreachable: class bounds cover (0, inf)")


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

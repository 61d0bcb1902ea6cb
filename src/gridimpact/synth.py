"""Deterministic synthetic radial feeders and station registries.

The acceptance fixtures, property tests and benchmarks all run on feeders
produced here: random recursive trees with geographic coordinates jittered
around a center point, uniform voltage base, and constant-power loads on
most buses. Everything is seeded; the same arguments always return the same
model.
"""

from __future__ import annotations

import numpy as np

from .netmodel import Bus, Line, LoadPoint, NetworkModel, Source
from .stations import EvStation

__all__ = ["random_feeder", "random_stations"]

# Every feeder and registry is drawn around one point (lat, lon) in degrees.
_CENTER = (37.33, -121.89)
_SPREAD_DEG = 0.02
# Loads draw kvar at power factor 0.95.
_TAN_PHI = float(np.sqrt(1.0 - 0.95**2) / 0.95)


def random_feeder(
    n_buses: int,
    seed: int,
    *,
    base_kv: float = 12.47,
    load_kw_range: tuple[float, float] = (10.0, 120.0),
    resistance_ohm_range: tuple[float, float] = (0.05, 0.5),
    reactance_ohm_range: tuple[float, float] = (0.05, 0.5),
) -> NetworkModel:
    """Random radial feeder with ``n_buses`` buses rooted at bus ``b000``.

    Each non-root bus attaches to a uniformly chosen earlier bus, which gives
    trees with realistic branching. A non-root bus carries a load with
    probability 0.8, the root with probability 0.2, so the slack-side load
    path is exercised too. The source holds 1.0 pu.
    """
    if n_buses < 1:
        raise ValueError("n_buses must be >= 1")
    rng = np.random.default_rng(seed)
    width = max(3, len(str(n_buses - 1)))

    buses = []
    for i in range(n_buses):
        lat = _CENTER[0] + rng.uniform(-_SPREAD_DEG, _SPREAD_DEG)
        lon = _CENTER[1] + rng.uniform(-_SPREAD_DEG, _SPREAD_DEG)
        buses.append(Bus(id=f"b{i:0{width}d}", lat=round(lat, 6), lon=round(lon, 6),
                         base_kv=base_kv))

    lines = []
    for i in range(1, n_buses):
        parent = int(rng.integers(0, i))
        lines.append(Line(
            id=f"l{i:0{width}d}",
            from_bus=buses[parent].id,
            to_bus=buses[i].id,
            resistance_ohm=round(float(rng.uniform(*resistance_ohm_range)), 6),
            reactance_ohm=round(float(rng.uniform(*reactance_ohm_range)), 6),
            ampacity_a=float(rng.choice([100.0, 200.0, 400.0, 600.0])),
        ))

    loads = []
    for i in range(n_buses):
        wanted = rng.random() < (0.8 if i > 0 else 0.2)
        if not wanted:
            continue
        kw = round(float(rng.uniform(*load_kw_range)), 3)
        loads.append(LoadPoint(id=f"ld{i:0{width}d}", bus_id=buses[i].id,
                               kw=kw, kvar=round(kw * _TAN_PHI, 3)))
    if not loads:  # degenerate draw: keep at least one load so solves are non-trivial
        kw = round(float(rng.uniform(*load_kw_range)), 3)
        loads.append(LoadPoint(id=f"ld{n_buses - 1:0{width}d}", bus_id=buses[-1].id,
                               kw=kw, kvar=round(kw * _TAN_PHI, 3)))

    return NetworkModel(buses=tuple(buses), lines=tuple(lines), loads=tuple(loads),
                        source=Source(bus_id=buses[0].id, voltage_pu=1.0))


def random_stations(
    n_stations: int,
    seed: int,
    *,
    class_counts: tuple[int, int, int, int],
) -> list[EvStation]:
    """Random station registry. ``class_counts`` pins how many stations fall
    in each of the four capacity levels, in ``CapacityClass`` order."""
    if sum(class_counts) != n_stations:
        raise ValueError("class_counts must sum to n_stations")
    rng = np.random.default_rng(seed)
    ratings = np.concatenate([
        rng.uniform(10.0, 49.0, class_counts[0]),
        rng.uniform(50.0, 149.0, class_counts[1]),
        rng.uniform(150.0, 349.0, class_counts[2]),
        rng.uniform(350.0, 900.0, class_counts[3]),
    ])

    stations = []
    width = max(3, len(str(max(n_stations - 1, 0))))
    for i in range(n_stations):
        stations.append(EvStation(
            id=f"s{i:0{width}d}",
            name=f"Station {i}",
            lat=round(_CENTER[0] + float(rng.uniform(-_SPREAD_DEG, _SPREAD_DEG)), 6),
            lon=round(_CENTER[1] + float(rng.uniform(-_SPREAD_DEG, _SPREAD_DEG)), 6),
            rated_kw=round(float(ratings[i]), 1),
        ))
    return stations

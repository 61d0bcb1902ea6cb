"""Geo-referenced radial feeder model: domain types, JSON parsing, topology checks.

The native network document is a single JSON object with arrays ``buses``,
``lines``, ``loads`` and an object ``source``. Field names are lower_snake_case
and carry their unit in the name (``resistance_ohm``, ``base_kv`` ...). The
schema is strict: unknown fields are rejected so that unit mistakes surface
at parse time instead of producing silently wrong physics.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Union

from .errors import SchemaError, check_id, read_record

__all__ = [
    "Bus",
    "Line",
    "LoadPoint",
    "Source",
    "NetworkModel",
    "TopologyReport",
    "parse_network",
    "load_network",
    "serialize_network",
    "tree_walk",
    "validate_radial",
    "bus_catalog",
]


def _id_key(identifier: str) -> bytes:
    # byte-wise ordering keeps downstream tie-breaking reproducible across locales
    return identifier.encode("utf-8")


@dataclass(frozen=True)
class Bus:
    """A network node with WGS84 coordinates and a line-to-line voltage base."""

    id: str
    lat: float
    lon: float
    base_kv: float

    def __post_init__(self):
        check_id("bus", self.id)
        if not -90.0 <= self.lat <= 90.0:
            raise SchemaError(f"bus {self.id}: lat {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise SchemaError(f"bus {self.id}: lon {self.lon} outside [-180, 180]")
        if not self.base_kv > 0:
            raise SchemaError(f"bus {self.id}: base_kv must be > 0")


@dataclass(frozen=True)
class Line:
    """A series branch between two buses. Transformers are represented as lines
    with equivalent impedance; there is no separate transformer type."""

    id: str
    from_bus: str
    to_bus: str
    resistance_ohm: float
    reactance_ohm: float
    ampacity_a: float

    def __post_init__(self):
        check_id("line", self.id)
        if self.from_bus == self.to_bus:
            raise SchemaError(f"line {self.id}: from_bus equals to_bus ({self.from_bus})")
        if not self.ampacity_a > 0:
            raise SchemaError(f"line {self.id}: ampacity_a must be > 0")
        if self.resistance_ohm < 0 or self.reactance_ohm < 0:
            raise SchemaError(f"line {self.id}: impedance components must be >= 0")
        if self.resistance_ohm == 0 and self.reactance_ohm == 0:
            raise SchemaError(f"line {self.id}: resistance and reactance are both zero")


@dataclass(frozen=True)
class LoadPoint:
    """Constant-power (PQ) load attached to a bus."""

    id: str
    bus_id: str
    kw: float
    kvar: float

    def __post_init__(self):
        check_id("load", self.id)
        if self.kw < 0:
            raise SchemaError(f"load {self.id}: kw must be >= 0")


@dataclass(frozen=True)
class Source:
    """The single slack point holding a fixed voltage at the feeder head."""

    bus_id: str
    voltage_pu: float

    def __post_init__(self):
        if not 0.8 <= self.voltage_pu <= 1.2:
            raise SchemaError(f"source voltage_pu {self.voltage_pu} outside [0.8, 1.2]")


@dataclass(frozen=True)
class NetworkModel:
    """Immutable container for one feeder. Collections are normalized to
    ascending-id order on construction so every downstream ordering contract
    (catalogs, exports, tie-breaks) is reproducible.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    loads: tuple[LoadPoint, ...]
    source: Source
    _bus_index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(sorted(self.buses, key=lambda b: _id_key(b.id))))
        object.__setattr__(self, "lines", tuple(sorted(self.lines, key=lambda l: _id_key(l.id))))
        object.__setattr__(self, "loads", tuple(sorted(self.loads, key=lambda l: _id_key(l.id))))

        bus_index = {}
        for bus in self.buses:
            if bus.id in bus_index:
                raise SchemaError(f"duplicate id: bus {bus.id}")
            bus_index[bus.id] = bus
        object.__setattr__(self, "_bus_index", bus_index)

        # The solver refers every impedance and current to the source bus's
        # kV, so a feeder with a second voltage level would give wrong amps.
        levels = sorted({bus.base_kv for bus in self.buses})
        if len(levels) > 1:
            raise SchemaError(f"mixed base_kv {levels}: every bus must share one voltage base")

        seen_lines = set()
        for line in self.lines:
            if line.id in seen_lines:
                raise SchemaError(f"duplicate id: line {line.id}")
            seen_lines.add(line.id)
            for endpoint in (line.from_bus, line.to_bus):
                if endpoint not in bus_index:
                    raise SchemaError(f"dangling bus reference: {endpoint} (line {line.id})")

        seen_loads = set()
        for load in self.loads:
            if load.id in seen_loads:
                raise SchemaError(f"duplicate id: load {load.id}")
            seen_loads.add(load.id)
            if load.bus_id not in bus_index:
                raise SchemaError(f"dangling bus reference: {load.bus_id} (load {load.id})")

        if self.source.bus_id not in bus_index:
            raise SchemaError(f"dangling bus reference: {self.source.bus_id} (source)")

    def bus(self, bus_id: str) -> Bus:
        return self._bus_index[bus_id]

    def total_load_kw(self) -> float:
        """Total constant-power demand of the model, exactly-rounded sum."""
        import math

        return math.fsum(load.kw for load in self.loads)


@dataclass(frozen=True)
class TopologyReport:
    connected: bool
    radial: bool
    orphan_buses: tuple[str, ...]


# --- parsing -----------------------------------------------------------------

@dataclass(frozen=True)
class _Document:
    """The top level of the network document, before its records are read."""

    buses: list
    lines: list
    loads: list
    source: Source


def _read_records(cls, items: list, what: str) -> tuple:
    return tuple(
        read_record(cls, item, f"{what} {item.get('id', '?')}" if isinstance(item, dict) else what)
        for item in items)


def parse_network(document: Union[str, bytes, dict]) -> NetworkModel:
    """Parse the native JSON network document and validate all invariants.

    Accepts the JSON text itself or an already-decoded dict.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"network document is not valid JSON: {exc}") from exc
    doc = read_record(_Document, document, "network document")
    return NetworkModel(buses=_read_records(Bus, doc.buses, "bus"),
                        lines=_read_records(Line, doc.lines, "line"),
                        loads=_read_records(LoadPoint, doc.loads, "load"),
                        source=doc.source)


def load_network(path) -> NetworkModel:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_network(handle.read())


def serialize_network(net: NetworkModel) -> str:
    """Emit the native JSON document: fixed key order, coordinates at 6 decimals.

    ``parse_network(serialize_network(net)) == net`` holds field-for-field for
    any model whose coordinates are already quantized to 6 decimals.
    """
    doc = {
        "buses": [{**asdict(b), "lat": round(b.lat, 6), "lon": round(b.lon, 6)}
                  for b in net.buses],
        "lines": [asdict(l) for l in net.lines],
        "loads": [asdict(l) for l in net.loads],
        "source": asdict(net.source),
    }
    return json.dumps(doc, indent=2)


# --- topology ----------------------------------------------------------------


def tree_walk(net: NetworkModel) -> list[tuple[int, int, int]]:
    """Breadth-first walk of the lines from the source bus.

    Returns one ``(parent, child, line)`` triple per bus reached, as indices
    into ``net.buses`` and ``net.lines``, in visit order. Each bus's
    neighbours are taken in line-id order and the queue is FIFO, so the
    order is fixed by the model; the sweep's summation order, and so its
    bits, follow it. A line that closes a cycle is never walked.
    """
    index = {bus.id: i for i, bus in enumerate(net.buses)}
    adjacency: list[list[tuple[int, int]]] = [[] for _ in net.buses]
    for j, line in enumerate(net.lines):
        a, b = index[line.from_bus], index[line.to_bus]
        adjacency[a].append((b, j))
        adjacency[b].append((a, j))

    source = index[net.source.bus_id]
    seen = [False] * len(net.buses)
    seen[source] = True
    walk = []
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w, j in adjacency[u]:
            if not seen[w]:
                seen[w] = True
                walk.append((u, w, j))
                queue.append(w)
    return walk


def validate_radial(net: NetworkModel) -> TopologyReport:
    """Diagnostic check: is every bus reachable from the source, and is the
    edge count that of a tree. Never raises."""
    reached = {net.source.bus_id} | {net.buses[child].id for _, child, _ in tree_walk(net)}
    orphans = tuple(b.id for b in net.buses if b.id not in reached)  # buses are id-sorted
    connected = not orphans
    radial = connected and len(net.lines) == len(net.buses) - 1
    return TopologyReport(connected=connected, radial=radial, orphan_buses=orphans)


def bus_catalog(net: NetworkModel, *,
                load_buses_only: bool = False) -> list[tuple[str, float, float]]:
    """Ordered (bus id, lat, lon) catalog, ascending id byte-wise.

    ``load_buses_only`` restricts it to buses that carry at least one LoadPoint.
    """
    buses = net.buses
    if load_buses_only:
        load_bus_ids = {load.bus_id for load in net.loads}
        buses = tuple(b for b in buses if b.id in load_bus_ids)
    return [(b.id, b.lat, b.lon) for b in buses]

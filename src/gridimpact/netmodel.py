"""Geo-referenced radial feeder model: domain types, JSON parsing, topology checks.

The native network document is a single JSON object with arrays ``buses``,
``lines``, ``loads`` and an object ``source``. Field names are lower_snake_case
and carry their unit in the name (``resistance_ohm``, ``base_kv`` ...). The
schema is strict: unknown fields are rejected so that unit mistakes surface
at parse time instead of producing silently wrong physics.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field

from .config import check_coordinates, check_finite
from .errors import check_id, decode_json, read_record, read_text

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
]


@dataclass(frozen=True)
class Bus:
    """A network node with WGS84 coordinates and a line-to-line voltage base."""

    kind = "bus"  # how a network reader names the record in a fault; not a field
    id: str
    lat: float
    lon: float
    base_kv: float

    def __post_init__(self):
        check_id(self.id)
        check_coordinates(self)
        check_finite(self, "base_kv")
        if not self.base_kv > 0:
            raise ValueError("base_kv must be > 0")


@dataclass(frozen=True)
class Line:
    """A series branch between two buses. Transformers are represented as lines
    with equivalent impedance; there is no separate transformer type."""

    kind = "line"
    id: str
    from_bus: str
    to_bus: str
    resistance_ohm: float
    reactance_ohm: float
    ampacity_a: float

    def __post_init__(self):
        check_id(self.id)
        if self.from_bus == self.to_bus:
            raise ValueError(f"from_bus equals to_bus ({self.from_bus})")
        check_finite(self, "resistance_ohm", "reactance_ohm", "ampacity_a")
        if not self.ampacity_a > 0:
            raise ValueError("ampacity_a must be > 0")
        if self.resistance_ohm < 0 or self.reactance_ohm < 0:
            raise ValueError("impedance components must be >= 0")
        if self.resistance_ohm == 0 and self.reactance_ohm == 0:
            raise ValueError("resistance and reactance are both zero")


@dataclass(frozen=True)
class LoadPoint:
    """Constant-power (PQ) load attached to a bus."""

    kind = "load"
    id: str
    bus_id: str
    kw: float
    kvar: float

    def __post_init__(self):
        check_id(self.id)
        check_finite(self, "kw", "kvar")
        if self.kw < 0:
            raise ValueError("kw must be >= 0")


@dataclass(frozen=True)
class Source:
    """The single slack point holding a fixed voltage at the feeder head."""

    bus_id: str
    voltage_pu: float

    def __post_init__(self):
        if not 0.8 <= self.voltage_pu <= 1.2:
            raise ValueError(f"voltage_pu {self.voltage_pu} outside [0.8, 1.2]")


@dataclass(frozen=True)
class NetworkModel:
    """Immutable container for one feeder, and the schema of the network
    document: each field is one top-level key. Collections are normalized to
    ascending-id order on construction so every downstream ordering contract
    (catalogs, exports, tie-breaks) is reproducible. Ids sort by code point,
    which for the ids ``check_id`` admits is their UTF-8 byte order.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    loads: tuple[LoadPoint, ...]
    source: Source
    _bus_index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(sorted(self.buses, key=lambda b: b.id)))
        object.__setattr__(self, "lines", tuple(sorted(self.lines, key=lambda l: l.id)))
        object.__setattr__(self, "loads", tuple(sorted(self.loads, key=lambda l: l.id)))

        bus_index = {}
        for bus in self.buses:
            if bus.id in bus_index:
                raise ValueError(f"duplicate id: {bus.kind} {bus.id}")
            bus_index[bus.id] = bus
        object.__setattr__(self, "_bus_index", bus_index)

        # The solver refers every impedance and current to the source bus's
        # kV, so a feeder with a second voltage level would give wrong amps.
        levels = sorted({bus.base_kv for bus in self.buses})
        if len(levels) > 1:
            raise ValueError(f"mixed base_kv {levels}: every bus must share one voltage base")

        for records, refs in ((self.lines, ("from_bus", "to_bus")), (self.loads, ("bus_id",))):
            seen = set()
            for record in records:
                if record.id in seen:
                    raise ValueError(f"duplicate id: {record.kind} {record.id}")
                seen.add(record.id)
                for bus_id in (getattr(record, name) for name in refs):
                    if bus_id not in bus_index:
                        raise ValueError(
                            f"dangling bus reference: {bus_id} ({record.kind} {record.id})")

        if self.source.bus_id not in bus_index:
            raise ValueError(f"dangling bus reference: {self.source.bus_id} (source)")

    def bus(self, bus_id: str) -> Bus:
        return self._bus_index[bus_id]

    def total_load_kw(self) -> float:
        """Total constant-power demand of the model, exactly-rounded sum."""
        return math.fsum(load.kw for load in self.loads)


@dataclass(frozen=True)
class TopologyReport:
    connected: bool
    radial: bool
    orphan_buses: tuple[str, ...]


# --- parsing -----------------------------------------------------------------


def parse_network(document: str | bytes | dict) -> NetworkModel:
    """Parse the native JSON network document, as text or already decoded,
    into ``NetworkModel``, its schema. Every fault is a ``SchemaError``
    starting ``network document``."""
    if isinstance(document, (str, bytes)):
        document = decode_json(document, "network document")
    return read_record(NetworkModel, document, "network document")


def load_network(path) -> NetworkModel:
    """Read the network file ``path``; every fault is a ``SchemaError``
    starting ``network <path>``."""
    where = f"network {path}"
    return read_record(NetworkModel, decode_json(read_text(path, "network"), where), where)


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
    order is fixed by the model. The solver takes only each line's
    orientation from it. A line that closes a cycle is never walked.
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

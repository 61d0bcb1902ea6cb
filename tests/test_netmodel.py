import contextlib
import dataclasses
import enum
import json
import math
import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gridimpact.errors import SchemaError, TopologyError, read_record
from gridimpact.netmodel import (
    Bus,
    Line,
    LoadPoint,
    NetworkModel,
    Source,
    parse_network,
    serialize_network,
    tree_walk,
    validate_radial,
)
from gridimpact import netmodel
from gridimpact.powerflow import solve_snapshot, solver
from gridimpact.powerflow.solver import _CompiledFeeder

from oracles import is_tree, reachable_from


@contextlib.contextmanager
def record_fault(message):
    """A record built in Python states only its fault: a plain ``ValueError``
    whose text is exactly ``message``, never a ``SchemaError``, which names a
    document."""
    with pytest.raises(ValueError) as raised:
        yield
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


def path_network(n_buses: int, extra_lines=()) -> NetworkModel:
    buses = tuple(Bus(f"b{i}", 37.0 + i * 1e-4, -122.0, 12.47) for i in range(n_buses))
    lines = [Line(f"l{i}", f"b{i - 1}", f"b{i}", 0.1, 0.2, 400.0)
             for i in range(1, n_buses)]
    lines.extend(extra_lines)
    return NetworkModel(buses=buses, lines=tuple(lines), loads=(),
                        source=Source("b0", 1.0))


class TestParse:
    def test_minimal_document(self, minimal_doc_text):
        net = parse_network(minimal_doc_text)
        assert len(net.buses) == 2
        assert len(net.lines) == 1
        assert net.source.bus_id == "b0"
        assert net.loads[0].kw == 50.0

    def test_accepts_decoded_dict(self, minimal_doc):
        assert len(parse_network(minimal_doc).buses) == 2

    def test_dangling_line_reference(self, minimal_doc):
        minimal_doc["lines"][0]["to_bus"] = "b9"
        with pytest.raises(SchemaError, match="dangling bus reference: b9"):
            parse_network(minimal_doc)

    def test_dangling_load_reference(self, minimal_doc):
        minimal_doc["loads"][0]["bus_id"] = "nope"
        with pytest.raises(SchemaError, match="dangling bus reference: nope"):
            parse_network(minimal_doc)

    def test_duplicate_bus_id(self, minimal_doc):
        minimal_doc["buses"].append(dict(minimal_doc["buses"][0]))
        with pytest.raises(SchemaError, match="duplicate id: bus b0"):
            parse_network(minimal_doc)

    def test_mixed_base_kv_rejected(self, minimal_doc):
        minimal_doc["buses"][1]["base_kv"] = 0.48
        with pytest.raises(SchemaError, match=r"mixed base_kv \[0\.48, 12\.47\]"):
            parse_network(minimal_doc)

    def test_missing_field_names_offender(self, minimal_doc):
        del minimal_doc["buses"][1]["lat"]
        with pytest.raises(SchemaError, match="bus b1: missing field 'lat'"):
            parse_network(minimal_doc)

    def test_wrong_unit_tag_rejected(self, minimal_doc):
        minimal_doc["lines"][0]["resistance"] = minimal_doc["lines"][0].pop("resistance_ohm")
        with pytest.raises(SchemaError):
            parse_network(minimal_doc)

    def test_wrong_type_rejected(self, minimal_doc):
        minimal_doc["buses"][0]["lat"] = "37.0"
        with pytest.raises(SchemaError, match="wrong type"):
            parse_network(minimal_doc)

    @pytest.mark.parametrize("section,key,value", [
        ("loads", "kw", float("nan")),
        ("loads", "kvar", float("inf")),
        ("lines", "resistance_ohm", float("nan")),
    ])
    def test_non_finite_number_rejected(self, minimal_doc, section, key, value):
        """Python's json reads NaN and Infinity, and every ``< 0`` check passes NaN."""
        minimal_doc[section][0][key] = value
        with pytest.raises(SchemaError, match=f"field '{key}' has wrong type"):
            parse_network(json.dumps(minimal_doc))

    @pytest.mark.parametrize("key,value", [("buses", 5), ("lines", {}), ("loads", "b1")])
    def test_non_array_section_rejected(self, minimal_doc, key, value):
        minimal_doc[key] = value
        with pytest.raises(SchemaError, match=f"field '{key}' has wrong type"):
            parse_network(minimal_doc)

    def test_invalid_json_text(self):
        with pytest.raises(SchemaError, match="not valid JSON"):
            parse_network("{nope")

    @pytest.mark.parametrize("buses,message", [
        ([5], "network document: bus: expected an object, got int"),
        ([{"lat": 37.0, "lon": -122.0, "base_kv": 12.47}],
         "network document: bus ?: missing field 'id'"),
    ], ids=["not_an_object", "no_id"])
    def test_record_array_names_kind_and_id(self, minimal_doc, buses, message):
        minimal_doc["buses"] = buses
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            parse_network(minimal_doc)

    def test_bad_record_reported_before_unknown_key(self, minimal_doc):
        """Top-level keys are read in document order, records included, so a
        bad record listed first is the fault reported."""
        del minimal_doc["buses"][1]["lat"]
        minimal_doc["feeders"] = []
        with pytest.raises(SchemaError, match="^network document: bus b1: missing field 'lat'$"):
            parse_network(minimal_doc)

    def test_field_type_without_reader_raises_type_error(self):
        @dataclasses.dataclass(frozen=True)
        class Unreadable:
            ids: set

        with pytest.raises(TypeError, match="^no JSON reader for field type <class 'set'>$"):
            read_record(Unreadable, {"ids": []}, "document")

    @pytest.mark.parametrize("nested", ["record", "records"])
    def test_nested_field_type_without_reader_raises_type_error(self, nested):
        """An unreadable field type in a nested record, or in the records of
        a ``tuple[Record, ...]``, is the class's fault as at the top level:
        the outer schema fails as it is built, never as a ``SchemaError``
        that blames the document."""
        @dataclasses.dataclass(frozen=True)
        class Unreadable:
            kind = "unreadable"
            ids: set

        @dataclasses.dataclass(frozen=True)
        class Outer:
            record: Unreadable
            records: tuple[Unreadable, ...]

        document = {"record": {"ids": []}, "records": [{"ids": []}]}
        with pytest.raises(TypeError, match="^no JSON reader for field type <class 'set'>$"):
            read_record(Outer, {nested: document[nested]}, "doc")

    def test_enum_field_reads_member_by_value(self):
        """Any ``Enum`` field reads the member whose value is the string as
        written, with no reader code of its own; an unknown token names the
        field, the token and every value in definition order."""
        class FeederPlacement(enum.Enum):
            DISTRIBUTED = "distributed"
            CENTRALISED = "centralised"

        @dataclasses.dataclass(frozen=True)
        class Study:
            placement: FeederPlacement
            backup: FeederPlacement | None = None

        study = read_record(Study, {"placement": "centralised", "backup": None}, "study")
        assert study.placement is FeederPlacement.CENTRALISED and study.backup is None
        assert read_record(Study, {"placement": "distributed", "backup": "centralised"},
                           "study").backup is FeederPlacement.CENTRALISED
        for token in ("Centralised", " centralised", "CENTRALISED"):
            with pytest.raises(SchemaError, match="^" + re.escape(
                    f"study: field 'placement': unknown feeder placement {token!r} "
                    "(expected one of: distributed, centralised)") + "$"):
                read_record(Study, {"placement": token}, "study")
        with pytest.raises(SchemaError, match="^study: field 'backup' has wrong type: "
                                              "expected a string, got 1$"):
            read_record(Study, {"placement": "distributed", "backup": 1}, "study")

    def test_coordinate_bounds_enforced(self, minimal_doc):
        minimal_doc["buses"][0]["lat"] = 95.0
        with pytest.raises(SchemaError, match="lat"):
            parse_network(minimal_doc)

    def test_zero_impedance_line_rejected(self, minimal_doc):
        minimal_doc["lines"][0]["resistance_ohm"] = 0.0
        minimal_doc["lines"][0]["reactance_ohm"] = 0.0
        with pytest.raises(SchemaError, match="both zero"):
            parse_network(minimal_doc)

    @pytest.mark.parametrize("section,kind", [("buses", "bus"), ("lines", "line"),
                                              ("loads", "load")])
    @pytest.mark.parametrize("bad", ["", "x,1", 'x"1', "x\r1", "x\n1"])
    def test_id_must_be_writable_verbatim(self, minimal_doc, section, kind, bad):
        minimal_doc[section][-1]["id"] = bad
        fault = (f"id {bad!r} must not contain a comma, double quote, CR or LF" if bad else
                 "id must not be empty")
        with pytest.raises(SchemaError) as raised:
            parse_network(minimal_doc)
        # the reader names a record by an id only when it is writable
        assert str(raised.value) == f"network document: {kind} ?: {fault}"

    def test_fixture_counts(self, feeder40):
        assert len(feeder40.buses) == 40
        assert len(feeder40.lines) == 39
        assert validate_radial(feeder40).radial
        # independent traversal agrees
        assert is_tree(feeder40)


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self, feeder40):
        again = parse_network(serialize_network(feeder40))
        assert again == feeder40

    def test_round_trip_on_generated_feeders(self):
        from gridimpact.synth import random_feeder

        for seed in range(5):
            net = random_feeder(15 + seed, seed=seed)
            assert parse_network(serialize_network(net)) == net

    def test_reserialize_is_byte_identical(self, feeder40):
        text = serialize_network(feeder40)
        assert serialize_network(parse_network(text)) == text

    def test_coordinates_quantized_to_6_decimals(self):
        net = NetworkModel(
            buses=(Bus("b0", 37.123456789, -122.987654321, 12.47),),
            lines=(), loads=(), source=Source("b0", 1.0))
        doc = json.loads(serialize_network(net))
        assert doc["buses"][0]["lat"] == 37.123457
        assert doc["buses"][0]["lon"] == -122.987654


class TestTopology:
    def test_path_is_radial(self):
        report = validate_radial(path_network(3))
        assert report.connected and report.radial and report.orphan_buses == ()

    def test_cycle_is_connected_not_radial(self):
        cycle_closer = Line("l9", "b2", "b0", 0.1, 0.2, 400.0)
        report = validate_radial(path_network(3, extra_lines=[cycle_closer]))
        assert report.connected
        assert not report.radial

    def test_disconnected_bus_reported(self):
        buses = tuple(Bus(f"b{i}", 37.0, -122.0 + i * 1e-4, 12.47) for i in range(4))
        lines = (Line("l1", "b0", "b1", 0.1, 0.2, 400.0),
                 Line("l2", "b1", "b2", 0.1, 0.2, 400.0))
        net = NetworkModel(buses=buses, lines=lines, loads=(), source=Source("b0", 1.0))
        report = validate_radial(net)
        assert not report.connected
        assert not report.radial
        assert report.orphan_buses == ("b3",)

    def test_radial_implies_tree_by_independent_check(self, feeder20):
        assert validate_radial(feeder20).radial
        assert reachable_from(feeder20, feeder20.source.bus_id) == {b.id for b in feeder20.buses}
        assert len(feeder20.lines) == len(feeder20.buses) - 1


def line(line_id, a, b):
    return Line(line_id, a, b, 0.1, 0.2, 400.0)


WALK_CASES = {
    "radial": path_network(4),
    "cycle_closing_line": path_network(3, extra_lines=[line("l9", "b2", "b0")]),
    "orphan_buses": NetworkModel(
        buses=tuple(Bus(f"b{i}", 37.0, -122.0 + i * 1e-4, 12.47) for i in range(5)),
        lines=(line("l1", "b0", "b1"), line("l2", "b1", "b2")),
        loads=(), source=Source("b0", 1.0)),
    "parallel_lines": path_network(2, extra_lines=[line("l9", "b0", "b1")]),
    "single_bus": path_network(1),
}


class TestOneWalk:
    @pytest.mark.parametrize("name", WALK_CASES)
    def test_report_agrees_with_compiled_feeder(self, name):
        net = WALK_CASES[name]
        report = validate_radial(net)
        try:
            _CompiledFeeder(net)
        except TopologyError as exc:
            assert not report.radial
            assert all(bus in str(exc) for bus in report.orphan_buses)
        else:
            assert report.radial

    def test_one_walk_per_snapshot(self, feeder40):
        """Compiling a radial feeder walks it once: the walk itself decides
        radiality, and ``validate_radial`` runs only to word an error."""
        for net in (WALK_CASES["radial"], WALK_CASES["single_bus"], feeder40):
            with mock.patch.object(solver, "tree_walk", wraps=tree_walk) as in_solver, \
                    mock.patch.object(netmodel, "tree_walk", wraps=tree_walk) as in_netmodel:
                solve_snapshot(net)
            assert in_solver.call_count + in_netmodel.call_count == 1

    def test_walk_order_is_line_id_adjacency_fifo(self):
        # b0 meets b3, b4, b1 in line-id order (b0 is l2's to_bus); then the
        # queue yields b3's child before b1's
        buses = tuple(Bus(f"b{i}", 37.0, -122.0 + i * 1e-4, 12.47) for i in range(6))
        lines = (line("l1", "b0", "b3"), line("l2", "b4", "b0"), line("l3", "b0", "b1"),
                 line("l4", "b3", "b5"), line("l5", "b2", "b1"))
        net = NetworkModel(buses=buses, lines=lines, loads=(), source=Source("b0", 1.0))
        assert tree_walk(net) == [(0, 3, 0), (0, 4, 1), (0, 1, 2), (3, 5, 3), (1, 2, 4)]


# Ids that ``check_id`` admits, drawn from every plane: no comma, double
# quote, CR, LF or lone surrogate.
record_ids = st.text(
    alphabet=st.one_of(st.characters(exclude_categories=("Cs",), exclude_characters=',"\r\n'),
                       st.characters(min_codepoint=0x10000)),
    min_size=1, max_size=4)


class TestBusCatalog:
    """``NetworkModel.buses`` is the id-sorted bus catalog."""

    def test_sorted_ascending(self):
        net = NetworkModel(
            buses=(Bus("b2", 37.2, -122.0, 12.47), Bus("b1", 37.1, -122.0, 12.47)),
            lines=(Line("l1", "b1", "b2", 0.1, 0.2, 400.0),),
            loads=(), source=Source("b1", 1.0))
        assert [b.id for b in net.buses] == ["b1", "b2"]

    def test_fixture_sorted_and_complete(self, feeder40):
        ids = [b.id for b in feeder40.buses]
        assert len(ids) == 40
        assert ids == sorted(ids)

    @given(ids=st.lists(record_ids, min_size=2, max_size=8, unique=True), rnd=st.randoms())
    # UTF-16 order would put U+10000 before U+E000 and U+FFFF
    @example(ids=["\U00010000", "\uffff", "\ue000", "z", "\x80", "\x7f"], rnd=random.Random(0))
    @settings(max_examples=200, deadline=None)
    def test_records_listed_in_utf8_byte_order(self, ids, rnd):
        """Buses, lines and loads sort by id, that is by code point, which for
        UTF-8-encodable ids is their UTF-8 byte order in any locale."""
        records = {
            "buses": [Bus(i, 37.0, -122.0, 12.47) for i in ids],
            "lines": [Line(i, ids[0], i, 0.1, 0.2, 400.0) for i in ids[1:]],
            "loads": [LoadPoint(i, i, 1.0, 0.0) for i in ids],
        }
        for listed in records.values():
            rnd.shuffle(listed)
        net = NetworkModel(**{name: tuple(listed) for name, listed in records.items()},
                           source=Source(ids[0], 1.0))
        for name, listed in records.items():
            assert ([r.id for r in getattr(net, name)]
                    == sorted((r.id for r in listed), key=lambda i: i.encode("utf-8"))), name

    def test_order_stable_across_construction_order(self, minimal_doc):
        net_a = parse_network(minimal_doc)
        shuffled = dict(minimal_doc)
        shuffled["buses"] = list(reversed(minimal_doc["buses"]))
        net_b = parse_network(shuffled)
        assert net_a.buses == net_b.buses


class TestInvariants:
    def test_source_must_reference_existing_bus(self):
        with record_fault("dangling bus reference: zz (source)"):
            NetworkModel(buses=(Bus("b0", 0.0, 0.0, 1.0),), lines=(), loads=(),
                         source=Source("zz", 1.0))

    def test_mixed_base_kv_rejected(self):
        buses = (Bus("b0", 0.0, 0.0, 12.47), Bus("b1", 0.0, 0.001, 12.47),
                 Bus("b2", 0.0, 0.002, 4.16))
        with record_fault("mixed base_kv [4.16, 12.47]: every bus must share one voltage base"):
            NetworkModel(buses=buses, lines=(), loads=(), source=Source("b0", 1.0))

    def test_self_loop_rejected(self):
        with record_fault("from_bus equals to_bus (b0)"):
            Line("l1", "b0", "b0", 0.1, 0.1, 100.0)

    def test_source_voltage_window(self):
        with record_fault("voltage_pu 1.5 outside [0.8, 1.2]"):
            Source("b0", 1.5)

    def test_negative_load_rejected(self):
        with record_fault("kw must be >= 0"):
            LoadPoint("ld", "b0", -5.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("record,field", [
        (Bus("b1", 0.0, 0.0, 12.47), "base_kv"),
        (Line("l1", "b0", "b1", 0.1, 0.2, 400.0), "resistance_ohm"),
        (Line("l1", "b0", "b1", 0.1, 0.2, 400.0), "reactance_ohm"),
        (Line("l1", "b0", "b1", 0.1, 0.2, 400.0), "ampacity_a"),
        (LoadPoint("ld", "b1", 1.0, 0.5), "kw"),
        (LoadPoint("ld", "b1", 1.0, 0.5), "kvar"),
    ], ids=["base_kv", "resistance_ohm", "reactance_ohm", "ampacity_a", "kw", "kvar"])
    def test_records_refuse_non_finite_numbers(self, record, field, value):
        """The JSON reader refuses NaN and inf before a record is built; a
        record built in Python refuses them too. An infinite ``base_kv``
        solved as z = 0 with |V| = 1.0 everywhere, and a NaN load ran to
        ``max_iter``."""
        with record_fault(f"{field} must be finite, got {value}"):
            dataclasses.replace(record, **{field: value})

import json
import re

import pytest

from gridimpact.errors import SchemaError, TopologyError
from gridimpact.netmodel import (
    Bus,
    Line,
    LoadPoint,
    NetworkModel,
    Source,
    bus_catalog,
    parse_network,
    serialize_network,
    tree_walk,
    validate_radial,
)
from gridimpact.powerflow.solver import _CompiledFeeder

from oracles import is_tree, reachable_from


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
        message = (f"{kind} with empty id" if not bad else
                   f"{kind} {bad!r}: id must not contain a comma, double quote, CR or LF")
        with pytest.raises(SchemaError, match=re.escape(message)):
            parse_network(minimal_doc)

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

    def test_walk_order_is_line_id_adjacency_fifo(self):
        # b0 meets b3, b4, b1 in line-id order (b0 is l2's to_bus); then the
        # queue yields b3's child before b1's
        buses = tuple(Bus(f"b{i}", 37.0, -122.0 + i * 1e-4, 12.47) for i in range(6))
        lines = (line("l1", "b0", "b3"), line("l2", "b4", "b0"), line("l3", "b0", "b1"),
                 line("l4", "b3", "b5"), line("l5", "b2", "b1"))
        net = NetworkModel(buses=buses, lines=lines, loads=(), source=Source("b0", 1.0))
        assert tree_walk(net) == [(0, 3, 0), (0, 4, 1), (0, 1, 2), (3, 5, 3), (1, 2, 4)]


class TestBusCatalog:
    def test_sorted_ascending(self):
        net = NetworkModel(
            buses=(Bus("b2", 37.2, -122.0, 12.47), Bus("b1", 37.1, -122.0, 12.47)),
            lines=(Line("l1", "b1", "b2", 0.1, 0.2, 400.0),),
            loads=(), source=Source("b1", 1.0))
        assert [entry[0] for entry in bus_catalog(net)] == ["b1", "b2"]

    def test_fixture_sorted_and_complete(self, feeder40):
        catalog = bus_catalog(feeder40)
        assert len(catalog) == 40
        ids = [entry[0] for entry in catalog]
        assert ids == sorted(ids)

    def test_load_buses_only(self, feeder40):
        catalog = bus_catalog(feeder40, load_buses_only=True)
        load_buses = {load.bus_id for load in feeder40.loads}
        assert {entry[0] for entry in catalog} == load_buses

    def test_order_stable_across_construction_order(self, minimal_doc):
        net_a = parse_network(minimal_doc)
        shuffled = dict(minimal_doc)
        shuffled["buses"] = list(reversed(minimal_doc["buses"]))
        net_b = parse_network(shuffled)
        assert bus_catalog(net_a) == bus_catalog(net_b)


class TestInvariants:
    def test_source_must_reference_existing_bus(self):
        with pytest.raises(SchemaError, match="dangling bus reference"):
            NetworkModel(buses=(Bus("b0", 0.0, 0.0, 1.0),), lines=(), loads=(),
                         source=Source("zz", 1.0))

    def test_mixed_base_kv_rejected(self):
        buses = (Bus("b0", 0.0, 0.0, 12.47), Bus("b1", 0.0, 0.001, 12.47),
                 Bus("b2", 0.0, 0.002, 4.16))
        with pytest.raises(SchemaError, match="every bus must share one voltage base"):
            NetworkModel(buses=buses, lines=(), loads=(), source=Source("b0", 1.0))

    def test_self_loop_rejected(self):
        with pytest.raises(SchemaError, match="from_bus equals to_bus"):
            Line("l1", "b0", "b0", 0.1, 0.1, 100.0)

    def test_source_voltage_window(self):
        with pytest.raises(SchemaError):
            Source("b0", 1.5)

    def test_negative_load_rejected(self):
        with pytest.raises(SchemaError):
            LoadPoint("ld", "b0", -5.0, 0.0)

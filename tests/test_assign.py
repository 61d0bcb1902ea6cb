import math
import struct
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gridimpact import assign
from gridimpact.assign import (
    Assignment,
    assign_stations,
    assignments_to_csv,
    haversine,
    inject_loads,
)
from gridimpact.netmodel import Bus, Line, LoadPoint, NetworkModel, Source
from gridimpact.stations import EvStation
from gridimpact.synth import random_feeder

import oracles


def station(lat, lon, rated=60.0, sid="s1"):
    return EvStation(id=sid, name="test", lat=lat, lon=lon, rated_kw=rated)


class TestHaversine:
    def test_identity(self):
        assert haversine((37.0, -122.0), (37.0, -122.0)) == 0.0

    def test_one_hundredth_degree_latitude(self):
        # R * dphi for dphi = 0.01 deg, frozen from an independent
        # law-of-cosines great-circle computation at 50-digit precision
        assert haversine((37.00, -122.0), (37.01, -122.0)) == pytest.approx(
            1111.9492664455874, abs=0.01)

    def test_antipodal_equator(self):
        assert haversine((0.0, 0.0), (0.0, 180.0)) == pytest.approx(20_015_087.0, abs=1.0)

    @given(
        lat1=st.floats(-89.0, 89.0), lon1=st.floats(-179.0, 179.0),
        lat2=st.floats(-89.0, 89.0), lon2=st.floats(-179.0, 179.0),
    )
    @settings(max_examples=200)
    def test_symmetry(self, lat1, lon1, lat2, lon2):
        """Exact: both latitudes take the same cosine, and the sines of
        opposite differences square to the same value."""
        d_ab = haversine((lat1, lon1), (lat2, lon2))
        d_ba = haversine((lat2, lon2), (lat1, lon1))
        assert d_ab == d_ba

    @given(
        lats=st.tuples(*[st.floats(-89.0, 89.0)] * 3),
        lons=st.tuples(*[st.floats(-179.0, 179.0)] * 3),
    )
    @settings(max_examples=200)
    def test_triangle_inequality(self, lats, lons):
        a, b, c = zip(lats, lons)
        d_ac = haversine(a, c)
        d_ab = haversine(a, b)
        d_bc = haversine(b, c)
        assert d_ac <= (d_ab + d_bc) * (1 + 1e-6) + 1e-6


def load_bus_net(buses):
    """A star feeder with one load on each ``(id, lat, lon)`` of ``buses``,
    fed from a load-free source bus far away."""
    return NetworkModel(
        buses=(Bus("src", 10.0, 10.0, 12.47),
               *(Bus(bid, lat, lon, 12.47) for bid, lat, lon in buses)),
        lines=tuple(Line(f"l{bid}", "src", bid, 0.1, 0.2, 400.0) for bid, _, _ in buses),
        loads=tuple(LoadPoint(f"ld{bid}", bid, 5.0, 1.0) for bid, _, _ in buses),
        source=Source("src", 1.0),
    )


def nearest(s, buses):
    """``(bus id, distance_m)`` that ``assign_stations`` gives one station."""
    (assignment,) = assign_stations([s], load_bus_net(buses), [1.0])
    return assignment.bus_id, assignment.distance_m


class TestNearestBus:
    def test_colocated(self):
        bus_id, distance = nearest(station(37.5, -121.5),
                                   [("b7", 37.5, -121.5), ("b1", 37.0, -122.0)])
        assert bus_id == "b7"
        assert distance == 0.0

    def test_between_two_buses(self):
        bus_id, distance = nearest(station(37.005, -122.0),
                                   [("n1", 37.00, -122.0), ("n2", 37.02, -122.0)])
        assert bus_id == "n1"
        assert distance == pytest.approx(555.97, abs=0.5)

    def test_tie_breaks_to_smallest_id(self):
        bus_id, _ = nearest(station(37.0, -122.0), [("b", 37.01, -122.0), ("a", 36.99, -122.0)])
        assert bus_id == "a"

    def test_result_invariant_under_catalog_permutation(self):
        """Buses given in any order yield the same bus."""
        buses = [(f"b{i}", 37.0 + i * 0.003, -122.0) for i in range(6)]
        found = {nearest(station(37.0071, -122.0), order)
                 for order in (buses, buses[::-1], buses[3:] + buses[:3])}
        assert found == {("b2", haversine((37.0071, -122.0), (37.006, -122.0)))}

    def test_network_without_loads_rejected(self):
        net = load_bus_net([("b1", 37.0, -122.0)])
        net = NetworkModel(buses=net.buses, lines=net.lines, loads=(), source=net.source)
        with pytest.raises(ValueError, match="no candidate buses to assign stations to"):
            assign_stations([station(37.0, -122.0)], net, [1.0])


def small_net():
    return NetworkModel(
        buses=(Bus("b0", 37.00, -122.0, 12.47),
               Bus("b1", 37.01, -122.0, 12.47),
               Bus("b2", 37.02, -122.0, 12.47)),
        lines=(Line("l1", "b0", "b1", 0.1, 0.2, 400.0),
               Line("l2", "b1", "b2", 0.1, 0.2, 400.0)),
        loads=(LoadPoint("ld1", "b1", 5.0, 1.0),),
        source=Source("b0", 1.0),
    )


def two_load_net():
    """``small_net`` with two loads on b2 as well, listed out of id order."""
    net = small_net()
    return NetworkModel(buses=net.buses, lines=net.lines, source=net.source,
                        loads=(*net.loads, LoadPoint("ld3", "b2", 1.0, 0.5),
                               LoadPoint("ld2", "b2", 2.0, 0.5)))


class TestInjectLoads:
    @pytest.mark.parametrize("distance_m,assigned_kw,message", [
        (-1.0, 5.0, "distance_m must be >= 0"),
        (0.0, -5.0, "assigned_kw must be >= 0"),
        # NaN passes a ``< 0`` check; inf reached the injected load's kW
        (math.nan, 5.0, "^distance_m must be finite, got nan$"),
        (math.inf, 5.0, "^distance_m must be finite, got inf$"),
        (0.0, math.nan, "^assigned_kw must be finite, got nan$"),
        (0.0, math.inf, "^assigned_kw must be finite, got inf$"),
        (0.0, -math.inf, "^assigned_kw must be finite, got -inf$"),
    ])
    def test_assignment_checks(self, distance_m, assigned_kw, message):
        with pytest.raises(ValueError, match=message):
            Assignment("s1", "b1", distance_m, assigned_kw)

    def test_adds_to_existing_load(self):
        net = small_net()
        out, _ = inject_loads(net, [Assignment("s1", "b1", 10.0, 115.35)])
        assert out.loads[0].kw == pytest.approx(5.0 + 115.35, rel=1e-12)
        assert out.loads[0].kvar == 1.0  # unity power factor injection

    def test_empty_assignments_identity(self):
        net = small_net()
        assert inject_loads(net, []) == (net, {})

    def test_two_assignments_same_bus_accumulate(self):
        net = small_net()
        out, _ = inject_loads(net, [Assignment("s1", "b1", 0.0, 10.0),
                                    Assignment("s2", "b1", 0.0, 10.0)])
        assert out.loads[0].kw == pytest.approx(25.0, rel=1e-12)

    def test_bus_without_load_rejected(self):
        """Station kW lands only on an existing load: b2 carries none."""
        net = small_net()
        assigned = [Assignment("s1", "b1", 0.0, 4.0), Assignment("s2", "b2", 0.0, 40.0)]
        with pytest.raises(ValueError, match="bus b2 carries no load"):
            inject_loads(net, assigned)
        assert net == small_net()

    def test_unknown_bus_rejected(self):
        with pytest.raises(ValueError, match="unknown bus id: zz"):
            inject_loads(small_net(), [Assignment("s1", "zz", 0.0, 1.0)])

    def test_original_model_untouched(self):
        net = small_net()
        inject_loads(net, [Assignment("s1", "b1", 0.0, 99.0)])
        assert net.loads[0].kw == 5.0

    def test_conservation_of_injected_kw(self):
        net = two_load_net()
        assigned = [Assignment(f"s{i}", "b1" if i % 2 else "b2", 0.0, 0.1 + i * 0.37)
                    for i in range(200)]
        out, _ = inject_loads(net, assigned)
        delta = out.total_load_kw() - net.total_load_kw()
        expected = math.fsum(a.assigned_kw for a in assigned)
        assert delta == pytest.approx(expected, rel=1e-9)
        assert [(l.id, l.bus_id, l.kvar) for l in out.loads] == [
            (l.id, l.bus_id, l.kvar) for l in net.loads]

    def test_injection_targets_mapping(self):
        """Each bus's kW lands on its load with the smallest id."""
        _, added = inject_loads(two_load_net(), [Assignment("s1", "b1", 0.0, 7.0),
                                                 Assignment("s2", "b2", 0.0, 3.0)])
        assert added == {"ld1": (5.0, 7.0), "ld2": (2.0, 3.0)}

    @given(n_buses=st.integers(1, 25), seed=st.integers(0, 2**32 - 1),
           extra=st.lists(st.tuples(st.integers(0, 24), st.sampled_from(["la", "lz"]),
                                    st.floats(0.0, 500.0)), max_size=6),
           valid_only=st.booleans(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_two_pass_oracle(self, n_buses, seed, extra, valid_only, data):
        """On random feeders, some of whose buses carry several loads, the
        model and the added-kW map equal the oracle's two passes bit for bit,
        with several and zero-kW assignments per bus, and errors match."""
        feeder = random_feeder(n_buses, seed=seed)
        net = NetworkModel(
            buses=feeder.buses, lines=feeder.lines, source=feeder.source,
            loads=feeder.loads + tuple(
                LoadPoint(f"{prefix}{i}", feeder.buses[b % n_buses].id, kw, 0.0)
                for i, (b, prefix, kw) in enumerate(extra)))
        pool = sorted({load.bus_id for load in net.loads}) if valid_only else [
            *(b.id for b in net.buses), "zz"]
        assigned = [Assignment(f"s{i}", bus_id, 0.0, kw) for i, (bus_id, kw) in enumerate(
            data.draw(st.lists(st.tuples(st.sampled_from(pool),
                                         st.one_of(st.just(0.0), st.floats(0.0, 1e6))),
                               max_size=40)))]
        try:
            want_net = oracles.inject_loads_two_pass(net, assigned)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                inject_loads(net, assigned)
            assert str(got.value) == str(exc)
            return
        targets = oracles.injection_targets(net, assigned)
        got_net, added = inject_loads(net, assigned)

        def bits(*values):
            return struct.pack(f"<{len(values)}d", *values)

        assert (got_net is net) == (want_net is net)
        assert got_net == want_net
        assert [bits(l.kw) for l in got_net.loads] == [bits(l.kw) for l in want_net.loads]
        assert [(load_id, bits(*kw)) for load_id, kw in added.items()] == [
            (load_id, bits(base, extra)) for load_id, base, extra in targets.values()]


class TestAssignStations:
    def test_assigns_to_nearest_load_bus_by_default(self):
        net = small_net()
        # nearest bus overall is b2, but only b1 carries a load
        stations = [station(37.02, -122.0, rated=40.0)]
        result = assign_stations(stations, net, [1.0])
        assert result[0].bus_id == "b1"
        assert result[0].assigned_kw == 1.0

    def test_each_station_keeps_the_kw_it_is_given(self):
        """Two stations of one capacity class keep their own kW bit for bit:
        the kW is placed as given, not looked up by class."""
        stations = [station(37.02, -122.0, rated=7.2, sid="s1"),
                    station(37.0, -122.0, rated=40.0, sid="s2")]
        station_kw = [0.1 + 0.2, 1.0 / 3.0]
        result = assign_stations(stations, small_net(), station_kw)
        assert [struct.pack("<d", a.assigned_kw) for a in result] == [
            struct.pack("<d", kw) for kw in station_kw]

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_station_kw_count_must_match_the_stations(self, count):
        stations = [station(37.02, -122.0, sid="s1"), station(37.0, -122.0, sid="s2")]
        with pytest.raises(ValueError,
                           match=f"^station_kw holds {count} values for 2 stations$"):
            assign_stations(stations, small_net(), [1.0] * count)

    def test_candidates_are_exactly_the_load_buses(self, feeder40):
        """A station on every bus of the feeder lands on every bus that
        carries a load, and on no other."""
        stations = [station(b.lat, b.lon, sid=f"s{b.id}") for b in feeder40.buses]
        result = assign_stations(stations, feeder40, [1.0] * len(stations))
        assert {a.bus_id for a in result} == {load.bus_id for load in feeder40.loads}

    def test_distance_tie_goes_to_smallest_load_bus_id(self):
        # b1 and b2 mirror each other about the station, so their distances
        # tie exactly; b0 sits on the station but carries no load
        net = NetworkModel(
            buses=(Bus("b0", 0.0, 0.0, 12.47),
                   Bus("b2", 0.0, 0.01, 12.47),
                   Bus("b1", 0.0, -0.01, 12.47)),
            lines=(Line("l1", "b0", "b1", 0.1, 0.2, 400.0),
                   Line("l2", "b0", "b2", 0.1, 0.2, 400.0)),
            loads=(LoadPoint("ld1", "b2", 5.0, 1.0), LoadPoint("ld2", "b1", 5.0, 1.0)),
            source=Source("b0", 1.0),
        )
        assert haversine((0.0, 0.0), (0.0, 0.01)) == haversine((0.0, 0.0), (0.0, -0.01))
        result = assign_stations([station(0.0, 0.0)], net, [1.0])
        assert result[0].bus_id == "b1"
        assert result[0].distance_m == haversine((0.0, 0.0), (0.0, -0.01))

    @given(spread=st.lists(st.tuples(*[st.floats(-0.05, 0.05)] * 2), min_size=1, max_size=12),
           mirrored=st.lists(st.tuples(*[st.floats(-0.05, 0.05)] * 2), max_size=4),
           sites=st.lists(st.tuples(st.floats(-0.05, 0.05),
                                    st.one_of(st.just(0.0), st.floats(-0.05, 0.05))),
                          min_size=1, max_size=30),
           block=st.integers(1, 64), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_per_station_nearest_bus(self, spread, mirrored, sites, block, data):
        """All stations matched at once, in blocks of ``block`` distances,
        equal the smallest ``(haversine, id)`` pair per station bit for bit,
        and each keeps its own kW. Buses mirrored about longitude 0 tie
        exactly for a station on it."""
        points = spread + [p for lat, d in mirrored for p in ((lat, d), (lat, -d))]
        ids = data.draw(st.permutations([f"b{i:02d}" for i in range(len(points))]))
        buses = [(bid, lat, lon) for bid, (lat, lon) in zip(ids, points)]
        stations = [station(lat, lon, sid=f"s{i}") for i, (lat, lon) in enumerate(sites)]
        station_kw = [i / 3 for i in range(len(stations))]
        with mock.patch.object(assign, "_BLOCK_ELEMENTS", block):
            result = assign_stations(stations, load_bus_net(buses), station_kw)
        assert len(result) == len(stations)
        for got, s, kw in zip(result, stations, station_kw):
            distance_m, bus_id = min((haversine((s.lat, s.lon), (lat, lon)), bid)
                                     for bid, lat, lon in buses)
            assert (got.station_id, got.bus_id, got.assigned_kw) == (s.id, bus_id, kw)
            assert struct.pack("<d", got.distance_m) == struct.pack("<d", distance_m)

    def test_csv_round_trip_columns(self):
        rows = assignments_to_csv([Assignment("s1", "b1", 12.5, 115.35)]).strip().split("\n")
        assert rows[0] == "station_id,bus_id,distance_m,assigned_kw"
        assert rows[1].split(",")[0:2] == ["s1", "b1"]

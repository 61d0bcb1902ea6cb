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
    injection_targets,
    nearest_bus,
)
from gridimpact.netmodel import Bus, Line, LoadPoint, NetworkModel, Source, bus_catalog
from gridimpact.stations import CapacityClass, EvStation


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
        d_ab = haversine((lat1, lon1), (lat2, lon2))
        d_ba = haversine((lat2, lon2), (lat1, lon1))
        assert d_ab == pytest.approx(d_ba, rel=1e-6, abs=1e-9)

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


class TestNearestBus:
    def test_colocated(self):
        catalog = [("b7", 37.5, -121.5), ("b1", 37.0, -122.0)]
        bus_id, distance = nearest_bus(station(37.5, -121.5), catalog)
        assert bus_id == "b7"
        assert distance == 0.0

    def test_between_two_buses(self):
        catalog = [("n1", 37.00, -122.0), ("n2", 37.02, -122.0)]
        bus_id, distance = nearest_bus(station(37.005, -122.0), catalog)
        assert bus_id == "n1"
        assert distance == pytest.approx(555.97, abs=0.5)

    def test_tie_breaks_to_smallest_id(self):
        catalog = [("b", 37.01, -122.0), ("a", 36.99, -122.0)]
        bus_id, _ = nearest_bus(station(37.0, -122.0), catalog)
        assert bus_id == "a"

    def test_result_invariant_under_catalog_permutation(self):
        catalog = [(f"b{i}", 37.0 + i * 0.003, -122.0) for i in range(6)]
        while_reversed = nearest_bus(station(37.0071, -122.0), list(reversed(catalog)))
        in_order = nearest_bus(station(37.0071, -122.0), catalog)
        assert while_reversed == in_order

    def test_empty_catalog(self):
        with pytest.raises(ValueError, match="empty bus catalog"):
            nearest_bus(station(37.0, -122.0), [])


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
    ])
    def test_assignment_checks(self, distance_m, assigned_kw, message):
        with pytest.raises(ValueError, match=message):
            Assignment("s1", "b1", distance_m, assigned_kw)

    def test_adds_to_existing_load(self):
        net = small_net()
        out = inject_loads(net, [Assignment("s1", "b1", 10.0, 115.35)])
        assert out.loads[0].kw == pytest.approx(5.0 + 115.35, rel=1e-12)
        assert out.loads[0].kvar == 1.0  # unity power factor injection

    def test_empty_assignments_identity(self):
        net = small_net()
        assert inject_loads(net, []) == net

    def test_two_assignments_same_bus_accumulate(self):
        net = small_net()
        out = inject_loads(net, [Assignment("s1", "b1", 0.0, 10.0),
                                 Assignment("s2", "b1", 0.0, 10.0)])
        assert out.loads[0].kw == pytest.approx(25.0, rel=1e-12)

    def test_bus_without_load_rejected(self):
        """Station kW lands only on an existing load: b2 carries none."""
        net = small_net()
        assigned = [Assignment("s1", "b1", 0.0, 4.0), Assignment("s2", "b2", 0.0, 40.0)]
        for resolve in (inject_loads, injection_targets):
            with pytest.raises(ValueError, match="bus b2 carries no load"):
                resolve(net, assigned)
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
        out = inject_loads(net, assigned)
        delta = out.total_load_kw() - net.total_load_kw()
        expected = math.fsum(a.assigned_kw for a in assigned)
        assert delta == pytest.approx(expected, rel=1e-9)
        assert [(l.id, l.bus_id, l.kvar) for l in out.loads] == [
            (l.id, l.bus_id, l.kvar) for l in net.loads]

    def test_injection_targets_mapping(self):
        """Each bus's kW lands on its load with the smallest id."""
        targets = injection_targets(two_load_net(), [Assignment("s1", "b1", 0.0, 7.0),
                                                     Assignment("s2", "b2", 0.0, 3.0)])
        assert targets == {"b1": ("ld1", 5.0, 7.0), "b2": ("ld2", 2.0, 3.0)}


class TestAssignStations:
    def test_assigns_to_nearest_load_bus_by_default(self):
        net = small_net()
        # nearest bus overall is b2, but only b1 carries a load
        stations = [station(37.02, -122.0, rated=40.0)]
        allocations = {c: float(c.weight) for c in CapacityClass}
        result = assign_stations(stations, net, allocations)
        assert result[0].bus_id == "b1"
        assert result[0].assigned_kw == 1.0  # L1 weight

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
        allocations = {c: float(c.weight) for c in CapacityClass}
        result = assign_stations([station(0.0, 0.0)], net, allocations)
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
        equal ``nearest_bus`` per station and the smallest ``(haversine, id)``
        pair bit for bit. Buses mirrored about longitude 0 tie exactly for a
        station on it."""
        points = spread + [p for lat, d in mirrored for p in ((lat, d), (lat, -d))]
        ids = data.draw(st.permutations([f"b{i:02d}" for i in range(len(points))]))
        net = NetworkModel(
            buses=(Bus("src", 10.0, 10.0, 12.47),
                   *(Bus(bid, lat, lon, 12.47) for bid, (lat, lon) in zip(ids, points))),
            lines=tuple(Line(f"l{bid}", "src", bid, 0.1, 0.2, 400.0) for bid in ids),
            loads=tuple(LoadPoint(f"ld{bid}", bid, 5.0, 1.0) for bid in ids),
            source=Source("src", 1.0),
        )
        stations = [station(lat, lon, sid=f"s{i}") for i, (lat, lon) in enumerate(sites)]
        allocations = {c: float(c.weight) for c in CapacityClass}
        with mock.patch.object(assign, "_BLOCK_ELEMENTS", block):
            result = assign_stations(stations, net, allocations)
        catalog = bus_catalog(net, load_buses_only=True)
        assert len(result) == len(stations)
        for got, s in zip(result, stations):
            bus_id, distance_m = nearest_bus(s, catalog)
            assert (got.station_id, got.bus_id) == (s.id, bus_id)
            assert struct.pack("<d", got.distance_m) == struct.pack("<d", distance_m)
            assert min((haversine((s.lat, s.lon), (lat, lon)), bid)
                       for bid, lat, lon in catalog) == (distance_m, bus_id)

    def test_csv_round_trip_columns(self):
        rows = assignments_to_csv([Assignment("s1", "b1", 12.5, 115.35)]).strip().split("\n")
        assert rows[0] == "station_id,bus_id,distance_m,assigned_kw"
        assert rows[1].split(",")[0:2] == ["s1", "b1"]

import json
import math
from collections import Counter

import pytest

from gridimpact.geoexport import export_geojson, geojson_dumps, style_width
from gridimpact.impact import Category, ImpactRecord, Metric, build_records, categorize
from gridimpact.netmodel import Bus, Line, LoadPoint, NetworkModel, Source
from gridimpact.powerflow import solve_snapshot

ALLOWED_COLORS = {c.color_hex for c in Category}


def one_line_net():
    return NetworkModel(
        buses=(Bus("b1", 37.0, -122.0, 12.47), Bus("b2", 37.001, -122.001, 12.47)),
        lines=(Line("l1", "b1", "b2", 0.1, 0.2, 400.0),),
        loads=(LoadPoint("ld1", "b2", 100.0, 20.0),),
        source=Source("b1", 1.0),
    )


def record(line_id, pct, after=150.0):
    return ImpactRecord(line_id, Metric.FLOW, 100.0, after, pct, categorize(pct))


class TestStyleWidth:
    def test_zero_flow_floors_at_one(self):
        assert style_width(0.0, 400.0, 12.47) == 1.0

    def test_full_utilization_caps_at_five(self):
        # current equal to ampacity and beyond
        kw_at_ampacity = 400.0 * math.sqrt(3.0) * 12.47
        assert style_width(kw_at_ampacity, 400.0, 12.47) == 5.0
        assert style_width(10 * kw_at_ampacity, 400.0, 12.47) == 5.0

    def test_half_utilization_maps_to_three(self):
        kw = 0.5 * 400.0 * math.sqrt(3.0) * 12.47
        assert style_width(kw, 400.0, 12.47) == pytest.approx(3.0, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            style_width(10.0, 0.0, 12.47)
        with pytest.raises(ValueError):
            style_width(10.0, 400.0, 0.0)


class TestExport:
    def test_red_record_colors_feature(self):
        doc = export_geojson(one_line_net(), [record("l1", 90.0)])
        (feature,) = doc["features"]
        assert feature["properties"]["line_color"] == "#e31a1c"
        assert feature["properties"]["line_opacity"] == 1.0

    def test_default_style_without_record(self):
        doc = export_geojson(one_line_net(), [])
        (feature,) = doc["features"]
        props = feature["properties"]
        assert props["line_color"] == "#808080"
        assert props["line_opacity"] == 0.6
        assert props["line_width"] == 1.0
        assert props["pct_change"] == 0.0

    def test_geometry_is_lon_lat(self):
        doc = export_geojson(one_line_net(), [])
        coords = doc["features"][0]["geometry"]["coordinates"]
        assert coords == [[-122.0, 37.0], [-122.001, 37.001]]

    def test_unknown_line_rejected(self):
        with pytest.raises(ValueError, match="unknown line: zz"):
            export_geojson(one_line_net(), [record("zz", 10.0)])

    def test_duplicate_record_rejected(self):
        with pytest.raises(ValueError, match="duplicate record"):
            export_geojson(one_line_net(), [record("l1", 10.0), record("l1", 20.0)])

    def test_fixture_color_multiset_matches_records(self, feeder40, stations951):
        from gridimpact.assign import assign_stations, inject_loads
        from gridimpact.stations import allocate_peak, classify

        census = Counter(classify(s.rated_kw) for s in stations951)
        allocations = allocate_peak(130_000.0, census)
        assignments = assign_stations(stations951, feeder40, allocations)
        before = solve_snapshot(feeder40)
        after = solve_snapshot(inject_loads(feeder40, assignments)[0])
        records = build_records(before, after, Metric.FLOW)

        doc = export_geojson(feeder40, records)
        assert len(doc["features"]) == 39
        colors = Counter(f["properties"]["line_color"] for f in doc["features"])
        expected = Counter(r.category.color_hex for r in records)
        assert colors == expected
        assert set(colors) <= ALLOWED_COLORS

    def test_feature_ids_unique_and_complete(self, feeder40):
        doc = export_geojson(feeder40, [])
        ids = [f["id"] for f in doc["features"]]
        assert len(ids) == len(set(ids)) == len(feeder40.lines)

    def test_validates_as_feature_collection(self, feeder40):
        doc = json.loads(geojson_dumps(export_geojson(feeder40, [])))
        assert doc["type"] == "FeatureCollection"
        for feature in doc["features"]:
            assert feature["type"] == "Feature"
            geometry = feature["geometry"]
            assert geometry["type"] == "LineString"
            assert len(geometry["coordinates"]) == 2
            for lon, lat in geometry["coordinates"]:
                assert -180.0 <= lon <= 180.0
                assert -90.0 <= lat <= 90.0
            assert set(feature["properties"]) == {
                "line_id", "line_color", "line_width", "line_opacity",
                "pct_change", "ampacity_a"}

    def test_reexport_byte_identical(self, feeder40):
        records = [record(feeder40.lines[0].id, 25.0)]
        first = geojson_dumps(export_geojson(feeder40, records))
        second = geojson_dumps(export_geojson(feeder40, records))
        assert first == second

    def test_sentinel_pct_serializes_as_null(self):
        doc = export_geojson(one_line_net(), [record("l1", math.inf)])
        text = geojson_dumps(doc)  # allow_nan=False would reject a raw inf
        parsed = json.loads(text)
        assert parsed["features"][0]["properties"]["pct_change"] is None
        assert parsed["features"][0]["properties"]["line_color"] == "#e31a1c"

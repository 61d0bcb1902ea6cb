import math
import re
import textwrap
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from gridimpact.errors import SchemaError
from gridimpact.stations import (
    CapacityClass,
    EvStation,
    allocate_peak,
    classify,
    load_stations,
    parse_stations,
)

REFERENCE_CENSUS = Counter({CapacityClass.L1: 895, CapacityClass.L2: 24,
                            CapacityClass.L3: 18, CapacityClass.L4: 14})

FIXTURES = Path(__file__).parent / "fixtures"


def csv_text(rows: str) -> str:
    return "id,name,lat,lon,rated_kw\n" + textwrap.dedent(rows)


class TestParse:
    def test_single_row(self):
        stations = parse_stations(csv_text("s1,Depot A,37.33,-121.89,60\n"))
        assert len(stations) == 1
        assert stations[0].rated_kw == 60.0
        assert stations[0].name == "Depot A"

    def test_empty_data_section(self):
        assert parse_stations("id,name,lat,lon,rated_kw\n") == []

    @pytest.mark.parametrize("text,row", [
        (csv_text(f"s1,A,37.0,-121.0,60\ns2,{'x' * 131_073},37.0,-121.0,60\n"), 3),
        ("id,name,lat,lon,rated_kw," + "x" * 131_073 + "\n", 1),
        # a quoted name spans lines 3 and 4; the record is named by line 3
        (csv_text(f's1,A,37.0,-121.0,60\ns2,"Depot\nB",37.0,-121.0,60,{"x" * 131_073}\n'), 3),
    ], ids=["row", "header", "record_spanning_lines"])
    def test_field_past_the_csv_limit_reports_row(self, text, row):
        with pytest.raises(SchemaError,
                           match=rf"^row {row}: field larger than field limit \(131072\)$"):
            parse_stations(text)

    def test_record_spanning_lines_reports_its_first_line(self):
        """A quoted name that holds a line break: the record on lines 3 and 4
        is named by line 3, where it starts, and a record after one on lines
        2 and 3 by line 4."""
        text = csv_text('s1,A,37.0,-121.0,60\ns2,"Depot\nB",abc,-121.0,60\n')
        with pytest.raises(SchemaError, match="^row 3: non-numeric lat$"):
            parse_stations(text)
        text = csv_text('s1,"Depot\nA",37.0,-121.0,60\ns2,B,abc,-121.0,60\n')
        with pytest.raises(SchemaError, match="^row 4: non-numeric lat$"):
            parse_stations(text)

    def test_non_numeric_lat_reports_row(self):
        text = csv_text("s1,Depot A,37.33,-121.89,60\ns2,Depot B,abc,-121.89,60\n")
        with pytest.raises(SchemaError, match="row 3: non-numeric lat"):
            parse_stations(text)

    def test_duplicate_id_reports_row(self):
        text = csv_text("s1,A,37.0,-121.0,60\ns1,B,37.1,-121.1,70\n")
        with pytest.raises(SchemaError, match="row 3: duplicate id s1"):
            parse_stations(text)

    def test_missing_column(self):
        with pytest.raises(SchemaError, match="missing column 'rated_kw'"):
            parse_stations("id,name,lat,lon\ns1,A,37.0,-121.0\n")

    def test_read_column_named_twice_rejected(self):
        """A repeated read column is refused; a repeated ignored one is not."""
        text = "id,name,lat,lon,rated_kw,rated_kw\ns1,A,37.0,-121.0,60,600\n"
        with pytest.raises(SchemaError, match="row 1: column 'rated_kw' appears twice"):
            parse_stations(text)
        text = "id,name,lat,lon,rated_kw,city,city\ns1,A,37.0,-121.0,60,X,Y\n"
        assert parse_stations(text)[0].rated_kw == 60.0

    def test_extra_columns_ignored(self):
        text = "id,name,lat,lon,rated_kw,city\ns1,A,37.0,-121.0,60,San Jose\n"
        assert parse_stations(text)[0].rated_kw == 60.0

    def test_row_may_omit_ignored_trailing_columns(self):
        text = "id,name,lat,lon,rated_kw,notes\ns1,A,37.0,-122.0,7.2\ns2,B,37.1,-122.1,60,x\n"
        assert [s.rated_kw for s in parse_stations(text)] == [7.2, 60.0]

    def test_row_missing_a_read_column_reports_row(self):
        text = "notes,id,name,lat,lon,rated_kw\nx,s1,A,37.0,-122.0,7.2\ny,s2,B,37.1,-122.1\n"
        with pytest.raises(SchemaError, match="row 3: expected 6 columns, got 5"):
            parse_stations(text)

    def test_nonpositive_rating_reports_row(self):
        with pytest.raises(SchemaError,
                           match=r"^row 2: station s1: rated_kw must be > 0, got 0\.0$"):
            parse_stations(csv_text("s1,A,37.0,-121.0,0\n"))

    @pytest.mark.parametrize("rating", ["inf", "1e400", "-inf", "nan"])
    def test_nonfinite_rating_reports_row(self, rating):
        text = csv_text(f"s1,A,37.0,-121.0,60\ns2,B,37.1,-121.1,{rating}\n")
        with pytest.raises(SchemaError, match="^row 3: station s2: rated_kw must be finite, got"):
            parse_stations(text)

    @pytest.mark.parametrize("cell,fault", [
        ('""', "id must not be empty"),
        ('"s,000"', "id 's,000' must not contain a comma, double quote, CR or LF"),
        ('"s""000"', "id 's\"000' must not contain a comma, double quote, CR or LF"),
    ], ids=["empty", "comma", "double_quote"])
    def test_id_must_be_writable_verbatim(self, cell, fault):
        """The row names its station ``?``, and the fault quotes the id."""
        with pytest.raises(SchemaError, match=f"^{re.escape('row 2: station ?: ' + fault)}$"):
            parse_stations(csv_text(f"{cell},A,37.0,-121.0,60\n"))

    @pytest.mark.parametrize("bad", ["s\r1", "s\n1"])
    def test_id_rejects_line_breaks(self, bad):
        """A station built in Python states only its fault, as a plain
        ``ValueError``: a ``SchemaError`` names a document."""
        with pytest.raises(ValueError) as raised:
            EvStation(bad, "A", 37.0, -121.0, 60.0)
        assert type(raised.value) is ValueError
        assert str(raised.value) == f"id {bad!r} must not contain a comma, double quote, CR or LF"

    @pytest.mark.parametrize("fields,message", [
        ({"rated_kw": 0.0}, "rated_kw must be > 0, got 0.0"),
        ({"rated_kw": math.nan}, "rated_kw must be finite, got nan"),
        ({"lat": 91.0}, "lat 91.0 outside [-90, 90]"),
        ({"lon": -181.0}, "lon -181.0 outside [-180, 180]"),
    ], ids=["rated_kw_zero", "rated_kw_nan", "lat", "lon"])
    def test_station_states_only_its_fault(self, fields, message):
        with pytest.raises(ValueError) as raised:
            EvStation(**{"id": "s1", "name": "A", "lat": 37.0, "lon": -121.0,
                         "rated_kw": 60.0, **fields})
        assert type(raised.value) is ValueError
        assert str(raised.value) == message

    def test_byte_order_mark_is_dropped(self, tmp_path, stations951):
        path = tmp_path / "stations.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "stations951.csv").read_bytes())
        assert load_stations(path) == stations951

    def test_fixture_census(self, stations951):
        assert Counter(classify(s.rated_kw) for s in stations951) == REFERENCE_CENSUS
        assert REFERENCE_CENSUS.total() == 951


class TestClassify:
    @pytest.mark.parametrize("rating,expected", [
        (40.0, CapacityClass.L1),
        (100.0, CapacityClass.L2),
        (350.0, CapacityClass.L4),   # boundary goes upward
        (49.999, CapacityClass.L1),
        (50.0, CapacityClass.L2),
        (149.999, CapacityClass.L2),
        (150.0, CapacityClass.L3),
        (349.999, CapacityClass.L3),
        (1000.0, CapacityClass.L4),
    ])
    def test_bounds(self, rating, expected):
        assert classify(rating) is expected

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            classify(0.0)

    @pytest.mark.parametrize("rating", [math.inf, math.nan])
    def test_non_finite_rejected(self, rating):
        with pytest.raises(ValueError, match=f"finite and > 0, got {rating}"):
            classify(rating)

    def test_weights_are_doublings(self):
        weights = [c.weight for c in CapacityClass]
        assert weights == [1, 2, 4, 8]


class TestAllocate:
    def test_scenario_one_values(self):
        alloc = allocate_peak(130_000.0, REFERENCE_CENSUS)
        reference = {CapacityClass.L1: 115.36, CapacityClass.L2: 230.72,
                     CapacityClass.L3: 461.44, CapacityClass.L4: 922.9}
        for klass, expected in reference.items():
            assert alloc[klass] == pytest.approx(expected, rel=1e-3)

    def test_scenario_two_values(self):
        alloc = allocate_peak(334_770.0, REFERENCE_CENSUS)
        reference = {CapacityClass.L1: 297.0, CapacityClass.L2: 594.0,
                     CapacityClass.L3: 1188.0, CapacityClass.L4: 2376.0}
        for klass, expected in reference.items():
            assert alloc[klass] == pytest.approx(expected, rel=1e-3)

    def test_weighted_station_total_is_1127(self):
        assert sum(REFERENCE_CENSUS[c] * c.weight for c in CapacityClass) == 1127

    def test_zero_peak(self):
        alloc = allocate_peak(0.0, REFERENCE_CENSUS)
        assert all(v == 0.0 for v in alloc.values())

    def test_empty_census_rejected(self):
        with pytest.raises(ValueError, match="empty census"):
            allocate_peak(100.0, Counter())

    def test_negative_peak_rejected(self):
        with pytest.raises(ValueError):
            allocate_peak(-1.0, REFERENCE_CENSUS)

    @given(
        peak=st.floats(0.0, 1e7),
        counts=st.tuples(*[st.integers(0, 5000)] * 4).filter(lambda t: sum(t) > 0),
    )
    def test_reconstruction_property(self, peak, counts):
        census = Counter(dict(zip(CapacityClass, counts)))
        alloc = allocate_peak(peak, census)
        rebuilt = math.fsum(census[c] * alloc[c] for c in CapacityClass)
        assert rebuilt == pytest.approx(peak, rel=1e-9, abs=1e-12)

    @given(counts=st.tuples(*[st.integers(0, 5000)] * 4).filter(lambda t: sum(t) > 0))
    def test_ratio_law_exact(self, counts):
        alloc = allocate_peak(1234.5, Counter(dict(zip(CapacityClass, counts))))
        assert alloc[CapacityClass.L2] == 2 * alloc[CapacityClass.L1]
        assert alloc[CapacityClass.L3] == 4 * alloc[CapacityClass.L1]
        assert alloc[CapacityClass.L4] == 8 * alloc[CapacityClass.L1]

    def test_monotone_in_peak(self):
        low = allocate_peak(1000.0, REFERENCE_CENSUS)
        high = allocate_peak(2000.0, REFERENCE_CENSUS)
        assert all(high[c] > low[c] for c in CapacityClass)

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridimpact.assign import Assignment, inject_loads
from gridimpact.impact import (
    Category,
    ImpactRecord,
    Metric,
    build_records,
    categorize,
    filter_by_ampacity,
    histogram_to_csv,
    pct_change,
    records_to_json,
    summarize,
)
from gridimpact.netmodel import Bus, Line, LoadPoint, NetworkModel, Source
from gridimpact.powerflow import solve_snapshot
from gridimpact.synth import random_feeder


class TestPctChange:
    def test_plain_arithmetic(self):
        assert pct_change(100.0, 125.0) == 25.0

    def test_no_change(self):
        assert pct_change(42.0, 42.0) == 0.0

    def test_new_flow_on_zero_baseline_is_sentinel(self):
        assert math.isinf(pct_change(0.0, 50.0))
        assert categorize(pct_change(0.0, 50.0)) is Category.RED

    def test_both_zero(self):
        assert pct_change(0.0, 0.0) == 0.0
        assert pct_change(1e-9, 5e-7) == 0.0  # both under the epsilon floor

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pct_change(-1.0, 5.0)

    @given(before=st.floats(1e-2, 1e6), after=st.floats(0.0, 1e6),
           scale=st.floats(1e-3, 1e3))
    def test_scale_invariance(self, before, after, scale):
        # holds whenever scaling keeps the baseline above the epsilon floor;
        # at the floor itself the zero-baseline rule takes over by design
        base = pct_change(before, after)
        scaled = pct_change(before * scale, after * scale)
        assert scaled == pytest.approx(base, rel=1e-9)
        assert categorize(scaled) is categorize(base)


class TestCategorize:
    # the full boundary sweep also runs in the acceptance suite
    @pytest.mark.parametrize("pct,expected", [
        (0.0, Category.GRAY),
        (0.049, Category.GRAY),
        (0.05, Category.GREEN),
        (9.99, Category.GREEN),
        (10.0, Category.BLUE),
        (49.99, Category.BLUE),
        (50.0, Category.PINK),
        (79.99, Category.PINK),
        (80.0, Category.RED),
        (1000.0, Category.RED),
    ])
    def test_boundaries(self, pct, expected):
        assert categorize(pct) is expected

    def test_exact_colors_and_bounds(self):
        table = {
            Category.GRAY: (0.0, 0.05, "#808080"),
            Category.GREEN: (0.05, 10.0, "#00FF00"),
            Category.BLUE: (10.0, 50.0, "#0000FF"),
            Category.PINK: (50.0, 80.0, "#FF00FF"),
            Category.RED: (80.0, math.inf, "#e31a1c"),
        }
        for category, (lo, hi, color) in table.items():
            assert category.lower_pct == lo
            assert category.upper_pct == hi
            assert category.color_hex == color

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            categorize(-0.1)

    @given(pct=st.floats(0.0, 1e9))
    def test_total_cover_single_category(self, pct):
        hits = [c for c in Category if c.lower_pct <= pct < c.upper_pct]
        assert len(hits) == 1
        assert categorize(pct) is hits[0]


def single_line_net(load_kw=100.0):
    return NetworkModel(
        buses=(Bus("b1", 37.0, -122.0, 12.47), Bus("b2", 37.001, -122.0, 12.47)),
        lines=(Line("l1", "b1", "b2", 0.1, 0.2, 400.0),),
        loads=(LoadPoint("ld1", "b2", load_kw, 20.0),),
        source=Source("b1", 1.0),
    )


class TestBuildRecords:
    def test_identical_solutions_all_gray(self, feeder20):
        sol = solve_snapshot(feeder20)
        records = build_records(sol, sol, Metric.FLOW)
        assert len(records) == len(feeder20.lines)
        assert all(r.pct_change == 0.0 and r.category is Category.GRAY for r in records)

    def test_ninety_percent_increase_is_red(self):
        before = solve_snapshot(single_line_net(100.0))
        after = solve_snapshot(single_line_net(190.0))
        (record,) = build_records(before, after, Metric.FLOW)
        assert record.pct_change == pytest.approx(90.0, abs=0.5)
        assert record.category is Category.RED

    def test_loss_metric_uses_i2r(self):
        before = solve_snapshot(single_line_net(100.0))
        after = solve_snapshot(single_line_net(200.0))
        (record,) = build_records(before, after, Metric.LOSS)
        assert record.before_kw == pytest.approx(float(before.line_loss_kw[0]), rel=1e-12)
        assert record.after_kw == pytest.approx(float(after.line_loss_kw[0]), rel=1e-12)
        # doubling load roughly quadruples loss
        assert record.pct_change == pytest.approx(300.0, rel=0.05)

    def test_missing_line_in_after_rejected(self, feeder20):
        full = solve_snapshot(feeder20)
        smaller = solve_snapshot(single_line_net())
        with pytest.raises(ValueError, match="line-set mismatch"):
            build_records(full, smaller, Metric.FLOW)

    def test_after_superset_allowed(self):
        shared = dict(lat=37.0, lon=-122.0, base_kv=12.47)
        small = NetworkModel(
            buses=(Bus("b1", **shared), Bus("b2", 37.001, -122.0, 12.47)),
            lines=(Line("l1", "b1", "b2", 0.1, 0.2, 400.0),),
            loads=(LoadPoint("ld1", "b2", 100.0, 20.0),),
            source=Source("b1", 1.0))
        big = NetworkModel(
            buses=small.buses + (Bus("b3", 37.002, -122.0, 12.47),),
            lines=small.lines + (Line("l2", "b2", "b3", 0.1, 0.2, 400.0),),
            loads=small.loads + (LoadPoint("ld2", "b3", 30.0, 5.0),),
            source=small.source)
        records = build_records(solve_snapshot(small), solve_snapshot(big), Metric.FLOW)
        assert [r.line_id for r in records] == ["l1"]  # the extra l2 is ignored
        assert records[0].after_kw > records[0].before_kw


# Every category bound, its float neighbours on both sides, and inf.
NEAR_BOUNDS = sorted({x for c in Category for bound in (c.lower_pct, c.upper_pct)
                      for x in (math.nextafter(bound, -math.inf), bound,
                                math.nextafter(bound, math.inf)) if x >= 0.0})


class TestHistogram:
    """A histogram is ``Counter(r.category for r in records)``; ``counts``
    reads its bins in ``Category`` order, absent categories as 0."""

    def histogram(self, pcts):
        records = [ImpactRecord(f"l{i}", Metric.FLOW, 1.0, 1.0, p, categorize(p))
                   for i, p in enumerate(pcts)]
        return Counter(r.category for r in records)

    def counts(self, hist):
        return tuple(hist[c] for c in Category)

    def test_one_per_default_bin(self):
        hist = self.histogram([0.01, 5.0, 25.0, 60.0, 90.0])
        assert self.counts(hist) == (1, 1, 1, 1, 1)

    def test_empty_records(self):
        hist = self.histogram([])
        assert self.counts(hist) == (0, 0, 0, 0, 0)
        assert hist.total() == 0

    def test_sentinel_goes_to_last_bin(self):
        hist = self.histogram([math.inf])
        assert self.counts(hist) == (0, 0, 0, 0, 1)

    def test_fixture_count_conservation(self, feeder20):
        sol = solve_snapshot(feeder20)
        records = build_records(sol, sol, Metric.FLOW)
        hist = Counter(r.category for r in records)
        assert hist.total() == len(feeder20.lines)

    @given(pcts=st.lists(st.one_of(st.floats(0.0, 500.0), st.sampled_from(NEAR_BOUNDS)),
                         max_size=60))
    def test_conservation_property(self, pcts):
        hist = self.histogram(pcts)
        assert self.counts(hist) == tuple(sum(categorize(p) is c for p in pcts) for c in Category)
        assert hist.total() == len(pcts)

    def test_csv_export(self):
        hist = Counter(dict(zip(Category, (3, 2, 1, 0, 4))))
        rows = histogram_to_csv(hist).strip().split("\n")
        assert rows[0] == "bin_lo,bin_hi,count"
        assert rows[1] == "0.0,0.05,3"
        assert rows[-1] == "80.0,inf,4"


class TestSummarize:
    def test_scenario_one_demand_increase(self):
        summary = summarize(1_697_000.0, 1_697_000.0 + 130_000.0, 10.0, 12.0)
        assert summary.demand_pct == pytest.approx(7.66, abs=0.005)
        # the reference rounding is 7.67%; both lie within 0.1 pp
        assert abs(summary.demand_pct - 7.67) < 0.1

    def test_scenario_two_demand_increase(self):
        summary = summarize(1_697_000.0, 1_697_000.0 + 334_770.0, 10.0, 12.0)
        assert summary.demand_pct == pytest.approx(19.73, abs=0.005)
        assert abs(summary.demand_pct - 19.68) < 0.1

    def test_no_change(self):
        summary = summarize(500.0, 500.0, 20.0, 20.0)
        assert summary.demand_pct == 0.0
        assert summary.loss_pct == 0.0

    def test_non_positive_baseline_rejected(self):
        with pytest.raises(ValueError):
            summarize(0.0, 10.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            summarize(10.0, 10.0, 0.0, 1.0)

    def test_demand_delta_identity_after_injection(self):
        net = random_feeder(30, seed=77)
        assignments = [Assignment(f"s{i}", net.loads[i % len(net.loads)].bus_id, 0.0,
                                  13.7 + i) for i in range(25)]
        after = inject_loads(net, assignments)
        summary = summarize(net.total_load_kw(), after.total_load_kw(), 1.0, 1.0)
        expected = sum(a.assigned_kw for a in assignments) / net.total_load_kw() * 100.0
        assert summary.demand_pct == pytest.approx(expected, rel=1e-9)


class TestFilterByAmpacity:
    def net_with_ampacities(self):
        buses = tuple(Bus(f"b{i}", 37.0, -122.0 + i * 1e-4, 12.47) for i in range(4))
        lines = (Line("la", "b0", "b1", 0.1, 0.2, 100.0),
                 Line("lb", "b1", "b2", 0.1, 0.2, 400.0),
                 Line("lc", "b2", "b3", 0.1, 0.2, 600.0))
        return NetworkModel(buses=buses, lines=lines, loads=(), source=Source("b0", 1.0))

    def test_zero_threshold_keeps_all(self):
        assert filter_by_ampacity(self.net_with_ampacities(), 0.0) == ["la", "lb", "lc"]

    def test_above_max_keeps_none(self):
        assert filter_by_ampacity(self.net_with_ampacities(), 601.0) == []

    def test_strict_inequality(self):
        assert filter_by_ampacity(self.net_with_ampacities(), 400.0) == ["lc"]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            filter_by_ampacity(self.net_with_ampacities(), -1.0)


class TestReportJson:
    def test_structure_and_sentinel(self):
        records = [
            ImpactRecord("l1", Metric.FLOW, 100.0, 125.0, 25.0, Category.BLUE),
            ImpactRecord("l2", Metric.FLOW, 0.0, 5.0, math.inf, Category.RED),
        ]
        text = json.dumps(records_to_json(records), allow_nan=False)
        parsed = json.loads(text)
        assert parsed[0]["pct_change"] == 25.0
        assert parsed[0]["color"] == "#0000FF"
        assert parsed[1]["pct_change"] is None
        assert parsed[1]["category"] == "Red"

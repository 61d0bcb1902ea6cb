"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import csv
import functools
import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from gridimpact.assign import Assignment, inject_loads
from gridimpact.cli import main
from gridimpact.evfleet import ChargingStrategy, Cohort, Location, cohort_profile, find_peak
from gridimpact.impact import Category, categorize
from gridimpact.powerflow import SolverConfig, run_qsts, solve_snapshot
from gridimpact.stations import CapacityClass, allocate_peak
from gridimpact.synth import random_feeder

from oracles import newton_solve, two_bus_closed_form
from validate_cases import run_dir_of, write_config

REFERENCE_CENSUS = Counter({CapacityClass.L1: 895, CapacityClass.L2: 24,
                            CapacityClass.L3: 18, CapacityClass.L4: 14})


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")
        return wrapper
    return decorate


@criterion(1, "allocation reproduces the reference per-station values")
def test_criterion_1_allocation_reproduction():
    reference = {
        130_000.0: {CapacityClass.L1: 115.36, CapacityClass.L2: 230.72,
                    CapacityClass.L3: 461.44, CapacityClass.L4: 922.9},
        334_770.0: {CapacityClass.L1: 297.0, CapacityClass.L2: 594.0,
                    CapacityClass.L3: 1188.0, CapacityClass.L4: 2376.0},
    }
    allocate_peak(1.0, REFERENCE_CENSUS)  # warmup
    for peak, expected in reference.items():
        start = time.perf_counter()
        alloc = allocate_peak(peak, REFERENCE_CENSUS)
        elapsed = time.perf_counter() - start
        assert elapsed < 1e-3, f"allocation took {elapsed * 1e3:.3f} ms"
        for klass, value in expected.items():
            assert abs(alloc[klass] - value) / value < 1e-3, (klass, alloc[klass], value)


@criterion(2, "system demand increase reproduces the reference percentages")
def test_criterion_2_demand_increase_reproduction():
    from gridimpact.impact import summarize

    base = 1_697_000.0
    summarize(base, base, 1.0, 1.0)  # warmup
    for peak, reference_pct, expected_pct in ((130_000.0, 7.67, 7.66),
                                              (334_770.0, 19.68, 19.73)):
        start = time.perf_counter()
        summary = summarize(base, base + peak, 1.0, 1.0)
        elapsed = time.perf_counter() - start
        assert elapsed < 1e-3, f"summarize took {elapsed * 1e3:.3f} ms"
        assert summary.demand_pct == pytest.approx(expected_pct, abs=0.005)
        assert abs(summary.demand_pct - reference_pct) < 0.1


@criterion(3, "category bounds and hex colors are bit-exact")
def test_criterion_3_categorization_bit_exact():
    bounds = [(c.lower_pct, c.upper_pct, c.color_hex) for c in Category]
    assert bounds == [
        (0.0, 0.05, "#808080"),
        (0.05, 10.0, "#00FF00"),
        (10.0, 50.0, "#0000FF"),
        (50.0, 80.0, "#FF00FF"),
        (80.0, math.inf, "#e31a1c"),
    ]
    sweep = {
        0.0: Category.GRAY, 0.049: Category.GRAY,
        0.05: Category.GREEN, 9.99: Category.GREEN,
        10.0: Category.BLUE, 49.99: Category.BLUE,
        50.0: Category.PINK, 79.99: Category.PINK,
        80.0: Category.RED, 1000.0: Category.RED,
    }
    for pct, expected in sweep.items():
        assert categorize(pct) is expected, pct


@criterion(4, "sweep solver matches the closed-form and dense-Newton oracles")
def test_criterion_4_solver_oracle_equivalence(two_bus_net):
    start = time.perf_counter()

    sol = solve_snapshot(two_bus_net)
    v2_expected, loss_expected = two_bus_closed_form(1.0, 0.01, 0.01, 0.1, 0.05)
    v2 = sol.v_mag_pu[list(sol.bus_ids).index("b2")]
    assert abs(v2 - v2_expected) < 1e-4
    assert abs(sol.total_loss_kw / 1000.0 - loss_expected) < 2e-6

    tight = SolverConfig(tol_pu=1e-9)
    for seed in range(100):
        n = 2 + seed % 19  # 2..20 buses
        net = random_feeder(n, seed=seed, load_kw_range=(10.0, 300.0))
        solution = solve_snapshot(net, tight)
        assert solution.converged
        oracle = newton_solve(net)
        v = solution.v_mag_pu * np.exp(1j * solution.v_ang_rad)
        worst = max(abs(v[i] - oracle[bid]) for i, bid in enumerate(solution.bus_ids))
        assert worst < 1e-6, f"seed {seed}: max |dV| = {worst:.2e}"

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle suite took {elapsed:.1f} s"


@criterion(5, "power balance and injected-load conservation hold on random feeders")
def test_criterion_5_conservation_suite():
    rng = np.random.default_rng(5)
    for case in range(50):
        n = int(rng.integers(10, 201))
        net = random_feeder(n, seed=1000 + case)
        sol = solve_snapshot(net)
        assert sol.converged, f"case {case} did not converge"
        residual = abs(sol.source_kw - sol.total_load_kw - sol.total_loss_kw)
        assert residual / sol.source_kw < 1e-6, f"case {case}: {residual}"

        load_buses = [load.bus_id for load in net.loads]
        picks = rng.integers(0, len(load_buses), size=20)
        assignments = [
            Assignment(f"s{i}", load_buses[p], 0.0, float(rng.uniform(1.0, 500.0)))
            for i, p in enumerate(picks)
        ]
        after, _ = inject_loads(net, assignments)
        delta = after.total_load_kw() - net.total_load_kw()
        expected = math.fsum(a.assigned_kw for a in assignments)
        assert abs(delta - expected) / expected < 1e-9, f"case {case}"


@criterion(6, "demand model conserves energy, minimizes even-spread peak, starts at midnight")
def test_criterion_6_demand_model_properties():
    rng = np.random.default_rng(6)
    dts = (0.25, 0.5, 1.0)
    for case in range(1000):
        rate = float(rng.choice([1.4, 3.3, 7.2, 11.0]))
        arrive = float(rng.uniform(14.0, 23.5))
        depart = float(rng.uniform(2.0, 9.0))
        energy = float(rng.uniform(0.01, rate * depart * 0.999))
        count = int(rng.integers(1, 500))
        dt = dts[case % 3]

        profiles = {}
        for strategy in ChargingStrategy:
            cohort = Cohort(count=count, energy_need_kwh=energy, arrive_h=arrive,
                            depart_h=depart, max_rate_kw=rate, strategy=strategy,
                            location=Location.HOME)
            profiles[strategy] = cohort_profile(cohort, dt)
            integral = float(np.sum(profiles[strategy].values_kw)) * dt
            expected = count * energy
            assert abs(integral - expected) / expected < 1e-9, (case, strategy)
            assert not profiles[strategy].truncated

        slow_peak = find_peak(profiles[ChargingStrategy.IMMEDIATE_SLOW])[1]
        for strategy, profile in profiles.items():
            assert slow_peak <= find_peak(profile)[1] * (1 + 1e-12) + 1e-12, (case, strategy)

        midnight = profiles[ChargingStrategy.DELAYED_START_MIDNIGHT]
        nonzero = np.flatnonzero(midnight.values_kw)
        assert nonzero.size > 0 and nonzero[0] == 0, case
        # nothing before midnight: support ends by departure
        first_idle = int(math.ceil(depart / dt))
        assert np.all(midnight.values_kw[first_idle:] == 0.0), case


def read_snapshot_csv(path):
    with open(path, newline="") as handle:
        return {row["line_id"]: row for row in csv.DictReader(handle)}


def independent_pct(before: float, after: float) -> float:
    # deliberately re-derived here, not imported from the package
    if before > 1e-6:
        return abs(after - before) / before * 100.0
    return math.inf if after > 1e-6 else 0.0


def independent_category(pct: float) -> str:
    if pct < 0.05:
        return "Gray"
    if pct < 10.0:
        return "Green"
    if pct < 50.0:
        return "Blue"
    if pct < 80.0:
        return "Pink"
    return "Red"


@criterion(7, "fixture pipeline impact records survive independent recomputation")
def test_criterion_7_pipeline_recomputation(tmp_path):
    config_path = write_config(tmp_path)
    run_dir = run_dir_of(config_path)
    assert main(["pipeline", "--config", str(config_path)]) == 0

    before = read_snapshot_csv(run_dir / "before_snapshot.csv")
    after = read_snapshot_csv(run_dir / "after_snapshot.csv")
    report = json.loads((run_dir / "impact_report.json").read_text())

    assert len(report["records"]) == 39
    mismatches = 0
    for record in report["records"]:
        line_id = record["line_id"]
        b = abs(float(before[line_id]["kw"]))
        a = abs(float(after[line_id]["kw"]))
        pct = independent_pct(b, a)
        reported = math.inf if record["pct_change"] is None else record["pct_change"]
        if not (math.isinf(pct) and math.isinf(reported)) and \
                abs(pct - reported) > 1e-9 * max(1.0, abs(pct)):
            mismatches += 1
        if independent_category(pct) != record["category"]:
            mismatches += 1
    for record in report["loss_records"]:
        line_id = record["line_id"]
        pct = independent_pct(float(before[line_id]["loss_kw"]),
                              float(after[line_id]["loss_kw"]))
        reported = math.inf if record["pct_change"] is None else record["pct_change"]
        if not (math.isinf(pct) and math.isinf(reported)) and \
                abs(pct - reported) > 1e-9 * max(1.0, abs(pct)):
            mismatches += 1
        if independent_category(pct) != record["category"]:
            mismatches += 1
    assert mismatches == 0

    for name in ("histogram_flow.csv", "histogram_loss.csv"):
        with open(run_dir / name, newline="") as handle:
            counts = [int(row["count"]) for row in csv.DictReader(handle)]
        assert sum(counts) == 39, name


@criterion(8, "GeoJSON export validates, uses only the five colors, reruns byte-identical")
def test_criterion_8_geojson_goldens(tmp_path):
    config_path = write_config(tmp_path)
    run_dir = run_dir_of(config_path)
    assert main(["pipeline", "--config", str(config_path)]) == 0
    geojson_path = run_dir / "network_styled.geojson"
    first = geojson_path.read_bytes()

    doc = json.loads(first)
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) == 39
    allowed = {c.color_hex for c in Category}
    for feature in doc["features"]:
        assert feature["type"] == "Feature"
        assert feature["geometry"]["type"] == "LineString"
        assert len(feature["geometry"]["coordinates"]) == 2
        assert feature["properties"]["line_color"] in allowed
        assert 0.0 <= feature["properties"]["line_opacity"] <= 1.0
        assert feature["properties"]["line_width"] > 0.0

    assert main(["export", "--config", str(config_path)]) == 0
    assert geojson_path.read_bytes() == first


@criterion(9, "8760-step QSTS on a 200-bus feeder runs under 10 s; parallel merge identical")
def test_criterion_9_qsts_performance():
    from gridimpact.evfleet import DemandProfile

    net = random_feeder(200, seed=200)
    rng = np.random.default_rng(9)
    shapes = {}
    for load in net.loads[:40]:
        values = rng.uniform(0.2, 2.0, 24) * load.kw
        shapes[load.id] = DemandProfile(dt_h=1.0, values_kw=values)

    run_qsts(net, shapes, steps=24, dt_h=1.0)  # warmup

    start = time.perf_counter()
    sequential = run_qsts(net, shapes, steps=8760, dt_h=1.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"sequential QSTS took {elapsed:.2f} s"
    assert sequential.steps == 8760
    assert all(sequential.converged)

    parallel = run_qsts(net, shapes, steps=8760, dt_h=1.0, workers=4)
    assert parallel.steps == 8760
    for t in range(8760):
        a, b = sequential.step(t), parallel.step(t)
        assert a.v_mag_pu.tobytes() == b.v_mag_pu.tobytes()
        assert a.line_flow_kw.tobytes() == b.line_flow_kw.tobytes()
        assert a.total_loss_kw == b.total_loss_kw
        assert a.source_kw == b.source_kw
        assert a.iterations == b.iterations


@criterion(10, "8760-step gridimpact pipeline on the 40-bus test config runs under 2 s")
def test_criterion_10_pipeline_budget(tmp_path):
    """The whole command a user runs, beside criterion 9's ``run_qsts`` alone:
    load, profile, allocate, assign, two snapshots and two 8,760-step series,
    every artifact written. Measured at 0.21-0.26 s in-process on a 2-vCPU VM
    (Python 3.11, numpy 2.4); the bound leaves about 8x headroom."""
    warmup = tmp_path / "warmup"
    warmup.mkdir()
    assert main(["pipeline", "--config", str(write_config(warmup))]) == 0

    config_path = write_config(tmp_path, steps=8760)
    run_dir = run_dir_of(config_path)
    start = time.perf_counter()
    code = main(["pipeline", "--config", str(config_path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 2.0, f"8760-step pipeline took {elapsed:.2f} s"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["qsts"]["steps"] == 8760

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gridimpact.evfleet import (
    ChargingStrategy,
    Cohort,
    DemandProfile,
    Location,
    ScenarioConfig,
    Schedule,
    aggregate_profiles,
    build_cohorts,
    cohort_profile,
    find_peak,
    profile_to_csv,
)
from gridimpact import evfleet
from gridimpact.config import SolverConfig, samples_per_day
from gridimpact.errors import SchemaError, read_record
from gridimpact.powerflow import run_qsts
from gridimpact.synth import random_feeder
from oracles import charging_window_per_strategy, cohort_profile_two_segments


def make_config(**overrides) -> ScenarioConfig:
    base = dict(
        fleet_size=100,
        avg_daily_miles=25.0,
        ambient_temp_f=80.0,
        bev_share=0.5,
        sedan_share=0.5,
        work_mix_l1=0.5,
        home_access=1.0,
        home_mix_l1=0.5,
        home_preference=0.8,
        home_strategy=ChargingStrategy.IMMEDIATE_SLOW,
        work_strategy=ChargingStrategy.IMMEDIATE_FAST,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def overnight_cohort(strategy, energy=10.0, rate=7.2, count=1):
    return Cohort(count=count, energy_need_kwh=energy, arrive_h=18.0, depart_h=6.0,
                  max_rate_kw=rate, strategy=strategy, location=Location.HOME)


class TestBuildCohorts:
    def test_symmetric_home_split(self):
        cfg = make_config(home_preference=1.0, home_mix_l1=0.0)
        cohorts = build_cohorts(cfg)
        assert len(cohorts) == 2  # BEV home L2 and PHEV home L2
        assert [c.count for c in cohorts] == [50, 50]
        assert all(c.location is Location.HOME for c in cohorts)
        assert all(c.max_rate_kw == 7.2 for c in cohorts)

    def test_zero_fleet(self):
        assert build_cohorts(make_config(fleet_size=0)) == []

    def test_scenario_one_home_work_split(self):
        cfg = make_config(fleet_size=350_000)
        cohorts = build_cohorts(cfg)
        assert sum(c.count for c in cohorts) == 350_000
        home = sum(c.count for c in cohorts if c.location is Location.HOME)
        work = sum(c.count for c in cohorts if c.location is Location.WORKPLACE)
        assert (home, work) == (280_000, 70_000)

    def test_energy_need_uses_type_intensity_and_cap(self):
        cfg = make_config(fleet_size=8, avg_daily_miles=45.0)
        cohorts = build_cohorts(cfg)
        energies = {round(c.energy_need_kwh, 6) for c in cohorts}
        # BEV: 45 * 0.30 = 13.5; PHEV: min(45 * 0.28, 10) = 10 (battery cap)
        assert energies == {13.5, 10.0}
        assert {c.max_rate_kw for c in cohorts} == {1.4, 7.2}  # Level 1, Level 2

    def test_largest_remainder_conserves_fleet(self):
        cfg = make_config(fleet_size=101, bev_share=1 / 3, home_mix_l1=0.25,
                          home_preference=0.7)
        cohorts = build_cohorts(cfg)
        assert sum(c.count for c in cohorts) == 101

    def test_deterministic(self):
        cfg = make_config(fleet_size=12345, bev_share=0.37)
        assert build_cohorts(cfg) == build_cohorts(cfg)

    def test_schedule_override(self):
        schedule = Schedule(home_arrive_h=20.0, home_depart_h=5.0)
        cohorts = build_cohorts(make_config(), schedule)
        homes = [c for c in cohorts if c.location is Location.HOME]
        assert all(c.arrive_h == 20.0 and c.depart_h == 5.0 for c in homes)

    def test_midnight_strategy_rejected_at_work(self):
        with pytest.raises(ValueError, match="home-only"):
            make_config(work_strategy=ChargingStrategy.DELAYED_START_MIDNIGHT)

    def test_scenario_json_round_trip(self):
        text = """{
            "fleet_size": 350000, "avg_daily_miles": 25, "ambient_temp_f": 80,
            "bev_share": 0.5, "sedan_share": 0.5, "work_mix_l1": 0.5,
            "home_access": 1.0, "home_mix_l1": 0.5, "home_preference": 0.8,
            "home_strategy": "immediate_slow", "work_strategy": "immediate_fast"
        }"""
        cfg = read_record(ScenarioConfig, json.loads(text), "scenario")
        assert cfg.fleet_size == 350_000
        assert cfg.home_strategy is ChargingStrategy.IMMEDIATE_SLOW

    def test_scenario_json_bad_strategy(self):
        with pytest.raises(ValueError, match="unknown charging strategy"):
            read_record(ScenarioConfig, {"home_strategy": "whenever"}, "scenario")

    def test_scenario_json_strategy_read_as_written(self):
        """A strategy token is matched as written, like every other JSON
        string: no trimming and no case folding."""
        with pytest.raises(SchemaError, match=re.escape(
                "scenario: field 'home_strategy': unknown charging strategy ' Immediate_Slow '")):
            read_record(ScenarioConfig, {"home_strategy": " Immediate_Slow "}, "scenario")

    def test_fleet_size_past_exact_apportionment_rejected(self):
        assert make_config(fleet_size=10**12).fleet_size == 10**12
        for size in (10**12 + 1, 10**17 + 3):
            with pytest.raises(ValueError, match="fleet_size"):
                make_config(fleet_size=size)

    @settings(max_examples=300, deadline=None)
    @given(
        fleet_size=st.integers(0, 10**12),
        shares=st.tuples(*[st.floats(0.0, 1.0)] * 5),
    )
    @example(fleet_size=10**12, shares=(1 / 3, 0.1, 0.7, 1 / 7, 0.9))
    def test_counts_sum_to_fleet_size(self, fleet_size, shares):
        bev, work_l1, access, home_l1, preference = shares
        cfg = make_config(fleet_size=fleet_size, bev_share=bev, work_mix_l1=work_l1,
                          home_access=access, home_mix_l1=home_l1,
                          home_preference=preference)
        assert sum(c.count for c in build_cohorts(cfg)) == fleet_size


class TestCohortProfile:
    def test_even_spread_overnight(self):
        profile = cohort_profile(overnight_cohort(ChargingStrategy.IMMEDIATE_SLOW), 1.0)
        on = 10.0 / 12.0
        expected = np.zeros(24)
        expected[18:] = on
        expected[:6] = on
        np.testing.assert_allclose(profile.values_kw, expected, rtol=1e-12)
        assert float(np.sum(profile.values_kw)) * 1.0 == pytest.approx(10.0, rel=1e-12)

    def test_immediate_fast_front_loads(self):
        profile = cohort_profile(overnight_cohort(ChargingStrategy.IMMEDIATE_FAST), 1.0)
        assert profile.values_kw[18] == pytest.approx(7.2, rel=1e-12)
        assert profile.values_kw[19] == pytest.approx(2.8, rel=1e-12)
        assert np.all(profile.values_kw[20:] == 0.0)
        assert np.all(profile.values_kw[:18] == 0.0)

    def test_delayed_start_midnight(self):
        profile = cohort_profile(overnight_cohort(ChargingStrategy.DELAYED_START_MIDNIGHT), 1.0)
        assert profile.values_kw[0] == pytest.approx(7.2, rel=1e-12)
        assert profile.values_kw[1] == pytest.approx(2.8, rel=1e-12)
        assert np.all(profile.values_kw[2:] == 0.0)

    def test_delayed_finish_by_departure(self):
        profile = cohort_profile(overnight_cohort(ChargingStrategy.DELAYED_FINISH_BY_DEPARTURE), 1.0)
        # 10 kWh at 7.2 kW ends at 06:00, so it starts at 04:36.6
        assert profile.values_kw[5] == pytest.approx(7.2, rel=1e-12)
        assert float(np.sum(profile.values_kw)) == pytest.approx(10.0, rel=1e-9)
        assert np.all(profile.values_kw[6:] == 0.0)

    def test_partial_timestep_boundary(self):
        cohort = Cohort(count=1, energy_need_kwh=3.6, arrive_h=18.5, depart_h=6.0,
                        max_rate_kw=7.2, strategy=ChargingStrategy.IMMEDIATE_FAST,
                        location=Location.HOME)
        profile = cohort_profile(cohort, 1.0)
        assert profile.values_kw[18] == pytest.approx(3.6, rel=1e-12)  # half-hour at 7.2
        assert profile.values_kw[19] == pytest.approx(0.0, abs=1e-12)

    def test_quarter_hour_resolution(self):
        profile = cohort_profile(overnight_cohort(ChargingStrategy.IMMEDIATE_FAST), 0.25)
        assert profile.values_kw.shape == (96,)
        assert float(np.sum(profile.values_kw)) * 0.25 == pytest.approx(10.0, rel=1e-9)

    def test_infeasible_truncates_and_flags(self):
        cohort = Cohort(count=1, energy_need_kwh=100.0, arrive_h=18.0, depart_h=6.0,
                        max_rate_kw=7.2, strategy=ChargingStrategy.IMMEDIATE_FAST,
                        location=Location.HOME)
        profile = cohort_profile(cohort, 1.0)
        assert profile.truncated
        assert profile.energy_kwh == pytest.approx(7.2 * 12.0, rel=1e-12)

    def test_midnight_outside_dwell_delivers_nothing(self):
        cohort = Cohort(count=1, energy_need_kwh=5.0, arrive_h=8.0, depart_h=17.0,
                        max_rate_kw=7.2, strategy=ChargingStrategy.DELAYED_START_MIDNIGHT,
                        location=Location.HOME)
        profile = cohort_profile(cohort, 1.0)
        assert profile.truncated
        assert np.all(profile.values_kw == 0.0)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError, match="dt_h must be finite, positive and divide 24 h"):
            cohort_profile(overnight_cohort(ChargingStrategy.IMMEDIATE_FAST), 0.7)

    def test_count_scales_profile(self):
        one = cohort_profile(overnight_cohort(ChargingStrategy.IMMEDIATE_SLOW), 1.0)
        many = cohort_profile(overnight_cohort(ChargingStrategy.IMMEDIATE_SLOW, count=250), 1.0)
        np.testing.assert_allclose(many.values_kw, 250.0 * one.values_kw, rtol=1e-12)


class TestAggregateAndPeak:
    def test_empty_aggregate_is_zero_profile(self):
        profile = aggregate_profiles([], dt_h=1.0)
        assert profile.values_kw.shape == (24,)
        assert np.all(profile.values_kw == 0.0)

    def test_doubling(self):
        p = cohort_profile(overnight_cohort(ChargingStrategy.IMMEDIATE_SLOW), 1.0)
        total = aggregate_profiles([p, p], 1.0)
        np.testing.assert_array_equal(total.values_kw, 2.0 * p.values_kw)
        assert total.energy_kwh == pytest.approx(2.0 * p.energy_kwh, rel=1e-12)

    def test_mismatched_dt_rejected(self):
        a = cohort_profile(overnight_cohort(ChargingStrategy.IMMEDIATE_SLOW), 1.0)
        b = cohort_profile(overnight_cohort(ChargingStrategy.IMMEDIATE_SLOW), 0.5)
        with pytest.raises(ValueError,
                           match=re.escape("mismatched dt_h: profiles use [0.5, 1.0]")):
            aggregate_profiles([a, b], 1.0)

    def test_scenario_energy_conservation(self):
        cfg = make_config(fleet_size=350_000)
        cohorts = build_cohorts(cfg)
        total = aggregate_profiles([cohort_profile(c, 1.0) for c in cohorts], dt_h=1.0)
        expected = math.fsum(c.count * c.energy_need_kwh for c in cohorts)
        assert float(np.sum(total.values_kw)) * 1.0 == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("fleet_size", [1_000, 2_000, 10_000, 50_000])
    def test_golden_scenario_peak_is_linear_in_fleet_size(self, fleet_size):
        """The golden scenario peaks at index 9 with 0.85 kW per vehicle at
        each of these sizes: the premise of a headroom or adoption-year
        search that scales one run's demand. A size whose cohort counts round
        differently (1,234 vehicles reads 0.8473 kW) is not linear."""
        cohorts = build_cohorts(make_config(fleet_size=fleet_size))
        total = aggregate_profiles([cohort_profile(c, 1.0) for c in cohorts], dt_h=1.0)
        peak_index, peak_kw = find_peak(total)
        assert peak_index == 9
        assert peak_kw / fleet_size == pytest.approx(0.85, rel=1e-12, abs=0.0)

    def test_find_peak_argmax(self):
        p = DemandProfile(dt_h=8.0, values_kw=np.array([1.0, 3.0, 2.0]))
        assert find_peak(p) == (1, 3.0)

    def test_find_peak_tie_breaks_low_index(self):
        p = DemandProfile(dt_h=12.0, values_kw=np.array([5.0, 5.0]))
        assert find_peak(p) == (0, 5.0)

    def test_find_peak_all_zero(self):
        p = DemandProfile(dt_h=1.0, values_kw=np.zeros(24))
        assert find_peak(p) == (0, 0.0)

    def test_profile_csv_shape(self):
        p = aggregate_profiles([], dt_h=0.5)
        text = profile_to_csv(p)
        lines = text.strip().split("\n")
        assert lines[0] == "hour,kw"
        assert len(lines) == 1 + 48
        assert lines[1].startswith("0.0,")


class TestDemandProfileInvariants:
    @pytest.mark.parametrize("build,message", [
        (lambda: overnight_cohort(ChargingStrategy.IMMEDIATE_FAST, count=-1),
         "cohort count must be >= 0"),
        (lambda: overnight_cohort(ChargingStrategy.IMMEDIATE_FAST, energy=-1.0),
         "energy_need_kwh must be >= 0"),
        (lambda: overnight_cohort(ChargingStrategy.IMMEDIATE_FAST, rate=0.0),
         "max_rate_kw must be > 0"),
        (lambda: Cohort(count=1, energy_need_kwh=1.0, arrive_h=7.0, depart_h=7.0,
                        max_rate_kw=7.2, strategy=ChargingStrategy.IMMEDIATE_FAST,
                        location=Location.HOME), "dwell duration must be > 0"),
        (lambda: Cohort(count=1, energy_need_kwh=1.0, arrive_h=9.0, depart_h=17.0,
                        max_rate_kw=7.2, strategy=ChargingStrategy.DELAYED_START_MIDNIGHT,
                        location=Location.WORKPLACE), "valid only at home"),
        (lambda: aggregate_profiles([aggregate_profiles([], dt_h=1.0)], dt_h=0.5),
         re.escape("mismatched dt_h: profiles use [1.0], the run 0.5")),
        # every ``< 0`` check passes NaN, and an infinite need or rate reached
        # cohort_profile as a NaN integral that named no field
        (lambda: overnight_cohort(ChargingStrategy.IMMEDIATE_FAST, energy=math.nan),
         "^energy_need_kwh must be finite, got nan$"),
        (lambda: overnight_cohort(ChargingStrategy.IMMEDIATE_FAST, energy=math.inf),
         "^energy_need_kwh must be finite, got inf$"),
        (lambda: overnight_cohort(ChargingStrategy.IMMEDIATE_FAST, rate=math.inf),
         "^max_rate_kw must be finite, got inf$"),
        (lambda: Cohort(count=1, energy_need_kwh=1.0, arrive_h=math.nan, depart_h=7.0,
                        max_rate_kw=7.2, strategy=ChargingStrategy.IMMEDIATE_FAST,
                        location=Location.HOME), "^arrive_h must be finite, got nan$"),
        (lambda: Cohort(count=1, energy_need_kwh=1.0, arrive_h=18.0, depart_h=math.inf,
                        max_rate_kw=7.2, strategy=ChargingStrategy.IMMEDIATE_FAST,
                        location=Location.HOME), "^depart_h must be finite, got inf$"),
        # an inf sample passed the ``< 0`` check, and the sweep then divided by it
        (lambda: DemandProfile(dt_h=1.0, values_kw=[math.inf] + [0.0] * 23),
         "^values_kw samples must be finite$"),
        (lambda: DemandProfile(dt_h=1.0, values_kw=[math.nan] * 24),
         "^values_kw samples must be finite$"),
    ], ids=["count", "energy", "rate", "dwell", "midnight_at_work", "aggregate_dt",
            "energy_nan", "energy_inf", "rate_inf", "arrive_nan", "depart_inf",
            "profile_inf_sample", "profile_nan_sample"])
    def test_cohort_and_aggregate_checks(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("build,field", [
        (make_config, "avg_daily_miles"),
        (make_config, "ambient_temp_f"),
        (SolverConfig, "tol_pu"),
    ], ids=["avg_daily_miles", "ambient_temp_f", "tol_pu"])
    def test_config_refuses_non_finite_numbers(self, build, field, value):
        """A NaN passed every check these fields had, or failed one that
        named no fault of its own; an infinite tolerance let every row
        "converge" after one iteration, and infinite miles failed later in
        ``build_cohorts``, naming ``energy_need_kwh``."""
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            build(**{field: value})

    @pytest.mark.parametrize("max_iter", [math.inf, math.nan, 2.5, True],
                             ids=["inf", "nan", "fraction", "bool"])
    def test_solver_max_iter_is_an_integer(self, max_iter):
        """With an infinite or NaN ``max_iter`` the kernel's exit test
        ``iters >= max_iter`` could never fire; the JSON reader refuses all four."""
        with pytest.raises(ValueError,
                           match=f"^max_iter must be an integer, got {re.escape(repr(max_iter))}$"):
            SolverConfig(max_iter=max_iter)

    def test_solver_max_iter_range(self):
        """An int past float range is checked without ``math.isfinite``,
        which would raise ``OverflowError`` on it."""
        assert SolverConfig(max_iter=10**400).max_iter == 10**400
        with pytest.raises(ValueError, match="^max_iter must be >= 1$"):
            SolverConfig(max_iter=0)

    @pytest.mark.parametrize("dt_h", [0.0, -1.0, math.nan, math.inf, 7.0, 0.25, 24 / 7])
    def test_one_time_step_rule(self, dt_h):
        """Every user of a run's time step accepts exactly the steps that
        ``samples_per_day`` accepts, those that divide 24 h, and refuses the
        rest with its ``ValueError`` naming ``dt_h``."""
        samples = round(24 / dt_h) if 0 < dt_h < math.inf else 1
        uses = {
            "cohort_profile":
                lambda: cohort_profile(overnight_cohort(ChargingStrategy.IMMEDIATE_FAST), dt_h),
            "aggregate_profiles": lambda: aggregate_profiles([], dt_h),
            "DemandProfile":
                lambda: DemandProfile(dt_h=dt_h, values_kw=np.zeros(samples)),
            "run_qsts": lambda: run_qsts(random_feeder(10, seed=1), {}, steps=3, dt_h=dt_h),
        }
        if dt_h in (0.25, 24 / 7):
            assert samples_per_day(dt_h) == samples
            for name, use in uses.items():
                assert use() is not None, name
        else:
            message = ("^dt_h must be finite, positive and divide 24 h, "
                       f"got {re.escape(str(dt_h))}$")
            for use in [lambda: samples_per_day(dt_h), *uses.values()]:
                with pytest.raises(ValueError, match=message):
                    use()

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            DemandProfile(dt_h=1.0, values_kw=np.full(24, -1.0))

    def test_span_must_be_24h(self):
        with pytest.raises(ValueError, match="span exactly 24"):
            DemandProfile(dt_h=1.0, values_kw=np.zeros(23))

    @pytest.mark.parametrize("shape", [(24, 1), (24, 2), ()])
    def test_series_must_be_1d(self, shape):
        """A 2-D array passes a length check on its first axis alone, and
        find_peak and run_qsts then failed inside numpy; a scalar is named
        by its own shape, not the one-sample series numpy would make of it."""
        with pytest.raises(ValueError, match=re.escape(f"not shape {shape}")):
            DemandProfile(dt_h=1.0, values_kw=np.zeros(shape))

    def test_values_read_only(self):
        p = aggregate_profiles([], dt_h=1.0)
        with pytest.raises(ValueError):
            p.values_kw[0] = 1.0

    def test_energy_is_derived_not_declared(self):
        assert [f.name for f in dataclasses.fields(DemandProfile)] == [
            "dt_h", "values_kw", "truncated"]
        assert isinstance(DemandProfile.__dict__["energy_kwh"], property)
        with pytest.raises(TypeError, match="energy_kwh"):
            DemandProfile(dt_h=1.0, values_kw=np.ones(24), energy_kwh=24.0)

    def test_cohort_window_must_match_integral(self, monkeypatch):
        """``cohort_profile`` credits a window to at most two days, so a
        50 h window integrates to 48 of its 50 kWh, and the mismatch is named."""
        monkeypatch.setattr(evfleet, "_charging_window", lambda c: (0.0, 50.0, 1.0, False))
        with pytest.raises(ValueError, match=r"^profile integral 48\.0 kWh disagrees with "
                                             r"the window's 50\.0 kWh$"):
            cohort_profile(overnight_cohort(ChargingStrategy.IMMEDIATE_FAST), 1.0)


feasible_cohorts = st.builds(
    lambda energy, arrive, depart, rate, strategy, count: Cohort(
        count=count,
        # keep the need within what full rate can deliver between 00:00 and departure
        energy_need_kwh=min(energy, rate * depart * 0.999),
        arrive_h=arrive,
        depart_h=depart,
        max_rate_kw=rate,
        strategy=strategy,
        location=Location.HOME,
    ),
    energy=st.floats(0.01, 60.0),
    arrive=st.floats(14.0, 23.5),
    depart=st.floats(2.0, 9.0),
    rate=st.sampled_from([1.4, 3.3, 7.2, 11.0]),
    strategy=st.sampled_from(list(ChargingStrategy)),
    count=st.integers(1, 500),
)


@st.composite
def series_profile(draw, dt_h):
    """A valid profile at ``dt_h`` and the list of samples it was built from."""
    samples = samples_per_day(dt_h)
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
                           min_size=samples, max_size=samples))
    return DemandProfile(dt_h=dt_h, values_kw=values, truncated=draw(st.booleans())), values


class TestProperties:
    @given(data=st.data(), dt=st.sampled_from([0.25, 0.5, 1.0, 24 / 7, 8.0]),
           parts=st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_energy_is_the_series_integral(self, data, dt, parts):
        drawn = [data.draw(series_profile(dt)) for _ in range(parts)]
        for profile, values in drawn:
            assert profile.energy_kwh.hex() == (float(np.sum(np.array(values))) * dt).hex()
        profiles = [profile for profile, _ in drawn]
        total = aggregate_profiles(profiles, dt)
        assert math.isclose(total.energy_kwh, math.fsum(p.energy_kwh for p in profiles),
                            rel_tol=1e-9, abs_tol=1e-9)

    @given(cohort=feasible_cohorts, dt=st.sampled_from([0.25, 0.5, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_energy_conserved(self, cohort, dt):
        profile = cohort_profile(cohort, dt)
        integral = float(np.sum(profile.values_kw)) * dt
        assert integral == pytest.approx(cohort.count * cohort.energy_need_kwh, rel=1e-9)
        assert not profile.truncated

    @given(cohort=feasible_cohorts)
    @settings(max_examples=200, deadline=None)
    def test_even_spread_minimizes_peak(self, cohort):
        peaks = {}
        for strategy in ChargingStrategy:
            profile = cohort_profile(
                Cohort(count=cohort.count, energy_need_kwh=cohort.energy_need_kwh,
                       arrive_h=cohort.arrive_h, depart_h=cohort.depart_h,
                       max_rate_kw=cohort.max_rate_kw, strategy=strategy,
                       location=Location.HOME), 1.0)
            peaks[strategy] = find_peak(profile)[1]
        slow = peaks.pop(ChargingStrategy.IMMEDIATE_SLOW)
        assert all(slow <= other + 1e-12 for other in peaks.values())

    @given(cohort=feasible_cohorts)
    @settings(max_examples=200, deadline=None)
    def test_midnight_profile_starts_at_midnight(self, cohort):
        profile = cohort_profile(
            Cohort(count=cohort.count, energy_need_kwh=cohort.energy_need_kwh,
                   arrive_h=cohort.arrive_h, depart_h=cohort.depart_h,
                   max_rate_kw=cohort.max_rate_kw,
                   strategy=ChargingStrategy.DELAYED_START_MIDNIGHT,
                   location=Location.HOME), 1.0)
        nonzero = np.flatnonzero(profile.values_kw)
        if cohort.energy_need_kwh > 0:
            assert nonzero.size and nonzero[0] == 0
        # support stays in [00:00, departure]: the pre-midnight dwell is idle
        first_idle = int(math.ceil(cohort.depart_h))
        assert np.all(profile.values_kw[first_idle:] == 0.0)

    @given(cohort=feasible_cohorts, dt=st.sampled_from([0.25, 0.5, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_profiles_are_bit_deterministic(self, cohort, dt):
        a = cohort_profile(cohort, dt)
        b = cohort_profile(cohort, dt)
        assert a.values_kw.tobytes() == b.values_kw.tobytes()


def window_bits(window):
    """A charging window with its floats as their exact bits."""
    start, duration, rate, truncated = window
    return float(start).hex(), float(duration).hex(), float(rate).hex(), truncated


@st.composite
def any_cohort(draw, strategy=st.sampled_from(list(ChargingStrategy))):
    """A cohort of any strategy and schedule: arrival may be 00:00, the
    dwell may wrap past midnight, and the need may exceed what full rate
    delivers in the time available."""
    arrive = draw(st.one_of(st.just(0.0), st.floats(0.0, 24.0, exclude_max=True)))
    depart = draw(st.one_of(st.just(0.0), st.floats(0.0, 24.0, exclude_max=True)))
    assume((depart - arrive) % 24.0 > 0)
    return Cohort(count=draw(st.integers(0, 500)),
                  energy_need_kwh=draw(st.one_of(st.just(0.0), st.floats(0.0, 300.0))),
                  arrive_h=arrive, depart_h=depart,
                  max_rate_kw=draw(st.one_of(st.sampled_from([1.4, 7.2]),
                                             st.floats(0.01, 50.0))),
                  strategy=draw(strategy), location=Location.HOME)


class TestChargingWindow:
    @given(cohort=any_cohort())
    @example(cohort=overnight_cohort(ChargingStrategy.IMMEDIATE_FAST))  # wraps midnight
    @example(cohort=overnight_cohort(ChargingStrategy.DELAYED_FINISH_BY_DEPARTURE, energy=60.0))
    @example(cohort=Cohort(count=1, energy_need_kwh=30.0, arrive_h=0.0, depart_h=3.0,
                           max_rate_kw=7.2, strategy=ChargingStrategy.DELAYED_START_MIDNIGHT,
                           location=Location.HOME))
    @example(cohort=Cohort(count=1, energy_need_kwh=30.0, arrive_h=0.0, depart_h=3.0,
                           max_rate_kw=7.2, strategy=ChargingStrategy.IMMEDIATE_SLOW,
                           location=Location.HOME))
    @example(cohort=overnight_cohort(ChargingStrategy.DELAYED_START_MIDNIGHT, energy=50.0))
    @settings(max_examples=500, deadline=None)
    def test_equals_one_branch_per_strategy(self, cohort):
        assert (window_bits(evfleet._charging_window(cohort))
                == window_bits(charging_window_per_strategy(cohort)))

    @given(cohort=any_cohort(), dt=st.sampled_from([0.25, 0.5, 1.0, 24 / 7]))
    @example(cohort=overnight_cohort(ChargingStrategy.IMMEDIATE_FAST), dt=1.0)  # past midnight
    @example(cohort=overnight_cohort(ChargingStrategy.IMMEDIATE_FAST, energy=0.0), dt=0.25)
    # windows that end exactly at 24:00, at full rate and spread evenly
    @example(cohort=Cohort(count=3, energy_need_kwh=28.8, arrive_h=20.0, depart_h=6.0,
                           max_rate_kw=7.2, strategy=ChargingStrategy.IMMEDIATE_FAST,
                           location=Location.HOME), dt=24 / 7)
    @example(cohort=Cohort(count=2, energy_need_kwh=12.0, arrive_h=18.0, depart_h=0.0,
                           max_rate_kw=7.2, strategy=ChargingStrategy.IMMEDIATE_SLOW,
                           location=Location.HOME), dt=0.5)
    @example(cohort=Cohort(count=1, energy_need_kwh=30.0, arrive_h=0.0, depart_h=3.0,
                           max_rate_kw=7.2, strategy=ChargingStrategy.DELAYED_START_MIDNIGHT,
                           location=Location.HOME), dt=1.0)
    @settings(max_examples=500, deadline=None)
    def test_profile_equals_two_segment_form(self, cohort, dt):
        values, delivered, truncated = cohort_profile_two_segments(cohort, dt)
        profile = cohort_profile(cohort, dt)
        assert profile.values_kw.tobytes() == values.tobytes()
        assert profile.truncated == truncated
        assert profile.energy_kwh.hex() == (float(np.sum(values)) * dt).hex()
        assert math.isclose(profile.energy_kwh, delivered, rel_tol=1e-9, abs_tol=1e-9)

    def test_infeasible_even_spread_is_the_immediate_fast_window(self):
        """2 kW over the 12 h overnight dwell delivers 24 kWh of 30."""
        slow = overnight_cohort(ChargingStrategy.IMMEDIATE_SLOW, energy=30.0, rate=2.0)
        fast = overnight_cohort(ChargingStrategy.IMMEDIATE_FAST, energy=30.0, rate=2.0)
        window = evfleet._charging_window(slow)
        assert window_bits(window) == window_bits(evfleet._charging_window(fast))
        assert window == (18.0, 12.0, 2.0, True)

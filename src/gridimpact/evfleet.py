"""Deterministic EV fleet cohorts and 24-hour charging demand profiles.

A scenario is a set of fleet-level factors (fleet size, daily mileage,
vehicle mix, charger access and behavior). The fleet is partitioned into
cohorts over the cross-product of charging location, vehicle type and charger
level, and each cohort is turned into a 24-hour kW profile under one of four
charging strategies:

* immediate_fast: full rate from arrival until the energy need is met,
* immediate_slow: the need spread evenly over the whole dwell,
* delayed_finish_by_departure: full rate, timed to end exactly at departure,
* delayed_start_midnight: full rate from 00:00 (home charging only).

Everything here is a pure function of its inputs; identical configurations
produce byte-identical profiles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import read_record

__all__ = [
    "ChargingStrategy",
    "Location",
    "VehicleType",
    "ScenarioConfig",
    "Schedule",
    "Cohort",
    "DemandProfile",
    "scenario_from_json",
    "build_cohorts",
    "cohort_profile",
    "aggregate_profiles",
    "find_peak",
    "profile_to_csv",
]

HOURS_PER_DAY = 24.0


class ChargingStrategy(Enum):
    IMMEDIATE_FAST = "immediate_fast"
    IMMEDIATE_SLOW = "immediate_slow"
    DELAYED_FINISH_BY_DEPARTURE = "delayed_finish_by_departure"
    DELAYED_START_MIDNIGHT = "delayed_start_midnight"

    @classmethod
    def parse(cls, token: str) -> "ChargingStrategy":
        try:
            return cls(token.strip().lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown charging strategy '{token}' (expected one of: {valid})") from None


class Location(Enum):
    HOME = "home"
    WORKPLACE = "workplace"


class VehicleType(Enum):
    BEV = "bev"
    PHEV = "phev"


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fleet-level factor settings driving demand synthesis.

    ``sedan_share`` is carried and reported but does not alter demand; the
    charger-level mixes do, by assigning cohorts their per-vehicle max rate.
    """

    fleet_size: int
    avg_daily_miles: float
    ambient_temp_f: float
    bev_share: float
    sedan_share: float
    work_mix_l1: float
    home_access: float
    home_mix_l1: float
    home_preference: float
    home_strategy: ChargingStrategy
    work_strategy: ChargingStrategy
    kwh_per_mile_bev: float = 0.30
    kwh_per_mile_phev: float = 0.28
    temp_multiplier: float = 1.0
    phev_battery_kwh: float = 10.0
    l1_rate_kw: float = 1.4
    l2_rate_kw: float = 7.2

    def __post_init__(self):
        if self.fleet_size < 0:
            raise ValueError(f"fleet_size must be >= 0, got {self.fleet_size}")
        if not self.avg_daily_miles > 0:
            raise ValueError(f"avg_daily_miles must be > 0, got {self.avg_daily_miles}")
        for name in ("bev_share", "sedan_share", "work_mix_l1", "home_access",
                     "home_mix_l1", "home_preference"):
            _check_fraction(name, getattr(self, name))
        if self.work_strategy is ChargingStrategy.DELAYED_START_MIDNIGHT:
            raise ValueError("delayed_start_midnight is a home-only strategy")
        for name in ("kwh_per_mile_bev", "kwh_per_mile_phev", "temp_multiplier",
                     "phev_battery_kwh", "l1_rate_kw", "l2_rate_kw"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class Schedule:
    """Default arrival/departure clock hours per location, [0, 24)."""

    home_arrive_h: float = 18.0
    home_depart_h: float = 7.0
    work_arrive_h: float = 9.0
    work_depart_h: float = 17.0

    def __post_init__(self):
        for name in ("home_arrive_h", "home_depart_h", "work_arrive_h", "work_depart_h"):
            value = getattr(self, name)
            if not 0.0 <= value < 24.0:
                raise ValueError(f"{name} must be in [0, 24), got {value}")
        for place in ("home", "work"):
            if getattr(self, f"{place}_arrive_h") == getattr(self, f"{place}_depart_h"):
                raise ValueError(f"{place}_arrive_h equals {place}_depart_h: zero dwell")


DEFAULT_SCHEDULE = Schedule()


@dataclass(frozen=True)
class Cohort:
    """A group of identical vehicles sharing one charging window and strategy."""

    count: int
    energy_need_kwh: float
    arrive_h: float
    depart_h: float
    max_rate_kw: float
    strategy: ChargingStrategy
    location: Location

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("cohort count must be >= 0")
        if self.energy_need_kwh < 0:
            raise ValueError("energy_need_kwh must be >= 0")
        if not self.max_rate_kw > 0:
            raise ValueError("max_rate_kw must be > 0")
        if self.dwell_h <= 0:
            raise ValueError("dwell duration must be > 0")
        if (self.strategy is ChargingStrategy.DELAYED_START_MIDNIGHT
                and self.location is not Location.HOME):
            raise ValueError("delayed_start_midnight is valid only at home")

    @property
    def dwell_h(self) -> float:
        return (self.depart_h - self.arrive_h) % HOURS_PER_DAY


@dataclass(frozen=True, eq=False)
class DemandProfile:
    """A 24-hour kW series. ``values_kw[i]`` is the average power over
    ``[i*dt_h, (i+1)*dt_h)``; ``energy_kwh`` is the energy the profile was
    built to deliver and must agree with the integral of the series.
    ``truncated`` flags profiles whose cohort could not fit its full energy
    need into the charging window.
    """

    dt_h: float
    values_kw: np.ndarray
    energy_kwh: float
    truncated: bool = False

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values_kw, dtype=np.float64))
        values.setflags(write=False)
        object.__setattr__(self, "values_kw", values)
        n = values.shape[0]
        if n == 0 or not math.isclose(n * self.dt_h, HOURS_PER_DAY, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"profile must span exactly 24 h: {n} samples at dt={self.dt_h}")
        if np.any(values < 0):
            raise ValueError("profile samples must be >= 0")
        total = float(np.sum(values)) * self.dt_h
        if not math.isclose(total, self.energy_kwh, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(
                f"profile integral {total} kWh disagrees with declared energy {self.energy_kwh} kWh"
            )


def scenario_from_json(text: str | bytes | dict) -> ScenarioConfig:
    """Build a ScenarioConfig from its JSON document (field names as in the
    dataclass; strategies as their string tokens)."""
    doc = json.loads(text) if isinstance(text, (str, bytes)) else text
    return read_record(ScenarioConfig, doc, "scenario")


def _largest_remainder(fractions: Sequence[float], total: int) -> list[int]:
    """Integer apportionment of ``total`` by ``fractions`` (summing to <= 1+eps).
    Floors first, then hands out the remainder by largest fractional part,
    ties resolved by list position."""
    ideal = [f * total for f in fractions]
    counts = [math.floor(x) for x in ideal]
    shortfall = total - sum(counts)
    order = sorted(range(len(ideal)), key=lambda i: (-(ideal[i] - counts[i]), i))
    for i in order[:shortfall]:
        counts[i] += 1
    return counts


def build_cohorts(cfg: ScenarioConfig, schedule: Schedule = DEFAULT_SCHEDULE) -> list[Cohort]:
    """Partition the fleet into deterministic cohorts.

    The catalog order is home before workplace, BEV before PHEV, Level 1
    before Level 2; integer rounding uses the largest-remainder rule in that
    order so cohort counts always sum to the fleet size. Cohorts that round
    to zero vehicles are dropped.
    """
    home_fraction = cfg.home_access * cfg.home_preference

    catalog: list[tuple[float, Cohort]] = []
    for location, loc_fraction, mix_l1, strategy, arrive, depart in (
        (Location.HOME, home_fraction, cfg.home_mix_l1, cfg.home_strategy,
         schedule.home_arrive_h, schedule.home_depart_h),
        (Location.WORKPLACE, 1.0 - home_fraction, cfg.work_mix_l1, cfg.work_strategy,
         schedule.work_arrive_h, schedule.work_depart_h),
    ):
        for vtype in (VehicleType.BEV, VehicleType.PHEV):
            type_fraction = cfg.bev_share if vtype is VehicleType.BEV else 1.0 - cfg.bev_share
            kwh_per_mile = (cfg.kwh_per_mile_bev if vtype is VehicleType.BEV
                            else cfg.kwh_per_mile_phev)
            energy = cfg.avg_daily_miles * kwh_per_mile * cfg.temp_multiplier
            if vtype is VehicleType.PHEV:
                energy = min(energy, cfg.phev_battery_kwh)
            for rate, level_fraction in ((cfg.l1_rate_kw, mix_l1), (cfg.l2_rate_kw, 1.0 - mix_l1)):
                fraction = loc_fraction * type_fraction * level_fraction
                if fraction == 0.0:
                    continue
                catalog.append((fraction, Cohort(
                    count=0, energy_need_kwh=energy, arrive_h=arrive, depart_h=depart,
                    max_rate_kw=rate, strategy=strategy, location=location)))

    counts = _largest_remainder([fraction for fraction, _ in catalog], cfg.fleet_size)
    return [replace(cohort, count=n) for n, (_, cohort) in zip(counts, catalog) if n > 0]


def _charging_window(c: Cohort) -> tuple[float, float, float, bool]:
    """Resolve a cohort's strategy to one constant-rate window.

    Returns (start_h, duration_h, rate_kw, truncated). The window may wrap
    past midnight; the caller splits it onto the sample grid.
    """
    dwell = c.dwell_h
    energy = c.energy_need_kwh
    rate = c.max_rate_kw

    if c.strategy is ChargingStrategy.IMMEDIATE_SLOW:
        even = energy / dwell
        if even <= rate:
            return c.arrive_h, dwell, even, False
        # even spread is infeasible at this rate: fall back to full rate on arrival
        deliverable = min(energy, rate * dwell)
        return c.arrive_h, deliverable / rate, rate, deliverable < energy

    if c.strategy is ChargingStrategy.IMMEDIATE_FAST:
        deliverable = min(energy, rate * dwell)
        return c.arrive_h, deliverable / rate, rate, deliverable < energy

    if c.strategy is ChargingStrategy.DELAYED_FINISH_BY_DEPARTURE:
        deliverable = min(energy, rate * dwell)
        duration = deliverable / rate
        return (c.depart_h - duration) % HOURS_PER_DAY, duration, rate, deliverable < energy

    # delayed start at midnight: the vehicle must be parked at 00:00
    midnight_parked = c.arrive_h > c.depart_h or c.arrive_h == 0.0
    available = c.depart_h if midnight_parked else 0.0
    deliverable = min(energy, rate * available)
    return 0.0, deliverable / rate, rate, deliverable < energy


def cohort_profile(c: Cohort, dt_h: float) -> DemandProfile:
    """24-hour kW profile of one cohort (per-vehicle window scaled by count).

    Energy that falls partially inside a timestep is spread within that
    timestep, so the series integrates exactly to the delivered energy.
    """
    samples = int(round(HOURS_PER_DAY / dt_h))
    if not math.isclose(samples * dt_h, HOURS_PER_DAY, rel_tol=0, abs_tol=1e-12):
        raise ValueError(f"dt_h={dt_h} does not divide 24 h exactly")

    start, duration, rate, truncated = _charging_window(c)
    edges = np.arange(samples + 1, dtype=np.float64) * dt_h
    values = np.zeros(samples, dtype=np.float64)

    segments = []
    if duration > 0 and rate > 0:
        end = start + duration
        if end <= HOURS_PER_DAY:
            segments.append((start, end))
        else:
            segments.append((start, HOURS_PER_DAY))
            segments.append((0.0, end - HOURS_PER_DAY))
    for seg_start, seg_end in segments:
        overlap = np.minimum(edges[1:], seg_end) - np.maximum(edges[:-1], seg_start)
        np.maximum(overlap, 0.0, out=overlap)
        values += overlap * (rate / dt_h)

    values *= c.count
    delivered = c.count * duration * rate
    return DemandProfile(dt_h=dt_h, values_kw=values, energy_kwh=delivered, truncated=truncated)


def aggregate_profiles(
    profiles: Iterable[DemandProfile],
    dt_h: float | None = None,
) -> DemandProfile:
    """Pointwise sum of profiles sharing one timestep. ``dt_h`` is required
    when the input is empty (it determines the zero profile's shape)."""
    profiles = list(profiles)
    if not profiles:
        if dt_h is None:
            raise ValueError("dt_h is required to aggregate an empty profile list")
        samples = int(round(HOURS_PER_DAY / dt_h))
        return DemandProfile(dt_h=dt_h, values_kw=np.zeros(samples), energy_kwh=0.0)

    dts = {p.dt_h for p in profiles}
    if len(dts) != 1:
        raise ValueError(f"mismatched dt_h across profiles: {sorted(dts)}")
    (common_dt,) = dts
    if dt_h is not None and dt_h != common_dt:
        raise ValueError(f"requested dt_h={dt_h} but profiles use dt_h={common_dt}")

    stacked = np.stack([p.values_kw for p in profiles])
    values = np.sum(stacked, axis=0)  # pairwise reduction: deterministic for a fixed order
    energy = math.fsum(p.energy_kwh for p in profiles)
    return DemandProfile(dt_h=common_dt, values_kw=values, energy_kwh=energy,
                         truncated=any(p.truncated for p in profiles))


def find_peak(p: DemandProfile) -> tuple[int, float]:
    """Index and value of the maximum sample; ties go to the earliest index."""
    if p.values_kw.size == 0:
        raise ValueError("empty profile has no peak")
    index = int(np.argmax(p.values_kw))
    return index, float(p.values_kw[index])


def profile_to_csv(p: DemandProfile) -> str:
    """CSV export with header ``hour,kw``; hour is the interval start."""
    lines = ["hour,kw"]
    for i, value in enumerate(p.values_kw):
        lines.append(f"{i * p.dt_h!r},{float(value)!r}")
    return "\n".join(lines) + "\n"

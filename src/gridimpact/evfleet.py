"""Deterministic EV fleet cohorts and 24-hour charging demand profiles.

A scenario is a set of fleet-level factors (fleet size, daily mileage,
vehicle mix, charger access and behavior). The fleet is partitioned into
cohorts over the cross-product of charging location, vehicle type and charger
level, and each cohort is turned into a 24-hour kW profile under one of four
charging strategies:

* immediate_fast: full rate from arrival until the energy need is met,
* immediate_slow: the need spread evenly over the whole dwell, or the
  immediate_fast window when the need exceeds rate x dwell,
* delayed_finish_by_departure: full rate, timed to end exactly at departure,
* delayed_start_midnight: full rate from 00:00 to departure at the latest
  (home charging only; none if the vehicle is not parked at midnight).

A profile is its kW series: its ``energy_kwh`` is the series' integral.
Everything here is a pure function of its inputs; identical configurations
produce byte-identical profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .config import (DEFAULT_SCHEDULE, HOURS_PER_DAY, ChargingStrategy, ScenarioConfig, Schedule,
                     check_finite, common_dt_h, samples_per_day)

__all__ = [
    "ChargingStrategy",
    "Location",
    "VehicleType",
    "ScenarioConfig",
    "Schedule",
    "Cohort",
    "DemandProfile",
    "build_cohorts",
    "cohort_profile",
    "aggregate_profiles",
    "find_peak",
    "profile_to_csv",
]


class Location(Enum):
    HOME = "home"
    WORKPLACE = "workplace"


class VehicleType(Enum):
    BEV = "bev"
    PHEV = "phev"


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
        check_finite(self, "energy_need_kwh", "arrive_h", "depart_h", "max_rate_kw")
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
    ``[i*dt_h, (i+1)*dt_h)``; ``energy_kwh`` is the series' integral.
    ``truncated`` flags profiles whose cohort could not fit its full energy
    need into the charging window.
    """

    dt_h: float
    values_kw: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        values = np.asarray(self.values_kw, dtype=np.float64)
        samples = samples_per_day(self.dt_h)
        if values.shape != (samples,):
            raise ValueError(f"profile must span exactly 24 h as a 1-D series of {samples} "
                             f"samples at dt={self.dt_h}, not shape {values.shape}")
        values = np.ascontiguousarray(values)
        values.setflags(write=False)
        object.__setattr__(self, "values_kw", values)
        if not np.isfinite(values).all():
            raise ValueError("values_kw samples must be finite")
        if np.any(values < 0):
            raise ValueError("profile samples must be >= 0")

    @property
    def energy_kwh(self) -> float:
        return float(np.sum(self.values_kw)) * self.dt_h


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


# Fleet-model constants: energy per mile by vehicle type, the PHEV battery
# that caps a PHEV's daily need, and the Level 1 and Level 2 charger rates.
KWH_PER_MILE = {VehicleType.BEV: 0.30, VehicleType.PHEV: 0.28}
PHEV_BATTERY_KWH = 10.0
L1_RATE_KW = 1.4
L2_RATE_KW = 7.2


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
            energy = cfg.avg_daily_miles * KWH_PER_MILE[vtype]
            if vtype is VehicleType.PHEV:
                energy = min(energy, PHEV_BATTERY_KWH)
            for rate, level_fraction in ((L1_RATE_KW, mix_l1), (L2_RATE_KW, 1.0 - mix_l1)):
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

    Returns (start_h, duration_h, rate_kw, truncated). The window may run
    past midnight; the caller credits it to the sample grid.
    """
    dwell = c.dwell_h
    energy = c.energy_need_kwh
    rate = c.max_rate_kw

    if c.strategy is ChargingStrategy.IMMEDIATE_SLOW and energy / dwell <= rate:
        return c.arrive_h, dwell, energy / dwell, False

    # every other case is one full-rate window over the time available
    start, available = c.arrive_h, dwell
    if c.strategy is ChargingStrategy.DELAYED_START_MIDNIGHT:
        midnight_parked = c.arrive_h > c.depart_h or c.arrive_h == 0.0
        start, available = 0.0, (c.depart_h if midnight_parked else 0.0)
    deliverable = min(energy, rate * available)
    duration = deliverable / rate
    if c.strategy is ChargingStrategy.DELAYED_FINISH_BY_DEPARTURE:
        start = (c.depart_h - duration) % HOURS_PER_DAY
    return start, duration, rate, deliverable < energy


def cohort_profile(c: Cohort, dt_h: float) -> DemandProfile:
    """24-hour kW profile of one cohort (per-vehicle window scaled by count).

    Energy that falls partially inside a timestep is spread within that
    timestep, so the series integrates exactly to the delivered energy.
    """
    samples = samples_per_day(dt_h)
    start, duration, rate, truncated = _charging_window(c)
    edges = np.arange(samples + 1, dtype=np.float64) * dt_h
    values = np.zeros(samples, dtype=np.float64)

    # The window [start, end) is credited to the day and, shifted back 24 h,
    # to the morning it runs on past midnight; a shift it misses adds zeros.
    end = start + duration
    for shift in (0.0, HOURS_PER_DAY):
        overlap = (np.minimum(edges[1:], min(end - shift, HOURS_PER_DAY))
                   - np.maximum(edges[:-1], start - shift))
        np.maximum(overlap, 0.0, out=overlap)
        values += overlap * (rate / dt_h)

    profile = DemandProfile(dt_h=dt_h, values_kw=values * c.count, truncated=truncated)
    delivered = c.count * duration * rate
    if not math.isclose(profile.energy_kwh, delivered, rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(f"profile integral {profile.energy_kwh} kWh disagrees with "
                         f"the window's {delivered} kWh")
    return profile


def aggregate_profiles(profiles: Iterable[DemandProfile], dt_h: float) -> DemandProfile:
    """Pointwise sum of profiles that all use the time step ``dt_h``; an
    empty input sums to the zero profile at ``dt_h``."""
    profiles = list(profiles)
    common_dt_h((p.dt_h for p in profiles), dt_h, "profiles")
    if not profiles:
        return DemandProfile(dt_h=dt_h, values_kw=np.zeros(samples_per_day(dt_h)))

    stacked = np.stack([p.values_kw for p in profiles])
    values = np.sum(stacked, axis=0)  # pairwise reduction: deterministic for a fixed order
    return DemandProfile(dt_h=dt_h, values_kw=values, truncated=any(p.truncated for p in profiles))


def find_peak(p: DemandProfile) -> tuple[int, float]:
    """Index and value of the maximum sample; ties go to the earliest index."""
    index = int(np.argmax(p.values_kw))
    return index, float(p.values_kw[index])


def profile_to_csv(p: DemandProfile) -> str:
    """CSV export with header ``hour,kw``; hour is the interval start."""
    lines = ["hour,kw"]
    for i, value in enumerate(p.values_kw):
        lines.append(f"{i * p.dt_h!r},{float(value)!r}")
    return "\n".join(lines) + "\n"

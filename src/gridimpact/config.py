"""Schema types that a run configuration nests: the fleet scenario, its
charging strategies, the arrival/departure schedule and the solver settings;
and ``samples_per_day``, the one rule for a run's time step.

They live apart from ``evfleet`` and ``powerflow``, which re-export them, so
reading and checking a run configuration imports no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

__all__ = [
    "ChargingStrategy",
    "ScenarioConfig",
    "Schedule",
    "DEFAULT_SCHEDULE",
    "SolverConfig",
    "HOURS_PER_DAY",
    "samples_per_day",
    "common_dt_h",
    "check_finite",
    "check_coordinates",
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
            return cls(token)
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ValueError(
                f"unknown charging strategy {token!r} (expected one of: {valid})") from None


def check_finite(record, *names: str) -> None:
    """Raise ``ValueError`` naming the first of ``record``'s fields ``names``
    that is NaN or ±inf, which a range check alone may let through."""
    for name in names:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def check_coordinates(record) -> None:
    """Raise ``ValueError`` unless ``record.lat`` and ``record.lon`` are WGS84 degrees."""
    if not -90.0 <= record.lat <= 90.0:
        raise ValueError(f"lat {record.lat} outside [-90, 90]")
    if not -180.0 <= record.lon <= 180.0:
        raise ValueError(f"lon {record.lon} outside [-180, 180]")


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fleet-level factor settings driving demand synthesis.

    ``ambient_temp_f`` (any finite number) and ``sedan_share`` (a share) are
    checked but do not yet alter demand; the charger-level mixes do, by
    assigning cohorts their per-vehicle max rate. ``fleet_size`` stops at
    10**12 so that ``evfleet.build_cohorts`` can apportion it exactly in
    float64.
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

    def __post_init__(self):
        if not 0 <= self.fleet_size <= 10**12:
            raise ValueError(f"fleet_size must be in [0, 10**12], got {self.fleet_size}")
        check_finite(self, "avg_daily_miles", "ambient_temp_f")
        if not self.avg_daily_miles > 0:
            raise ValueError(f"avg_daily_miles must be > 0, got {self.avg_daily_miles}")
        for name in ("bev_share", "sedan_share", "work_mix_l1", "home_access",
                     "home_mix_l1", "home_preference"):
            _check_fraction(name, getattr(self, name))
        if self.work_strategy is ChargingStrategy.DELAYED_START_MIDNIGHT:
            raise ValueError("delayed_start_midnight is a home-only strategy")


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
            if not 0.0 <= value < HOURS_PER_DAY:
                raise ValueError(f"{name} must be in [0, 24), got {value}")
        for place in ("home", "work"):
            if getattr(self, f"{place}_arrive_h") == getattr(self, f"{place}_depart_h"):
                raise ValueError(f"{place}_arrive_h equals {place}_depart_h: zero dwell")


DEFAULT_SCHEDULE = Schedule()


@dataclass(frozen=True)
class SolverConfig:
    tol_pu: float = 1e-6
    max_iter: int = 50

    def __post_init__(self):
        check_finite(self, "tol_pu")
        if not self.tol_pu > 0:
            raise ValueError("tol_pu must be > 0")
        if not isinstance(self.max_iter, int) or isinstance(self.max_iter, bool):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def samples_per_day(dt_h: float) -> int:
    """The number of ``dt_h``-hour samples in a day. ``dt_h`` must be finite,
    positive and divide 24 h to within 1e-12 h, or ``ValueError`` names it."""
    ratio = HOURS_PER_DAY / dt_h if dt_h > 0 else 0.0  # 0 for nan, 0 and below
    samples = int(round(ratio)) if ratio < float("inf") else 0
    if samples < 1 or abs(samples * dt_h - HOURS_PER_DAY) > 1e-12:
        raise ValueError(f"dt_h must be finite, positive and divide 24 h, got {dt_h}")
    return samples


def common_dt_h(dts: Iterable[float], dt_h: float, what: str) -> None:
    """Raise ``ValueError`` unless every value of ``dts``, the ``dt_h`` of a
    run's ``what`` (profiles, shapes), is the run's ``dt_h``."""
    dts = set(dts)
    if dts - {dt_h}:
        raise ValueError(f"mismatched dt_h: {what} use {sorted(dts)}, the run {dt_h}")

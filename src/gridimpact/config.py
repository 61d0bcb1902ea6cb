"""Schema types that a run configuration nests: the fleet scenario, its
charging strategies, the arrival/departure schedule and the solver settings;
and ``common_dt_h``, the one rule for a run's time step.

They live apart from ``evfleet`` and ``powerflow``, which re-export them, so
reading and checking a run configuration imports no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

__all__ = [
    "ChargingStrategy",
    "ScenarioConfig",
    "Schedule",
    "DEFAULT_SCHEDULE",
    "SolverConfig",
    "common_dt_h",
]


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
            if not 0.0 <= value < 24.0:
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
        if not self.tol_pu > 0:
            raise ValueError("tol_pu must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def common_dt_h(dts: Iterable[float], requested: float | None, what: str) -> float:
    """The one time step of the ``dt_h`` values ``dts`` of a run's ``what``
    (profiles, shapes): they must all agree, a ``requested`` step must
    match them, and it stands in for them when there are none."""
    dts = set(dts)
    if len(dts) > 1:
        raise ValueError(f"mismatched dt_h across {what}: {sorted(dts)}")
    common = next(iter(dts), requested)
    if common is None:
        raise ValueError(f"dt_h is required when there are no {what}")
    if requested not in (None, common):
        raise ValueError(f"requested dt_h={requested} but {what} use dt_h={common}")
    return common

"""Before/after comparison: percent change, five-way categorization, histograms.

A histogram is a ``Counter`` of records keyed by ``Category``; the category
bounds are its bin edges.

Percent change is the magnitude of relative change, |after - before| / before
as a percentage. Lines whose baseline is effectively zero (below 1e-6 kW) but
carry new flow are assigned an infinite sentinel and land in the top (red)
category; the system summary keeps the signed convention instead.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .netmodel import NetworkModel
from .powerflow import PowerFlowSolution

__all__ = [
    "Category",
    "Metric",
    "ImpactRecord",
    "SystemSummary",
    "ZERO_BASELINE_KW",
    "pct_change",
    "categorize",
    "build_records",
    "summarize",
    "filter_by_ampacity",
    "records_to_json",
    "histogram_to_csv",
]

ZERO_BASELINE_KW = 1e-6


class Category(Enum):
    """Change bucket with half-open percent bounds and its map color."""

    GRAY = ("Gray", 0.0, 0.05, "#808080")
    GREEN = ("Green", 0.05, 10.0, "#00FF00")
    BLUE = ("Blue", 10.0, 50.0, "#0000FF")
    PINK = ("Pink", 50.0, 80.0, "#FF00FF")
    RED = ("Red", 80.0, math.inf, "#e31a1c")

    def __init__(self, label: str, lower_pct: float, upper_pct: float, color_hex: str):
        self.label = label
        self.lower_pct = lower_pct
        self.upper_pct = upper_pct
        self.color_hex = color_hex


class Metric(Enum):
    FLOW = "flow"
    LOSS = "loss"


@dataclass(frozen=True)
class ImpactRecord:
    line_id: str
    metric: Metric
    before_kw: float
    after_kw: float
    pct_change: float
    category: Category


@dataclass(frozen=True)
class SystemSummary:
    demand_before_kw: float
    demand_after_kw: float
    demand_pct: float
    loss_before_kw: float
    loss_after_kw: float
    loss_pct: float


def pct_change(before: float, after: float) -> float:
    """Magnitude of relative change in percent; inf when flow appears on a
    zero baseline; 0 when both sides are effectively zero."""
    if before < 0 or after < 0:
        raise ValueError("pct_change expects magnitudes (>= 0)")
    if before > ZERO_BASELINE_KW:
        return abs(after - before) / before * 100.0
    if after > ZERO_BASELINE_KW:
        return math.inf
    return 0.0


def categorize(pct: float) -> Category:
    if math.isinf(pct):
        return Category.RED
    if pct < 0 or math.isnan(pct):
        raise ValueError(f"percent change must be >= 0, got {pct}")
    for category in Category:
        if category.lower_pct <= pct < category.upper_pct:
            return category


def build_records(
    before: PowerFlowSolution,
    after: PowerFlowSolution,
    metric: Metric = Metric.FLOW,
) -> list[ImpactRecord]:
    """One record per line; both solutions must cover the same lines in the
    same order. The flow metric compares sending-end real power magnitudes,
    the loss metric per-line I^2 R.
    """
    if before.line_ids != after.line_ids:
        raise ValueError("line-set mismatch: before and after solutions cover different lines")

    if metric is Metric.FLOW:
        before_values, after_values = np.abs(before.line_flow_kw), np.abs(after.line_flow_kw)
    else:
        before_values, after_values = before.line_loss_kw, after.line_loss_kw

    records = []
    for line_id, b, a in zip(before.line_ids, before_values.tolist(), after_values.tolist()):
        pct = pct_change(b, a)
        records.append(ImpactRecord(line_id=line_id, metric=metric, before_kw=b,
                                    after_kw=a, pct_change=pct, category=categorize(pct)))
    return records


def summarize(
    before_demand_kw: float,
    after_demand_kw: float,
    before_loss_kw: float,
    after_loss_kw: float,
) -> SystemSummary:
    """System-level deltas with signed percent change on positive baselines."""
    for name, value in (("demand", before_demand_kw), ("loss", before_loss_kw)):
        if not value > 0:
            raise ValueError(f"baseline {name} must be > 0 kW, got {value!r}")
    return SystemSummary(
        demand_before_kw=before_demand_kw,
        demand_after_kw=after_demand_kw,
        demand_pct=(after_demand_kw - before_demand_kw) / before_demand_kw * 100.0,
        loss_before_kw=before_loss_kw,
        loss_after_kw=after_loss_kw,
        loss_pct=(after_loss_kw - before_loss_kw) / before_loss_kw * 100.0,
    )


def filter_by_ampacity(net: NetworkModel, threshold_a: float) -> list[str]:
    """Ids of lines rated strictly above the threshold, in catalog (id) order."""
    if threshold_a < 0:
        raise ValueError("threshold_a must be >= 0")
    return [line.id for line in net.lines if line.ampacity_a > threshold_a]


def records_to_json(records: Iterable[ImpactRecord]) -> list[dict]:
    """Impact records as JSON objects. Infinite percent changes serialize as
    null (JSON has no inf); the category field still carries the classification."""
    return [
        {
            "line_id": r.line_id,
            "metric": r.metric.value,
            "before_kw": r.before_kw,
            "after_kw": r.after_kw,
            "pct_change": None if math.isinf(r.pct_change) else r.pct_change,
            "category": r.category.label,
            "color": r.category.color_hex,
        }
        for r in records
    ]


def histogram_to_csv(counts: Counter[Category]) -> str:
    """CSV export of a histogram: ``bin_lo,bin_hi,count`` per ``Category``,
    with ``inf`` as the last upper edge."""
    rows = ["bin_lo,bin_hi,count"]
    for c in Category:
        rows.append(f"{c.lower_pct!r},{c.upper_pct!r},{counts[c]}")
    return "\n".join(rows) + "\n"

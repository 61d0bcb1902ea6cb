"""Seeded benchmark inputs.

The seed picks one of ``CASES`` input cases per workload, and every case has
a frozen reference in ``reference.json`` (artifact hashes, manifest fields,
kernel digest). A finite family is what lets every run, whatever its seed,
check its outputs against a reference computed once.

Each workload keeps one feeder for all its cases; the case varies the
station registry (CLI workloads) or the load draws (sweep). Feeder topology
sets the sweep's iterations per row (4 or 5 on random 200-bus trees), so
varying it with the seed would make run-to-run spread a property of the
seed rather than of the code.

Inputs are built only through the package's public API (``synth``,
``netmodel.serialize_network``) and written as files the CLI reads, so the
program sees exactly what a user would hand it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CASES = 8

# The fleet scenario of the acceptance suite: 1,000 vehicles, home-heavy mix.
SCENARIO = {
    "fleet_size": 1000, "avg_daily_miles": 25, "ambient_temp_f": 80,
    "bev_share": 0.5, "sedan_share": 0.5, "work_mix_l1": 0.5,
    "home_access": 1.0, "home_mix_l1": 0.5, "home_preference": 0.8,
    "home_strategy": "immediate_slow", "work_strategy": "immediate_fast",
}
STATION_CLASS_COUNTS = (895, 24, 18, 14)
# The sweep scales each bus's static load by U(0.2, 2.0), drawn per row.
SWEEP_LOAD_FACTORS = (0.2, 2.0)


@dataclass(frozen=True)
class PipelineCase:
    """A ``gridimpact pipeline`` study: feeder size, voltage, peak and steps."""

    buses: int
    feeder_seed: int
    base_kv: float
    peak_kw: float
    steps: int


@dataclass(frozen=True)
class SweepCase:
    """A direct ``solve_batch`` call on one feeder with distinct load rows."""

    buses: int
    feeder_seed: int
    base_kv: float
    steps: int


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "annual_200": PipelineCase(buses=200, feeder_seed=200, base_kv=12.47,
                               peak_kw=2_000.0, steps=8760),
    "sweep_distinct_200": SweepCase(buses=200, feeder_seed=200, base_kv=12.47, steps=8760),
}


def case_index(seed: int) -> int:
    return seed % CASES


def _feeder(case):
    from gridimpact.synth import random_feeder

    return random_feeder(case.buses, seed=case.feeder_seed, base_kv=case.base_kv)


def write_pipeline_inputs(case: PipelineCase, index: int, workdir: Path) -> Path:
    """Write network, station registry and run config; return the config path.

    Every path in the config is relative, so the config hash (and with it
    the run directory name and ``manifest.json``) does not depend on where
    the checkout lives.
    """
    from gridimpact.netmodel import serialize_network
    from gridimpact.synth import random_stations

    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "network.json").write_text(
        serialize_network(_feeder(case)) + "\n", encoding="utf-8")
    stations = random_stations(sum(STATION_CLASS_COUNTS), seed=10_000 + index,
                               class_counts=STATION_CLASS_COUNTS)
    rows = ["id,name,lat,lon,rated_kw"]
    rows += [f"{s.id},{s.name},{s.lat},{s.lon},{s.rated_kw}" for s in stations]
    (workdir / "stations.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    config = {
        "network_path": "network.json",
        "stations_path": "stations.csv",
        "scenario": SCENARIO,
        "solver": {"tol_pu": 1e-6, "max_iter": 50},
        "peak_kw_override": case.peak_kw,
        "ampacity_threshold_a": 0.0,
        "output_dir": "out",
        "dt_h": 1.0,
        "steps": case.steps,
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_sweep_network(case: SweepCase, workdir: Path) -> Path:
    from gridimpact.netmodel import serialize_network

    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "network.json"
    path.write_text(serialize_network(_feeder(case)) + "\n", encoding="utf-8")
    return path


def sweep_loads(case: SweepCase, index: int, s_static: np.ndarray) -> np.ndarray:
    """``(steps, buses)`` per-unit loads: each row scales every bus's static
    load by its own draw from ``SWEEP_LOAD_FACTORS``, so no two rows are equal."""
    rng = np.random.default_rng(20_000 + index)
    factors = rng.uniform(*SWEEP_LOAD_FACTORS, size=(case.steps, s_static.shape[0]))
    return s_static[np.newaxis, :] * factors

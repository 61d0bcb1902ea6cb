"""EV charging impact analysis for radial power distribution feeders.

The pipeline: synthesize fleet charging demand, allocate the peak across a
station registry, assign station loads to the nearest network buses, solve
before/after power flow (snapshot and quasi-static time series), categorize
per-line changes, and emit styled GeoJSON maps plus CSV/JSON reports.

The public names below load their submodule on first access (PEP 562), so
``import gridimpact`` imports none of them and a command pays only for the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys(("Assignment", "assign_stations", "haversine", "inject_loads"), "assign"),
    **dict.fromkeys(("ChargingStrategy", "ScenarioConfig", "Schedule", "SolverConfig"),
                    "config"),
    **dict.fromkeys(("GridImpactError", "SchemaError", "SolverError", "TopologyError",
                     "VoltageCollapseError"), "errors"),
    **dict.fromkeys(("Cohort", "DemandProfile", "aggregate_profiles", "build_cohorts",
                     "cohort_profile", "find_peak"), "evfleet"),
    **dict.fromkeys(("export_geojson", "style_width"), "geoexport"),
    **dict.fromkeys(("Category", "ImpactRecord", "Metric", "SystemSummary", "build_records",
                     "categorize", "filter_by_ampacity", "pct_change", "summarize"), "impact"),
    **dict.fromkeys(("Bus", "Line", "LoadPoint", "NetworkModel", "Source", "TopologyReport",
                     "load_network", "parse_network", "serialize_network", "validate_radial"),
                    "netmodel"),
    **dict.fromkeys(("PowerFlowSolution", "QstsResult", "run_qsts", "solve_snapshot",
                     "total_losses"), "powerflow"),
    **dict.fromkeys(("CapacityClass", "EvStation", "allocate_peak", "classify",
                     "load_stations", "parse_stations"), "stations"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})

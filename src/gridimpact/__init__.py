"""EV charging impact analysis for radial power distribution feeders.

The pipeline: synthesize fleet charging demand, allocate the peak across a
station registry, assign station loads to the nearest network buses, solve
before/after power flow (snapshot and quasi-static time series), categorize
per-line changes, and emit styled GeoJSON maps plus CSV/JSON reports.
"""

from .assign import Assignment, assign_stations, haversine, inject_loads, nearest_bus
from .errors import (
    GridImpactError,
    SchemaError,
    SolverError,
    TopologyError,
    VoltageCollapseError,
)
from .evfleet import (
    ChargingStrategy,
    Cohort,
    DemandProfile,
    ScenarioConfig,
    Schedule,
    aggregate_profiles,
    build_cohorts,
    cohort_profile,
    find_peak,
)
from .geoexport import export_geojson, style_width
from .impact import (
    Category,
    ImpactRecord,
    Metric,
    SystemSummary,
    build_records,
    categorize,
    filter_by_ampacity,
    pct_change,
    summarize,
)
from .netmodel import (
    Bus,
    Line,
    LoadPoint,
    NetworkModel,
    Source,
    TopologyReport,
    bus_catalog,
    load_network,
    parse_network,
    serialize_network,
    validate_radial,
)
from .powerflow import (
    PowerFlowSolution,
    QstsResult,
    SolverConfig,
    run_qsts,
    solve_snapshot,
    total_losses,
)
from .stations import (
    CapacityClass,
    EvStation,
    allocate_peak,
    classify,
    load_stations,
    parse_stations,
)

__version__ = "0.1.0"

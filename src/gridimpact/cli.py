"""Pipeline orchestrator and command-line interface.

One configuration document drives everything. Each stage is exposed as a
subcommand (validate, profile, assign, run, impact, export) and ``pipeline``
chains them all, writing every artifact plus a manifest into a run directory
named by the configuration hash. Logs go to stderr; machine-readable output
goes to files only.

Exit codes: 0 ok, 2 schema error, 3 topology error, 4 solver failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from . import assign as assign_mod
from . import geoexport, impact, stations
from .errors import GridImpactError, SchemaError, SolverError, TopologyError, VoltageCollapseError
from .evfleet import (
    DEFAULT_SCHEDULE,
    DemandProfile,
    Schedule,
    aggregate_profiles,
    build_cohorts,
    cohort_profile,
    find_peak,
    profile_to_csv,
    scenario_from_json,
    ScenarioConfig,
)
from .netmodel import NetworkModel, load_network, validate_radial
from .powerflow import (
    SolverConfig,
    qsts_lines_csv,
    qsts_summary_csv,
    run_qsts,
    solve_snapshot,
)

log = logging.getLogger("gridimpact")

ALLOWED_DT_H = (0.25, 0.5, 1.0)


@dataclass(frozen=True)
class RunConfig:
    network_path: str
    stations_path: str
    scenario: ScenarioConfig
    solver: SolverConfig
    peak_kw_override: float | None
    ampacity_threshold_a: float
    output_dir: str
    dt_h: float
    steps: int
    schedule: Schedule = DEFAULT_SCHEDULE

    def __post_init__(self):
        if not self.network_path or not self.stations_path or not self.output_dir:
            raise SchemaError("network_path, stations_path and output_dir must be non-empty")
        if self.steps < 1:
            raise SchemaError(f"steps must be >= 1, got {self.steps}")
        if self.dt_h not in ALLOWED_DT_H:
            raise SchemaError(f"dt_h must be one of {ALLOWED_DT_H}, got {self.dt_h}")
        if self.peak_kw_override is not None and self.peak_kw_override < 0:
            raise SchemaError("peak_kw_override must be >= 0")
        if self.ampacity_threshold_a < 0:
            raise SchemaError("ampacity_threshold_a must be >= 0")


def load_run_config(path: str | Path, out_override: str | None = None) -> tuple[RunConfig, str]:
    """Load the run configuration; returns (config, config hash).

    Relative data paths resolve against the config file's directory. The hash
    covers the canonicalized document (plus any --out override), so identical
    configurations land in identical run directories.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"run config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"run config {path}: expected a JSON object")
    allowed = {"network_path", "stations_path", "scenario", "solver", "schedule",
               "peak_kw_override", "ampacity_threshold_a", "output_dir", "dt_h", "steps"}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise SchemaError(f"run config {path}: unexpected keys {unknown}")

    hashed = dict(doc)
    if out_override:
        hashed["output_dir"] = out_override
    digest = hashlib.sha256(
        json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:12]

    try:
        scenario = scenario_from_json(doc.get("scenario", {}))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    solver_doc = doc.get("solver", {})
    try:
        solver = SolverConfig(**solver_doc)
        schedule = Schedule(**doc.get("schedule", {}))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"run config {path}: {exc}") from exc

    base = path.parent

    def resolve(p: str) -> str:
        candidate = Path(p)
        return str(candidate if candidate.is_absolute() else base / candidate)

    try:
        cfg = RunConfig(
            network_path=resolve(doc["network_path"]),
            stations_path=resolve(doc["stations_path"]),
            scenario=scenario,
            solver=solver,
            peak_kw_override=doc.get("peak_kw_override"),
            ampacity_threshold_a=float(doc.get("ampacity_threshold_a", 0.0)),
            output_dir=out_override or resolve(doc.get("output_dir", "out")),
            dt_h=float(doc.get("dt_h", 1.0)),
            steps=int(doc.get("steps", 8760)),
            schedule=schedule,
        )
    except KeyError as exc:
        raise SchemaError(f"run config {path}: missing key {exc}") from exc
    return cfg, digest


class PipelineRun:
    """Executes the stages of one configured run and writes its artifacts.

    Stage results are cached, so a single-stage subcommand recomputes only
    its prerequisites in memory and emits byte-identical files to a full
    pipeline run.
    """

    def __init__(self, config: RunConfig, config_hash: str):
        self.config = config
        self.config_hash = config_hash
        self.run_dir = Path(config.output_dir) / f"run-{config_hash}"
        self._cache: dict[str, object] = {}

    # --- plumbing ---------------------------------------------------------

    @contextlib.contextmanager
    def _artifact(self, name: str) -> Iterator[TextIO]:
        """Open an artifact for streamed writing. The text goes to a temp
        file that is ``os.replace``d onto ``name`` when the block ends, so a
        crash or a concurrent run never leaves a half-written file under the
        final name; if the block or the replace fails, the temp file is
        removed. The temp name carries the pid so two runs of the same config
        never share one."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        path = self.run_dir / name
        tmp = self.run_dir / f".{name}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as out:
                yield out
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        log.info("wrote %s", path)

    def _write(self, name: str, text: str) -> None:
        with self._artifact(name) as out:
            out.write(text)

    def mark_failed(self, stage: str, error: Exception) -> None:
        try:
            self._write("FAILED", f"stage: {stage}\nerror: {error}\n")
        except OSError:  # the marker must never mask the original failure
            pass

    def clear_failure_marker(self) -> None:
        marker = self.run_dir / "FAILED"
        if marker.exists():
            marker.unlink()

    # --- inputs -----------------------------------------------------------

    @property
    def network(self) -> NetworkModel:
        if "network" not in self._cache:
            self._cache["network"] = load_network(self.config.network_path)
        return self._cache["network"]

    @property
    def stations(self) -> list[stations.EvStation]:
        if "stations" not in self._cache:
            self._cache["stations"] = stations.load_stations(self.config.stations_path)
        return self._cache["stations"]

    # --- stages -----------------------------------------------------------

    def stage_profile(self) -> dict:
        if "profile" in self._cache:
            return self._cache["profile"]
        cohorts = build_cohorts(self.config.scenario, self.config.schedule)
        profiles = [cohort_profile(c, self.config.dt_h) for c in cohorts]
        total = aggregate_profiles(profiles, dt_h=self.config.dt_h)
        peak_index, peak_kw = find_peak(total)
        result = {
            "cohorts": cohorts,
            "profile": total,
            "profile_peak_kw": peak_kw,
            "profile_peak_index": peak_index,
            "peak_kw": (self.config.peak_kw_override
                        if self.config.peak_kw_override is not None else peak_kw),
        }
        self._cache["profile"] = result
        return result

    def stage_allocate(self) -> dict:
        if "allocate" in self._cache:
            return self._cache["allocate"]
        census = stations.StationCensus.of(self.stations)
        peak_kw = self.stage_profile()["peak_kw"]
        allocations = stations.allocate_peak(peak_kw, census)
        result = {"census": census, "allocations": allocations}
        self._cache["allocate"] = result
        return result

    def stage_assign(self) -> list[assign_mod.Assignment]:
        if "assign" not in self._cache:
            allocations = self.stage_allocate()["allocations"]
            self._cache["assign"] = assign_mod.assign_stations(
                self.stations, self.network, allocations)
        return self._cache["assign"]

    def stage_power(self) -> dict:
        if "power" in self._cache:
            return self._cache["power"]
        cfg = self.config
        assignments = self.stage_assign()
        before_net = self.network
        after_net = assign_mod.inject_loads(before_net, assignments)

        before_snapshot = solve_snapshot(before_net, cfg.solver)
        if not before_snapshot.converged:
            raise SolverError(
                f"baseline snapshot diverged after {before_snapshot.iterations} iterations")
        after_snapshot = solve_snapshot(after_net, cfg.solver)
        if not after_snapshot.converged:
            raise SolverError(
                f"EV snapshot diverged after {after_snapshot.iterations} iterations")

        # EV loads follow the fleet profile normalized to its own peak, so the
        # peak step carries exactly the allocated kW. With no usable shape
        # (an override on a zero-fleet scenario) the EV load is held constant.
        profile = self.stage_profile()["profile"]
        profile_peak = self.stage_profile()["profile_peak_kw"]
        factor = (profile.values_kw / profile_peak if profile_peak > 0
                  else np.ones_like(profile.values_kw))
        shapes: dict[str, DemandProfile] = {}
        for bus_id, (load_id, base_kw, added_kw) in assign_mod.injection_targets(
                before_net, assignments).items():
            series = base_kw + added_kw * factor
            shapes[load_id] = DemandProfile(
                dt_h=cfg.dt_h, values_kw=series,
                energy_kwh=float(np.sum(series)) * cfg.dt_h)

        before_series = run_qsts(before_net, {}, cfg.solver,
                                 steps=cfg.steps, dt_h=cfg.dt_h)
        after_series = run_qsts(after_net, shapes, cfg.solver,
                                steps=cfg.steps, dt_h=cfg.dt_h)
        result = {
            "before_net": before_net,
            "after_net": after_net,
            "before_snapshot": before_snapshot,
            "after_snapshot": after_snapshot,
            "before_series": before_series,
            "after_series": after_series,
        }
        self._cache["power"] = result
        return result

    def stage_impact(self) -> dict:
        if "impact" in self._cache:
            return self._cache["impact"]
        power = self.stage_power()
        high_ampacity = set(impact.filter_by_ampacity(
            self.network, self.config.ampacity_threshold_a))
        flow_records = [r for r in impact.build_records(
            power["before_snapshot"], power["after_snapshot"], impact.Metric.FLOW)
            if r.line_id in high_ampacity]
        loss_records = [r for r in impact.build_records(
            power["before_snapshot"], power["after_snapshot"], impact.Metric.LOSS)
            if r.line_id in high_ampacity]
        summary = impact.summarize(
            power["before_net"].total_load_kw(),
            power["after_net"].total_load_kw(),
            power["before_snapshot"].total_loss_kw,
            power["after_snapshot"].total_loss_kw,
        )
        result = {
            "flow_records": flow_records,
            "loss_records": loss_records,
            "summary": summary,
            "flow_histogram": impact.build_histogram(flow_records),
            "loss_histogram": impact.build_histogram(loss_records),
        }
        self._cache["impact"] = result
        return result

    def stage_export(self) -> dict:
        if "export" not in self._cache:
            self._cache["export"] = geoexport.export_geojson(
                self.network, self.stage_impact()["flow_records"])
        return self._cache["export"]

    # --- artifact writers ---------------------------------------------------

    def write_profile(self) -> None:
        self._write("profile.csv", profile_to_csv(self.stage_profile()["profile"]))

    def write_assignments(self) -> None:
        self._write("assignments.csv", assign_mod.assignments_to_csv(self.stage_assign()))

    def _snapshot_csv(self, solution) -> str:
        rows = ["line_id,kw,kvar,amps,loss_kw"]
        for j, line_id in enumerate(solution.line_ids):
            rows.append(f"{line_id},{float(solution.line_flow_kw[j])!r},"
                        f"{float(solution.line_flow_kvar[j])!r},"
                        f"{float(solution.line_current_a[j])!r},"
                        f"{float(solution.line_loss_kw[j])!r}")
        return "\n".join(rows) + "\n"

    def write_power(self) -> None:
        power = self.stage_power()
        self._write("before_snapshot.csv", self._snapshot_csv(power["before_snapshot"]))
        self._write("after_snapshot.csv", self._snapshot_csv(power["after_snapshot"]))
        for name, writer in (("lines", qsts_lines_csv), ("steps", qsts_summary_csv)):
            for series in ("before", "after"):
                with self._artifact(f"{series}_{name}.csv") as out:
                    writer(power[f"{series}_series"], out)

    def write_impact(self) -> None:
        result = self.stage_impact()
        report = impact.records_to_json_dict(result["summary"], result["flow_records"])
        report["loss_records"] = impact.records_to_json_dict(
            result["summary"], result["loss_records"])["records"]
        self._write("impact_report.json", json.dumps(report, indent=2) + "\n")
        self._write("histogram_flow.csv", impact.histogram_to_csv(result["flow_histogram"]))
        self._write("histogram_loss.csv", impact.histogram_to_csv(result["loss_histogram"]))

    def write_export(self) -> None:
        self._write("network_styled.geojson", geoexport.geojson_dumps(self.stage_export()))

    def write_manifest(self) -> None:
        cfg = self.config
        profile = self.stage_profile()
        allocate = self.stage_allocate()
        assignments = self.stage_assign()
        power = self.stage_power()
        result = self.stage_impact()
        census = allocate["census"]
        summary = result["summary"]
        manifest = {
            "config_hash": self.config_hash,
            "network": {
                "path": cfg.network_path,
                "buses": len(self.network.buses),
                "lines": len(self.network.lines),
                "loads": len(self.network.loads),
            },
            "stations": {
                "path": cfg.stations_path,
                "count": census.total,
                "census": {"L1": census.l1, "L2": census.l2,
                           "L3": census.l3, "L4": census.l4},
            },
            "fleet_size": cfg.scenario.fleet_size,
            "profile_peak_kw": profile["profile_peak_kw"],
            "profile_peak_index": profile["profile_peak_index"],
            "peak_kw": profile["peak_kw"],
            "peak_source": ("override" if cfg.peak_kw_override is not None else "profile"),
            "allocations_kw": {c.name: allocate["allocations"][c] for c in sorted(
                allocate["allocations"], key=lambda c: c.name)},
            "assignment_count": len(assignments),
            "assigned_total_kw": math.fsum(a.assigned_kw for a in assignments),
            "qsts": {
                "steps": cfg.steps,
                "dt_h": cfg.dt_h,
                "diverged_before": int(np.count_nonzero(~power["before_series"].converged)),
                "diverged_after": int(np.count_nonzero(~power["after_series"].converged)),
            },
            "summary": {
                "demand_before_kw": summary.demand_before_kw,
                "demand_after_kw": summary.demand_after_kw,
                "demand_pct": summary.demand_pct,
                "loss_before_kw": summary.loss_before_kw,
                "loss_after_kw": summary.loss_after_kw,
                "loss_pct": summary.loss_pct,
            },
            "histogram_flow": {"edges": list(result["flow_histogram"].bin_edges),
                               "counts": list(result["flow_histogram"].counts)},
            "histogram_loss": {"edges": list(result["loss_histogram"].bin_edges),
                               "counts": list(result["loss_histogram"].counts)},
        }
        self._write("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


_STAGE_WRITERS = {
    "profile": ("profile", PipelineRun.write_profile),
    "assign": ("assign", PipelineRun.write_assignments),
    "run": ("power", PipelineRun.write_power),
    "impact": ("impact", PipelineRun.write_impact),
    "export": ("export", PipelineRun.write_export),
}


def cmd_validate(config: RunConfig, config_hash: str) -> int:
    """Check the network document and station registry; exit 0 only when the
    network is radial and the stations parse cleanly."""
    run = PipelineRun(config, config_hash)
    report: dict[str, object] = {"config_hash": config_hash}
    code = 0
    try:
        net = run.network
        topology = validate_radial(net)
        report["network"] = {
            "buses": len(net.buses), "lines": len(net.lines), "loads": len(net.loads),
            "connected": topology.connected, "radial": topology.radial,
            "orphan_buses": list(topology.orphan_buses),
        }
        if not topology.radial:
            code = 3
            log.error("network is not radial: %s", report["network"])
    except (SchemaError, OSError) as exc:
        report["network"] = {"error": str(exc)}
        log.error("network error: %s", exc)
        code = 2
    try:
        parsed = run.stations
        report["stations"] = {"count": len(parsed)}
    except (SchemaError, OSError) as exc:
        report["stations"] = {"error": str(exc)}
        log.error("station registry error: %s", exc)
        code = 2
    report["ok"] = code == 0
    run._write("validate.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    return code


def cmd_pipeline(config: RunConfig, config_hash: str) -> int:
    """Run every stage and write all artifacts plus the manifest."""
    run = PipelineRun(config, config_hash)
    stage = "profile"
    try:
        run.stage_profile()
        run.write_profile()
        stage = "allocate"
        run.stage_allocate()
        stage = "assign"
        run.stage_assign()
        run.write_assignments()
        stage = "power"
        run.stage_power()
        run.write_power()
        stage = "impact"
        run.stage_impact()
        run.write_impact()
        stage = "export"
        run.stage_export()
        run.write_export()
        stage = "manifest"
        run.write_manifest()
    except Exception as exc:
        log.error("pipeline failed at stage %s: %s", stage, exc)
        run.mark_failed(stage, exc)
        raise
    run.clear_failure_marker()
    log.info("pipeline complete: %s", run.run_dir)
    return 0


def cmd_stage(name: str, config: RunConfig, config_hash: str) -> int:
    """Run one stage (with its in-memory prerequisites) and write its files."""
    stage, writer = _STAGE_WRITERS[name]
    run = PipelineRun(config, config_hash)
    try:
        writer(run)
    except Exception as exc:
        log.error("stage %s failed: %s", stage, exc)
        run.mark_failed(stage, exc)
        raise
    run.clear_failure_marker()
    return 0


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, SchemaError):
        return 2
    if isinstance(exc, TopologyError):
        return 3
    if isinstance(exc, (SolverError, VoltageCollapseError)):
        return 4
    return 1


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(
        prog="gridimpact",
        description="EV charging impact analysis on radial distribution feeders")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("validate", "check network topology and station registry"),
        ("profile", "synthesize the 24-hour EV demand profile"),
        ("assign", "allocate the peak and assign stations to nearest buses"),
        ("run", "solve before/after snapshots and the time series"),
        ("impact", "categorize per-line changes and summarize the system"),
        ("export", "write the styled GeoJSON map"),
        ("pipeline", "run every stage and write the manifest"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the run-config JSON")
        cmd.add_argument("--out", default=None, help="override the configured output_dir")

    args = parser.parse_args(argv)
    try:
        config, config_hash = load_run_config(args.config, args.out)
        if args.command == "validate":
            return cmd_validate(config, config_hash)
        if args.command == "pipeline":
            return cmd_pipeline(config, config_hash)
        return cmd_stage(args.command, config, config_hash)
    except GridImpactError as exc:
        log.error("%s", exc)
        return _exit_code(exc)
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

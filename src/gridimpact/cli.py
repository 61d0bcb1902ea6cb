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
import dataclasses
import functools
import hashlib
import json
import logging
import math
import os
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, TextIO

# Only what ``validate`` needs is imported here. The stages and writers
# import numpy, evfleet, assign, powerflow, impact and geoexport where they
# run, so the pre-flight check starts without loading or compiling them.
from . import stations
from .config import DEFAULT_SCHEDULE, ScenarioConfig, Schedule, SolverConfig, samples_per_day
from .errors import (GridImpactError, SchemaError, SolverError, VoltageCollapseError,
                     decode_json, read_record, read_text)
from .netmodel import NetworkModel, load_network, tree_walk, validate_radial

if TYPE_CHECKING:
    from .assign import Assignment

log = logging.getLogger("gridimpact")

# Write buffer of an artifact's temp file. Python's default 8 KiB passes each
# ~12 KB step of a 200-line *_lines.csv straight through, about two write
# calls per step. Writing both *_lines.csv of the annual 200-bus run takes
# 0.24 s CPU at 8 KiB, 0.18 s at 256 KiB and 0.20 s at 1 MiB (best of 11,
# 2-vCPU VM); 1 MiB adds 1.0 MB to the pipeline's peak RSS, 256 KiB 0.1 MB.
ARTIFACT_BUFFER_BYTES = 256 << 10


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """The run-config document; its fields and defaults are the schema."""

    network_path: str
    stations_path: str
    scenario: ScenarioConfig
    solver: SolverConfig = SolverConfig()
    peak_kw_override: float | None = None
    ampacity_threshold_a: float = 0.0
    output_dir: str = "out"
    dt_h: float = 1.0
    # Omitted (None): one 365-day year at dt_h, as ``study_steps`` reads it.
    # The document types it as an integer, so it never reads null.
    steps: int = None  # type: ignore[assignment]
    schedule: Schedule = DEFAULT_SCHEDULE
    # The directory that the relative paths, kept as written, resolve
    # against: the run config's own. Not in the document: ``read_record``
    # skips it and ``load_run_config`` sets it.
    base_dir: str = dataclasses.field(default="", metadata={"document": False})

    def __post_init__(self):
        if not self.network_path or not self.stations_path or not self.output_dir:
            raise ValueError("network_path, stations_path and output_dir must be non-empty")
        samples_per_day(self.dt_h)  # raises unless dt_h divides the day
        if self.steps is not None and self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.peak_kw_override is not None and not 0 <= self.peak_kw_override < math.inf:
            raise ValueError(
                f"peak_kw_override must be finite and >= 0, got {self.peak_kw_override}")
        if not 0 <= self.ampacity_threshold_a < math.inf:
            raise ValueError(
                f"ampacity_threshold_a must be finite and >= 0, got {self.ampacity_threshold_a}")

    @property
    def study_steps(self) -> int:
        """The steps the run studies: ``steps``, or one 365-day year at
        ``dt_h`` when it is omitted."""
        return 365 * samples_per_day(self.dt_h) if self.steps is None else self.steps


def load_run_config(path: str | Path, out_override: str | None = None) -> tuple[RunConfig, str]:
    """Load the run configuration; returns (config, config hash).

    Relative paths in the document resolve against the config file's
    directory when they are read, so the config and the manifest keep them
    as written; a relative --out resolves against the working directory.
    The hash covers the canonicalized document (plus any --out override), so
    identical configurations land in identical run directories.
    """
    path = Path(path)
    doc = decode_json(read_text(path, "run config"), f"run config {path}")
    cfg = read_record(RunConfig, doc, f"run config {path}")

    hashed = {**doc, "output_dir": out_override} if out_override else doc
    digest = hashlib.sha256(
        json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:12]

    output_dir = str(Path(out_override).absolute()) if out_override else cfg.output_dir
    return dataclasses.replace(cfg, output_dir=output_dir, base_dir=str(path.parent)), digest


def _stage(method):
    """Memoize a ``stage_*`` method per run: the first call computes, later
    calls (a writer, a later stage, the manifest) return the same result."""

    @functools.wraps(method)
    def memoized(self):
        if method.__name__ not in self._stages:
            self._stages[method.__name__] = method(self)
        return self._stages[method.__name__]

    return memoized


class PipelineRun:
    """Executes the stages of one configured run and writes its artifacts.

    Stage results are cached, so a single-stage subcommand recomputes only
    its prerequisites in memory and emits byte-identical files to a full
    pipeline run.
    """

    def __init__(self, config: RunConfig, config_hash: str):
        self.config = config
        self.config_hash = config_hash
        # joining an absolute path onto the config's directory yields it unchanged
        self.run_dir = Path(config.base_dir) / config.output_dir / f"run-{config_hash}"
        self._stages: dict[str, object] = {}

    # --- plumbing ---------------------------------------------------------

    @contextlib.contextmanager
    def _artifact(self, name: str) -> Iterator[TextIO]:
        """Open an artifact for streamed writing. The text goes to a temp
        file that is ``os.replace``d onto ``name`` when the block ends, so a
        crash or a concurrent run never leaves a half-written file under the
        final name; if the block or the replace fails, the temp file is
        removed. The temp name carries the pid so two runs of the same config
        never share one. A character that UTF-8 cannot encode, such as a
        lone surrogate in an error text, is written as its backslash escape,
        so no write fails on one."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        path = self.run_dir / name
        tmp = self.run_dir / f".{name}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8", errors="backslashreplace",
                      buffering=ARTIFACT_BUFFER_BYTES) as out:
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

    def clear_failure_marker(self, labels: set[str]) -> None:
        """Remove FAILED if it names one of ``labels``, the stages just re-run
        and written; another stage's artifacts are still missing or stale."""
        marker = self.run_dir / "FAILED"
        if marker.exists() and marker.read_text(encoding="utf-8").startswith(
                tuple(f"stage: {label}\n" for label in labels)):
            marker.unlink()

    # --- inputs -----------------------------------------------------------

    @functools.cached_property
    def network(self) -> NetworkModel:
        return load_network(Path(self.config.base_dir) / self.config.network_path)

    @functools.cached_property
    def stations(self) -> list[stations.EvStation]:
        return stations.load_stations(Path(self.config.base_dir) / self.config.stations_path)

    # --- stages -----------------------------------------------------------

    @_stage
    def stage_profile(self) -> dict:
        from .evfleet import aggregate_profiles, build_cohorts, cohort_profile, find_peak

        cfg = self.config
        cohorts = build_cohorts(cfg.scenario, cfg.schedule)
        total = aggregate_profiles([cohort_profile(c, cfg.dt_h) for c in cohorts], dt_h=cfg.dt_h)
        if total.truncated:
            log.warning("EV energy does not fit its charging windows: %.1f kWh/day needed, "
                        "%.1f kWh/day delivered",
                        math.fsum(c.count * c.energy_need_kwh for c in cohorts), total.energy_kwh)
        peak_index, peak_kw = find_peak(total)
        return {
            "profile": total,
            "profile_peak_kw": peak_kw,
            "profile_peak_index": peak_index,
            "peak_kw": cfg.peak_kw_override if cfg.peak_kw_override is not None else peak_kw,
        }

    @_stage
    def stage_allocate(self) -> dict:
        census = Counter(stations.classify(s.rated_kw) for s in self.stations)
        allocations = stations.allocate_peak(self.stage_profile()["peak_kw"], census)
        return {"census": census, "allocations": allocations}

    @_stage
    def stage_assign(self) -> list[Assignment]:
        from .assign import assign_stations

        return assign_stations(self.stations, self.network, self.stage_allocate()["allocations"])

    @_stage
    def stage_power(self) -> dict:
        import numpy as np

        from .assign import inject_loads
        from .evfleet import DemandProfile
        from .powerflow.solver import run_qsts, solve_snapshot

        cfg = self.config
        assignments = self.stage_assign()
        before_net = self.network
        after_net, added = inject_loads(before_net, assignments)

        # EV loads follow the fleet profile normalized to its own peak, so the
        # peak step carries exactly the allocated kW. With no usable shape
        # (an override on a zero-fleet scenario) the EV load is held constant.
        profile = self.stage_profile()
        values_kw, peak_kw = profile["profile"].values_kw, profile["profile_peak_kw"]
        factor = values_kw / peak_kw if peak_kw > 0 else np.ones_like(values_kw)
        shapes: dict[str, DemandProfile] = {}
        for load_id, (base_kw, added_kw) in added.items():
            shapes[load_id] = DemandProfile(dt_h=cfg.dt_h, values_kw=base_kw + added_kw * factor)

        # Each side's snapshot, its network's own loads solved alone, is
        # checked first, so a collapsed or diverged snapshot stops the stage
        # before that side's series is solved.
        result = {"before_net": before_net, "after_net": after_net}
        for side, net, side_shapes, label in (("before", before_net, {}, "baseline"),
                                              ("after", after_net, shapes, "EV")):
            snapshot = solve_snapshot(net, cfg.solver)
            b = snapshot.collapse_bus
            if b >= 0:
                raise VoltageCollapseError(snapshot.bus_ids[b], float(snapshot.v_mag_pu[b]))
            if not snapshot.converged:
                raise SolverError(
                    f"{label} snapshot diverged after {snapshot.iterations} iterations")
            result[f"{side}_snapshot"] = snapshot
            result[f"{side}_series"] = run_qsts(net, side_shapes, cfg.solver,
                                                steps=cfg.study_steps, dt_h=cfg.dt_h)
        return result

    @_stage
    def stage_impact(self) -> dict:
        """``{metric}_records`` and ``{metric}_histogram`` per ``impact.Metric``
        (lines above the ampacity threshold only), plus the system summary."""
        from . import impact

        power = self.stage_power()
        high_ampacity = set(impact.filter_by_ampacity(
            self.network, self.config.ampacity_threshold_a))
        result = {}
        for metric in impact.Metric:
            records = [r for r in impact.build_records(
                power["before_snapshot"], power["after_snapshot"], metric)
                if r.line_id in high_ampacity]
            result[f"{metric.value}_records"] = records
            result[f"{metric.value}_histogram"] = Counter(r.category for r in records)
        result["summary"] = impact.summarize(
            power["before_net"].total_load_kw(),
            power["after_net"].total_load_kw(),
            power["before_snapshot"].total_loss_kw,
            power["after_snapshot"].total_loss_kw,
        )
        return result

    @_stage
    def stage_export(self) -> dict:
        from .geoexport import export_geojson

        return export_geojson(self.network, self.stage_impact()["flow_records"])

    # --- artifact writers ---------------------------------------------------

    def write_profile(self) -> None:
        from .evfleet import profile_to_csv

        self._write("profile.csv", profile_to_csv(self.stage_profile()["profile"]))

    def write_assignments(self) -> None:
        from .assign import assignments_to_csv

        self._write("assignments.csv", assignments_to_csv(self.stage_assign()))

    def write_power(self) -> None:
        from .powerflow import qsts_lines_csv, qsts_summary_csv, snapshot_csv

        power = self.stage_power()
        for name, writer, kind in (("snapshot", snapshot_csv, "snapshot"),
                                   ("lines", qsts_lines_csv, "series"),
                                   ("steps", qsts_summary_csv, "series")):
            for side in ("before", "after"):
                with self._artifact(f"{side}_{name}.csv") as out:
                    writer(power[f"{side}_{kind}"], out)

    def write_impact(self) -> None:
        from . import impact

        result = self.stage_impact()
        report = {"summary": dataclasses.asdict(result["summary"]),
                  "records": impact.records_to_json(result["flow_records"]),
                  "loss_records": impact.records_to_json(result["loss_records"])}
        self._write("impact_report.json", json.dumps(report, indent=2) + "\n")
        for metric in impact.Metric:
            self._write(f"histogram_{metric.value}.csv",
                        impact.histogram_to_csv(result[f"{metric.value}_histogram"]))

    def write_export(self) -> None:
        from .geoexport import geojson_dumps

        self._write("network_styled.geojson", geojson_dumps(self.stage_export()))

    def write_manifest(self) -> None:
        from . import impact

        cfg = self.config
        profile = self.stage_profile()
        allocate = self.stage_allocate()
        assignments = self.stage_assign()
        power = self.stage_power()
        result = self.stage_impact()
        census = allocate["census"]
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
                "count": census.total(),
                "census": {c.name: census[c] for c in stations.CapacityClass},
            },
            "fleet_size": cfg.scenario.fleet_size,
            "profile_peak_kw": profile["profile_peak_kw"],
            "profile_peak_index": profile["profile_peak_index"],
            "profile_truncated": profile["profile"].truncated,
            "peak_kw": profile["peak_kw"],
            "peak_source": ("override" if cfg.peak_kw_override is not None else "profile"),
            "allocations_kw": {c.name: kw for c, kw in allocate["allocations"].items()},
            "assignment_count": len(assignments),
            "assigned_total_kw": math.fsum(a.assigned_kw for a in assignments),
            "qsts": {
                "steps": cfg.study_steps,
                "dt_h": cfg.dt_h,
                "diverged_before": power["before_series"].diverged_steps,
                "diverged_after": power["after_series"].diverged_steps,
            },
            "summary": dataclasses.asdict(result["summary"]),
        }
        for metric in impact.Metric:
            histogram = result[f"{metric.value}_histogram"]
            manifest[f"histogram_{metric.value}"] = {
                "edges": [c.lower_pct for c in impact.Category],
                "counts": [histogram[c] for c in impact.Category]}
        self._write("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# Every stage in pipeline order: (label, stage method, writer method). The
# table holds method names, not functions, so a method replaced on the class
# (a tracer's wrapper, say) is the one called. A failure writes the row's
# label to FAILED; a single-stage subcommand runs its own row only.
STAGES = (
    ("profile", "stage_profile", "write_profile"),
    ("allocate", "stage_allocate", None),
    ("assign", "stage_assign", "write_assignments"),
    ("power", "stage_power", "write_power"),
    ("impact", "stage_impact", "write_impact"),
    ("export", "stage_export", "write_export"),
    ("manifest", None, "write_manifest"),
)


def _run_stages(run: PipelineRun, rows) -> None:
    """Run each row's stage, then its writer. On failure mark the run FAILED
    with the row's label and re-raise; on success clear an earlier marker
    that names one of these rows."""
    for label, *methods in rows:
        try:
            for name in methods:
                if name is not None:
                    getattr(run, name)()
        except Exception as exc:
            log.error("stage %s failed: %s", label, exc)
            run.mark_failed(label, exc)
            raise
    run.clear_failure_marker({label for label, *_ in rows})


def _carries_loss(net: NetworkModel) -> bool:
    """Whether the baseline loss is > 0: some load with nonzero kW or kvar
    sits below a line with ``resistance_ohm`` > 0. One pass over the tree
    walk from its last bus back marks each bus that has such a load at or
    below it."""
    index = {bus.id: i for i, bus in enumerate(net.buses)}
    loaded = [False] * len(net.buses)
    for load in net.loads:
        loaded[index[load.bus_id]] |= bool(load.kw or load.kvar)
    for parent, child, line in reversed(tree_walk(net)):
        if loaded[child] and net.lines[line].resistance_ohm > 0:
            return True
        loaded[parent] |= loaded[child]
    return False


def cmd_validate(config: RunConfig, config_hash: str) -> int:
    """Check the network document and station registry without solving
    anything; numpy is never imported. Exit 0 only when the network is
    radial, has at least one load bus to take stations, and has what the
    impact stage divides by: loads summing to more than 0 kW, and a loss
    (``_carries_loss``); and the registry parses cleanly and lists at least
    one station. Otherwise exit 3 for a non-radial network and 2 for any
    other fault, except that an unreadable or malformed input file exits 2
    even when the network is not radial."""
    run = PipelineRun(config, config_hash)
    report: dict[str, object] = {"config_hash": config_hash}
    code = 0
    try:
        net = run.network
        topology = validate_radial(net)
        report["network"] = network = {
            "buses": len(net.buses), "lines": len(net.lines), "loads": len(net.loads),
            "connected": topology.connected, "radial": topology.radial,
            "orphan_buses": list(topology.orphan_buses),
        }
        if not topology.radial:
            code = 3
            log.error("network is not radial: %s", network)
        elif not net.loads:
            network["error"] = "network has no loads: no bus to assign stations to"
        # the impact stage divides by the baseline demand and loss
        elif not net.total_load_kw() > 0:
            network["error"] = "network loads sum to 0 kW: no baseline demand"
        elif not _carries_loss(net):
            network["error"] = ("no load with nonzero kW or kvar sits below a line with "
                                "resistance_ohm > 0: no baseline loss")
        if "error" in network:
            log.error("%s", network["error"])
            code = 2
    except SchemaError as exc:
        report["network"] = {"error": str(exc)}
        log.error("%s", exc)
        code = 2
    try:
        parsed = run.stations
        report["stations"] = registry = {"count": len(parsed)}
        if not parsed:
            registry["error"] = "station registry lists no stations: nothing to allocate"
            log.error("%s", registry["error"])
            code = code or 2
    except SchemaError as exc:
        report["stations"] = {"error": str(exc)}
        log.error("%s", exc)
        code = 2
    report["ok"] = code == 0
    run._write("validate.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    return code


def cmd_pipeline(config: RunConfig, config_hash: str) -> int:
    """Run every stage and write all artifacts plus the manifest."""
    run = PipelineRun(config, config_hash)
    _run_stages(run, STAGES)
    log.info("pipeline complete: %s", run.run_dir)
    return 0


def cmd_stage(name: str, config: RunConfig, config_hash: str) -> int:
    """Run one stage (with its in-memory prerequisites) and write its files."""
    label = "power" if name == "run" else name
    _run_stages(PipelineRun(config, config_hash), [row for row in STAGES if row[0] == label])
    return 0


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
        return exc.exit_code
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

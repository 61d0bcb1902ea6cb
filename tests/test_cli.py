import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridimpact
import oracles
from gridimpact.cli import load_run_config, main
from gridimpact.config import ScenarioConfig
from gridimpact.errors import SchemaError

FIXTURES = Path(__file__).parent / "fixtures"
# The fleet profile's peak step in a ``write_config`` run at dt_h 1.0
PEAK_INDEX = 9

SCENARIO = {
    "fleet_size": 1000,
    "avg_daily_miles": 25,
    "ambient_temp_f": 80,
    "bev_share": 0.5,
    "sedan_share": 0.5,
    "work_mix_l1": 0.5,
    "home_access": 1.0,
    "home_mix_l1": 0.5,
    "home_preference": 0.8,
    "home_strategy": "immediate_slow",
    "work_strategy": "immediate_fast",
}


def write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "network_path": str(FIXTURES / "feeder40.json"),
        "stations_path": str(FIXTURES / "stations951.csv"),
        "scenario": dict(SCENARIO),
        "solver": {"tol_pu": 1e-6, "max_iter": 50},
        "peak_kw_override": 130_000.0,
        "ampacity_threshold_a": 0.0,
        "output_dir": str(tmp_path / "out"),
        "dt_h": 1.0,
        "steps": 24,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def write_scaled_network(path, scale):
    """feeder40 with every line impedance times ``scale`` (1000 collapses
    the baseline snapshot). The run directory hashes the config document
    only, so rewriting this file reruns a run in the same directory."""
    doc = json.loads((FIXTURES / "feeder40.json").read_text())
    for line in doc["lines"]:
        line["resistance_ohm"] *= scale
        line["reactance_ohm"] *= scale
    path.write_text(json.dumps(doc))


def assert_same_solution(got, want):
    """Every field of two steady states, bit for bit."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name
        else:
            assert type(a) is type(b) and repr(a) == repr(b), field.name


def run_dir_of(config_path, out=None):
    config, digest = load_run_config(config_path, out)
    return Path(config.output_dir) / f"run-{digest}"


class TestValidate:
    def test_fixture_passes(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["validate", "--config", str(config)]) == 0
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report["ok"] is True
        assert report["network"]["radial"] is True
        assert report["stations"]["count"] == 951

    def test_cyclic_network_exits_3(self, tmp_path):
        cyclic = {
            "buses": [{"id": f"b{i}", "lat": 37.0, "lon": -122.0 + i * 1e-4,
                       "base_kv": 12.47} for i in range(3)],
            "lines": [
                {"id": "l1", "from_bus": "b0", "to_bus": "b1",
                 "resistance_ohm": 0.1, "reactance_ohm": 0.2, "ampacity_a": 400.0},
                {"id": "l2", "from_bus": "b1", "to_bus": "b2",
                 "resistance_ohm": 0.1, "reactance_ohm": 0.2, "ampacity_a": 400.0},
                {"id": "l3", "from_bus": "b2", "to_bus": "b0",
                 "resistance_ohm": 0.1, "reactance_ohm": 0.2, "ampacity_a": 400.0},
            ],
            "loads": [],
            "source": {"bus_id": "b0", "voltage_pu": 1.0},
        }
        net_path = tmp_path / "cyclic.json"
        net_path.write_text(json.dumps(cyclic))
        config = write_config(tmp_path, network_path=str(net_path))
        assert main(["validate", "--config", str(config)]) == 3
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report["network"]["radial"] is False

    def test_mixed_base_kv_exits_2(self, tmp_path, minimal_doc):
        minimal_doc["buses"][1]["base_kv"] = 0.48
        net_path = tmp_path / "two_level.json"
        net_path.write_text(json.dumps(minimal_doc))
        config = write_config(tmp_path, network_path=str(net_path))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert "mixed base_kv" in report["network"]["error"]

    def test_malformed_station_row_exits_2(self, tmp_path):
        bad = tmp_path / "stations.csv"
        bad.write_text("id,name,lat,lon,rated_kw\ns1,A,37.0,-121.0,60\ns2,B,oops,-121.0,50\n")
        config = write_config(tmp_path, stations_path=str(bad))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert "row 3" in report["stations"]["error"]

    def test_row_omitting_ignored_trailing_column_passes(self, tmp_path):
        path = tmp_path / "stations.csv"
        path.write_text("id,name,lat,lon,rated_kw,notes\ns1,A,37.0,-122.0,7.2\n")
        config = write_config(tmp_path, stations_path=str(path))
        assert main(["validate", "--config", str(config)]) == 0
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report["stations"]["count"] == 1

    def test_row_missing_rating_exits_2(self, tmp_path):
        bad = tmp_path / "stations.csv"
        bad.write_text("id,name,lat,lon,rated_kw,notes\ns1,A,37.0,-122.0,7.2\ns2,B,37.0,-122.0\n")
        config = write_config(tmp_path, stations_path=str(bad))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert "row 3: expected 5 columns, got 4" in report["stations"]["error"]

    def test_infinite_station_rating_exits_2(self, tmp_path):
        bad = tmp_path / "stations.csv"
        bad.write_text("id,name,lat,lon,rated_kw\ns1,A,37.0,-121.0,60\nsx,X,37.0,-121.0,inf\n")
        config = write_config(tmp_path, stations_path=str(bad))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert "row 3: station sx: rated_kw must be finite" in report["stations"]["error"]
        assert main(["pipeline", "--config", str(config)]) == 2

    def test_line_id_with_comma_exits_2(self, tmp_path):
        doc = json.loads((FIXTURES / "feeder40.json").read_text())
        doc["lines"][0]["id"] = "l,1"
        net_path = tmp_path / "network.json"
        net_path.write_text(json.dumps(doc))
        config = write_config(tmp_path, network_path=str(net_path))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert "line 'l,1': id must not contain a comma" in report["network"]["error"]
        assert main(["pipeline", "--config", str(config)]) == 2

    def test_quoted_station_id_with_comma_exits_2(self, tmp_path):
        rows = (FIXTURES / "stations951.csv").read_text().split("\n")
        assert rows[1].startswith("s000,")
        rows[1] = '"s,000"' + rows[1][len("s000"):]
        bad = tmp_path / "stations.csv"
        bad.write_text("\n".join(rows))
        config = write_config(tmp_path, stations_path=str(bad))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert "row 2: station 's,000': id must not contain" in report["stations"]["error"]
        assert main(["pipeline", "--config", str(config)]) == 2

    def test_registry_with_byte_order_mark_passes(self, tmp_path):
        path = tmp_path / "stations.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "stations951.csv").read_bytes())
        config = write_config(tmp_path, stations_path=str(path))
        assert main(["validate", "--config", str(config)]) == 0
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report["stations"]["count"] == 951
        assert main(["pipeline", "--config", str(config)]) == 0

    def test_missing_config_key_exits_2(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"stations_path": "x"}))
        assert main(["pipeline", "--config", str(path)]) == 2

    @pytest.mark.parametrize("path", [
        "peak_kw_overide",  # typo must not pass silently
        # fleet-model constants that are no longer scenario inputs
        *[f"scenario.{key}" for key in (
            "kwh_per_mile_bev", "kwh_per_mile_phev", "temp_multiplier",
            "phev_battery_kwh", "l1_rate_kw", "l2_rate_kw")],
    ])
    def test_unknown_config_key_exits_2(self, tmp_path, path):
        config = write_config(tmp_path)
        doc = json.loads(config.read_text())
        section, _, key = path.rpartition(".")
        (doc[section] if section else doc)[key] = 1.0
        config.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"unexpected field '{key}'"):
            load_run_config(config)
        assert main(["validate", "--config", str(config)]) == 2

    def test_unreadable_network_path_reported(self, tmp_path):
        config = write_config(tmp_path, network_path=str(tmp_path / "missing.json"))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert "error" in report["network"]

    def test_empty_registry_exits_2(self, tmp_path):
        empty = tmp_path / "stations.csv"
        empty.write_text("id,name,lat,lon,rated_kw\n")
        config = write_config(tmp_path, stations_path=str(empty))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report["ok"] is False
        assert report["stations"]["count"] == 0
        assert "lists no stations" in report["stations"]["error"]
        assert main(["pipeline", "--config", str(config)]) == 2

    def test_network_without_loads_exits_2(self, tmp_path):
        doc = json.loads((FIXTURES / "feeder40.json").read_text())
        doc["loads"] = []
        net_path = tmp_path / "network.json"
        net_path.write_text(json.dumps(doc))
        config = write_config(tmp_path, network_path=str(net_path))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report["ok"] is False
        assert report["network"]["radial"] is True
        assert "network has no loads" in report["network"]["error"]
        assert main(["pipeline", "--config", str(config)]) == 2

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["buses"][1].update(lon=181.0), "bus b1: lon 181.0 outside [-180, 180]"),
        (lambda doc: doc["buses"][1].update(base_kv=0.0), "bus b1: base_kv must be > 0"),
        (lambda doc: doc["lines"][0].update(ampacity_a=0.0), "line l1: ampacity_a must be > 0"),
        (lambda doc: doc["lines"][0].update(resistance_ohm=-0.1),
         "line l1: impedance components must be >= 0"),
        (lambda doc: doc["lines"].append(dict(doc["lines"][0])), "duplicate id: line l1"),
        (lambda doc: doc["loads"].append(dict(doc["loads"][0])), "duplicate id: load ld1"),
    ], ids=["lon", "base_kv", "ampacity_a", "resistance_ohm", "duplicate_line",
            "duplicate_load"])
    def test_network_record_check_names_record_and_exits_2(self, tmp_path, minimal_doc,
                                                           edit, message):
        edit(minimal_doc)
        net_path = tmp_path / "network.json"
        net_path.write_text(json.dumps(minimal_doc))
        config = write_config(tmp_path, network_path=str(net_path))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert message in report["network"]["error"]

    @pytest.mark.parametrize("text,code,registry", [
        ("id,name,lat,lon,rated_kw\ns1,A,91.0,-121.0,60\n", 2,
         {"error": "row 2: station s1: coordinates outside WGS84 bounds"}),
        ("", 2, {"error": "row 1: missing header"}),
        # blank rows, empty or all-blank cells, are skipped
        ("id,name,lat,lon,rated_kw\ns1,A,37.0,-121.0,60\n\n , ,,,\ns2,B,37.1,-121.1,7\n", 0,
         {"count": 2}),
    ], ids=["outside_wgs84", "empty_file", "blank_rows"])
    def test_station_registry_checks(self, tmp_path, text, code, registry):
        path = tmp_path / "stations.csv"
        path.write_text(text)
        config = write_config(tmp_path, stations_path=str(path))
        assert main(["validate", "--config", str(config)]) == code
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report["stations"] == registry

    def test_validate_loads_no_numpy(self, tmp_path):
        """In a fresh interpreter, validate passes on feeder40 and leaves
        numpy, the solver and the writers unimported."""
        config = write_config(tmp_path)
        script = (
            "import json, sys\n"
            "from gridimpact import cli\n"
            f"code = cli.main(['validate', '--config', {str(config)!r}])\n"
            "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n")
        src = Path(gridimpact.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["code"] == 0
        assert "numpy" not in result["modules"]
        for module in ("assign", "evfleet", "geoexport", "impact", "powerflow"):
            assert f"gridimpact.{module}" not in result["modules"]


class TestPipeline:
    def test_reference_allocations_in_manifest(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        run_dir = run_dir_of(config)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        alloc = manifest["allocations_kw"]
        assert alloc["L1"] == pytest.approx(115.36, rel=1e-3)
        assert alloc["L2"] == pytest.approx(230.72, rel=1e-3)
        assert alloc["L3"] == pytest.approx(461.44, rel=1e-3)
        assert alloc["L4"] == pytest.approx(922.9, rel=1e-3)
        assert manifest["stations"]["census"] == {"L1": 895, "L2": 24, "L3": 18, "L4": 14}
        assert manifest["peak_source"] == "override"
        assert not (run_dir / "FAILED").exists()

    def test_all_artifacts_written(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        run_dir = run_dir_of(config)
        for name in ("manifest.json", "profile.csv", "assignments.csv",
                     "before_snapshot.csv", "after_snapshot.csv",
                     "before_lines.csv", "after_lines.csv",
                     "before_steps.csv", "after_steps.csv",
                     "impact_report.json", "histogram_flow.csv", "histogram_loss.csv",
                     "network_styled.geojson"):
            assert (run_dir / name).exists(), name

    def test_zero_fleet_changes_nothing(self, tmp_path):
        config = write_config(tmp_path, peak_kw_override=None,
                              scenario={**SCENARIO, "fleet_size": 0})
        assert main(["pipeline", "--config", str(config)]) == 0
        run_dir = run_dir_of(config)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["peak_kw"] == 0.0
        assert manifest["assigned_total_kw"] == 0.0
        assert manifest["summary"]["demand_pct"] == 0.0
        report = json.loads((run_dir / "impact_report.json").read_text())
        assert all(r["category"] == "Gray" and r["pct_change"] == 0.0
                   for r in report["records"])
        assert (run_dir / "before_snapshot.csv").read_bytes() == \
               (run_dir / "after_snapshot.csv").read_bytes()

    def test_demand_delta_equals_assigned_total(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        manifest = json.loads((run_dir_of(config) / "manifest.json").read_text())
        delta = (manifest["summary"]["demand_after_kw"]
                 - manifest["summary"]["demand_before_kw"])
        assert delta == pytest.approx(manifest["assigned_total_kw"], rel=1e-9)
        assert manifest["assigned_total_kw"] == pytest.approx(130_000.0, rel=1e-9)

    def test_reruns_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        run_dir = run_dir_of(config)
        first = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert main(["pipeline", "--config", str(config)]) == 0
        second = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert first == second

    def test_stagewise_equals_pipeline(self, tmp_path):
        config = write_config(tmp_path)
        for stage in ("profile", "assign", "run", "impact", "export"):
            assert main([stage, "--config", str(config)]) == 0
        stage_dir = run_dir_of(config)
        out_b = tmp_path / "outb"
        assert main(["pipeline", "--config", str(config), "--out", str(out_b)]) == 0
        pipe_dir = run_dir_of(config, str(out_b))
        stage_files = {p.name: p.read_bytes() for p in stage_dir.iterdir()}
        pipe_files = {p.name: p.read_bytes() for p in pipe_dir.iterdir()}
        common = set(stage_files) & set(pipe_files)
        assert common >= {"profile.csv", "assignments.csv", "impact_report.json",
                          "network_styled.geojson", "before_lines.csv"}
        for name in sorted(common):
            assert stage_files[name] == pipe_files[name], name

    def test_qsts_peak_step_matches_after_snapshot(self, tmp_path):
        from gridimpact.cli import PipelineRun

        config_path = write_config(tmp_path)
        config, digest = load_run_config(config_path)
        run = PipelineRun(config, digest)
        power = run.stage_power()
        peak_index = run.stage_profile()["profile_peak_index"]
        assert_same_solution(power["after_series"].step(peak_index), power["after_snapshot"])

    @pytest.mark.parametrize("overrides, peak_beyond_run", [
        ({"steps": PEAK_INDEX}, True),
        ({"steps": PEAK_INDEX + 1}, False),
        ({"scenario": {**SCENARIO, "fleet_size": 0}}, False),
        ({"dt_h": 0.25, "steps": 24}, True),  # the peak is step 36
    ], ids=["peak-beyond-run", "peak-is-last-step", "zero-fleet-override", "quarter-hour"])
    def test_one_kernel_call_per_side_gives_the_snapshots(self, tmp_path, monkeypatch,
                                                          overrides, peak_beyond_run):
        """``gridimpact pipeline`` solves each side once: the snapshot is the
        network's own load row of the series' batch, one more kernel row
        only when no step of the run carries it (the EV side's peak step
        does). Each snapshot, and its CSV, equals the network's solve on
        its own."""
        from gridimpact import cli
        from gridimpact.powerflow import kernels, snapshot_csv, solve_snapshot

        solved_rows = []
        solve_batch = kernels.solve_batch

        def counting(parent, child, z, s, *args):
            solved_rows.append(s.shape[0])
            return solve_batch(parent, child, z, s, *args)

        config_path = write_config(tmp_path, **overrides)
        monkeypatch.setattr(kernels, "solve_batch", counting)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        assert len(solved_rows) == 2

        run = cli.PipelineRun(*load_run_config(config_path))
        power = run.stage_power()
        peak_index = run.stage_profile()["profile_peak_index"]
        assert (peak_index >= run.config.steps) == peak_beyond_run
        series_rows = sum(len(power[f"{side}_series"].rows.converged)
                          for side in ("before", "after"))
        assert solved_rows[:2] == solved_rows[2:]  # the stage rerun solves the same rows
        assert sum(solved_rows[:2]) == series_rows + peak_beyond_run
        for side in ("before", "after"):
            net, snapshot = power[f"{side}_net"], power[f"{side}_snapshot"]
            assert_same_solution(snapshot, solve_snapshot(net, run.config.solver))
            alone = io.StringIO()
            snapshot_csv(oracles.qsts_per_step(net, {}, run.config.solver, steps=1, dt_h=1.0)[0],
                         alone)
            assert (run.run_dir / f"{side}_snapshot.csv").read_text() == alone.getvalue()

    def test_failed_write_keeps_previous_artifact(self, tmp_path, monkeypatch):
        from gridimpact import cli

        config_path = write_config(tmp_path)
        assert main(["profile", "--config", str(config_path)]) == 0
        run_dir = run_dir_of(config_path)
        before = (run_dir / "profile.csv").read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", failing_replace)
        run = cli.PipelineRun(*load_run_config(config_path))
        with pytest.raises(OSError, match="disk full"):
            run._write("profile.csv", "step,kw\n0,")
        assert (run_dir / "profile.csv").read_bytes() == before
        assert not [p.name for p in run_dir.iterdir() if p.name.endswith(".tmp")]

    def test_failed_stream_keeps_previous_lines_csv(self, tmp_path, monkeypatch):
        """A QSTS writer that raises after writing part of its rows, a few
        bytes or more than one write buffer that has reached the temp file,
        leaves the earlier file in place and no temp file behind."""
        from gridimpact import cli, powerflow

        config_path = write_config(tmp_path)
        assert main(["run", "--config", str(config_path)]) == 0
        run_dir = run_dir_of(config_path)
        before = {name: (run_dir / name).read_bytes()
                  for name in ("before_lines.csv", "after_lines.csv")}

        for rows in ("0,l1,", "0,l1,1.0,2.0,3.0\n" * (cli.ARTIFACT_BUFFER_BYTES // 16 + 1)):
            def failing_writer(result, out):
                out.write("step,line_id,kw,kvar,amps\n" + rows)
                if len(rows) > cli.ARTIFACT_BUFFER_BYTES:
                    assert os.fstat(out.fileno()).st_size > 0
                out.flush()
                raise OSError("disk full")

            # write_power imports its writers from gridimpact.powerflow when it runs
            monkeypatch.setattr(powerflow, "qsts_lines_csv", failing_writer)
            run = cli.PipelineRun(*load_run_config(config_path))
            with pytest.raises(OSError, match="disk full"):
                run.write_power()
            for name, content in before.items():
                assert (run_dir / name).read_bytes() == content
            assert not [p.name for p in run_dir.iterdir() if p.name.endswith(".tmp")]

    def test_step_csvs_across_digit_widths_and_write_buffers(self, tmp_path):
        """1,001 steps grow the step number from 1 to 4 digits and each
        *_lines.csv past one write buffer; both step CSVs of both sides equal
        the per-step oracle text byte for byte."""
        from gridimpact import cli

        run = cli.PipelineRun(*load_run_config(write_config(tmp_path, steps=1001)))
        run.write_power()
        power = run.stage_power()
        assert len(power["after_series"].rows.converged) > 1  # shaped EV loads
        for side in ("before", "after"):
            series = power[f"{side}_series"]
            solutions = [series.step(t) for t in range(series.steps)]
            lines = (run.run_dir / f"{side}_lines.csv").read_bytes()
            assert len(lines) > cli.ARTIFACT_BUFFER_BYTES
            assert lines == oracles.qsts_lines_csv(solutions).encode()
            assert (run.run_dir / f"{side}_steps.csv").read_bytes() == \
                oracles.qsts_summary_csv(solutions).encode()

    def test_out_flag_overrides_output_dir(self, tmp_path):
        config = write_config(tmp_path)
        target = tmp_path / "elsewhere"
        assert main(["pipeline", "--config", str(config), "--out", str(target)]) == 0
        assert (run_dir_of(config, str(target)) / "manifest.json").exists()

    def test_solver_failure_marks_stage_and_exits_4(self, tmp_path):
        config = write_config(tmp_path, peak_kw_override=1e9)  # guaranteed collapse
        assert main(["pipeline", "--config", str(config)]) == 4
        marker = run_dir_of(config) / "FAILED"
        assert marker.read_text() == ("stage: power\nerror: voltage collapse at bus b003: "
                                      "|V| = 0.1840 pu < 0.5 pu\n")

    def test_diverged_snapshot_marks_stage_and_exits_4(self, tmp_path):
        config = write_config(tmp_path, solver={"tol_pu": 1e-12, "max_iter": 1})
        assert main(["pipeline", "--config", str(config)]) == 4
        assert (run_dir_of(config) / "FAILED").read_text() == (
            "stage: power\nerror: baseline snapshot diverged after 1 iterations\n")

    def test_subcommand_failure_marks_its_own_stage(self, tmp_path):
        config = write_config(tmp_path, peak_kw_override=1e9)  # guaranteed collapse
        assert main(["run", "--config", str(config)]) == 4
        marker = (run_dir_of(config) / "FAILED").read_text()
        assert marker.startswith("stage: power\n")

    def test_zero_baseline_loss_names_the_baseline(self, tmp_path):
        """A feeder of reactance-only lines parses but has no I^2 R loss, so
        the impact stage cannot form a loss percentage."""
        doc = json.loads((FIXTURES / "feeder40.json").read_text())
        for line in doc["lines"]:
            line["resistance_ohm"] = 0.0
        net_path = tmp_path / "lossless.json"
        net_path.write_text(json.dumps(doc))
        config = write_config(tmp_path, network_path=str(net_path))
        assert main(["pipeline", "--config", str(config)]) == 2
        marker = (run_dir_of(config) / "FAILED").read_text()
        assert marker.startswith("stage: impact\n")
        assert "baseline loss must be > 0 kW, got 0.0" in marker

    def test_failed_marker_cleared_after_successful_rerun(self, tmp_path):
        network = tmp_path / "network.json"
        write_scaled_network(network, 1000.0)
        config = write_config(tmp_path, network_path=str(network))
        marker = run_dir_of(config) / "FAILED"
        assert main(["pipeline", "--config", str(config)]) == 4
        assert marker.read_text().startswith("stage: power\n")
        write_scaled_network(network, 1.0)
        assert main(["pipeline", "--config", str(config)]) == 0
        assert not marker.exists()

    def test_marker_stays_until_its_stage_reruns(self, tmp_path):
        """A subcommand that does not re-run the failed stage leaves the
        marker, since that stage's artifacts are still missing; the failed
        stage's own subcommand then clears it."""
        network = tmp_path / "network.json"
        write_scaled_network(network, 1000.0)
        config = write_config(tmp_path, network_path=str(network))
        run_dir = run_dir_of(config)
        assert main(["pipeline", "--config", str(config)]) == 4
        assert main(["profile", "--config", str(config)]) == 0
        assert (run_dir / "FAILED").read_text().startswith("stage: power\n")
        assert not (run_dir / "before_lines.csv").exists()
        write_scaled_network(network, 1.0)
        assert main(["run", "--config", str(config)]) == 0
        assert not (run_dir / "FAILED").exists()
        assert (run_dir / "before_lines.csv").exists()


class TestRunConfig:
    def test_bad_dt_rejected(self, tmp_path):
        config = write_config(tmp_path, dt_h=0.3)
        assert main(["pipeline", "--config", str(config)]) == 2

    @pytest.mark.parametrize("key,overrides", [
        ("dt_h", {"dt_h": None}),
        ("steps", {"steps": None}),
        ("steps", {"steps": 24.9}),
        ("steps", {"steps": True}),
        ("ampacity_threshold_a", {"ampacity_threshold_a": None}),
        ("peak_kw_override", {"peak_kw_override": "abc"}),
        ("peak_kw_override", {"peak_kw_override": float("nan")}),
        ("ampacity_threshold_a", {"ampacity_threshold_a": float("nan")}),
        ("fleet_size", {"scenario": {**SCENARIO, "fleet_size": None}}),
        ("home_strategy", {"scenario": {**SCENARIO, "home_strategy": 3}}),
        ("scenario", {"scenario": [1, 2]}),
        ("network_path", {"network_path": 5}),
        ("avg_daily_miles", {"scenario": {**SCENARIO, "avg_daily_miles": None}}),
        ("tol_pu", {"solver": {"tol_pu": None, "max_iter": 50}}),
        ("max_iter", {"solver": {"tol_pu": 1e-6, "max_iter": 2.5}}),
        ("home_arrive_h", {"schedule": {"home_arrive_h": None}}),
        ("ambient_temp_f", {"scenario": {**SCENARIO, "ambient_temp_f": "hot"}}),
        # a fleet-model constant now, so the scenario refuses it by name
        ("l1_rate_kw", {"scenario": {**SCENARIO, "l1_rate_kw": True}}),
        # zero dwell at home: arrival equals the default 07:00 departure
        ("home_depart_h", {"schedule": {"home_arrive_h": 7.0}}),
        # past 10**12 vehicles, float64 apportionment stops summing to the fleet
        ("fleet_size", {"scenario": {**SCENARIO, "fleet_size": 10**17 + 3}}),
        ("ampacity_threshold_a", {"ampacity_threshold_a": True}),
    ])
    def test_wrongly_typed_value_names_key_and_exits_2(self, tmp_path, key, overrides):
        """Including NaN, which Python's json reads and every ``< 0`` check passes."""
        config = write_config(tmp_path, **overrides)
        with pytest.raises(SchemaError, match=key):
            load_run_config(config)
        assert main(["pipeline", "--config", str(config)]) == 2

    @pytest.mark.parametrize("key,overrides", [
        ("network_path", {"network_path": ""}),
        ("stations_path", {"stations_path": ""}),
        ("output_dir", {"output_dir": ""}),
        ("steps", {"steps": 0}),
        ("peak_kw_override", {"peak_kw_override": -1.0}),
        ("ampacity_threshold_a", {"ampacity_threshold_a": -1.0}),
        ("run config", None),  # not JSON: the document cut short
    ])
    def test_run_config_check_names_key_and_exits_2(self, tmp_path, key, overrides):
        config = write_config(tmp_path, **(overrides or {}))
        if overrides is None:
            config.write_text(config.read_text()[:-1])
        with pytest.raises(SchemaError, match=key):
            load_run_config(config)
        assert main(["validate", "--config", str(config)]) == 2

    @pytest.mark.parametrize("key,overrides", [
        ("bev_share", {"scenario": {**SCENARIO, "bev_share": 1.5}}),
        ("avg_daily_miles", {"scenario": {**SCENARIO, "avg_daily_miles": 0}}),
        ("work_depart_h", {"schedule": {"work_depart_h": 24.0}}),
        ("tol_pu", {"solver": {"tol_pu": 0.0, "max_iter": 50}}),
        ("max_iter", {"solver": {"tol_pu": 1e-6, "max_iter": 0}}),
    ])
    def test_scenario_schedule_solver_check_names_key_and_exits_2(self, tmp_path, key,
                                                                  overrides):
        config = write_config(tmp_path, **overrides)
        with pytest.raises(SchemaError, match=key):
            load_run_config(config)
        assert main(["validate", "--config", str(config)]) == 2

    def test_relative_paths_resolve_against_config(self, tmp_path):
        network = FIXTURES / "feeder40.json"
        stations = FIXTURES / "stations951.csv"
        (tmp_path / "feeder40.json").write_text(network.read_text())
        (tmp_path / "stations951.csv").write_text(stations.read_text())
        config = write_config(tmp_path, network_path="feeder40.json",
                              stations_path="stations951.csv")
        assert main(["validate", "--config", str(config)]) == 0

    def test_readme_run_config_is_accepted(self, tmp_path):
        """The README's example run config passes the strict reader as
        written, its scenario sets every ScenarioConfig field, the scenario
        table lists the same fields, and with its data paths pointed at the
        fixtures the config validates."""
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        (doc,) = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.S)
                  if '"network_path"' in block]
        fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
        assert set(doc["scenario"]) == fields
        assert set(re.findall(r"^\| `(\w+)` \|", readme, re.M)) == fields
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        load_run_config(config)
        config.write_text(json.dumps({**doc, "network_path": str(FIXTURES / "feeder40.json"),
                                      "stations_path": str(FIXTURES / "stations951.csv")}))
        assert main(["validate", "--config", str(config)]) == 0

    def test_dt_quarter_hour_profile_length(self, tmp_path):
        config = write_config(tmp_path, dt_h=0.25, steps=4)
        assert main(["profile", "--config", str(config)]) == 0
        profile = (run_dir_of(config) / "profile.csv").read_text().strip().split("\n")
        assert len(profile) == 1 + 96

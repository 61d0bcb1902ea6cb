"""The cases of ``gridimpact validate`` and of the run-config reader that
run no stage, and the run-config builder that the whole suite shares.

This module imports only the standard library, pytest and ``gridimpact``,
never numpy, hypothesis or ``oracles``: the Python 3.10 floor in CI runs it
alone with numpy absent. Its name does not start with ``test_``, so a plain
``pytest`` run does not collect it; ``test_cli.py``'s ``TestValidate`` and
``TestRunConfig`` inherit these classes and run each case once, under the
same test ids. Run the module on its own with::

    python -m pytest tests/validate_cases.py
"""

import dataclasses
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gridimpact
from gridimpact.cli import PipelineRun, load_run_config, main
from gridimpact.config import ScenarioConfig
from gridimpact.errors import SchemaError
from gridimpact.netmodel import load_network
from gridimpact.stations import load_stations

FIXTURES = Path(__file__).parent / "fixtures"

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


def feeder40_with(edit):
    """The text of feeder40 after ``edit`` changes its document in place."""
    doc = json.loads((FIXTURES / "feeder40.json").read_text())
    edit(doc)
    return json.dumps(doc)


# One fault of each kind in an input file: (input, file text, the reader's
# message). Every message reads ``<input> <path>: <record>: <fault>``.
INPUT_FAULTS = {
    "bus_range": ("network", feeder40_with(lambda doc: doc["buses"][0].update(lat=100.0)),
                  "network {path}: bus b000: lat 100.0 outside [-90, 90]"),
    "line_range": ("network", feeder40_with(lambda doc: doc["lines"][0].update(ampacity_a=0.0)),
                   "network {path}: line l001: ampacity_a must be > 0"),
    "load_range": ("network", feeder40_with(lambda doc: doc["loads"][0].update(kw=-1.0)),
                   "network {path}: load ld001: kw must be >= 0"),
    "type": ("network", feeder40_with(lambda doc: doc["buses"][0].update(lat="x")),
             "network {path}: bus b000: field 'lat' has wrong type: expected a finite number, "
             "got 'x'"),
    "source_voltage": ("network",
                       feeder40_with(lambda doc: doc["source"].update(voltage_pu=1.5)),
                       "network {path}: source: voltage_pu 1.5 outside [0.8, 1.2]"),
    "duplicate_id": ("network", feeder40_with(lambda doc: doc["loads"].append(doc["loads"][0])),
                     "network {path}: duplicate id: load ld001"),
    "dangling_reference": ("network",
                           feeder40_with(lambda doc: doc["lines"][0].update(to_bus="nope")),
                           "network {path}: dangling bus reference: nope (line l001)"),
    "mixed_base_kv": ("network", feeder40_with(lambda doc: doc["buses"][1].update(base_kv=12.47)),
                      "network {path}: mixed base_kv [12.47, 69.0]: every bus must share one "
                      "voltage base"),
    "malformed_json": ("network", '{"buses": [',
                       "network {path} is not valid JSON: Expecting value: line 1 column 12 "
                       "(char 11)"),
    "registry_row": ("stations", "id,name,lat,lon,rated_kw\ns1,A,37.0,-121.0,0\n",
                     "station registry {path}: row 2: station s1: rated_kw must be > 0, got 0.0"),
}


def run_dir_of(config_path, out=None):
    return PipelineRun(*load_run_config(config_path, out)).run_dir


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

    @pytest.mark.parametrize("path", [
        "peak_kw_overide",  # typo must not pass silently
        "base_dir",  # the config file's own directory, never read from it
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
        missing = tmp_path / "missing.json"
        config = write_config(tmp_path, network_path=str(missing))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report["network"]["error"].startswith(f"network {missing}: ")
        assert report["stations"] == {"count": 951}

    def test_malformed_run_config_named_and_exits_2(self, tmp_path, caplog):
        config = write_config(tmp_path)
        config.write_text(config.read_text()[:-1])
        with caplog.at_level(logging.ERROR, logger="gridimpact"):
            assert main(["validate", "--config", str(config)]) == 2
        assert caplog.records[-1].getMessage().startswith(
            f"run config {config} is not valid JSON: Expecting ")

    def test_undecodable_run_config_named_and_exits_2(self, tmp_path, caplog):
        config = write_config(tmp_path)
        config.write_bytes(config.read_bytes().replace(b'"steps"', b'"st\xf1ps"'))
        with caplog.at_level(logging.ERROR, logger="gridimpact"):
            assert main(["validate", "--config", str(config)]) == 2
        assert caplog.records[-1].getMessage().startswith(
            f"run config {config}: not valid UTF-8: 'utf-8' codec can't decode byte 0xf1")

    def test_oversized_registry_field_names_row_and_exits_2(self, tmp_path):
        """A field past the CSV reader's 131,072-character limit."""
        registry = tmp_path / "stations.csv"
        registry.write_text("id,name,lat,lon,rated_kw\ns1,A,37.0,-121.0,60\n"
                            f"s2,{'x' * 131_073},37.0,-121.0,60\n")
        config = write_config(tmp_path, stations_path=str(registry))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report["stations"] == {
            "error": f"station registry {registry}: row 3: field larger than field limit (131072)"}
        assert report["network"]["radial"] is True

    def test_network_nested_too_deeply_named_and_exits_2(self, tmp_path):
        net_path = tmp_path / "network.json"
        net_path.write_text("[" * 100_000)
        config = write_config(tmp_path, network_path=str(net_path))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report["network"] == {
            "error": f"network {net_path}: arrays or objects nested too deeply to decode"}
        assert report["stations"] == {"count": 951}

    def test_run_config_nested_too_deeply_named_and_exits_2(self, tmp_path, caplog):
        config = write_config(tmp_path)
        config.write_text('{"scenario": ' + "[" * 100_000)
        with caplog.at_level(logging.ERROR, logger="gridimpact"):
            assert main(["validate", "--config", str(config)]) == 2
        assert caplog.records[-1].getMessage() == (
            f"run config {config}: arrays or objects nested too deeply to decode")

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
        assert report["network"]["error"] == f"network {net_path}: {message}"

    @pytest.mark.parametrize("text,code,registry", [
        ("id,name,lat,lon,rated_kw\ns1,A,91.0,-121.0,60\n", 2,
         {"error": "row 2: station s1: lat 91.0 outside [-90, 90]"}),
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
        if "error" in registry:  # the reader names the file before the row
            registry = {"error": f"station registry {path}: {registry['error']}"}
        assert report["stations"] == registry

    @pytest.mark.parametrize("case", INPUT_FAULTS)
    def test_input_fault_names_file_then_record(self, tmp_path, case):
        """The reader names the file and the record; validate.json files the
        same text under the input's key."""
        key, text, message = INPUT_FAULTS[case]
        path = tmp_path / ("network.json" if key == "network" else "stations.csv")
        path.write_text(text)
        with pytest.raises(SchemaError) as raised:
            (load_network if key == "network" else load_stations)(path)
        assert str(raised.value) == message.format(path=path)
        config = write_config(tmp_path, **{f"{key}_path": str(path)})
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report[key] == {"error": message.format(path=path)}

    def test_validate_logs_each_fault_once_in_the_readers_words(self, tmp_path):
        """On stderr each faulty input is named once, by its reader's message
        alone."""
        network, registry = tmp_path / "network.json", tmp_path / "stations.csv"
        network.write_text(INPUT_FAULTS["bus_range"][1])
        registry.write_text(INPUT_FAULTS["registry_row"][1])
        config = write_config(tmp_path, network_path=str(network), stations_path=str(registry))
        src = Path(gridimpact.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-m", "gridimpact.cli", "validate", "--config",
                               str(config)], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 2
        for case, path in (("bus_range", network), ("registry_row", registry)):
            message = INPUT_FAULTS[case][2].format(path=path)
            assert f"ERROR gridimpact: {message}" in done.stderr.splitlines()
            assert done.stderr.count(str(path)) == 1

    def test_validate_loads_no_numpy(self, tmp_path):
        """In a fresh interpreter without site-packages (``-S``), validate
        passes on feeder40 and imports nothing but the standard library and
        exactly the package modules that read and check a run: this process
        is what the benchmark's ``setup_s`` times."""
        config = write_config(tmp_path)
        script = (
            "import json, sys\n"
            "from gridimpact import cli\n"
            f"code = cli.main(['validate', '--config', {str(config)!r}])\n"
            "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n")
        src = Path(gridimpact.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["code"] == 0
        assert [m for m in result["modules"]
                if m.partition(".")[0] not in sys.stdlib_module_names] == [
            "__main__", "gridimpact", "gridimpact.cli", "gridimpact.config",
            "gridimpact.errors", "gridimpact.netmodel", "gridimpact.stations"]

    def test_inputs_behind_byte_order_marks_pass(self, tmp_path):
        """Both input files behind a UTF-8 byte-order mark validate as the
        plain files do."""
        paths = {}
        for key, fixture in (("network_path", "feeder40.json"),
                             ("stations_path", "stations951.csv")):
            paths[key] = tmp_path / fixture
            paths[key].write_bytes(b"\xef\xbb\xbf" + (FIXTURES / fixture).read_bytes())
        config = write_config(tmp_path, **{key: str(path) for key, path in paths.items()})
        assert main(["validate", "--config", str(config)]) == 0
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report["network"]["buses"] == 40
        assert report["stations"] == {"count": 951}


class TestRunConfig:
    @pytest.mark.parametrize("dt_h, steps", [(1.0, 8_760), (0.25, 35_040), (1 / 12, 105_120)],
                             ids=["1h", "15min", "5min"])
    def test_omitted_steps_is_one_year_at_the_runs_clock(self, tmp_path, dt_h, steps):
        """With no ``steps``, a run studies 365 days of ``dt_h`` steps; a
        ``steps`` that is set is kept."""
        config = write_config(tmp_path, dt_h=dt_h)
        doc = json.loads(config.read_text())
        assert load_run_config(config)[0].study_steps == doc.pop("steps") == 24
        config.write_text(json.dumps(doc))
        assert load_run_config(config)[0].study_steps == steps

    def test_omitted_steps_stays_omitted_through_replace(self, tmp_path):
        """The config keeps ``steps`` as written, so a config derived at
        another ``dt_h`` studies one year at its own clock."""
        config = write_config(tmp_path)
        doc = json.loads(config.read_text())
        del doc["steps"]
        config.write_text(json.dumps(doc))
        loaded = load_run_config(config)[0]
        assert loaded.steps is None
        assert dataclasses.replace(loaded, dt_h=0.25).study_steps == 35_040
        assert dataclasses.replace(loaded, dt_h=2.0).study_steps == 4_380

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

    @pytest.mark.parametrize("overrides,message", [
        ({"stations_path": ""}, "network_path, stations_path and output_dir must be non-empty"),
        ({"steps": 0}, "steps must be >= 1, got 0"),
        ({"steps": None}, "field 'steps' has wrong type: expected an integer, got None"),
        ({"dt_h": 0.7}, "dt_h must be finite, positive and divide 24 h, got 0.7"),
        ({"dt_h": 5.0}, "dt_h must be finite, positive and divide 24 h, got 5.0"),
        ({"dt_h": 48.0}, "dt_h must be finite, positive and divide 24 h, got 48.0"),
        ({"peak_kw_override": -1.0}, "peak_kw_override must be finite and >= 0, got -1.0"),
        ({"ampacity_threshold_a": -1.0},
         "ampacity_threshold_a must be finite and >= 0, got -1.0"),
    ], ids=["empty_path", "steps", "steps_null", "dt_h", "dt_h_5", "dt_h_48", "peak_kw_override",
            "ampacity_threshold_a"])
    def test_run_config_range_fault_names_the_run_config(self, tmp_path, caplog, overrides,
                                                         message):
        """The run config's own range checks are worded as its nested
        records' are: the input first, then the fault."""
        config = write_config(tmp_path, **overrides)
        with pytest.raises(SchemaError) as raised:
            load_run_config(config)
        assert str(raised.value) == f"run config {config}: {message}"
        with caplog.at_level(logging.ERROR, logger="gridimpact"):
            assert main(["validate", "--config", str(config)]) == 2
        assert f"run config {config}: {message}" in caplog.text

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

    def test_base_dir_survives_replace(self, tmp_path, monkeypatch):
        """A loaded config keeps its directory through ``dataclasses.replace``,
        so its relative input paths resolve from any working directory."""
        shutil.copy(FIXTURES / "feeder40.json", tmp_path / "network.json")
        config, digest = load_run_config(write_config(tmp_path, network_path="network.json"))
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        net = PipelineRun(dataclasses.replace(config, steps=1), digest).network
        assert len(net.buses) == 40

    def test_replaced_base_dir_moves_inputs_and_run_dir(self, tmp_path):
        """The input paths and ``output_dir`` resolve by one rule, so a
        config replaced onto another directory reads its inputs there and
        writes its run directory there."""
        study, other = tmp_path / "study", tmp_path / "other"
        for directory, feeder in ((study, "feeder40.json"), (other, "feeder60.json")):
            directory.mkdir()
            shutil.copy(FIXTURES / feeder, directory / "net.json")
        config, digest = load_run_config(write_config(
            study, network_path="net.json", stations_path="stations.csv", output_dir="out"))
        run = PipelineRun(dataclasses.replace(config, base_dir=str(other)), digest)
        assert run.run_dir == other / "out" / f"run-{digest}"
        assert len(run.network.buses) == 60

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

    def test_relative_paths_validate_from_another_working_directory(self, tmp_path,
                                                                    monkeypatch):
        """A config whose paths are all relative, ``output_dir`` included,
        validates from another working directory, writes its run directory
        under its own directory and writes nothing into the working one."""
        study, cwd = tmp_path / "study", tmp_path / "cwd"
        study.mkdir()
        cwd.mkdir()
        for fixture in ("feeder40.json", "stations951.csv"):
            shutil.copy(FIXTURES / fixture, study / fixture)
        config = write_config(study, network_path="feeder40.json",
                              stations_path="stations951.csv", output_dir="out")
        monkeypatch.chdir(cwd)
        assert main(["validate", "--config", "../study/config.json"]) == 0
        run_dir = run_dir_of(config)
        assert run_dir.parent == study / "out"
        assert json.loads((run_dir / "validate.json").read_text())["ok"] is True
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("dt_h", [0.3, 2.0, 24.0])
    def test_any_dt_dividing_the_day_validates(self, tmp_path, dt_h):
        config = write_config(tmp_path, dt_h=dt_h)
        assert main(["validate", "--config", str(config)]) == 0

import dataclasses
import io
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
import oracles
from gridimpact.cli import PipelineRun, load_run_config, main
from gridimpact.config import ScenarioConfig
from gridimpact.errors import SchemaError
from gridimpact.netmodel import load_network
from gridimpact.stations import load_stations

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


def keep_source_bus_only(doc):
    """Edit a network document in place: only the source bus, carrying
    every load, and no lines."""
    source = doc["source"]["bus_id"]
    doc["buses"] = [bus for bus in doc["buses"] if bus["id"] == source]
    doc["lines"] = []
    for load in doc["loads"]:
        load["bus_id"] = source


def add_resistive_spur_to_reactive_feeder(doc):
    """Edit a network document in place: every line at ``resistance_ohm`` 0,
    plus one resistive line from the source to a new bus without loads."""
    for line in doc["lines"]:
        line["resistance_ohm"] = 0.0
    source = next(bus for bus in doc["buses"] if bus["id"] == doc["source"]["bus_id"])
    doc["buses"].append({**source, "id": "spur"})
    doc["lines"].append({**doc["lines"][0], "id": "spur_line", "from_bus": source["id"],
                         "to_bus": "spur", "resistance_ohm": 0.5})


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


# validate's error for a network whose baseline loss is 0
NO_LOSS = "below a line with resistance_ohm > 0: no baseline loss"


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
        assert report["network"]["error"] == (f"network {net_path}: line ?: id 'l,1' must not "
                                              "contain a comma, double quote, CR or LF")
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
        assert report["stations"]["error"] == (f"station registry {bad}: row 2: station ?: "
                                               "id 's,000' must not contain a comma, double "
                                               "quote, CR or LF")
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

    def test_run_config_key_named_twice_exits_2(self, tmp_path):
        """``json.loads`` alone would keep the last ``network_path``."""
        config = write_config(tmp_path)
        config.write_text('{"network_path": "elsewhere.json", ' + config.read_text()[1:])
        with pytest.raises(SchemaError, match=f"run config {re.escape(str(config))}: "
                                              "key 'network_path' appears twice"):
            load_run_config(config)
        assert main(["validate", "--config", str(config)]) == 2
        assert main(["pipeline", "--config", str(config)]) == 2

    def test_network_key_named_twice_exits_2(self, tmp_path):
        """A load written ``{"kw": 1000.0, ..., "kw": ...}`` would solve with
        the last kW under ``json.loads`` alone."""
        net_path = tmp_path / "network.json"
        net_path.write_text((FIXTURES / "feeder40.json").read_text().replace(
            '"kw": ', '"kw": 1000.0, "kw": ', 1))
        config = write_config(tmp_path, network_path=str(net_path))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report["network"]["error"] == (f"network {net_path}: key 'kw' appears twice "
                                              "in the object with id 'ld001'")
        assert main(["pipeline", "--config", str(config)]) == 2

    def test_unreadable_network_path_reported(self, tmp_path):
        missing = tmp_path / "missing.json"
        config = write_config(tmp_path, network_path=str(missing))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report["network"]["error"].startswith(f"network {missing}: ")
        assert report["stations"] == {"count": 951}

    def test_unreadable_registry_path_reported(self, tmp_path):
        missing = tmp_path / "missing.csv"
        config = write_config(tmp_path, stations_path=str(missing))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report["stations"]["error"].startswith(f"station registry {missing}: ")
        assert report["network"]["radial"] is True
        assert main(["pipeline", "--config", str(config)]) == 2

    def test_malformed_run_config_named_and_exits_2(self, tmp_path, caplog):
        config = write_config(tmp_path)
        config.write_text(config.read_text()[:-1])
        with caplog.at_level(logging.ERROR, logger="gridimpact"):
            assert main(["validate", "--config", str(config)]) == 2
        assert caplog.records[-1].getMessage().startswith(
            f"run config {config} is not valid JSON: Expecting ")

    @pytest.mark.parametrize("key,what,fixture,plain,bad,other,checked", [
        ("network", "network", "feeder40.json", b'"lat"', b'"l\xf1t"', "stations",
         {"count": 951}),
        ("stations", "station registry", "stations951.csv", b"Station 1,", b"Estaci\xf3n 1,",
         "network", {"buses": 40, "lines": 39, "loads": 31, "connected": True,
                     "radial": True, "orphan_buses": []}),
    ], ids=["network", "latin1_registry"])
    def test_undecodable_input_named_and_other_input_checked(self, tmp_path, key, what, fixture,
                                                             plain, bad, other, checked):
        """One byte that is not UTF-8 (Latin-1 ñ or ó) in an input file: its
        error in validate.json names the file, and the other input is still
        checked."""
        path = tmp_path / fixture
        path.write_bytes((FIXTURES / fixture).read_bytes().replace(plain, bad, 1))
        config = write_config(tmp_path, **{f"{key}_path": str(path)})
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report[key]["error"].startswith(
            f"{what} {path}: not valid UTF-8: 'utf-8' codec can't decode byte 0x")
        assert report[other] == checked
        assert main(["pipeline", "--config", str(config)]) == 2

    def test_byte_order_marks_are_dropped(self, tmp_path):
        """Copies of the run config and both inputs, each behind a UTF-8
        byte-order mark, validate, land in the plain files' run directory and
        write the same bytes."""
        run_dirs = []
        for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            study = tmp_path / name
            study.mkdir()
            for fixture in ("feeder40.json", "stations951.csv"):
                (study / fixture).write_bytes(bom + (FIXTURES / fixture).read_bytes())
            config = write_config(study, network_path="feeder40.json",
                                  stations_path="stations951.csv", output_dir="out")
            config.write_bytes(bom + config.read_bytes())
            assert main(["validate", "--config", str(config)]) == 0
            assert main(["pipeline", "--config", str(config)]) == 0
            run_dirs.append(run_dir_of(config))
        plain, bom = run_dirs
        assert plain.name == bom.name
        names = sorted(path.name for path in plain.iterdir())
        assert names == sorted(path.name for path in bom.iterdir())
        assert "manifest.json" in names and "FAILED" not in names
        for name in names:
            assert (plain / name).read_bytes() == (bom / name).read_bytes(), name

    def test_unencodable_network_path_named_and_registry_checked(self, tmp_path):
        """A network path holding a lone surrogate, which UTF-8 cannot
        encode into a file name: the network's error names it, the registry
        is still checked, and the pipeline's FAILED marker carries the
        surrogate as its backslash escape."""
        config = write_config(tmp_path, network_path="\ud800.json")
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report["network"]["error"].startswith(f"network {tmp_path / chr(0xd800)}.json: ")
        assert report["stations"] == {"count": 951}
        assert main(["pipeline", "--config", str(config)]) == 2
        marker = (run_dir_of(config) / "FAILED").read_text(encoding="utf-8")
        assert marker.startswith(f"stage: assign\nerror: network {tmp_path}/\\ud800.json: ")

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

    def test_lone_surrogate_id_named_and_exits_2(self, tmp_path):
        """A load id written as the JSON escape of a lone surrogate: UTF-8
        cannot encode it, so the id is refused with its record kind, and the
        fault quotes it escaped: a raw one could not be written to the
        FAILED marker."""
        net_path = tmp_path / "network.json"
        net_path.write_text((FIXTURES / "feeder40.json").read_text().replace(
            '"id": "ld001"', '"id": "\\ud800"', 1))
        config = write_config(tmp_path, network_path=str(net_path))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report["network"] == {"error": f"network {net_path}: load ?: id '\\ud800' must "
                                              "not contain a lone surrogate, which UTF-8 "
                                              "cannot encode"}
        assert report["stations"] == {"count": 951}
        assert main(["pipeline", "--config", str(config)]) == 2
        marker = (run_dir_of(config) / "FAILED").read_text(encoding="utf-8")
        assert marker.endswith(f"error: {report['network']['error']}\n")

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

    @pytest.mark.parametrize("edit,error,baseline", [
        (keep_source_bus_only, NO_LOSS, "loss"),
        (lambda doc: [load.update(kw=0.0) for load in doc["loads"]],
         "network loads sum to 0 kW", "demand"),
        (lambda doc: [line.update(resistance_ohm=0.0) for line in doc["lines"]], NO_LOSS, "loss"),
        (lambda doc: [load.update(bus_id=doc["source"]["bus_id"]) for load in doc["loads"]],
         NO_LOSS, "loss"),
        (add_resistive_spur_to_reactive_feeder, NO_LOSS, "loss"),
    ], ids=["no_lines", "zero_demand", "zero_resistance", "loads_at_source",
            "resistive_line_unloaded"])
    def test_network_without_baseline_exits_2(self, tmp_path, edit, error, baseline):
        """validate refuses a network that the impact stage would refuse:
        its percent changes divide by the baseline demand and loss."""
        doc = json.loads((FIXTURES / "feeder40.json").read_text())
        edit(doc)
        net_path = tmp_path / "network.json"
        net_path.write_text(json.dumps(doc))
        config = write_config(tmp_path, network_path=str(net_path))
        assert main(["validate", "--config", str(config)]) == 2
        report = json.loads((run_dir_of(config) / "validate.json").read_text())
        assert report["ok"] is False
        assert report["network"]["radial"] is True
        assert error in report["network"]["error"]
        assert main(["pipeline", "--config", str(config)]) == 2
        marker = (run_dir_of(config) / "FAILED").read_text()
        assert marker.startswith("stage: impact\n")
        assert f"baseline {baseline} must be > 0 kW, got 0.0" in marker

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

    @pytest.mark.parametrize("miles,truncated", [(25, False), (60, True)])
    def test_truncated_profile_is_reported(self, tmp_path, caplog, miles, truncated):
        """At 60 daily miles a BEV needs 18 kWh, more than 8 h of workplace
        Level 1 charging gives: the run warns with both daily totals and the
        manifest says so."""
        config = write_config(tmp_path, scenario={**SCENARIO, "avg_daily_miles": miles})
        with caplog.at_level(logging.WARNING, logger="gridimpact"):
            assert main(["pipeline", "--config", str(config)]) == 0
        manifest = json.loads((run_dir_of(config) / "manifest.json").read_text())
        assert manifest["profile_truncated"] is truncated
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ([
            "EV energy does not fit its charging windows: "
            "14000.0 kWh/day needed, 13660.0 kWh/day delivered"] if truncated else [])

    def test_demand_delta_equals_assigned_total(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        manifest = json.loads((run_dir_of(config) / "manifest.json").read_text())
        delta = (manifest["summary"]["demand_after_kw"]
                 - manifest["summary"]["demand_before_kw"])
        assert delta == pytest.approx(manifest["assigned_total_kw"], rel=1e-9)
        assert manifest["assigned_total_kw"] == pytest.approx(130_000.0, rel=1e-9)

    def test_ampacity_threshold_keeps_the_lines_rated_above_it(self, tmp_path):
        """At 300 A only the 21 feeder40 lines rated 400 or 600 A keep their
        flow and loss records, the flow histogram counts those alone, the GeoJSON
        styles them as the unfiltered run does and leaves the other 18 lines
        at the default style, and the feeder-wide summary is unchanged."""
        runs = {}
        for threshold in (0.0, 300.0):
            config = write_config(tmp_path, name=f"config-{threshold}.json",
                                  ampacity_threshold_a=threshold)
            assert main(["pipeline", "--config", str(config)]) == 0
            run_dir = run_dir_of(config)
            runs[threshold] = (json.loads((run_dir / "impact_report.json").read_text()),
                               (run_dir / "histogram_flow.csv").read_text(),
                               json.loads((run_dir / "network_styled.geojson").read_text()))
        (report_all, _, geo_all), (report, histogram, geo) = runs[0.0], runs[300.0]
        lines = json.loads((FIXTURES / "feeder40.json").read_text())["lines"]
        rated = {line["id"] for line in lines if line["ampacity_a"] > 300.0}
        assert len(rated) == 21 and len(lines) == 39
        for key in ("records", "loss_records"):
            assert report[key] == [r for r in report_all[key] if r["line_id"] in rated]
        assert report["summary"] == report_all["summary"]
        counts = [int(row.split(",")[2]) for row in histogram.splitlines()[1:]]
        assert counts == [0, 0, 1, 0, 20]
        default = {"line_color": "#808080", "line_width": 1.0, "line_opacity": 0.6,
                   "pct_change": 0.0}
        for feature, unfiltered in zip(geo["features"], geo_all["features"], strict=True):
            props = feature["properties"]
            if feature["id"] in rated:
                assert feature == unfiltered
            else:
                assert {key: props[key] for key in default} == default, feature["id"]

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

    @pytest.mark.parametrize("feeder, steps", [("feeder40", 24), ("feeder40", 8760),
                                               ("random200", 8760)])
    def test_after_series_peaks_at_the_profile_peak_step(self, tmp_path, feeder, steps):
        """The after series' step with the largest ``source_kw``, the
        earliest on a tie, is the manifest's ``profile_peak_index``: the step
        that the impact stage could read from the series in place of its own
        snapshot solve. Read from the written artifacts alone, on the golden
        config and on the benchmark's 200-bus inputs."""
        overrides = {"steps": steps}
        if feeder == "random200":
            from gridimpact.netmodel import serialize_network
            from gridimpact.synth import random_feeder, random_stations

            (tmp_path / "network.json").write_text(
                serialize_network(random_feeder(200, seed=200)), encoding="utf-8")
            stations = random_stations(951, seed=10_000, class_counts=(895, 24, 18, 14))
            (tmp_path / "stations.csv").write_text("id,name,lat,lon,rated_kw\n" + "".join(
                f"{s.id},{s.name},{s.lat},{s.lon},{s.rated_kw}\n" for s in stations))
            overrides.update(network_path="network.json", stations_path="stations.csv",
                             peak_kw_override=2_000.0)
        config = write_config(tmp_path, **overrides)
        assert main(["pipeline", "--config", str(config)]) == 0
        run_dir = run_dir_of(config)
        source_kw = [float(row.split(",")[1]) for row in
                     (run_dir / "after_steps.csv").read_text().splitlines()[1:]]
        assert len(source_kw) == steps
        peak_step = source_kw.index(max(source_kw))
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert peak_step == manifest["profile_peak_index"] == PEAK_INDEX

    def test_qsts_peak_step_matches_after_snapshot(self, tmp_path):
        config_path = write_config(tmp_path)
        config, digest = load_run_config(config_path)
        run = PipelineRun(config, digest)
        power = run.stage_power()
        peak_index = run.stage_profile()["profile_peak_index"]
        oracles.assert_same_state(power["after_series"].step(peak_index), power["after_snapshot"])

    def test_annual_peak_step_matches_after_snapshot_but_for_kvar(self, tmp_path):
        """At 8,760 steps the after snapshot equals the after series' peak
        step in every field but ``line_flow_kvar``, whose bits depend on the
        batch size (``solver._ELIDE_BYTES``). The impact and export stages
        read none of it: fed that step as the after snapshot, both give the
        same results."""
        config, digest = load_run_config(write_config(tmp_path, steps=8760))
        run = PipelineRun(config, digest)
        power = run.stage_power()
        snapshot = power["after_snapshot"]
        step = power["after_series"].step(run.stage_profile()["profile_peak_index"])
        oracles.assert_same_state(
            dataclasses.replace(step, line_flow_kvar=snapshot.line_flow_kvar), snapshot)

        stepped = PipelineRun(config, digest)
        stepped._stages["stage_power"] = {**power, "after_snapshot": step}
        assert stepped.stage_impact() == run.stage_impact()
        assert stepped.stage_export() == run.stage_export()

    @pytest.mark.parametrize("steps", [24, 8760])
    def test_before_snapshot_matches_every_before_step(self, tmp_path, steps):
        """The before series solves the network's own loads at every step,
        so the before snapshot equals each of its steps: bit for bit at 24
        steps, and at 8,760 in every field but ``line_flow_kvar``, whose bits
        depend on the batch size (``solver._ELIDE_BYTES``)."""
        config, digest = load_run_config(write_config(tmp_path, steps=steps))
        power = PipelineRun(config, digest).stage_power()
        snapshot, series = power["before_snapshot"], power["before_series"]
        assert series.steps == steps
        for t in range(steps):
            step = series.step(t)
            if steps == 8760:
                step = dataclasses.replace(step, line_flow_kvar=snapshot.line_flow_kvar)
            oracles.assert_same_state(step, snapshot, t)

    @pytest.mark.parametrize("overrides, peak_beyond_run", [
        ({"steps": PEAK_INDEX}, True),
        ({"steps": PEAK_INDEX + 1}, False),
        ({"scenario": {**SCENARIO, "fleet_size": 0}}, False),
        ({"dt_h": 0.25, "steps": 24}, True),  # the peak is step 36
    ], ids=["peak-beyond-run", "peak-is-last-step", "zero-fleet-override", "quarter-hour"])
    def test_one_kernel_call_per_side_gives_the_snapshots(self, tmp_path, monkeypatch,
                                                          overrides, peak_beyond_run):
        """``gridimpact pipeline`` gives each side's snapshot one kernel call
        of one row, the network's own loads, ahead of that side's series.
        The series solve only the rows some step carries, also when the EV
        peak step lies past the run's end. Each snapshot, and its CSV,
        equals the network's solve on its own."""
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
        assert len(solved_rows) == 4

        run = cli.PipelineRun(*load_run_config(config_path))
        power = run.stage_power()
        peak_index = run.stage_profile()["profile_peak_index"]
        assert (peak_index >= run.config.steps) == peak_beyond_run
        series_rows = [len(power[f"{side}_series"].rows.converged)
                       for side in ("before", "after")]
        # the stage rerun solves the same rows
        assert solved_rows == [1, series_rows[0], 1, series_rows[1]] * 2
        for side in ("before", "after"):
            net, snapshot = power[f"{side}_net"], power[f"{side}_snapshot"]
            oracles.assert_same_state(snapshot, solve_snapshot(net, run.config.solver))
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

    def test_out_flag_overrides_output_dir(self, tmp_path, monkeypatch):
        """``--out`` is a command-line path: a relative one resolves against
        the working directory, not the config's."""
        config = write_config(tmp_path)
        target = tmp_path / "elsewhere"
        assert main(["pipeline", "--config", str(config), "--out", str(target)]) == 0
        assert (run_dir_of(config, str(target)) / "manifest.json").exists()
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["validate", "--config", str(config), "--out", "here"]) == 0
        digest = load_run_config(config, "here")[1]
        assert (cwd / "here" / f"run-{digest}" / "validate.json").exists()
        assert not (tmp_path / "here").exists()

    def test_manifest_is_the_same_from_any_working_directory(self, tmp_path, monkeypatch):
        """Relative input paths resolve against the config's directory, and
        the manifest records them as the config writes them."""
        study = tmp_path / "study"
        study.mkdir()
        shutil.copy(FIXTURES / "feeder40.json", study / "net.json")
        shutil.copy(FIXTURES / "stations951.csv", study / "stations.csv")
        write_config(study, network_path="net.json", stations_path="stations.csv",
                     output_dir="out")
        manifests = []
        for cwd, config in ((tmp_path, "study/config.json"), (study, "config.json")):
            monkeypatch.chdir(cwd)
            assert main(["pipeline", "--config", config]) == 0
            manifests.append(
                (run_dir_of(study / "config.json") / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["network"]["path"] == "net.json"

    def test_solver_failure_marks_stage_and_exits_4(self, tmp_path):
        config = write_config(tmp_path, peak_kw_override=1e9)  # guaranteed collapse
        assert main(["pipeline", "--config", str(config)]) == 4
        marker = run_dir_of(config) / "FAILED"
        assert marker.read_text() == ("stage: power\nerror: voltage collapse at bus b003: "
                                      "|V| = 0.1840 pu < 0.5 pu\n")

    def test_failing_snapshot_stops_its_side_before_the_series(self, tmp_path, monkeypatch):
        """The EV snapshot collapses: the power stage stops before the EV
        series, after three kernel calls of the before snapshot, the before
        series and the after snapshot."""
        from gridimpact.powerflow import kernels

        solved_rows = []
        solve_batch = kernels.solve_batch

        def counting(parent, child, z, s, *args):
            solved_rows.append(s.shape[0])
            return solve_batch(parent, child, z, s, *args)

        config = write_config(tmp_path, peak_kw_override=1e9)  # guaranteed collapse
        monkeypatch.setattr(kernels, "solve_batch", counting)
        assert main(["pipeline", "--config", str(config)]) == 4
        assert solved_rows == [1, 1, 1]  # the before series has one distinct row
        assert (run_dir_of(config) / "FAILED").read_text() == (
            "stage: power\nerror: voltage collapse at bus b003: |V| = 0.1840 pu < 0.5 pu\n")

    def test_unwritable_marker_keeps_the_stage_error(self, tmp_path, caplog):
        """A directory in FAILED's place makes the marker's write fail: the
        power stage's own error still sets the exit code and is logged, and
        the marker's temp file is gone."""
        config = write_config(tmp_path, peak_kw_override=1e9)  # guaranteed collapse
        run_dir = run_dir_of(config)
        (run_dir / "FAILED").mkdir(parents=True)
        with caplog.at_level(logging.ERROR, logger="gridimpact"):
            assert main(["pipeline", "--config", str(config)]) == 4
        collapse = "voltage collapse at bus b003: |V| = 0.1840 pu < 0.5 pu"
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] == [
            f"stage power failed: {collapse}", collapse]
        assert (run_dir / "FAILED").is_dir()
        assert not list(run_dir.glob(".FAILED.*"))

    def test_unencodable_stage_error_still_marks_its_stage(self, tmp_path, monkeypatch):
        """A stage error whose text UTF-8 cannot encode: the FAILED marker
        carries it backslash-escaped, and the stage error sets the exit code."""
        from gridimpact import cli
        from gridimpact.errors import SolverError

        def fail(run):
            raise SolverError("bad \ud800 text")

        monkeypatch.setattr(cli.PipelineRun, "stage_power", fail)
        config = write_config(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 4
        assert (run_dir_of(config) / "FAILED").read_bytes() == (
            b"stage: power\nerror: bad \\ud800 text\n")

    def test_collapsed_snapshot_logs_its_verdict_then_the_stage_error(self, tmp_path, caplog):
        """The EV snapshot, a one-step run, logs its collapse and its count
        of steps that did not converge; the power stage then raises on the
        snapshot's ``collapse_bus``, with its bus and its ``|V|`` as a
        Python float."""
        from gridimpact import cli
        from gridimpact.errors import VoltageCollapseError

        config = write_config(tmp_path, peak_kw_override=1e9)  # guaranteed collapse
        with caplog.at_level(logging.WARNING, logger="gridimpact"):
            assert main(["pipeline", "--config", str(config)]) == 4
        collapse = "voltage collapse at bus b003: |V| = 0.1840 pu < 0.5 pu"
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("gridimpact.powerflow.solver", logging.WARNING,
             "voltage collapse at bus b003 in 1 of 1 steps (first at step 0), "
             "recorded as not converged"),
            ("gridimpact.powerflow.solver", logging.WARNING, "1 of 1 steps did not converge"),
            ("gridimpact", logging.ERROR, f"stage power failed: {collapse}"),
            ("gridimpact", logging.ERROR, collapse)]
        with pytest.raises(VoltageCollapseError) as raised:
            cli.PipelineRun(*load_run_config(config)).stage_power()
        assert (raised.value.bus_id, type(raised.value.v_mag_pu)) == ("b003", float)

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
        """A run config takes the ``dt_h`` that ``config.samples_per_day``
        takes, so only a step that does not divide 24 h is refused."""
        for dt_h in (0.7, 5.0, 48.0):
            config = write_config(tmp_path, f"config-{dt_h}.json", dt_h=dt_h)
            assert main(["pipeline", "--config", str(config)]) == 2, dt_h

    @pytest.mark.parametrize("dt_h, samples", [(0.3, 80), (2.0, 12), (24.0, 1)])
    def test_any_dt_dividing_the_day_runs_and_reruns_byte_identically(self, tmp_path, dt_h,
                                                                       samples):
        config = write_config(tmp_path, dt_h=dt_h, steps=48)
        assert main(["pipeline", "--config", str(config)]) == 0
        run_dir = run_dir_of(config)
        first = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert len(first["profile.csv"].decode().splitlines()) == 1 + samples
        assert main(["pipeline", "--config", str(config)]) == 0
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == first

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
        # a token is read as written, with no trimming or case folding
        ("home_strategy", {"scenario": {**SCENARIO, "home_strategy": " Immediate_Slow "}}),
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

    @pytest.mark.parametrize("overrides,message", [
        ({"stations_path": ""}, "network_path, stations_path and output_dir must be non-empty"),
        ({"steps": 0}, "steps must be >= 1, got 0"),
        ({"dt_h": 0.7}, "dt_h must be finite, positive and divide 24 h, got 0.7"),
        ({"dt_h": 5.0}, "dt_h must be finite, positive and divide 24 h, got 5.0"),
        ({"dt_h": 48.0}, "dt_h must be finite, positive and divide 24 h, got 48.0"),
        ({"peak_kw_override": -1.0}, "peak_kw_override must be finite and >= 0, got -1.0"),
        ({"ampacity_threshold_a": -1.0},
         "ampacity_threshold_a must be finite and >= 0, got -1.0"),
    ], ids=["empty_path", "steps", "dt_h", "dt_h_5", "dt_h_48", "peak_kw_override",
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

    def test_dt_quarter_hour_profile_length(self, tmp_path):
        config = write_config(tmp_path, dt_h=0.25, steps=4)
        assert main(["profile", "--config", str(config)]) == 0
        profile = (run_dir_of(config) / "profile.csv").read_text().strip().split("\n")
        assert len(profile) == 1 + 96

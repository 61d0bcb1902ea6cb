import math
import runpy
from pathlib import Path

import pytest

from gridimpact.netmodel import load_network
from gridimpact.powerflow import solve_snapshot
from gridimpact.stations import load_stations
from gridimpact.synth import random_feeder, random_stations

FIXTURES = Path(__file__).parent / "fixtures"


def test_generator_reproduces_committed_fixtures(tmp_path):
    runpy.run_path(str(FIXTURES / "gen_fixtures.py"))["main"](tmp_path)
    for name in ("feeder40.json", "feeder20.json", "stations951.csv", "feeder60.json",
                 "stations60.csv"):
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_feeder60_registry_can_overload_it():
    """The 12.47 kV study input: its registry's nameplate is almost twice
    the base load, and before any EV the feeder has headroom."""
    net = load_network(FIXTURES / "feeder60.json")
    stations = load_stations(FIXTURES / "stations60.csv")
    assert (len(net.buses), len(net.lines), len(net.loads), len(stations)) == (60, 59, 47, 60)
    assert round(net.total_load_kw(), 1) == 3049.7
    assert round(math.fsum(s.rated_kw for s in stations), 1) == 5722.3
    before = solve_snapshot(net)
    assert before.converged
    ampacity = {line.id: line.ampacity_a for line in net.lines}
    loading = max(current / ampacity[line_id]
                  for line_id, current in zip(before.line_ids, before.line_current_a))
    assert round(100 * loading, 1) == 50.7
    assert round(float(before.v_mag_pu.min()), 4) == 0.9774


@pytest.mark.parametrize("build,message", [
    (lambda: random_feeder(0, seed=1), "n_buses must be >= 1"),
    (lambda: random_stations(5, seed=1, class_counts=(1, 1, 1, 1)),
     "class_counts must sum to n_stations"),
])
def test_synth_size_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()

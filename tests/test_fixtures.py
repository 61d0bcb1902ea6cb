import runpy
from pathlib import Path

import pytest

from gridimpact.synth import random_feeder, random_stations

FIXTURES = Path(__file__).parent / "fixtures"


def test_generator_reproduces_committed_fixtures(tmp_path):
    runpy.run_path(str(FIXTURES / "gen_fixtures.py"))["main"](tmp_path)
    for name in ("feeder40.json", "feeder20.json", "stations951.csv"):
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


@pytest.mark.parametrize("build,message", [
    (lambda: random_feeder(0, seed=1), "n_buses must be >= 1"),
    (lambda: random_stations(5, seed=1, class_counts=(1, 1, 1, 1)),
     "class_counts must sum to n_stations"),
])
def test_synth_size_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()

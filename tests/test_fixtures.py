import runpy
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"


def test_generator_reproduces_committed_fixtures(tmp_path):
    runpy.run_path(str(FIXTURES / "gen_fixtures.py"))["main"](tmp_path)
    for name in ("feeder40.json", "feeder20.json", "stations951.csv"):
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name

import json
from pathlib import Path

import pytest

from gridimpact.netmodel import Bus, Line, LoadPoint, NetworkModel, Source, load_network
from gridimpact.stations import load_stations

FIXTURES = Path(__file__).parent / "fixtures"

# test_cli.py's validate classes inherit their numpy-free cases from this
# module, which pytest would otherwise import without its assert rewriting
pytest.register_assert_rewrite("validate_cases")


@pytest.fixture(scope="session")
def feeder40():
    return load_network(FIXTURES / "feeder40.json")


@pytest.fixture(scope="session")
def feeder20():
    return load_network(FIXTURES / "feeder20.json")


@pytest.fixture(scope="session")
def stations951():
    return load_stations(FIXTURES / "stations951.csv")


@pytest.fixture
def two_bus_net():
    """Source at 1.0 pu, one line of 0.01+0.01j pu, one 0.1+0.05j pu load.

    base_kv = 1 makes ohms equal per-unit; 1 MVA base makes 100 kW = 0.1 pu.
    """
    return NetworkModel(
        buses=(Bus("b1", 37.0, -122.0, 1.0), Bus("b2", 37.001, -122.0, 1.0)),
        lines=(Line("l1", "b1", "b2", 0.01, 0.01, 400.0),),
        loads=(LoadPoint("ld1", "b2", 100.0, 50.0),),
        source=Source("b1", 1.0),
    )


def minimal_network_doc() -> dict:
    return {
        "buses": [
            {"id": "b0", "lat": 37.0, "lon": -122.0, "base_kv": 12.47},
            {"id": "b1", "lat": 37.01, "lon": -122.01, "base_kv": 12.47},
        ],
        "lines": [
            {"id": "l1", "from_bus": "b0", "to_bus": "b1",
             "resistance_ohm": 0.1, "reactance_ohm": 0.2, "ampacity_a": 400.0},
        ],
        "loads": [{"id": "ld1", "bus_id": "b1", "kw": 50.0, "kvar": 10.0}],
        "source": {"bus_id": "b0", "voltage_pu": 1.0},
    }


@pytest.fixture
def minimal_doc():
    return minimal_network_doc()


@pytest.fixture
def minimal_doc_text():
    return json.dumps(minimal_network_doc())

"""Regenerate the bundled fixtures. Run from the repo root:

    python tests/fixtures/gen_fixtures.py [OUT_DIR]

OUT_DIR defaults to this directory. The outputs are committed; this script
exists so their provenance is reproducible. Seeds and parameters must not
change casually, since tests freeze values derived from these exact files.
"""

import sys
from pathlib import Path

from gridimpact.netmodel import serialize_network
from gridimpact.synth import random_feeder, random_stations

HERE = Path(__file__).parent


def main(out_dir: Path = HERE) -> None:
    # 40-bus subtransmission-scale feeder: strong enough to absorb a
    # 130 MW peak-hour EV injection while staying comfortably convergent.
    feeder40 = random_feeder(
        40, seed=40, base_kv=69.0,
        load_kw_range=(500.0, 1500.0),
        resistance_ohm_range=(0.1, 0.4),
        reactance_ohm_range=(0.2, 0.8),
    )
    (out_dir / "feeder40.json").write_text(serialize_network(feeder40) + "\n")

    # 20-bus distribution feeder for solver oracle comparisons.
    feeder20 = random_feeder(20, seed=20, base_kv=12.47, load_kw_range=(10.0, 120.0))
    (out_dir / "feeder20.json").write_text(serialize_network(feeder20) + "\n")

    # 951-station registry with a 895/24/18/14 class census.
    write_registry(out_dir / "stations951.csv",
                   random_stations(951, seed=7, class_counts=(895, 24, 18, 14)))

    # 60-bus distribution feeder with a 60-station registry whose nameplate
    # (5,722.3 kW) can overload it: a study input on which a line or bus
    # reaches its limit within the chargers' ratings.
    feeder60 = random_feeder(60, seed=64, base_kv=12.47)
    (out_dir / "feeder60.json").write_text(serialize_network(feeder60) + "\n")
    write_registry(out_dir / "stations60.csv",
                   random_stations(60, seed=9, class_counts=(40, 10, 6, 4)))


def write_registry(path: Path, stations) -> None:
    rows = ["id,name,lat,lon,rated_kw"]
    rows += [f"{s.id},{s.name},{s.lat},{s.lon},{s.rated_kw}" for s in stations]
    path.write_text("\n".join(rows) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else HERE)

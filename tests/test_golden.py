"""Golden artifacts of the bundled feeder40 + stations951 run.

The rerun test in ``test_cli.py`` compares two runs of the same code; this
one compares a run with sha256 digests recorded from an earlier build, so a
refactor of a stage or a writer that changes a single byte fails here.

The digests were recorded with Python 3.11.7 and numpy 2.4.6. The kvar
columns depend on numpy's FMA path: from 256 KiB (421 steps on 39 lines)
numpy elides a temporary in the line-flow product and fuses the multiply-add
the other way round, so the 8,760-step run covers the long-batch path and the
24-step run the short one. Another numpy may legitimately change those bits.
"""

import hashlib
import json

import pytest

from gridimpact.cli import PipelineRun, load_run_config, main

from test_cli import write_config

# Every artifact except manifest.json, by step count.
GOLDEN_SHA256 = {
    24: {
        "after_lines.csv": "e72f88084f643ce1235a1c5ba4c4a63e2fcb6e83fb8ba4bcdafbaab2b1218de5",
        "after_snapshot.csv": "3c2bf359788e0f1e57b004da0e60a21e5dae4a4c3b114cada69ddc27677f1ff9",
        "after_steps.csv": "2ece12937aee3ce51429843cc4e0ff657b8fa57a04bc385cff7880c313f6867b",
        "assignments.csv": "4fa065e68b163075b97b09a952db89546f22c5d5dfe8b20a2397507c53a9fa8d",
        "before_lines.csv": "715f92647fae4b24fecd96f7590214af247501ebf38084d4f8896123da8a00a5",
        "before_snapshot.csv": "9b57fbc59c5e5bcba59f131868e09d4205514955beb3a9cb0a2971a73251ec8c",
        "before_steps.csv": "92231fee350d8b8565b10bc27852933a89bbd94e31ac5b10f2687f73ab21430f",
        "histogram_flow.csv": "780fa6f5af9d18fdc006f59a4574b9cb8ecedba2bfe4b31ced90968cd3a463de",
        "histogram_loss.csv": "94374d244cd792e2a7231f55e0c9b104951e0a067c92b8a66853b92786b49c59",
        "impact_report.json": "559217d143c34b5032ba983af172cd69bd9beb1f698f43e0a8f50ff4de414ab1",
        "network_styled.geojson": "4441294484ee4e4dce559eaa54ec8153bd28c63b5cea0cdaed5d71ebc53685a7",
        "profile.csv": "dd8e4512a34306bcbac148d85b77d8683289170d8d9a2c52c53cb2120286ed84",
    },
    8760: {
        "after_lines.csv": "ed69644528c8fd41a2e6e5ba0275d22fec16bc54bc02ffe8f231dba0a16bdc56",
        "after_snapshot.csv": "3c2bf359788e0f1e57b004da0e60a21e5dae4a4c3b114cada69ddc27677f1ff9",
        "after_steps.csv": "2988f71e952b379cf210f80b3d52296091a7d28ee59bc2028fe5fde1d5e5fbd4",
        "assignments.csv": "4fa065e68b163075b97b09a952db89546f22c5d5dfe8b20a2397507c53a9fa8d",
        "before_lines.csv": "d6d1aad5e01a127c677bd3594739c2bbace5c7af81ea0cf957026522be6c2ec8",
        "before_snapshot.csv": "9b57fbc59c5e5bcba59f131868e09d4205514955beb3a9cb0a2971a73251ec8c",
        "before_steps.csv": "b90d19c247b1474a511a64c650d164eb81fd03085309a4d09d9c56b8bf19baf5",
        "histogram_flow.csv": "780fa6f5af9d18fdc006f59a4574b9cb8ecedba2bfe4b31ced90968cd3a463de",
        "histogram_loss.csv": "94374d244cd792e2a7231f55e0c9b104951e0a067c92b8a66853b92786b49c59",
        "impact_report.json": "559217d143c34b5032ba983af172cd69bd9beb1f698f43e0a8f50ff4de414ab1",
        "network_styled.geojson": "4441294484ee4e4dce559eaa54ec8153bd28c63b5cea0cdaed5d71ebc53685a7",
        "profile.csv": "dd8e4512a34306bcbac148d85b77d8683289170d8d9a2c52c53cb2120286ed84",
    },
}

# manifest.json without config_hash, network.path and stations.path, which
# depend on where the run lives; qsts.steps is filled in per run.
GOLDEN_MANIFEST = {
    "allocations_kw": {"L1": 115.35048802129548, "L2": 230.70097604259095,
                       "L3": 461.4019520851819, "L4": 922.8039041703638},
    "assigned_total_kw": 130000.0,
    "assignment_count": 951,
    "fleet_size": 1000,
    "histogram_flow": {"counts": [5, 0, 1, 0, 33], "edges": [0.0, 0.05, 10.0, 50.0, 80.0]},
    "histogram_loss": {"counts": [5, 0, 0, 0, 34], "edges": [0.0, 0.05, 10.0, 50.0, 80.0]},
    "network": {"buses": 40, "lines": 39, "loads": 31},
    "peak_kw": 130000.0,
    "peak_source": "override",
    "profile_peak_index": 9,
    "profile_peak_kw": 849.9999999999998,
    "profile_truncated": False,
    "qsts": {"diverged_after": 0, "diverged_before": 0, "dt_h": 1.0, "steps": None},
    "stations": {"census": {"L1": 895, "L2": 24, "L3": 18, "L4": 14}, "count": 951},
    "summary": {"demand_after_kw": 159960.22400000002, "demand_before_kw": 29960.224,
                "demand_pct": 433.90863833327825, "loss_after_kw": 780.2184046818634,
                "loss_before_kw": 32.74621147678785, "loss_pct": 2282.6218957723436},
}


def flatten(doc: dict, prefix: str = "") -> dict:
    """Nested dict as ``{"a.b": value}``."""
    flat = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            flat.update(flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


@pytest.mark.parametrize("steps", sorted(GOLDEN_SHA256))
def test_pipeline_artifacts_match_golden(tmp_path, steps):
    config = write_config(tmp_path, steps=steps)
    assert main(["pipeline", "--config", str(config)]) == 0
    run_dir = PipelineRun(*load_run_config(config)).run_dir

    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in run_dir.iterdir() if p.name != "manifest.json"}
    assert hashes == GOLDEN_SHA256[steps]

    manifest = flatten(json.loads((run_dir / "manifest.json").read_text()))
    for key in ("config_hash", "network.path", "stations.path"):
        manifest.pop(key)
    expected = flatten(GOLDEN_MANIFEST)
    expected["qsts.steps"] = steps
    assert sorted(manifest) == sorted(expected)
    for key, value in expected.items():
        assert manifest[key] == value, key

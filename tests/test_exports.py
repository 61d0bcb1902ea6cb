import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gridimpact

MODULES = sorted(name for _, name, _ in
                 pkgutil.walk_packages(gridimpact.__path__, "gridimpact."))
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", EXPORTING)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(name)
    unresolved = [exported for exported in module.__all__ if not hasattr(module, exported)]
    assert unresolved == []
    defined = {attr for attr, obj in vars(module).items()
               if not attr.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == name}
    assert sorted(defined - set(module.__all__)) == []


# The names the package exports, each from the submodule that defines it.
PACKAGE_NAMES = """
    Assignment assign_stations haversine inject_loads
    GridImpactError SchemaError SolverError TopologyError VoltageCollapseError
    ChargingStrategy Cohort DemandProfile ScenarioConfig Schedule aggregate_profiles
    build_cohorts cohort_profile find_peak export_geojson style_width
    Category ImpactRecord Metric SystemSummary build_records categorize
    filter_by_ampacity pct_change summarize
    Bus Line LoadPoint NetworkModel Source TopologyReport load_network
    parse_network serialize_network validate_radial
    PowerFlowSolution QstsResult SolverConfig run_qsts solve_snapshot total_losses
    CapacityClass EvStation allocate_peak classify load_stations parse_stations
""".split()


def test_package_exports_the_same_names():
    assert sorted(gridimpact.__all__) == sorted(PACKAGE_NAMES)
    assert set(PACKAGE_NAMES) <= set(dir(gridimpact))


@pytest.mark.parametrize("name", PACKAGE_NAMES)
def test_package_name_is_its_defining_modules_object(name):
    value = getattr(gridimpact, name)
    assert value is getattr(importlib.import_module(value.__module__), name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from gridimpact import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PACKAGE_NAMES)


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        gridimpact.no_such_name


def test_bare_import_loads_no_submodule():
    src = Path(gridimpact.__file__).resolve().parents[1]
    script = ("import json, sys, gridimpact\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('gridimpact.'))))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert json.loads(done.stdout) == []


# The benchmark harness wraps these by module attribute and binds the
# arguments of run_qsts and solve_batch by name, so renaming any of them
# breaks only the benchmark run.
BOUND_PARAMETERS = {
    "gridimpact.powerflow.solver.run_qsts": ["net", "shapes", "cfg", "steps", "dt_h", "workers"],
    "gridimpact.powerflow.kernels.solve_batch": ["parent", "child", "z", "s", "v0", "tol",
                                                 "max_iter"],
}
WRAPPED_FUNCTIONS = """
    cli.cmd_pipeline netmodel.load_network netmodel.validate_radial stations.load_stations
    evfleet.build_cohorts evfleet.cohort_profile evfleet.aggregate_profiles evfleet.find_peak
    assign.assign_stations impact.build_records geoexport.export_geojson geoexport.geojson_dumps
    powerflow.solver.solve_snapshot powerflow.solver.qsts_lines_csv
    powerflow.solver.qsts_summary_csv
""".split()


def _resolve(path):
    module, _, attr = path.rpartition(".")
    return getattr(importlib.import_module(module), attr)


@pytest.mark.parametrize("path", sorted(BOUND_PARAMETERS))
def test_benchmark_bound_parameter_names(path):
    assert list(inspect.signature(_resolve(path)).parameters) == BOUND_PARAMETERS[path]


@pytest.mark.parametrize("name", WRAPPED_FUNCTIONS)
def test_benchmark_wrapped_function_exists(name):
    assert inspect.isfunction(_resolve(f"gridimpact.{name}"))


def test_benchmark_wrapped_pipeline_methods_exist():
    from gridimpact.cli import PipelineRun

    stages = ("profile", "allocate", "assign", "power", "impact", "export")
    writers = ("profile", "assignments", "power", "impact", "export", "manifest")
    for name in [f"stage_{s}" for s in stages] + [f"write_{w}" for w in writers]:
        assert inspect.isfunction(PipelineRun.__dict__.get(name)), name


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _benchmark_imports():
    """``(file, module, name)`` for every ``from gridimpact... import name``
    in the benchmark's sources, read with ``ast`` and never run."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and not node.level and (
                    node.module.partition(".")[0] == "gridimpact"):
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def test_benchmark_imports_resolve_in_the_package():
    """No CI step runs ``perfbench/freeze.py``, so a name that the package
    drops would break it unseen: each name the benchmark imports must be an
    attribute or a submodule of a module of this package."""
    imports = _benchmark_imports()
    assert {file for file, _, _ in imports} >= {"freeze.py", "worker.py"}
    package = Path(gridimpact.__file__).resolve().parent
    unresolved = []
    for file, module_name, name in imports:
        module = importlib.import_module(module_name)
        assert Path(module.__file__).resolve().is_relative_to(package), module_name
        if not (hasattr(module, name) or hasattr(module, "__path__")
                and importlib.util.find_spec(f"{module_name}.{name}")):
            unresolved.append(f"{file}: from {module_name} import {name}")
    assert unresolved == []

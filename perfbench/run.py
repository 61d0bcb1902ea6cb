"""gridimpact benchmark: end-to-end and per-layer metrics with a correctness gate.

    python3 perfbench/run.py --workload annual_200 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The package is imported from the checkout's
``src`` in fresh subprocesses, one at a time, each single-threaded.

Workloads (why each exists is in BENCHMARK.json):

- ``annual_200``: ``gridimpact pipeline`` on a 200-bus 12.47 kV feeder,
  8,760 hourly steps; the headline annual study.
- ``sweep_distinct_200``: ``powerflow.kernels.solve_batch`` on the same
  feeder with 8,760 distinct load rows; caching cannot hide the kernel.

``--trace 0`` measures with tracing off for ``--seconds`` and reports the
end-to-end metrics: ``cpu_s`` (median over samples of the CPU seconds,
user plus system, of one ``gridimpact pipeline`` process or of the sweep's
``solve_batch`` call), ``peak_rss_mb`` (median of each sample's
fresh-subprocess peak) and ``setup_s`` (median CPU seconds of several
``gridimpact validate`` processes, or for the sweep of processes that import
the package, load the feeder and call ``solve_snapshot``). Wall times are
printed beside them. On a single-threaded run CPU time equals wall time on
an idle core, but on a shared virtual machine wall time also counts the
time the host takes the core away (steal), measured at up to a fifth of a
run on a 2-vCPU shared VM; CPU time leaves that out. ``--trace 1``
makes one untraced and two traced passes and reports the per-layer metrics
(wall-clock spans) from the first traced pass; the work counts of both
traced passes must agree exactly.

Every pass is checked against ``reference.json``: the sha256 of each
artifact and the fields of ``manifest.json`` (ignoring ``backend`` and input
paths) for the CLI workloads, and the output digest plus sampled rows
against 1-row solves for the sweep. A failed or mismatching pass counts in
``failed``; ``failed / attempted`` is the failed share. The last line of
stdout is the JSON result; host facts are printed on the line before it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import cases
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SETUP_REPEATS = 7
ENV_BACKEND = "GRIDIMPACT_BACKEND"
# Manifest fields that may change without the results changing: the kernel
# backend name and the absolute input paths, which depend on the checkout.
IGNORED_MANIFEST_FIELDS = {"backend", "network.path", "stations.path"}
STAGES = ("profile", "allocate", "assign", "power", "impact", "export")
WRITERS = ("profile", "assignments", "power", "impact", "export", "manifest")
LAYER_SPANS = {
    "netmodel.load_network_s": "netmodel.load_network",
    "netmodel.validate_radial_s": "netmodel.validate_radial",
    "stations.load_stations_s": "stations.load_stations",
    "evfleet.profile_s": "evfleet.profile",
    "assign.assign_stations_s": "assign.assign_stations",
    "impact.build_records_s": "impact.build_records",
    "geoexport.export_geojson_s": "geoexport.export_geojson",
    "geoexport.geojson_dumps_s": "geoexport.geojson_dumps",
    "powerflow.solver.run_qsts_s": "powerflow.solver.run_qsts",
    "powerflow.solver.solve_snapshot_s": "powerflow.solver.solve_snapshot",
    "powerflow.solver.qsts_lines_csv_s": "powerflow.solver.qsts_lines_csv",
    "powerflow.solver.qsts_summary_csv_s": "powerflow.solver.qsts_summary_csv",
    "powerflow.kernels.solve_batch_s": "powerflow.kernels.solve_batch",
}
COUNTS = {
    "powerflow.kernels.calls": "kernel_calls",
    "powerflow.kernels.rows": "kernel_rows",
    "powerflow.kernels.iterations": "kernel_iterations",
    "powerflow.kernels.line_updates": "kernel_line_updates",
    "powerflow.kernels.bytes_moved_computed": "kernel_bytes_moved_computed",
    "powerflow.solver.distinct_rows": "qsts_distinct_rows",
    "cli.bytes_written": "bytes_written",
}


class Report:
    """Attempted and failed passes, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMBA_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(argv: list[str], log: Path, stdout=subprocess.DEVNULL) -> tuple[int, Sample, str]:
    """Run one subprocess to completion; return (exit code, its sample,
    stdout). CPU time and peak RSS come from ``wait4`` on this child alone."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=err, env=child_env(), cwd=ROOT)
        try:
            out = proc.stdout.read() if proc.stdout else b""
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout:
        proc.stdout.close()
    sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    return proc.returncode, sample, out.decode()


def cli_argv(command: str, config: Path) -> list[str]:
    return [sys.executable, "-m", "gridimpact.cli", command, "--config", str(config)]


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def flatten(doc, prefix: str = "") -> dict:
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            out.update(flatten(value, f"{prefix}{key}."))
        return out
    return {prefix[:-1]: doc}


def manifest_fields(manifest: dict) -> dict:
    return {k: v for k, v in flatten(manifest).items() if k not in IGNORED_MANIFEST_FIELDS}


def run_dir_of(config: Path) -> Path:
    found = sorted((config.parent / "out").glob("run-*"))
    if len(found) != 1:
        raise FileNotFoundError(f"expected one run directory, found {len(found)}")
    return found[0]


def snapshot_run_dir(config: Path) -> dict:
    """Hashes, byte total and manifest fields of the run's artifacts."""
    run_dir = run_dir_of(config)
    files = sorted(p for p in run_dir.iterdir() if p.is_file())
    return {
        "artifacts": {p.name: sha256_file(p) for p in files if p.name != "manifest.json"},
        "manifest": manifest_fields(json.loads((run_dir / "manifest.json").read_text())),
        "bytes_written": sum(p.stat().st_size for p in files),
    }


def check_pipeline(config: Path, ref: dict) -> tuple[list[str], int]:
    """Compare the run directory with the frozen reference; every reference
    artifact and manifest field must match, new ones are allowed."""
    try:
        got = snapshot_run_dir(config)
    except (OSError, ValueError) as exc:
        return [f"unreadable run directory: {exc}"], 0
    problems = []
    for name, digest in ref["artifacts"].items():
        if got["artifacts"].get(name) != digest:
            problems.append(f"{name} {'missing' if name not in got['artifacts'] else 'differs'}")
    for field, value in ref["manifest"].items():
        if field not in got["manifest"] or got["manifest"][field] != value:
            problems.append(f"manifest field {field} differs")
    return problems, got["bytes_written"]


def clear_outputs(config: Path) -> None:
    shutil.rmtree(config.parent / "out", ignore_errors=True)


def check_sweep(out: dict, ref: dict) -> list[str]:
    problems = []
    if out["digest"] != ref["digest"]:
        problems.append("output digest differs from reference")
    if out["mismatched_rows"]:
        problems.append(f"rows {out['mismatched_rows']} differ from 1-row solves")
    if not out["all_converged"]:
        problems.append("a row diverged or collapsed")
    return problems


# --- inputs -----------------------------------------------------------------

def prepare(workload: str, index: int, workdir: Path) -> Path:
    """Write the case's inputs; return the CLI config or the sweep network."""
    case = cases.WORKLOADS[workload]
    if is_sweep(workload):
        return cases.write_sweep_network(case, workdir)
    return cases.write_pipeline_inputs(case, index, workdir)


def is_sweep(workload: str) -> bool:
    return isinstance(cases.WORKLOADS[workload], cases.SweepCase)


# --- passes -----------------------------------------------------------------

def pipeline_pass(config: Path, ref: dict, report: Report, log: Path, what: str):
    """One untraced ``gridimpact pipeline`` process."""
    code, sample, _ = run_child(cli_argv("pipeline", config), log)
    problems = [f"exit code {code}"] if code else check_pipeline(config, ref)[0]
    report.record(what, problems)
    clear_outputs(config)
    return sample


def sweep_pass(network: Path, workload: str, index: int, ref: dict, report: Report,
               log: Path, what: str, trace: Path | None = None):
    """One sweep subprocess; its sample times the ``solve_batch`` call alone,
    or the whole subprocess if it crashed."""
    argv = [sys.executable, str(WORKER), "sweep", str(network), workload, str(index)]
    if trace:
        argv += ["--trace", str(trace)]
    code, sample, stdout = run_child(argv, log, stdout=subprocess.PIPE)
    if code:
        report.record(what, [f"exit code {code}"])
        return sample
    out = json.loads(stdout.strip().splitlines()[-1])
    report.record(what, check_sweep(out, ref))
    return Sample(out["wall_s"], out["cpu_s"], sample.peak_rss_mb)


def setup_samples(workload: str, inputs: Path, report: Report, log: Path) -> list[Sample]:
    samples = []
    for i in range(SETUP_REPEATS):
        if is_sweep(workload):
            argv = [sys.executable, str(WORKER), "sweep-setup", str(inputs)]
        else:
            argv = cli_argv("validate", inputs)
        code, sample, _ = run_child(argv, log)
        problems = [f"exit code {code}"] if code else []
        if not code and not is_sweep(workload):
            validated = json.loads((run_dir_of(inputs) / "validate.json").read_text())
            problems += [] if validated.get("ok") else ["validate reported not ok"]
            clear_outputs(inputs)
        report.record(f"setup {i + 1}", problems)
        samples.append(sample)
    return samples


def measure(workload: str, index: int, inputs: Path, ref: dict, seconds: float,
            report: Report, log: Path) -> dict:
    setup = setup_samples(workload, inputs, report, log)
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        what = f"sample {len(samples) + 1}"
        if is_sweep(workload):
            samples.append(sweep_pass(inputs, workload, index, ref, report, log, what))
        else:
            samples.append(pipeline_pass(inputs, ref, report, log, what))
    for name, group in (("timed", samples), ("set-up", setup)):
        print(f"{name} samples: {len(group)}; "
              f"cpu s {[round(s.cpu_s, 4) for s in group]}; "
              f"wall s {[round(s.wall_s, 4) for s in group]}; "
              f"median wall {statistics.median(s.wall_s for s in group)} s")
    return {
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "setup_s": statistics.median(s.cpu_s for s in setup),
    }


def traced(workload: str, index: int, inputs: Path, ref: dict, report: Report,
           log: Path, workdir: Path) -> dict:
    """One untraced pass, then two traced passes whose counts must agree."""
    passes = []
    if is_sweep(workload):
        untraced_wall = sweep_pass(inputs, workload, index, ref, report, log,
                                   "untraced pass").wall_s
        for i in (1, 2):
            trace = workdir / f"trace{i}.json"
            wall = sweep_pass(inputs, workload, index, ref, report, log,
                              f"traced pass {i}", trace).wall_s
            payload = json.loads(trace.read_text()) if trace.exists() else None
            passes.append((wall, payload))
    else:
        untraced_wall = pipeline_pass(inputs, ref, report, log, "untraced pass").wall_s
        for i in (1, 2):
            trace = workdir / f"trace{i}.json"
            argv = [sys.executable, str(WORKER), "pipeline", str(inputs), str(trace)]
            # The speed-up is measured in the second pass, so the first
            # pass's wall time covers the traced pipeline alone.
            code, sample, _ = run_child(argv + (["--speedup"] if i == 2 else []), log)
            payload = json.loads(trace.read_text()) if not code else None
            problems = [f"exit code {code}"] if code or payload["code"] else []
            if not problems:
                problems, payload["counts"]["bytes_written"] = check_pipeline(inputs, ref)
                if not payload.get("parallel_identical", True):
                    problems.append("run_qsts workers=2 differs from workers=1")
            report.record(f"traced pass {i}", problems)
            clear_outputs(inputs)
            passes.append((sample.wall_s, payload))

    (wall, first), (_, second) = passes
    if first is None or second is None:
        return layer_metrics({"spans": [], "counts": {}}, wall, untraced_wall, 0.0)
    mismatched = sorted(k for k in set(first["counts"]) | set(second["counts"])
                        if first["counts"].get(k) != second["counts"].get(k))
    report.record("count repeat", [f"counts differ between traced passes: {mismatched}"]
                  if mismatched else [])
    return layer_metrics(first, wall, untraced_wall, second.get("speedup", 0.0))


def layer_metrics(payload: dict, traced_wall: float, untraced_wall: float,
                  speedup: float) -> dict:
    """Per-layer metrics of one traced pass; layers it did not use read 0."""
    trace = payload["spans"]
    counts = payload["counts"]
    metrics = {name: spans.inclusive_s(trace, span) for name, span in LAYER_SPANS.items()}
    metrics.update({name: int(counts.get(key, 0)) for name, key in COUNTS.items()})

    roots = [i for i, s in enumerate(trace) if s["name"] == "cli.pipeline"]
    top = [s for s in trace if roots and s["parent"] == roots[0]]
    metrics["cli.pipeline_s"] = spans.inclusive_s(trace, "cli.pipeline")
    for kind, names in (("stage", STAGES), ("write", WRITERS)):
        for name in names:
            mine = [s for s in top if s["name"] == f"cli.{kind}_{name}"]
            metrics[f"cli.{kind}_{name}_s"] = float(sum(s["end"] - s["start"] for s in mine))
            metrics[f"cli.rss_after_{kind}_{name}_mb"] = mine[-1]["rss_mb"] if mine else 0.0
    metrics["powerflow.solver.assembly_s"] = spans.self_s(trace, "powerflow.solver.run_qsts")
    line_updates = counts.get("kernel_line_updates", 0)
    metrics["powerflow.kernels.ns_per_line_update"] = (
        metrics["powerflow.kernels.solve_batch_s"] / line_updates * 1e9 if line_updates else 0.0)
    steps = counts.get("qsts_steps", 0)
    metrics["powerflow.solver.distinct_row_share"] = (
        counts.get("qsts_distinct_rows", 0) / steps if steps else 0.0)
    metrics["powerflow.solver.qsts_parallel_speedup"] = speedup
    named = (sum(s["end"] - s["start"] for s in top) if roots
             else metrics["powerflow.kernels.solve_batch_s"])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.named_share"] = named / traced_wall if traced_wall > 0 else 0.0
    return metrics


# --- host and output -------------------------------------------------------------

def host_facts() -> dict:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
        sha = top[1] if Path(top[0]).resolve() == ROOT else "unknown (not a git checkout)"
    except (OSError, subprocess.CalledProcessError, IndexError):
        sha = "unknown (not a git checkout)"
    import numpy
    from gridimpact import powerflow

    backend = powerflow.active_backend() if hasattr(powerflow, "active_backend") else "numpy"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend,
    }


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gridimpact" / "__init__.py").is_file():
        print(f"error: no gridimpact sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in cases.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(cases.WORKLOADS)}", file=sys.stderr)
        return 2
    units = declared_metrics()[args.trace]
    reference = json.loads((HERE / "reference.json").read_text())
    # The outputs are compared bit for bit, and the kernel backends agree
    # only to rounding, so every child runs the backend that was frozen.
    os.environ[ENV_BACKEND] = reference["backend"]
    index = cases.case_index(args.seed)
    ref = reference[args.workload][str(index)]

    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    log = workdir / "stderr.log"
    report = Report()
    try:
        inputs = prepare(args.workload, index, workdir)
        print(f"workload {args.workload}, seed {args.seed} -> case {index}")
        if args.trace:
            values = traced(args.workload, index, inputs, ref, report, log, workdir)
        else:
            values = measure(args.workload, index, inputs, ref, args.seconds, report, log)
        host = host_facts()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    failed = len(report.failures)
    print(f"failed share: {failed}/{report.attempted}")
    print(json.dumps({"host": host}))
    print(json.dumps({"correct": failed == 0, "attempted": report.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Subprocess entry points of the benchmark.

Each measurement runs in a fresh interpreter, so the peak RSS its parent
reads with ``os.wait4`` belongs to that measurement alone. The package is
imported from ``PYTHONPATH``, which ``run.py`` points at the checkout's
``src``.

    worker.py sweep-setup NETWORK
    worker.py sweep NETWORK WORKLOAD CASE [--trace OUT]
    worker.py pipeline CONFIG OUT [--speedup]

``sweep`` prints one JSON line; ``pipeline`` (always traced) writes its spans
and counts to OUT.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import statistics
import sys
import time
from collections import deque

import numpy as np

import cases
import spans

SAMPLE_ROWS = 8
SPEEDUP_ROUNDS = 2


def compile_feeder(net):
    """Kernel arrays of a radial feeder under the solver's conventions:
    BFS line order, impedances and loads per unit of 1 MVA and the source
    bus's kV. Returns (parent, child, z, s_static, v0).

    Built here from the public ``NetworkModel`` rather than taken from the
    solver's private compiled form, so the sweep's inputs stay fixed when
    the solver's internals change; the frozen digest then checks the kernel.
    """
    from gridimpact.netmodel import validate_radial

    if not validate_radial(net).radial:
        raise SystemExit("benchmark feeder is not radial")
    index = {bus.id: i for i, bus in enumerate(net.buses)}
    adjacency: list[list[tuple[int, int]]] = [[] for _ in net.buses]
    for j, line in enumerate(net.lines):
        a, b = index[line.from_bus], index[line.to_bus]
        adjacency[a].append((b, j))
        adjacency[b].append((a, j))
    source = index[net.source.bus_id]
    parent, child, order = [], [], []
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w, j in adjacency[u]:
            if w not in seen:
                seen.add(w)
                parent.append(u)
                child.append(w)
                order.append(j)
                queue.append(w)
    base_kv = net.bus(net.source.bus_id).base_kv
    z_base = base_kv * base_kv
    z = np.array([(net.lines[j].resistance_ohm + 1j * net.lines[j].reactance_ohm) / z_base
                  for j in order], dtype=np.complex128)
    s_static = np.zeros(len(net.buses), dtype=np.complex128)
    for load in net.loads:
        s_static[index[load.bus_id]] += (load.kw + 1j * load.kvar) / 1000.0
    return (np.array(parent, dtype=np.int64), np.array(child, dtype=np.int64), z,
            s_static, net.source.voltage_pu)


def kernel_digest(result) -> str:
    digest = hashlib.sha256()
    for array in result:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def cmd_sweep_setup(args) -> int:
    """The program's own set-up for a solve: import, load the feeder, and
    ``solve_snapshot``, which compiles the feeder and solves one row."""
    from gridimpact.netmodel import load_network
    from gridimpact.powerflow import solve_snapshot

    solve_snapshot(load_network(args.network))
    return 0


def cmd_sweep(args) -> int:
    from gridimpact.netmodel import load_network
    from gridimpact.powerflow import SolverConfig, kernels

    case = cases.WORKLOADS[args.workload]
    parent, child, z, s_static, v0 = compile_feeder(load_network(args.network))
    s = cases.sweep_loads(case, args.case, s_static)
    cfg = SolverConfig()
    solve = kernels.solve_batch
    tracer = spans.Tracer()
    if args.trace:
        solve = tracer.wrap("powerflow.kernels.solve_batch", solve,
                            functools.partial(spans.count_kernel_call, tracer.counts))

    start, start_cpu = time.perf_counter(), time.process_time()
    result = solve(parent, child, z, s, v0, cfg.tol_pu, cfg.max_iter)
    wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu

    # Batch-shape independence: sampled rows must equal 1-row solves bit for bit.
    rows = np.random.default_rng(30_000 + args.case).choice(s.shape[0], SAMPLE_ROWS,
                                                            replace=False)
    mismatched = []
    for t in sorted(int(r) for r in rows):
        single = kernels.solve_batch(parent, child, z, s[t:t + 1], v0, cfg.tol_pu, cfg.max_iter)
        if not all(spans.same(np.asarray(full)[t:t + 1], np.asarray(one))
                   for full, one in zip(result, single)):
            mismatched.append(t)

    out = {"wall_s": wall, "cpu_s": cpu, "digest": kernel_digest(result),
           "mismatched_rows": mismatched,
           "all_converged": bool(np.all(result[3])) and bool(np.all(result[4] < 0))}
    if args.trace:
        tracer.counts["qsts_steps"] = s.shape[0]
        tracer.counts["qsts_distinct_rows"] = spans.distinct_rows(s)
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, handle)
    print(json.dumps(out))
    return 0


def cmd_pipeline(args) -> int:
    """``gridimpact pipeline`` through ``cli.main`` with every layer wrapped."""
    from gridimpact import assign, cli, evfleet, geoexport, impact, netmodel, stations
    from gridimpact.powerflow import kernels, solver

    tracer = spans.Tracer()
    qsts_calls: list[dict] = []

    def on_qsts(arguments, result):
        steps, distinct = spans.qsts_input_rows(arguments)
        tracer.counts["qsts_steps"] += steps
        tracer.counts["qsts_distinct_rows"] += distinct
        qsts_calls.append(arguments)

    with spans.Patches(tracer) as patch:
        patch.function(cli, "cmd_pipeline", "cli.pipeline")
        for stage in ("profile", "allocate", "assign", "power", "impact", "export"):
            patch.method(cli.PipelineRun, f"stage_{stage}", f"cli.stage_{stage}")
        for writer in ("profile", "assignments", "power", "impact", "export", "manifest"):
            patch.method(cli.PipelineRun, f"write_{writer}", f"cli.write_{writer}")
        patch.function(netmodel, "load_network", "netmodel.load_network")
        patch.function(netmodel, "validate_radial", "netmodel.validate_radial")
        patch.function(stations, "load_stations", "stations.load_stations")
        for name in ("build_cohorts", "cohort_profile", "aggregate_profiles", "find_peak"):
            patch.function(evfleet, name, "evfleet.profile")
        patch.function(assign, "assign_stations", "assign.assign_stations")
        patch.function(impact, "build_records", "impact.build_records")
        patch.function(geoexport, "export_geojson", "geoexport.export_geojson")
        patch.function(geoexport, "geojson_dumps", "geoexport.geojson_dumps")
        patch.function(solver, "run_qsts", "powerflow.solver.run_qsts", on_qsts)
        patch.function(solver, "solve_snapshot", "powerflow.solver.solve_snapshot")
        patch.function(solver, "qsts_lines_csv", "powerflow.solver.qsts_lines_csv")
        patch.function(solver, "qsts_summary_csv", "powerflow.solver.qsts_summary_csv")
        patch.function(kernels, "solve_batch", "powerflow.kernels.solve_batch",
                       functools.partial(spans.count_kernel_call, tracer.counts))
        code = cli.main(["pipeline", "--config", args.config])

    payload = {"code": code, "spans": tracer.spans, "counts": tracer.counts}
    if args.speedup and qsts_calls:
        payload.update(qsts_speedup(solver.run_qsts, qsts_calls[-1]))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return 0


def qsts_speedup(run_qsts, arguments: dict) -> dict:
    """Untraced ``run_qsts`` on the pipeline's last series (the EV "after"
    series) with workers=1 against workers=2, alternating which runs first.
    The two results must agree bit for bit."""
    times = {1: [], 2: []}
    identical = True
    for round_ in range(SPEEDUP_ROUNDS):
        results = {}
        for workers in ((1, 2) if round_ % 2 == 0 else (2, 1)):
            start = time.perf_counter()
            results[workers] = run_qsts(**{**arguments, "workers": workers})
            times[workers].append(time.perf_counter() - start)
        identical = identical and spans.same(results[1], results[2])
        del results
    return {"speedup": statistics.median(times[1]) / statistics.median(times[2]),
            "parallel_identical": identical}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    setup = sub.add_parser("sweep-setup")
    setup.add_argument("network")
    sweep = sub.add_parser("sweep")
    sweep.add_argument("network")
    sweep.add_argument("workload")
    sweep.add_argument("case", type=int)
    sweep.add_argument("--trace")
    pipeline = sub.add_parser("pipeline")
    pipeline.add_argument("config")
    pipeline.add_argument("out")
    pipeline.add_argument("--speedup", action="store_true")
    args = parser.parse_args(argv)
    handler = {"sweep-setup": cmd_sweep_setup, "sweep": cmd_sweep,
               "pipeline": cmd_pipeline}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())

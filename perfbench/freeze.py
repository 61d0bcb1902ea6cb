"""Rewrite ``reference.json`` from the program as it is now.

    python3 perfbench/freeze.py

Runs every input case of every workload once and records what ``run.py``
checks: per CLI case the sha256 of every artifact and the fields of
``manifest.json``; per sweep case the kernel output digest. It also records
the kernel backend that produced them, which ``run.py`` then selects, since
the backends agree only to rounding. Freeze only when a change of output is
intended, since the reference is what every later run is compared with.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import cases
import run


def freeze_case(workload: str, index: int) -> dict:
    workdir = run.ROOT / ".bench_build" / "perfbench" / f"freeze-{workload}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    log = workdir / "stderr.log"
    try:
        return record_case(workload, index, workdir, log)
    except SystemExit:
        if log.exists():
            sys.stderr.write(log.read_text()[-4000:])
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record_case(workload: str, index: int, workdir, log) -> dict:
    inputs = run.prepare(workload, index, workdir)
    if run.is_sweep(workload):
        argv = [sys.executable, str(run.WORKER), "sweep", str(inputs), workload, str(index)]
        code, _, stdout = run.run_child(argv, log, stdout=subprocess.PIPE)
        out = json.loads(stdout.strip().splitlines()[-1]) if not code else None
        if code or out["mismatched_rows"] or not out["all_converged"]:
            raise SystemExit(f"{workload} case {index} failed: {out}")
        return {"digest": out["digest"]}
    code, _, _ = run.run_child(run.cli_argv("pipeline", inputs), log)
    if code:
        raise SystemExit(f"{workload} case {index}: pipeline exit code {code}")
    snap = run.snapshot_run_dir(inputs)
    return {"artifacts": snap["artifacts"], "manifest": snap["manifest"]}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from gridimpact.powerflow import active_backend

    reference = {"backend": active_backend()}
    for workload in sorted(cases.WORKLOADS):
        reference[workload] = {}
        for index in range(cases.CASES):
            reference[workload][str(index)] = freeze_case(workload, index)
            print(f"froze {workload} case {index}", flush=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two revisions on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py BASE_REV CHANGE_REV --workload annual_200 \\
        [--pairs 10] [--seconds 30] [--seed 1]

Run from anywhere inside the repository. Each revision is exported with
``git archive`` into a temporary directory of its own, so neither copy holds a
bytecode cache (``src/**/__pycache__``) that an earlier test run left, which
the benchmark's children would read. Each pair runs ``perfbench/run.py
--trace 0`` once in each copy, with ``PYTHONDONTWRITEBYTECODE=1``; the base
runs first in odd pairs and the change first in even ones. A run that does
not read ``"correct": true`` stops the comparison.

For each end-to-end metric the script prints each side's median and
quartiles, the number of pairs the change won (a tie counts for neither) and
whether a gain can be claimed: the change wins at least nine tenths of the
pairs, and the medians differ by more than the base's interquartile range.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def summarize(base: list[float], change: list[float], better: str) -> dict:
    """Summary of one metric over pairs run: ``base[i]`` and ``change[i]``
    are pair ``i``'s readings, and ``better`` is ``"lower"`` or ``"higher"``.
    Quartiles are inclusive, so they lie within each side's readings."""
    if len(base) != len(change) or len(base) < 2:
        raise ValueError(f"need two or more pairs, got {len(base)} base and "
                         f"{len(change)} change readings")
    sign = {"lower": 1, "higher": -1}[better]
    base_q = statistics.quantiles(base, n=4, method="inclusive")
    change_q = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    gap = sign * (base_q[1] - change_q[1])
    return {"base": base_q, "change": change_q, "wins": wins, "pairs": len(base),
            "gain": wins >= 0.9 * len(base) and gap > base_q[2] - base_q[0]}


def export(repo: Path, rev: str, dest: Path) -> None:
    """Write the files of revision ``rev`` of ``repo`` into ``dest``."""
    tar = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``checkout``: its end-to-end values by name."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    if result.get("correct") is not True:
        sys.exit(f"error: run in {checkout} is not correct (exit {done.returncode}):\n"
                 f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev")
    parser.add_argument("change_rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    repo = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                               text=True, check=True).stdout.strip())
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = {"base": Path(tmp, "base"), "change": Path(tmp, "change")}
        for checkout, rev in zip(sides.values(), (args.base_rev, args.change_rev)):
            export(repo, rev, checkout)
        spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        runs = {"base": [], "change": []}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                values = run_once(sides[side], args.workload, args.seed, args.seconds)
                runs[side].append(values)
                print(f"pair {pair + 1}/{args.pairs} {side}: "
                      + ", ".join(f"{name} {value:.6g}" for name, value in values.items()),
                      flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s per run, "
          f"{args.base_rev} -> {args.change_rev}")
    for name, direction in better.items():
        s = summarize([r[name] for r in runs["base"]], [r[name] for r in runs["change"]],
                      direction)
        (b1, b2, b3), (c1, c2, c3) = s["base"], s["change"]
        print(f"{name} ({direction} is better): base {b2:.6g} [{b1:.6g}, {b3:.6g}], "
              f"change {c2:.6g} [{c1:.6g}, {c3:.6g}]; change won {s['wins']}/{s['pairs']} "
              f"pairs; gain rule {'holds' if s['gain'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Radial power-flow solve and the quasi-static time-series driver.

Per-unit conventions: 1 MVA system base; the voltage base is the source
bus's base_kv for the whole network (impedances are expected referred to
that level). Loads are constant-power. Line flows are reported at the
sending (source-side) end; per-line losses are I^2 R at the converged
current.
"""

from __future__ import annotations

import logging
import math
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import TopologyError, VoltageCollapseError
from ..evfleet import DemandProfile
from ..netmodel import NetworkModel, validate_radial
from . import kernels

__all__ = [
    "SolverConfig",
    "PowerFlowSolution",
    "QstsResult",
    "solve_snapshot",
    "run_qsts",
    "total_losses",
    "qsts_lines_csv",
    "qsts_summary_csv",
]

log = logging.getLogger(__name__)

S_BASE_MVA = 1.0


@dataclass(frozen=True)
class SolverConfig:
    tol_pu: float = 1e-6
    max_iter: int = 50

    def __post_init__(self):
        if not self.tol_pu > 0:
            raise ValueError("tol_pu must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True, eq=False)
class PowerFlowSolution:
    """One converged (or flagged) steady state. Arrays follow the id-sorted
    bus/line order of the model they were solved on."""

    bus_ids: tuple[str, ...]
    line_ids: tuple[str, ...]
    v_mag_pu: np.ndarray
    v_ang_rad: np.ndarray
    line_flow_kw: np.ndarray
    line_flow_kvar: np.ndarray
    line_current_a: np.ndarray
    line_loss_kw: np.ndarray
    total_loss_kw: float
    total_load_kw: float
    source_kw: float
    converged: bool
    iterations: int


@dataclass(frozen=True, eq=False)
class QstsResult:
    solutions: tuple[PowerFlowSolution, ...]
    dt_h: float


class _CompiledFeeder:
    """Array form of a validated radial network, BFS-ordered for the sweep."""

    def __init__(self, net: NetworkModel):
        report = validate_radial(net)
        if not report.radial:
            detail = (f"orphan buses: {', '.join(report.orphan_buses)}"
                      if not report.connected else
                      f"{len(net.lines)} lines for {len(net.buses)} buses")
            raise TopologyError(f"network is not radial ({detail})")

        self.bus_ids = tuple(b.id for b in net.buses)
        self.line_ids = tuple(l.id for l in net.lines)
        index = {bid: i for i, bid in enumerate(self.bus_ids)}
        n = len(self.bus_ids)
        m = len(self.line_ids)
        self.source_idx = index[net.source.bus_id]
        self.v0 = net.source.voltage_pu

        base_kv = net.bus(net.source.bus_id).base_kv
        z_base_ohm = base_kv * base_kv / S_BASE_MVA
        self.i_base_a = S_BASE_MVA * 1000.0 / (math.sqrt(3.0) * base_kv)

        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for j, line in enumerate(net.lines):
            a, b = index[line.from_bus], index[line.to_bus]
            adjacency[a].append((b, j))
            adjacency[b].append((a, j))

        parent, child, model_line = [], [], []
        seen = [False] * n
        seen[self.source_idx] = True
        queue = deque([self.source_idx])
        while queue:
            u = queue.popleft()
            for w, j in adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    parent.append(u)
                    child.append(w)
                    model_line.append(j)
                    queue.append(w)

        self.parent = np.array(parent, dtype=np.int64)
        self.child = np.array(child, dtype=np.int64)
        z_model = np.array(
            [(l.resistance_ohm + 1j * l.reactance_ohm) / z_base_ohm for l in net.lines],
            dtype=np.complex128)
        self.z_bfs = z_model[model_line]
        self.r_pu_model = np.array([l.resistance_ohm / z_base_ohm for l in net.lines])
        self.bfs_of_model = np.empty(m, dtype=np.int64)
        self.bfs_of_model[model_line] = np.arange(m, dtype=np.int64)

        self.s_static_pu = np.zeros(n, dtype=np.complex128)
        self.load_bus_idx: dict[str, int] = {}
        self.load_kw: dict[str, float] = {}
        for load in net.loads:
            b = index[load.bus_id]
            self.s_static_pu[b] += (load.kw + 1j * load.kvar) / 1000.0
            self.load_bus_idx[load.id] = b
            self.load_kw[load.id] = load.kw


def _build_solutions(feeder: _CompiledFeeder, s_batch, v, i_line_bfs, iters, converged):
    """Derive reported quantities from kernel outputs.

    Elementwise quantities are vectorized over the batch; scalar reductions
    run per row on 1-D data so a snapshot's totals never depend on how the
    batch was shaped or chunked (required for sequential/parallel identity).
    """
    i_model = i_line_bfs[:, feeder.bfs_of_model]
    s_send_bfs = v[:, feeder.parent] * np.conj(i_line_bfs)
    s_send = s_send_bfs[:, feeder.bfs_of_model]

    flow_kw = s_send.real * 1000.0
    flow_kvar = s_send.imag * 1000.0
    amps = np.abs(i_model) * feeder.i_base_a
    loss_kw = (np.abs(i_model) ** 2) * feeder.r_pu_model * 1000.0

    src_lines = np.flatnonzero(feeder.parent == feeder.source_idx)
    v_mag = np.abs(v)
    v_ang = np.angle(v)

    solutions = []
    for t in range(s_batch.shape[0]):
        total_loss = float(np.sum(loss_kw[t]))
        total_load = float(np.sum(s_batch[t].real)) * 1000.0
        src_flow = float(np.sum(s_send_bfs[t, src_lines].real))
        source_kw = (src_flow + float(s_batch[t, feeder.source_idx].real)) * 1000.0
        solutions.append(PowerFlowSolution(
            bus_ids=feeder.bus_ids,
            line_ids=feeder.line_ids,
            v_mag_pu=v_mag[t],
            v_ang_rad=v_ang[t],
            line_flow_kw=flow_kw[t],
            line_flow_kvar=flow_kvar[t],
            line_current_a=amps[t],
            line_loss_kw=loss_kw[t],
            total_loss_kw=total_loss,
            total_load_kw=total_load,
            source_kw=source_kw,
            converged=bool(converged[t]),
            iterations=int(iters[t]),
        ))
    return solutions


def solve_snapshot(net: NetworkModel, cfg: SolverConfig = SolverConfig()) -> PowerFlowSolution:
    """Solve one steady state by backward/forward sweep.

    Raises TopologyError on non-radial input and VoltageCollapseError if any
    bus dips below 0.5 pu during iteration. A solve that merely fails to
    converge within max_iter returns with ``converged=False``.
    """
    feeder = _CompiledFeeder(net)
    s_batch = feeder.s_static_pu[np.newaxis, :]
    v, i_line, iters, converged, collapse = kernels.solve_batch(
        feeder.parent, feeder.child, feeder.z_bfs, s_batch,
        feeder.v0, cfg.tol_pu, cfg.max_iter)
    if collapse[0] >= 0:
        bus = feeder.bus_ids[collapse[0]]
        raise VoltageCollapseError(bus, float(np.abs(v[0, collapse[0]])))
    return _build_solutions(feeder, s_batch, v, i_line, iters, converged)[0]


def run_qsts(
    net: NetworkModel,
    shapes: Mapping[str, DemandProfile],
    cfg: SolverConfig = SolverConfig(),
    *,
    steps: int | None = None,
    dt_h: float | None = None,
    workers: int = 1,
) -> QstsResult:
    """Time-series of independent snapshot solves.

    Each shaped load's kW is replaced per step by its profile sample (kvar
    held at the nominal value); unshaped loads stay constant. Profiles wrap
    when ``steps`` exceeds their length. Diverged or collapsed steps are
    recorded with ``converged=False`` without aborting the run.

    ``workers`` > 1 splits the timeline into contiguous chunks solved on a
    thread pool; per-step results are identical to a sequential run. The
    pipeline always runs sequentially; the pool stays because the benchmark
    measures ``workers=2`` against ``workers=1`` and acceptance criterion 9
    checks that the merge is identical.
    """
    feeder = _CompiledFeeder(net)

    for load_id in shapes:
        if load_id not in feeder.load_bus_idx:
            raise ValueError(f"unknown load id: {load_id}")
    dts = {p.dt_h for p in shapes.values()}
    if len(dts) > 1:
        raise ValueError(f"mismatched dt_h across shapes: {sorted(dts)}")
    if dts:
        (shape_dt,) = dts
        if dt_h is not None and dt_h != shape_dt:
            raise ValueError(f"requested dt_h={dt_h} but shapes use dt_h={shape_dt}")
        dt_h = shape_dt
    elif dt_h is None:
        raise ValueError("dt_h is required when no loads are shaped")

    if steps is None:
        lengths = {p.values_kw.shape[0] for p in shapes.values()}
        if not lengths:
            raise ValueError("steps is required when no loads are shaped")
        steps = max(lengths)
    if steps < 1:
        raise ValueError("steps must be >= 1")

    n = len(feeder.bus_ids)
    s_batch = np.broadcast_to(feeder.s_static_pu, (steps, n)).copy()
    t_index = np.arange(steps)
    for load_id, profile in shapes.items():
        bus = feeder.load_bus_idx[load_id]
        samples = profile.values_kw[t_index % profile.values_kw.shape[0]]
        s_batch[:, bus] += (samples - feeder.load_kw[load_id]) / 1000.0

    if workers <= 1 or steps == 1:
        v, i_line, iters, converged, collapse = kernels.solve_batch(
            feeder.parent, feeder.child, feeder.z_bfs, s_batch,
            feeder.v0, cfg.tol_pu, cfg.max_iter)
    else:
        bounds = np.linspace(0, steps, min(workers, steps) + 1, dtype=int)
        chunks = [(int(bounds[i]), int(bounds[i + 1])) for i in range(len(bounds) - 1)]

        def solve_chunk(span):
            lo, hi = span
            return kernels.solve_batch(
                feeder.parent, feeder.child, feeder.z_bfs, s_batch[lo:hi],
                feeder.v0, cfg.tol_pu, cfg.max_iter)

        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(solve_chunk, chunks))
        v = np.concatenate([p[0] for p in parts])
        i_line = np.concatenate([p[1] for p in parts])
        iters = np.concatenate([p[2] for p in parts])
        converged = np.concatenate([p[3] for p in parts])
        collapse = np.concatenate([p[4] for p in parts])

    collapsed_steps = np.flatnonzero(collapse >= 0)
    for t in collapsed_steps:
        log.warning("step %d: voltage collapse at bus %s, recorded as not converged",
                    t, feeder.bus_ids[collapse[t]])
    diverged = np.flatnonzero(~converged)
    if diverged.size:
        log.warning("%d of %d steps did not converge", diverged.size, steps)

    solutions = _build_solutions(feeder, s_batch, v, i_line, iters, converged)
    return QstsResult(solutions=tuple(solutions), dt_h=dt_h)


def total_losses(result: QstsResult) -> float:
    """Integrated losses over the run in kWh (sum of step losses times dt).

    Steps that did not converge are excluded and flagged with a warning, so
    the value is then a subtotal over the converged steps.
    """
    skipped = sum(1 for s in result.solutions if not s.converged)
    if skipped:
        warnings.warn(f"{skipped} non-converged steps excluded from loss total",
                      stacklevel=2)
    losses = np.array([s.total_loss_kw for s in result.solutions if s.converged])
    return float(np.sum(losses) * result.dt_h)


def qsts_lines_csv(result: QstsResult) -> str:
    """Per-line per-step export: ``step,line_id,kw,kvar,amps``."""
    rows = ["step,line_id,kw,kvar,amps"]
    for t, sol in enumerate(result.solutions):
        for j, line_id in enumerate(sol.line_ids):
            rows.append(f"{t},{line_id},{float(sol.line_flow_kw[j])!r},"
                        f"{float(sol.line_flow_kvar[j])!r},{float(sol.line_current_a[j])!r}")
    return "\n".join(rows) + "\n"


def qsts_summary_csv(result: QstsResult) -> str:
    """Per-step summary: ``step,source_kw,loss_kw,min_v_pu,max_v_pu``."""
    rows = ["step,source_kw,loss_kw,min_v_pu,max_v_pu"]
    for t, sol in enumerate(result.solutions):
        rows.append(f"{t},{sol.source_kw!r},{sol.total_loss_kw!r},"
                    f"{float(np.min(sol.v_mag_pu))!r},{float(np.max(sol.v_mag_pu))!r}")
    return "\n".join(rows) + "\n"

"""Radial power-flow solve and the quasi-static time-series driver.

Per-unit conventions: an ``S_BASE_MVA`` (1 MVA) system base, whose kW value,
``_CompiledFeeder.kw_per_pu``, converts every kW and kvar to and from per unit;
the voltage base is the source bus's base_kv for the whole network (impedances
referred to that level). Loads are constant-power. Line flows are reported at
the sending (source-side) end; per-line losses are I^2 R at the converged current.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping, TextIO

import numpy as np

from ..config import SolverConfig, common_dt_h, samples_per_day
from ..errors import TopologyError
from ..netmodel import NetworkModel, tree_walk, validate_radial
from . import kernels

if TYPE_CHECKING:
    from ..evfleet import DemandProfile

__all__ = [
    "SolverConfig",
    "PowerFlowSolution",
    "QstsResult",
    "solve_snapshot",
    "run_qsts",
    "total_losses",
    "snapshot_csv",
    "qsts_lines_csv",
    "qsts_summary_csv",
]

log = logging.getLogger(__name__)

S_BASE_MVA = 1.0
# numpy computes ``a * b`` in place into a temporary operand from this size.
_ELIDE_BYTES = 256 * 1024


@dataclass(frozen=True, eq=False)
class PowerFlowSolution:
    """One converged (or flagged) steady state. Arrays follow the id-sorted
    bus/line order of the model they were solved on. ``collapse_bus`` is the
    sweep kernel's collapse verdict: the index into ``bus_ids`` of the first
    bus under ``COLLAPSE_FLOOR_PU`` when the solve stopped, or -1 if none is.

    ``QstsResult.rows`` stacks the steady states of many load rows in one
    instance: each array gains a leading row axis, and each scalar field
    becomes a ``(rows,)`` array.
    """

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
    collapse_bus: int


@dataclass(frozen=True, eq=False)
class QstsResult:
    """A time series stored once per distinct load row.

    ``rows`` stacks the steady states of the distinct load rows, in order of
    first appearance, and step ``t`` solved row ``step_row[t]``.
    """

    rows: PowerFlowSolution
    step_row: np.ndarray
    dt_h: float

    @property
    def steps(self) -> int:
        return int(self.step_row.shape[0])

    def step(self, t: int) -> PowerFlowSolution:
        """The steady state of step ``t``: a view of its row."""
        return _row(self.rows, self.step_row[t])

    @property
    def converged(self) -> np.ndarray:
        """Whether each step converged, shape ``(steps,)``."""
        return self.rows.converged[self.step_row]

    @property
    def row_steps(self) -> np.ndarray:
        """How many steps each row stands for, shape ``(rows,)``: every row
        is some step's."""
        return np.bincount(self.step_row)

    @property
    def diverged_steps(self) -> int:
        """How many steps did not converge, counted by row."""
        return int(self.row_steps[~self.rows.converged].sum())


def _row(rows: PowerFlowSolution, r) -> PowerFlowSolution:
    """Row ``r`` of a row-stacked solution: its arrays as views, its scalar
    fields as Python scalars."""
    return replace(rows, **{name: value[r] if value.ndim > 1 else value[r].item()
                            for name, value in vars(rows).items()
                            if isinstance(value, np.ndarray)})


class _CompiledFeeder:
    """Array form of a validated radial network, in its id-sorted line order.
    Each line runs from ``parent`` to ``child``, away from the source."""

    def __init__(self, net: NetworkModel):
        # Radial exactly when the walk reaches every bus and no line is left
        # out of it; validate_radial only words the error.
        walk = tree_walk(net)
        if not len(walk) == len(net.buses) - 1 == len(net.lines):
            report = validate_radial(net)
            detail = (f"orphan buses: {', '.join(report.orphan_buses)}"
                      if not report.connected else
                      f"{len(net.lines)} lines for {len(net.buses)} buses")
            raise TopologyError(f"network is not radial ({detail})")

        self.bus_ids = tuple(b.id for b in net.buses)
        self.line_ids = tuple(l.id for l in net.lines)
        index = {bid: i for i, bid in enumerate(self.bus_ids)}
        n = len(self.bus_ids)
        self.source_idx = index[net.source.bus_id]
        self.v0 = net.source.voltage_pu

        base_kv = net.bus(net.source.bus_id).base_kv
        z_base_ohm = base_kv * base_kv / S_BASE_MVA
        self.kw_per_pu = 1000.0 * S_BASE_MVA
        self.i_base_a = self.kw_per_pu / (math.sqrt(3.0) * base_kv)

        # The walk reaches each line from its source side: (parent, child, line).
        self.parent, self.child, _ = np.array(
            sorted(walk, key=lambda step: step[2]), dtype=np.int64).reshape(-1, 3).T.copy()
        self.z = np.array(
            [(l.resistance_ohm + 1j * l.reactance_ohm) / z_base_ohm for l in net.lines],
            dtype=np.complex128)
        self.r_pu = self.z.real  # exactly resistance_ohm / z_base_ohm

        self.s_static_pu = np.zeros(n, dtype=np.complex128)
        self.load_bus_idx: dict[str, int] = {}
        self.load_kw: dict[str, float] = {}
        for load in net.loads:
            b = index[load.bus_id]
            self.s_static_pu[b] += (load.kw + 1j * load.kvar) / self.kw_per_pu
            self.load_bus_idx[load.id] = b
            self.load_kw[load.id] = load.kw


def _distinct_rows(s_batch):
    """Key each load row by its bytes: returns (step_row, the first step of
    each distinct row, the distinct rows in order of first appearance), so
    ``s_batch[t]`` is ``rows[step_row[t]]``.

    ``run_qsts`` passes the rows of one profile period: every later step
    repeats one of them, so every distinct row of the run first appears
    there, in the same order. Steps share a row only when their loads are
    bit-identical, so solving a row once gives every one of its steps the
    result of its own solve.
    """
    index: dict[bytes, int] = {}
    first: list[int] = []
    step_row = np.empty(s_batch.shape[0], dtype=np.int64)
    for t, row in enumerate(s_batch):
        key = row.tobytes()
        r = index.get(key)
        if r is None:
            r = index[key] = len(first)
            first.append(t)
        step_row[t] = r
    return step_row, first, s_batch[first]


def _build_solutions(feeder: _CompiledFeeder, s_rows, v, i_line, iters, converged,
                     collapse, steps: int):
    """Derive reported quantities from kernel outputs: the row-stacked
    solution of the rows of ``s_rows``, for a run of ``steps`` steps.

    Every quantity is derived on the distinct rows alone, never on per-step
    copies, and keeps the bits a plain per-step derivation over the whole
    run would give. All but one are elementwise and do not depend on the
    batch shape. The exception is the line-flow product: in the per-step
    form ``v[:, parent] * conj(i)``, once ``conj(i)`` reaches
    ``_ELIDE_BYTES`` (83 steps of 199 lines) numpy elides that temporary and
    computes ``conj(i) * v[:, parent]`` in place into it, and complex
    multiply fuses the imaginary part's multiply-add the other way round when
    its operands swap. So ``line_flow_kvar`` of a snapshot can differ in the
    last bit between a short and a long run, and the product here takes the
    operand order of a run of ``steps`` steps. The loss total is a row sum
    over C-ordered rows, which gives the bits of a sum over each row alone.
    """
    v_mag = np.abs(v)
    v_ang = np.angle(v)

    conj_i = np.conj(i_line)
    if steps * conj_i.shape[1] * conj_i.itemsize >= _ELIDE_BYTES:
        s_send = np.multiply(conj_i, v[:, feeder.parent], out=conj_i)
    else:
        s_send = v[:, feeder.parent] * conj_i

    flow_kw = s_send.real * feeder.kw_per_pu
    flow_kvar = s_send.imag * feeder.kw_per_pu
    i_mag = np.abs(i_line)
    amps = i_mag * feeder.i_base_a
    loss_kw = (i_mag ** 2) * feeder.r_pu * feeder.kw_per_pu

    src_lines = np.flatnonzero(feeder.parent == feeder.source_idx)
    src_flow = np.take(s_send, src_lines, axis=1).real.sum(axis=1)
    return PowerFlowSolution(
        bus_ids=feeder.bus_ids,
        line_ids=feeder.line_ids,
        v_mag_pu=v_mag,
        v_ang_rad=v_ang,
        line_flow_kw=flow_kw,
        line_flow_kvar=flow_kvar,
        line_current_a=amps,
        line_loss_kw=loss_kw,
        total_loss_kw=loss_kw.sum(axis=1),
        total_load_kw=s_rows.real.sum(axis=1) * feeder.kw_per_pu,
        source_kw=(src_flow + s_rows[:, feeder.source_idx].real) * feeder.kw_per_pu,
        converged=converged,
        iterations=iters,
        collapse_bus=collapse,
    )


def solve_snapshot(net: NetworkModel, cfg: SolverConfig = SolverConfig()) -> PowerFlowSolution:
    """Solve one steady state by backward/forward sweep: step 0 of a
    one-step ``run_qsts``. Raises TopologyError on non-radial input; a
    collapse or a divergence returns with ``converged=False``."""
    return run_qsts(net, {}, cfg, steps=1, dt_h=1.0).step(0)


def run_qsts(
    net: NetworkModel,
    shapes: Mapping[str, DemandProfile],
    cfg: SolverConfig = SolverConfig(),
    *,
    steps: int,
    dt_h: float,
    workers: int = 1,
) -> QstsResult:
    """Time-series of ``steps`` independent snapshot solves, ``dt_h`` hours
    apart.

    ``dt_h`` must divide 24 h (``config.samples_per_day``), and every
    profile of ``shapes`` must use it. Each shaped load's kW follows its
    profile, repeated every 24 h (kvar held at the nominal value); unshaped
    loads stay constant. So the load rows repeat once a day: only the rows
    of the first day, or of all ``steps`` if that is shorter, are built, and
    step ``t`` takes row ``t % period``. ``steps`` also sets the operand
    order of the derivation (see ``_build_solutions``).
    Diverged or collapsed steps are recorded with ``converged=False`` without
    aborting the run, and a collapsed step's row names its bus in
    ``collapse_bus``; each collapsed row is logged once, with its bus, its
    step count and its first step.

    Each distinct load row is solved once and every step with the same row
    gets its result, which is the exact form of QSTS time reduction
    (Deboever, Reno et al., SAND2017-5743): a row's solve never depends on
    the rest of the batch, so each step equals its own solve bit for bit.

    The distinct rows are solved in ``workers`` contiguous chunks, one
    kernel call each: one chunk runs in the calling thread, more run on a
    thread pool and are merged, identical to one chunk. The pipeline runs
    one chunk; the pool stays because the benchmark measures ``workers=2``
    against ``workers=1`` and acceptance criterion 9 checks the merge.
    """
    feeder = _CompiledFeeder(net)

    for load_id in shapes:
        if load_id not in feeder.load_bus_idx:
            raise ValueError(f"unknown load id: {load_id}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    period = min(samples_per_day(dt_h), steps)
    common_dt_h((p.dt_h for p in shapes.values()), dt_h, "shapes")

    n = len(feeder.bus_ids)
    s_batch = np.broadcast_to(feeder.s_static_pu, (period, n)).copy()
    for load_id, profile in shapes.items():
        bus = feeder.load_bus_idx[load_id]
        s_batch[:, bus] += (profile.values_kw[:period] - feeder.load_kw[load_id]) / feeder.kw_per_pu

    batch_row, first_step, s_rows = _distinct_rows(s_batch)
    del s_batch
    step_row = batch_row[np.arange(steps) % period]
    rows = s_rows.shape[0]
    bounds = np.linspace(0, rows, min(max(workers, 1), rows) + 1, dtype=int).tolist()

    def solve_chunk(lo, hi):
        return kernels.solve_batch(feeder.parent, feeder.child, feeder.z, s_rows[lo:hi],
                                   feeder.v0, cfg.tol_pu, cfg.max_iter)

    if len(bounds) == 2:
        v, i_line, iters, converged, collapse = solve_chunk(*bounds)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(bounds) - 1) as pool:
            parts = list(pool.map(solve_chunk, bounds[:-1], bounds[1:]))
        v, i_line, iters, converged, collapse = map(np.concatenate, zip(*parts))

    result = QstsResult(rows=_build_solutions(feeder, s_rows, v, i_line, iters, converged,
                                              collapse, steps),
                        step_row=step_row, dt_h=dt_h)
    row_steps = result.row_steps
    for r in np.flatnonzero(collapse >= 0):
        log.warning("voltage collapse at bus %s in %d of %d steps (first at step %d), "
                    "recorded as not converged",
                    feeder.bus_ids[collapse[r]], row_steps[r], steps, first_step[r])
    diverged = result.diverged_steps
    if diverged:
        log.warning("%d of %d steps did not converge", diverged, steps)
    return result


def total_losses(result: QstsResult) -> float:
    """Integrated losses over the run in kWh (sum of step losses times dt).

    Steps that did not converge are excluded and flagged with a warning, so
    the value is then a subtotal over the converged steps.
    """
    converged = result.converged
    skipped = int(np.count_nonzero(~converged))
    if skipped:
        warnings.warn(f"{skipped} non-converged steps excluded from loss total",
                      stacklevel=2)
    step_loss = result.rows.total_loss_kw[result.step_row]
    return float(np.sum(step_loss[converged]) * result.dt_h)


def _write_steps(result: QstsResult, out: TextIO, header: str, pieces: list[list[str]]):
    """Write ``header``, then for each step ``t`` the pieces of its row,
    each prefixed with ``t``: every row is formatted once, not per step, and
    a step costs one join."""
    out.write(header)
    pieces = [["", *row] for row in pieces]  # the join puts t before each piece
    for t, r in enumerate(result.step_row.tolist()):
        out.write(str(t).join(pieces[r]))


def _line_rows(line_ids: tuple[str, ...], *columns: np.ndarray) -> list[str]:
    """``line_id`` and then the per-line ``columns``, for each line; floats
    as their ``repr``, without a line end."""
    return [",".join([line_id, *map(repr, values)])
            for line_id, *values in zip(line_ids, *(c.tolist() for c in columns))]


def snapshot_csv(solution: PowerFlowSolution, out: TextIO) -> None:
    """One steady state to ``out``: ``line_id,kw,kvar,amps,loss_kw``."""
    out.write("line_id,kw,kvar,amps,loss_kw\n")
    out.writelines(row + "\n" for row in _line_rows(
        solution.line_ids, solution.line_flow_kw, solution.line_flow_kvar,
        solution.line_current_a, solution.line_loss_kw))


def qsts_lines_csv(result: QstsResult, out: TextIO) -> None:
    """Per-line per-step export to ``out``: ``step,line_id,kw,kvar,amps``."""
    rows = result.rows
    pieces = [["," + row + "\n" for row in _line_rows(rows.line_ids, *columns)]
              for columns in zip(rows.line_flow_kw, rows.line_flow_kvar, rows.line_current_a)]
    _write_steps(result, out, "step,line_id,kw,kvar,amps\n", pieces)


def qsts_summary_csv(result: QstsResult, out: TextIO) -> None:
    """Per-step summary to ``out``: ``step,source_kw,loss_kw,min_v_pu,max_v_pu``."""
    rows = result.rows
    pieces = [[f",{source!r},{loss!r},{low!r},{high!r}\n"]
              for source, loss, low, high in zip(
                  rows.source_kw.tolist(), rows.total_loss_kw.tolist(),
                  rows.v_mag_pu.min(axis=1).tolist(), rows.v_mag_pu.max(axis=1).tolist())]
    _write_steps(result, out, "step,source_kw,loss_kw,min_v_pu,max_v_pu\n", pieces)

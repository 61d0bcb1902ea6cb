"""Independent reference computations used to check the package.

The physics oracles share no code with the package: the power-flow oracle
is a dense Newton solve on the polar mismatch equations with a numeric
Jacobian, the two-bus case is the closed-form biquadratic, the scalar sweep
solves one snapshot with plain per-line loops, and graph checks use a plain
visited-set traversal. Shared per-unit conventions (1 MVA base, source-bus
voltage base, 0.5 pu collapse floor) are contract, not implementation.

The per-line sweep (``per_line_sweep``) is the plain form of the package's
batched kernel: the same ladder iteration with one numpy call per line per
pass, which the level-scheduled kernel must equal bit for bit.

The plain QSTS reference (``qsts_per_step`` and its two CSV writers) checks
the layers above the sweep: it solves every step in one batch with the
package's kernel, derives one solution object per step and formats every
step's rows, with no dedup and no streaming. It hands the kernel the lines
in the breadth-first order of ``netmodel.tree_walk``, where the package
keeps the network's own line order, and gathers every per-line result back
into that order.

``assert_same_state`` is the one bitwise comparison of two steady states
that the tests use.

``charging_window_per_strategy`` resolves a cohort's charging window with
one branch per strategy, each computing its own full-rate window; the
package's single full-rate window must equal it bit for bit.
``cohort_profile_two_segments`` puts that window on the sample grid by
splitting a window that runs past midnight into two segments, where the
package credits one overlap formula at shifts of 0 h and 24 h.

``injection_targets`` and ``inject_loads_two_pass`` resolve each bus's target
load in one function and patch the model in another, which calls the first
again; the package's single ``inject_loads`` must give the same model and
added-kW map bit for bit, and raise the same errors.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np


def two_bus_closed_form(vs: float, r: float, x: float, p: float, q: float):
    """High-voltage root of the two-bus load-flow biquadratic, in per unit.

    Returns (|V2|, line loss). All arguments per unit on the same base.
    """
    z2 = r * r + x * x
    b = 2.0 * (p * r + q * x) - vs * vs
    disc = b * b - 4.0 * z2 * (p * p + q * q)
    u = (-b + math.sqrt(disc)) / 2.0
    i2 = (p * p + q * q) / u
    return math.sqrt(u), i2 * r


def _ybus_and_injections(net):
    """Dense admittance matrix and specified injections, model bus order."""
    bus_ids = [b.id for b in net.buses]
    index = {bid: i for i, bid in enumerate(bus_ids)}
    n = len(bus_ids)
    base_kv = net.bus(net.source.bus_id).base_kv
    z_base = base_kv * base_kv  # 1 MVA system base

    ybus = np.zeros((n, n), dtype=complex)
    for line in net.lines:
        a, b = index[line.from_bus], index[line.to_bus]
        y = 1.0 / ((line.resistance_ohm + 1j * line.reactance_ohm) / z_base)
        ybus[a, a] += y
        ybus[b, b] += y
        ybus[a, b] -= y
        ybus[b, a] -= y

    s_spec = np.zeros(n, dtype=complex)
    for load in net.loads:
        s_spec[index[load.bus_id]] -= (load.kw + 1j * load.kvar) / 1000.0
    return bus_ids, index, ybus, s_spec


def newton_solve(net, tol: float = 1e-10, max_iter: int = 60):
    """Full Newton power flow with a central-difference Jacobian.

    Returns dict bus_id -> complex voltage (pu). Raises on non-convergence.
    """
    bus_ids, index, ybus, s_spec = _ybus_and_injections(net)
    n = len(bus_ids)
    slack = index[net.source.bus_id]
    vs = net.source.voltage_pu
    pq = [i for i in range(n) if i != slack]

    def mismatch(state):
        theta = np.zeros(n)
        vm = np.full(n, vs)
        theta[pq] = state[:len(pq)]
        vm[pq] = state[len(pq):]
        v = vm * np.exp(1j * theta)
        mis = v * np.conj(ybus @ v) - s_spec
        return np.concatenate([mis.real[pq], mis.imag[pq]])

    state = np.concatenate([np.zeros(len(pq)), np.full(len(pq), vs)])
    for _ in range(max_iter):
        f = mismatch(state)
        if np.max(np.abs(f)) < tol:
            break
        jac = np.empty((f.size, state.size))
        eps = 1e-7
        for k in range(state.size):
            hi = state.copy()
            lo = state.copy()
            hi[k] += eps
            lo[k] -= eps
            jac[:, k] = (mismatch(hi) - mismatch(lo)) / (2.0 * eps)
        state = state + np.linalg.solve(jac, -f)
    else:
        raise RuntimeError("newton oracle did not converge")

    theta = np.zeros(n)
    vm = np.full(n, vs)
    theta[pq] = state[:len(pq)]
    vm[pq] = state[len(pq):]
    v = vm * np.exp(1j * theta)
    return {bid: v[index[bid]] for bid in bus_ids}


def scalar_sweep(parent, child, z, s, v, i_line, tol, max_iter, collapse_floor_pu=0.5):
    """One snapshot of the backward/forward sweep with scalar per-line loops.

    Arguments follow ``powerflow.kernels.solve_batch`` for a single row:
    BFS-ordered ``parent``/``child`` bus indices and per-unit impedance ``z``
    of each line, per-unit bus loads ``s``. Iterates backward current
    accumulation / forward voltage update until the largest voltage change
    drops below ``tol``. Mutates ``v`` and ``i_line`` in place; returns
    (iterations, converged, collapse_bus_index).
    """
    n = s.shape[0]
    m = parent.shape[0]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        i_acc = np.conj(s / v)
        for k in range(m - 1, -1, -1):
            i_line[k] = i_acc[child[k]]
            i_acc[parent[k]] += i_line[k]
        dv = 0.0
        for k in range(m):
            v_new = v[parent[k]] - z[k] * i_line[k]
            delta = abs(v_new - v[child[k]])
            if delta > dv:
                dv = delta
            v[child[k]] = v_new
        for i in range(n):
            if abs(v[i]) < collapse_floor_pu:
                return iterations, False, i
        if dv < tol:
            return iterations, True, -1
    return iterations, False, -1


def per_line_sweep(parent, child, z, s, v0, tol, max_iter, collapse_floor_pu=0.5):
    """The batched sweep with one numpy call per line per pass.

    Arguments and results follow ``powerflow.kernels.solve_batch``, whose
    level-scheduled sweep must equal this loop bit for bit: the backward
    pass visits the lines from last to first, so each parent sums its
    children's currents in descending line order, and the forward pass
    visits them from first to last.
    """
    batch, n = s.shape
    m = parent.shape[0]
    v = np.full((batch, n), complex(v0), dtype=np.complex128)
    i_line = np.zeros((batch, m), dtype=np.complex128)
    iters = np.zeros(batch, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)
    collapse = np.full(batch, -1, dtype=np.int64)
    if m == 0:
        iters[:] = 1
        converged[:] = True
        return v, i_line, iters, converged, collapse

    active = np.arange(batch)
    while active.size:
        va = v[active]
        ia = i_line[active]
        i_acc = np.conj(s[active] / va)
        for k in range(m - 1, -1, -1):
            ia[:, k] = i_acc[:, child[k]]
            i_acc[:, parent[k]] += ia[:, k]
        dv = np.zeros(active.size)
        for k in range(m):
            v_new = va[:, parent[k]] - z[k] * ia[:, k]
            np.maximum(dv, np.abs(v_new - va[:, child[k]]), out=dv)
            va[:, child[k]] = v_new
        v[active] = va
        i_line[active] = ia
        iters[active] += 1

        low = np.abs(va) < collapse_floor_pu
        collapsed = low.any(axis=1)
        collapse[active[collapsed]] = np.argmax(low, axis=1)[collapsed]
        done_ok = ~collapsed & (dv < tol)
        converged[active[done_ok]] = True
        exhausted = iters[active] >= max_iter
        active = active[~(collapsed | done_ok | exhausted)]
    return v, i_line, iters, converged, collapse


def reachable_from(net, start_id: str) -> set[str]:
    """Plain visited-set traversal over the undirected line graph."""
    neighbors: dict[str, set[str]] = {b.id: set() for b in net.buses}
    for line in net.lines:
        neighbors[line.from_bus].add(line.to_bus)
        neighbors[line.to_bus].add(line.from_bus)
    seen = set()
    stack = [start_id]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(neighbors[node] - seen)
    return seen


def is_tree(net) -> bool:
    return (len(net.lines) == len(net.buses) - 1
            and reachable_from(net, net.source.bus_id) == {b.id for b in net.buses})


def qsts_per_step(net, shapes, cfg, *, steps: int, dt_h: float):
    """Every step of a QSTS run solved and derived on its own row: returns
    one ``PowerFlowSolution`` per step. Load rows follow ``run_qsts``: each
    shaped load's kW is its profile sample (wrapping), kvar stays nominal."""
    from gridimpact.netmodel import tree_walk
    from gridimpact.powerflow import kernels
    from gridimpact.powerflow.solver import PowerFlowSolution, _CompiledFeeder

    feeder = _CompiledFeeder(net)
    n = len(feeder.bus_ids)
    s_batch = np.broadcast_to(feeder.s_static_pu, (steps, n)).copy()
    t_index = np.arange(steps)
    for load_id, profile in shapes.items():
        bus = feeder.load_bus_idx[load_id]
        samples = profile.values_kw[t_index % profile.values_kw.shape[0]]
        s_batch[:, bus] += (samples - feeder.load_kw[load_id]) / 1000.0
    # Walk line k is the network's line line_of[k]; the line into a bus
    # comes before the lines out of it.
    parent_bfs, child_bfs, line_of = np.array(tree_walk(net), dtype=np.int64).reshape(-1, 3).T
    v, i_line_bfs, iters, converged, collapse = kernels.solve_batch(
        parent_bfs, child_bfs, feeder.z[line_of], s_batch, feeder.v0, cfg.tol_pu, cfg.max_iter)

    bfs_of_model = np.empty_like(line_of)
    bfs_of_model[line_of] = np.arange(line_of.size)
    i_model = i_line_bfs[:, bfs_of_model]
    s_send_bfs = v[:, parent_bfs] * np.conj(i_line_bfs)
    s_send = s_send_bfs[:, bfs_of_model]
    flow_kw = s_send.real * 1000.0
    flow_kvar = s_send.imag * 1000.0
    amps = np.abs(i_model) * feeder.i_base_a
    loss_kw = (np.abs(i_model) ** 2) * feeder.r_pu * 1000.0
    src_lines = np.flatnonzero(parent_bfs == feeder.source_idx)
    v_mag = np.abs(v)
    v_ang = np.angle(v)

    solutions = []
    for t in range(steps):
        total_loss = float(np.sum(loss_kw[t]))
        total_load = float(np.sum(s_batch[t].real)) * 1000.0
        src_flow = float(np.sum(s_send_bfs[t, src_lines].real))
        source_kw = (src_flow + float(s_batch[t, feeder.source_idx].real)) * 1000.0
        solutions.append(PowerFlowSolution(
            bus_ids=feeder.bus_ids, line_ids=feeder.line_ids,
            v_mag_pu=v_mag[t], v_ang_rad=v_ang[t],
            line_flow_kw=flow_kw[t], line_flow_kvar=flow_kvar[t],
            line_current_a=amps[t], line_loss_kw=loss_kw[t],
            total_loss_kw=total_loss, total_load_kw=total_load, source_kw=source_kw,
            converged=bool(converged[t]), iterations=int(iters[t]),
            collapse_bus=int(collapse[t])))
    return solutions


def assert_same_state(got, want, *where):
    """Every field of two steady states, bit for bit: arrays by dtype, shape
    and bytes, floats by type and float64 bits, anything else by type and
    ``==``. A failure names the field after ``where``."""
    for field in fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), \
                (*where, field.name)
        elif isinstance(b, float):
            assert type(a) is type(b) and \
                np.float64(a).tobytes() == np.float64(b).tobytes(), (*where, field.name)
        else:
            assert type(a) is type(b) and a == b, (*where, field.name)


def qsts_total_losses(solutions, dt_h: float) -> float:
    """Integrated losses in kWh over the converged steps."""
    losses = np.array([s.total_loss_kw for s in solutions if s.converged])
    return float(np.sum(losses) * dt_h)


def qsts_lines_csv(solutions) -> str:
    """``step,line_id,kw,kvar,amps`` with every step's rows formatted."""
    rows = ["step,line_id,kw,kvar,amps"]
    for t, sol in enumerate(solutions):
        for j, line_id in enumerate(sol.line_ids):
            rows.append(f"{t},{line_id},{float(sol.line_flow_kw[j])!r},"
                        f"{float(sol.line_flow_kvar[j])!r},{float(sol.line_current_a[j])!r}")
    return "\n".join(rows) + "\n"


def qsts_summary_csv(solutions) -> str:
    """``step,source_kw,loss_kw,min_v_pu,max_v_pu`` with every step formatted."""
    rows = ["step,source_kw,loss_kw,min_v_pu,max_v_pu"]
    for t, sol in enumerate(solutions):
        rows.append(f"{t},{sol.source_kw!r},{sol.total_loss_kw!r},"
                    f"{float(np.min(sol.v_mag_pu))!r},{float(np.max(sol.v_mag_pu))!r}")
    return "\n".join(rows) + "\n"


def charging_window_per_strategy(c):
    """(start_h, duration_h, rate_kw, truncated) of one vehicle of cohort
    ``c``, one branch per charging strategy."""
    dwell = (c.depart_h - c.arrive_h) % 24.0
    energy = c.energy_need_kwh
    rate = c.max_rate_kw
    strategy = c.strategy.value

    if strategy == "immediate_slow":
        even = energy / dwell
        if even <= rate:
            return c.arrive_h, dwell, even, False
        # even spread is infeasible at this rate: fall back to full rate on arrival
        deliverable = min(energy, rate * dwell)
        return c.arrive_h, deliverable / rate, rate, deliverable < energy

    if strategy == "immediate_fast":
        deliverable = min(energy, rate * dwell)
        return c.arrive_h, deliverable / rate, rate, deliverable < energy

    if strategy == "delayed_finish_by_departure":
        deliverable = min(energy, rate * dwell)
        duration = deliverable / rate
        return (c.depart_h - duration) % 24.0, duration, rate, deliverable < energy

    assert strategy == "delayed_start_midnight", strategy
    # delayed start at midnight: the vehicle must be parked at 00:00
    midnight_parked = c.arrive_h > c.depart_h or c.arrive_h == 0.0
    available = c.depart_h if midnight_parked else 0.0
    deliverable = min(energy, rate * available)
    return 0.0, deliverable / rate, rate, deliverable < energy


def cohort_profile_two_segments(c, dt_h: float):
    """(values_kw, delivered kWh, truncated) of cohort ``c`` at step ``dt_h``: its
    window, split at midnight into at most two segments, each credited to the
    samples it overlaps. An empty window credits nothing."""
    start, duration, rate, truncated = charging_window_per_strategy(c)
    samples = int(round(24.0 / dt_h))
    edges = np.arange(samples + 1, dtype=np.float64) * dt_h
    values = np.zeros(samples, dtype=np.float64)
    end = start + duration
    if duration == 0:
        segments = []
    elif end <= 24.0:
        segments = [(start, end)]
    else:
        segments = [(start, 24.0), (0.0, end - 24.0)]
    for seg_start, seg_end in segments:
        overlap = np.minimum(edges[1:], seg_end) - np.maximum(edges[:-1], seg_start)
        np.maximum(overlap, 0.0, out=overlap)
        values += overlap * (rate / dt_h)
    values *= c.count
    return values, c.count * duration * rate, truncated


def injection_targets(net, assignments) -> dict[str, tuple[str, float, float]]:
    """``bus_id -> (load_id, existing_kw, added_kw)``: each bus's assignment
    kW, summed in assignment order, lands on its load with the smallest id;
    zero sums are omitted."""
    first_load_at = {}
    for load in net.loads:  # loads are id-sorted, so first occurrence wins
        first_load_at.setdefault(load.bus_id, load)

    known_buses = {b.id for b in net.buses}
    added_kw: dict[str, float] = {}
    for assignment in assignments:
        if assignment.bus_id not in known_buses:
            raise ValueError(f"unknown bus id: {assignment.bus_id}")
        if assignment.bus_id not in first_load_at:
            raise ValueError(f"bus {assignment.bus_id} carries no load to take station kW")
        added_kw[assignment.bus_id] = added_kw.get(assignment.bus_id, 0.0) + assignment.assigned_kw

    return {bus_id: (first_load_at[bus_id].id, first_load_at[bus_id].kw, extra)
            for bus_id, extra in sorted(added_kw.items()) if extra != 0.0}


def inject_loads_two_pass(net, assignments):
    """The model with each target load's kW raised by its bus's added kW, or
    ``net`` itself when nothing lands."""
    targets = injection_targets(net, assignments)
    if not targets:
        return net
    patched = {load_id: (base + extra) for load_id, base, extra in targets.values()}
    new_loads = [replace(load, kw=patched[load.id]) if load.id in patched else load
                 for load in net.loads]
    return type(net)(buses=net.buses, lines=net.lines, loads=tuple(new_loads),
                     source=net.source)

"""Independent reference computations used to check the package.

Nothing here shares code with the package: the power-flow oracle is a dense
Newton solve on the polar mismatch equations with a numeric Jacobian, the
two-bus case is the closed-form biquadratic, the scalar sweep solves one
snapshot with plain per-line loops, and graph checks use a plain visited-set
traversal. Shared per-unit conventions (1 MVA base, source-bus voltage base,
0.5 pu collapse floor) are contract, not implementation.
"""

from __future__ import annotations

import math

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

"""Backward/forward sweep kernel: one batched numpy implementation.

The ladder method (Shirmohammadi et al., IEEE TPWRS 1988): a backward pass
accumulates branch currents from the leaves to the source, a forward pass
updates bus voltages from the source outwards, repeated until the largest
voltage change drops below ``tol``. A whole batch of snapshots is solved with
vectorized operations. Every arithmetic step is elementwise per snapshot and
finished rows leave the active set, so the result of a snapshot never
depends on which other snapshots share its batch. The tests check the
kernel against a scalar per-snapshot sweep (``tests/oracles.scalar_sweep``).

Array conventions (all BFS-ordered so a line's parent bus is updated before
its children): ``parent[k]``/``child[k]`` are bus indices of line k, ``z[k]``
its per-unit impedance, ``s`` the (batch, n_bus) per-unit complex bus loads.
"""

from __future__ import annotations

import numpy as np

COLLAPSE_FLOOR_PU = 0.5


def active_backend() -> str:
    """Name of the sweep kernel: always ``"numpy"``, the only one.

    Kept because the benchmark's freeze script records it in its reference.
    """
    return "numpy"


def _solve_batch_numpy(parent, child, z, s, v0, tol, max_iter):
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

        low = np.abs(va) < COLLAPSE_FLOOR_PU
        collapsed = low.any(axis=1)
        collapse[active[collapsed]] = np.argmax(low, axis=1)[collapsed]
        done_ok = ~collapsed & (dv < tol)
        converged[active[done_ok]] = True
        exhausted = iters[active] >= max_iter
        active = active[~(collapsed | done_ok | exhausted)]
    return v, i_line, iters, converged, collapse


def solve_batch(parent, child, z, s, v0, tol, max_iter):
    """Solve a batch of snapshots.

    Returns (v, i_line, iterations, converged, collapse_bus) where collapse
    is the first bus index whose voltage fell below 0.5 pu, or -1.
    """
    parent = np.ascontiguousarray(parent, dtype=np.int64)
    child = np.ascontiguousarray(child, dtype=np.int64)
    z = np.ascontiguousarray(z, dtype=np.complex128)
    s = np.ascontiguousarray(s, dtype=np.complex128)
    return _solve_batch_numpy(parent, child, z, s, v0, tol, max_iter)

"""Backward/forward sweep kernel: one level-scheduled, bus-major numpy sweep.

The ladder method (Shirmohammadi et al., IEEE TPWRS 1988): a backward pass
accumulates branch currents from the leaves to the source, a forward pass
updates bus voltages from the source outwards, repeated until the largest
voltage change drops below ``tol``. A whole batch of snapshots is solved with
vectorized operations. Every arithmetic step is elementwise per snapshot and
finished rows leave the active set, so the result of a snapshot never
depends on which other snapshots share its batch.

Level schedule. A line's level is the depth of its child bus below the
source. Lines of one level never feed each other: their children sit one
level below their parents. So each pass handles a level with a few numpy
calls over all its lines at once, instead of one call per line, and the
numpy call count grows with the feeder's depth, not its line count.

Working arrays are bus-major, ``(bus, batch)``, with the buses renumbered
so that each level's child buses fill one contiguous block of rows. A
level then reads and writes whole rows, and once a child's current sum is
complete it is also the current of the line into that child, so line
currents need no array of their own.

- Backward, deepest level first: ``np.add.at`` adds the level's child sums
  into their parents. ``add.at`` is unbuffered and adds in index order, and
  a level lists its lines in descending line order. A parent's children
  all share one level, so every parent sums its children's currents in
  descending line order, exactly as a per-line loop from the last line to
  the first does. The sums, and so the bits, are the same.
- Forward, shallowest level first: one vectorized update per level. Every
  parent is already updated when its children's level runs. The largest
  voltage change is a max, which no order changes.
- Rows that converge, collapse or run out of iterations are copied out and
  the working arrays shrink to the rows still active; until the first row
  of a tile leaves, the kernel works on the tile's arrays with no gather.

Column tiles. The batch is solved in tiles of whole rows of ``s`` (columns
of the working arrays), one tile after the other, with the level schedule
computed once per call and the working buffers allocated once at tile
size. Every tile keeps its bus-major arrays near a core's L2 cache, and
the working memory no longer grows with the batch. Tiling cannot change
any bits: every arithmetic step is per column, each column starts from
``v0`` in its tile as it does in the whole batch, and rows already leave
the active set without touching the rows that stay (which is also why a
batch row equals its 1-row solve). The width rule has no knob:
``TILE_BYTES // (16 * n)`` columns fill one complex working array with
``TILE_BYTES``, unless a level's numpy calls would then average fewer
than ``CALL_ELEMS`` elements; a deep feeder has few lines per level, so
the width is at least ``CALL_ELEMS * levels / lines``. The batch is then
cut into ``ceil(batch / width)`` tiles whose sizes differ by at most 1.
A smaller ``TILE_BYTES`` keeps more of each pass in cache but multiplies
the numpy calls; a larger ``CALL_ELEMS`` saves calls on deep feeders but
lets their tiles outgrow the cache.

The tests check this kernel bit for bit against the per-line loop
(``tests/oracles.per_line_sweep``) and against a scalar per-snapshot sweep
(``tests/oracles.scalar_sweep``).

Array conventions: ``parent[k]``/``child[k]`` are the bus indices of line k,
ordered so that the line into a bus comes before the lines out of it (BFS
order does this); ``z[k]`` is its per-unit impedance and ``s`` the
(batch, n_bus) per-unit complex bus loads. Bus indices may be in any order.
"""

from __future__ import annotations

import numpy as np

COLLAPSE_FLOOR_PU = 0.5
# Column tiles, measured in fresh processes on a 2-vCPU Xeon VM with 2 MiB
# of L2 per core (Python 3.11, numpy 2.4), 8,760 distinct rows, five runs
# per setting. On the 10-level, 200-bus benchmark feeder, tiles of 1, 2 or
# 4 MiB ran in a median 0.32-0.42 s against 0.46-0.53 s untiled. On a
# 239-level, 240-bus chain, 1 and 2 MiB tiles with no call-size floor took
# 1.32 and 0.90 s against 0.61 s untiled; any floor from 4,096 to 32,768
# elements brought it back to 0.59-0.70 s, within the runs' spread.
TILE_BYTES = 2 << 20  # one complex working array per tile: one core's L2
CALL_ELEMS = 8192  # least average elements per numpy call of a level


def active_backend() -> str:
    """Name of the sweep kernel: always ``"numpy"``, the only one.

    Kept because the benchmark's freeze script records it in its reference.
    """
    return "numpy"


def _schedule(parent, child, n):
    """The level schedule of a feeder's lines, and bus rows to match it.

    Lines are sorted by level, shallowest first, and by descending line
    index within a level. Buses get new rows: every bus that is no line's
    child comes first (the source), then the child of each line in that
    order, so each level's children fill one contiguous block of rows.
    Returns (order, levels, bus_row, first): ``order`` lists the lines in
    schedule order, ``levels`` each level's ``(lo, hi)`` bounds in it,
    ``bus_row[b]`` the row of bus ``b``, and the child of ``order[j]`` sits at
    row ``first + j``.
    """
    depth = [0] * n
    for p, c in zip(parent.tolist(), child.tolist()):
        depth[c] = depth[p] + 1
    line_depth = np.array(depth, dtype=np.int64)[child]
    order = np.lexsort((-np.arange(line_depth.size), line_depth))
    cuts = np.flatnonzero(np.diff(line_depth[order])) + 1
    bounds = np.concatenate(([0], cuts, [order.size])).tolist()
    is_child = np.zeros(n, dtype=bool)
    is_child[child] = True
    roots = np.flatnonzero(~is_child)
    bus_row = np.empty(n, dtype=np.int64)
    bus_row[np.concatenate((roots, child[order]))] = np.arange(n)
    return order, list(zip(bounds[:-1], bounds[1:])), bus_row, roots.size


def _tile_width(n, m, n_levels, batch):
    """Columns per tile: the widest tile of a balanced split of ``batch``.

    The tile's working array fills ``TILE_BYTES`` at 16 bytes per complex
    element, unless that would leave the average numpy call of a level
    under ``CALL_ELEMS`` elements; then the tile widens to that floor.
    The width is then balanced: ``ceil(batch / width)`` tiles of at most
    ``ceil(batch / tiles)`` columns each. At least 1, also for no rows.
    """
    width = max(TILE_BYTES // (16 * n), -(-CALL_ELEMS * n_levels // m))
    tiles = -(-batch // width)
    return -(-batch // tiles) if tiles else 1


def _tile_bounds(batch, width):
    """Cut points of ``ceil(batch / width)`` contiguous tiles whose sizes
    differ by at most 1; tile t is ``bounds[t]:bounds[t + 1]``."""
    tiles = -(-batch // width)
    return [t * batch // tiles for t in range(tiles + 1)] if tiles else [0]


def solve_batch(parent, child, z, s, v0, tol, max_iter):
    """Solve a batch of snapshots.

    Returns (v, i_line, iterations, converged, collapse_bus) where collapse
    is the first bus index whose voltage fell below 0.5 pu, or -1.
    """
    parent = np.ascontiguousarray(parent, dtype=np.int64)
    child = np.ascontiguousarray(child, dtype=np.int64)
    z = np.ascontiguousarray(z, dtype=np.complex128)
    s = np.ascontiguousarray(s, dtype=np.complex128)
    batch, n = s.shape
    m = parent.shape[0]
    iters = np.zeros(batch, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)
    collapse = np.full(batch, -1, dtype=np.int64)
    if m == 0:
        iters[:] = 1
        converged[:] = True
        return (np.full((batch, n), complex(v0), dtype=np.complex128),
                np.zeros((batch, 0), dtype=np.complex128), iters, converged, collapse)

    order, levels, bus_row, first = _schedule(parent, child, n)
    par_row = bus_row[parent[order]]
    z_col = z[order][:, np.newaxis]
    line_row = first + np.argsort(order)  # row of each line's current
    row_bus = np.argsort(bus_row)  # bus at each row

    v_out = np.empty((batch, n), dtype=np.complex128)
    i_out = np.empty((batch, m), dtype=np.complex128)
    tile = _tile_width(n, m, len(levels), batch)
    # Tile-sized buffers, allocated once and reused by every tile.
    s_buf, v_buf, buffer = (np.empty(n * tile, dtype=np.complex128) for _ in range(3))
    bounds = _tile_bounds(batch, tile)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        rows = np.arange(start, stop)
        # Bus-major working arrays, one column per active row, buses in
        # bus_row order. After the backward pass, row first + j of i_acc is
        # line order[j]'s current: a child's sum is final once its level is
        # done.
        sa = s_buf[:n * rows.size].reshape(n, rows.size)
        np.take(s[start:stop].T, row_bus, axis=0, out=sa)
        va = v_buf[:n * rows.size].reshape(n, rows.size)
        va.fill(complex(v0))
        while rows.size:
            width = rows.size
            acc = buffer[:n * width]
            i_acc = acc.reshape(n, width)
            np.divide(sa, va, out=i_acc)
            np.conjugate(i_acc, out=i_acc)
            cols = np.arange(width)
            for lo, hi in reversed(levels):
                # Flat indices and unshared values keep add.at on its fast
                # 1-D path; it still adds in index order.
                flat = (par_row[lo:hi, np.newaxis] * width + cols).ravel()
                sums = acc[(first + lo) * width:(first + hi) * width].copy()
                np.add.at(acc, flat, sums)
            dv = np.zeros(width)
            for lo, hi in levels:
                kids = va[first + lo:first + hi]
                v_new = va[par_row[lo:hi]] - z_col[lo:hi] * i_acc[first + lo:first + hi]
                np.maximum(dv, np.abs(v_new - kids).max(axis=0), out=dv)
                kids[...] = v_new
            iters[rows] += 1

            low = np.abs(va) < COLLAPSE_FLOOR_PU
            collapsed = low.any(axis=0)
            if collapsed.any():
                collapse[rows[collapsed]] = np.argmax(low[bus_row][:, collapsed], axis=0)
            done_ok = ~collapsed & (dv < tol)
            converged[rows[done_ok]] = True
            leaving = collapsed | done_ok | (iters[rows] >= max_iter)
            if leaving.any():
                out = np.flatnonzero(leaving)
                v_out[rows[out]] = va[np.ix_(bus_row, out)].T
                i_out[rows[out]] = i_acc[np.ix_(line_row, out)].T
                stay = np.flatnonzero(~leaving)
                rows = rows[stay]
                sa, va = np.take(sa, stay, axis=1), np.take(va, stay, axis=1)
    return v_out, i_out, iters, converged, collapse

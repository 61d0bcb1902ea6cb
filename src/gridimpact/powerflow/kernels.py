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

- Backward, deepest level first: a line's sibling rank is its position
  among its parent's lines, counted in descending line order, and a level
  lists its lines by rank, then by descending line index. So each
  (level, rank) group is one contiguous block of child rows whose parents
  are all distinct, and one row add, ``i_acc[parents] += i_acc[lo:hi]``,
  serves the whole group; ``parents`` is a slice when their rows are
  contiguous, and the add then runs on a view with no gather or scatter.
  Otherwise numpy gathers the parent rows, adds and scatters them back,
  which is exact: no parent repeats within a group.
  Within a level the groups run rank 0 first, and a parent's children all
  share one level, so every parent sums its children's currents in
  descending line order, exactly as a per-line loop from the last line to
  the first does. The sums, and so the bits, are the same.
- Forward, shallowest level first, into a second voltage buffer: a level
  writes its parents' new voltages less ``z * i`` (both in level scratch,
  with ``out=``) into its own rows of it. Parents are new before their
  children's level runs, root rows hold ``v0`` in both buffers, and the
  buffers swap after the pass, so the old voltages stay whole for the tests.
- Convergence test. No column's largest change is below its deepest
  level's, so that level's change is taken first: a column whose witness
  is ``>= tol`` or NaN cannot have converged. Only if some witness is under
  ``tol`` is the change taken over every level, in level scratch; a max is
  exact in any order, so the test decides as a per-line max does.
- Collapse test. A row has collapsed when some bus's ``|v|`` is under
  ``COLLAPSE_FLOOR_PU``. ``|v|`` is a faithfully rounded ``hypot``, never
  below ``|re(v)|``, so the test takes each column's smallest real part
  first (``np.fmin`` skips NaN, so a column is picked exactly when some
  ``re(v)`` is under the floor) and computes ``|v|`` only for the picked
  columns, gathered into the spent voltage buffer (numpy takes their
  ``|v|`` through 8 heap bytes per bus and column, ROADMAP item 5);
  NaN and ±inf decide as on ``|v|``, and the collapse bus is the first bus
  under the floor.
- Exits: rows that converge, collapse or run out of iterations are copied
  out, on one path also when the whole tile leaves. The staying loads are
  gathered into the spent voltage region; the leaving currents, then
  voltages, into the spent load region and from there, in line or bus
  order, into the spent current region, and copied out; the staying
  voltages into the current region last. These two regions become the
  load and voltage regions, the old load and voltage regions the current
  and next-voltage ones. Every tile starts in the first roles and works
  with no gather until its first row leaves. Every ``np.take`` writes into
  a region with ``mode="clip"``: its indices are valid by construction, and
  ``mode="raise"`` would copy the result through a buffer of its own.

Column tiles. The batch is solved in tiles of whole rows of ``s`` (columns
of the working arrays), one tile after the other, with the level schedule
computed once per call and the tiles cut by ``_tile_bounds``. The call's
working memory is one anonymous ``mmap`` for the call's widest tile, its
size summed from the array views it is cut into: four tile regions (loads,
currents and two voltage buffers; no step of an iteration touches more
than three), the level scratch (two complex and one float array of the
most lines of one level by the tile width) and two rows of the tile width
(a level's largest change and ``dv``). The mapping goes back to the
operating system when the call returns and its last view is dropped;
freed heap would stay with the process. Nothing of it is cached between
calls, so concurrent calls never share it, and the working memory does
not grow with the batch.
Tiling cannot change any bits: every arithmetic step is per column, each
column starts from ``v0`` in its tile as it does in the whole batch, and
rows already leave the active set without touching the rows that stay
(which is also why a batch row equals its 1-row solve). The width rule
has no knob: ``TILE_BYTES`` is a third of one core's 2 MiB L2, and
``TILE_BYTES // (16 * n)`` columns keep each region within it, so a step's
three fit the 2 MiB, unless a level's numpy calls would average fewer than
``CALL_ELEMS`` elements; a feeder with few lines per level gets at
least ``CALL_ELEMS * levels / lines`` columns. On the 10-level, 200-bus
benchmark feeder that floor decides (at most 412 columns), and on deeper
feeders it decided already. The batch is then cut into
``ceil(batch / width)`` tiles whose sizes differ by at most 1: 22 tiles of
at most 399 columns for 8,760 rows on the benchmark feeder. A smaller
``TILE_BYTES`` keeps more of each pass in cache but multiplies the numpy
calls; a larger ``CALL_ELEMS`` saves calls on deep feeders but lets their
tiles outgrow the cache.

The tests check this kernel bit for bit against the per-line loop
(``tests/oracles.per_line_sweep``) and against a scalar per-snapshot sweep
(``tests/oracles.scalar_sweep``).

Array conventions: ``parent[k]``/``child[k]`` are the bus indices of line k,
oriented away from the source, in any line order; each bus is fed by at
most one line and the lines form no cycle (``ValueError`` otherwise).
``z[k]`` is its per-unit impedance and ``s`` the (batch, n_bus) per-unit
complex bus loads. Bus indices may be in any order, within ``[0, n_bus)``,
and ``parent``, ``child`` and ``z`` have one length (``ValueError``
otherwise). The line order decides only the order in which each bus adds
its children's currents, descending line index, and so the bits.
"""

from __future__ import annotations

import mmap

import numpy as np

from ..errors import COLLAPSE_FLOOR_PU

# Column tiles, measured in fresh processes on a 2-vCPU Xeon VM with 2 MiB
# of L2 per core (Python 3.11, numpy 2.4), 8,760 distinct rows, five runs
# per setting, when one working array took the whole 2 MiB. On the 10-level,
# 200-bus benchmark feeder, arrays of 1, 2 or 4 MiB ran in a median
# 0.32-0.42 s against 0.46-0.53 s untiled. On a 239-level, 240-bus chain,
# 1 and 2 MiB arrays with no call-size floor took 1.32 and 0.90 s against
# 0.61 s untiled; any floor from 4,096 to 32,768 elements brought it back to
# 0.59-0.70 s, within the runs' spread. With three arrays sharing the 2 MiB,
# the floor decides on the benchmark feeder (412 columns); there an 8,760-row
# solve maps and touches a 5.78 MB block, and 0.18 MB of heap past its outputs.
TILE_BYTES = (2 << 20) // 3  # each of the three tile regions a step touches at most
CALL_ELEMS = 8192  # least average elements per numpy call of a level


def active_backend() -> str:
    """Name of the sweep kernel: always ``"numpy"``, the only one.

    Kept because the benchmark's freeze script records it in its reference.
    """
    return "numpy"


def _schedule(parent, child, n):
    """The level schedule of a feeder's lines, and bus rows to match it.

    Lines may be listed in any order. A bus's depth is that of the bus
    feeding it plus one, taken by a walk down from the roots (the buses no
    line feeds). Lines are sorted by level, shallowest first, then by
    sibling rank (a line's position among its parent's lines in descending
    line order), then by descending line index. Buses get new rows: the
    roots come first, in bus order, then the child of each line in that
    order, so each level's children fill one contiguous block of rows.
    Returns (order, levels, bus_row, first, groups): ``order`` lists the
    lines in schedule order, ``levels`` each level's ``(lo, hi)`` bounds in
    it, ``bus_row[b]`` the row of bus ``b``, the child of ``order[j]`` sits
    at row ``first + j``, and ``groups`` holds the ``(lo, hi)`` bounds of
    the (level, rank) blocks in the order the backward pass adds them:
    deepest level first, rank 0 first within a level.

    Raises ``ValueError`` when a bus is fed by two lines, or when lines
    form a cycle, which the walk from the roots never reaches; the message
    names a bus on the cycle.
    """
    parents, children = parent.tolist(), child.tolist()
    fed_by = [-1] * n
    lines_out: list[list[int]] = [[] for _ in range(n)]
    for k, (p, c) in enumerate(zip(parents, children)):
        if fed_by[c] >= 0:
            raise ValueError(f"bus {c} is fed by two lines, {fed_by[c]} and {k}")
        fed_by[c] = k
        lines_out[p].append(k)
    roots = [b for b in range(n) if fed_by[b] < 0]
    depth = [0 if k < 0 else -1 for k in fed_by]
    walk = [k for b in roots for k in lines_out[b]]
    for k in walk:  # each line after the line into its parent; the list grows
        depth[children[k]] = depth[parents[k]] + 1
        walk.extend(lines_out[children[k]])
    if len(walk) < len(parents):
        bus = depth.index(-1)
        for _ in range(n):  # up the feeding lines, which end on the cycle
            bus = parents[fed_by[bus]]
        raise ValueError(f"lines form a cycle through bus {bus}, fed from no root")
    rank = [0] * len(parents)
    for lines in lines_out:
        for r, k in enumerate(reversed(lines)):
            rank[k] = r
    line_depth = np.array(depth, dtype=np.int64)[child]
    line_rank = np.array(rank, dtype=np.int64)
    order = np.lexsort((-np.arange(line_depth.size), line_rank, line_depth))
    level_of = line_depth[order]
    new_level = np.diff(level_of) != 0
    new_group = new_level | (np.diff(line_rank[order]) != 0)
    levels = _blocks(np.flatnonzero(new_level) + 1, order.size)
    groups = _blocks(np.flatnonzero(new_group) + 1, order.size)
    level_of = level_of.tolist()
    groups.sort(key=lambda g: -level_of[g[0]])  # stable: ranks stay ascending
    bus_row = np.empty(n, dtype=np.int64)
    bus_row[np.concatenate((roots, child[order]))] = np.arange(n)
    return order, levels, bus_row, len(roots), groups


def _blocks(cuts, size):
    """``(lo, hi)`` bounds of the blocks that ``cuts`` make of ``range(size)``."""
    bounds = [0, *cuts.tolist(), size]
    return list(zip(bounds[:-1], bounds[1:]))


def _tile_bounds(n, m, n_levels, batch):
    """Cut points of a batch's column tiles; tile t is ``bounds[t]:bounds[t + 1]``.

    Each of a tile's four regions fills ``TILE_BYTES`` at 16 bytes
    per complex element, unless that would leave the average numpy call of
    a level under ``CALL_ELEMS`` elements; then the tile widens to that
    floor. The batch is cut into ``ceil(batch / width)`` contiguous tiles
    whose sizes differ by at most 1, and no rows make no tiles, ``[0]``.
    """
    width = max(TILE_BYTES // (16 * n), -(-CALL_ELEMS * n_levels // m))
    tiles = -(-batch // width)
    return [t * batch // tiles for t in range(tiles + 1)] if tiles else [0]


def _parent_rows(par_row, blocks):
    """The parent rows of each ``(lo, hi)`` block of lines: a slice where
    they are consecutive, so that indexing with them gives a view, and the
    row array otherwise, where the add goes through a gather and a scatter.

    The slice path pays on deep feeders, where a rank group's parents are
    mostly consecutive. ``solve_batch`` with every block indexed instead,
    medians of 21 alternating runs (2 vCPU, Python 3.11.7, numpy 2.4.6):
    241 against 230 ms on the benchmark's 10-level 200-bus feeder with
    8,760 rows, inside the runs' spread; 108 against 99 ms on a chain of
    240 lines with 2,000 rows, and 82.5 against 77.8 ms in a second series
    of 15, so 6-9% slower.
    """
    runs = np.concatenate(([0], np.cumsum(np.diff(par_row) != 1))).tolist()
    rows = par_row.tolist()
    return [slice(rows[lo], rows[lo] + hi - lo) if runs[lo] == runs[hi - 1] else par_row[lo:hi]
            for lo, hi in blocks]


def _view(buf, rows, cols):
    """The first ``rows * cols`` elements of ``buf`` as a C-ordered 2-D view."""
    return buf[:rows * cols].reshape(rows, cols)


def solve_batch(parent, child, z, s, v0, tol, max_iter):
    """Solve a batch of snapshots.

    Returns (v, i_line, iterations, converged, collapse_bus) where collapse
    is the first bus index whose voltage fell below 0.5 pu, or -1.

    Raises ``ValueError`` unless ``parent``, ``child`` and ``z`` have one
    length and every bus index lies in ``[0, n)``: the gathers clip their
    indices, so a bad one would otherwise solve as some other bus.
    """
    parent = np.ascontiguousarray(parent, dtype=np.int64)
    child = np.ascontiguousarray(child, dtype=np.int64)
    z = np.ascontiguousarray(z, dtype=np.complex128)
    s = np.ascontiguousarray(s, dtype=np.complex128)
    batch, n = s.shape
    if not parent.shape == child.shape == z.shape:
        raise ValueError(f"parent, child and z must have one length, not "
                         f"{parent.shape}, {child.shape} and {z.shape}")
    bad = np.flatnonzero((parent < 0) | (parent >= n) | (child < 0) | (child >= n))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"line {k} joins buses {parent[k]} and {child[k]}: "
                         f"bus indices must be in [0, {n})")
    m = parent.shape[0]
    iters = np.zeros(batch, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)
    collapse = np.full(batch, -1, dtype=np.int64)
    if m == 0:
        iters[:] = 1
        converged[:] = True
        return (np.full((batch, n), complex(v0), dtype=np.complex128),
                np.zeros((batch, 0), dtype=np.complex128), iters, converged, collapse)

    order, levels, bus_row, first, groups = _schedule(parent, child, n)
    par_row = bus_row[parent[order]]
    z_col = z[order][:, np.newaxis]
    line_row = first + np.argsort(order)  # row of each line's current
    row_bus = np.argsort(bus_row)  # bus at each row
    # One row add per (level, rank) group: child rows, and parent rows as a
    # slice where they are contiguous.
    backward = [(first + lo, first + hi, parents)
                for (lo, hi), parents in zip(groups, _parent_rows(par_row, groups))]
    forward = [(first + lo, first + hi, par_row[lo:hi], z_col[lo:hi]) for lo, hi in levels]

    v_out = np.empty((batch, n), dtype=np.complex128)
    i_out = np.empty((batch, m), dtype=np.complex128)
    bounds = _tile_bounds(n, m, len(levels), batch)
    tiles = list(zip(bounds[:-1], bounds[1:]))
    tile = max((stop - start for start, stop in tiles), default=1)
    widest = max(hi - lo for lo, hi in levels)
    # The call's working memory: one anonymous mapping, cut into views in
    # this order: the tile regions in the roles each tile starts in (loads,
    # voltages, currents), the two complex level scratch arrays, the next
    # voltages' region, the float level scratch, and the rows of a level's
    # largest change and of dv. It is unmapped, not kept on the heap, once
    # the last view goes at return. ACCESS_COPY makes it private: a shared
    # anonymous mapping is backed by shared memory and faults slower
    # (touching 67 MB: 58 against 41 ms on a 2-vCPU VM).
    layout = ([(np.complex128, n * tile)] * 3 + [(np.complex128, widest * tile)] * 2
              + [(np.complex128, n * tile), (np.float64, widest * tile)]
              + [(np.float64, tile)] * 2)
    mapping = mmap.mmap(-1, sum(np.dtype(kind).itemsize * size for kind, size in layout),
                        access=mmap.ACCESS_COPY)
    views, offset = [], 0
    for kind, size in layout:
        views.append(np.frombuffer(mapping, dtype=kind, count=size, offset=offset))
        offset += views[-1].nbytes
    del mapping
    s_reg, v_reg, i_reg, above_buf, step_buf, w_reg, abs_buf, level_dv_buf, dv_buf = views
    regions = (s_reg, v_reg, i_reg, w_reg)
    for start, stop in tiles:
        s_reg, v_reg, i_reg, w_reg = regions
        rows = np.arange(start, stop)
        # Bus-major working arrays, one column per active row, buses in
        # bus_row order. After the backward pass, row first + j of i_acc is
        # line order[j]'s current: a child's sum is final once its level is
        # done.
        sa = _view(s_reg, n, rows.size)
        # Load rows are gathered in s's own layout into the current region,
        # free until the first iteration, and transposed from there in cache.
        # Not s[start:stop].T.take(row_bus, axis=0, out=sa): take copies that
        # non-contiguous view to the heap first, 1.32 MB over the 256 KiB bound.
        staged = s[start:stop].take(row_bus, axis=1, out=_view(i_reg, rows.size, n), mode="clip")
        np.copyto(sa, staged.T)
        va = _view(v_reg, n, rows.size)
        va.fill(complex(v0))
        while rows.size:
            width = rows.size
            i_acc = _view(i_reg, n, width)
            np.divide(sa, va, out=i_acc)
            np.conjugate(i_acc, out=i_acc)
            for lo, hi, parents in backward:
                i_acc[parents] += i_acc[lo:hi]
            # The new voltages go into the other buffer; the old stay in va.
            w = _view(w_reg, n, width)
            w[:first] = v0
            for lo, hi, parents, z_level in forward:
                step = np.multiply(z_level, i_acc[lo:hi], out=_view(step_buf, hi - lo, width))
                above = w.take(parents, axis=0, out=_view(above_buf, hi - lo, width), mode="clip")
                np.subtract(above, step, out=w[lo:hi])
            # No column changes less than at its deepest level, so only where
            # that is under tol is the change taken over every level.
            dv, level_dv = dv_buf[:width], level_dv_buf[:width]
            for checked in (forward[-1:], forward):
                dv.fill(0.0)
                for lo, hi, *_ in checked:
                    change = np.subtract(w[lo:hi], va[lo:hi], out=_view(step_buf, hi - lo, width))
                    change = np.abs(change, out=_view(abs_buf, hi - lo, width))
                    np.maximum(dv, np.maximum.reduce(change, axis=0, out=level_dv), out=dv)
                if not np.any(dv < tol):
                    break
            va, v_reg, w_reg = w, w_reg, v_reg
            iters[rows] += 1

            # |v| >= |re(v)|: |v| only of columns with some re(v) under the
            # floor, gathered into the spent voltage region (fmin skips NaN).
            maybe = np.flatnonzero(np.fmin.reduce(va.real, axis=0) < COLLAPSE_FLOOR_PU)
            collapsed = np.zeros(width, dtype=bool)
            if maybe.size:
                got = va.take(maybe, axis=1, out=_view(w_reg, n, maybe.size), mode="clip")
                low = np.abs(got, out=got.real) < COLLAPSE_FLOOR_PU
                hit = low.any(axis=0)
                collapsed[maybe[hit]] = True
                collapse[rows[maybe[hit]]] = np.argmax(low[bus_row][:, hit], axis=0)
            done_ok = ~collapsed & (dv < tol)
            converged[rows[done_ok]] = True
            leaving = collapsed | done_ok | (iters[rows] >= max_iter)
            if leaving.any():
                # Staying loads into the spent voltages; leaving currents,
                # then voltages, out through the spent loads and currents,
                # which take the staying voltages last.
                out, stay = np.flatnonzero(leaving), np.flatnonzero(~leaving)
                sa = sa.take(stay, axis=1, out=_view(w_reg, n, stay.size), mode="clip")
                spare = _view(s_reg, n, out.size)
                i_acc.take(out, axis=1, out=spare, mode="clip")
                i_out[rows[out]] = spare.take(line_row, axis=0, mode="clip",
                                              out=_view(i_reg, m, out.size)).T
                va.take(out, axis=1, out=spare, mode="clip")
                v_out[rows[out]] = spare.take(bus_row, axis=0, mode="clip",
                                              out=_view(i_reg, n, out.size)).T
                va = va.take(stay, axis=1, out=_view(i_reg, n, stay.size), mode="clip")
                rows = rows[stay]
                s_reg, v_reg, i_reg, w_reg = w_reg, i_reg, s_reg, v_reg
    return v_out, i_out, iters, converged, collapse

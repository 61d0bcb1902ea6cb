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
  Otherwise the parent rows are gathered into level scratch, added to and
  scattered back (addition commutes bit for bit).
  Within a level the groups run rank 0 first, and a parent's children all
  share one level, so every parent sums its children's currents in
  descending line order, exactly as a per-line loop from the last line to
  the first does. The sums, and so the bits, are the same.
- Forward, shallowest level first: one vectorized update per level. Every
  parent is already updated when its children's level runs. The largest
  voltage change is a max, which no order changes. Each step of a level
  (``z * i``, parent gather, difference, change, ``|change|`` and its
  column max) writes into level scratch with ``out=``, so a level makes
  no temporaries.
- Exit test, after each forward pass. A row has collapsed when some bus's
  ``|v|`` is under ``COLLAPSE_FLOOR_PU``. ``|v|`` is a faithfully rounded
  ``hypot``, never below ``|re(v)|``, so a column whose real parts all
  clear the floor cannot have collapsed. The test therefore takes each
  column's smallest real part first (``np.fmin`` skips NaN, so a column is
  picked exactly when some ``re(v)`` is under the floor) and computes
  ``|v|`` only for the picked columns; NaN and ±inf decide as they would
  on ``|v|``, and the collapse bus is still the first bus under the floor.
- Rows that converge, collapse or run out of iterations are copied out.
  When every active row of a tile leaves at once (on the benchmark feeder
  all rows take the same number of iterations), one ``np.take`` of whole
  rows per output gathers the tile into its load region, which is free by
  then, in bus and line order. When only some leave, the tile's four
  regions change roles: the leaving columns of the currents, then of the
  voltages, are gathered into the free region and from there, in line or
  bus order, into the spent current region, and copied out; the staying
  columns of the loads and voltages are then gathered into those two
  regions, which become the load and voltage regions, while the old load
  and voltage regions become the current and free ones. Until the first
  row of a tile leaves, the kernel works on the tile's arrays with no
  gather. Every ``np.take`` writes into a region with ``mode="clip"``: its
  indices are valid by construction, and the default ``mode="raise"``
  would copy the result through a buffer of its own.

Column tiles. The batch is solved in tiles of whole rows of ``s`` (columns
of the working arrays), one tile after the other, with the level schedule
computed once per call. The call's working memory is one anonymous
``mmap``, sized by ``_block_bytes`` for the call's widest tile, and cut
into array views: four tile regions (loads, voltages, currents, and a
free one that only partial exits touch; an anonymous page costs no
memory until it is touched), the forward and backward passes' level
scratch (two complex and one float array of the most lines of one level
by the tile width) and two rows of the tile width (a level's largest
change and ``dv``). The mapping goes back to the operating system when
the call returns and its last view is dropped; freed heap would stay with
the process. Nothing of it is cached between calls, so concurrent calls
never share it, and the working memory does not grow with the batch.
Tiling cannot change any bits: every arithmetic step is per column, each
column starts from ``v0`` in its tile as it does in the whole batch, and
rows already leave the active set without touching the rows that stay
(which is also why a batch row equals its 1-row solve). The width rule
has no knob: ``TILE_BYTES`` is a third of one core's 2 MiB L2, and
``TILE_BYTES // (16 * n)`` columns keep each array within it, so all three
fit the 2 MiB, unless a level's numpy calls would then average fewer than
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
ordered so that the line into a bus comes before the lines out of it (BFS
order does this; ``ValueError`` otherwise, and also when a bus is fed by
two lines); ``z[k]`` is its per-unit impedance and ``s`` the (batch, n_bus)
per-unit complex bus loads. Bus indices may be in any order, within
``[0, n_bus)``, and ``parent``, ``child`` and ``z`` have one length
(``ValueError`` otherwise).
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
# 0.59-0.70 s, within the runs' spread. With the three arrays sharing the
# 2 MiB, the floor decides on the benchmark feeder (412 columns). There an
# 8,760-row solve maps a 5.78 MB block, of which it touches the three tile
# regions and the level scratch, and holds 0.16 MB on the heap beyond its
# outputs.
TILE_BYTES = (2 << 20) // 3  # each of a tile's three complex working arrays
CALL_ELEMS = 8192  # least average elements per numpy call of a level


def active_backend() -> str:
    """Name of the sweep kernel: always ``"numpy"``, the only one.

    Kept because the benchmark's freeze script records it in its reference.
    """
    return "numpy"


def _schedule(parent, child, n):
    """The level schedule of a feeder's lines, and bus rows to match it.

    Lines are sorted by level, shallowest first, then by sibling rank (a
    line's position among its parent's lines in descending line order),
    then by descending line index. Buses get new rows: every bus that is no
    line's child comes first (the source), then the child of each line in
    that order, so each level's children fill one contiguous block of rows.
    Returns (order, levels, bus_row, first, groups): ``order`` lists the
    lines in schedule order, ``levels`` each level's ``(lo, hi)`` bounds in
    it, ``bus_row[b]`` the row of bus ``b``, the child of ``order[j]`` sits
    at row ``first + j``, and ``groups`` holds the ``(lo, hi)`` bounds of
    the (level, rank) blocks in the order the backward pass adds them:
    deepest level first, rank 0 first within a level.

    Raises ``ValueError`` when a bus is fed by two lines, or when a line
    leaves a bus before the line into that bus is listed: depths are taken
    in line order, so such a line would get the wrong level.
    """
    parents, children = parent.tolist(), child.tolist()
    fed_by = [-1] * n
    for k, c in enumerate(children):
        if fed_by[c] >= 0:
            raise ValueError(f"bus {c} is fed by two lines, {fed_by[c]} and {k}")
        fed_by[c] = k
    depth = [0] * n
    for k, (p, c) in enumerate(zip(parents, children)):
        if fed_by[p] >= k:
            raise ValueError(f"line {k} leaves bus {p} before line {fed_by[p]} feeds it: "
                             "the line into a bus must come before the lines out of it")
        depth[c] = depth[p] + 1
    lines_out = [0] * n
    rank = [0] * len(parents)
    for k in range(len(parents) - 1, -1, -1):
        rank[k] = lines_out[parents[k]]
        lines_out[parents[k]] += 1
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
    is_child = np.zeros(n, dtype=bool)
    is_child[child] = True
    roots = np.flatnonzero(~is_child)
    bus_row = np.empty(n, dtype=np.int64)
    bus_row[np.concatenate((roots, child[order]))] = np.arange(n)
    return order, levels, bus_row, roots.size, groups


def _blocks(cuts, size):
    """``(lo, hi)`` bounds of the blocks that ``cuts`` make of ``range(size)``."""
    bounds = [0, *cuts.tolist(), size]
    return list(zip(bounds[:-1], bounds[1:]))


def _tile_width(n, m, n_levels, batch):
    """Columns per tile: the widest tile of a balanced split of ``batch``.

    Each of the tile's three working arrays fills ``TILE_BYTES`` at 16
    bytes per complex element, unless that would leave the average numpy
    call of a level under ``CALL_ELEMS`` elements; then the tile widens to
    that floor.
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


def _block_bytes(n, widest, tile):
    """Bytes of a call's working block for tiles of up to ``tile`` columns.

    Four ``(n, tile)`` complex tile regions, two ``(widest, tile)`` complex
    and one ``(widest, tile)`` float level scratch arrays (``widest`` is the
    most lines of one level), and two float rows of ``tile``: a level's
    largest voltage change and ``dv``.
    """
    return tile * (16 * (4 * n + 2 * widest) + 8 * (widest + 2))


def _parent_rows(par_row, blocks):
    """The parent rows of each ``(lo, hi)`` block of lines: a slice where
    they are consecutive, so that indexing with them gives a view, and the
    row array otherwise."""
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
    tile = _tile_width(n, m, len(levels), batch)
    # The call's working memory: one anonymous mapping, cut into views. It
    # is unmapped, not kept on the heap, once the last view goes at return.
    # ACCESS_COPY makes it private: a shared anonymous mapping is backed by
    # shared memory and faults slower (touching 67 MB: 58 against 41 ms on a
    # 2-vCPU VM).
    widest = max(hi - lo for lo, hi in levels)
    mapping = mmap.mmap(-1, _block_bytes(n, widest, tile), access=mmap.ACCESS_COPY)
    block = np.frombuffer(mapping, dtype=np.complex128, count=(4 * n + 2 * widest) * tile)
    floats = np.frombuffer(mapping, dtype=np.float64, offset=block.nbytes)
    del mapping
    # Three tile regions in their first roles (loads, voltages, currents),
    # the level scratch of both passes, and last the free tile region, which
    # only partial exits touch.
    region = n * tile
    s_reg, v_reg, i_reg = (block[r * region:(r + 1) * region] for r in range(3))
    new_buf = block[3 * region:3 * region + widest * tile]
    step_buf = block[3 * region + widest * tile:-region]
    f_reg = block[-region:]
    abs_buf, level_dv_buf, dv_buf = floats[:widest * tile], floats[-2 * tile:-tile], floats[-tile:]
    bounds = _tile_bounds(batch, tile)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        rows = np.arange(start, stop)
        # Bus-major working arrays, one column per active row, buses in
        # bus_row order. After the backward pass, row first + j of i_acc is
        # line order[j]'s current: a child's sum is final once its level is
        # done.
        sa = _view(s_reg, n, rows.size)
        # np.take copies a non-contiguous source first, so the loads are
        # transposed into the current region, free until the first
        # iteration, and gathered from there.
        staged = _view(i_reg, n, rows.size)
        np.copyto(staged, s[start:stop].T)
        staged.take(row_bus, axis=0, out=sa, mode="clip")
        va = _view(v_reg, n, rows.size)
        va.fill(complex(v0))
        while rows.size:
            width = rows.size
            i_acc = _view(i_reg, n, width)
            np.divide(sa, va, out=i_acc)
            np.conjugate(i_acc, out=i_acc)
            for lo, hi, parents in backward:
                if isinstance(parents, slice):
                    i_acc[parents] += i_acc[lo:hi]
                else:
                    sums = i_acc.take(parents, axis=0, mode="clip",
                                      out=_view(new_buf, hi - lo, width))
                    np.add(sums, i_acc[lo:hi], out=sums)
                    i_acc[parents] = sums
            dv, level_dv = dv_buf[:width], level_dv_buf[:width]
            dv.fill(0.0)
            for lo, hi, parents, z_level in forward:
                kids = va[lo:hi]
                step = np.multiply(z_level, i_acc[lo:hi], out=_view(step_buf, hi - lo, width))
                v_new = va.take(parents, axis=0, out=_view(new_buf, hi - lo, width), mode="clip")
                np.subtract(v_new, step, out=v_new)
                np.subtract(v_new, kids, out=step)
                change = np.abs(step, out=_view(abs_buf, hi - lo, width))
                np.maximum(dv, np.maximum.reduce(change, axis=0, out=level_dv), out=dv)
                np.copyto(kids, v_new)
            iters[rows] += 1

            # |v| >= |re(v)|, so only a column with some re(v) under the
            # floor can have collapsed; |v| is computed for those alone.
            # fmin skips NaN: the column's least non-NaN real part.
            maybe = np.flatnonzero(np.fmin.reduce(va.real, axis=0) < COLLAPSE_FLOOR_PU)
            collapsed = np.zeros(width, dtype=bool)
            if maybe.size:
                low = np.abs(va[:, maybe]) < COLLAPSE_FLOOR_PU
                hit = low.any(axis=0)
                collapsed[maybe[hit]] = True
                collapse[rows[maybe[hit]]] = np.argmax(low[bus_row][:, hit], axis=0)
            done_ok = ~collapsed & (dv < tol)
            converged[rows[done_ok]] = True
            leaving = collapsed | done_ok | (iters[rows] >= max_iter)
            if leaving.all():
                # The loads are spent: gather into their region (m < n).
                v_out[rows] = va.take(bus_row, axis=0, out=sa, mode="clip").T
                i_out[rows] = i_acc.take(line_row, axis=0, out=sa[:m], mode="clip").T
                break
            if leaving.any():
                # The leaving columns go out through the free region and then
                # the spent current region; the staying loads and voltages
                # are compacted into those two, and the regions they held
                # become the current and free regions.
                out, stay = np.flatnonzero(leaving), np.flatnonzero(~leaving)
                spare = _view(f_reg, n, out.size)
                i_acc.take(out, axis=1, out=spare, mode="clip")
                i_out[rows[out]] = spare.take(line_row, axis=0, mode="clip",
                                              out=_view(i_reg, m, out.size)).T
                va.take(out, axis=1, out=spare, mode="clip")
                v_out[rows[out]] = spare.take(bus_row, axis=0, mode="clip",
                                              out=_view(i_reg, n, out.size)).T
                rows = rows[stay]
                sa = sa.take(stay, axis=1, out=_view(f_reg, n, stay.size), mode="clip")
                va = va.take(stay, axis=1, out=_view(i_reg, n, stay.size), mode="clip")
                s_reg, v_reg, i_reg, f_reg = f_reg, i_reg, s_reg, v_reg
    return v_out, i_out, iters, converged, collapse

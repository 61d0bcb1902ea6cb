import contextlib
import dataclasses
import io
import logging
import mmap
import re
import tracemalloc
import typing
import warnings
import weakref
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridimpact.errors import COLLAPSE_FLOOR_PU, TopologyError
from gridimpact.evfleet import DemandProfile
from gridimpact.netmodel import Bus, Line, LoadPoint, NetworkModel, Source
from gridimpact.powerflow import (
    SolverConfig,
    qsts_lines_csv,
    qsts_summary_csv,
    run_qsts,
    snapshot_csv,
    solve_snapshot,
    total_losses,
)
from gridimpact.powerflow import kernels, solver
from gridimpact.powerflow.solver import _CompiledFeeder
from gridimpact.synth import random_feeder

import oracles
from oracles import newton_solve, scalar_sweep, two_bus_closed_form

# frozen from a 50-digit evaluation of the closed-form two-bus solution
# (vs=1, z=0.01+0.01j pu, load 0.1+0.05j pu)
TWO_BUS_V2 = 0.99849761765921388
TWO_BUS_LOSS_PU = 0.00012537644371620138


def chain_network(n, *, z=(0.1, 0.2), load_kw=50.0, load_kvar=10.0, base_kv=12.47):
    buses = tuple(Bus(f"b{i:02d}", 37.0 + i * 1e-4, -122.0, base_kv) for i in range(n))
    lines = tuple(Line(f"l{i:02d}", f"b{i - 1:02d}", f"b{i:02d}", z[0], z[1], 400.0)
                  for i in range(1, n))
    loads = tuple(LoadPoint(f"ld{i:02d}", f"b{i:02d}", load_kw, load_kvar)
                  for i in range(1, n))
    return NetworkModel(buses=buses, lines=lines, loads=loads, source=Source("b00", 1.0))


def every_step(result):
    return [result.step(t) for t in range(result.steps)]


def relative_balance_error(sol):
    return abs(sol.source_kw - sol.total_load_kw - sol.total_loss_kw) / max(sol.source_kw, 1e-9)


class TestSnapshot:
    def test_no_load_fixed_point(self):
        net = NetworkModel(
            buses=tuple(Bus(f"b{i}", 37.0, -122.0 + i * 1e-4, 12.47) for i in range(4)),
            lines=tuple(Line(f"l{i}", f"b{i - 1}", f"b{i}", 0.1, 0.2, 400.0)
                        for i in range(1, 4)),
            loads=(),
            source=Source("b0", 1.05),
        )
        sol = solve_snapshot(net)
        assert sol.converged
        np.testing.assert_array_equal(sol.v_mag_pu, np.full(4, 1.05))
        np.testing.assert_array_equal(sol.v_ang_rad, np.zeros(4))
        np.testing.assert_array_equal(sol.line_flow_kw, np.zeros(3))
        assert sol.total_loss_kw == 0.0
        assert sol.source_kw == 0.0

    def test_two_bus_matches_closed_form(self, two_bus_net):
        sol = solve_snapshot(two_bus_net)
        assert sol.converged
        v2 = sol.v_mag_pu[list(sol.bus_ids).index("b2")]
        assert v2 == pytest.approx(TWO_BUS_V2, abs=1e-4)
        assert sol.total_loss_kw / 1000.0 == pytest.approx(TWO_BUS_LOSS_PU, abs=2e-6)

    def test_closed_form_oracle_self_consistency(self):
        v2, loss = two_bus_closed_form(1.0, 0.01, 0.01, 0.1, 0.05)
        assert v2 == pytest.approx(TWO_BUS_V2, abs=1e-12)
        assert loss == pytest.approx(TWO_BUS_LOSS_PU, abs=1e-15)

    def test_feeder20_matches_dense_newton(self, feeder20):
        sol = solve_snapshot(feeder20, SolverConfig(tol_pu=1e-9))
        oracle = newton_solve(feeder20)
        v = sol.v_mag_pu * np.exp(1j * sol.v_ang_rad)
        worst = max(abs(v[i] - oracle[bid]) for i, bid in enumerate(sol.bus_ids))
        assert worst < 1e-6

    def test_random_feeders_match_newton(self):
        for seed in range(10):
            net = random_feeder(int(5 + seed), seed=seed + 100,
                                load_kw_range=(20.0, 300.0))
            sol = solve_snapshot(net, SolverConfig(tol_pu=1e-9))
            oracle = newton_solve(net)
            v = sol.v_mag_pu * np.exp(1j * sol.v_ang_rad)
            worst = max(abs(v[i] - oracle[bid]) for i, bid in enumerate(sol.bus_ids))
            assert worst < 1e-6, f"seed {seed}: {worst}"

    def test_power_balance_on_random_feeders(self):
        for seed in range(8):
            net = random_feeder(30 + 10 * seed, seed=seed)
            sol = solve_snapshot(net)
            assert sol.converged
            assert relative_balance_error(sol) < 1e-6

    def test_loss_nonnegative(self):
        for seed in range(5):
            sol = solve_snapshot(random_feeder(25, seed=seed + 50))
            assert sol.total_loss_kw >= 0.0
            assert np.all(sol.line_loss_kw >= 0.0)

    def test_voltage_monotone_on_uniform_chain(self):
        sol = solve_snapshot(chain_network(12))
        assert sol.converged
        assert np.all(np.diff(sol.v_mag_pu) <= 1e-15)  # bus order equals chain order

    def test_single_bus_network(self):
        net = NetworkModel(
            buses=(Bus("b0", 37.0, -122.0, 12.47),),
            lines=(), loads=(LoadPoint("ld0", "b0", 75.0, 15.0),),
            source=Source("b0", 1.0))
        sol = solve_snapshot(net)
        assert sol.converged
        assert sol.v_mag_pu.tolist() == [1.0]
        assert sol.total_loss_kw == 0.0
        assert sol.source_kw == pytest.approx(75.0, rel=1e-12)

    def test_load_at_source_bus_in_balance(self):
        net = chain_network(3)
        with_src_load = NetworkModel(
            buses=net.buses, lines=net.lines,
            loads=net.loads + (LoadPoint("ld00", "b00", 80.0, 20.0),),
            source=net.source)
        sol = solve_snapshot(with_src_load)
        assert sol.converged
        assert relative_balance_error(sol) < 1e-6
        assert sol.source_kw == pytest.approx(sol.total_load_kw + sol.total_loss_kw,
                                              rel=1e-6)

    def test_non_radial_rejected(self):
        net = chain_network(3)
        looped = NetworkModel(
            buses=net.buses,
            lines=net.lines + (Line("l99", "b02", "b00", 0.1, 0.2, 400.0),),
            loads=net.loads, source=net.source)
        with pytest.raises(TopologyError, match="not radial"):
            solve_snapshot(looped)

    def test_voltage_collapse_names_bus(self):
        """A collapsed snapshot returns, not converged, naming its bus."""
        net = NetworkModel(
            buses=(Bus("b1", 37.0, -122.0, 1.0), Bus("b2", 37.001, -122.0, 1.0)),
            lines=(Line("l1", "b1", "b2", 0.05, 0.05, 400.0),),
            loads=(LoadPoint("ld1", "b2", 10_000.0, 0.0),),  # 10 pu: hopeless
            source=Source("b1", 1.0),
        )
        sol = solve_snapshot(net)
        assert not sol.converged
        assert sol.bus_ids[sol.collapse_bus] == "b2"
        assert sol.v_mag_pu[sol.collapse_bus] < COLLAPSE_FLOOR_PU

    def test_divergence_returns_unconverged(self, two_bus_net):
        sol = solve_snapshot(two_bus_net, SolverConfig(tol_pu=1e-12, max_iter=1))
        assert not sol.converged
        assert sol.iterations == 1

    def test_deterministic_bitwise(self, feeder20):
        a = solve_snapshot(feeder20)
        b = solve_snapshot(feeder20)
        assert a.v_mag_pu.tobytes() == b.v_mag_pu.tobytes()
        assert a.line_flow_kw.tobytes() == b.line_flow_kw.tobytes()

    def test_backends_agree(self, feeder20):
        """The batched numpy kernel agrees with the scalar per-snapshot sweep.

        ``oracles.scalar_sweep`` runs the same ladder iteration one line at a
        time on the compiled feeder20 arrays; the two differ only in the
        rounding of vectorized versus scalar complex arithmetic.
        """
        sol = solve_snapshot(feeder20)

        feeder = _CompiledFeeder(feeder20)
        cfg = SolverConfig()
        v = np.full(len(feeder.bus_ids), complex(feeder.v0), dtype=np.complex128)
        i_line = np.zeros(feeder.parent.shape[0], dtype=np.complex128)
        iterations, converged, collapse = scalar_sweep(
            feeder.parent, feeder.child, feeder.z, feeder.s_static_pu,
            v, i_line, cfg.tol_pu, cfg.max_iter)
        assert np.max(np.abs(sol.v_mag_pu - np.abs(v))) < 1e-9
        assert (iterations, converged, collapse) == (sol.iterations, True, -1)

    @given(n_buses=st.integers(2, 60), feeder_seed=st.integers(0, 2**31 - 1),
           rows=st.integers(1, 40), max_iter=st.sampled_from([2, 3, 50]),
           load_seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batch_rows_equal_single_row_solves(self, n_buses, feeder_seed, rows,
                                                max_iter, load_seed):
        """Each row of a batch solve is bitwise the 1-row solve of that row.

        Loads are scaled by up to 10**3.5 so that some rows collapse, and a
        small ``max_iter`` leaves others unconverged: rows leave the active
        set at different iterations, which must not touch the rows that stay.
        """
        feeder = _CompiledFeeder(random_feeder(n_buses, seed=feeder_seed))
        rng = np.random.default_rng(load_seed)
        scale = (10.0 ** rng.uniform(0.0, 3.5, size=(rows, 1))
                 * rng.uniform(0.0, 1.0, size=(rows, n_buses)))
        s = feeder.s_static_pu * scale
        args = (feeder.parent, feeder.child, feeder.z)
        batch = kernels.solve_batch(*args, s, feeder.v0, 1e-6, max_iter)
        for t in range(rows):
            single = kernels.solve_batch(*args, s[t:t + 1], feeder.v0, 1e-6, max_iter)
            for got, want in zip(batch, single):
                assert got[t:t + 1].tobytes() == want.tobytes()


TREE_SHAPES = ("star", "chain", "mix", "random")
RELABELS = ("identity", "reversed", "random")


def sweep_case(shape, n_buses, relabel, rows, seed):
    """Kernel inputs ``(parent, child, z, s)`` for an n-bus tree in BFS line order.

    Before relabelling bus 0 is the source. ``shape`` picks each bus's
    parent: bus 1, which hangs on the source (``star``: a star under the
    source, since the source's own sum feeds no line), the previous bus
    (``chain``, n - 1 levels), the previous bus or one of the first three,
    which grow into wide stars (``mix``), or any earlier bus (``random``).
    ``relabel`` then renumbers the buses: ``reversed`` puts the source last
    and every child below its parent, ``random`` draws a permutation. Row
    loads are scaled by up to 10**3.5 and divided by the tree's depth, so
    rows converge, collapse or run out of iterations.
    """
    rng = np.random.default_rng(seed)
    up = [0] * n_buses
    for bus in range(2, n_buses):
        if shape == "star":
            up[bus] = 1
        elif shape == "chain":
            up[bus] = bus - 1
        elif shape == "mix":
            up[bus] = bus - 1 if rng.random() < 0.8 else int(rng.integers(0, min(bus, 3)))
        elif shape == "random":
            up[bus] = int(rng.integers(0, bus))
    label = {"identity": np.arange(n_buses), "reversed": np.arange(n_buses)[::-1],
             "random": rng.permutation(n_buses)}[relabel]
    kids = [[] for _ in range(n_buses)]
    for bus in range(1, n_buses):
        kids[up[bus]].append(bus)
    parent, child, depth = [], [], [0] * n_buses
    queue = deque([0])
    while queue:
        bus = queue.popleft()
        for kid in kids[bus]:
            depth[kid] = depth[bus] + 1
            parent.append(label[bus])
            child.append(label[kid])
            queue.append(kid)
    m = n_buses - 1
    z = rng.uniform(0.001, 0.02, m) + 1j * rng.uniform(0.001, 0.02, m)
    scale = 10.0 ** rng.uniform(0.0, 3.5, size=(rows, 1)) / max(depth, default=1)
    s = (rng.uniform(0.0, 0.05, size=(rows, n_buses))
         + 1j * rng.uniform(0.0, 0.02, size=(rows, n_buses))) * scale
    return np.array(parent, dtype=np.int64), np.array(child, dtype=np.int64), z, s


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@contextlib.contextmanager
def recorded_mappings():
    """Record every ``mmap.mmap`` made inside the block: the list gets a
    ``(weak reference, length)`` pair per mapping."""
    made = []

    class Recorded(mmap.mmap):
        def __new__(cls, *args, **kwargs):
            mapping = super().__new__(cls, *args, **kwargs)
            made.append((weakref.ref(mapping), len(mapping)))
            return mapping

    with mock.patch.object(kernels.mmap, "mmap", Recorded):
        yield made


def exits_per_tile(parent, child, n_buses, iters):
    """How many iterations of each tile some of its rows left at."""
    levels = kernels._schedule(parent, child, n_buses)[1]
    bounds = kernels._tile_bounds(n_buses, n_buses - 1, len(levels), iters.size)
    return [np.unique(iters[a:b]).size for a, b in zip(bounds[:-1], bounds[1:])]


class TestLevelSchedule:
    """The level-scheduled kernel equals the per-line loop bit for bit."""

    @given(shape=st.sampled_from(TREE_SHAPES), n_buses=st.integers(2, 260),
           relabel=st.sampled_from(RELABELS), rows=st.integers(1, 40),
           max_iter=st.sampled_from([2, 3, 50]), seed=st.integers(0, 2**31 - 1))
    @example(shape="chain", n_buses=260, relabel="reversed", rows=12, max_iter=50, seed=7)
    @example(shape="star", n_buses=260, relabel="random", rows=12, max_iter=50, seed=7)
    @settings(max_examples=60, deadline=None)
    def test_equals_per_line_sweep(self, shape, n_buses, relabel, rows, max_iter, seed):
        """All five outputs, for the batch and for its first row alone.

        Stars give one parent many children, so ``add.at`` order decides
        the bits; chains give one level per line.
        """
        parent, child, z, s = sweep_case(shape, n_buses, relabel, rows, seed)
        for loads in (s, s[:1]):
            assert_same_bits(kernels.solve_batch(parent, child, z, loads, 1.0, 1e-6, max_iter),
                             oracles.per_line_sweep(parent, child, z, loads, 1.0, 1e-6,
                                                    max_iter))

    @pytest.mark.parametrize("shape", TREE_SHAPES)
    def test_every_outcome_on_240_buses(self, shape):
        """Converged, collapsed and exhausted rows all occur, on every tree
        shape and labelling, and all equal the per-line loop; the chain has
        239 levels."""
        outcomes = np.zeros(3, dtype=np.int64)
        for seed, relabel in enumerate(RELABELS):
            parent, child, z, s = sweep_case(shape, 240, relabel, 30, seed)
            for max_iter in (3, 50):
                got = kernels.solve_batch(parent, child, z, s, 1.0, 1e-6, max_iter)
                assert_same_bits(got, oracles.per_line_sweep(parent, child, z, s, 1.0, 1e-6,
                                                              max_iter))
                _, _, _, converged, collapse = got
                outcomes += [np.sum(converged), np.sum(collapse >= 0),
                             np.sum(~converged & (collapse < 0))]
        assert np.all(outcomes > 0), outcomes

    @pytest.mark.parametrize("max_iter", [*range(1, 9), 12, 200])
    def test_real_part_under_the_floor_is_not_collapse(self, max_iter):
        """A 3-bus chain whose far bus turns past -60 degrees: from the 12th
        iteration on ``re(v) < 0.5 <= |v|``, and the sweep converges there,
        at 0.439-0.846j (|v| 0.953), after 82 iterations. The collapse test
        looks at real parts first, but only ``|v|`` decides."""
        parent, child = np.array([0, 1]), np.array([1, 2])
        z = np.array([0.01 + 1j, 0.01 + 1j])
        s = np.array([[0.0, 0.4 - 0.4j, 0.3]])
        got = kernels.solve_batch(parent, child, z, s, 1.0, 1e-6, max_iter)
        assert_same_bits(got, oracles.per_line_sweep(parent, child, z, s, 1.0, 1e-6, max_iter))
        v, _, iters, converged, collapse = got
        assert collapse[0] == -1
        if max_iter >= 12:
            assert v[0, 2].real < 0.5 <= abs(v[0, 2])
        assert converged[0] == (max_iter == 200) and iters[0] == min(max_iter, 82)

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 50])
    def test_nan_and_inf_voltages_decide_collapse_as_abs_does(self, max_iter):
        """Bus 1 of a 3-bus star turns NaN or infinite, and under a 5 pu load
        bus 2 collapses beside it: the real-part prefilter must neither skip
        that collapse nor invent one."""
        parent, child = np.array([0, 0]), np.array([1, 2])
        z = np.array([0.01 + 1j, 0.01 + 1j])
        nan, inf = np.nan, np.inf
        s = np.array([[0, nan, 0.1], [0, nan, 5.0], [0, complex(0.1, nan), 5.0],
                      [0, inf, 5.0], [0, -inf, 0.1], [0, complex(0, inf), 5.0],
                      [0, complex(0, -inf), 0.1], [0, complex(inf, inf), 5.0]])
        with np.errstate(all="ignore"):
            got = kernels.solve_batch(parent, child, z, s, 1.0, 1e-6, max_iter)
            want = oracles.per_line_sweep(parent, child, z, s, 1.0, 1e-6, max_iter)
        assert_same_bits(got, want)
        heavy = np.abs(s[:, 2]) > 1
        assert np.all(got[4][~heavy] == -1)
        assert np.all(got[4][heavy] == (2 if max_iter > 1 else -1))

    def test_empty_batch(self):
        parent, child, z, s = sweep_case("random", 30, "random", 1, 0)
        empty = s[:0]
        assert_same_bits(kernels.solve_batch(parent, child, z, empty, 1.0, 1e-6, 50),
                         oracles.per_line_sweep(parent, child, z, empty, 1.0, 1e-6, 50))

    @given(n_buses=st.integers(2, 40), relabel=st.sampled_from(RELABELS),
           rows=st.integers(1, 24), max_iter=st.sampled_from([2, 3, 50]),
           tile=st.integers(1, 7), seed=st.integers(0, 2**31 - 1))
    @example(n_buses=40, relabel="random", rows=23, max_iter=50, tile=7, seed=3)
    @settings(max_examples=30, deadline=None)
    def test_tiles_equal_per_line_sweep(self, n_buses, relabel, rows, max_iter, tile, seed):
        """Tiles 1 to 7 columns wide, most batches split unevenly, on every
        tree shape: each tile starts afresh and writes only its own rows."""
        with mock.patch.object(kernels, "TILE_BYTES", 16 * n_buses * tile), \
                mock.patch.object(kernels, "CALL_ELEMS", 0):
            assert max(np.diff(kernels._tile_bounds(n_buses, n_buses - 1, 1, rows))) <= tile
            for shape in TREE_SHAPES:
                parent, child, z, s = sweep_case(shape, n_buses, relabel, rows, seed)
                assert_same_bits(kernels.solve_batch(parent, child, z, s, 1.0, 1e-6, max_iter),
                                 oracles.per_line_sweep(parent, child, z, s, 1.0, 1e-6,
                                                        max_iter))

    def test_each_outcome_in_its_own_tile(self):
        """A 200-bus tree at the real tile width: the first tile's rows
        converge, the second's collapse and the third's run out of
        iterations, so a tile that inherited the last one's voltages would
        start from collapsed buses."""
        parent, child, _, _ = sweep_case("random", 200, "random", 1, 0)
        levels = kernels._schedule(parent, child, 200)[1]
        # Three tiles at the width rule's own width for this tree.
        rows = 3 * max(np.diff(kernels._tile_bounds(200, 199, len(levels), 1 << 30)))
        parent, child, z, s = sweep_case("random", 200, "random", rows, 0)
        bounds = kernels._tile_bounds(200, 199, len(levels), rows)
        assert np.all(np.diff(bounds) == rows // 3)
        rng = np.random.default_rng(0)
        total = np.concatenate([rng.uniform(lo, hi, stop - start) for (lo, hi), start, stop
                                in zip([(0.3, 4.0), (25.0, 40.0), (11.5, 12.5)],
                                       bounds[:-1], bounds[1:])])
        s = s / np.abs(s).sum(axis=1, keepdims=True) * total[:, np.newaxis]
        got = kernels.solve_batch(parent, child, z, s, 1.0, 1e-6, 8)
        assert_same_bits(got, oracles.per_line_sweep(parent, child, z, s, 1.0, 1e-6, 8))
        _, _, _, converged, collapse = got
        first, second, third = (slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
        assert np.all(converged[first])
        assert np.all(collapse[second] >= 0)
        assert not np.any(converged[third]) and np.all(collapse[third] < 0)

    @given(shape=st.sampled_from(TREE_SHAPES), n_buses=st.integers(2, 260),
           relabel=st.sampled_from(RELABELS), seed=st.integers(0, 2**31 - 1))
    @example(shape="star", n_buses=260, relabel="random", seed=7)
    @settings(max_examples=60, deadline=None)
    def test_rank_groups_keep_the_per_line_order(self, shape, n_buses, relabel, seed):
        """The backward pass's (level, rank) groups tile each level, deepest
        level first; a group's parents are distinct, so one row add serves
        it; and over ascending rank each parent meets its lines in
        descending line index, the order of the per-line loop."""
        parent, child, _, _ = sweep_case(shape, n_buses, relabel, 1, seed)
        order, levels, _, _, groups = kernels._schedule(parent, child, n_buses)
        walk = iter(groups)
        for lo, hi in reversed(levels):
            at = lo
            while at < hi:
                group_lo, group_hi = next(walk)
                assert group_lo == at < group_hi
                at = group_hi
            assert at == hi
        assert next(walk, None) is None
        lines_of = {}
        for lo, hi in groups:
            lines = order[lo:hi].tolist()
            assert len(set(parent[lines].tolist())) == len(lines)
            for k in lines:
                lines_of.setdefault(int(parent[k]), []).append(k)
        for bus, lines in lines_of.items():
            assert lines == sorted(np.flatnonzero(parent == bus).tolist(), reverse=True)

    def test_leaf_line_first_solves_as_root_line_first(self):
        """A 3-bus chain listed leaf line first solves to the bits of the
        same chain listed root line first, with its two lines swapped."""
        z, s = np.array([0.01 + 0.02j, 0.03 + 0.01j]), np.array([[0.0, 0.1, 0.2 + 0.05j]])
        v, i_line, *rest = kernels.solve_batch(np.array([0, 1]), np.array([1, 2]), z, s,
                                               1.0, 1e-6, 50)
        assert_same_bits(kernels.solve_batch(np.array([1, 0]), np.array([2, 1]), z[::-1], s,
                                             1.0, 1e-6, 50),
                         (v, i_line[:, ::-1], *rest))

    @pytest.mark.parametrize("parent,child,bus", [
        ([0, 2, 3], [1, 3, 2], 2),
        ([4, 1, 3, 4], [1, 2, 4, 3], 4),
    ], ids=["cycle", "cycle_with_a_tail"])
    def test_lines_forming_a_cycle_are_rejected(self, parent, child, bus):
        """Every bus is fed once, but no root feeds the cycle; below a tail
        (buses 1 and 2 hang off bus 4), the message still names a bus of the
        cycle itself."""
        z, s = np.full(len(parent), 0.01 + 0.02j), np.full((1, max(child) + 1), 0.1 + 0.0j)
        with pytest.raises(ValueError, match=f"lines form a cycle through bus {bus},"):
            kernels.solve_batch(np.array(parent), np.array(child), z, s, 1.0, 1e-6, 50)

    @given(shape=st.sampled_from(TREE_SHAPES), n_buses=st.integers(2, 120),
           relabel=st.sampled_from(RELABELS), rows=st.integers(1, 20),
           max_iter=st.sampled_from([2, 3, 50]), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_line_order_keeping_each_bus_order_keeps_the_bits(self, shape, n_buses, relabel,
                                                              rows, max_iter, seed):
        """Lines listed in a random order that keeps each bus's lines out in
        their relative order give the same five outputs, the currents with
        the lines permuted: the order may put a line out of a bus before the
        line into it."""
        parent, child, z, s = sweep_case(shape, n_buses, relabel, rows, seed)
        order = np.random.default_rng(seed).permutation(parent.size)
        for bus in np.unique(parent):
            slots = np.flatnonzero(parent[order] == bus)
            order[slots] = np.sort(order[slots])
        v, i_line, *rest = kernels.solve_batch(parent, child, z, s, 1.0, 1e-6, max_iter)
        assert_same_bits(kernels.solve_batch(parent[order], child[order], z[order], s,
                                             1.0, 1e-6, max_iter),
                         (v, i_line[:, order], *rest))

    def test_bus_fed_by_two_lines_is_rejected(self):
        z, s = np.full(3, 0.01 + 0.02j), np.full((1, 3), 0.1 + 0.0j)
        with pytest.raises(ValueError, match="bus 2 is fed by two lines, 1 and 2"):
            kernels.solve_batch(np.array([0, 1, 0]), np.array([1, 2, 2]), z, s, 1.0, 1e-6, 50)

    def test_negative_bus_index_is_rejected(self):
        """-3 on 3 buses would wrap to bus 0 in a Python list and clip to
        it in a gather."""
        z, s = np.full(2, 0.01 + 0.02j), np.full((1, 3), 0.1 + 0.0j)
        with pytest.raises(ValueError, match=r"line 1 joins buses -3 and 2: .* \[0, 3\)"):
            kernels.solve_batch(np.array([0, -3]), np.array([1, 2]), z, s, 1.0, 1e-6, 50)

    def test_bus_index_past_the_last_bus_is_rejected(self):
        z, s = np.full(2, 0.01 + 0.02j), np.full((1, 3), 0.1 + 0.0j)
        with pytest.raises(ValueError, match=r"line 1 joins buses 1 and 3: .* \[0, 3\)"):
            kernels.solve_batch(np.array([0, 1]), np.array([1, 3]), z, s, 1.0, 1e-6, 50)

    def test_short_impedance_array_is_rejected(self):
        z, s = np.full(1, 0.01 + 0.02j), np.full((1, 3), 0.1 + 0.0j)
        with pytest.raises(ValueError, match=r"one length, not \(2,\), \(2,\) and \(1,\)"):
            kernels.solve_batch(np.array([0, 1]), np.array([1, 2]), z, s, 1.0, 1e-6, 50)

    @given(n=st.integers(2, 10_000), data=st.data(), batch=st.integers(0, 100_000))
    def test_tiles_cover_the_batch_evenly(self, n, data, batch):
        m = n - 1
        n_levels = data.draw(st.integers(1, m))
        bounds = kernels._tile_bounds(n, m, n_levels, batch)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == batch
        width = max(kernels.TILE_BYTES // (16 * n), -(-kernels.CALL_ELEMS * n_levels // m))
        assert sizes.size == -(-batch // width)
        if batch:
            assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 1

    def test_deep_feeders_get_fewer_wider_tiles(self):
        chain = np.diff(kernels._tile_bounds(240, 239, 239, 8760))
        shallow = np.diff(kernels._tile_bounds(240, 239, 10, 8760))
        assert chain.max() > shallow.max()
        assert chain.size < shallow.size

    @pytest.mark.parametrize("batch", [0, 1])
    def test_tile_width_of_tiny_batches(self, batch):
        """No rows make no tiles and one row one tile, and either maps the
        block of one column: on the benchmark feeder (200 buses, at most 42
        lines in a level), 16 * (4 * 200 + 2 * 42) + 8 * (42 + 2) bytes."""
        assert kernels._tile_bounds(200, 199, 10, batch) == list(range(batch + 1))
        feeder = _CompiledFeeder(random_feeder(200, seed=200))
        s = np.tile(feeder.s_static_pu, (batch, 1))
        with recorded_mappings() as made:
            kernels.solve_batch(feeder.parent, feeder.child, feeder.z, s, feeder.v0, 1e-6, 50)
        assert [size for _, size in made] == [14_496]

    def test_working_memory_does_not_grow_with_the_batch(self):
        """The working memory is one mapping, no larger at 8,760 distinct
        rows than at 2,000, and what a solve holds on the heap beyond its
        outputs stays under 256 KiB and does not grow with the batch either.
        ``tracemalloc`` does not see the mapping, so its size is read from
        the mapping itself. It is exactly the documented block for the
        widest tile: 14,496 bytes a column (see the tiny batches' test) by
        400 columns at 2,000 rows (5 tiles) and 399 at 8,760 (22 tiles), so
        a layout that maps more or less than it cuts fails here."""
        feeder = _CompiledFeeder(random_feeder(200, seed=200))
        rng = np.random.default_rng(0)
        extra, mapped = {}, {}
        for rows in (2_000, 8_760):
            s = feeder.s_static_pu * rng.uniform(0.5, 1.5, size=(rows, 200))
            with recorded_mappings() as made:
                tracemalloc.start()
                try:
                    out = kernels.solve_batch(feeder.parent, feeder.child, feeder.z, s,
                                              feeder.v0, 1e-6, 50)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert np.all(out[3])
            extra[rows] = peak - sum(a.nbytes for a in out)
            (mapped[rows],) = [size for _, size in made]
        assert mapped == {2_000: 5_798_400, 8_760: 5_783_904}, mapped
        assert extra[8_760] < 256 * 1024, extra
        assert extra[8_760] < 1.5 * extra[2_000], extra

    def test_partial_exits_keep_no_tile_on_the_heap(self):
        """On the 240-bus random tree as drawn, rows converge or collapse
        over many iterations, so tiles shrink by partial exits; these copy
        out and compact within the mapping, and the heap peak beyond the
        outputs stays under 2 MB (one tile's three arrays are 4.7 MB, and
        compacting a tile's loads and voltages into new arrays reads 2.4 MB)."""
        parent, child, z, s = sweep_case("random", 240, "identity", 8_760, 0)
        tracemalloc.start()
        try:
            out = kernels.solve_batch(parent, child, z, s, 1.0, 1e-6, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _, _, iters, converged, collapse = out
        assert np.any(converged) and np.any(collapse >= 0)
        assert min(exits_per_tile(parent, child, 240, iters)) > 1
        assert peak - sum(a.nbytes for a in out) < 2e6

    def test_collapse_test_keeps_its_columns_off_the_heap(self):
        """On the 240-bus chain as drawn, two tiles of up to 4,380 columns
        test rows for collapse over many iterations. The columns under test
        are gathered into the spent voltage buffer and their ``|v|`` taken
        in place there, so the heap peak beyond the outputs stays under 8 MB
        (one tile's voltages are 16.8 MB)."""
        parent, child, z, s = sweep_case("chain", 240, "identity", 8_760, 0)
        tracemalloc.start()
        try:
            out = kernels.solve_batch(parent, child, z, s, 1.0, 1e-6, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.any(out[4] >= 0) and min(exits_per_tile(parent, child, 240, out[2])) > 1
        assert peak - sum(a.nbytes for a in out) < 8e6

    def test_deepest_level_at_rest_hands_convergence_to_every_level(self):
        """The source feeds a loaded 2-line branch (buses 1 and 2) and an
        unloaded 4-line one (buses 3 to 6), so the deepest level's voltages
        never move: its change, the convergence witness, reads 0 from the
        first pass while the loaded branch still changes, and only the
        change over every level may decide. All five outputs equal the
        per-line loop, after more than one iteration."""
        parent, child = np.array([0, 1, 0, 3, 4, 5]), np.array([1, 2, 3, 4, 5, 6])
        z = np.full(6, 0.01 + 0.02j)
        s = np.zeros((3, 7), dtype=np.complex128)
        s[:, 1:3] = [[0.5 + 0.2j, 0.3 + 0.1j], [1.0, 0.4j], [2.0 + 1.0j, 1.5]]
        got = kernels.solve_batch(parent, child, z, s, 1.0, 1e-6, 50)
        assert_same_bits(got, oracles.per_line_sweep(parent, child, z, s, 1.0, 1e-6, 50))
        v, _, iters, converged, _ = got
        assert np.all(v[:, 3:] == 1.0) and np.all(converged) and np.all(iters > 1)

    @pytest.mark.parametrize("shape", TREE_SHAPES)
    def test_outputs_are_c_contiguous(self, shape):
        """``v`` and ``i_line`` come back C-contiguous, for batches whose
        rows leave together or apart, for one row, for none and on a feeder
        without lines, so no transpose is left for the caller to pay."""
        parent, child, z, s = sweep_case(shape, 60, "random", 40, 1)
        cases = [(parent, child, z, loads) for loads in (s, s * 1e-3, s[:1], s[:0])]
        cases.append((parent[:0], child[:0], z[:0], s[:, :1]))
        for case in cases:
            v, i_line, *_ = kernels.solve_batch(*case, 1.0, 1e-6, 50)
            assert v.flags.c_contiguous and i_line.flags.c_contiguous

    @pytest.mark.parametrize("rows_collapse", [False, True], ids=["converging", "collapsing"])
    def test_working_memory_is_unmapped_on_return(self, rows_collapse):
        """Each call makes one mapping, and none is alive once it returns,
        whether every row converges or some collapse and leave early."""
        parent, child, z, s = sweep_case("random", 240, "identity", 600, 0)
        if not rows_collapse:
            s = s * 3e-4
        with recorded_mappings() as made:
            _, _, _, converged, collapse = kernels.solve_batch(parent, child, z, s, 1.0,
                                                               1e-6, 50)
        assert np.any(collapse >= 0) == rows_collapse
        assert np.all(converged) != rows_collapse
        assert len(made) == 1
        assert made[0][0]() is None

    @pytest.mark.parametrize("shape", TREE_SHAPES)
    def test_region_roles_cycle_with_the_per_line_bits(self, shape):
        """50-column tiles of rows that leave over at least five iterations
        each, so every tile makes four or more partial exits and its four
        regions pass through each role; all five outputs equal the per-line
        loop."""
        parent, child, z, s = sweep_case(shape, 240, "random", 200, 0)
        with mock.patch.object(kernels, "TILE_BYTES", 16 * 240 * 50), \
                mock.patch.object(kernels, "CALL_ELEMS", 0):
            got = kernels.solve_batch(parent, child, z, s, 1.0, 1e-6, 50)
            assert min(exits_per_tile(parent, child, 240, got[2])) >= 5
        assert_same_bits(got, oracles.per_line_sweep(parent, child, z, s, 1.0, 1e-6, 50))

    @pytest.mark.parametrize("shape", TREE_SHAPES)
    def test_bus_numbering_does_not_change_the_bits(self, shape):
        """Renumbered so the source is last and every child sits below its
        parent, the same feeder solves to the same bits, bus for bus."""
        parent, child, z, s = sweep_case(shape, 120, "identity", 20, 5)
        label = np.arange(120)[::-1]
        assert np.all(label[child] < label[parent])
        s_relabelled = np.empty_like(s)
        s_relabelled[:, label] = s
        v, i_line, iters, converged, collapse = kernels.solve_batch(
            parent, child, z, s, 1.0, 1e-6, 50)
        v_r, i_line_r, iters_r, converged_r, collapse_r = kernels.solve_batch(
            label[parent], label[child], z, s_relabelled, 1.0, 1e-6, 50)
        assert v_r[:, label].tobytes() == v.tobytes()
        assert i_line_r.tobytes() == i_line.tobytes()
        assert np.array_equal(iters_r, iters) and np.array_equal(converged_r, converged)
        assert np.array_equal(collapse_r >= 0, collapse >= 0)


def two_step_profile(values, dt_h=12.0):
    return DemandProfile(dt_h=dt_h, values_kw=np.asarray(values, float))


class TestQsts:
    @pytest.mark.parametrize("shapes,kwargs,message", [
        ({"ld1": two_step_profile([0.0, 100.0])}, {"dt_h": 1.0, "steps": 2},
         re.escape("mismatched dt_h: shapes use [12.0], the run 1.0")),
        ({}, {"dt_h": 1.0, "steps": 0}, "steps must be >= 1"),
    ], ids=["dt_h", "steps_zero"])
    def test_run_qsts_checks(self, two_bus_net, shapes, kwargs, message):
        with pytest.raises(ValueError, match=message):
            run_qsts(two_bus_net, shapes, **kwargs)

    def test_two_step_shape_defines_pointwise(self):
        net = NetworkModel(
            buses=(Bus("b1", 37.0, -122.0, 12.47), Bus("b2", 37.001, -122.0, 12.47)),
            lines=(Line("l1", "b1", "b2", 0.1, 0.2, 400.0),),
            loads=(LoadPoint("ld1", "b2", 100.0, 0.0),),
            source=Source("b1", 1.0),
        )
        result = run_qsts(net, {"ld1": two_step_profile([0.0, 100.0])}, steps=2, dt_h=12.0)
        assert result.steps == 2
        # step 0: the only load is shaped to zero kW
        assert result.step(0).total_loss_kw == 0.0
        np.testing.assert_array_equal(result.step(0).v_mag_pu, np.ones(2))
        # step 1: nominal model
        nominal = solve_snapshot(net)
        np.testing.assert_array_equal(result.step(1).v_mag_pu, nominal.v_mag_pu)
        np.testing.assert_array_equal(result.step(1).line_flow_kw, nominal.line_flow_kw)

    def test_feeder_without_lines_writes_step_rows_only(self):
        """A one-bus feeder: the line CSVs, the series' and the snapshot's,
        are their header alone, and the summary has one row per step, the
        source serving the load."""
        net = NetworkModel(buses=(Bus("b0", 37.0, -122.0, 12.47),), lines=(),
                           loads=(LoadPoint("ld1", "b0", 5.0, 1.0),), source=Source("b0", 1.0))
        result = run_qsts(net, {}, steps=3, dt_h=1.0)
        written = []
        for write, solved in ((qsts_lines_csv, result), (qsts_summary_csv, result),
                              (snapshot_csv, solve_snapshot(net))):
            out = io.StringIO()
            write(solved, out)
            written.append(out.getvalue())
        assert written == [
            "step,line_id,kw,kvar,amps\n",
            "step,source_kw,loss_kw,min_v_pu,max_v_pu\n"
            + "".join(f"{t},5.0,0.0,1.0,1.0\n" for t in range(3)),
            "line_id,kw,kvar,amps,loss_kw\n",
        ]

    def test_constant_shape_is_time_invariant(self, feeder20):
        load = feeder20.loads[0]
        shape = DemandProfile(dt_h=1.0, values_kw=np.full(24, load.kw))
        result = run_qsts(feeder20, {load.id: shape}, steps=24, dt_h=1.0)
        nominal = solve_snapshot(feeder20)
        for sol in every_step(result):
            np.testing.assert_array_equal(sol.v_mag_pu, nominal.v_mag_pu)
            assert sol.total_loss_kw == nominal.total_loss_kw

    def test_per_step_power_balance(self, feeder20):
        rng = np.random.default_rng(3)
        shapes = {}
        for load in feeder20.loads[:5]:
            values = rng.uniform(0.0, 3.0 * load.kw, 24)
            shapes[load.id] = DemandProfile(dt_h=1.0, values_kw=values)
        result = run_qsts(feeder20, shapes, steps=24, dt_h=1.0)
        assert result.steps == 24
        for sol in every_step(result):
            assert sol.converged
            assert relative_balance_error(sol) < 1e-6

    def test_steps_wrap_profile(self, feeder20):
        load = feeder20.loads[0]
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 200.0, 24)
        shape = DemandProfile(dt_h=1.0, values_kw=values)
        result = run_qsts(feeder20, {load.id: shape}, steps=48, dt_h=1.0)
        assert result.steps == 48
        for t in range(24):
            np.testing.assert_array_equal(result.step(t).v_mag_pu,
                                          result.step(t + 24).v_mag_pu)

    def test_system_base_sets_no_result(self, feeder20, monkeypatch):
        """Every kW and kvar crosses into and out of per unit through the one
        system base, so a 10 MVA base gives the 1 MVA snapshot and series to
        rounding, in the same iterations and with the same verdicts."""
        rng = np.random.default_rng(5)
        shapes = {load.id: DemandProfile(dt_h=1.0, values_kw=rng.uniform(0.0, 3.0 * load.kw, 24))
                  for load in feeder20.loads[:2]}

        def solve():
            series = run_qsts(feeder20, shapes, steps=48, dt_h=1.0)
            return [solve_snapshot(feeder20), *every_step(series)]

        want = solve()
        monkeypatch.setattr(solver, "S_BASE_MVA", 10.0)
        for got, expected in zip(solve(), want, strict=True):
            for name in ("v_mag_pu", "line_flow_kw", "line_flow_kvar", "line_current_a",
                         "line_loss_kw", "source_kw"):
                np.testing.assert_allclose(getattr(got, name), getattr(expected, name),
                                           rtol=1e-12, atol=0, err_msg=name)
            for name in ("iterations", "converged", "collapse_bus"):
                assert getattr(got, name) == getattr(expected, name), name

    def test_unknown_load_id_aborts_before_solving(self, feeder20):
        with pytest.raises(ValueError, match="unknown load id: ghost"):
            run_qsts(feeder20, {"ghost": two_step_profile([0.0, 1.0])}, steps=2, dt_h=12.0)

    def test_mismatched_dt_rejected(self, feeder20):
        a, b = feeder20.loads[0], feeder20.loads[1]
        with pytest.raises(ValueError, match="mismatched dt_h"):
            run_qsts(feeder20, {a.id: two_step_profile([0.0, 1.0], dt_h=12.0),
                                b.id: two_step_profile([0.0] * 24, dt_h=1.0)},
                     steps=2, dt_h=12.0)

    def test_empty_shapes_need_dt_and_steps(self, feeder20):
        """The run's clock is passed, never inferred, shaped loads or not."""
        with pytest.raises(TypeError, match="dt_h"):
            run_qsts(feeder20, {}, steps=4)
        with pytest.raises(TypeError, match="steps"):
            run_qsts(feeder20, {}, dt_h=1.0)
        result = run_qsts(feeder20, {}, steps=4, dt_h=1.0)
        assert result.steps == 4

    def test_divergent_step_recorded_not_fatal(self):
        net = NetworkModel(
            buses=(Bus("b1", 37.0, -122.0, 1.0), Bus("b2", 37.001, -122.0, 1.0)),
            lines=(Line("l1", "b1", "b2", 0.05, 0.05, 400.0),),
            loads=(LoadPoint("ld1", "b2", 100.0, 0.0),),
            source=Source("b1", 1.0),
        )
        # step 1 drives the bus into collapse; the run must survive
        shape = two_step_profile([100.0, 10_000.0])
        result = run_qsts(net, {"ld1": shape}, steps=2, dt_h=12.0)
        assert result.step(0).converged
        assert not result.step(1).converged

    def test_parallel_equals_sequential(self, feeder20):
        rng = np.random.default_rng(5)
        shapes = {}
        for load in feeder20.loads[:3]:
            values = rng.uniform(0.0, 2.0 * load.kw, 24)
            shapes[load.id] = DemandProfile(dt_h=1.0, values_kw=values)
        seq = run_qsts(feeder20, shapes, steps=48, dt_h=1.0)
        par = run_qsts(feeder20, shapes, steps=48, dt_h=1.0, workers=4)
        for a, b in zip(every_step(seq), every_step(par)):
            assert a.v_mag_pu.tobytes() == b.v_mag_pu.tobytes()
            assert a.line_flow_kw.tobytes() == b.line_flow_kw.tobytes()
            assert a.iterations == b.iterations
            assert a.total_loss_kw == b.total_loss_kw
            assert a.source_kw == b.source_kw


# numpy multiplies in place into a temporary from 256 KiB up, which changes
# the rounding of the complex product behind line_flow_kvar.
ELISION_BYTES = 262144


def elision_steps(net):
    """Steps at which one (steps, lines) complex128 array reaches 256 KiB."""
    return -(-ELISION_BYTES // (16 * len(net.lines)))


def assert_equals_per_step(result, reference):
    """Every field of every step, the CSV bytes and the loss total of
    ``result`` equal the plain per-step reference bit for bit."""
    assert result.steps == len(reference)
    for t, want in enumerate(reference):
        oracles.assert_same_state(result.step(t), want, t)
    lines, summary = io.StringIO(), io.StringIO()
    qsts_lines_csv(result, lines)
    qsts_summary_csv(result, summary)
    assert lines.getvalue() == oracles.qsts_lines_csv(reference)
    assert summary.getvalue() == oracles.qsts_summary_csv(reference)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = total_losses(result)
    want = oracles.qsts_total_losses(reference, result.dt_h)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def periodic_shapes(net, rng, period, levels):
    """Shapes for about half the loads: each repeats a ``period``-step
    pattern (24 h at dt_h = 24 / period) of ``levels`` load levels up to
    10**3.5 times nominal, so steps repeat rows and the heavy levels collapse
    or fail to converge."""
    level = 10.0 ** rng.uniform(0.0, 3.5, size=levels)
    pattern = rng.integers(0, levels, size=period)
    shapes = {}
    for load in net.loads:
        if rng.random() < 0.5:
            continue
        values = load.kw * level[pattern] * rng.uniform(0.0, 1.0)
        shapes[load.id] = DemandProfile(dt_h=24 / period, values_kw=values)
    return shapes


def three_step_case():
    """A chain whose loads repeat no load, nominal load and 1000 times
    nominal, run past the elision size: (net, shapes, cfg, steps)."""
    net = chain_network(12, load_kvar=0.0)
    cfg = SolverConfig(tol_pu=1e-12, max_iter=3)
    shapes = {load.id: DemandProfile(dt_h=8.0, values_kw=np.array(
                  [0.0, load.kw, 1e3 * load.kw]))
              for load in net.loads}
    return net, shapes, cfg, elision_steps(net) + 7


def scrambled(net, rng):
    """``net`` with its line ids shuffled among its lines and about 30% of
    its lines turned round (``from_bus`` and ``to_bus`` swapped): the same
    feeder, but its id-sorted line order no longer lists a bus's line in
    before its lines out, as every ``random_feeder`` does."""
    lines = []
    for line, new_id in zip(net.lines, rng.permutation([l.id for l in net.lines]).tolist()):
        if rng.random() < 0.3:
            line = dataclasses.replace(line, from_bus=line.to_bus, to_bus=line.from_bus)
        lines.append(dataclasses.replace(line, id=new_id))
    return dataclasses.replace(net, lines=tuple(lines))


class TestDistinctRows:
    """``run_qsts`` solves and formats each distinct load row once; every
    step must still equal ``oracles.qsts_per_step``, which solves and derives
    each step on its own row, bit for bit."""

    @given(n_buses=st.integers(10, 60), feeder_seed=st.integers(0, 2**31 - 1),
           scramble=st.booleans(),
           period=st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]), levels=st.integers(1, 6),
           long_run=st.booleans(), extra_steps=st.integers(0, 200),
           max_iter=st.sampled_from([2, 3, 50]), workers=st.sampled_from([1, 3]),
           load_seed=st.integers(0, 2**31 - 1))
    @example(n_buses=60, feeder_seed=1, scramble=True, period=24, levels=6, long_run=True,
             extra_steps=7, max_iter=50, workers=1, load_seed=1)
    @example(n_buses=60, feeder_seed=2, scramble=True, period=8, levels=3, long_run=False,
             extra_steps=30, max_iter=3, workers=3, load_seed=2)
    @settings(max_examples=30, deadline=None)
    def test_equals_per_step_oracle(self, n_buses, feeder_seed, scramble, period, levels,
                                    long_run, extra_steps, max_iter, workers, load_seed):
        """Long runs start at the 256 KiB elision size, where the derived
        quantities of a step depend on the batch it is derived in. A
        scrambled feeder solves in an order that is not breadth first, the
        oracle's order, so every per-line field is checked across the two."""
        net = random_feeder(n_buses, seed=feeder_seed)
        if scramble:
            net = scrambled(net, np.random.default_rng(feeder_seed))
        shapes = periodic_shapes(net, np.random.default_rng(load_seed), period, levels)
        steps = elision_steps(net) + extra_steps if long_run else 1 + extra_steps % 48
        cfg = SolverConfig(max_iter=max_iter)
        dt_h = 24 / period
        result = run_qsts(net, shapes, cfg, steps=steps, dt_h=dt_h, workers=workers)
        assert_equals_per_step(
            result, oracles.qsts_per_step(net, shapes, cfg, steps=steps, dt_h=dt_h))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_feeder40_above_elision_size_solves_distinct_rows(self, feeder40, workers,
                                                             monkeypatch):
        steps = 600
        assert steps > elision_steps(feeder40)
        rng = np.random.default_rng(40)
        shapes = {}
        for load in feeder40.loads[:10]:
            values = rng.uniform(0.2, 2.0, 24) * load.kw
            shapes[load.id] = DemandProfile(dt_h=1.0, values_kw=values)
        solved = []
        solve_batch = kernels.solve_batch

        def recording(parent, child, z, s, *args):
            solved.extend(row.tobytes() for row in s)
            return solve_batch(parent, child, z, s, *args)

        monkeypatch.setattr(kernels, "solve_batch", recording)
        result = run_qsts(feeder40, shapes, steps=steps, dt_h=1.0, workers=workers)
        assert len(result.rows.converged) == 24
        # Each of the 24 rows is solved once, and the network's own row,
        # which no random step carries, is not solved at all.
        assert len(solved) == len(set(solved)) == 24
        assert _CompiledFeeder(feeder40).s_static_pu.tobytes() not in solved
        assert result.step_row.tolist() == [t % 24 for t in range(steps)]
        assert_equals_per_step(
            result, oracles.qsts_per_step(feeder40, shapes, SolverConfig(),
                                          steps=steps, dt_h=1.0))

    @pytest.mark.parametrize("period_edge", ["unshaped", "L-1", "L", "L+1"])
    @pytest.mark.parametrize("length", [24, "elision"])
    def test_period_edges_equal_per_step_oracle(self, length, period_edge):
        """Load rows are built for one profile period of ``L`` samples: runs
        one step short of it, exactly it and one step past it, and an unshaped
        run (one distinct row) above the elision size. With ``L`` at the elision
        size, ``L - 1`` steps derive in the other operand order."""
        net = random_feeder(30, seed=30)
        if length == "elision":
            length = elision_steps(net)
        rng = np.random.default_rng(length)
        shapes = {}
        for load in net.loads[::2]:
            values = rng.uniform(0.2, 2.0, length) * load.kw
            shapes[load.id] = DemandProfile(dt_h=24 / length, values_kw=values)
        if period_edge == "unshaped":
            shapes, steps = {}, elision_steps(net) + 3
        else:
            steps = length + {"L-1": -1, "L": 0, "L+1": 1}[period_edge]
        cfg = SolverConfig()
        result = run_qsts(net, shapes, cfg, steps=steps, dt_h=24 / length)
        assert len(result.rows.converged) == (1 if not shapes else min(steps, length))
        assert_equals_per_step(
            result, oracles.qsts_per_step(net, shapes, cfg, steps=steps, dt_h=24 / length))

    def test_load_rows_cost_one_period(self):
        """An annual run of 24-step shapes builds 24 load rows, not 8,760:
        its traced peak stays far below the 27 MiB of a (steps, buses) array."""
        net = random_feeder(200, seed=200)
        rng = np.random.default_rng(200)
        shapes = {}
        for load in net.loads[::2]:
            values = rng.uniform(0.2, 2.0, 24) * load.kw
            shapes[load.id] = DemandProfile(dt_h=1.0, values_kw=values)
        run_qsts(net, shapes, steps=8760, dt_h=1.0)
        tracemalloc.start()
        try:
            result = run_qsts(net, shapes, steps=8760, dt_h=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.rows.converged) == 24 and result.steps == 8760
        assert peak < 4 * 2**20, peak

    def test_row_steps_count_the_steps_of_each_row(self):
        """``row_steps`` is each row's count of steps, and ``diverged_steps``
        the count of steps that did not converge, on a run of 60 hourly
        steps: two and a half days of a shaped profile."""
        net = random_feeder(30, seed=30)
        shapes = periodic_shapes(net, np.random.default_rng(60), 24, 4)
        result = run_qsts(net, shapes, steps=60, dt_h=1.0)
        per_step = [int(np.count_nonzero(result.step_row == r))
                    for r in range(len(result.rows.converged))]
        assert result.row_steps.tolist() == per_step and sum(per_step) == 60
        assert result.diverged_steps == int(np.count_nonzero(~result.converged))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_diverging_and_collapsing_steps(self, workers):
        """A three-step pattern: no load (converged), nominal load (out of
        iterations at a 1e-12 pu tolerance) and 1000 times nominal (collapsed)."""
        net, shapes, cfg, steps = three_step_case()
        result = run_qsts(net, shapes, cfg, steps=steps, dt_h=8.0, workers=workers)
        converged, iterations = result.rows.converged, result.rows.iterations
        assert converged.shape == (3,)
        assert converged[0]
        assert not converged[1] and iterations[1] == 3
        assert not converged[2] and iterations[2] < 3
        assert np.count_nonzero(~result.converged) == steps - (steps + 2) // 3
        assert_equals_per_step(result, oracles.qsts_per_step(net, shapes, cfg,
                                                             steps=steps, dt_h=8.0))

    def test_one_collapse_record_per_row(self, caplog):
        """The collapsed row is logged once with its bus, its step count and
        its first step, not once per step, beside one count of the steps that
        did not converge. The collapsed row first appears at step 2."""
        net, shapes, cfg, steps = three_step_case()
        with caplog.at_level(logging.WARNING, logger="gridimpact.powerflow.solver"):
            result = run_qsts(net, shapes, cfg, steps=steps, dt_h=8.0)
        _, first_step, row_steps = np.unique(result.step_row, return_index=True,
                                             return_counts=True)
        (r,) = np.flatnonzero(result.rows.collapse_bus >= 0)
        assert (first_step[r], row_steps[r]) == (2, len(range(2, steps, 3)))
        collapsed = [rec.getMessage() for rec in caplog.records
                     if "collapse" in rec.getMessage()]
        assert collapsed == [f"voltage collapse at bus b03 in {row_steps[r]} of {steps} "
                             f"steps (first at step {first_step[r]}), recorded as not converged"]
        assert len(caplog.records) == 2
        assert caplog.records[1].getMessage() == (
            f"{steps - (steps + 2) // 3} of {steps} steps did not converge")


def assert_row_view_types(sol, n_buses, n_lines):
    """Each field has its declared type: Python scalars, not numpy ones or
    0-d arrays, and 1-D float64 arrays of the feeder's bus or line count."""
    hints = typing.get_type_hints(type(sol))
    for field in dataclasses.fields(sol):
        value, hint = getattr(sol, field.name), hints[field.name]
        if hint is np.ndarray:
            size = n_lines if field.name.startswith("line_") else n_buses
            assert (type(value), value.dtype, value.shape) == (np.ndarray, np.float64, (size,)), \
                field.name
        elif hint in (float, bool, int):
            assert type(value) is hint, field.name
        else:
            assert type(value) is tuple, field.name


class TestCollapseRule:
    @given(n_buses=st.integers(2, 60), feeder_seed=st.integers(0, 2**31 - 1),
           period=st.sampled_from([1, 2, 3, 8, 24]), levels=st.integers(1, 6),
           max_iter=st.sampled_from([2, 3, 50]), load_seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    @example(n_buses=12, feeder_seed=3, period=3, levels=6, max_iter=50, load_seed=3)
    @example(n_buses=12, feeder_seed=2, period=3, levels=6, max_iter=50, load_seed=2)
    def test_solution_names_the_kernels_collapse_bus(self, n_buses, feeder_seed, period,
                                                     levels, max_iter, load_seed):
        """``collapse_bus`` of every row is the fifth output of the kernel
        call that solved it, and is the first bus whose ``v_mag_pu`` is under
        ``COLLAPSE_FLOOR_PU``, or -1. ``solve_snapshot`` returns the same
        verdict for the one row of its own kernel call, not converged when it
        collapsed: the network's own loads, set to step 0's kW so that it can
        collapse. In the first example a series row collapses, in the second
        the snapshot."""
        net = random_feeder(n_buses, seed=feeder_seed)
        shapes = periodic_shapes(net, np.random.default_rng(load_seed), period, levels)
        cfg = SolverConfig(max_iter=max_iter)
        step0_net = dataclasses.replace(net, loads=tuple(
            dataclasses.replace(load, kw=float(shapes[load.id].values_kw[0]))
            if load.id in shapes else load for load in net.loads))
        calls = []
        solve_batch = kernels.solve_batch

        def recording(*args):
            calls.append((args[3].copy(), solve_batch(*args)))
            return calls[-1][1]

        def first_under_floor(v_mag_pu):
            low = np.flatnonzero(v_mag_pu < COLLAPSE_FLOOR_PU)
            return int(low[0]) if low.size else -1

        with mock.patch.object(kernels, "solve_batch", recording):
            rows = run_qsts(net, shapes, cfg, steps=period, dt_h=24 / period).rows
            snapshot = solve_snapshot(step0_net, cfg)
        (_, (_, _, _, _, collapse)), (s_own, (_, _, _, _, collapse_own)) = calls
        assert s_own.tobytes() == _CompiledFeeder(step0_net).s_static_pu.tobytes()
        assert (rows.collapse_bus.dtype, rows.collapse_bus.tolist()) == (
            np.int64, collapse.tolist())
        assert [first_under_floor(v) for v in rows.v_mag_pu] == collapse.tolist()
        assert snapshot.collapse_bus == collapse_own[0] == first_under_floor(snapshot.v_mag_pu)
        if snapshot.collapse_bus >= 0:
            assert not snapshot.converged


class TestRowView:
    @given(n_buses=st.integers(1, 60), feeder_seed=st.integers(0, 2**31 - 1),
           period=st.sampled_from([1, 2, 3, 8]), levels=st.integers(1, 4),
           steps=st.integers(1, 30), max_iter=st.sampled_from([3, 50]),
           load_seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_snapshot_is_row_zero_and_steps_have_declared_types(
            self, n_buses, feeder_seed, period, levels, steps, max_iter, load_seed):
        """``solve_snapshot`` and ``step(t)`` are both views of one row of the
        stacked derivation: the snapshot equals step 0 of a one-step run bit
        for bit, and no numpy scalar leaks out of either."""
        net = random_feeder(n_buses, seed=feeder_seed)
        n_lines = len(net.lines)
        snapshot = solve_snapshot(net)
        step = run_qsts(net, {}, steps=1, dt_h=1.0).step(0)
        assert_row_view_types(snapshot, n_buses, n_lines)
        assert_row_view_types(step, n_buses, n_lines)
        oracles.assert_same_state(step, snapshot)

        shapes = periodic_shapes(net, np.random.default_rng(load_seed), period, levels)
        result = run_qsts(net, shapes, SolverConfig(max_iter=max_iter), steps=steps,
                          dt_h=24 / period)
        for sol in every_step(result):
            assert_row_view_types(sol, n_buses, n_lines)

    @given(n_buses=st.integers(2, 60), feeder_seed=st.integers(0, 2**31 - 1),
           outcome=st.sampled_from(["converged", "diverged", "collapsed"]),
           max_iter=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    @example(n_buses=10, feeder_seed=0, outcome="converged", max_iter=1)
    @example(n_buses=10, feeder_seed=0, outcome="diverged", max_iter=3)
    @example(n_buses=10, feeder_seed=0, outcome="collapsed", max_iter=1)
    def test_snapshot_is_step_zero_of_a_one_step_run(self, n_buses, feeder_seed, outcome,
                                                     max_iter):
        """``solve_snapshot`` returns step 0 of a one-step ``run_qsts`` bit for
        bit in every field, whether the network converges, runs out of
        ``max_iter`` iterations at a 1e-12 pu tolerance, or carries 1000 times
        its loads (the examples hit each outcome)."""
        net = random_feeder(n_buses, seed=feeder_seed)
        cfg = SolverConfig()
        if outcome == "diverged":
            cfg = SolverConfig(tol_pu=1e-12, max_iter=max_iter)
        elif outcome == "collapsed":
            net = dataclasses.replace(net, loads=tuple(
                dataclasses.replace(load, kw=load.kw * 1e3, kvar=load.kvar * 1e3)
                for load in net.loads))
        snapshot = solve_snapshot(net, cfg)
        oracles.assert_same_state(snapshot, run_qsts(net, {}, cfg, steps=1, dt_h=1.0).step(0))
        assert_row_view_types(snapshot, n_buses, len(net.lines))


class TestTotalLosses:
    def test_single_step(self, two_bus_net):
        result = run_qsts(two_bus_net, {}, steps=1, dt_h=1.0)
        expected = result.step(0).total_loss_kw * 1.0
        assert total_losses(result) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(TWO_BUS_LOSS_PU * 1000.0, abs=2e-3)

    def test_zero_load_run(self):
        net = chain_network(4, load_kw=0.0, load_kvar=0.0)
        result = run_qsts(net, {}, steps=3, dt_h=1.0)
        assert total_losses(result) == 0.0

    def test_resummation_oracle(self, feeder20):
        result = run_qsts(feeder20, {}, steps=24, dt_h=0.5)
        by_hand = sum(s.total_loss_kw for s in every_step(result)) * 0.5
        assert total_losses(result) == pytest.approx(by_hand, rel=1e-12)

    def test_diverged_steps_excluded_with_warning(self):
        net = chain_network(3)
        load = net.loads[0]
        values = np.tile([load.kw, 2.0 * load.kw], 12)
        hourly = DemandProfile(dt_h=1.0, values_kw=values)
        good = run_qsts(net, {load.id: hourly}, steps=2, dt_h=1.0)
        assert good.step_row.tolist() == [0, 1]
        patched = dataclasses.replace(good, rows=dataclasses.replace(
            good.rows, converged=np.array([True, False])))
        with pytest.warns(UserWarning, match="non-converged"):
            value = total_losses(patched)
        assert value == pytest.approx(good.step(0).total_loss_kw, rel=1e-12)


class TestExports:
    def test_lines_csv_shape(self, feeder20):
        result = run_qsts(feeder20, {}, steps=2, dt_h=1.0)
        out = io.StringIO()
        qsts_lines_csv(result, out)
        rows = out.getvalue().strip().split("\n")
        assert rows[0] == "step,line_id,kw,kvar,amps"
        assert len(rows) == 1 + 2 * len(feeder20.lines)
        first = rows[1].split(",")
        assert first[0] == "0"
        assert float(first[2]) == result.step(0).line_flow_kw[0]

    def test_summary_csv_shape(self, feeder20):
        result = run_qsts(feeder20, {}, steps=3, dt_h=1.0)
        out = io.StringIO()
        qsts_summary_csv(result, out)
        rows = out.getvalue().strip().split("\n")
        assert rows[0] == "step,source_kw,loss_kw,min_v_pu,max_v_pu"
        assert len(rows) == 4
        parts = rows[1].split(",")
        assert float(parts[3]) == float(np.min(result.step(0).v_mag_pu))

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridimpact.errors import TopologyError, VoltageCollapseError
from gridimpact.evfleet import DemandProfile
from gridimpact.netmodel import Bus, Line, LoadPoint, NetworkModel, Source
from gridimpact.powerflow import (
    QstsResult,
    SolverConfig,
    active_backend,
    qsts_lines_csv,
    qsts_summary_csv,
    run_qsts,
    solve_snapshot,
    total_losses,
)
from gridimpact.powerflow import kernels
from gridimpact.powerflow.solver import _CompiledFeeder
from gridimpact.synth import random_feeder

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


def relative_balance_error(sol):
    return abs(sol.source_kw - sol.total_load_kw - sol.total_loss_kw) / max(sol.source_kw, 1e-9)


@pytest.fixture(params=["numpy"])
def kernel(request):
    """The sweep kernel a test solves with, named in its id (``test_x[numpy]``).

    There is one kernel; the param keeps the ids that earlier runs report
    under, and the assertion checks that ``active_backend()`` names it.
    """
    assert active_backend() == request.param
    return request.param


class TestSnapshot:
    def test_no_load_fixed_point(self, kernel):
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

    def test_two_bus_matches_closed_form(self, kernel, two_bus_net):
        sol = solve_snapshot(two_bus_net)
        assert sol.converged
        v2 = sol.v_mag_pu[list(sol.bus_ids).index("b2")]
        assert v2 == pytest.approx(TWO_BUS_V2, abs=1e-4)
        assert sol.total_loss_kw / 1000.0 == pytest.approx(TWO_BUS_LOSS_PU, abs=2e-6)

    def test_closed_form_oracle_self_consistency(self):
        v2, loss = two_bus_closed_form(1.0, 0.01, 0.01, 0.1, 0.05)
        assert v2 == pytest.approx(TWO_BUS_V2, abs=1e-12)
        assert loss == pytest.approx(TWO_BUS_LOSS_PU, abs=1e-15)

    def test_feeder20_matches_dense_newton(self, kernel, feeder20):
        sol = solve_snapshot(feeder20, SolverConfig(tol_pu=1e-9))
        oracle = newton_solve(feeder20)
        v = sol.v_mag_pu * np.exp(1j * sol.v_ang_rad)
        worst = max(abs(v[i] - oracle[bid]) for i, bid in enumerate(sol.bus_ids))
        assert worst < 1e-6

    def test_random_feeders_match_newton(self, kernel):
        for seed in range(10):
            net = random_feeder(int(5 + seed), seed=seed + 100,
                                load_kw_range=(20.0, 300.0))
            sol = solve_snapshot(net, SolverConfig(tol_pu=1e-9))
            oracle = newton_solve(net)
            v = sol.v_mag_pu * np.exp(1j * sol.v_ang_rad)
            worst = max(abs(v[i] - oracle[bid]) for i, bid in enumerate(sol.bus_ids))
            assert worst < 1e-6, f"seed {seed}: {worst}"

    def test_power_balance_on_random_feeders(self, kernel):
        for seed in range(8):
            net = random_feeder(30 + 10 * seed, seed=seed)
            sol = solve_snapshot(net)
            assert sol.converged
            assert relative_balance_error(sol) < 1e-6

    def test_loss_nonnegative(self, kernel):
        for seed in range(5):
            sol = solve_snapshot(random_feeder(25, seed=seed + 50))
            assert sol.total_loss_kw >= 0.0
            assert np.all(sol.line_loss_kw >= 0.0)

    def test_voltage_monotone_on_uniform_chain(self, kernel):
        sol = solve_snapshot(chain_network(12))
        assert sol.converged
        assert np.all(np.diff(sol.v_mag_pu) <= 1e-15)  # bus order equals chain order

    def test_single_bus_network(self, kernel):
        net = NetworkModel(
            buses=(Bus("b0", 37.0, -122.0, 12.47),),
            lines=(), loads=(LoadPoint("ld0", "b0", 75.0, 15.0),),
            source=Source("b0", 1.0))
        sol = solve_snapshot(net)
        assert sol.converged
        assert sol.v_mag_pu.tolist() == [1.0]
        assert sol.total_loss_kw == 0.0
        assert sol.source_kw == pytest.approx(75.0, rel=1e-12)

    def test_load_at_source_bus_in_balance(self, kernel):
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

    def test_voltage_collapse_names_bus(self, kernel):
        net = NetworkModel(
            buses=(Bus("b1", 37.0, -122.0, 1.0), Bus("b2", 37.001, -122.0, 1.0)),
            lines=(Line("l1", "b1", "b2", 0.05, 0.05, 400.0),),
            loads=(LoadPoint("ld1", "b2", 10_000.0, 0.0),),  # 10 pu: hopeless
            source=Source("b1", 1.0),
        )
        with pytest.raises(VoltageCollapseError, match="bus b2"):
            solve_snapshot(net)

    def test_divergence_returns_unconverged(self, kernel, two_bus_net):
        sol = solve_snapshot(two_bus_net, SolverConfig(tol_pu=1e-12, max_iter=1))
        assert not sol.converged
        assert sol.iterations == 1

    def test_deterministic_bitwise(self, kernel, feeder20):
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
            feeder.parent, feeder.child, feeder.z_bfs, feeder.s_static_pu,
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
        args = (feeder.parent, feeder.child, feeder.z_bfs)
        batch = kernels.solve_batch(*args, s, feeder.v0, 1e-6, max_iter)
        for t in range(rows):
            single = kernels.solve_batch(*args, s[t:t + 1], feeder.v0, 1e-6, max_iter)
            for got, want in zip(batch, single):
                assert got[t:t + 1].tobytes() == want.tobytes()


def two_step_profile(values, dt_h=12.0):
    return DemandProfile(dt_h=dt_h, values_kw=np.asarray(values, float),
                         energy_kwh=float(np.sum(values)) * dt_h)


class TestQsts:
    def test_two_step_shape_defines_pointwise(self, kernel):
        net = NetworkModel(
            buses=(Bus("b1", 37.0, -122.0, 12.47), Bus("b2", 37.001, -122.0, 12.47)),
            lines=(Line("l1", "b1", "b2", 0.1, 0.2, 400.0),),
            loads=(LoadPoint("ld1", "b2", 100.0, 0.0),),
            source=Source("b1", 1.0),
        )
        result = run_qsts(net, {"ld1": two_step_profile([0.0, 100.0])})
        assert len(result.solutions) == 2
        # step 0: the only load is shaped to zero kW
        assert result.solutions[0].total_loss_kw == 0.0
        np.testing.assert_array_equal(result.solutions[0].v_mag_pu, np.ones(2))
        # step 1: nominal model
        nominal = solve_snapshot(net)
        np.testing.assert_array_equal(result.solutions[1].v_mag_pu, nominal.v_mag_pu)
        np.testing.assert_array_equal(result.solutions[1].line_flow_kw, nominal.line_flow_kw)

    def test_constant_shape_is_time_invariant(self, kernel, feeder20):
        load = feeder20.loads[0]
        shape = DemandProfile(dt_h=1.0, values_kw=np.full(24, load.kw),
                              energy_kwh=load.kw * 24.0)
        result = run_qsts(feeder20, {load.id: shape})
        nominal = solve_snapshot(feeder20)
        for sol in result.solutions:
            np.testing.assert_array_equal(sol.v_mag_pu, nominal.v_mag_pu)
            assert sol.total_loss_kw == nominal.total_loss_kw

    def test_per_step_power_balance(self, kernel, feeder20):
        rng = np.random.default_rng(3)
        shapes = {}
        for load in feeder20.loads[:5]:
            values = rng.uniform(0.0, 3.0 * load.kw, 24)
            shapes[load.id] = DemandProfile(dt_h=1.0, values_kw=values,
                                            energy_kwh=float(np.sum(values)))
        result = run_qsts(feeder20, shapes)
        assert len(result.solutions) == 24
        for sol in result.solutions:
            assert sol.converged
            assert relative_balance_error(sol) < 1e-6

    def test_steps_wrap_profile(self, kernel, feeder20):
        load = feeder20.loads[0]
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 200.0, 24)
        shape = DemandProfile(dt_h=1.0, values_kw=values, energy_kwh=float(np.sum(values)))
        result = run_qsts(feeder20, {load.id: shape}, steps=48)
        assert len(result.solutions) == 48
        for t in range(24):
            np.testing.assert_array_equal(result.solutions[t].v_mag_pu,
                                          result.solutions[t + 24].v_mag_pu)

    def test_unknown_load_id_aborts_before_solving(self, feeder20):
        with pytest.raises(ValueError, match="unknown load id: ghost"):
            run_qsts(feeder20, {"ghost": two_step_profile([0.0, 1.0])})

    def test_mismatched_dt_rejected(self, feeder20):
        a, b = feeder20.loads[0], feeder20.loads[1]
        with pytest.raises(ValueError, match="mismatched dt_h"):
            run_qsts(feeder20, {a.id: two_step_profile([0.0, 1.0], dt_h=12.0),
                                b.id: two_step_profile([0.0] * 24 + [1.0] * 0, dt_h=1.0)})

    def test_empty_shapes_need_dt_and_steps(self, feeder20):
        with pytest.raises(ValueError, match="dt_h is required"):
            run_qsts(feeder20, {}, steps=4)
        result = run_qsts(feeder20, {}, steps=4, dt_h=1.0)
        assert len(result.solutions) == 4

    def test_divergent_step_recorded_not_fatal(self, kernel):
        net = NetworkModel(
            buses=(Bus("b1", 37.0, -122.0, 1.0), Bus("b2", 37.001, -122.0, 1.0)),
            lines=(Line("l1", "b1", "b2", 0.05, 0.05, 400.0),),
            loads=(LoadPoint("ld1", "b2", 100.0, 0.0),),
            source=Source("b1", 1.0),
        )
        # step 1 drives the bus into collapse; the run must survive
        shape = two_step_profile([100.0, 10_000.0])
        result = run_qsts(net, {"ld1": shape})
        assert result.solutions[0].converged
        assert not result.solutions[1].converged

    def test_parallel_equals_sequential(self, kernel, feeder20):
        rng = np.random.default_rng(5)
        shapes = {}
        for load in feeder20.loads[:3]:
            values = rng.uniform(0.0, 2.0 * load.kw, 24)
            shapes[load.id] = DemandProfile(dt_h=1.0, values_kw=values,
                                            energy_kwh=float(np.sum(values)))
        seq = run_qsts(feeder20, shapes, steps=48)
        par = run_qsts(feeder20, shapes, steps=48, workers=4)
        for a, b in zip(seq.solutions, par.solutions):
            assert a.v_mag_pu.tobytes() == b.v_mag_pu.tobytes()
            assert a.line_flow_kw.tobytes() == b.line_flow_kw.tobytes()
            assert a.iterations == b.iterations
            assert a.total_loss_kw == b.total_loss_kw
            assert a.source_kw == b.source_kw


class TestTotalLosses:
    def test_single_step(self, kernel, two_bus_net):
        result = run_qsts(two_bus_net, {}, steps=1, dt_h=1.0)
        expected = result.solutions[0].total_loss_kw * 1.0
        assert total_losses(result) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(TWO_BUS_LOSS_PU * 1000.0, abs=2e-3)

    def test_zero_load_run(self, kernel):
        net = chain_network(4, load_kw=0.0, load_kvar=0.0)
        result = run_qsts(net, {}, steps=3, dt_h=1.0)
        assert total_losses(result) == 0.0

    def test_resummation_oracle(self, kernel, feeder20):
        result = run_qsts(feeder20, {}, steps=24, dt_h=0.5)
        by_hand = sum(s.total_loss_kw for s in result.solutions) * 0.5
        assert total_losses(result) == pytest.approx(by_hand, rel=1e-12)

    def test_diverged_steps_excluded_with_warning(self):
        good = run_qsts(chain_network(3), {}, steps=2, dt_h=1.0)
        patched = QstsResult(
            solutions=(good.solutions[0],
                       type(good.solutions[1])(**{**good.solutions[1].__dict__,
                                                  "converged": False})),
            dt_h=1.0)
        with pytest.warns(UserWarning, match="non-converged"):
            value = total_losses(patched)
        assert value == pytest.approx(good.solutions[0].total_loss_kw, rel=1e-12)


class TestExports:
    def test_lines_csv_shape(self, kernel, feeder20):
        result = run_qsts(feeder20, {}, steps=2, dt_h=1.0)
        rows = qsts_lines_csv(result).strip().split("\n")
        assert rows[0] == "step,line_id,kw,kvar,amps"
        assert len(rows) == 1 + 2 * len(feeder20.lines)
        first = rows[1].split(",")
        assert first[0] == "0"
        assert float(first[2]) == result.solutions[0].line_flow_kw[0]

    def test_summary_csv_shape(self, kernel, feeder20):
        result = run_qsts(feeder20, {}, steps=3, dt_h=1.0)
        rows = qsts_summary_csv(result).strip().split("\n")
        assert rows[0] == "step,source_kw,loss_kw,min_v_pu,max_v_pu"
        assert len(rows) == 4
        parts = rows[1].split(",")
        assert float(parts[3]) == float(np.min(result.solutions[0].v_mag_pu))

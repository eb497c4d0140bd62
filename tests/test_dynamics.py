import json
import tracemalloc

import numpy as np
import pytest

from multiflag import arm, cli, flags
from multiflag import dynamics as dyn
from multiflag import hyperspherical as hs
from multiflag import sampling
from multiflag.arm import JSON_ROWS, _write_json
from multiflag.errors import ChartDegenerate, StepRejected
from multiflag.fields import _cascade, a_chain, f_products
from test_arm import random_config
from test_hyperspherical import ref_unit_and_jacobian


def endpoint_gap(ta, tb):
    return max(np.abs(ta.x0[-1] - tb.x0[-1]).max(),
               np.abs(ta.z[-1] - tb.z[-1]).max())


def scalar_block_rates(z, theta_n, vn, w):
    """Reference: embedded rates (dx0, dz rows) of one state, one row at a
    time; the head row rate goes through the chart frame at theta_n."""
    a = np.sum(z[:-1] * z[1:], axis=1)
    f = np.ones(a.size + 1)
    for i in range(a.size - 1, -1, -1):
        f[i] = f[i + 1] * a[i]
    v = f * vn
    dx0 = v[0] * z[0]
    dz = np.empty_like(z)
    if z.shape[0] > 1:
        dz[:-1] = v[1:, None] * (z[1:] - a[:, None] * z[:-1])
    _, jac = ref_unit_and_jacobian(theta_n)
    dz[-1] = jac[0] @ w
    return dx0, dz


def scalar_velocities(z, dx0, dz):
    """Reference: normal velocities <xdot_{i+1}, z_{i+1}> and the norms of
    each joint velocity off the segment ahead of it, for one state."""
    n1 = z.shape[0]
    xdot = np.empty((n1 + 1, z.shape[1]))
    xdot[0] = dx0
    for i in range(n1):
        xdot[i + 1] = xdot[i] + dz[i]
    v = np.sum(xdot[1:] * z, axis=1)
    along = np.sum(xdot[:-1] * z, axis=1)
    resid = np.linalg.norm(xdot[:-1] - along[:, None] * z, axis=1)
    return v, resid


def scalar_record_velocities(traj):
    """Reference (v, residuals) of a run, computed one record at a time."""
    out = [scalar_velocities(traj.z[j], *scalar_block_rates(
        traj.z[j], traj.theta_n[j], traj.vn[j], traj.w[j]))
        for j in range(len(traj))]
    return (np.array([o[0] for o in out]), np.array([o[1] for o in out]))


class TestCar:
    def test_straight_line(self):
        dims = arm.ArmDims(1, 2)
        q = sampling.collinear_config(dims)
        u = dyn.ControlSignal.constant(1.0, 0.0)
        tr = dyn.integrate_car(q, u, 1.0, dyn.IntegratorSettings(h=1e-3))
        assert np.abs(np.linalg.norm(tr.x0[-1] - tr.x0[0]) - 1.0) < 1e-12
        assert np.abs(tr.z - tr.z[0]).max() < 1e-12
        assert tr.drift_post.max() < 1e-12

    def test_orthogonal_joint_freezes_tail(self):
        # heading difference of pi/2 between trailers 0 and 1 kills the
        # cascade below it: the base point is instantaneously stationary
        # (its displacement is second order in time)
        dims = arm.ArmDims(1, 2)
        th = np.array([np.pi / 4, 3 * np.pi / 4, 3 * np.pi / 4])
        z = np.column_stack([np.sin(th), np.cos(th)])
        q = arm.AngularConfig(dims, np.zeros(2), z)
        u = dyn.ControlSignal.constant(1.0, 0.0)
        tr = dyn.integrate_car(q, u, 0.01, dyn.IntegratorSettings(h=1e-3))
        v = tr.v[tr.index_of(0.0)]
        assert abs(v[0]) < 1e-15
        assert abs(v[-1] - 1.0) < 1e-15
        assert np.abs(tr.x0 - tr.x0[0]).max() < 1e-4

    def test_initial_cascade_value(self):
        # headings (0, pi/3, pi/3), vn = 1: the base speed is cos(pi/3)
        dims = arm.ArmDims(1, 2)
        th = np.array([0.0, np.pi / 3, np.pi / 3])
        z = np.column_stack([np.sin(th), np.cos(th)])
        q = arm.AngularConfig(dims, np.zeros(2), z)
        u = dyn.ControlSignal.constant(1.0, 0.0)
        tr = dyn.integrate_car(q, u, 0.1, dyn.IntegratorSettings(h=1e-2))
        v = tr.v[tr.index_of(0.0)]
        assert v[0] == pytest.approx(0.5, abs=1e-12)
        assert v[-1] == pytest.approx(1.0, abs=1e-15)


class TestArm:
    def test_zero_controls_constant(self):
        rng = np.random.default_rng(0)
        for k, n in [(1, 2), (2, 2), (3, 1)]:
            q = sampling.random_regular_config(arm.ArmDims(k, n), rng,
                                               chart_margin=0.05)
            u = dyn.ControlSignal.constant(0.0, np.zeros(k))
            tr = dyn.integrate_arm(q, u, 1.0, dyn.IntegratorSettings(h=1e-2))
            assert np.abs(tr.x0 - tr.x0[0]).max() < 1e-15
            assert np.abs(tr.z - tr.z[0]).max() < 1e-15

    def test_matches_car_for_k1(self):
        rng = np.random.default_rng(1)
        dims = arm.ArmDims(1, 3)
        q = sampling.random_regular_config(dims, rng)
        s = dyn.IntegratorSettings(h=1e-3)
        for trial in range(2):
            u = dyn.ControlSignal.sinusoid(
                1, vn_amp=rng.uniform(0.3, 1.0), w_amp=rng.uniform(0.3, 1.0),
                freq=rng.uniform(0.2, 0.8), phase=rng.uniform(0, 6))
            ta = dyn.integrate_arm(q, u, 5.0, s)
            tc = dyn.integrate_car(q, u, 5.0, s)
            assert endpoint_gap(ta, tc) < 1e-10

    def test_drift_stays_tiny(self):
        rng = np.random.default_rng(2)
        dims = arm.ArmDims(2, 2)
        q = sampling.random_regular_config(dims, rng, chart_margin=0.1)
        u = dyn.ControlSignal.sinusoid(2, vn_amp=1.0, w_amp=0.6, freq=0.5)
        tr = dyn.integrate_arm(q, u, 2.0, dyn.IntegratorSettings(h=1e-3))
        assert tr.drift_post.max() < 1e-9

    def test_degenerate_head_chart_rejected_for_k2(self):
        dims = arm.ArmDims(2, 1)
        z = np.array([[1.0, 0, 0], [0.0, 0, 1]])  # head at the chart pole
        q = arm.AngularConfig(dims, np.zeros(3), z)
        u = dyn.ControlSignal.constant(1.0, [0.0, 0.0])
        with pytest.raises(ChartDegenerate):
            dyn.integrate_arm(q, u, 0.1, dyn.IntegratorSettings(h=1e-2))

    def test_step_rejection(self):
        rng = np.random.default_rng(3)
        dims = arm.ArmDims(2, 2)
        q = sampling.random_regular_config(dims, rng, chart_margin=0.1)
        u = dyn.ControlSignal.constant(300.0, [200.0, -150.0])
        with pytest.raises(StepRejected):
            dyn.integrate_arm(q, u, 1.0, dyn.IntegratorSettings(h=0.5))

    def test_horizon_edge_cases(self):
        rng = np.random.default_rng(4)
        dims = arm.ArmDims(2, 1)
        q = sampling.random_regular_config(dims, rng, chart_margin=0.1)
        u = dyn.ControlSignal.constant(1.0, [0.1, 0.1])
        tr0 = dyn.integrate_arm(q, u, 0.0, dyn.IntegratorSettings(h=1e-2))
        assert len(tr0) == 1 and tr0.times[0] == 0.0
        # step larger than the horizon clamps to one step of size T
        tr1 = dyn.integrate_arm(q, u, 0.005, dyn.IntegratorSettings(h=1e-2))
        assert len(tr1) == 2 and tr1.times[-1] == pytest.approx(0.005)

    def test_fourth_order_convergence(self):
        rng = np.random.default_rng(5)
        dims = arm.ArmDims(2, 2)
        q = sampling.random_regular_config(dims, rng, chart_margin=0.1)
        u = dyn.ControlSignal.sinusoid(2, vn_amp=1.0, w_amp=0.7, freq=0.7)
        ref = dyn.integrate_arm(q, u, 1.0, dyn.IntegratorSettings(h=1e-5))
        e1 = endpoint_gap(
            dyn.integrate_arm(q, u, 1.0, dyn.IntegratorSettings(h=2e-2)), ref)
        e2 = endpoint_gap(
            dyn.integrate_arm(q, u, 1.0, dyn.IntegratorSettings(h=1e-2)), ref)
        assert 8.0 < e1 / e2 < 32.0


class TestCartesian:
    def test_zero_controls_constant(self):
        rng = np.random.default_rng(6)
        dims = arm.ArmDims(2, 2)
        q = sampling.random_regular_config(dims, rng, chart_margin=0.1)
        c = arm.gamma_inverse(q)
        u = dyn.ControlSignal.constant(0.0, np.zeros(2))
        tr = dyn.integrate_cartesian(c, u, 0.5, dyn.IntegratorSettings(h=1e-2))
        # the per-step projection rebuild touches the points at rounding level
        assert np.abs(tr.points - tr.points[0]).max() < 1e-12

    def test_matches_arm_through_segment_map(self):
        rng = np.random.default_rng(7)
        dims = arm.ArmDims(2, 2)
        q = sampling.random_regular_config(dims, rng, chart_margin=0.2)
        u = dyn.ControlSignal.sinusoid(2, vn_amp=0.8, w_amp=[0.5, 0.4],
                                       freq=0.5)
        s = dyn.IntegratorSettings(h=1e-3)
        ta = dyn.integrate_arm(q, u, 1.0, s)
        tx = dyn.integrate_cartesian(arm.gamma_inverse(q), u, 1.0, s)
        assert endpoint_gap(ta, tx) < 1e-6

    def test_velocity_collinear_with_leading_segment(self):
        rng = np.random.default_rng(8)
        dims = arm.ArmDims(2, 2)
        q = sampling.random_regular_config(dims, rng, chart_margin=0.2)
        u = dyn.ControlSignal.sinusoid(2, vn_amp=1.0, w_amp=0.5, freq=0.4)
        tr = dyn.integrate_cartesian(arm.gamma_inverse(q), u, 1.0,
                                     dyn.IntegratorSettings(h=1e-3))
        assert dyn.collinearity_residuals(tr).max() < 1e-8

    def test_head_frame_formed_in_place(self, monkeypatch):
        # the head table in full chunks of HEAD_ROWS stages, then the
        # recorder's batched call; a return to one call per stage would
        # make 4,001
        calls = []

        def counted(theta):
            calls.append(np.shape(theta))
            return ref_unit_and_jacobian(theta)

        monkeypatch.setattr(hs, "unit_and_jacobian", counted)
        u = dyn.ControlSignal.sinusoid(2, vn_amp=0.8, w_amp=0.4, freq=0.5)
        q = sampling.collinear_config(arm.ArmDims(2, 2))
        tr = dyn.integrate_cartesian(arm.gamma_inverse(q), u, 1.0,
                                     dyn.IntegratorSettings(h=1e-3))
        assert len(tr) == 1001
        chunk, stages = dyn.HEAD_ROWS, 4 * 1000
        assert len(calls) <= -(-stages // chunk) + 1
        assert calls[-1] == (1001, 2)
        assert all(rows >= chunk for rows, _ in calls[:-2])
        assert sum(rows for rows, _ in calls[:-1]) == stages


class TestVelocities:
    def test_collinear_arm_uniform_cascade(self):
        dims = arm.ArmDims(2, 3)
        q = sampling.collinear_config(dims)
        u = dyn.ControlSignal.constant(1.0, np.zeros(2))
        tr = dyn.integrate_arm(q, u, 0.0, dyn.IntegratorSettings(h=1e-3))
        v, w = tr.v[tr.index_of(0.0)], tr.w[tr.index_of(0.0)]
        assert np.abs(v - 1.0).max() < 1e-12
        assert np.abs(w).max() == 0.0

    def test_forced_zero_alignment_kills_lower_velocities(self):
        rng = np.random.default_rng(9)
        dims = arm.ArmDims(2, 3)
        j = 2
        q = sampling.singular_config(dims, rng, index=j)
        u = dyn.ControlSignal.constant(1.0, [0.3, -0.2])
        tr = dyn.integrate_arm(q, u, 0.0, dyn.IntegratorSettings(h=1e-3))
        v = tr.v[tr.index_of(0.0)]
        assert np.abs(v[:j]).max() < 1e-9
        assert abs(v[-1] - 1.0) < 1e-12

    def test_cascade_identity_along_trajectory(self):
        rng = np.random.default_rng(10)
        dims = arm.ArmDims(2, 2)
        q = sampling.random_regular_config(dims, rng, chart_margin=0.2)
        u = dyn.ControlSignal.sinusoid(2, vn_amp=1.0, w_amp=0.5, freq=0.6)
        tr = dyn.integrate_arm(q, u, 2.0, dyn.IntegratorSettings(h=1e-3))
        assert dyn.cascade_residuals(tr).max() < 1e-8
        assert dyn.collinearity_residuals(tr).max() < 1e-8

    def test_report_requires_grid_time(self):
        dims = arm.ArmDims(1, 1)
        q = sampling.collinear_config(dims)
        u = dyn.ControlSignal.constant(1.0, 0.0)
        tr = dyn.integrate_arm(q, u, 1.0, dyn.IntegratorSettings(h=1e-2))
        with pytest.raises(ValueError):
            tr.index_of(0.0051)


class TestSubarm:
    def test_full_projection_is_identity(self):
        rng = np.random.default_rng(11)
        dims = arm.ArmDims(2, 3)
        q = sampling.random_regular_config(dims, rng, chart_margin=0.2)
        u = dyn.ControlSignal.sinusoid(2, vn_amp=0.8, w_amp=0.4, freq=0.4)
        s = dyn.IntegratorSettings(h=1e-3)
        full = dyn.integrate_arm(q, u, 0.5, s)
        sub = dyn.integrate_subarm(q, 1, 3, u, 0.5, s)
        assert np.abs(full.z - sub.z).max() == 0.0
        assert np.abs(full.x0 - sub.x0).max() == 0.0

    def test_zero_controls_constant(self):
        rng = np.random.default_rng(12)
        dims = arm.ArmDims(2, 3)
        q = sampling.random_regular_config(dims, rng, chart_margin=0.2)
        u = dyn.ControlSignal.constant(0.0, np.zeros(2))
        tr = dyn.integrate_subarm(q, 2, 3, u, 0.5,
                                  dyn.IntegratorSettings(h=1e-2))
        assert np.abs(tr.z - tr.z[0]).max() < 1e-15

    def test_projection_commutes_with_flow(self):
        rng = np.random.default_rng(13)
        dims = arm.ArmDims(2, 3)
        q = sampling.random_regular_config(dims, rng, chart_margin=0.2)
        u = dyn.ControlSignal.sinusoid(2, vn_amp=0.8, w_amp=0.4, freq=0.4)
        full = dyn.integrate_arm(q, u, 1.0, dyn.IntegratorSettings(h=5e-4))
        induced = dyn.induced_subarm_controls(full, 2, 3)
        sub = dyn.integrate_subarm(q, 2, 3, induced, 1.0,
                                   dyn.IntegratorSettings(h=1e-3))
        # the sub-arm view (x0', z') of every recorded state
        x0p = full.x0 + np.sum(full.z[:, :1], axis=1)
        zp = full.z[:, 1:4]
        idx = [full.index_of(t) for t in sub.times]
        assert np.abs(x0p[idx] - sub.x0).max() < 1e-6
        assert np.abs(zp[idx] - sub.z).max() < 1e-6

    def test_bad_indices_rejected(self):
        rng = np.random.default_rng(14)
        q = random_config(arm.ArmDims(2, 3), rng)
        u = dyn.ControlSignal.constant(1.0, np.zeros(2))
        with pytest.raises(ValueError):
            dyn.integrate_subarm(q, 2, 2, u, 1.0,
                                 dyn.IntegratorSettings(h=1e-2))

    def test_induced_controls_reject_off_grid_times(self):
        rng = np.random.default_rng(15)
        dims = arm.ArmDims(2, 3)
        q = sampling.random_regular_config(dims, rng, chart_margin=0.2)
        u = dyn.ControlSignal.constant(0.5, [0.1, 0.1])
        full = dyn.integrate_arm(q, u, 0.1, dyn.IntegratorSettings(h=1e-2))
        induced = dyn.induced_subarm_controls(full, 2, 3)
        with pytest.raises(ValueError):
            induced.v_n(0.0707)


class TestExport:
    def test_csv_and_json(self, tmp_path):
        rng = np.random.default_rng(16)
        dims = arm.ArmDims(2, 1)
        q = sampling.random_regular_config(dims, rng, chart_margin=0.1)
        u = dyn.ControlSignal.constant(1.0, [0.2, -0.1])
        tr = dyn.integrate_arm(q, u, 0.05, dyn.IntegratorSettings(h=1e-2),
                               seed=5)
        csv_path = tmp_path / "run.csv"
        json_path = tmp_path / "run.json"
        tr.to_csv(csv_path)
        tr.to_json(json_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# multiflag trajectory mode=arm")
        assert "seed=5" in lines[0]
        header = lines[1].split(",")
        assert header[0] == "t"
        assert header[1] == "x0_1"
        assert f"z{dims.n + 1}_{dims.k + 1}" in header
        assert header[-1] == f"v{dims.n}"
        assert len(lines) == 2 + len(tr)

        back = dyn.Trajectory.from_json(json_path)
        assert back.mode == tr.mode
        assert np.abs(back.z - tr.z).max() == 0.0
        assert np.abs(back.v - tr.v).max() == 0.0

    def test_deterministic_bytes(self, tmp_path):
        dims = arm.ArmDims(1, 2)
        q = sampling.collinear_config(dims)
        u = dyn.ControlSignal.constant(1.0, 0.3)
        outs = []
        for run in range(2):
            tr = dyn.integrate_arm(q, u, 0.2, dyn.IntegratorSettings(h=1e-3),
                                   seed=7)
            p = tmp_path / f"run{run}.csv"
            tr.to_csv(p)
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]


ORACLE_SHAPES = [(1, 3), (2, 0), (2, 5), (3, 1), (3, 4)]


def oracle_runs(k, n):
    """Short runs of every route that applies at (k, n), sine controls."""
    rng = np.random.default_rng(100 * k + n)
    q = sampling.random_regular_config(arm.ArmDims(k, n), rng,
                                       chart_margin=0.1)
    u = dyn.ControlSignal.sinusoid(k, vn_amp=0.9, w_amp=0.6, freq=0.7)
    s = dyn.IntegratorSettings(h=1e-2)
    runs = [dyn.integrate_arm(q, u, 0.5, s),
            dyn.integrate_cartesian(arm.gamma_inverse(q), u, 0.5, s)]
    if k == 1:
        runs.append(dyn.integrate_car(q, u, 0.5, s))
    if n >= 2:
        runs.append(dyn.integrate_subarm(q, 2, n, u, 0.5, s))
    return runs


class TestScalarOracle:
    @pytest.mark.parametrize("k, n", ORACLE_SHAPES)
    def test_batched_kernel_matches_per_record_loop(self, k, n):
        for tr in oracle_runs(k, n):
            v, resid = scalar_record_velocities(tr)
            assert np.array_equal(tr.v, v), tr.mode
            assert np.array_equal(dyn.collinearity_residuals(tr), resid), \
                tr.mode


def loop_induced_controls(traj, m):
    """Reference: the induced sub-arm controls (v_m, w) at every record,
    one record at a time, with the head frame of sphere m."""
    n = traj.dims.n
    out = []
    for z, vn, w in zip(traj.z, traj.vn, traj.w):
        a = np.sum(z[:-1] * z[1:], axis=1)
        if m == n:
            wv = w
        else:
            theta_m = hs.angles_from_unit(z[m])[0]
            b = (hs.frame_inverse(theta_m)[0] @ z[m + 1])[1:]
            wv = vn * np.prod(a[m + 1:]) * b
        out.append(np.concatenate([[vn * np.prod(a[m:])], wv]))
    return np.array(out)


class TestInducedControlsOracle:
    @pytest.mark.parametrize("k, n", [(1, 3), (2, 2), (2, 5), (3, 4)])
    def test_batched_controls_match_per_record_loop(self, k, n):
        rng = np.random.default_rng(40 + 10 * k + n)
        q = sampling.random_regular_config(arm.ArmDims(k, n), rng,
                                           chart_margin=0.1)
        u = dyn.ControlSignal.sinusoid(k, vn_amp=0.8, w_amp=0.4, freq=0.4)
        full = dyn.integrate_arm(q, u, 0.3, dyn.IntegratorSettings(h=1e-2))
        for p in range(1, n):
            for m in range(p + 1, n + 1):
                c = dyn.induced_subarm_controls(full, p, m)
                got = np.array([[c.v_n(t), *c.w(t)] for t in full.times])
                want = loop_induced_controls(full, m)
                assert np.abs(got - want).max() <= 1e-14, (p, m)

    def test_degenerate_frame_raises_like_the_loop(self):
        # z_3 sits at a pole of the sphere-2 chart, which only m = 2 reads
        dims = arm.ArmDims(2, 4)
        z = np.array([[1.0, 0, 0], [0.6, 0.8, 0], [0, 0, 1.0],
                      [0, 0.6, 0.8], [0.8, 0, 0.6]])
        q = arm.AngularConfig(dims, np.zeros(3), z)
        u = dyn.ControlSignal.constant(0.5, [0.1, -0.2])
        full = dyn.integrate_arm(q, u, 0.02, dyn.IntegratorSettings(h=1e-2))
        with pytest.raises(ChartDegenerate):
            loop_induced_controls(full, 2)
        with pytest.raises(ChartDegenerate):
            dyn.induced_subarm_controls(full, 1, 2)
        for m in (3, 4):
            c = dyn.induced_subarm_controls(full, 1, m)
            got = np.array([[c.v_n(t), *c.w(t)] for t in full.times])
            assert np.abs(got - loop_induced_controls(full, m)).max() <= 1e-14


class TestHeadChartPole:
    """The head passes through a pole of its chart: with vn = 0 and
    w = (3, 0) the first head angle of a straight arm sweeps through pi."""

    def test_cartesian_matches_arm_through_the_pole(self):
        q = sampling.collinear_config(arm.ArmDims(2, 1))
        u = dyn.ControlSignal.constant(0.0, [3.0, 0.0])
        s = dyn.IntegratorSettings(h=1e-3)
        ta = dyn.integrate_arm(q, u, 2.0, s)
        tx = dyn.integrate_cartesian(arm.gamma_inverse(q), u, 2.0, s)
        assert np.abs(np.sin(ta.theta_n[:, 0])).min() < 1e-2
        assert np.array_equal(tx.theta_n, ta.theta_n)
        assert np.abs(tx.z - ta.z).max() < 1e-10
        assert np.abs(tx.x0 - ta.x0).max() < 1e-10
        assert np.abs(tx.v - ta.v).max() < 1e-10

    def test_head_angle_read_back_below_two_pi(self):
        # arctan2 of (-1e-17, 1) is -1e-17, which % 2 pi rounds up to
        # exactly 2 pi; the head's periodic angle must read back as 0
        head = np.array([-1e-17, 1.0])
        assert hs.angles_from_unit(head)[0, 0] == 0.0
        q = arm.AngularConfig(arm.ArmDims(1, 1), np.zeros(2),
                              [[0.0, 1.0], head])
        u = dyn.ControlSignal.constant(0.5, [0.3])
        s = dyn.IntegratorSettings(h=1e-3)
        ta = dyn.integrate_arm(q, u, 0.0, s)
        tx = dyn.integrate_cartesian(arm.gamma_inverse(q), u, 0.0, s)
        assert ta.theta_n[0, 0] == tx.theta_n[0, 0] == 0.0


# ---------------------------------------------------------------------------
# reference stepper: the control calls, right-hand sides and projections of
# one stage at a time, as the stepper worked before it tabled the controls
# ---------------------------------------------------------------------------

def ref_controls_at(u, t, k):
    vn = float(u.v_n(t))
    w = np.asarray(u.w(t), dtype=float).reshape(-1)
    if w.size != k:
        raise ValueError(f"tangential control must have {k} components")
    return vn, w


def ref_unit_rows(rows):
    norms = np.linalg.norm(rows, axis=1)
    return rows / norms[:, None], float(np.max(np.abs(norms - 1.0)))


def ref_rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ref_steps(T, h):
    if T == 0.0:
        return []
    if h >= T:
        return [T]
    full = int(np.floor(T / h + 1e-12))
    rem = T - full * h
    return [h] * full + ([rem] if rem > 1e-12 * max(1.0, T) else [])


def ref_arm_route(q0, u):
    dims = q0.dims
    k1, n = dims.ambient, dims.n
    body = slice(k1, k1 + n * k1)

    def view(states):
        m = states.shape[0]
        theta_n = states[:, body.stop:]
        head = hs.unit_from_angles(theta_n)[:, None]
        z = np.concatenate([states[:, body].reshape(m, n, k1), head], axis=1)
        return {"x0": states[:, :k1], "z": z, "theta_n": theta_n}

    def rhs(t, y):
        vn, w = ref_controls_at(u, t, dims.k)
        dx0, dz = _cascade(view(y[None])["z"], np.array([vn]))
        return np.concatenate([dx0[0], dz[0].reshape(-1), w])

    def project(y, apply):
        if n == 0:
            return y, 0.0
        unit, drift = ref_unit_rows(y[body].reshape(n, k1))
        if apply:
            y = y.copy()
            y[body] = unit.reshape(-1)
        return y, drift

    y0 = np.concatenate([q0.x0, q0.z[:-1].reshape(-1), q0.angles(n)])
    return rhs, project, y0, view


def ref_car_route(q0, u):
    n = q0.dims.n

    def rhs(t, y):
        vn, w = ref_controls_at(u, t, 1)
        th = y[2:]
        diffs = th[1:] - th[:-1]
        v = f_products(np.cos(diffs), n) * vn
        return np.concatenate([[v[0] * np.cos(th[0]), v[0] * np.sin(th[0])],
                               v[1:] * np.sin(diffs), w])

    def project(y, apply):
        return y, 0.0

    return rhs, project, dyn.car_state_from_config(q0), dyn._car_view


def ref_cartesian_route(q0, u):
    dims = q0.dims
    k1, n = dims.ambient, dims.n
    positions = slice(0, dims.cartesian_dim)

    def view(states):
        x = states[:, positions].reshape(states.shape[0], dims.joints, k1)
        z = np.diff(x, axis=1)
        return {"x0": x[:, 0],
                "z": z / np.linalg.norm(z, axis=2)[:, :, None],
                "theta_n": states[:, positions.stop:], "points": x}

    def rhs(t, y):
        vn, w = ref_controls_at(u, t, dims.k)
        z = np.diff(y[positions].reshape(dims.joints, k1), axis=0)
        _, jac = ref_unit_and_jacobian(y[positions.stop:])
        head = vn * (z[n] / np.linalg.norm(z[n])) + jac[0] @ w
        f = f_products(a_chain(z), n)
        lead = float(head @ z[n])
        return np.concatenate([(lead * f[:, None] * z).reshape(-1), head, w])

    def project(y, apply):
        x = y[positions].reshape(dims.joints, k1)
        unit, drift = ref_unit_rows(np.diff(x, axis=0))
        if apply:
            y = y.copy()
            y[positions] = np.vstack([x[0], x[0] + np.cumsum(unit, axis=0)]
                                     ).reshape(-1)
        return y, drift

    head0 = q0.segments()[n]
    theta0 = hs.angles_from_unit(head0 / np.linalg.norm(head0))
    return rhs, project, np.concatenate([q0.flat(), theta0[0]]), view


def ref_run(route, q0, u, T, settings):
    """The recorded arrays of a run of the reference stepper."""
    rhs, project, y0, view = route(q0, u)
    steps = ref_steps(T, settings.h)
    times = np.zeros(len(steps) + 1)
    states = np.empty((times.size, y0.size))
    drift_pre = np.zeros(times.size)
    drift_post = np.zeros(times.size)
    states[0] = y0
    t, y = 0.0, y0
    for j, h in enumerate(steps, start=1):
        y_raw = ref_rk4_step(rhs, t, y, h)
        if not np.all(np.isfinite(y_raw)):
            raise StepRejected(f"non-finite state at t={t + h:g}")
        y, drift_pre[j] = project(y_raw, apply=settings.projection)
        if drift_pre[j] > dyn.MAX_STEP_DRIFT:
            raise StepRejected(
                f"constraint drift {drift_pre[j]:.3e} in one step "
                f"at t={t + h:g}")
        _, drift_post[j] = project(y, apply=False)
        t = t + h
        times[j], states[j] = t, y
    out = view(states)
    k = out["theta_n"].shape[1]
    controls = [ref_controls_at(u, t, k) for t in times]
    out.update(times=times, drift_pre=drift_pre, drift_post=drift_post,
               vn=np.array([c[0] for c in controls]),
               w=np.array([c[1] for c in controls]))
    out["v"] = np.sum(dyn._joint_velocities(
        out["z"], out["theta_n"], out["vn"], out["w"])[:, 1:] * out["z"],
        axis=2)
    return out


def table_controls(k, rng):
    t = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.3, 6)), [0.31]])
    return dyn.ControlSignal.from_table(t, rng.uniform(-1, 1, t.size),
                                        rng.uniform(-1, 1, (t.size, k)))


def cartesian_route(k, n):
    return (k, n, lambda q, u, T, s: dyn.integrate_cartesian(
        arm.gamma_inverse(q), u, T, s), ref_cartesian_route,
        arm.gamma_inverse)


ROUTES = {
    "arm": (2, 3, lambda q, u, T, s: dyn.integrate_arm(q, u, T, s),
            ref_arm_route, lambda q: q),
    "arm-n0": (3, 0, lambda q, u, T, s: dyn.integrate_arm(q, u, T, s),
               ref_arm_route, lambda q: q),
    "car": (1, 3, lambda q, u, T, s: dyn.integrate_car(q, u, T, s),
            ref_car_route, lambda q: q),
    # the head-frame plan differs with k: one Cartesian run per sphere
    "cartesian": cartesian_route(2, 2),
    "cartesian-k1n3": cartesian_route(1, 3),
    "cartesian-k3n2": cartesian_route(3, 2),
    "cartesian-k4n1": cartesian_route(4, 1),
    "cartesian-k5n0": cartesian_route(5, 0),
    "subarm": (2, 4, lambda q, u, T, s: dyn.integrate_subarm(
        q, 2, 3, u, T, s), ref_arm_route,
        lambda q: dyn.project_subarm(q, 2, 3)),
}
RECORDED = ("times", "x0", "z", "theta_n", "vn", "w", "v", "drift_pre",
            "drift_post", "points")


def assert_same_run(tr, ref):
    for key in RECORDED:
        if key in ref or getattr(tr, key) is not None:
            assert np.array_equal(getattr(tr, key), ref[key]), key


class TestReferenceStepper:
    """The tabled-control core against the stage-at-a-time stepper: every
    recorded array equal, bit for bit."""

    @pytest.mark.parametrize("T", [0.1, 0.1037, 0.0])
    @pytest.mark.parametrize("projection", [True, False])
    @pytest.mark.parametrize("controls", ["constant", "sine", "table"])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_runs_match(self, route, controls, projection, T):
        k, n, run, ref_route, ref_start = ROUTES[route]
        rng = np.random.default_rng(len(route) + 7 * len(controls))
        q = sampling.random_regular_config(arm.ArmDims(k, n), rng,
                                           chart_margin=0.1)
        u = {"constant": lambda: dyn.ControlSignal.constant(
                 0.7, rng.uniform(-1, 1, k)),
             "sine": lambda: dyn.ControlSignal.sinusoid(
                 k, vn_amp=0.9, w_amp=rng.uniform(-1, 1, k), freq=0.7,
                 phase=0.3),
             "table": lambda: table_controls(k, rng)}[controls]()
        s = dyn.IntegratorSettings(h=1e-2, projection=projection)
        tr = run(q, u, T, s)
        assert len(tr) == {0.1: 11, 0.1037: 12, 0.0: 1}[T]
        assert_same_run(tr, ref_run(ref_route, ref_start(q), u, T, s))

    def test_subarm_with_induced_controls(self):
        rng = np.random.default_rng(21)
        q = sampling.random_regular_config(arm.ArmDims(2, 4), rng,
                                           chart_margin=0.1)
        u = dyn.ControlSignal.sinusoid(2, vn_amp=0.8, w_amp=0.4, freq=0.4)
        full = dyn.integrate_arm(q, u, 0.2, dyn.IntegratorSettings(h=5e-3))
        induced = dyn.induced_subarm_controls(full, 2, 3)
        s = dyn.IntegratorSettings(h=1e-2)
        tr = dyn.integrate_subarm(q, 2, 3, induced, 0.2, s)
        assert_same_run(tr, ref_run(ref_arm_route, dyn.project_subarm(q, 2, 3),
                                    induced, 0.2, s))

    # (route, vn and w after the jump, message); w = 1e308 keeps every
    # stage angle finite, only the head increment w1 + 2 w2 + 2 w2 + w4
    # overflows
    REJECTED = [("arm", 1e4, 0.2, "constraint drift"),
                ("cartesian", 1e4, 0.2, "constraint drift"),
                ("arm", np.inf, 0.2, "non-finite state"),
                ("cartesian", np.inf, 0.2, "non-finite state"),
                ("car", np.inf, 0.2, "non-finite state"),
                ("arm", 0.5, 1e308, "non-finite state"),
                ("cartesian", 0.5, 1e308, "non-finite state"),
                ("car", 0.5, 1e308, "non-finite state")]

    @pytest.mark.parametrize("route, vn, w, message", REJECTED, ids=[
        f"{r}-{v if w == 0.2 else f'w{w:g}'}-{m}" for r, v, w, m in REJECTED])
    def test_rejections_match(self, route, vn, w, message):
        # the controls jump after t = 0.03: the step ending at 0.04 is
        # refused
        k, n, run, ref_route, ref_start = ROUTES[route]
        rng = np.random.default_rng(22)
        q = sampling.random_regular_config(arm.ArmDims(k, n), rng,
                                           chart_margin=0.1)
        u = dyn.ControlSignal(
            lambda t: np.where(np.asarray(t) > 0.03, vn, 0.5),
            lambda t: np.where(np.asarray(t)[..., None] > 0.03,
                               np.full(np.shape(t) + (k,), w), 0.2))
        s = dyn.IntegratorSettings(h=1e-2)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(StepRejected) as got:
                run(q, u, 0.1, s)
            with pytest.raises(StepRejected) as want:
                ref_run(ref_route, ref_start(q), u, 0.1, s)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(message)
        assert str(got.value).endswith("at t=0.04")
        # at T = 0 no step is taken and the head table is empty
        assert_same_run(run(q, u, 0.0, s),
                        ref_run(ref_route, ref_start(q), u, 0.0, s))


def stage_times(T, h):
    """Every stage time of a run, in stepping order: t, t + h/2, t + h."""
    out, t = [], 0.0
    for step in ref_steps(T, h):
        out += [t, t + 0.5 * step, t + step]
        t = t + step
    return np.array(out)


class TestControlContract:
    """One call on an array of times gives exactly the per-time calls."""

    def assert_array_call_is_scalar_calls(self, u, times, k):
        vn, w = u.v_n(times), u.w(times)
        assert vn.shape == times.shape and w.shape == times.shape + (k,)
        assert np.array_equal(vn, [float(u.v_n(t)) for t in times.tolist()])
        assert np.array_equal(w, [u.w(t) for t in times.tolist()])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_presets_and_table(self, k):
        rng = np.random.default_rng(30 + k)
        times = stage_times(1.3337, 1e-3)  # 4,002 stage times
        assert times.size > 4000
        signals = [
            dyn.ControlSignal.constant(rng.uniform(-1, 1),
                                       rng.uniform(-1, 1, k)),
            dyn.ControlSignal.sinusoid(k, vn_amp=0.8,
                                       w_amp=[0.4, 0.3, 0.2][:k], freq=0.5),
            dyn.ControlSignal.sinusoid(k, vn_amp=rng.uniform(0.3, 1),
                                       w_amp=rng.uniform(-1, 1, k),
                                       freq=rng.uniform(0.2, 3),
                                       phase=rng.uniform(0, 6)),
            table_controls(k, rng)]
        for u in signals:
            self.assert_array_call_is_scalar_calls(u, times, k)

    def test_induced_subarm_controls(self):
        rng = np.random.default_rng(34)
        q = sampling.random_regular_config(arm.ArmDims(2, 4), rng,
                                           chart_margin=0.1)
        u = dyn.ControlSignal.sinusoid(2, vn_amp=0.8, w_amp=0.4, freq=0.4)
        full = dyn.integrate_arm(q, u, 0.3337, dyn.IntegratorSettings(h=5e-4))
        for p, m in [(1, 2), (2, 3), (2, 4)]:
            induced = dyn.induced_subarm_controls(full, p, m)
            self.assert_array_call_is_scalar_calls(
                induced, stage_times(0.3, 1e-3), 2)
            with pytest.raises(ValueError, match="not on the recorded grid"):
                induced.v_n(0.0707)
            with pytest.raises(ValueError, match="time 0.0707 is not"):
                induced.w(np.array([0.0, 0.0005, 0.0707, 0.1001]))

    def test_wrong_width_refused(self, tmp_path, monkeypatch, capsys):
        q = sampling.collinear_config(arm.ArmDims(2, 1))
        u = dyn.ControlSignal.constant(1.0, [0.1, 0.2, 0.3])
        with pytest.raises(ValueError,
                           match="tangential control must have 2 components"):
            dyn.integrate_arm(q, u, 0.1, dyn.IntegratorSettings(h=1e-2))
        per_time = dyn.ControlSignal(lambda t: 1.0, lambda t: np.zeros(2))
        with pytest.raises(ValueError, match="array of M times"):
            dyn.integrate_arm(q, per_time, 0.1, dyn.IntegratorSettings(h=1e-2))
        monkeypatch.setattr(dyn.ControlSignal, "sinusoid", staticmethod(
            lambda k, **kw: dyn.ControlSignal.constant(1.0, np.ones(k + 1))))
        rc = cli.main(["simulate", "--k", "2", "--n", "1", "--controls",
                       "sine", "--T", "0.1", "--out", str(tmp_path / "w")])
        assert rc == 2
        assert "tangential control must have 2 components" in \
            capsys.readouterr().err

    def test_controls_are_tabled_once_per_run(self):
        # a return to per-stage control calls would make 4,000 of each
        base = dyn.ControlSignal.sinusoid(2, vn_amp=0.8, w_amp=0.4, freq=0.5)
        calls = {"v_n": 0, "w": 0}

        def counted(name, fn):
            def call(t):
                calls[name] += 1
                return fn(t)
            return call

        u = dyn.ControlSignal(counted("v_n", base.v_n), counted("w", base.w))
        q = sampling.collinear_config(arm.ArmDims(2, 2))
        tr = dyn.integrate_arm(q, u, 1.0, dyn.IntegratorSettings(h=1e-3))
        assert len(tr) == 1001
        assert calls["v_n"] <= 2 and calls["w"] <= 2


class TestJsonWriter:
    """`to_json` and the report writer stream through the C encoder and
    write the bytes of `json.dump(..., sort_keys=True)`."""

    @staticmethod
    def listed(tr):
        """The trajectory's JSON object with every array as nested lists."""
        return {key: val.tolist() if isinstance(val, np.ndarray) else val
                for key, val in tr._payload().items()}

    @staticmethod
    def dumped(obj, path):
        with open(path, "w") as fh:
            json.dump(obj, fh, sort_keys=True)
            fh.write("\n")
        return path.read_bytes()

    @pytest.mark.parametrize("route", ["arm", "cartesian"])
    def test_trajectory_bytes(self, tmp_path, route):
        rng = np.random.default_rng(35)
        q = sampling.random_regular_config(arm.ArmDims(2, 3), rng,
                                           chart_margin=0.1)
        u = dyn.ControlSignal.sinusoid(2, vn_amp=0.8, w_amp=0.4, freq=0.5)
        tr = ROUTES[route][2](q, u, 0.6, dyn.IntegratorSettings(h=1e-3))
        assert len(tr) > 2 * JSON_ROWS
        tr.to_json(tmp_path / "run.json")
        assert (tmp_path / "run.json").read_bytes() == \
            self.dumped(self.listed(tr), tmp_path / "ref.json")

    def test_verify_payload_bytes(self, tmp_path):
        rng = np.random.default_rng(36)
        dims = arm.ArmDims(2, 2)
        qs = [sampling.random_regular_config(dims, rng) for _ in range(3)]
        qs.append(sampling.singular_config(dims, rng, index=1))
        payload = {"k": 2, "n": 2, "seed": None, "samples": 3,
                   "basis": "projected", "singular_samples": 1,
                   "reports": [r.to_dict() for r in flags.verify_flags(qs)]}
        _write_json(tmp_path / "out.json", payload)
        assert (tmp_path / "out.json").read_bytes() == \
            self.dumped(payload, tmp_path / "ref.json")

    def test_peak_memory_bounded(self, tmp_path):
        rng = np.random.default_rng(37)
        q = sampling.random_regular_config(arm.ArmDims(2, 5), rng,
                                           chart_margin=0.1)
        u = dyn.ControlSignal.sinusoid(2, vn_amp=0.8, w_amp=0.4, freq=0.5)
        tr = dyn.integrate_arm(q, u, 1.0, dyn.IntegratorSettings(h=1e-3))
        peaks = []
        tracemalloc.start()
        try:
            for write in (lambda: self.dumped(self.listed(tr),
                                              tmp_path / "ref.json"),
                          lambda: tr.to_json(tmp_path / "run.json")):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                write()
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 0.25 * 2**20

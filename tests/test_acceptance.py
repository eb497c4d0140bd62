"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with -s to see them)."""

import time

import numpy as np
import pytest

from multiflag import arm
from multiflag import dynamics as dyn
from multiflag import fields as fl
from multiflag import flags as fg
from multiflag import hyperspherical as hs
from multiflag import sampling
from multiflag.numerics import svd_rank

SHAPES = [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2)]
SAMPLES_PER_SHAPE = 100


def announce(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def flag_reports():
    """verify_flags at 100 regular samples per shape, plus the wall time of
    the rank computations alone."""
    reports = {}
    rng = np.random.default_rng(2024)
    rank_seconds = 0.0
    for k, n in SHAPES:
        dims = arm.ArmDims(k, n)
        qs = [sampling.random_regular_config(dims, rng)
              for _ in range(SAMPLES_PER_SHAPE)]
        t0 = time.perf_counter()
        for q in qs:
            for m in range(1, n + 2):
                d, e = fg.build_level(dims, m)
                for flds in (d, e):
                    svd_rank(np.vstack([f.at(q.flat()) for f in flds]))
        rank_seconds += time.perf_counter() - t0
        reports[(k, n)] = fg.verify_flags(qs)
    return reports, rank_seconds


def test_criterion_1_flag_ranks(flag_reports):
    reports, rank_seconds = flag_reports
    bad = []
    for (k, n), reps in reports.items():
        for rep in reps:
            for lv in rep.levels:
                if lv.rank_d != (n - lv.m + 2) * k + 1:
                    bad.append((k, n, lv.m, "D", lv.rank_d))
                if lv.rank_e != (n - lv.m + 2) * k:
                    bad.append((k, n, lv.m, "E", lv.rank_e))
    ok = not bad and rank_seconds < 60.0
    announce(1, "flag ranks at regular points", ok,
             f"{sum(len(r) for r in reports.values())} points, "
             f"rank pass in {rank_seconds:.1f}s")
    assert not bad, bad[:5]
    assert rank_seconds < 60.0


def test_criterion_2_derived_flag(flag_reports):
    reports, _ = flag_reports
    worst_angle = 0.0
    bad = []
    for (k, n), reps in reports.items():
        for rep in reps:
            for d in rep.derived:
                worst_angle = max(worst_angle, d.angle)
                if d.rank != d.expected_rank or d.angle >= 1e-6:
                    bad.append((k, n, d.m, d.rank, d.angle))
    ok = not bad
    announce(2, "derived spans equal the next level", ok,
             f"worst principal angle {worst_angle:.2e}")
    assert not bad, bad[:5]


def test_criterion_3_involutivity_and_inclusion(flag_reports):
    reports, _ = flag_reports
    worst_inv = 0.0
    worst_cauchy = 0.0
    for reps in reports.values():
        for rep in reps:
            for lv in rep.levels:
                worst_inv = max(worst_inv, lv.involutivity_e)
                if lv.cauchy_residual is not None:
                    worst_cauchy = max(worst_cauchy, lv.cauchy_residual)
    ok = worst_inv < 1e-6 and worst_cauchy < 1e-6
    announce(3, "sublevel involutivity and characteristic inclusion", ok,
             f"involutivity {worst_inv:.2e}, inclusion {worst_cauchy:.2e}")
    assert worst_inv < 1e-6
    assert worst_cauchy < 1e-6


def test_criterion_4_goursat_reduction(flag_reports):
    reports, _ = flag_reports
    dims = arm.ArmDims(1, 3)
    dim = dims.angular_dim
    bad = []
    for rep in reports[(1, 3)]:
        coranks = {lv.m: dim - lv.rank_d for lv in rep.levels}
        if coranks != {1: 1, 2: 2, 3: 3, 4: 4}:
            bad.append(("coranks", coranks))
        ranks_d = {lv.m: lv.rank_d for lv in rep.levels}
        ranks_e = {lv.m: lv.rank_e for lv in rep.levels}
        for m in range(1, dims.n + 1):
            if ranks_e[m + 1] != ranks_d[m] - 2:
                bad.append(("sandwich", m, ranks_e[m + 1], ranks_d[m]))
    ok = not bad
    announce(4, "width-one reduction: coranks 1..4 and rank(E^{m+1}) = "
                "rank(D^m) - 2", ok, f"{len(reports[(1, 3)])} points")
    assert not bad, bad[:5]


def test_criterion_5_planar_equivalence():
    rng = np.random.default_rng(55)
    dims = arm.ArmDims(1, 3)
    s = dyn.IntegratorSettings(h=1e-3)
    worst = 0.0
    for preset in range(10):
        q = sampling.random_regular_config(dims, rng)
        u = dyn.ControlSignal.sinusoid(
            1, vn_amp=rng.uniform(0.3, 1.0), w_amp=rng.uniform(0.3, 1.0),
            freq=rng.uniform(0.2, 0.8), phase=rng.uniform(0, 2 * np.pi))
        ta = dyn.integrate_arm(q, u, 5.0, s)
        tc = dyn.integrate_car(q, u, 5.0, s)
        gap = max(np.abs(ta.x0[-1] - tc.x0[-1]).max(),
                  np.abs(ta.z[-1] - tc.z[-1]).max())
        worst = max(worst, gap)
    ok = worst < 1e-10
    announce(5, "planar cascade equals the general system at k=1", ok,
             f"worst endpoint gap {worst:.2e} over 10 presets")
    assert worst < 1e-10


def test_criterion_6_chart_cartesian_equivalence():
    rng = np.random.default_rng(66)
    dims = arm.ArmDims(2, 2)
    s = dyn.IntegratorSettings(h=1e-3)
    worst_gap = 0.0
    for _ in range(3):
        q = sampling.random_regular_config(dims, rng, chart_margin=0.2)
        u = dyn.ControlSignal.sinusoid(
            2, vn_amp=rng.uniform(0.4, 0.9), w_amp=rng.uniform(0.2, 0.5, 2),
            freq=rng.uniform(0.3, 0.7))
        ta = dyn.integrate_arm(q, u, 1.0, s)
        tx = dyn.integrate_cartesian(arm.gamma_inverse(q), u, 1.0, s)
        gap = max(np.abs(ta.x0[-1] - tx.x0[-1]).max(),
                  np.abs(ta.z[-1] - tx.z[-1]).max())
        worst_gap = max(worst_gap, gap)
    worst_angle = 0.0
    for _ in range(100):
        q = sampling.random_regular_config(dims, rng, chart_margin=0.05)
        worst_angle = max(worst_angle,
                          fl.pushforward_check(arm.gamma_inverse(q)))
    ok = worst_gap < 1e-6 and worst_angle < 1e-7
    announce(6, "Cartesian flow matches the angular system", ok,
             f"endpoint gap {worst_gap:.2e}, pushforward angle "
             f"{worst_angle:.2e} at 100 points")
    assert worst_gap < 1e-6
    assert worst_angle < 1e-7


def test_criterion_7_constraint_and_collinearity():
    rng = np.random.default_rng(77)
    dims = arm.ArmDims(2, 2)
    s = dyn.IntegratorSettings(h=1e-3)
    q = sampling.random_regular_config(dims, rng, chart_margin=0.3)
    u = dyn.ControlSignal.sinusoid(2, vn_amp=0.7, w_amp=[0.25, 0.2],
                                   freq=0.3)
    drift = 0.0
    resid = 0.0
    tr_arm = dyn.integrate_arm(q, u, 10.0, s)
    drift = max(drift, tr_arm.drift_post.max())
    resid = max(resid, dyn.collinearity_residuals(tr_arm).max())
    tr_car = dyn.integrate_cartesian(arm.gamma_inverse(q), u, 10.0, s)
    drift = max(drift, tr_car.drift_post.max())
    resid = max(resid, dyn.collinearity_residuals(tr_car).max())
    ok = drift < 1e-9 and resid < 1e-8
    announce(7, "unit segments and velocity collinearity conserved", ok,
             f"drift {drift:.2e}, off-direction residual {resid:.2e} "
             f"over T=10")
    assert drift < 1e-9
    assert resid < 1e-8


def test_criterion_8_velocity_cascade():
    rng = np.random.default_rng(88)
    dims = arm.ArmDims(2, 2)
    q = sampling.random_regular_config(dims, rng, chart_margin=0.3)
    u = dyn.ControlSignal.sinusoid(2, vn_amp=0.9, w_amp=0.3, freq=0.4)
    tr = dyn.integrate_arm(q, u, 10.0, dyn.IntegratorSettings(h=1e-3))
    cascade = dyn.cascade_residuals(tr).max()

    dims3 = arm.ArmDims(2, 3)
    j = 2
    qs = sampling.singular_config(dims3, rng, index=j)
    us = dyn.ControlSignal.constant(1.0, [0.4, -0.3])
    tr0 = dyn.integrate_arm(qs, us, 0.0, dyn.IntegratorSettings(h=1e-3))
    v = tr0.v[tr0.index_of(0.0)]
    stalled = np.abs(v[:j]).max()
    ok = cascade < 1e-8 and stalled < 1e-9
    announce(8, "normal-velocity cascade and stalled joints", ok,
             f"cascade residual {cascade:.2e}, "
             f"|v_i| below the orthogonal joint {stalled:.2e}")
    assert cascade < 1e-8
    assert stalled < 1e-9


def test_criterion_9_chart_unit_checks():
    rng = np.random.default_rng(99)
    worst_det = 0.0
    count = 0
    while count < 1000:
        k = int(rng.integers(1, 5))
        th = np.concatenate([rng.uniform(0.01, np.pi - 0.01, k - 1),
                             rng.uniform(0, 2 * np.pi, 1)])
        rho = rng.uniform(0.2, 3.0)
        num = np.linalg.det(hs.jacobian(rho, th))
        ref = hs.jacobian_det(rho, th)
        worst_det = max(worst_det, abs(num - ref) / max(abs(ref), 1e-300))
        count += 1
    worst_rec = 0.0
    worst_inv = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 5))
        th = np.concatenate([rng.uniform(0.05, np.pi - 0.05, k - 1),
                             rng.uniform(0, 2 * np.pi, 1)])
        th2 = np.concatenate([rng.uniform(0.0, np.pi, k - 1),
                              rng.uniform(0, 2 * np.pi, 1)])
        a, b = hs.frame_change(th, th2)
        nu, jac = hs.unit_and_jacobian(th)
        rec = a * nu[0] + b @ jac[0].T
        worst_rec = max(worst_rec,
                        np.abs(rec - hs.unit_from_angles(th2)).max())
        prod = hs.frame_inverse(th)[0] @ hs.jacobian(1.0, th)
        worst_inv = max(worst_inv, np.abs(prod - np.eye(k + 1)).max())
    ok = worst_det < 1e-8 and worst_rec < 1e-9 and worst_inv < 1e-8
    announce(9, "chart determinant, frame reconstruction, inverse", ok,
             f"det rel {worst_det:.2e}, reconstruction {worst_rec:.2e}, "
             f"inverse {worst_inv:.2e}")
    assert worst_det < 1e-8
    assert worst_rec < 1e-9
    assert worst_inv < 1e-8


def test_criterion_10_subarm_consistency():
    rng = np.random.default_rng(1010)
    dims = arm.ArmDims(2, 3)
    p, m = 2, 3
    q = sampling.random_regular_config(dims, rng, chart_margin=0.2)
    u = dyn.ControlSignal.sinusoid(2, vn_amp=0.8, w_amp=[0.4, 0.3], freq=0.4)
    full = dyn.integrate_arm(q, u, 1.0, dyn.IntegratorSettings(h=5e-4))
    induced = dyn.induced_subarm_controls(full, p, m)
    sub = dyn.integrate_subarm(q, p, m, induced, 1.0,
                               dyn.IntegratorSettings(h=1e-3))
    # the sub-arm view (x0', z') of every recorded state
    x0p = full.x0 + np.sum(full.z[:, :p - 1], axis=1)
    zp = full.z[:, p - 1:m + 1]
    idx = [full.index_of(t) for t in sub.times]
    gap = max(np.abs(x0p[idx] - sub.x0).max(),
              np.abs(zp[idx] - sub.z).max())
    ok = gap < 1e-6
    announce(10, "projected full trajectory matches the driven sub-arm", ok,
             f"worst state gap {gap:.2e} (k=2, n=3, p=2, m=3)")
    assert gap < 1e-6

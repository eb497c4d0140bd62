import builtins
import json
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from multiflag import arm, cli
from multiflag import dynamics as dyn
from multiflag import fields as fl
from multiflag import flags as fg
from multiflag import hyperspherical as hs
from multiflag import sampling
from multiflag.errors import ChartDegenerate
from multiflag.numerics import orthonormal_rows, subspace_angle, svd_rank
from test_arm import random_config
from test_fields import car_x1_field, car_x2_field


def sphere_tangent_fields(dims, sphere):
    """The k projected-axis fields spanning the tangent of `sphere`."""
    return [fl.sphere_axis_field(dims, sphere, slot)
            for slot in range(dims.k)]


def chart_delta_basis(q, m):
    """Cross-check basis of the steering plane of joint m-1: the k+1
    combinations (k+1, D) of {X_{m-1}^0, X_{m-1}^r} with chart-frame
    coefficients; the span is what matters (coefficient normalization drops
    out of it)."""
    if not 1 <= m <= q.dims.n:
        raise IndexError("needs 1 <= m <= n")
    dims = q.dims
    point = q.flat()
    theta = q.angles(m - 1)
    val, jac = hs.unit_and_jacobian(theta)
    norms = hs.frame_norms(theta)
    x0v = fl.x0_field(dims, m - 1).at(point)
    xiv = [fl.xi_field(dims, m - 1, i).at(point) for i in range(1, dims.k + 1)]
    vecs = []
    for j in range(dims.k + 1):
        v = val[0][j] * x0v
        for r in range(dims.k):
            v = v + (jac[0][j, r] / norms[r]) * xiv[r]
        vecs.append(v)
    return np.vstack(vecs)


def regular(dims, rng, margin=0.0):
    return sampling.random_regular_config(dims, rng, chart_margin=margin)


def values(flds, q):
    """The fields evaluated at q, one row each."""
    return np.vstack([f.at(q.flat()) for f in flds])


def has_term(x, y):
    """Whether [x, y] can be nonzero by the declared blocks: one field
    writes a block the other reads."""
    return not (x.writes.isdisjoint(y.reads)
                and y.writes.isdisjoint(x.reads))


def level_pairs(dims):
    """Every pair a < b of family positions that some level reads (each
    E^m lies in D^m)."""
    return sorted({pair for m in range(1, dims.n + 2)
                   for pair in zip(*fg._pairs(fg._d_index(dims, m)))})


class TestLieBracket:
    def test_coordinate_fields_commute(self):
        rng = np.random.default_rng(0)
        dims = arm.ArmDims(3, 2)
        q = regular(dims, rng, margin=0.2)
        b = fg.bracket_field(fl.xi_field(dims, 1, 1),
                             fl.xi_field(dims, 1, 2)).at(q.flat())
        assert np.linalg.norm(b) < 1e-8

    def test_upper_sphere_fields_ignore_lower_steering(self):
        rng = np.random.default_rng(1)
        dims = arm.ArmDims(2, 3)
        q = regular(dims, rng, margin=0.2)
        for r, m in [(2, 1), (3, 0), (3, 2)]:
            b = fg.bracket_field(fl.xi_field(dims, r, 1),
                                 fl.x0_field(dims, m)).at(q.flat())
            assert np.linalg.norm(b) < 1e-12

    def test_quadratic_convergence_against_closed_form(self):
        # planar two-trailer drive field: the only dependence on the
        # steering angle sits in the last cosine of each cascade factor
        rng = np.random.default_rng(2)
        dims = arm.ArmDims(1, 2)
        q = regular(dims, rng)
        state = dyn.car_state_from_config(q)
        th = state[2:]
        d01, d12 = th[1] - th[0], th[2] - th[1]
        closed = np.array([
            np.cos(th[0]) * np.cos(d01) * (-np.sin(d12)),
            np.sin(th[0]) * np.cos(d01) * (-np.sin(d12)),
            np.sin(d01) * (-np.sin(d12)),
            np.cos(d12),
            0.0,
        ])
        errs = {}
        for h in (1e-3, 1e-4, 1e-5):
            b = fg.bracket_field(car_x1_field(dims.n),
                                 car_x2_field(dims.n), h=h).at(state)
            errs[h] = np.abs(b - closed).max()
        c = 2.0 * errs[1e-3] / (1e-3) ** 2
        assert errs[1e-4] <= c * (1e-4) ** 2
        assert errs[1e-5] <= c * (1e-5) ** 2
        assert errs[1e-5] < 1e-9

    def test_fields_on_different_spaces_refused(self):
        rng = np.random.default_rng(3)
        q = regular(arm.ArmDims(1, 2), rng)
        x0 = fl.x0_field(q.dims, 1)
        for other in (fl.cart_z_field(q.dims, 0),           # mode differs
                      fl.x0_field(arm.ArmDims(1, 3), 1)):   # dim differs
            for x, y in ((x0, other), (other, x0)):
                with pytest.raises(ValueError):
                    fg.bracket_field(x, y)

    def test_nested_bracket_expression(self):
        rng = np.random.default_rng(3)
        dims = arm.ArmDims(1, 1)
        q = regular(dims, rng)
        x0 = fl.x0_field(dims, 1)
        nested = fg.bracket_field(
            fg.bracket_field(fl.xi_field(dims, 1, 1), x0, h=1e-4), x0,
            h=1e-4).at(q.flat())
        assert np.isfinite(nested).all()
        # genuinely new direction on S^1 chains
        assert np.linalg.norm(nested) > 1e-6

    def test_steering_plane_from_brackets_matches_chart_basis(self):
        rng = np.random.default_rng(4)
        for k, n, m in [(1, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2)]:
            dims = arm.ArmDims(k, n)
            q = regular(dims, rng, margin=0.2)
            rows = [fl.x0_field(dims, m).at(q.flat())]
            for i in range(1, k + 1):
                rows.append(fg.bracket_field(fl.xi_field(dims, m, i),
                                             fl.x0_field(dims, m)
                                             ).at(q.flat()))
            target = chart_delta_basis(q, m)
            assert subspace_angle(np.vstack(rows), target) < 1e-6


class TestLevels:
    def test_generator_lists(self):
        dims = arm.ArmDims(2, 2)
        d, e = fg.build_level(dims, dims.n + 1, basis="chart")
        assert d[0].label == "X2^0"
        assert {f.label for f in d[1:]} == {"X2^1", "X2^2"}
        assert {f.label for f in e} == {"X2^1", "X2^2"}
        d1, e1 = fg.build_level(dims, 1, basis="chart")
        assert len(d1) == 1 + (dims.n + 1) * dims.k
        assert len(e1) == (dims.n + 1) * dims.k

    def test_rank_ladder_small_sweep(self):
        rng = np.random.default_rng(6)
        for k, n in [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2)]:
            dims = arm.ArmDims(k, n)
            for _ in range(5):
                q = regular(dims, rng)
                for m in range(1, n + 2):
                    d, e = fg.build_level(dims, m)
                    assert svd_rank(values(d, q)) == (n - m + 2) * k + 1
                    assert svd_rank(values(e, q)) == (n - m + 2) * k

    def test_rank_of_edges(self):
        rng = np.random.default_rng(7)
        dims = arm.ArmDims(2, 2)
        q = regular(dims, rng)
        d = values(fg.build_level(dims, 3)[0], q)
        assert svd_rank(d) == dims.k + 1
        assert svd_rank(np.vstack([d, d])) == svd_rank(d)
        assert svd_rank(np.zeros((3, dims.cartesian_dim))) == 0

    def test_derived_ranks_k2(self):
        rng = np.random.default_rng(8)
        dims = arm.ArmDims(2, 2)
        q = regular(dims, rng)
        ranks = {d.m: d.rank for d in fg.verify_flag(q).derived}
        got = [ranks[m] for m in (2, 1, 0)]
        assert got == [5, 7, 9]

    def test_derived_ranks_goursat(self):
        rng = np.random.default_rng(9)
        dims = arm.ArmDims(1, 2)
        q = regular(dims, rng)
        ranks = {d.m: d.rank for d in fg.verify_flag(q).derived}
        got = [ranks[m] for m in (2, 1, 0)]
        assert got == [3, 4, 5]
        # corank grows by exactly one per level
        dim = dims.angular_dim
        d_ranks = [svd_rank(values(fg.build_level(dims, m)[0], q))
                   for m in (1, 2, 3)]
        assert [dim - r for r in d_ranks] == [1, 2, 3]

    def test_derived_at_singular_recorded_without_assert(self):
        rng = np.random.default_rng(10)
        dims = arm.ArmDims(2, 2)
        q = sampling.singular_config(dims, rng, index=dims.n)
        ranks = {d.m: d.rank for d in fg.verify_flag(q).derived}
        assert sorted(ranks) == list(range(dims.n + 1))
        assert all(isinstance(r, int) for r in ranks.values())  # may stall


class TestResiduals:
    def test_sublevels_involutive(self):
        rng = np.random.default_rng(11)
        for k, n in [(1, 2), (2, 2), (3, 1)]:
            dims = arm.ArmDims(k, n)
            q = regular(dims, rng)
            levels = fg.verify_flag(q).levels
            for m in range(1, n + 2):
                assert levels[m - 1].involutivity_e < 1e-6

    def test_coordinate_fields_near_zero_residual(self):
        rng = np.random.default_rng(12)
        dims = arm.ArmDims(2, 1)
        q = regular(dims, rng, margin=0.2)
        rep = fg.verify_flag(q, basis="chart")
        assert rep.levels[0].involutivity_e < 1e-8

    def test_top_level_strongly_non_involutive(self):
        rng = np.random.default_rng(13)
        for k, n in [(1, 1), (2, 2)]:
            dims = arm.ArmDims(k, n)
            for _ in range(10):
                q = regular(dims, rng)
                assert fg.verify_flag(q).delta_involutivity > 1e-2

    def test_cauchy_inclusion(self):
        rng = np.random.default_rng(14)
        dims = arm.ArmDims(2, 2)
        for _ in range(10):
            q = regular(dims, rng)
            levels = fg.verify_flag(q).levels
            for m in range(1, dims.n + 1):
                assert levels[m - 1].cauchy_residual < 1e-6

    def test_goursat_sandwich_rank_drop(self):
        # width one: the characteristic sublevel sits two ranks below
        rng = np.random.default_rng(15)
        dims = arm.ArmDims(1, 3)
        q = regular(dims, rng)
        for m in range(1, dims.n + 1):
            d_m, _ = fg.build_level(dims, m)
            _, e_next = fg.build_level(dims, m + 1)
            assert (svd_rank(values(e_next, q))
                    == svd_rank(values(d_m, q)) - 2)

    def test_top_level_has_no_characteristic_directions(self):
        # no combination of top-level generators brackets back into the
        # span with every other generator
        rng = np.random.default_rng(16)
        dims = arm.ArmDims(2, 2)
        q = regular(dims, rng)
        flds = ([fl.x0_field(dims, dims.n)]
                + sphere_tangent_fields(dims, dims.n))
        qn = orthonormal_rows(np.vstack([f.at(q.flat()) for f in flds]))
        rows = []
        for a, fa in enumerate(flds):
            outs = []
            for fb in flds:
                if fa is fb:
                    continue
                b = fg.bracket_field(fa, fb).at(q.flat())
                outs.append(b - (b @ qn.T) @ qn)
            rows.append(np.concatenate(outs))
        assert svd_rank(np.vstack(rows)) == len(flds)


class TestClassification:
    def test_constructed_singular(self):
        rng = np.random.default_rng(17)
        dims = arm.ArmDims(2, 3)
        for idx in (1, 2, 3):
            q = sampling.singular_config(dims, rng, index=idx)
            rep = fg.verify_flag(q)
            assert rep.verdict == "singular" and idx in rep.singular_indices
            assert idx in rep.sandwich_indices

    def test_collinear_regular(self):
        rep = fg.verify_flag(sampling.collinear_config(arm.ArmDims(2, 2)))
        assert rep.verdict == "regular"
        assert rep.sandwich_indices == ()

    def test_rotation_invariance(self):
        rng = np.random.default_rng(18)
        dims = arm.ArmDims(2, 2)
        for _ in range(10):
            q = sampling.singular_config(dims, rng, index=1)
            mat = rng.normal(size=(3, 3))
            rot, _ = np.linalg.qr(mat)
            q2 = arm.AngularConfig(dims, rot @ q.x0, (rot @ q.z.T).T)
            rep, rep2 = fg.verify_flags([q, q2])
            assert rep2.singular_indices == rep.singular_indices

    def test_methods_agree_on_random_samples(self):
        rng = np.random.default_rng(19)
        dims = arm.ArmDims(2, 2)
        for rep in fg.verify_flags([random_config(dims, rng)
                                    for _ in range(200)]):
            assert (rep.verdict == "singular") == bool(rep.sandwich_indices)


class TestVerifyFlag:
    def test_regular_pass_k2(self):
        rng = np.random.default_rng(20)
        q = regular(arm.ArmDims(2, 2), rng)
        rep = fg.verify_flag(q)
        assert rep.passed and rep.verdict == "regular"
        assert [lv.rank_d for lv in rep.levels] == [7, 5, 3]
        assert [lv.rank_e for lv in rep.levels] == [6, 4, 2]
        assert all(d.angle < 1e-6 for d in rep.derived)

    def test_goursat_coranks_k1_n3(self):
        rng = np.random.default_rng(21)
        dims = arm.ArmDims(1, 3)
        q = regular(dims, rng)
        rep = fg.verify_flag(q)
        dim = dims.angular_dim
        coranks = {lv.m: dim - lv.rank_d for lv in rep.levels}
        assert coranks == {1: 1, 2: 2, 3: 3, 4: 4}
        assert rep.passed

    def test_singular_point_reported_not_crashed(self):
        rng = np.random.default_rng(22)
        dims = arm.ArmDims(2, 2)
        q = sampling.singular_config(dims, rng, index=1)
        rep = fg.verify_flag(q)
        assert rep.verdict == "singular"
        assert 1 in rep.singular_indices
        text = rep.render()
        assert "singular" in text

    def test_report_serializes(self):
        rng = np.random.default_rng(23)
        q = regular(arm.ArmDims(1, 1), rng)
        rep = fg.verify_flag(q)
        blob = json.dumps(rep.to_dict(), sort_keys=True)
        data = json.loads(blob)
        assert data["passed"] is True
        assert data["tolerances"]["svd"] == 1e-8

    def test_chart_basis_agrees_at_interior_points(self):
        rng = np.random.default_rng(24)
        for k, n in [(1, 2), (2, 2)]:
            q = regular(arm.ArmDims(k, n), rng, margin=0.25)
            rp = fg.verify_flag(q, basis="projected")
            rc = fg.verify_flag(q, basis="chart")
            assert rp.passed and rc.passed
            assert [lv.rank_d for lv in rp.levels] == \
                [lv.rank_d for lv in rc.levels]
            assert [lv.rank_e for lv in rp.levels] == \
                [lv.rank_e for lv in rc.levels]

    def test_verify_all_shapes(self):
        rng = np.random.default_rng(25)
        for k, n in [(1, 1), (2, 1), (3, 2)]:
            q = regular(arm.ArmDims(k, n), rng)
            rep = fg.verify_flag(q)
            assert rep.passed, (k, n, rep.failures)


# ---------------------------------------------------------------------------
# reference: the scalar one-pair-at-a-time flag check
# ---------------------------------------------------------------------------

def pattern_rows(mat, tol):
    """Orthonormal rows spanning the singular directions of `mat` above tol
    times its largest singular value, from one SVD per connected component
    of its nonzero pattern (rows linked by the columns they share), found
    from the numbers alone.  In exact arithmetic this is the SVD of the
    whole matrix; in rounding it keeps each component's own relative
    accuracy, where one SVD of a matrix with rows of norm 1e-7 among rows
    of norm 1 turns the small directions by about 1e-9."""
    nz = mat != 0
    free = nz.any(axis=1)
    parts = []
    while free.any():
        rows = np.arange(len(mat)) == np.argmax(free)
        while True:
            cols = nz[rows].any(axis=0)
            grown = nz[:, cols].any(axis=1)
            if np.array_equal(grown, rows):
                break
            rows = grown
        free &= ~rows
        _, s, vt = np.linalg.svd(mat[np.ix_(rows, cols)],
                                 full_matrices=False)
        full = np.zeros((len(s), mat.shape[1]))
        full[:, cols] = vt
        parts.append((s, full))
    s = np.concatenate([p[0] for p in parts] + [np.zeros(0)])
    vt = np.concatenate([p[1] for p in parts] + [np.zeros((0, mat.shape[1]))])
    return vt[s > tol * s.max(initial=0.0)]


def oracle_flag(q, tol=1e-8, residual_tol=fg.RESIDUAL_TOL,
                basis="projected"):
    """The flag measurements of `verify_flag`, with every bracket and every
    pair residual computed one at a time, and each derived stack of all
    pairs decomposed by `pattern_rows`.  Each J_g V_f is taken at the one
    point by complex step."""
    dims = q.dims
    n, k1 = dims.n, dims.ambient
    point = q.flat()
    x0 = [fl.x0_field(dims, m) for m in range(n + 1)]
    spheres = [sphere_tangent_fields(dims, j) if basis == "projected"
               else [fl.xi_field(dims, j, i) for i in range(1, dims.k + 1)]
               for j in range(n + 1)]
    val = {id(f): f.at(point) for f in x0 + sum(spheres, [])}

    def deriv(g, f):
        t = fg.COMPLEX_STEP
        return g.at(point + 1j * t * val[id(f)]).imag / t

    def e_fields(m):
        return [f for j in range(m - 1, n + 1) for f in spheres[j]]

    def d_fields(m):
        return [x0[m - 1]] + e_fields(m)

    def matrix(flds):
        return np.vstack([val[id(f)] for f in flds])

    def bracket(f, g):
        b = deriv(g, f) - deriv(f, g)
        for i in range(1, n + 2):
            zi = q.z[i - 1]
            blk = b[k1 * i:k1 * (i + 1)]
            blk -= (blk @ zi) * zi
        return b

    def pair_residual(f, g, span_q):
        b = bracket(f, g)
        resid = b - (b @ span_q.T) @ span_q
        scale = max(float(np.linalg.norm(b)),
                    float(np.linalg.norm(val[id(f)])
                          * np.linalg.norm(val[id(g)])), 1e-300)
        return float(np.linalg.norm(resid)) / scale

    def worst(flds, span_q):
        return max([pair_residual(flds[a], flds[b], span_q)
                    for a in range(len(flds))
                    for b in range(a + 1, len(flds))], default=0.0)

    def tangent_basis():
        rows = list(np.eye(dims.cartesian_dim)[:k1])
        for i in range(1, n + 2):
            zi = q.z[i - 1]
            for b in orthonormal_rows(np.eye(k1) - np.outer(zi, zi)):
                e = np.zeros(dims.cartesian_dim)
                e[k1 * i:k1 * (i + 1)] = b
                rows.append(e)
        return np.vstack(rows)

    out = {"levels": [], "derived": [], "failures": []}
    for m in range(1, n + 2):
        d_mat, e_mat = matrix(d_fields(m)), matrix(e_fields(m))
        rank_d, rank_e = svd_rank(d_mat, tol), svd_rank(e_mat, tol)
        inv = worst(e_fields(m), orthonormal_rows(e_mat))
        cauchy = (worst(d_fields(m + 1), orthonormal_rows(d_mat))
                  if m <= n else None)
        out["levels"].append((rank_d, rank_e, inv, cauchy))
        if rank_d != fg.expected_rank_d(dims, m):
            out["failures"].append(
                f"rank D^{m} = {rank_d} != {fg.expected_rank_d(dims, m)}")
        if rank_e != fg.expected_rank_e(dims, m):
            out["failures"].append(
                f"rank E^{m} = {rank_e} != {fg.expected_rank_e(dims, m)}")
        if inv >= residual_tol:
            out["failures"].append(f"E^{m} involutivity residual {inv:.2e}")
        if cauchy is not None and cauchy >= residual_tol:
            out["failures"].append(
                f"Cauchy inclusion at level {m}: {cauchy:.2e}")
    for m in range(n, -1, -1):
        gens = d_fields(m + 1)
        stack = np.vstack(
            [matrix(gens)]
            + [bracket(gens[a], gens[b]) for a in range(len(gens))
               for b in range(a + 1, len(gens))])
        kept = pattern_rows(stack, tol)
        rank = len(kept)
        target = matrix(d_fields(m)) if m >= 1 else tangent_basis()
        angle = subspace_angle(kept, target, tol)
        out["derived"].append((m, rank, angle))
        if rank != fg.expected_rank_d(dims, m):
            out["failures"].append(
                f"derived rank of [D^{m + 1},D^{m + 1}] = {rank} "
                f"!= {fg.expected_rank_d(dims, m)}")
        if angle >= residual_tol:
            out["failures"].append(
                f"derived span angle at level {m}: {angle:.2e}")
    top = d_fields(n + 1)
    out["delta_involutivity"] = worst(top, orthonormal_rows(matrix(top)))
    out["sandwich"] = tuple(
        l for l in range(1, n + 1)
        if svd_rank(np.vstack([matrix(e_fields(l)), val[id(x0[l])]]), tol)
        == svd_rank(matrix(e_fields(l)), tol))
    out["passed"] = not out["failures"]
    return out


class TestFailures:
    def test_residual_gates(self):
        # a residual at the gate fails, one below it passes; the top level
        # has no Cauchy residual
        gate = fg.RESIDUAL_TOL
        levels = [fg.LevelReport(1, 3, 2, 3, 2, gate, 2 * gate),
                  fg.LevelReport(2, 5, 4, 5, 4, gate / 2, gate / 2),
                  fg.LevelReport(3, 6, 6, 6, 6, 0.0, None)]
        assert fg._failures(levels, []) == [
            "E^1 involutivity residual 1.00e-06",
            "Cauchy inclusion at level 1: 2.00e-06"]


class TestComplexStep:
    """Both families' brackets take J_c V as Im X_c(p + i t V) / t, exact
    to rounding; central differences agree to their own error."""

    @pytest.mark.parametrize("k, n", [(1, 3), (2, 2), (3, 4)])
    def test_agrees_with_central_differences(self, k, n):
        dims = arm.ArmDims(k, n)
        rng = np.random.default_rng(40 + k + n)
        t = fg.COMPLEX_STEP
        for q in [regular(dims, rng) for _ in range(3)]:
            point, z = q.flat(), q.z[None]
            for basis in ("projected", "chart"):
                family = fg._family(dims, basis)
                flds = family[0]
                vals = values(flds, q)
                for fld in flds:
                    exact = fld(point + 1j * t * vals).imag / t
                    # no subtraction: another step gives the same numbers
                    wider = fld(point + 1e-20j * vals).imag / 1e-20
                    assert np.abs(exact - wider).max() <= 1e-14
                    diff = vals @ fg.field_jacobian(fld, point, 1e-5).T
                    assert np.abs(exact - diff).max() <= 1e-9
                pb = fg._PairBrackets(family, point[None], z)
                for a, b in level_pairs(dims):
                    want = fg.bracket_field(flds[a], flds[b], 1e-5).at(point)
                    row = pb.pair[a, b]
                    if row < pb.held:
                        assert np.abs(pb.brackets[0, row] - want).max() <= 1e-9
                    else:  # skipped: no term by the declared supports
                        assert row == pb.held
                        assert not has_term(flds[a], flds[b])
                        assert not pb.brackets[0, row].any()
                        assert np.abs(want).max() <= 1e-9

    @pytest.mark.parametrize("basis", ["projected", "chart"])
    def test_levels_read_only_held_or_zero_pairs(self, basis, monkeypatch):
        # every pair a residual reads is held or has no term by the
        # supports, the blocks of the derived stacks read every held pair
        # once, and a pair no level reads is not held
        read = []
        residual = fg._PairBrackets.worst_residual
        monkeypatch.setattr(fg._PairBrackets, "worst_residual",
                            lambda self, idx, span: (read.append((self, list(
                                idx))), residual(self, idx, span))[1])
        dims = arm.ArmDims(3, 4)
        q = regular(dims, np.random.default_rng(44), margin=0.2)
        fg.verify_flag(q, basis=basis)
        flds, _, pair, held = fg._family(dims, basis)
        assert len(read) == 2 * dims.n + 2
        for pb, idx in read:
            assert np.array_equal(pb.pair, pair)
            for a, b in zip(*fg._pairs(idx)):
                assert (pb.pair[a, b] < pb.held) == has_term(flds[a], flds[b])
        _, _, inner, steer = fg._layout(dims, basis)
        assert sorted(np.concatenate([inner.ravel(), steer.ravel()])
                      ) == list(range(held))
        unread = set(zip(*fg._pairs(range(len(flds))))) - set(
            level_pairs(dims))
        assert unread and all(pair[a, b] == held + 1 for a, b in unread)

    def test_reports_name_their_derivative(self):
        q = regular(arm.ArmDims(2, 2), np.random.default_rng(41), margin=0.2)
        got = [fg.verify_flag(q, basis=basis).to_dict()["tolerances"]
               for basis in ("projected", "chart")]
        assert [t["bracket_derivative"] for t in got] == ["complex-step"] * 2
        assert all("bracket_h" not in t for t in got)


def point_mix(dims, rng):
    """Regular, injected-singular and near-singular (A_1 ~ 3e-7) points."""
    qs = [regular(dims, rng) for _ in range(3)]
    qs += [sampling.singular_config(dims, rng, index=i)
           for i in range(1, dims.n + 1)]
    near = sampling.singular_config(dims, rng, index=1)
    z = near.z.copy()
    z[1] += 3e-7 * z[0]
    qs.append(arm.AngularConfig(dims, near.x0, z / np.linalg.norm(
        z, axis=1, keepdims=True)))
    return qs


def dense_brackets(fields, points, z):
    """Every pairwise bracket (B, F(F-1)/2, D) of the family, in the
    row-major pair order of `flags._pairs`: each field probed at all F
    complex rows p + i t V_a of each point, whatever blocks the fields
    read and write."""
    (b, d), f = points.shape, len(fields)
    vals = np.stack([fld(points) for fld in fields], axis=1)
    probes = points[:, None] + 1j * fg.COMPLEX_STEP * vals
    first, second = fg._pairs(range(f))
    number = np.zeros((f, f), dtype=int)
    number[first, second] = number[second, first] = np.arange(first.size)
    rest = np.arange(f - 1)
    out = np.zeros((b, first.size, d))
    for c, fld in enumerate(fields):
        jv = fld(probes.reshape(-1, d)).imag / fg.COMPLEX_STEP
        other = rest + (rest >= c)
        terms = jv.reshape(b, f, d)[:, other]
        terms[:, other > c] *= -1.0
        out[:, number[other, c]] += terms
    return fg._tangent_project(out, z)


class TestDenseOracle:
    """The held pairs are the all-pairs brackets bit for bit, and every
    pair the engine takes as zero is exactly 0 there."""

    @pytest.mark.parametrize("k, n", [(1, 1), (1, 3), (2, 2), (3, 2),
                                      (3, 4), (2, 5)])
    @pytest.mark.parametrize("basis", ["projected", "chart"])
    def test_held_pairs_match_all_pairs(self, k, n, basis):
        dims = arm.ArmDims(k, n)
        qs = point_mix(dims, np.random.default_rng(50 + 10 * k + n))
        z = np.stack([q.z for q in qs])
        points = np.stack([q.flat() for q in qs])
        family = fg._family(dims, basis)
        pb = fg._PairBrackets(family, points, z)
        dense = dense_brackets(family[0], points, z)
        first, second = fg._pairs(range(len(family[0])))
        rows = pb.pair[first, second]
        held = rows < pb.held
        assert np.count_nonzero(held) == pb.held
        assert dense[:, held].tobytes() == pb.brackets[:, rows[held]].tobytes()
        assert np.all(dense[:, rows == pb.held] == 0.0)
        # the one zero row is +0.0 throughout
        assert pb.brackets[:, pb.held].tobytes() == bytes(
            8 * len(qs) * dims.cartesian_dim)
        # each derived stack of all pairs is its blocks (`_layout`): X_m^0
        # with its brackets with sphere m's tangents, zero on the blocks
        # of spheres m..n, and the tangents of each sphere m..n with their
        # brackets, zero outside that sphere's block; together they hold
        # every nonzero row of the stack, bit for bit
        tangent, cols, inner, steer = fg._layout(dims, basis)
        number = {pair: p for p, pair in enumerate(zip(first, second))}
        for m in range(n + 1):
            idx = fg._d_index(dims, m + 1)
            stack = np.concatenate([pb.values[:, idx], dense[:, [
                number[pair] for pair in zip(*fg._pairs(idx))]]], axis=1)
            coupled = np.concatenate([pb.values[:, [m]],
                                      pb.brackets[:, steer[m]]], axis=1)
            spheres = [np.concatenate([pb.values[:, tangent[j]],
                                       pb.brackets[:, inner[j]]], axis=1)
                       for j in range(m, n + 1)]
            assert not coupled[..., cols[m:].ravel()].any()
            for j, block in zip(range(m, n + 1), spheres):
                outside = np.delete(block, cols[j], axis=-1)
                assert not outside.any()
            rows = np.concatenate([coupled] + spheres, axis=1)
            for point in range(len(qs)):
                assert nonzero_rows(stack[point]) == nonzero_rows(rows[point])


def nonzero_rows(mat):
    """The multiset of the nonzero rows of `mat`, by their bytes."""
    return Counter(row.tobytes() for row in mat if row.any())


class TestDeclaredBlocks:
    """Every value and every held bracket is exactly 0 outside the blocks
    its fields declare they write: a field outside its `writes`, and the
    bracket of a and b outside what c writes for its terms J_c V
    (`probe`).  The flag pass decomposes its matrices block by block on
    these declarations."""

    @pytest.mark.parametrize("k, n", [(1, 1), (1, 3), (2, 2), (3, 2),
                                      (3, 4), (2, 5)])
    @pytest.mark.parametrize("basis", ["projected", "chart"])
    def test_zero_outside_declared_writes(self, k, n, basis):
        dims = arm.ArmDims(k, n)
        qs = point_mix(dims, np.random.default_rng(60 + 10 * k + n))
        family = fields, probe, pair, held = fg._family(dims, basis)
        pb = fg._PairBrackets(family, np.stack([q.flat() for q in qs]),
                              np.stack([q.z for q in qs]))
        block = np.arange(dims.cartesian_dim) // dims.ambient

        def outside(writes):
            return ~np.isin(block, sorted(writes))

        for f, fld in enumerate(fields):
            assert not pb.values[:, f, outside(fld.writes)].any()
        seen = 0
        for a, b in zip(*fg._pairs(range(len(fields)))):
            if pair[a, b] >= held:
                continue
            wrote = set()
            for c, e in ((a, b), (b, a)):
                if probe[c, e]:
                    wrote |= fields[c].writes
            assert not pb.brackets[:, pair[a, b], outside(wrote)].any()
            seen += 1
        assert seen == held


class TestBatchedAgainstScalar:
    TOL = 1e-13

    def test_verify_flag_matches_scalar_reference(self):
        rng = np.random.default_rng(26)
        for k, n in [(1, 1), (1, 3), (2, 2), (3, 2), (3, 4), (2, 5)]:
            dims = arm.ArmDims(k, n)
            points = [regular(dims, rng) for _ in range(3)]
            points += [sampling.singular_config(dims, rng, index=i)
                       for i in range(1, n + 1)]
            # A_1 ~ 3e-7: singular values between the 1e-8 span threshold
            # and a rank threshold of 1e-6
            near = sampling.singular_config(dims, rng, index=1)
            z = near.z.copy()
            z[1] += 3e-7 * z[0]
            points.append(arm.AngularConfig(
                dims=dims, x0=near.x0, z=z / np.linalg.norm(z, axis=1,
                                                           keepdims=True)))
            cases = [(q, tol, "projected") for q in points
                     for tol in (1e-8, 1e-6)]
            if k >= 2:
                # the chart fields of sphere 0 have norms ~1e-7 next to a
                # chart pole, so E^1 has such a relative singular value
                base = regular(dims, rng, margin=0.2)
                z = base.z.copy()
                z[0] = np.eye(k + 1)[k] + 1e-7 * rng.normal(size=k + 1)
                pole = arm.AngularConfig(dims=dims, x0=base.x0, z=z / (
                    np.linalg.norm(z, axis=1, keepdims=True)))
                cases += [(q, tol, "chart") for q in (points[0], pole)
                          for tol in (1e-8, 1e-6)]
            for q, tol, basis in cases:
                rep = fg.verify_flag(q, tol=tol, basis=basis)
                ref = oracle_flag(q, tol=tol, basis=basis)
                assert rep.passed == ref["passed"]
                assert rep.failures == ref["failures"]
                if k >= 2:
                    assert rep.sandwich_indices == ref["sandwich"]
                for lv, (rank_d, rank_e, inv, cauchy) in zip(rep.levels,
                                                             ref["levels"]):
                    assert (lv.rank_d, lv.rank_e) == (rank_d, rank_e)
                    assert abs(lv.involutivity_e - inv) <= self.TOL
                    if cauchy is None:
                        assert lv.cauchy_residual is None
                    else:
                        assert abs(lv.cauchy_residual - cauchy) <= self.TOL
                derived = {dv.m: dv for dv in rep.derived}
                for m, rank, angle in ref["derived"]:
                    assert derived[m].rank == rank
                    assert abs(derived[m].angle - angle) <= self.TOL
                assert abs(rep.delta_involutivity
                           - ref["delta_involutivity"]) <= self.TOL


def pair_bytes(dims):
    """Bytes of one point's bracket array (held + 1, D) float64, the
    (n+1)k(k+1)/2 held pairs and the one zero row: the count by which
    `verify_flags` sizes its blocks."""
    held = (dims.n + 1) * dims.k * (dims.k + 1) // 2
    return 8 * (held + 1) * dims.cartesian_dim


def sweep_batch(dims, rng):
    """20 regular and 2 singular points, the verify-sweep batch."""
    return ([regular(dims, rng) for _ in range(20)]
            + [sampling.singular_config(dims, rng, index=i) for i in (1, 2)])


class TestOnePassPerPoint:
    """`verify_flags` evaluates each field of the shape's family once at
    all the block's points and once at the complex probe rows of the terms
    it enters, and decomposes each kind of block with one stacked SVD for
    all its points and levels: the tangents of each sphere, the same with
    their brackets, each steering field with its brackets, and the
    sandwich blocks; each side of the derived-span angles of the coupled
    and of the sphere blocks is one eigvalsh at regular points."""

    def test_field_and_svd_counts(self, monkeypatch):
        calls, decomps = [], Counter()
        call = fl.Field.__call__
        monkeypatch.setattr(fl.Field, "__call__", lambda self, pts: (
            calls.append((self.label, len(pts))), call(self, pts))[1])

        def counted(name):
            fn = getattr(np.linalg, name)
            return lambda *a, **kw: (decomps.update([name]), fn(*a, **kw))[1]

        for name in ("svd", "qr", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        rng = np.random.default_rng(5)
        for k, n in [(2, 2), (3, 4)]:
            dims = arm.ArmDims(k, n)
            block = fg.BLOCK_BYTES // pair_bytes(dims)
            qs = [regular(dims, rng) for _ in range(block)]
            for size in (1, 2, block):
                calls.clear()
                decomps.clear()
                fg.verify_flags(qs[:size])
                fields, probe, _, held = fg._family(dims, "projected")
                # X_m^0 takes the k tangents of sphere m, a tangent the
                # k-1 others of its sphere: 30 pairs of 190 at (3,4)
                assert len(fields) == (n + 1) * (k + 1)
                assert probe.sum() == (n + 1) * k * k
                assert held == (n + 1) * k * (k + 1) // 2
                # every field of the family once at the block's points,
                # and once at its probe rows, one per point and term
                want = Counter((fld.label, size) for fld in fields)
                want.update((fld.label, size * int(probe[c].sum()))
                            for c, fld in enumerate(fields) if probe[c].any())
                assert {label for label, _ in calls} == {
                    fld.label for fld in fields}
                assert Counter(calls) == want
                # an SVD per kind of block, an eigvalsh per angle side of
                # the coupled and of the sphere blocks, and no QR
                assert decomps == {"svd": 4, "eigvalsh": 4}

    def test_family_built_once_per_run(self, monkeypatch):
        # a run of three blocks builds its shape's family and block layout
        # once, and the blocks share them
        made, blocks = Counter(), []
        for name in ("x0_field", "sphere_axis_field"):
            make = getattr(fl, name)
            monkeypatch.setattr(fl, name, lambda *a, make=make, name=name: (
                made.update([name]), make(*a))[1])
        verify_block = fg._verify_block
        monkeypatch.setattr(fg, "_verify_block", lambda qs, *a: (
            blocks.append(len(qs)), verify_block(qs, *a))[1])
        dims = arm.ArmDims(3, 4)
        block = fg.BLOCK_BYTES // pair_bytes(dims)
        rng = np.random.default_rng(6)
        qs = [regular(dims, rng) for _ in range(2 * block + 1)]
        fg._family.cache_clear()
        fg._layout.cache_clear()
        fg.verify_flags(qs)
        assert blocks == [block, block, 1]
        assert made == {"x0_field": dims.n + 1,
                        "sphere_axis_field": (dims.n + 1) * dims.k}
        # built by `verify_flags`, then read by each block and by the block
        # layout, itself built once
        family, layout = fg._family.cache_info(), fg._layout.cache_info()
        assert (family.misses, family.hits) == (1, 4)
        assert (layout.misses, layout.hits) == (1, 2)


class TestBatch:
    """`verify_flags` on a mix of points gives each point the report that
    `verify_flag` gives it alone."""

    FLOAT_TOL = 1e-13

    @staticmethod
    def mix(dims, rng):
        """Regular, singular and near-singular points, and (k >= 2) a
        point next to a chart pole with the chart basis."""
        k, n = dims.k, dims.n
        points = [regular(dims, rng) for _ in range(3)]
        points += [sampling.singular_config(dims, rng, index=i)
                   for i in range(1, n + 1)]
        near = sampling.singular_config(dims, rng, index=1)
        z = near.z.copy()
        z[1] += 3e-7 * z[0]
        points.append(arm.AngularConfig(dims, near.x0, z))
        chart = [points[0]]
        if k >= 2:
            base = regular(dims, rng, margin=0.2)
            z = base.z.copy()
            z[0] = np.eye(k + 1)[k] + 1e-7 * rng.normal(size=k + 1)
            chart.append(arm.AngularConfig(dims, base.x0, z))
        return [(points, "projected"), (chart + points[3:4], "chart")]

    @staticmethod
    def assert_same(got, want, tol):
        assert (got.verdict, got.passed, got.failures) == \
            (want.verdict, want.passed, want.failures)
        assert got.singular_indices == want.singular_indices
        assert got.sandwich_indices == want.sandwich_indices
        assert got.point == want.point and got.a_values == want.a_values
        for a, b in zip(got.levels, want.levels):
            assert (a.m, a.rank_d, a.rank_e) == (b.m, b.rank_d, b.rank_e)
            assert abs(a.involutivity_e - b.involutivity_e) <= tol
            assert (a.cauchy_residual is None) == (b.cauchy_residual is None)
            if a.cauchy_residual is not None:
                assert abs(a.cauchy_residual - b.cauchy_residual) <= tol
        assert [(d.m, d.rank) for d in got.derived] == \
            [(d.m, d.rank) for d in want.derived]
        for a, b in zip(got.derived, want.derived):
            assert abs(a.angle - b.angle) <= tol
        assert abs(got.delta_involutivity - want.delta_involutivity) <= tol

    @pytest.mark.parametrize("k, n", [(1, 1), (1, 3), (2, 2), (3, 2),
                                      (3, 4)])
    @pytest.mark.parametrize("block", [None, 3])
    def test_batch_equals_per_point(self, k, n, block, monkeypatch):
        dims = arm.ArmDims(k, n)
        if block is not None:  # blocks of 3 points, so batches span several
            monkeypatch.setattr(fg, "BLOCK_BYTES", block * pair_bytes(dims))
        rng = np.random.default_rng(27 + 10 * k + n)
        for points, basis in self.mix(dims, rng):
            for tol in (1e-8, 1e-6):
                reports = fg.verify_flags(points, tol=tol, basis=basis)
                assert len(reports) == len(points)
                for q, rep in zip(points, reports):
                    self.assert_same(rep, fg.verify_flag(q, tol=tol,
                                                         basis=basis),
                                     self.FLOAT_TOL)

    def test_default_blocks_split_a_large_shape(self, monkeypatch):
        # the verify-sweep batch at (3,4) is one block there; 8 more
        # points start a second
        dims = arm.ArmDims(3, 4)
        assert fg.BLOCK_BYTES // pair_bytes(dims) == 22
        sizes, block = [], fg._verify_block
        monkeypatch.setattr(fg, "_verify_block", lambda qs, *a: (
            sizes.append(len(qs)), block(qs, *a))[1])
        rng = np.random.default_rng(0)
        batch = sweep_batch(dims, rng)
        fg.verify_flags(batch)
        fg.verify_flags(batch + [regular(dims, rng) for _ in range(8)])
        assert sizes == [22, 22, 8]

    def test_chart_degenerate_point_ends_the_batch(self):
        dims = arm.ArmDims(2, 2)
        rng = np.random.default_rng(28)
        pole = arm.AngularConfig(dims, np.zeros(3), np.array(
            [[0.6, 0, 0.8], [0, 0, 1.0], [0, 0.6, 0.8]]))
        with pytest.raises(ChartDegenerate) as alone:
            fg.verify_flag(pole, basis="chart")
        with pytest.raises(ChartDegenerate) as batch:
            fg.verify_flags([regular(dims, rng), pole], basis="chart")
        assert str(batch.value) == str(alone.value)

    def test_empty_and_mixed_shapes(self):
        assert fg.verify_flags([]) == []
        rng = np.random.default_rng(29)
        with pytest.raises(ValueError):
            fg.verify_flags([regular(arm.ArmDims(1, 1), rng),
                             regular(arm.ArmDims(1, 2), rng)])

    def test_peak_memory_is_bounded(self):
        # numpy buffers are traced; one block's tensors stay far below
        # what holding the whole batch's Jacobians would take (~6 MiB)
        dims = arm.ArmDims(3, 4)
        points = sweep_batch(dims, np.random.default_rng(30))
        fg.verify_flags(points[:1])
        tracemalloc.start()
        try:
            fg.verify_flags(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20


class TestNoThread:
    def test_no_subcommand_starts_a_thread(self, tmp_path, capsys,
                                           monkeypatch):
        # simulate, verify in both bases and singular-scan, in process,
        # start no thread and import no executor or threading library
        started, imported = [], []
        start, load = threading.Thread.start, builtins.__import__
        monkeypatch.setattr(threading.Thread, "start", lambda self: (
            started.append(self.name), start(self))[1])
        monkeypatch.setattr(builtins, "__import__", lambda name, *a, **kw: (
            imported.append(name), load(name, *a, **kw))[1])
        sim = ["--k", "2", "--n", "2", "--preset", "random", "--seed", "3",
               "--controls", "sine", "--T", "0.2", "--h", "1e-2"]
        assert cli.main(["simulate"] + sim
                        + ["--out", str(tmp_path / "run")]) == 0
        assert cli.main(["singular-scan"] + sim) == 0
        for basis in ("projected", "chart"):
            assert cli.main(["verify", "--k", "2", "--n", "2", "--samples",
                             "3", "--singular-samples", "1", "--basis",
                             basis, "--out", str(tmp_path / basis)]) == 0
        capsys.readouterr()
        assert started == []
        assert [name for name in imported if name.split(".")[0] in (
            "concurrent", "threading", "multiprocessing", "_thread")] == []


class TestExports:
    def test_every_exported_name_resolves(self):
        import multiflag
        assert [name for name in multiflag.__all__
                if not hasattr(multiflag, name)] == []
        assert len(set(multiflag.__all__)) == len(multiflag.__all__)

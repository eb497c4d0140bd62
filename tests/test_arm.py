import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiflag import arm
from multiflag import fields as fl
from multiflag import hyperspherical as hs
from multiflag import sampling
from multiflag.errors import ChartDegenerate, ConstraintViolated


def random_cartesian(dims, rng):
    return arm.gamma_inverse(random_config(dims, rng))


class TestDims:
    def test_dimension_bookkeeping(self):
        for k, n in [(1, 0), (1, 3), (2, 2), (3, 5)]:
            dims = arm.ArmDims(k, n)
            assert dims.angular_dim == k * (n + 2) + 1
            assert dims.cartesian_dim == (k + 1) * (n + 2)
            # free coordinates of the angular description
            assert (k + 1) + (n + 1) * k == dims.angular_dim

    def test_validation(self):
        with pytest.raises(ValueError):
            arm.ArmDims(0, 1)
        with pytest.raises(ValueError):
            arm.ArmDims(2, -1)


class TestGamma:
    def test_single_segment(self):
        dims = arm.ArmDims(1, 0)
        c = arm.CartesianConfig(dims, [[0.0, 0.0], [0.0, 1.0]])
        a = arm.gamma(c)
        assert np.allclose(a.x0, [0, 0])
        assert np.allclose(a.z[0], [0, 1])
        assert np.allclose(a.angles(0), [0.0])

    def test_collinear_along_last_axis_is_chart_degenerate(self):
        dims = arm.ArmDims(2, 1)
        pts = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 2]], dtype=float)
        a = arm.gamma(arm.CartesianConfig(dims, pts))
        assert np.allclose(a.z, [[0, 0, 1], [0, 0, 1]])
        with pytest.raises(ChartDegenerate):
            a.angles(0)
        # tolerant recovery still maps back to the same point
        ang = hs.angles_from_unit(a.z[0], strict=False)[0]
        assert np.allclose(np.sin(ang[0]), 0, atol=1e-12)

    def test_violated_constraint_raises(self):
        dims = arm.ArmDims(1, 0)
        c = arm.CartesianConfig(dims, [[0.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ConstraintViolated):
            arm.gamma(c)

    def test_round_trip_k2_n3(self):
        rng = np.random.default_rng(0)
        dims = arm.ArmDims(2, 3)
        for _ in range(50):
            c = random_cartesian(dims, rng)
            back = arm.gamma_inverse(arm.gamma(c))
            assert np.abs(back.points - c.points).max() < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=3), st.integers())
    def test_round_trip_property(self, k, n, seed):
        rng = np.random.default_rng(abs(seed) % 2**31)
        a = random_config(arm.ArmDims(k, n), rng)
        a2 = arm.gamma(arm.gamma_inverse(a))
        assert np.abs(a2.x0 - a.x0).max() < 1e-9
        assert np.abs(a2.z - a.z).max() < 1e-9

    def test_gamma_inverse_accumulates(self):
        dims = arm.ArmDims(2, 0)
        a = sampling.collinear_config(dims)
        c = arm.gamma_inverse(a)
        assert np.allclose(c.points[1], a.x0 + a.z[0])

    def test_k1_matches_complex_sum(self):
        # joint positions equal the base plus partial sums of headings
        rng = np.random.default_rng(1)
        dims = arm.ArmDims(1, 3)
        a = random_config(dims, rng)
        thetas = [a.angles(s)[0] for s in range(4)]
        c = arm.gamma_inverse(a)
        for r in range(1, 5):
            expect = a.x0 + np.sum(
                [[np.sin(t), np.cos(t)] for t in thetas[:r]], axis=0)
            assert np.abs(c.points[r] - expect).max() < 1e-12


class TestConstraints:
    def test_built_configs_have_tiny_residuals(self):
        rng = np.random.default_rng(2)
        for k, n in [(1, 2), (2, 3)]:
            c = random_cartesian(arm.ArmDims(k, n), rng)
            assert np.abs(arm.constraint_residuals(c)).max() <= 1e-12

    def test_stretched_segment(self):
        dims = arm.ArmDims(1, 0)
        c = arm.CartesianConfig(dims, [[0.0, 0.0], [2.0, 0.0]])
        assert np.allclose(arm.constraint_residuals(c), [3.0])

    def test_residual_equals_squared_norm_minus_one(self):
        rng = np.random.default_rng(3)
        dims = arm.ArmDims(2, 2)
        c = random_cartesian(dims, rng)
        pts = np.array(c.points)
        pts[2] += rng.normal(scale=0.1, size=3)
        c2 = arm.CartesianConfig(dims, pts)
        seg = np.diff(pts, axis=0)
        expect = np.sum(seg * seg, axis=1) - 1.0
        assert np.allclose(arm.constraint_residuals(c2), expect, atol=1e-14)


class TestNormalFields:
    def test_single_segment_example(self):
        dims = arm.ArmDims(1, 0)
        c = arm.CartesianConfig(dims, [[0.0, 0.0], [1.0, 0.0]])
        nf = arm.normal_fields(c)
        assert np.allclose(nf, [[-1.0, 0.0, 1.0, 0.0]])

    def test_disjoint_blocks_orthogonal(self):
        rng = np.random.default_rng(4)
        dims = arm.ArmDims(2, 3)
        c = random_cartesian(dims, rng)
        nf = arm.normal_fields(c)
        for i in range(dims.n + 1):
            for j in range(i + 2, dims.n + 1):
                assert abs(nf[i] @ nf[j]) < 1e-15

    def test_half_gradient_of_residual(self):
        rng = np.random.default_rng(5)
        dims = arm.ArmDims(2, 2)
        c = random_cartesian(dims, rng)
        nf = arm.normal_fields(c)
        h = 1e-6
        flat = c.flat()
        for i in range(dims.n + 1):
            grad = np.empty(flat.size)
            for a in range(flat.size):
                fp, fm = flat.copy(), flat.copy()
                fp[a] += h
                fm[a] -= h
                rp = arm.constraint_residuals(
                    arm.CartesianConfig(dims, fp.reshape(dims.joints, -1)))[i]
                rm = arm.constraint_residuals(
                    arm.CartesianConfig(dims, fm.reshape(dims.joints, -1)))[i]
                grad[a] = (rp - rm) / (2 * h)
            assert np.abs(grad - 2.0 * nf[i]).max() < 1e-6


class TestAlignmentIdentity:
    def test_cartesian_equals_angular(self):
        # <z_i, z_{i+1}> computed from joints agrees with the chart product
        rng = np.random.default_rng(6)
        dims = arm.ArmDims(2, 3)
        for _ in range(25):
            a = random_config(dims, rng)
            c = arm.gamma_inverse(a)
            seg = c.segments()
            for i in range(1, dims.n + 1):
                assert abs(seg[i - 1] @ seg[i] - fl.a_chain(a.z)[i - 1]) < 1e-9

    def test_angles_reproduce_directions(self):
        rng = np.random.default_rng(7)
        dims = arm.ArmDims(3, 2)
        a = sampling.random_regular_config(dims, rng, chart_margin=0.05)
        for s in range(dims.n + 1):
            assert np.abs(hs.unit_from_angles(a.angles(s))
                          - a.z[s]).max() < 1e-9


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        a = random_config(arm.ArmDims(2, 2), rng)
        path = tmp_path / "cfg.json"
        arm.save_config(a, path)
        b = arm.load_config(path)
        assert b.dims == a.dims
        assert np.abs(b.x0 - a.x0).max() < 1e-15
        assert np.abs(b.z - a.z).max() < 1e-15

    def test_loader_renormalizes(self):
        d = {"k": 1, "n": 0, "x0": [0.0, 0.0], "z": [[0.0, 2.0]]}
        a = arm.config_from_dict(d)
        assert abs(np.linalg.norm(a.z[0]) - 1.0) <= 1e-12

    def test_loader_validates(self):
        with pytest.raises(ValueError):
            arm.config_from_dict({"k": 1, "n": 1, "x0": [0, 0]})
        with pytest.raises(ValueError):
            arm.config_from_dict(
                {"k": 1, "n": 0, "x0": [0, 0], "z": [[0.0, 0.0]]})

    def test_json_is_plain(self):
        a = sampling.collinear_config(arm.ArmDims(1, 1))
        text = json.dumps(arm.config_to_dict(a))
        assert '"k": 1' in text


def random_config(dims, rng):
    """Uniform directions on each sphere, Gaussian base point: one draw of
    the sampler, with no margins."""
    x0, z = sampling._draw(dims, rng)
    return arm.AngularConfig(dims=dims, x0=x0, z=z)


def loop_random_config(dims, rng):
    """Reference: one `random_unit` draw per sphere, then the base point."""
    z = np.vstack([sampling.random_unit(rng, dims.ambient)
                   for _ in range(dims.n + 1)])
    return arm.AngularConfig(dims=dims, x0=rng.normal(size=dims.ambient), z=z)


def loop_random_regular_config(dims, rng, chart_margin=0.0):
    """Reference: rejection sampling on per-sphere draws."""
    for _ in range(sampling.MAX_TRIES):
        q = loop_random_config(dims, rng)
        a = np.sum(q.z[:-1] * q.z[1:], axis=1)
        if a.size and np.min(np.abs(a)) < sampling.MIN_ABS_A:
            continue
        if chart_margin > 0.0 and hs.interior_margin(q.z) <= chart_margin:
            continue
        return q
    raise ValueError("no draw passed")


class TestSampler:
    @pytest.mark.parametrize("k, n", [(1, 1), (1, 3), (2, 2), (3, 2),
                                      (3, 4), (2, 5), (4, 6)])
    def test_draws_match_per_sphere_loop(self, k, n):
        dims = arm.ArmDims(k, n)
        for seed in range(15):
            for margin in (0.0, 0.1):
                rng, ref = (np.random.default_rng(seed),
                            np.random.default_rng(seed))
                for _ in range(3):
                    got = sampling.random_regular_config(dims, rng,
                                                         chart_margin=margin)
                    want = loop_random_regular_config(dims, ref, margin)
                    assert np.array_equal(got.z, want.z)
                    assert np.array_equal(got.x0, want.x0)
                    assert np.array_equal(fl.a_chain(got.z),
                                          np.sum(got.z[:-1] * got.z[1:],
                                                 axis=1))
                assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("k, n, margin", [(1, 30, 0.0), (2, 6, 0.1)])
    def test_only_the_accepted_draw_is_built(self, k, n, margin,
                                             monkeypatch):
        # shapes where most draws are rejected; the reference loop builds
        # an AngularConfig for every draw, the sampler for the accepted one
        dims = arm.ArmDims(k, n)
        built, rejected = [], 0
        init = arm.AngularConfig.__post_init__
        monkeypatch.setattr(arm.AngularConfig, "__post_init__",
                            lambda self: (built.append(1), init(self)))
        for seed in range(5):
            rng, ref = (np.random.default_rng(seed),
                        np.random.default_rng(seed))
            for _ in range(3):
                built.clear()
                want = loop_random_regular_config(dims, ref, margin)
                rejected += len(built) - 1
                built.clear()
                got = sampling.random_regular_config(dims, rng,
                                                     chart_margin=margin)
                assert len(built) == 1
                assert np.array_equal(got.z, want.z)
                assert np.array_equal(got.x0, want.x0)
            assert rng.bit_generator.state == ref.bit_generator.state
        assert rejected > 0

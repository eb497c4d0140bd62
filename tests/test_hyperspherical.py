import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiflag import hyperspherical as hs
from multiflag.errors import ChartDegenerate

TWO_PI = 2.0 * np.pi


def interior_angles(rng, k, margin=0.1):
    th = np.empty(k)
    th[: k - 1] = rng.uniform(margin, np.pi - margin, k - 1)
    th[k - 1] = rng.uniform(0.0, TWO_PI)
    return th


def ref_unit_and_jacobian(theta):
    """Reference (phi, d phi / d theta): the recursion
    Phi_k(t, rest) = (sin t * Phi_{k-1}(rest), cos t) unrolled from the
    innermost angle outward, one angle at a time."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    b, k = theta.shape
    val = np.ones((b, 1))
    jac = np.zeros((b, 1, 0))
    for j in range(k - 1, -1, -1):
        s = np.sin(theta[:, j])
        c = np.cos(theta[:, j])
        m = val.shape[1]
        a = jac.shape[2]
        nval = np.concatenate([s[:, None] * val, c[:, None]], axis=1)
        njac = np.zeros((b, m + 1, a + 1))
        njac[:, :m, 0] = c[:, None] * val
        njac[:, m, 0] = -s
        if a:
            njac[:, :m, 1:] = s[:, None, None] * jac
        val, jac = nval, njac
    return val, jac


def frame(theta):
    """The unit vector nu and the rows Theta^j of the chart frame."""
    val, jac = hs.unit_and_jacobian(theta)
    return val[0], jac[0].T


def angle_diff(a, b):
    d = np.abs(np.asarray(a) - np.asarray(b))
    d[-1] = min(d[-1], TWO_PI - d[-1])
    return np.max(d)


class TestPhi:
    def test_north_pole_k3(self):
        assert np.allclose(hs.unit_from_angles([0, 0, 0]), [0, 0, 0, 1])

    def test_equator_k2(self):
        z = hs.unit_from_angles([np.pi / 2, np.pi / 2])
        assert np.allclose(z, [1, 0, 0], atol=1e-15)

    def test_circle_k1(self):
        assert np.allclose(hs.unit_from_angles([np.pi / 2]), [1, 0],
                           atol=1e-15)

    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(0)
        for k in (1, 2, 3, 5):
            th = rng.uniform(-10, 10, (40, k))
            z = hs.unit_from_angles(th)
            assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-14)


class TestPhiInverse:
    def test_pole_is_degenerate_for_k2(self):
        with pytest.raises(ChartDegenerate):
            hs.angles_from_unit([0.0, 0.0, 1.0])

    def test_equator_k2(self):
        ang = hs.angles_from_unit([1.0, 0.0, 0.0])[0]
        assert np.allclose(ang, [np.pi / 2, np.pi / 2])

    def test_round_trip_random_k3(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            z = rng.normal(size=4)
            z /= np.linalg.norm(z)
            try:
                ang = hs.angles_from_unit(z)[0]
            except ChartDegenerate:
                continue
            assert np.allclose(hs.unit_from_angles(ang), z, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers())
    def test_round_trip_interior_angles(self, k, seed):
        rng = np.random.default_rng(abs(seed) % 2**31)
        ang = interior_angles(rng, k, margin=1e-3)
        back = hs.angles_from_unit(hs.unit_from_angles(ang))[0]
        assert angle_diff(back, ang) < 1e-10


class TestUnitAndJacobian:
    """The kernel against closed forms, and against the recursion as
    `ref_unit_and_jacobian` writes it, bit for bit: a rewrite of the kernel
    keeps every value and the sign of every zero, which the reference
    steppers of `test_dynamics` rely on."""

    # exact chart boundaries, the last step below 2 pi, and an interior
    # sine at the chart threshold
    SPECIAL = (0.0, np.pi / 2, np.pi, 1.5 * np.pi, TWO_PI - 1e-15,
               hs.EPS_DOM)

    @pytest.mark.parametrize("b", [1, 7, 1001])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_recursion(self, k, b):
        rng = np.random.default_rng(10 * k + b)
        theta = rng.uniform(-TWO_PI, TWO_PI, (b, k))
        for i, (angle, j) in enumerate(
                (a, j) for a in self.SPECIAL for j in range(k)):
            theta[i % b, j] = angle
        val, jac = hs.unit_and_jacobian(theta)
        ref_val, ref_jac = ref_unit_and_jacobian(theta)
        assert val.shape == (b, k + 1) and jac.shape == (b, k + 1, k)
        for got, want in ((val, ref_val), (jac, ref_jac)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_closed_forms(self, k):
        # independent of the recursion: the value is `unit_from_angles`, the
        # frame columns are orthogonal to it and to each other, and their
        # norms are `frame_norms`; each entry is a product of at most 7
        # rounded sines and cosines, so all hold to a few ulps
        rng = np.random.default_rng(40 + k)
        theta = rng.uniform(-TWO_PI, TWO_PI, (1001, k))
        for i, (angle, j) in enumerate(
                (a, j) for a in self.SPECIAL for j in range(k)):
            theta[i, j] = angle
        val, jac = hs.unit_and_jacobian(theta)
        tol = 4 * np.finfo(float).eps
        assert np.abs(val - hs.unit_from_angles(theta)).max() <= tol
        frame = np.concatenate([val[:, :, None], jac], axis=2)
        gram = frame.swapaxes(1, 2) @ frame
        assert np.abs(gram * (1.0 - np.eye(k + 1))).max() <= tol
        assert np.abs(np.linalg.norm(jac, axis=1)
                      - hs.frame_norms(theta)).max() <= tol


class TestJacobian:
    def test_k1_at_zero(self):
        assert np.allclose(hs.jacobian(1.0, [0.0]),
                           [[0, 1], [1, 0]])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        for k in (1, 2, 3, 4):
            for _ in range(25):
                ang = interior_angles(rng, k)
                rho = rng.uniform(0.3, 2.5)
                jac = hs.jacobian(rho, ang)
                # radial column
                fd0 = ((rho + h) * hs.unit_from_angles(ang)
                       - (rho - h) * hs.unit_from_angles(ang)) / (2 * h)
                assert np.allclose(jac[:, 0], fd0, atol=1e-6)
                for j in range(k):
                    tp = np.array(ang)
                    tm = np.array(ang)
                    tp[j] += h
                    tm[j] -= h
                    fd = rho * (hs.unit_from_angles(tp)
                                - hs.unit_from_angles(tm)) / (2 * h)
                    scale = max(1.0, np.abs(fd).max())
                    assert np.abs(jac[:, j + 1] - fd).max() < 1e-6 * scale

    def test_determinant_closed_form(self):
        rng = np.random.default_rng(3)
        for k in (1, 2, 3, 4):
            for _ in range(250):
                ang = interior_angles(rng, k, margin=1e-2)
                rho = rng.uniform(0.2, 3.0)
                num = np.linalg.det(hs.jacobian(rho, ang))
                ref = hs.jacobian_det(rho, ang)
                assert abs(num - ref) <= 1e-8 * max(abs(ref), 1e-30)

    def test_fd_jacobian_det_on_equator_k2(self):
        # |det| = 1 when sin(theta^1) = 1, checked through a fully
        # finite-difference Jacobian for independence from the analytic one
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(10):
            th = np.array([np.pi / 2, rng.uniform(0, TWO_PI)])
            cols = [hs.unit_from_angles(th)]
            for j in range(2):
                tp, tm = th.copy(), th.copy()
                tp[j] += h
                tm[j] -= h
                cols.append((hs.unit_from_angles(tp)
                             - hs.unit_from_angles(tm)) / (2 * h))
            det = np.linalg.det(np.column_stack(cols))
            assert abs(abs(det) - 1.0) < 1e-4
            assert abs(det - hs.jacobian_det(1.0, th)) < 1e-4

    def test_inverse_is_inverse(self):
        rng = np.random.default_rng(5)
        for k in (1, 2, 3, 4):
            for _ in range(50):
                ang = interior_angles(rng, k, margin=5e-2)
                prod = hs.frame_inverse(ang)[0] @ hs.jacobian(1.0, ang)
                assert np.abs(prod - np.eye(k + 1)).max() < 1e-8

    def test_k1_inverse_self(self):
        assert np.allclose(hs.frame_inverse([0.0])[0],
                           [[0, 1], [1, 0]])

    def test_inverse_degenerate_raises(self):
        th = np.array([1e-12, 0.3, 1.0])  # sin(theta^1) ~ 1e-12
        with pytest.raises(ChartDegenerate):
            hs.frame_inverse(th)


class TestFrame:
    def test_k1(self):
        nu, theta = frame([np.pi / 2])
        assert np.allclose(nu, [1, 0], atol=1e-15)
        assert np.allclose(theta[0], [0, -1], atol=1e-15)

    def test_k2_example(self):
        nu, theta = frame([np.pi / 2, 0.0])
        assert np.allclose(nu, [0, 1, 0], atol=1e-15)
        assert np.allclose(theta[0], [0, 0, -1], atol=1e-15)
        assert np.allclose(theta[1], [1, 0, 0], atol=1e-15)

    def test_orthogonality_and_norms(self):
        rng = np.random.default_rng(6)
        for k in (1, 2, 3, 4):
            for _ in range(40):
                ang = interior_angles(rng, k)
                nu, theta = frame(ang)
                mat = np.vstack([nu, theta])
                gram = mat @ mat.T
                off = gram - np.diag(np.diag(gram))
                assert np.abs(off).max() < 1e-10
                got = np.linalg.norm(theta, axis=1)
                sines = np.abs(np.sin(ang))
                want = np.concatenate(
                    [[1.0], np.cumprod(sines[:-1])]) if k > 1 else np.ones(1)
                assert np.abs(got - want).max() < 1e-10
                assert np.abs(hs.frame_norms(ang) - want).max() < 1e-12


class TestFrameChange:
    def test_identity(self):
        ang = np.array([0.7, 1.1, 2.2])
        a, b = hs.frame_change(ang, ang)
        assert abs(a - 1.0) < 1e-12
        assert np.abs(b).max() < 1e-12

    def test_k1_trig(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            t, tp = rng.uniform(0, TWO_PI, 2)
            a, b = hs.frame_change([t], [tp])
            assert abs(a - np.cos(tp - t)) < 1e-12
            assert abs(b[0] - np.sin(tp - t)) < 1e-12

    def test_reconstruction_and_pythagoras(self):
        rng = np.random.default_rng(8)
        for k in (1, 2, 3):
            for _ in range(80):
                ang = interior_angles(rng, k, margin=5e-2)
                ang2 = interior_angles(rng, k, margin=0.0)
                a, b = hs.frame_change(ang, ang2)
                nu, theta = frame(ang)
                rec = a * nu + b @ theta
                assert np.abs(rec - hs.unit_from_angles(ang2)).max() < 1e-9
                tang2 = np.sum(b**2 * hs.frame_norms(ang)**2)
                assert abs(a**2 + tang2 - 1.0) < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(st.integers())
    def test_reconstruction_property_k3(self, seed):
        rng = np.random.default_rng(abs(seed) % 2**31)
        ang = interior_angles(rng, 3, margin=1e-2)
        ang2 = interior_angles(rng, 3, margin=0.0)
        a, b = hs.frame_change(ang, ang2)
        nu, theta = frame(ang)
        rec = a * nu + b @ theta
        assert np.abs(rec - hs.unit_from_angles(ang2)).max() < 1e-9


class TestTangentCoefficients:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_reconstruction(self, k):
        # target = <z, target> z + sum_j B^j Theta^j at each of the frames
        rng = np.random.default_rng(40 + k)
        theta = np.array([interior_angles(rng, k) for _ in range(4)])
        z = hs.unit_from_angles(theta)
        target = rng.normal(size=(4, k + 1))
        b = hs.tangent_coefficients(z, target)
        _, jac = hs.unit_and_jacobian(theta)
        rec = (np.sum(z * target, axis=1)[:, None] * z
               + np.matmul(jac, b[:, :, None])[:, :, 0])
        assert b.shape == (4, k)
        assert np.abs(rec - target).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_leading_axes_equal_per_target_calls(self, k):
        rng = np.random.default_rng(50 + k)
        z = hs.unit_from_angles([interior_angles(rng, k) for _ in range(5)])
        targets = rng.normal(size=(2, 3, 5, k + 1))
        got = hs.tangent_coefficients(z, targets)
        assert got.shape == (2, 3, 5, k)
        for idx in np.ndindex(2, 3):
            want = hs.tangent_coefficients(z, targets[idx])
            assert np.array_equal(got[idx], want)
            assert np.array_equal(np.signbit(got[idx]), np.signbit(want))

    def test_degenerate_frame_raises(self):
        z = np.array([[0.6, 0.0, 0.8], [0.0, 0.0, 1.0]])  # row 1 at a pole
        with pytest.raises(ChartDegenerate):
            hs.tangent_coefficients(z, np.ones((2, 2, 3)))


class TestAngles:
    def test_periodic_angle_reduced(self):
        ang = hs.angles_from_unit(hs.unit_from_angles([0.5, 7.0]))[0]
        assert 0.0 <= ang[-1] < TWO_PI
        ang1 = hs.angles_from_unit(hs.unit_from_angles([-np.pi]))[0]
        assert abs(ang1[0] - np.pi) < 1e-15

    def test_interior_flag(self):
        assert hs._interior_sines([1e-12])[1]          # k=1: always interior
        assert not hs._interior_sines([1e-12, 0.3])[1]
        assert hs._interior_sines([0.5, 0.3])[1]

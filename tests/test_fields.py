import numpy as np
import pytest

from multiflag import arm
from multiflag import dynamics as dyn
from multiflag import fields as fl
from multiflag import hyperspherical as hs
from multiflag import sampling
from multiflag.errors import ChartDegenerate
from multiflag.numerics import subspace_angle, svd_rank
from test_arm import random_config


def rotate_pair(rng, dims):
    q = random_config(dims, rng)
    return q, arm.gamma_inverse(q)


# ---------------------------------------------------------------------------
# oracles: the planar car fields (the k = 1 reference), the inverse chart
# map, and the per-generator / per-frame forms of the library's maps
# ---------------------------------------------------------------------------

MODE_CAR = "car"  # [x, y, theta_0 .. theta_n], dim n+3, one block


def car_x1_field(n):
    """Angular-velocity input of the planar car: d/d theta_n."""
    def fn(y):
        out = np.zeros_like(y)
        out[:, -1] = 1.0
        return out
    return fl.Field(MODE_CAR, n + 3, fn, "carX1", (0,), (0,))


def car_x2_field(n):
    """Drive field of the planar car: heading times the cosine cascade,
    plus the trailer angle rates sin(theta_{r+1} - theta_r) scaled by the
    cascade above r."""
    def fn(y):
        th = y[:, 2:]
        diffs = th[:, 1:] - th[:, :-1]
        f = fl.f_products(np.cos(diffs), n)  # f[r] = prod_{j=r+1}^n cos
        out = np.zeros_like(y)
        out[:, 0] = np.cos(th[:, 0]) * f[:, 0]
        out[:, 1] = np.sin(th[:, 0]) * f[:, 0]
        if n > 0:
            out[:, 2:-1] = np.sin(diffs) * f[:, 1:]
        return out
    return fl.Field(MODE_CAR, n + 3, fn, "carX2", (0,), (0,))


def chart_to_embedded(q, vec):
    """Inverse of `embedded_to_chart` for one vector: the theta components
    pushed through the chart frames; refused where those are."""
    k1 = q.dims.ambient
    vec = np.asarray(vec, dtype=float)
    _, jac = hs.unit_and_jacobian(hs.angles_from_unit(q.z))
    dth = vec[k1:].reshape(q.dims.n + 1, q.dims.k, 1)
    return np.concatenate([vec[:k1], np.matmul(jac, dth).reshape(-1)])


def generatorwise_cartesian_delta(c):
    """The Cartesian generators one at a time, joint block by joint block:
    row r is (x_{n+1} - x_n)^r * sum_i f_n^i cZ_i + d/dx_{n+1}^r."""
    dims = c.dims
    z = np.diff(c.points, axis=0)
    f = fl.f_products(fl.a_chain(z), dims.n)
    out = np.zeros((dims.k + 1, dims.joints, dims.ambient))
    for r in range(dims.k + 1):
        for i in range(dims.n + 1):
            out[r, i] = z[dims.n, r] * f[i] * z[i]
        out[r, dims.n + 1, r] += 1.0
    return out.reshape(dims.k + 1, -1)


def frame_rows_embedded_to_chart(q, vec):
    """embedded -> chart coordinates through the tangent rows of every
    sphere's frame inverse, applied in one stacked product."""
    k1, spheres = q.dims.ambient, q.dims.n + 1
    vec = np.asarray(vec, dtype=float)
    rows = hs.frame_inverse(hs.angles_from_unit(q.z, strict=False))[:, 1:]
    dz = vec[..., k1:].reshape(vec.shape[:-1] + (spheres, k1, 1))
    dth = np.matmul(rows, dz).reshape(vec.shape[:-1] + (-1,))
    return np.concatenate([vec[..., :k1], dth], axis=-1)


class TestCoefficients:
    def test_aligned_and_orthogonal(self):
        dims = arm.ArmDims(2, 1)
        z = np.array([[1.0, 0, 0], [1.0, 0, 0]])
        q = arm.AngularConfig(dims, np.zeros(3), z)
        assert fl.a_chain(q.z)[0] == pytest.approx(1.0)
        z2 = np.array([[1.0, 0, 0], [0.0, 1.0, 0]])
        q2 = arm.AngularConfig(dims, np.zeros(3), z2)
        assert fl.a_chain(q2.z)[0] == pytest.approx(0.0)

    def test_k1_cosine_of_heading_difference(self):
        rng = np.random.default_rng(0)
        dims = arm.ArmDims(1, 3)
        q = random_config(dims, rng)
        th = [q.angles(s)[0] for s in range(4)]
        for i in range(1, 4):
            assert fl.a_chain(q.z)[i - 1] == pytest.approx(
                np.cos(th[i] - th[i - 1]), abs=1e-12)

    def test_f_products(self):
        rng = np.random.default_rng(1)
        dims = arm.ArmDims(2, 3)
        a = fl.a_chain(random_config(dims, rng).z)
        for m in range(4):
            assert fl.f_products(a, m)[m] == 1.0
        expect = a[1] * a[2]
        assert fl.f_products(a, 3)[1] == pytest.approx(expect, abs=1e-14)

    def test_batched_f_products_match_running_loop(self):
        # reference: f_m^m = 1, then f_m^r = f_m^{r+1} * A_{r+1} downward
        rng = np.random.default_rng(5)
        for n in range(6):
            a = rng.uniform(-1.0, 1.0, (7, n))
            for m in range(n + 1):
                want = np.ones((7, m + 1))
                for r in range(m - 1, -1, -1):
                    want[:, r] = want[:, r + 1] * a[:, r]
                assert np.array_equal(fl.f_products(a, m), want)
        # one configuration's rows (n+1, k+1) give, bit for bit, the
        # matching row of the batched (B, n+1, k+1) call
        for n in (0, 1, 3):
            z = rng.normal(size=(5, n + 1, 3))
            a = fl.a_chain(z)
            for zb, ab, fb in zip(z, a, fl.f_products(a, n)):
                a1 = fl.a_chain(zb)
                f1 = fl.f_products(a1, n)
                assert a1.shape == (n,) and np.array_equal(a1, ab)
                assert f1.shape == (n + 1,) and np.array_equal(f1, fb)

    def test_f_telescopes(self):
        rng = np.random.default_rng(2)
        a = fl.a_chain(random_config(arm.ArmDims(3, 3), rng).z)
        for m in range(1, 4):
            f = fl.f_products(a, m)
            for r in range(m):
                assert f[r] == pytest.approx(a[r] * f[r + 1], abs=1e-13)

    def test_zero_propagates(self):
        dims = arm.ArmDims(2, 2)
        rng = np.random.default_rng(3)
        a = fl.a_chain(sampling.singular_config(dims, rng, index=1).z)
        assert abs(fl.f_products(a, 2)[0]) < 1e-15
        assert abs(fl.f_products(a, 1)[0]) < 1e-15

    def test_k1_matches_cosine_cascade(self):
        rng = np.random.default_rng(4)
        dims = arm.ArmDims(1, 3)
        q = random_config(dims, rng)
        th = [q.angles(s)[0] for s in range(4)]
        want = np.prod([np.cos(th[j] - th[j - 1]) for j in range(1, 4)])
        assert fl.f_products(fl.a_chain(q.z), 3)[0] == pytest.approx(
            want, abs=1e-12)


class TestComplexInputs:
    """The analytic field helpers carry a complex input's imaginary part
    through, so Im f(x + i t dx) / t is the derivative of f along dx
    (complex step); real inputs keep float64."""

    T = 1e-30

    def step(self, fn, x, dx):
        return fn(x + 1j * self.T * dx).imag / self.T

    @staticmethod
    def central(fn, x, dx, h=1e-6):
        return (fn(x + h * dx) - fn(x - h * dx)) / (2.0 * h)

    def test_f_products(self):
        rng = np.random.default_rng(6)
        a, da = rng.uniform(-1.0, 1.0, (2, 5, 4))
        for m in range(5):
            fn = lambda x: fl.f_products(x, m)
            assert fn(a).dtype == np.float64
            assert fn(a + 0j).dtype == np.complex128
            got = self.step(fn, a, da)
            assert np.abs(got - self.central(fn, a, da)).max() < 1e-9
            if m:
                assert np.abs(got[:, :m]).min() > 0.0

    def test_normalized(self):
        rng = np.random.default_rng(7)
        v, dv = rng.normal(size=(2, 6, 4))
        u = fl._normalized(v)
        # d(v/|v|) = (I - u u^T) dv / |v|
        want = (dv - np.sum(u * dv, axis=1, keepdims=True) * u) / (
            np.linalg.norm(v, axis=1, keepdims=True))
        assert np.abs(self.step(fl._normalized, v, dv) - want).max() < 1e-15

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make", [
        lambda dims: fl.x0_field(dims, dims.n),
        lambda dims: fl.sphere_axis_field(dims, 1, 0),
        lambda dims: fl.xi_field(dims, 1, 1),
        lambda dims: fl.xi_field(dims, 2, dims.k)])
    def test_fields(self, make):
        rng = np.random.default_rng(8)
        dims = arm.ArmDims(2, 3)
        fld = make(dims)
        points = np.vstack([random_config(dims, rng).flat()
                            for _ in range(4)])
        dx = rng.normal(size=points.shape)
        assert fld(points + 0j).dtype == np.complex128
        got = self.step(fld, points, dx)
        assert np.abs(got).max() > 0.1
        assert np.abs(got - self.central(fld, points, dx)).max() < 1e-9


class TestZFields:
    def test_aligned_gives_zero(self):
        dims = arm.ArmDims(2, 1)
        q = sampling.collinear_config(dims)
        assert np.linalg.norm(fl.z_field(dims, 1).at(q.flat())) < 1e-15

    def test_k1_chart_coefficient(self):
        rng = np.random.default_rng(5)
        dims = arm.ArmDims(1, 2)
        q = random_config(dims, rng)
        th = [q.angles(s)[0] for s in range(3)]
        for i in (1, 2):
            ch = fl.z_chart(q, i)
            block = ch[2 + (i - 1):2 + i]
            assert block[0] == pytest.approx(np.sin(th[i] - th[i - 1]),
                                             abs=1e-12)

    def test_embedded_norm_pythagoras(self):
        rng = np.random.default_rng(6)
        dims = arm.ArmDims(3, 3)
        for _ in range(30):
            q = random_config(dims, rng)
            for i in range(1, dims.n + 1):
                zi = fl.z_field(dims, i).at(q.flat())
                nrm2 = zi @ zi
                assert abs(nrm2 - (1 - fl.a_chain(q.z)[i - 1] ** 2)) < 1e-10

    def test_chart_form_degenerate_raises(self):
        dims = arm.ArmDims(2, 1)
        z = np.array([[0.0, 0, 1], [1.0, 0, 0]])  # sphere 0 at the pole
        q = arm.AngularConfig(dims, np.zeros(3), z)
        with pytest.raises(ChartDegenerate):
            fl.z_chart(q, 1)
        # embedded form stays available
        assert np.isfinite(fl.z_field(dims, 1).at(q.flat())).all()


class TestX0Fields:
    def test_m0_is_z0(self):
        # X_0^0 is the base-point direction field Z_0: z_1 on the base
        # point, zero elsewhere, bit for bit on real and complex points
        rng = np.random.default_rng(7)
        for k, n in [(1, 0), (2, 2), (3, 4)]:
            q = random_config(arm.ArmDims(k, n), rng)
            k1 = q.dims.ambient
            y = q.flat()
            probe = np.stack([y, y + 1e-30j * rng.normal(size=y.size)])
            want = np.zeros_like(probe)
            want[:, :k1] = probe[:, k1:2 * k1]
            assert np.array_equal(fl.x0_field(q.dims, 0)(probe), want)
            chart = np.zeros(q.dims.angular_dim)
            chart[:k1] = q.z[0]
            assert np.array_equal(fl.x0_chart(q, 0), chart)
        with pytest.raises(IndexError):
            fl.z_chart(q, 0)

    def test_collinear_reduces_to_base_block(self):
        dims = arm.ArmDims(2, 3)
        q = sampling.collinear_config(dims)
        vec = fl.x0_field(dims, dims.n).at(q.flat())
        assert np.allclose(vec[:3], q.z[0], atol=1e-15)
        assert np.abs(vec[3:]).max() < 1e-15

    def test_k1_matches_car_drive_field(self):
        # chart coefficients agree termwise with the planar drive field
        # under the axis relabeling (arm axis 1 = car y axis)
        rng = np.random.default_rng(8)
        dims = arm.ArmDims(1, 3)
        for _ in range(20):
            q = random_config(dims, rng)
            ch = fl.x0_chart(q, dims.n)
            car = car_x2_field(dims.n).at(dyn.car_state_from_config(q))
            # car layout: (x, y, theta_0..theta_n); chart: (x^1, x^2, ...)
            assert abs(ch[0] - car[1]) < 1e-12
            assert abs(ch[1] - car[0]) < 1e-12
            assert np.abs(ch[2:] - car[2:]).max() < 1e-12
            assert abs(car[-1]) < 1e-15  # no drive on the steering angle

    def test_component_per_sphere(self):
        rng = np.random.default_rng(9)
        dims = arm.ArmDims(2, 3)
        q = random_config(dims, rng)
        m = 2
        vec = fl.x0_field(dims, m).at(q.flat()).reshape(dims.joints,
                                                        dims.ambient)
        f = fl.f_products(fl.a_chain(q.z), m)
        for i in range(1, m + 1):
            zi = fl.z_field(dims, i).at(q.flat()).reshape(dims.joints,
                                                          dims.ambient)
            assert np.allclose(vec[i], f[i] * zi[i], atol=1e-12)
        assert np.abs(vec[m + 1:]).max() == 0.0


def chart_route_xi(z, i):
    """The chart route to d/d theta^i at rows z (B, k+1): the frame column
    at the angles of z / rho, times rho."""
    rho = np.linalg.norm(z, axis=1, keepdims=True)
    return rho * hs.unit_and_jacobian(hs.angles_from_unit(z / rho))[1][
        ..., i - 1]


class TestXiFields:
    @staticmethod
    def row(dims, m, i, points):
        """Sphere m's row of X_m^i at points (B, D)."""
        return fl.xi_field(dims, m, i)(points).reshape(
            len(points), dims.joints, dims.ambient)[:, m + 1]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_closed_form_matches_chart_route(self, k):
        # on the unit sphere and off it (degree-1 homogeneous extension)
        rng = np.random.default_rng(30 + k)
        dims = arm.ArmDims(k, 1)
        for scale in (1.0, 0.3, 2.5):
            qs = [random_config(dims, rng) for _ in range(20)]
            points = np.vstack([q.flat() for q in qs])
            blocks = points.reshape(len(qs), dims.joints, dims.ambient)
            blocks[:, 1:] *= scale
            for m in (0, 1):
                for i in range(1, k + 1):
                    want = chart_route_xi(blocks[:, m + 1], i)
                    got = self.row(dims, m, i, points)
                    assert np.abs(got - want).max() <= 2e-15 * scale

    @pytest.mark.filterwarnings("error")
    def test_first_component_zero_is_inside_the_chart(self):
        # z_0 = 0 exactly: theta^2 = 0, the interior sine is 0.6
        dims = arm.ArmDims(2, 0)
        point = np.array([0.3, -0.2, 0.1, 0.0, 0.6, 0.8])
        z = point[None, 3:]
        assert hs.interior_margin(z) == pytest.approx(0.6, abs=1e-15)
        dx = np.random.default_rng(13).normal(size=point.size)
        t, h = 1e-30, 1e-6
        for i in (1, 2):
            want = chart_route_xi(z, i)
            val = self.row(dims, 0, i, point[None])
            probe = self.row(dims, 0, i, point[None] + 1j * t * dx[None])
            for got in (val, probe.real):
                assert np.isfinite(got).all()
                assert np.abs(got - want).max() <= 2e-15
            # the chart route wraps theta^2 through 2 pi along dx; its
            # central difference still sees the smooth field
            diff = (chart_route_xi(z + h * dx[None, 3:], i)
                    - chart_route_xi(z - h * dx[None, 3:], i)) / (2.0 * h)
            assert np.isfinite(probe.imag).all()
            assert np.abs(probe.imag / t - diff).max() <= 1e-9

    def test_embedded_equals_frame_vector(self):
        rng = np.random.default_rng(10)
        dims = arm.ArmDims(2, 2)
        q = sampling.random_regular_config(dims, rng, chart_margin=0.05)
        for m in range(3):
            _, jac = hs.unit_and_jacobian(q.angles(m))
            for i in (1, 2):
                vec = fl.xi_field(dims, m, i).at(q.flat()).reshape(
                    dims.joints, dims.ambient)
                assert np.allclose(vec[m + 1], jac[0][:, i - 1], atol=1e-12)
                assert np.abs(np.delete(vec, m + 1, axis=0)).max() == 0.0

    def test_k1_is_heading_rate(self):
        rng = np.random.default_rng(11)
        dims = arm.ArmDims(1, 2)
        q = random_config(dims, rng)
        ch = fl.embedded_to_chart(q, fl.xi_field(dims, dims.n, 1).at(q.flat()))
        expect = np.zeros(dims.angular_dim)
        expect[-1] = 1.0
        assert np.allclose(ch, expect)

    def test_projected_family_spans_sphere_tangent(self):
        rng = np.random.default_rng(19)
        dims = arm.ArmDims(3, 2)
        q = sampling.random_regular_config(dims, rng, chart_margin=0.05)
        for s in range(dims.n + 1):
            flds = [fl.sphere_axis_field(dims, s, slot)
                    for slot in range(dims.k)]
            mat = np.vstack([f.at(q.flat()) for f in flds])
            chart = np.vstack([fl.xi_field(dims, s, i).at(q.flat())
                               for i in range(1, dims.k + 1)])
            assert subspace_angle(mat, chart) < 1e-9


def fixed_axis_projection(dims, sphere, axis, points):
    """Oracle: -z^_a z^ + e_a on the block of `sphere` for the one ambient
    axis a = `axis` at every row of `points`, z^ = z / |z|."""
    shape = (len(points), dims.joints, dims.ambient)
    zh = fl._normalized(points.reshape(shape)[:, sphere + 1])
    out = np.zeros_like(points).reshape(shape)
    out[:, sphere + 1] = -zh[:, axis, None] * zh
    out[:, sphere + 1, axis] += 1.0
    return out.reshape(len(points), -1)


class TestSphereAxisSlots:
    """`sphere_axis_field(dims, sphere, slot)` is, at each row, the
    fixed-axis projection of a = tangent_axes(z)[slot], with the axis read
    off the real part of the row."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_slot_is_the_fixed_axis_field_of_its_row(self, k):
        dims = arm.ArmDims(k, 2)
        rng = np.random.default_rng(90 + k)
        shape = (40, dims.joints, dims.ambient)
        real = rng.normal(size=shape)
        # exact ties on sphere 1: a row along an axis, and a row with two
        # equal largest |components|
        real[0, 2] = np.eye(k + 1)[k]
        real[1, 2] = 0.25
        real[1, 2, [0, k]] = (-0.75, 0.75)
        points = real.reshape(len(real), -1)
        for pts in (points, points + 1e-30j * rng.normal(size=points.shape)):
            for sphere in range(dims.n + 1):
                axes = fl.tangent_axes(real[:, sphere + 1])
                for slot in range(k):
                    want = np.empty_like(pts)
                    for a in range(k + 1):
                        rows = axes[:, slot] == a
                        want[rows] = fixed_axis_projection(
                            dims, sphere, a, pts)[rows]
                    got = fl.sphere_axis_field(dims, sphere, slot)(pts)
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k, n", [(1, 1), (2, 2), (3, 4), (4, 2)])
    def test_slot_is_its_frame_column(self, k, n):
        # each slot is its sphere's frame column, bit for bit, at regular,
        # injected-singular and near-pole points (ties in |z_a|) and on
        # complex probe rows; a sphere has one frame
        dims = arm.ArmDims(k, n)
        rng = np.random.default_rng(70 + k + n)
        qs = [sampling.random_regular_config(dims, rng) for _ in range(4)]
        qs += [sampling.singular_config(dims, rng, index=i)
               for i in range(1, n + 1)]
        real = np.stack([q.flat() for q in qs]).reshape(
            len(qs), dims.joints, dims.ambient)
        pole = real[:2].copy()
        pole[0, 1:] = np.eye(k + 1)[k] + 1e-9 * rng.normal(size=k + 1)
        pole[1, 1:] = 1.0 / np.sqrt(k + 1)  # every |z_a| tied
        points = np.concatenate([real, pole]).reshape(len(qs) + 2, -1)
        probe = (points[:, None] + 1e-30j * rng.normal(
            size=(len(points), 3, points.shape[1]))).reshape(-1, dims.ambient
                                                             * dims.joints)
        for sphere in range(n + 1):
            frame = fl.sphere_axis_frame(dims, sphere)
            assert frame is fl.sphere_axis_frame(dims, sphere)
            for pts in (points, probe):
                cols = frame(pts)
                assert cols.shape == (len(pts), k, dims.cartesian_dim)
                for slot in range(k):
                    got = fl.sphere_axis_field(dims, sphere, slot)(pts)
                    assert got.tobytes() == np.ascontiguousarray(
                        cols[:, slot]).tobytes()

    def test_ties_drop_the_first_largest_axis(self):
        assert fl.tangent_axes(np.array([0.0, 0.0, 1.0])).tolist() == [0, 1]
        assert fl.tangent_axes(np.array([-0.6, 0.6, 0.5])).tolist() == [1, 2]
        assert fl.tangent_axes(np.array([0.3, -0.8, 0.8])).tolist() == [0, 2]

    def test_slot_range(self):
        dims = arm.ArmDims(2, 1)
        for slot in (-1, dims.k):
            with pytest.raises(IndexError):
                fl.sphere_axis_field(dims, 0, slot)
        for sphere in (-1, dims.n + 1):
            with pytest.raises(IndexError):
                fl.sphere_axis_frame(dims, sphere)


class TestDuality:
    def test_chart_form_pushes_to_embedded(self):
        rng = np.random.default_rng(12)
        for k, n in [(1, 2), (2, 2), (3, 2)]:
            dims = arm.ArmDims(k, n)
            q = sampling.random_regular_config(dims, rng, chart_margin=0.05)
            point = q.flat()
            for i in range(1, n + 1):
                emb = fl.z_field(dims, i).at(point)
                ch = fl.z_chart(q, i)
                assert np.abs(chart_to_embedded(q, ch) - emb).max() < 1e-9
            for m in range(n + 1):
                emb = fl.x0_field(dims, m).at(point)
                ch = fl.x0_chart(q, m)
                assert np.abs(chart_to_embedded(q, ch) - emb).max() < 1e-9
                back = fl.embedded_to_chart(q, emb)
                assert np.abs(back - ch).max() < 1e-9
                for i in range(1, k + 1):
                    emb = fl.xi_field(dims, m, i).at(point)
                    # the chart form of X_m^i is a coordinate unit vector
                    ch = np.eye(dims.angular_dim)[dims.ambient + k * m + i - 1]
                    assert np.abs(chart_to_embedded(q, ch)
                                  - emb).max() < 1e-9


def declared_fields(dims):
    """Every field the constructors make at one shape."""
    n, k = dims.n, dims.k
    return ([fl.z_field(dims, i) for i in range(1, n + 1)]
            + [fl.x0_field(dims, m) for m in range(n + 1)]
            + [fl.sphere_axis_field(dims, j, slot) for j in range(n + 1)
               for slot in range(k)]
            + [fl.xi_field(dims, j, i) for j in range(n + 1)
               for i in range(1, k + 1)]
            + [fl.cart_z_field(dims, i) for i in range(n + 1)])


class TestDeclaredSupports:
    """A field's value is exactly 0 outside the blocks it writes, and a
    change in a block it does not read leaves it bit for bit unchanged;
    at generic points it is nonzero on every block it writes and changes
    with every block it reads."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_reads_and_writes(self, k, n):
        dims = arm.ArmDims(k, n)
        rng = np.random.default_rng(70 + 10 * k + n)
        shape = (4, dims.joints, dims.ambient)
        real = rng.normal(size=shape)
        for pts in (real, real + 1e-3j * rng.normal(size=shape)):
            other = pts + rng.normal(size=shape)
            for fld in declared_fields(dims):
                assert fld.reads and fld.writes
                assert fld.reads | fld.writes <= set(range(dims.joints))
                out = fld(pts.reshape(4, -1))
                outside = sorted(set(range(dims.joints)) - fld.writes)
                assert not out.reshape(shape)[:, outside].any(), fld.label
                assert all(out.reshape(shape)[:, j].any()
                           for j in fld.writes), fld.label
                moved = pts.copy()
                unread = sorted(set(range(dims.joints)) - fld.reads)
                moved[:, unread] = other[:, unread]
                assert fld(moved.reshape(4, -1)).tobytes() == out.tobytes(), \
                    fld.label
                for j in fld.reads:
                    moved = pts.copy()
                    moved[:, j] = other[:, j]
                    assert not np.array_equal(fld(moved.reshape(4, -1)),
                                              out), fld.label


class TestCartesianFields:
    def test_segment_field_example(self):
        dims = arm.ArmDims(1, 0)
        c = arm.CartesianConfig(dims, [[0.0, 0.0], [1.0, 0.0]])
        assert np.allclose(fl.cart_z_field(dims, 0).at(c.flat()), [1, 0, 0, 0])

    def test_unit_norm_and_normal_pairing(self):
        rng = np.random.default_rng(13)
        dims = arm.ArmDims(2, 2)
        q, c = rotate_pair(rng, dims)
        nf = arm.normal_fields(c)
        for i in range(dims.n + 1):
            zv = fl.cart_z_field(dims, i).at(c.flat())
            assert abs(np.linalg.norm(zv) - 1.0) < 1e-12
            assert abs(zv @ nf[i] + 1.0) < 1e-12

    def test_delta_orthogonal_to_normals(self):
        rng = np.random.default_rng(14)
        for k, n in [(1, 1), (2, 2), (3, 2)]:
            dims = arm.ArmDims(k, n)
            for _ in range(20):
                _, c = rotate_pair(rng, dims)
                mat = fl.cartesian_delta(c)
                nf = arm.normal_fields(c)
                assert np.abs(mat @ nf.T).max() < 1e-10

    def test_delta_alignment_matches_chart_value(self):
        rng = np.random.default_rng(15)
        dims = arm.ArmDims(2, 3)
        q, c = rotate_pair(rng, dims)
        nf = arm.normal_fields(c)
        a = fl.a_chain(q.z)
        for j in range(1, dims.n + 1):
            from_normals = -(nf[j] @ nf[j - 1])
            from_segments = fl.cart_z_field(dims, j).at(c.flat()) @ nf[j - 1]
            assert abs(from_normals - a[j - 1]) < 1e-12
            assert abs(from_segments - a[j - 1]) < 1e-12

    def test_collinear_delta_structure(self):
        dims = arm.ArmDims(2, 2)
        q = sampling.collinear_config(dims)  # every segment along axis 0
        c = arm.gamma_inverse(q)
        mat = fl.cartesian_delta(c)
        k1 = dims.ambient
        for r in range(dims.k + 1):
            vec = mat[r].reshape(dims.joints, k1)
            lead = q.z[0][r]  # component r of the last segment
            for i in range(dims.n + 1):
                assert np.allclose(vec[i], lead * q.z[0], atol=1e-14)
            e = np.zeros(k1)
            e[r] = 1.0
            assert np.allclose(vec[dims.n + 1], e, atol=1e-14)

    def test_rank_is_full(self):
        rng = np.random.default_rng(16)
        dims = arm.ArmDims(3, 2)
        _, c = rotate_pair(rng, dims)
        assert svd_rank(fl.cartesian_delta(c)) == dims.k + 1


class TestPushforward:
    def test_angle_small_at_regular_points(self):
        rng = np.random.default_rng(17)
        for k, n in [(2, 2), (1, 1)]:
            dims = arm.ArmDims(k, n)
            for _ in range(25):
                q = sampling.random_regular_config(dims, rng,
                                                   chart_margin=0.05)
                assert fl.pushforward_check(arm.gamma_inverse(q)) < 1e-7

    def test_degenerate_chart_raises(self):
        dims = arm.ArmDims(2, 1)
        z = np.array([[0.0, 0, 1], [1.0, 0, 0]])
        c = arm.gamma_inverse(arm.AngularConfig(dims, np.zeros(3), z))
        with pytest.raises(ChartDegenerate):
            fl.pushforward_check(c)


class TestOneCallForms:
    """`cartesian_delta` and `embedded_to_chart` equal, bit for bit and zero
    signs included, the generator-wise and frame-row forms above, and so
    does `pushforward_check` built on either."""

    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("n", range(6))
    def test_match_the_oracles_bitwise(self, k, n, monkeypatch):
        rng = np.random.default_rng(200 + 10 * k + n)
        dims = arm.ArmDims(k, n)
        for _ in range(3):
            q = sampling.random_regular_config(dims, rng, chart_margin=0.1)
            c = arm.gamma_inverse(q)
            pairs = [(fl.cartesian_delta(c), generatorwise_cartesian_delta(c))]
            for lead in ((), (3,), (2, 3)):
                vec = rng.normal(size=lead + (dims.cartesian_dim,))
                pairs.append((fl.embedded_to_chart(q, vec),
                              frame_rows_embedded_to_chart(q, vec)))
            got = fl.pushforward_check(c)
            with monkeypatch.context() as mp:
                mp.setattr(fl, "cartesian_delta",
                           generatorwise_cartesian_delta)
                mp.setattr(fl, "embedded_to_chart",
                           frame_rows_embedded_to_chart)
                pairs.append((got, fl.pushforward_check(c)))
            for a, b in pairs:
                a, b = np.asarray(a), np.asarray(b)
                assert a.shape == b.shape and np.array_equal(a, b)
                assert np.array_equal(np.signbit(a), np.signbit(b))


def loop_embedded_to_chart(q, vec):
    """Reference: embedded -> chart coordinates, one sphere at a time."""
    dims = q.dims
    k, k1 = dims.k, dims.ambient
    out = np.empty(dims.angular_dim)
    out[:k1] = vec[:k1]
    for s in range(dims.n + 1):
        rows = hs.frame_inverse(q.angles(s))[0, 1:]
        out[k1 + k * s:k1 + k * (s + 1)] = rows @ vec[k1 * (s + 1):
                                                      k1 * (s + 2)]
    return out


def loop_pushforward_check(c, tol=1e-8):
    """Reference: the pushforward angle with a per-sphere, per-generator
    loop over the inverse chart Jacobians."""
    a = arm.gamma(c)
    dims = c.dims
    k, k1 = dims.k, dims.ambient
    inv_rows = [hs.frame_inverse(a.angles(s))[0, 1:]
                for s in range(dims.n + 1)]
    pushed = np.empty((k + 1, dims.angular_dim))
    for row, vec in enumerate(fl.cartesian_delta(c)):
        joints = vec.reshape(dims.joints, k1)
        dz = np.diff(joints, axis=0)
        pushed[row, :k1] = joints[0]
        for s in range(dims.n + 1):
            pushed[row, k1 + k * s:k1 + k * (s + 1)] = inv_rows[s] @ dz[s]
    # the chart forms of X_n^1..X_n^k are the last k coordinate vectors
    target = np.vstack([fl.x0_chart(a, dims.n),
                        np.eye(dims.angular_dim)[-k:]])
    return subspace_angle(pushed, target, tol)


class TestPerSphereOracle:
    SHAPES = [(1, 1), (1, 3), (2, 2), (3, 2), (3, 4), (2, 5)]

    @pytest.mark.parametrize("k, n", SHAPES)
    def test_batched_chart_maps_match_loops(self, k, n):
        rng = np.random.default_rng(70 + 10 * k + n)
        dims = arm.ArmDims(k, n)
        for _ in range(5):
            q = sampling.random_regular_config(dims, rng, chart_margin=0.1)
            vecs = rng.normal(size=(3, dims.cartesian_dim))
            want = np.array([loop_embedded_to_chart(q, v) for v in vecs])
            assert np.abs(fl.embedded_to_chart(q, vecs[0])
                          - want[0]).max() <= 1e-14
            assert np.abs(fl.embedded_to_chart(q, vecs) - want).max() <= 1e-14
            c = arm.gamma_inverse(q)
            assert abs(fl.pushforward_check(c)
                       - loop_pushforward_check(c)) <= 1e-14

    def test_degenerate_sphere_raises_in_both(self):
        dims = arm.ArmDims(2, 2)
        z = np.array([[0.6, 0, 0.8], [0, 0, 1.0], [0, 0.6, 0.8]])
        q = arm.AngularConfig(dims, np.zeros(3), z)
        vec = np.ones(dims.cartesian_dim)
        for fn in (loop_embedded_to_chart, fl.embedded_to_chart):
            with pytest.raises(ChartDegenerate):
                fn(q, vec)
        for fn in (loop_pushforward_check, fl.pushforward_check):
            with pytest.raises(ChartDegenerate):
                fn(arm.gamma_inverse(q))

    def test_chart_forms_read_only_their_spheres(self):
        # sphere 1 (z_2) sits at a chart pole; Z_1 and X_1^0 read the
        # frame of sphere 0 only, Z_2 and X_2^0 that of sphere 1 too
        dims = arm.ArmDims(2, 2)
        z = np.array([[0.6, 0, 0.8], [0, 0, 1.0], [0, 0.6, 0.8]])
        q = arm.AngularConfig(dims, np.zeros(3), z)
        b = (hs.frame_inverse(q.angles(0))[0] @ q.z[1])[1:]
        got = fl.z_chart(q, 1)
        assert np.array_equal(got[3:5], b)
        assert np.abs(np.delete(got, [3, 4])).max() == 0.0
        # f_1^1 = 1, so X_1^0 carries the same block
        assert np.array_equal(fl.x0_chart(q, 1)[3:5], b)
        fl.z_chart(q, 1)
        for m in (0, 1):
            fl.x0_chart(q, m)
        with pytest.raises(ChartDegenerate):
            fl.z_chart(q, 2)
        with pytest.raises(ChartDegenerate):
            fl.x0_chart(q, 2)

"""Control vector fields of the articulated arm.

Every angular field is evaluable in an embedded form that lives in the flat
ambient space [x0 | z_1 | ... | z_{n+1}] of R^{(k+1)(n+2)} and never touches
a chart; this is the form the bracket engine differentiates, and it stays
smooth across chart boundaries.  Chart-coefficient forms (coordinates on
[x | theta_0 | ... | theta_n]) are derived on demand and fail loudly at
degenerate chart points.

Fields are batch-evaluable callables on real or complex ambient points, so
the bracket engine's derivatives (complex steps where a field is analytic)
run as single vectorized calls.  Off the constraint manifold each field
follows a fixed smooth extension, tangent to the manifold along it, which
makes the numerical brackets independent of the extension choice.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import hyperspherical as hs
from .arm import AngularConfig, ArmDims, CartesianConfig, gamma
from .numerics import subspace_angle

# The flat ambient spaces a Field lives on.
MODE_EMBEDDED = "embedded"    # [x0 | z_1 .. z_{n+1}], dim (k+1)(n+2)
MODE_CARTESIAN = "cartesian"  # [x_0 | .. | x_{n+1}], dim (k+1)(n+2)
MODE_CAR = "car"              # [x, y, theta_0 .. theta_n], dim n+3


class Field:
    """Batch-evaluable vector field on real or complex ambient points."""

    def __init__(self, mode: str, dim: int,
                 fn: Callable[[np.ndarray], np.ndarray], label: str):
        self.mode = mode
        self.dim = dim
        self._fn = fn
        self.label = label

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(
            points, dtype=complex if np.iscomplexobj(points) else float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"{self.label}: expected points in R^{self.dim}")
        return self._fn(pts)

    def at(self, point: np.ndarray) -> np.ndarray:
        return self(np.asarray(point)[None])[0]

    def __repr__(self):  # pragma: no cover
        return f"Field({self.label}, mode={self.mode})"


def field_jacobian(f: Field, point: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a field at `point`, one batched call."""
    point = np.asarray(point, dtype=float)
    d = point.size
    eye = np.eye(d) * h
    pts = np.vstack([point[None] + eye, point[None] - eye])
    vals = f(pts)
    return (vals[:d] - vals[d:]).T / (2.0 * h)


# ---------------------------------------------------------------------------
# ambient layout helpers
# ---------------------------------------------------------------------------

def _blocks(y: np.ndarray, dims: ArmDims) -> np.ndarray:
    """View an angular/cartesian ambient batch (B, D) as (B, n+2, k+1)."""
    b = y.shape[0]
    return y.reshape(b, dims.joints, dims.ambient)


def _normalized(v: np.ndarray) -> np.ndarray:
    """v over its length sqrt(sum v^2), analytic in complex v."""
    return v / np.sqrt(np.sum(v * v, axis=-1, keepdims=True))


def _a_chain(z: np.ndarray) -> np.ndarray:
    """A_1..A_n from segment rows (B, n+1, k+1): A_j = <z_j, z_{j+1}>."""
    return np.sum(z[:, :-1, :] * z[:, 1:, :], axis=2)


def _f_products(a: np.ndarray, m: int) -> np.ndarray:
    """f_m^r = prod_{j=r+1}^m A_j for r = 0..m, as columns (B, m+1).

    a holds A_1..A_n (B, n); f_m^m = 1.  The running product starts at
    A_m and multiplies in A_{m-1}, ..., A_1 one at a time.
    """
    out = np.ones((a.shape[0], m + 1), dtype=a.dtype)
    out[:, :m] = np.cumprod(a[:, :m][:, ::-1], axis=1)[:, ::-1]
    return out


def _cascade(z: np.ndarray, vn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Base-point rate (B, k+1) and rates of the body rows z_1..z_m
    (B, m, k+1) for batches of unit rows z_1..z_{m+1} (B, m+1, k+1) driven
    by the normal velocities vn (B,) of the last row.

    Joint i+1 moves along z_{i+1} at v_i = f_m^i vn, so sphere i turns
    z_i at v_i times the projection of z_{i+1} onto its tangent.
    """
    a = _a_chain(z)
    v = _f_products(a, z.shape[1] - 1) * vn[:, None]
    dx0 = v[:, 0, None] * z[:, 0]
    dz = v[:, 1:, None] * (z[:, 1:] - a[:, :, None] * z[:, :-1])
    return dx0, dz


# ---------------------------------------------------------------------------
# angular (embedded) field constructors
# ---------------------------------------------------------------------------

def z0_field(dims: ArmDims) -> Field:
    """Unit direction of the first segment, acting on the base point."""
    def fn(y):
        z = _blocks(y, dims)
        out = np.zeros_like(y)
        _blocks(out, dims)[:, 0, :] = z[:, 1, :]
        return out
    return Field(MODE_EMBEDDED, dims.cartesian_dim, fn, "Z0")


def z_field(dims: ArmDims, i: int) -> Field:
    """Projection of z_{i+1} onto the tangent of sphere i-1 (at z_i)."""
    if not 1 <= i <= dims.n:
        raise IndexError("Z_i needs 1 <= i <= n")
    def fn(y):
        z = _blocks(y, dims)
        zi = z[:, i, :]
        zi1 = z[:, i + 1, :]
        a = np.sum(zi * zi1, axis=1, keepdims=True)
        out = np.zeros_like(y)
        _blocks(out, dims)[:, i, :] = zi1 - a * zi
        return out
    return Field(MODE_EMBEDDED, dims.cartesian_dim, fn, f"Z{i}")


def x0_field(dims: ArmDims, m: int) -> Field:
    """Steering field of joint m+1: sum_i f_m^i Z_i.

    Its component on sphere i-1 is exactly f_m^i times the projected
    direction Z_i, and the base-point component is f_m^0 z_1: the cascade
    of rows z_1..z_{m+1} at unit normal velocity.
    """
    if not 0 <= m <= dims.n:
        raise IndexError("X_m^0 needs 0 <= m <= n")
    def fn(y):
        dx0, dz = _cascade(_blocks(y, dims)[:, 1:m + 2], np.ones(y.shape[0]))
        out = np.zeros_like(y)
        ob = _blocks(out, dims)
        ob[:, 0] = dx0
        ob[:, 1:m + 1] = dz
        return out
    return Field(MODE_EMBEDDED, dims.cartesian_dim, fn, f"X{m}^0")


def xi_field(dims: ArmDims, m: int, i: int) -> Field:
    """Chart coordinate field d/d theta_m^i of sphere m, in embedded form.

    Closed form on the segment row z, with no angles: theta^i turns the
    components 0..c-1 against component c = k-i+1, so the field is
    (z_0 z_c / P, .., z_{c-1} z_c / P, -P, 0, ..) with P the length
    sqrt(z_0^2 + .. + z_{c-1}^2), and (z_1, -z_0, 0, ..) for the periodic
    angle i = k.  Homogeneous of degree 1, it is off the unit sphere the
    coordinate field of the radial chart (rho, theta) -> rho * phi(theta);
    analytic, it carries complex points through.  The strict chart guard,
    on the direction of the real part, raises ChartDegenerate at
    chart-singular directions.
    """
    if not 0 <= m <= dims.n:
        raise IndexError("X_m^i needs 0 <= m <= n")
    if not 1 <= i <= dims.k:
        raise IndexError("X_m^i needs 1 <= i <= k")
    c = dims.k - i + 1
    def fn(y):
        zm = _blocks(y, dims)[:, m + 1, :]
        real = zm.real
        hs.angles_from_unit(real / np.linalg.norm(real, axis=1, keepdims=True))
        out = np.zeros_like(y)
        row = _blocks(out, dims)[:, m + 1, :]
        if c == 1:
            row[:, 0], row[:, 1] = zm[:, 1], -zm[:, 0]
        else:
            p = np.sqrt(np.sum(zm[:, :c] * zm[:, :c], axis=1, keepdims=True))
            row[:, :c] = zm[:, :c] * (zm[:, c:c + 1] / p)
            row[:, c:c + 1] = -p
        return out
    return Field(MODE_EMBEDDED, dims.cartesian_dim, fn, f"X{m}^{i}")


def sphere_axis_field(dims: ArmDims, sphere: int, axis: int) -> Field:
    """Projection of the constant ambient axis onto the sphere tangent.

    A chart-free generating family for the tangent of sphere `sphere`:
    smooth wherever the segment direction is nonzero, so it is usable at
    chart-degenerate points where the theta coordinate fields collapse.
    """
    if not 0 <= sphere <= dims.n:
        raise IndexError("sphere index out of range")
    if not 0 <= axis <= dims.k:
        raise IndexError("axis index out of range")
    def fn(y):
        z = _blocks(y, dims)
        zh = _normalized(z[:, sphere + 1, :])
        out = np.zeros_like(y)
        ob = _blocks(out, dims)
        ob[:, sphere + 1, :] = -zh[:, axis:axis + 1] * zh
        ob[:, sphere + 1, axis] += 1.0
        return out
    return Field(MODE_EMBEDDED, dims.cartesian_dim, fn, f"V{sphere}[{axis}]")


def tangent_axes(z: np.ndarray) -> np.ndarray:
    """The k ambient axes (..., k), in increasing order, whose projections
    span the sphere tangent at unit rows z (..., k+1).

    Drops the ambient axis most aligned with the segment direction, which
    keeps the remaining projections uniformly well conditioned.
    """
    k1 = z.shape[-1]
    keep = np.arange(k1) != np.argmax(np.abs(z), axis=-1)[..., None]
    return np.nonzero(keep)[-1].reshape(z.shape[:-1] + (k1 - 1,))


# ---------------------------------------------------------------------------
# Cartesian fields
# ---------------------------------------------------------------------------

def cart_z_field(dims: ArmDims, i: int) -> Field:
    """Segment direction x_{i+1} - x_i acting on joint i."""
    if not 0 <= i <= dims.n:
        raise IndexError("cartesian Z_i needs 0 <= i <= n")
    def fn(y):
        x = _blocks(y, dims)
        out = np.zeros_like(y)
        _blocks(out, dims)[:, i, :] = x[:, i + 1, :] - x[:, i, :]
        return out
    return Field(MODE_CARTESIAN, dims.cartesian_dim, fn, f"cZ{i}")


def cart_delta_field(dims: ArmDims, r: int) -> Field:
    """Generator r of the constrained distribution in Cartesian form:
    (x_{n+1} - x_n)^r * sum_i f_n^i cZ_i + d/dx_{n+1}^r."""
    if not 0 <= r <= dims.k:
        raise IndexError("generator index needs 0 <= r <= k")
    n = dims.n
    def fn(y):
        x = _blocks(y, dims)
        z = np.diff(x, axis=1)  # (B, n+1, k+1), rows z_1..z_{n+1}
        a = _a_chain(z)         # A_1..A_n from consecutive segments
        f = _f_products(a, n)   # f_n^0..f_n^n
        lead = z[:, n, r][:, None]  # component r of z_{n+1}
        out = np.zeros_like(y)
        ob = _blocks(out, dims)
        for i in range(n + 1):
            ob[:, i, :] = lead * f[:, i:i + 1] * z[:, i, :]
        ob[:, n + 1, r] += 1.0
        return out
    return Field(MODE_CARTESIAN, dims.cartesian_dim, fn, f"delta{r}")


# ---------------------------------------------------------------------------
# planar car fields on [x, y, theta_0 .. theta_n]
# ---------------------------------------------------------------------------

def car_x1_field(n: int) -> Field:
    """Angular-velocity input: d/d theta_n."""
    dim = n + 3
    def fn(y):
        out = np.zeros_like(y)
        out[:, -1] = 1.0
        return out
    return Field(MODE_CAR, dim, fn, "carX1")


def car_x2_field(n: int) -> Field:
    """Drive field: heading times the cosine cascade, plus the trailer
    angle rates sin(theta_{r+1} - theta_r) scaled by the cascade above r."""
    dim = n + 3
    def fn(y):
        th = y[:, 2:]
        diffs = th[:, 1:] - th[:, :-1]           # (B, n)
        f = _f_products(np.cos(diffs), n)        # f[r] = prod_{j=r+1}^n cos
        out = np.zeros_like(y)
        out[:, 0] = np.cos(th[:, 0]) * f[:, 0]
        out[:, 1] = np.sin(th[:, 0]) * f[:, 0]
        if n > 0:
            out[:, 2:-1] = np.sin(diffs) * f[:, 1:]
        return out
    return Field(MODE_CAR, dim, fn, "carX2")


# ---------------------------------------------------------------------------
# coefficient operations on configurations
# ---------------------------------------------------------------------------

def A_coeff(q: AngularConfig, i: int) -> float:
    """Alignment of consecutive segments: <z_i, z_{i+1}> for i <= n, and 1
    for the conventional top index i = n+1."""
    if not 1 <= i <= q.dims.n + 1:
        raise IndexError("A_i needs 1 <= i <= n+1")
    if i == q.dims.n + 1:
        return 1.0
    return float(a_values(q)[i - 1])


def a_values(q: AngularConfig) -> np.ndarray:
    """A_1..A_n as an array (empty for n = 0)."""
    return _a_chain(q.z[None])[0]


def f_coeff(q: AngularConfig, r: int, m: int) -> float:
    """Cascade product f_m^r = prod_{j=r+1}^m A_j (1 when r = m)."""
    if not 0 <= r <= m <= q.dims.n:
        raise IndexError("f_m^r needs 0 <= r <= m <= n")
    return float(_f_products(a_values(q)[None], m)[0, r])


# ---------------------------------------------------------------------------
# chart <-> embedded conversion
# ---------------------------------------------------------------------------

def embedded_to_chart(q: AngularConfig, vec: np.ndarray) -> np.ndarray:
    """Express embedded tangent vectors (..., (k+1)(n+2)) in chart
    coordinates [x | theta_0 .. theta_n].  Raises ChartDegenerate where a
    sphere chart is singular."""
    k1, spheres = q.dims.ambient, q.dims.n + 1
    vec = np.asarray(vec, dtype=float)
    # the guard is frame_inverse's; [:, 1:] drops the radial row
    rows = hs.frame_inverse(hs.angles_from_unit(q.z, strict=False))[:, 1:]
    dz = vec[..., k1:].reshape(vec.shape[:-1] + (spheres, k1, 1))
    dth = np.matmul(rows, dz).reshape(vec.shape[:-1] + (-1,))
    return np.concatenate([vec[..., :k1], dth], axis=-1)


def chart_to_embedded(q: AngularConfig, vec: np.ndarray) -> np.ndarray:
    """Inverse of `embedded_to_chart` for one vector (pushes theta
    components through the chart frame); raises where it does."""
    dims = q.dims
    k1 = dims.ambient
    vec = np.asarray(vec, dtype=float)
    _, jac = hs.unit_and_jacobian(hs.angles_from_unit(q.z))
    dth = vec[k1:].reshape(dims.n + 1, dims.k, 1)
    return np.concatenate([vec[:k1], np.matmul(jac, dth).reshape(-1)])


# ---------------------------------------------------------------------------
# chart forms, on [x | theta_0 .. theta_n]
# ---------------------------------------------------------------------------

def z_chart(q: AngularConfig, i: int) -> np.ndarray:
    """Chart form of Z_i at q; i = 0 gives the base-point direction field.

    Carries the projection coefficients B_i^j on the theta block of sphere
    i-1 and is refused where that sphere's chart is degenerate; the
    embedded forms (`z0_field`, `z_field`) are available everywhere.
    """
    dims = q.dims
    if not 0 <= i <= dims.n:
        raise IndexError("Z_i needs 0 <= i <= n")
    out = np.zeros(dims.angular_dim)
    k1, k = dims.ambient, dims.k
    if i == 0:
        out[:k1] = q.z[0]
    else:
        out[k1 + k * (i - 1):k1 + k * i] = hs.tangent_coefficients(
            q.z[i - 1:i], q.z[i:i + 1])[0]
    return out


def x0_chart(q: AngularConfig, m: int) -> np.ndarray:
    """Chart form of X_m^0 = sum_i f_m^i Z_i at q; reads the frames of
    spheres 0..m-1 only."""
    dims = q.dims
    if not 0 <= m <= dims.n:
        raise IndexError("X_m^0 needs 0 <= m <= n")
    out = np.zeros(dims.angular_dim)
    k1, k = dims.ambient, dims.k
    f = _f_products(a_values(q)[None], m)[0]
    out[:k1] = f[0] * q.z[0]
    b = hs.tangent_coefficients(q.z[:m], q.z[1:m + 1])
    out[k1:k1 + k * m] = (f[1:, None] * b).reshape(-1)
    return out


def cartesian_delta(q: CartesianConfig) -> np.ndarray:
    """The k+1 generators (k+1, (k+1)(n+2)) of the constrained distribution
    at q, each orthogonal to every constraint normal."""
    return np.vstack([cart_delta_field(q.dims, r).at(q.flat())
                      for r in range(q.dims.k + 1)])


def pushforward_check(q: CartesianConfig) -> float:
    """Largest principal angle between the pushforward of the Cartesian
    generators and the angular-chart span {X_n^0, X_n^1..X_n^k} at the
    image configuration.

    The pushforward is assembled in closed form: the bidiagonal difference
    map on joint blocks composed with each sphere's inverse chart Jacobian.
    The chart form of X_n^i is the coordinate unit vector of theta_n^i.
    Raises ChartDegenerate when the image hits a chart boundary.
    """
    a = gamma(q)
    dims = q.dims
    joints = cartesian_delta(q).reshape(dims.k + 1, dims.joints, -1)
    pushed = embedded_to_chart(a, np.concatenate(
        [joints[:, 0], np.diff(joints, axis=1).reshape(dims.k + 1, -1)],
        axis=1))
    target = np.vstack([x0_chart(a, dims.n),
                        np.eye(dims.angular_dim)[-dims.k:]])
    return subspace_angle(pushed, target)

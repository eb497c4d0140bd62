"""Control vector fields of the articulated arm.

Every angular field is evaluable in an embedded form that lives in the flat
ambient space [x0 | z_1 | ... | z_{n+1}] of R^{(k+1)(n+2)} and never touches
a chart; this is the form the bracket engine differentiates, and it stays
smooth across chart boundaries.  Chart-coefficient forms (coordinates on
[x | theta_0 | ... | theta_n]) are derived on demand through one map,
`hyperspherical.tangent_coefficients`, and fail loudly at degenerate chart
points.  The Cartesian generators of the constrained distribution are one
closed form on the segment rows (`cartesian_delta`); the planar car's
formula lives only in the right-hand side of `dynamics.integrate_car`.

Fields are batch-evaluable callables on real or complex ambient points, so
the bracket engine's derivatives (complex steps where a field is analytic)
run as single vectorized calls.  Off the constraint manifold each field
follows a fixed smooth extension, tangent to the manifold along it, which
makes the numerical brackets independent of the extension choice.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from . import hyperspherical as hs
from .arm import AngularConfig, ArmDims, CartesianConfig, gamma
from .numerics import subspace_angle

# The flat ambient spaces a Field lives on.
MODE_EMBEDDED = "embedded"    # [x0 | z_1 .. z_{n+1}], dim (k+1)(n+2)
MODE_CARTESIAN = "cartesian"  # [x_0 | .. | x_{n+1}], dim (k+1)(n+2)


class Field:
    """Batch-evaluable vector field on real or complex ambient points.

    `reads` and `writes` are the blocks of the ambient space (x0 and the
    z_i on the embedded space, the joints x_i on the Cartesian one) that
    the value depends on and that it can make nonzero: outside `writes`
    the value is exactly 0, and changing a block outside `reads` leaves it
    bit for bit unchanged.  So J_c V_a = 0 unless field a writes a block
    that field c reads, which the bracket engine uses to skip such terms.
    """

    def __init__(self, mode: str, dim: int,
                 fn: Callable[[np.ndarray], np.ndarray], label: str,
                 reads: Iterable[int], writes: Iterable[int]):
        self.mode = mode
        self.dim = dim
        self._fn = fn
        self.label = label
        self.reads = frozenset(reads)
        self.writes = frozenset(writes)

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


def a_chain(z: np.ndarray) -> np.ndarray:
    """A_1..A_n (..., n) from rows (..., n+1, k+1): A_j = <z_j, z_{j+1}>."""
    return np.sum(z[..., :-1, :] * z[..., 1:, :], axis=-1)


def f_products(a: np.ndarray, m: int) -> np.ndarray:
    """The cascade products f_m^r = prod_{j=r+1}^m A_j for r = 0..m
    (..., m+1) of alignments A_1..A_n (..., n); f_m^m = 1.

    The running product starts at A_m and multiplies in A_{m-1}, ..., A_1
    one at a time; the result keeps the dtype of a.
    """
    out = np.ones(a.shape[:-1] + (m + 1,), dtype=a.dtype)
    out[..., :m] = np.cumprod(a[..., :m][..., ::-1], axis=-1)[..., ::-1]
    return out


def _cascade(z: np.ndarray, vn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Base-point rate (B, k+1) and rates of the body rows z_1..z_m
    (B, m, k+1) for batches of unit rows z_1..z_{m+1} (B, m+1, k+1) driven
    by the normal velocities vn (B,) of the last row.

    Joint i+1 moves along z_{i+1} at v_i = f_m^i vn, so sphere i turns
    z_i at v_i times the projection of z_{i+1} onto its tangent.
    """
    a = a_chain(z)
    v = f_products(a, z.shape[1] - 1) * vn[:, None]
    dx0 = v[:, 0, None] * z[:, 0]
    dz = v[:, 1:, None] * (z[:, 1:] - a[:, :, None] * z[:, :-1])
    return dx0, dz


# ---------------------------------------------------------------------------
# angular (embedded) field constructors
# ---------------------------------------------------------------------------

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
    return Field(MODE_EMBEDDED, dims.cartesian_dim, fn, f"Z{i}",
                 (i, i + 1), (i,))


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
    return Field(MODE_EMBEDDED, dims.cartesian_dim, fn, f"X{m}^0",
                 range(1, m + 2), range(m + 1))


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
    return Field(MODE_EMBEDDED, dims.cartesian_dim, fn, f"X{m}^{i}",
                 (m + 1,), (m + 1,))


def sphere_axis_field(dims: ArmDims, sphere: int, slot: int) -> Field:
    """Projection e_a - z^_a z^ onto the tangent of sphere `sphere` of the
    ambient axis a = tangent_axes(z)[slot], chosen at each point.

    Chart-free: the k slots span the tangent wherever the segment is
    nonzero.  The axis follows the real part of a row, so on a complex
    probe row p + i t V this is the fixed-axis field at p, analytic in t.
    """
    if not 0 <= sphere <= dims.n:
        raise IndexError("sphere index out of range")
    if not 0 <= slot < dims.k:
        raise IndexError("slot index out of range")
    def fn(y):
        z = _blocks(y, dims)[:, sphere + 1, :]
        zh = _normalized(z)
        rows = np.arange(len(y))
        axis = tangent_axes(z.real)[:, slot]
        out = np.zeros_like(y)
        ob = _blocks(out, dims)
        ob[:, sphere + 1, :] = -zh[rows, axis, None] * zh
        ob[rows, sphere + 1, axis] += 1.0
        return out
    return Field(MODE_EMBEDDED, dims.cartesian_dim, fn, f"V{sphere}[{slot}]",
                 (sphere + 1,), (sphere + 1,))


def tangent_axes(z: np.ndarray) -> np.ndarray:
    """The k ambient axes (..., k), in increasing order, whose projections
    span the sphere tangent at nonzero rows z (..., k+1).

    Drops the ambient axis most aligned with the segment direction (the
    first of equal largest |components|), which keeps the remaining
    projections uniformly well conditioned.
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
    return Field(MODE_CARTESIAN, dims.cartesian_dim, fn, f"cZ{i}",
                 (i, i + 1), (i,))


def cartesian_delta(q: CartesianConfig) -> np.ndarray:
    """The k+1 generators (k+1, (k+1)(n+2)) of the constrained distribution
    at q, each orthogonal to every constraint normal: generator r is
    (x_{n+1} - x_n)^r * sum_i f_n^i cZ_i + d/dx_{n+1}^r."""
    dims = q.dims
    z = q.segments()  # rows z_1..z_{n+1}
    f = f_products(a_chain(z), dims.n)
    out = np.zeros((dims.k + 1, dims.joints, dims.ambient))
    out[:, :-1] = z[-1][:, None, None] * f[:, None] * z
    out[:, -1] = np.eye(dims.k + 1)
    return out.reshape(dims.k + 1, -1)


# ---------------------------------------------------------------------------
# chart forms, on [x | theta_0 .. theta_n]
# ---------------------------------------------------------------------------

def embedded_to_chart(q: AngularConfig, vec: np.ndarray) -> np.ndarray:
    """Express embedded tangent vectors (..., (k+1)(n+2)) in chart
    coordinates [x | theta_0 .. theta_n].  Raises ChartDegenerate where a
    sphere chart is singular."""
    k1 = q.dims.ambient
    vec = np.asarray(vec, dtype=float)
    lead = vec.shape[:-1]
    dth = hs.tangent_coefficients(
        q.z, vec[..., k1:].reshape(lead + (q.dims.n + 1, k1)))
    return np.concatenate([vec[..., :k1], dth.reshape(lead + (-1,))], axis=-1)


def z_chart(q: AngularConfig, i: int) -> np.ndarray:
    """Chart form of Z_i at q, 1 <= i <= n; the base-point direction field
    Z_0 is X_0^0 (`x0_chart(q, 0)`).

    Carries the projection coefficients B_i^j on the theta block of sphere
    i-1 and is refused where that sphere's chart is degenerate; the
    embedded form (`z_field`) is available everywhere.
    """
    dims = q.dims
    if not 1 <= i <= dims.n:
        raise IndexError("Z_i needs 1 <= i <= n")
    out = np.zeros(dims.angular_dim)
    k1, k = dims.ambient, dims.k
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
    f = f_products(a_chain(q.z), m)
    out[:k1] = f[0] * q.z[0]
    b = hs.tangent_coefficients(q.z[:m], q.z[1:m + 1])
    out[k1:k1 + k * m] = (f[1:, None] * b).reshape(-1)
    return out


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

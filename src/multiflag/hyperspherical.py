"""Hyperspherical chart on the unit sphere S^k in R^{k+1}.

Uses the "geographical" convention: sines accumulate from the first angle,
the last Cartesian component is cos(theta^1), and for k = 1 the chart reduces
to (sin t, cos t).  Angles theta^1..theta^{k-1} live in (0, pi); theta^k is
periodic on [0, 2*pi).  The chart degenerates where some interior sine
vanishes; operations that need the inverse or the frame normalization fail
loudly there instead of returning garbage.  One rule, in `_interior_sines`,
decides where: every chart query of the package refuses an interior sine
at or below EPS_DOM, so all routes share one domain.  The frame
d phi / d theta is one kernel, the chart's recursion unrolled over a
batch of angles (`unit_and_jacobian`).
"""

from __future__ import annotations

import numpy as np

from .errors import ChartDegenerate

# Guard on sin(theta^j), j < k, at or below which chart-dependent quantities
# are refused.  Chart degeneracy is a coordinate artifact, distinct from any
# geometric singularity of the arm.  It is the only chart threshold.
EPS_DOM = 1e-8

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# batch kernels (plain ndarrays, leading batch dimension allowed)
# ---------------------------------------------------------------------------

def unit_from_angles(theta: np.ndarray) -> np.ndarray:
    """Map angles (..., k) to unit vectors (..., k+1)."""
    theta = np.asarray(theta, dtype=float)
    s = np.sin(theta)
    c = np.cos(theta)
    k = theta.shape[-1]
    prefix = np.concatenate(
        [np.ones(theta.shape[:-1] + (1,)), np.cumprod(s, axis=-1)], axis=-1)
    z = np.empty(theta.shape[:-1] + (k + 1,))
    z[..., 0] = prefix[..., k]
    z[..., 1:] = prefix[..., k - 1::-1] * c[..., ::-1]
    return z


def unit_and_jacobian(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (phi, d phi / d theta) with shapes (B, k+1) and (B, k+1, k).

    The recursion Phi_k(t, rest) = (sin t * Phi_{k-1}(rest), cos t),
    unrolled from the innermost angle outward, one angle at a time.
    """
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    b, k = theta.shape
    val = np.ones((b, 1))
    jac = np.zeros((b, 1, 0))
    for j in range(k - 1, -1, -1):
        s, c, m = np.sin(theta[:, j]), np.cos(theta[:, j]), k - j
        nval = np.concatenate([s[:, None] * val, c[:, None]], axis=1)
        njac = np.zeros((b, m + 1, m))
        njac[:, :m, 0] = c[:, None] * val
        njac[:, m, 0] = -s
        njac[:, :m, 1:] = s[:, None, None] * jac
        val, jac = nval, njac
    return val, jac


def _interior_sines(theta, strict: bool = False) -> tuple[np.ndarray, bool]:
    """Interior sines |sin theta^j|, j < k, of angles (..., k), and whether
    all exceed EPS_DOM.  The one chart-degeneracy test: with strict=True a
    degenerate chart raises ChartDegenerate instead."""
    sines = np.abs(np.sin(np.asarray(theta, dtype=float)[..., :-1]))
    inside = not np.any(sines <= EPS_DOM)
    if strict and not inside:
        raise ChartDegenerate(
            f"chart is degenerate: an interior sine is <= {EPS_DOM:g}")
    return sines, inside


def frame_norms(theta: np.ndarray) -> np.ndarray:
    """Column norms of d phi / d theta: (1, |sin t1|, |sin t1 sin t2|, ...)."""
    sines, _ = _interior_sines(theta)
    return np.concatenate([np.ones(sines.shape[:-1] + (1,)),
                           np.cumprod(sines, axis=-1)], axis=-1)


def angles_from_unit(z: np.ndarray, strict: bool = True) -> np.ndarray:
    """Invert the chart on unit vectors (B, k+1) -> angles (B, k), the
    periodic angle in [0, 2*pi).

    strict=True raises ChartDegenerate where the chart is degenerate (see
    `_interior_sines`); strict=False resolves the undetermined trailing
    angles to a canonical representative instead (any representative maps
    back to the same point).
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    b, kp1 = z.shape
    k = kp1 - 1
    theta = np.empty((b, k))
    v = z
    for j in range(k - 1):
        r = np.linalg.norm(v[:, :-1], axis=1)
        theta[:, j] = np.arctan2(r, v[:, -1])
        safe = np.where(r > 1e-300, r, 1.0)
        v = v[:, :-1] / safe[:, None]
        fallback = np.zeros(v.shape[1])
        fallback[-1] = 1.0
        v = np.where((r > 1e-300)[:, None], v, fallback)
    last = np.arctan2(v[:, 0], v[:, 1]) % TWO_PI
    # a negative arctan2 of magnitude below ~4e-16 rounds up to 2*pi
    theta[:, k - 1] = np.where(last < TWO_PI, last, 0.0)
    _interior_sines(theta, strict)
    return theta


def interior_margin(z: np.ndarray) -> float:
    """Smallest interior sine of the chart angles of unit vector(s) z.

    Returns +inf for k = 1, where the chart has no interior angles.
    """
    sines, _ = _interior_sines(angles_from_unit(z, strict=False))
    return float(np.min(sines, initial=np.inf))


def frame_inverse(theta: np.ndarray) -> np.ndarray:
    """Inverses (B, k+1, k+1) of the chart frames [phi | d phi / d theta]
    at angles (B, k).

    The frame columns are orthogonal with norms (1, 1, |sin t1|, ...), so
    the inverse is the transpose over the squared column norms.  Note the
    squared norm: a single norm factor would leave a diagonal of column
    norms instead of the identity.  Raises ChartDegenerate where the chart
    is degenerate (see `_interior_sines`).
    """
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    _interior_sines(theta, strict=True)
    val, jac = unit_and_jacobian(theta)
    mat = np.concatenate([val[:, :, None], jac], axis=2)
    norms2 = np.concatenate([np.ones((theta.shape[0], 1)),
                             frame_norms(theta) ** 2], axis=1)
    return mat.swapaxes(1, 2) / norms2[:, :, None]


def tangent_coefficients(z: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Chart-tangent coefficients B (..., B, k) of targets (..., B, k+1) in
    the frames at unit vectors z (B, k+1): target = A z + sum_j B^j Theta^j.
    Leading axes of the targets share the B frames.

    Raises ChartDegenerate where a chart of z is degenerate.
    """
    inv = frame_inverse(angles_from_unit(z, strict=False))[:, 1:]
    return np.matmul(inv, np.asarray(target)[..., None])[..., 0]


# ---------------------------------------------------------------------------
# the paper's chart formulas on one angle array (k,)
# ---------------------------------------------------------------------------

def jacobian(rho: float, theta: np.ndarray) -> np.ndarray:
    """Jacobian of (rho, theta) -> rho * phi(theta).

    Column 0 is phi(theta); column j is rho * d phi / d theta^j.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    val, jac = unit_and_jacobian(theta)
    return np.column_stack([val[0], rho * jac[0]])


def jacobian_det(rho: float, theta: np.ndarray) -> float:
    """Closed-form determinant of `jacobian`:
    (-1)^floor((k+1)/2) * rho^k * prod_{i=1}^{k-1} sin(theta^{k-i})^i."""
    th = np.asarray(theta, dtype=float)
    k = th.size
    sign = -1.0 if ((k + 1) // 2) % 2 else 1.0
    prod = 1.0
    for i in range(1, k):
        prod *= np.sin(th[k - i - 1]) ** i
    return float(sign * rho**k * prod)


def frame_change(theta: np.ndarray,
                 theta_prime: np.ndarray) -> tuple[float, np.ndarray]:
    """Coefficients of nu' = phi(theta') in the frame at theta.

    A is the radial coefficient <nu, nu'>; B^j are orthogonal-projection
    coefficients onto the tangent directions, so the reconstruction
    nu' = A nu + sum B^j Theta^j is exact.  For k = 1 this reduces to
    (cos(t' - t), sin(t' - t)).
    """
    coeffs = frame_inverse(theta)[0] @ unit_from_angles(theta_prime)
    return float(coeffs[0]), coeffs[1:]

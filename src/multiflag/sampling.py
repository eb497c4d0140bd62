"""Random and constructed arm configurations for verification sweeps."""

from __future__ import annotations

import numpy as np

from . import hyperspherical as hs
from .arm import AngularConfig, ArmDims
from .fields import a_chain

MIN_ABS_A = 0.05     # regular draws keep every |A_i| at least this large
MAX_TRIES = 10000    # draws before a shape's margins count as out of reach


def random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _draw(dims: ArmDims, rng: np.random.Generator
          ) -> tuple[np.ndarray, np.ndarray]:
    """A Gaussian base point and n+1 uniform directions (rows).

    The directions come from one draw; each row's norm is a stacked `@`,
    so it rounds like `random_unit`'s per-row `np.linalg.norm`.
    """
    v = rng.normal(size=(dims.n + 1, dims.ambient))
    z = v / np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0]
    return rng.normal(size=dims.ambient), z


def random_regular_config(dims: ArmDims, rng: np.random.Generator,
                          chart_margin: float = 0.0) -> AngularConfig:
    """Rejection-sample a configuration with every |A_i| >= MIN_ABS_A.

    chart_margin > 0 additionally keeps every sphere's chart angles away
    from the chart boundary (needed by chart-coefficient operations, not by
    the embedded machinery).  Raises ValueError when no draw passes.  Each
    draw is judged on its rows renormalized as `AngularConfig` stores them,
    and only the accepted draw becomes one.
    """
    for _ in range(MAX_TRIES):
        x0, drawn = _draw(dims, rng)
        z = drawn / np.linalg.norm(drawn, axis=1)[:, None]
        a = a_chain(z)
        if a.size and np.min(np.abs(a)) < MIN_ABS_A:
            continue
        if chart_margin > 0.0 and hs.interior_margin(z) <= chart_margin:
            continue
        return AngularConfig(dims=dims, x0=x0, z=drawn)
    raise ValueError(f"rejection sampling failed for {dims} in "
                     f"{MAX_TRIES} tries; loosen the margins")


def singular_config(dims: ArmDims, rng: np.random.Generator,
                    index: int) -> AngularConfig:
    """Configuration with segments `index` and `index`+1 exactly orthogonal
    (A_index = 0), everything else random with the regular margins."""
    if not 1 <= index <= dims.n:
        raise IndexError("singular index needs 1 <= index <= n")
    q = random_regular_config(dims, rng)
    z = np.array(q.z)
    w = z[index] - (z[index] @ z[index - 1]) * z[index - 1]
    nrm = np.linalg.norm(w)
    if nrm < 1e-8:  # z_{index+1} nearly parallel to z_index; redraw direction
        w = random_unit(rng, dims.ambient)
        w -= (w @ z[index - 1]) * z[index - 1]
        nrm = np.linalg.norm(w)
    z[index] = w / nrm
    return AngularConfig(dims=dims, x0=q.x0, z=z)


def collinear_config(dims: ArmDims,
                     direction: np.ndarray | None = None) -> AngularConfig:
    """Perfectly straight arm based at the origin; defaults to the first
    ambient axis, which is interior for every chart."""
    if direction is None:
        direction = np.zeros(dims.ambient)
        direction[0] = 1.0
    z = np.tile(np.asarray(direction, dtype=float), (dims.n + 1, 1))
    return AngularConfig(dims=dims, x0=np.zeros(dims.ambient), z=z)

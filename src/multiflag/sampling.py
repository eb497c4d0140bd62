"""Random and constructed arm configurations for verification sweeps.

Regular configurations are rejection-sampled a batch of tries at a time
(`random_regular_configs`), and the generator is left exactly where one
try at a time would leave it, so a seed gives the same configurations
whatever the count of one call.
"""

from __future__ import annotations

import numpy as np

from . import hyperspherical as hs
from .arm import AngularConfig, ArmDims
from .fields import a_chain

MIN_ABS_A = 0.05     # regular draws keep every |A_i| at least this large
MAX_TRIES = 10000    # draws before a shape's margins count as out of reach
BATCH_TRIES = 4096   # most tries drawn by one `_draw` call


def random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _draw(dims: ArmDims, rng: np.random.Generator, tries: int
          ) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian base points (tries, k+1) and uniform directions
    (tries, n+1, k+1) from one draw, each try's n+1 directions before its
    base point.

    Each row's norm is a stacked `@`, so it rounds like `random_unit`'s
    per-row `np.linalg.norm`.
    """
    w = rng.normal(size=(tries, dims.n + 2, dims.ambient))
    v = w[:, :-1]
    z = v / np.sqrt(np.matmul(v[..., None, :], v[..., :, None]))[..., 0]
    return w[:, -1], z


def random_regular_configs(dims: ArmDims, rng: np.random.Generator,
                           count: int, chart_margin: float = 0.0
                           ) -> list[AngularConfig]:
    """`count` configurations rejection-sampled with every |A_i| >=
    MIN_ABS_A: the configurations, and the generator state after, of
    drawing and judging one try at a time.

    chart_margin > 0 additionally keeps every sphere's chart angles away
    from the chart boundary (needed by chart-coefficient operations, not by
    the embedded machinery).  Tries are drawn in batches of at most
    BATCH_TRIES and only accepted ones become an `AngularConfig`; then the
    generator is reset and advanced by exactly the tries used.  Raises
    ValueError when MAX_TRIES tries for one configuration all fail; no
    batch reaches past them.
    """
    saved = rng.bit_generator.state
    configs: list[AngularConfig] = []
    used = drawn = first = size = 0  # first: current configuration's 1st try
    while len(configs) < count:
        if used == first + MAX_TRIES:
            raise ValueError(f"rejection sampling failed for {dims} in "
                             f"{MAX_TRIES} tries; loosen the margins")
        size = min(BATCH_TRIES, first + MAX_TRIES - used,
                   max(2 * (count - len(configs)), 2 * size))
        x0, z = _draw(dims, rng, size)
        drawn += size
        # each try is judged on its rows renormalized as AngularConfig
        # stores them
        unit = z / np.linalg.norm(z, axis=-1)[..., None]
        ok = ~(np.abs(a_chain(unit)) < MIN_ABS_A).any(axis=-1)
        if chart_margin > 0.0:
            ok[ok] = [hs.interior_margin(u) > chart_margin for u in unit[ok]]
        for i in np.flatnonzero(ok):
            configs.append(AngularConfig(dims=dims, x0=x0[i], z=z[i]))
            first = used + int(i) + 1
            if len(configs) == count:
                break
        used = first if len(configs) == count else used + size
    if used != drawn:
        rng.bit_generator.state = saved
        for start in range(0, used, BATCH_TRIES):
            _draw(dims, rng, min(BATCH_TRIES, used - start))
    return configs


def random_regular_config(dims: ArmDims, rng: np.random.Generator,
                          chart_margin: float = 0.0) -> AngularConfig:
    """One configuration of `random_regular_configs`."""
    return random_regular_configs(dims, rng, 1, chart_margin)[0]


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

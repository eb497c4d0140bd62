"""Configuration spaces of the articulated arm.

Two equivalent representations are kept around:

* Cartesian: the n+2 joint positions x_0..x_{n+1} in R^{k+1} with each
  consecutive pair at distance one.
* Angular: the base point x_0 plus the n+1 unit segment directions
  z_i = x_i - x_{i-1}, i.e. a point of R^{k+1} x (S^k)^{n+1}.

The unit vectors are the source of truth in the angular representation;
chart angles are derived on demand because chart boundaries are ordinary
arm positions and must not block anything but chart-specific queries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import hyperspherical as hs
from .errors import ConstraintViolated

# Squared segment-length residual accepted by `gamma`: loose enough that
# integrator drift does not trip it before projection.
CONSTRAINT_TOL = 1e-8


@dataclass(frozen=True)
class ArmDims:
    """Arm shape: segments live in R^{k+1}; there are n+1 of them."""

    k: int
    n: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n < 0:
            raise ValueError("n must be >= 0")

    @property
    def ambient(self) -> int:
        return self.k + 1

    @property
    def joints(self) -> int:
        return self.n + 2

    @property
    def cartesian_dim(self) -> int:
        return (self.k + 1) * (self.n + 2)

    @property
    def angular_dim(self) -> int:
        # (k+1) base coordinates plus k per sphere
        return self.k * (self.n + 2) + 1


@dataclass(frozen=True)
class CartesianConfig:
    """Joint positions x_0..x_{n+1}, rows of `points`."""

    dims: ArmDims
    points: np.ndarray  # (n+2, k+1)

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.shape != (self.dims.joints, self.dims.ambient):
            raise ValueError(
                f"points must have shape {(self.dims.joints, self.dims.ambient)}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def segments(self) -> np.ndarray:
        """Rows z_1..z_{n+1} = x_i - x_{i-1}."""
        return np.diff(self.points, axis=0)

    def flat(self) -> np.ndarray:
        return self.points.reshape(-1)


@dataclass(frozen=True)
class AngularConfig:
    """Base point plus unit directions; rows of `z` are z_1..z_{n+1}."""

    dims: ArmDims
    x0: np.ndarray  # (k+1,)
    z: np.ndarray   # (n+1, k+1), unit rows

    def __post_init__(self):
        x0 = np.array(self.x0, dtype=float).reshape(-1)
        z = np.array(self.z, dtype=float)
        if x0.shape != (self.dims.ambient,):
            raise ValueError(f"x0 must have shape ({self.dims.ambient},)")
        if z.shape != (self.dims.n + 1, self.dims.ambient):
            raise ValueError(
                f"z must have shape {(self.dims.n + 1, self.dims.ambient)}")
        if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(z))):
            raise ValueError("configuration must be finite")
        norms = np.linalg.norm(z, axis=1)
        if np.any(norms < 0.5):
            raise ValueError("segment directions must be nowhere near zero")
        z = z / norms[:, None]
        x0.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "z", z)

    def angles(self, sphere: int) -> np.ndarray:
        """Chart angles (k,) of sphere `sphere` (which carries z_{sphere+1}).

        Raises ChartDegenerate near the chart boundary.
        """
        if not 0 <= sphere <= self.dims.n:
            raise IndexError("sphere index out of range")
        return hs.angles_from_unit(self.z[sphere])[0]

    def flat(self) -> np.ndarray:
        """Embedded ambient coordinates [x0, z_1, ..., z_{n+1}]."""
        return np.concatenate([self.x0, self.z.reshape(-1)])


def constraint_residuals(c: CartesianConfig) -> np.ndarray:
    """Unit-length residuals |x_{i+1} - x_i|^2 - 1, i = 0..n."""
    seg = c.segments()
    return np.sum(seg * seg, axis=1) - 1.0


def gamma(c: CartesianConfig) -> AngularConfig:
    """Cartesian -> angular: keep x_0, take unit segment directions.

    Raises ConstraintViolated when a segment length is off by more than
    CONSTRAINT_TOL (on the squared-length residual).
    """
    res = constraint_residuals(c)
    if np.any(np.abs(res) > CONSTRAINT_TOL):
        worst = int(np.argmax(np.abs(res)))
        raise ConstraintViolated(
            f"segment {worst} violates the unit constraint: residual {res[worst]:.3e}")
    return AngularConfig(dims=c.dims, x0=c.points[0], z=c.segments())


def gamma_inverse(a: AngularConfig) -> CartesianConfig:
    """Angular -> Cartesian: accumulate x_i = x_0 + sum_{j<=i} z_j."""
    pts = np.vstack([a.x0, a.x0 + np.cumsum(a.z, axis=0)])
    return CartesianConfig(dims=a.dims, points=pts)


def normal_fields(c: CartesianConfig) -> np.ndarray:
    """Constraint normals N_0..N_n as rows in R^{(k+1)(n+2)}.

    N_i carries +(x_{i+1}-x_i) on joint slot i+1 and the negative on slot i;
    it is half the gradient of the squared-length residual.
    """
    k1 = c.dims.ambient
    seg = c.segments()
    out = np.zeros((c.dims.n + 1, c.dims.cartesian_dim))
    for i in range(c.dims.n + 1):
        out[i, (i + 1) * k1:(i + 2) * k1] = seg[i]
        out[i, i * k1:(i + 1) * k1] = -seg[i]
    return out


# ---------------------------------------------------------------------------
# serialization: {"k":…, "n":…, "x0":[…], "z":[[…],…]}
# ---------------------------------------------------------------------------

def config_to_dict(a: AngularConfig) -> dict:
    return {
        "k": a.dims.k,
        "n": a.dims.n,
        "x0": a.x0.tolist(),
        "z": a.z.tolist(),
    }


def config_from_dict(d: dict) -> AngularConfig:
    """Build a config from the JSON form; directions are renormalized."""
    try:
        dims = ArmDims(k=int(d["k"]), n=int(d["n"]))
        x0 = np.asarray(d["x0"], dtype=float)
        z = np.asarray(d["z"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad configuration object: {exc!r}") from exc
    return AngularConfig(dims=dims, x0=x0, z=z)


JSON_ROWS = 256  # rows of an array per `json.dumps` call in `_write_json`


def _write_json(path, obj: dict) -> None:
    """Write the bytes of `json.dump(obj, fh, sort_keys=True)` and a newline
    through the C encoder (`json.dumps`) in bounded pieces: one call per
    top-level value, per list item and per JSON_ROWS rows of an array."""
    def pieces(val):
        if isinstance(val, np.ndarray):
            return (json.dumps(val[i:i + JSON_ROWS].tolist())[1:-1]
                    for i in range(0, len(val), JSON_ROWS))
        return (json.dumps(item, sort_keys=True) for item in val)

    with open(path, "w") as fh:
        fh.write("{")
        for j, key in enumerate(sorted(obj)):
            fh.write((", " if j else "") + json.dumps(key) + ": ")
            if not isinstance(obj[key], (list, np.ndarray)):
                fh.write(json.dumps(obj[key], sort_keys=True))
                continue
            fh.write("[")
            for i, piece in enumerate(pieces(obj[key])):
                fh.write((", " if i else "") + piece)
            fh.write("]")
        fh.write("}\n")


def save_config(a: AngularConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(a), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> AngularConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))

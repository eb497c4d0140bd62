"""Every file the program reads or writes: configurations
(`save_config`, `load_config`), runs (`Trajectory`, written as CSV and
JSON and read back from JSON), controls tables (`read_controls`) and the
`verify` and `singular-scan` payloads (`write_json`).  The two JSON
loaders open, parse and read (k, n) by one path, and refuse a missing key
or a value not of its exact JSON type as ValueError: (k, n) are integers
and every array entry a JSON integer or float, so no true, "1" or null
passes for a number.
"""

from __future__ import annotations

import functools
import json
import reprlib
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arm import AngularConfig, ArmDims

FMT = "%.17g"
MODES = ("arm", "car", "cartesian", "subarm")  # the routes a run can take
# rows of an array per encoder call of `write_json`, per `%` format of
# `Trajectory.to_csv`, and steps per step-loop call of `dynamics._integrate`
CHUNK_ROWS = 256
# the encoder of `json.dump(..., sort_keys=True)`, without its cycle check:
# a written payload is a tree of lists and dicts
_JSON = json.JSONEncoder(sort_keys=True, check_circular=False)


def write_json(path, obj: dict) -> None:
    """Write the bytes of `json.dump(obj, fh, sort_keys=True)` and a newline
    through the C encoder in bounded pieces: one call per top-level value,
    per list item and per CHUNK_ROWS rows of an array.  A list item with a
    `json_text()` method (`flags.FlagReport`) is written as that text,
    which stands for the encoded dict form of the item."""
    def pieces(val):
        if isinstance(val, np.ndarray):
            return (_JSON.encode(val[i:i + CHUNK_ROWS].tolist())[1:-1]
                    for i in range(0, len(val), CHUNK_ROWS))
        return (item.json_text() if hasattr(item, "json_text")
                else _JSON.encode(item) for item in val)

    with open(path, "w") as fh:
        fh.write("{")
        for j, key in enumerate(sorted(obj)):
            fh.write((", " if j else "") + _JSON.encode(key) + ": ")
            if not isinstance(obj[key], (list, np.ndarray)):
                fh.write(_JSON.encode(obj[key]))
                continue
            fh.write("[")
            for i, piece in enumerate(pieces(obj[key])):
                fh.write((", " if i else "") + piece)
            fh.write("]")
        fh.write("}\n")


def _scalar(what, d, key, types, kind, ok=lambda v: True):
    """d[key] (None if missing where `types` admits None), refused as `<what>
    'key' must be <kind>, got <value>` unless of an exact JSON type of
    `types` (no true, "1" or 1.0 is an integer) and ok(value)."""
    val = d.get(key) if type(None) in types else d[key]
    if type(val) not in types or not ok(val):
        raise ValueError(f"{what} {key!r} must be {kind}, got {val!r}")
    return val


def _numbers(what, d, key) -> np.ndarray:
    """d[key] as a float array, refused as `<what> 'key' must hold only
    numbers, got <entry>` unless each entry is a JSON integer or float."""
    entries = np.array(d[key], dtype=object)
    flat = entries.ravel().tolist()
    if not set(map(type, flat)) <= {int, float}:
        bad = next(v for v in flat if type(v) not in (int, float))
        raise ValueError(f"{what} {key!r} must hold only numbers, got "
                         f"{reprlib.repr(bad)}")
    return entries.astype(float)


def _from_dict(what, d, build):
    """build(dims, scalar, numbers) for the JSON object d of a `what` file,
    with dims its (k, n) and readers of its other keys; a missing key or a
    value of the wrong kind is refused as `bad <what> object: <error>`."""
    scalar = functools.partial(_scalar, what, d)
    try:
        dims = ArmDims(*(scalar(key, (int,), "an integer") for key in "kn"))
        return build(dims, scalar, functools.partial(_numbers, what, d))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"bad {what} object: {exc!r}") from exc


def _load(path, from_dict):
    """from_dict of the JSON object in the file at path; JSON nested past
    the recursion limit is refused as ValueError."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"nested too deeply: {exc}") from exc
    return from_dict(obj)


def config_to_dict(a: AngularConfig) -> dict:
    return {"k": a.dims.k, "n": a.dims.n, "x0": a.x0.tolist(),
            "z": a.z.tolist()}


def config_from_dict(d: dict) -> AngularConfig:
    """Build a config from the JSON form; directions are renormalized."""
    return _from_dict("configuration", d, lambda dims, _, numbers:
                      AngularConfig(dims, numbers("x0"), numbers("z")))


def save_config(a: AngularConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(a), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> AngularConfig:
    return _load(path, config_from_dict)


def read_controls(path, k: int):
    """Times (M,), vn (M,) and w (M, k) of the controls CSV at path, as
    `ControlSignal.from_table` takes them."""
    with open(path) as fh, warnings.catch_warnings():
        # a file without data rows is refused below, not warned about
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
    if not len(data):
        raise ValueError("controls file has no data rows")
    if data.shape[1] != 2 + k:
        raise ValueError(f"controls file needs columns t, vn, w1..w{k}")
    return data[:, 0], data[:, 1], data[:, 2:]


@dataclass
class Trajectory:
    """Recorded motion plus per-step diagnostics: every route's angular
    view of each state (base point, unit segment rows and head-sphere
    angles), and the raw joint positions of the Cartesian route."""

    mode: str
    dims: ArmDims
    times: np.ndarray          # (M,)
    x0: np.ndarray             # (M, k+1)
    z: np.ndarray              # (M, n+1, k+1)
    theta_n: np.ndarray        # (M, k)
    vn: np.ndarray             # (M,)
    w: np.ndarray              # (M, k)
    v: np.ndarray              # (M, n+1) normal velocities of joints 1..n+1
    drift_pre: np.ndarray      # (M,) pre-projection constraint drift
    drift_post: np.ndarray     # (M,)
    h: float
    T: float
    projection: bool
    seed: Optional[int] = None
    points: Optional[np.ndarray] = None  # (M, n+2, k+1), cartesian mode

    def __len__(self) -> int:
        return self.times.size

    def index_of(self, t):
        """Index of the recorded time closest to t, or an index array for
        an array of times; every t must sit on the grid."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(0.5 * (self.times[1:] + self.times[:-1]), t)
        off = np.abs(self.times[idx] - t) > (
            1e-9 * np.maximum(1.0, np.abs(t)) + 1e-12)
        if np.any(off):
            raise ValueError(f"time {float(t[off][0])} is not on the "
                             f"recorded grid")
        return int(idx) if t.ndim == 0 else idx

    def csv_header(self) -> list[str]:
        rows = range(1, self.dims.ambient + 1)
        return (["t"] + [f"x0_{r}" for r in rows]
                + [f"z{i}_{r}" for i in range(1, self.dims.n + 2)
                   for r in rows]
                + [f"v{i}" for i in range(self.dims.n + 1)])

    def to_csv(self, path) -> None:
        """The meta line `# multiflag trajectory mode=<mode> k=<k> n=<n>
        h=<h> T=<T> projection=on|off seed=<seed>|none`, the header row,
        then one row of FMT numbers per record."""
        meta = (f"# multiflag trajectory mode={self.mode} k={self.dims.k} "
                f"n={self.dims.n} h={FMT % self.h} T={FMT % self.T} "
                f"projection={'on' if self.projection else 'off'} "
                f"seed={self.seed if self.seed is not None else 'none'}")
        block = np.column_stack([self.times, self.x0,
                                 self.z.reshape(len(self), -1), self.v])
        # the rows of np.savetxt, CHUNK_ROWS of them per `%` format
        row = ",".join([FMT] * block.shape[1]) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(meta + "\n" + ",".join(self.csv_header()) + "\r\n")
            for i in range(0, len(block), CHUNK_ROWS):
                chunk = block[i:i + CHUNK_ROWS]
                fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))

    def _payload(self) -> dict:
        """The JSON form, each recorded array still an array."""
        out = {key: val for key, val in vars(self).items()
               if val is not None or key == "seed"}
        dims = out.pop("dims")
        return dict(out, k=dims.k, n=dims.n)

    def to_json(self, path) -> None:
        write_json(path, self._payload())

    @staticmethod
    def from_dict(d: dict) -> "Trajectory":
        """The trajectory of a `to_json` object, read back with lists for
        arrays; raises ValueError on what no written run holds: a missing
        key, a value of the wrong type or range, no records, an array of
        the wrong shape or with a non-finite value, or times that do not
        step from 0 to T by h."""
        return _from_dict("trajectory", d, _trajectory)

    @staticmethod
    def from_json(path) -> "Trajectory":
        return _load(path, Trajectory.from_dict)


def _trajectory(dims: ArmDims, scalar, numbers) -> Trajectory:
    """`Trajectory.from_dict`'s reading of every key but k and n."""
    m, k1 = len(scalar("times", (list,), "a list")), dims.ambient
    if m == 0:
        raise ValueError("trajectory has no records")
    shapes = {"times": (m,), "x0": (m, k1), "z": (m, dims.n + 1, k1),
              "theta_n": (m, dims.k), "vn": (m,), "w": (m, dims.k),
              "v": (m, dims.n + 1), "drift_pre": (m,), "drift_post": (m,),
              "points": (m, dims.joints, k1)}
    if scalar("points", (list, type(None)), "a list or null") is None:
        del shapes["points"]
    arrays = {key: numbers(key) for key in shapes}
    scalars = {
        "mode": scalar("mode", (str,), "one of " + ", ".join(
            map(repr, MODES)), MODES.__contains__),
        "h": float(scalar("h", (int, float), "a positive finite number",
                          lambda v: 0 < v < np.inf)),
        "T": float(scalar("T", (int, float), "a nonnegative finite number",
                          lambda v: 0 <= v < np.inf)),
        "projection": scalar("projection", (bool,), "true or false"),
        "seed": scalar("seed", (int, type(None)), "an integer or null")}
    for key, val in arrays.items():
        if val.shape != shapes[key]:
            raise ValueError(f"trajectory {key!r} has shape {val.shape}, "
                             f"expected {shapes[key]}")
        if not np.isfinite(val).all():
            raise ValueError(f"trajectory {key!r} holds a non-finite value")
    # the rule of `ControlSignal.from_table`; `index_of` reads sorted times
    times, gaps, h = arrays["times"], np.diff(arrays["times"]), scalars["h"]
    if np.any(gaps <= 0):
        raise ValueError("trajectory times must strictly increase")
    # the grid a run is written on, to `index_of`'s tolerance: from 0 to T
    # in steps of h, the last at most h
    tol = 1e-9 * max(1.0, scalars["T"]) + 1e-12
    off = np.concatenate([times[[0, -1]] - [0.0, scalars["T"]], gaps[:-1] - h])
    if np.abs(off).max() > tol or gaps[-1:].max(initial=h) > h + tol:
        raise ValueError("trajectory times must step from 0 to T by h")
    return Trajectory(dims=dims, **scalars, **arrays)

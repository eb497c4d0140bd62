"""Controlled kinematics of the arm: fixed-step RK4 integrators with
per-step projection onto the product of unit spheres.

Three routes to the same motion are implemented independently so they can
cross-check each other:

* `integrate_car`: the planar cascade in car variables (x, y, headings),
  valid for k = 1 only;
* `integrate_arm`: the general system on the base point and unit segment
  directions, driven by the normal velocity of the head and the k tangential
  chart rates of the last sphere;
* `integrate_cartesian`: the flow of the constrained-distribution
  generators on raw joint positions.

The routes differ only in their state variables.  Each supplies a
right-hand side `rhs(y, vn, head_row)` writing into buffers allocated
once, a batched table `head(theta, w)` of what it reads of the head, its
unit rows with their in-place normalization, an initial state and a
batched view of its states as base points, unit segment rows and head
angles; one stepper (`_integrate`) and one recorder (`_record`) serve all
three.  Every route carries the head-sphere chart angles as state, so no
route inverts a chart mid-run; as d theta/dt = w alone, the stepper
tables them, like the controls, at every stage before the first step.
Joint velocities come from one kernel batched over records
(`_joint_velocities`), which `collinearity_residuals` reuses; the
recorder keeps only the normal velocities.  The angular right-hand side is evaluated on unit vectors, so it stays well defined
where intermediate sphere charts degenerate.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import hyperspherical as hs
from .arm import AngularConfig, ArmDims, CartesianConfig, _write_json
from .errors import StepRejected
from .fields import _cascade, a_chain, f_products

FMT = "%.17g"

# Largest constraint drift one RK4 step may build up before projection.
MAX_STEP_DRIFT = 1e-6
HEAD_ROWS = 1024  # stages per `unit_and_jacobian` call, Cartesian head table


# ---------------------------------------------------------------------------
# controls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlSignal:
    """Head controls: normal velocity v_n(t) and tangential rates w(t).

    Both take an array of times (M,) and return (M,) and (M, k); a single
    time gives a scalar and (k,).  The integrators call each once per run,
    on every stage time at once.  w returns the k chart rates of the head
    sphere; for k = 1 this is the single angular velocity of the classical
    car."""

    v_n: Callable[[np.ndarray], np.ndarray]
    w: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def constant(vn: float, w) -> "ControlSignal":
        vn = float(vn)
        wv = np.atleast_1d(np.asarray(w, dtype=float)).copy()
        return ControlSignal(lambda t: np.full(np.shape(t), vn),
                             lambda t: np.tile(wv, np.shape(t) + (1,)))

    @staticmethod
    def sinusoid(k: int, vn_amp: float = 1.0, w_amp=0.5,
                 freq: float = 0.5, phase: float = 0.0) -> "ControlSignal":
        """Smooth periodic preset: vn = a*cos(2 pi f t + phase),
        w_j = b_j*sin(2 pi f t + phase + j)."""
        w_amp = np.broadcast_to(np.asarray(w_amp, dtype=float), (k,)).copy()
        om = 2.0 * np.pi * freq

        def vn(t):
            return vn_amp * np.cos(om * np.asarray(t, dtype=float) + phase)

        def w(t):
            t = np.asarray(t, dtype=float)[..., None]
            return w_amp * np.sin(om * t + phase + np.arange(1, k + 1))

        return ControlSignal(vn, w)

    @staticmethod
    def from_table(times, vn_values, w_values) -> "ControlSignal":
        """Linear interpolation of sampled controls; the table must be
        finite and its times strictly increasing."""
        times = np.asarray(times, dtype=float)
        vn_values = np.asarray(vn_values, dtype=float)
        w_values = np.atleast_2d(np.asarray(w_values, dtype=float))
        if w_values.shape[0] != times.size:
            w_values = w_values.T
        if not all(np.all(np.isfinite(x))
                   for x in (times, vn_values, w_values)):
            raise ValueError("control table holds a non-finite value")
        if np.any(np.diff(times) <= 0):
            raise ValueError("control table times must strictly increase")
        cols = [w_values[:, j] for j in range(w_values.shape[1])]

        def vn(t):
            return np.interp(t, times, vn_values)

        def w(t):
            return np.stack([np.interp(t, times, c) for c in cols], axis=-1)

        return ControlSignal(vn, w)


@dataclass(frozen=True)
class IntegratorSettings:
    """Fixed-step RK4 options."""

    h: float
    projection: bool = True

    def __post_init__(self):
        if not 0.0 < self.h < np.inf:
            raise ValueError("step size must be positive and finite")


# ---------------------------------------------------------------------------
# trajectory container
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Recorded motion plus per-step diagnostics.

    All modes store the angular view of each state (base point, unit
    segment rows and head-sphere angles); the Cartesian integrator also
    keeps its raw joint positions.
    """

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

    def min_abs_a(self) -> float:
        """Smallest |A_i| seen along the trajectory (inf when n = 0)."""
        if self.dims.n == 0:
            return float("inf")
        return float(np.min(np.abs(a_chain(self.z))))

    # -- export ------------------------------------------------------------

    def csv_header(self) -> list[str]:
        k1 = self.dims.ambient
        cols = ["t"]
        cols += [f"x0_{r + 1}" for r in range(k1)]
        for i in range(1, self.dims.n + 2):
            cols += [f"z{i}_{r + 1}" for r in range(k1)]
        cols += [f"v{i}" for i in range(self.dims.n + 1)]
        return cols

    def to_csv(self, path) -> None:
        meta = (f"# multiflag trajectory mode={self.mode} k={self.dims.k} "
                f"n={self.dims.n} h={FMT % self.h} T={FMT % self.T} "
                f"projection={'on' if self.projection else 'off'} "
                f"seed={self.seed if self.seed is not None else 'none'}")
        block = np.column_stack([self.times, self.x0,
                                 self.z.reshape(len(self), -1), self.v])
        with open(path, "w", newline="") as fh:
            fh.write(meta + "\n")
            csv.writer(fh).writerow(self.csv_header())
            np.savetxt(fh, block, fmt=FMT, delimiter=",", newline="\r\n")

    def _payload(self) -> dict:
        """The JSON form, each recorded array still an array."""
        out = {"mode": self.mode, "k": self.dims.k, "n": self.dims.n,
               "h": self.h, "T": self.T, "projection": self.projection,
               "seed": self.seed}
        for key in ("times", "x0", "z", "theta_n", "vn", "w", "v",
                    "drift_pre", "drift_post", "points"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out

    def to_json(self, path) -> None:
        _write_json(path, self._payload())

    @staticmethod
    def from_dict(d: dict) -> "Trajectory":
        """The trajectory of a `to_json` object, read back with lists for
        arrays; raises ValueError on a missing key or an array of the wrong
        shape."""
        try:
            dims = ArmDims(k=int(d["k"]), n=int(d["n"]))
            m, k1, n1 = len(d["times"]), dims.ambient, dims.n + 1
            shapes = {"times": (m,), "x0": (m, k1), "z": (m, n1, k1),
                      "theta_n": (m, dims.k), "vn": (m,), "w": (m, dims.k),
                      "v": (m, n1), "drift_pre": (m,), "drift_post": (m,)}
            if d.get("points") is not None:
                shapes["points"] = (m, dims.joints, k1)
            arrays = {key: np.asarray(d[key], dtype=float) for key in shapes}
            scalars = {"mode": str(d["mode"]), "h": float(d["h"]),
                       "T": float(d["T"]), "projection": bool(d["projection"]),
                       "seed": d.get("seed")}
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad trajectory object: {exc!r}") from exc
        for key, shape in shapes.items():
            if arrays[key].shape != shape:
                raise ValueError(f"trajectory {key!r} has shape "
                                 f"{arrays[key].shape}, expected {shape}")
        return Trajectory(dims=dims, **scalars, **arrays)

    @staticmethod
    def from_json(path) -> "Trajectory":
        with open(path) as fh:
            return Trajectory.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# shared kinematic quantities
# ---------------------------------------------------------------------------

def _joint_velocities(z: np.ndarray, theta_n: np.ndarray, vn: np.ndarray,
                      w: np.ndarray) -> np.ndarray:
    """Joint velocities xdot_0..xdot_{n+1} (B, n+2, k+1).

    Batched over states: z (B, n+1, k+1), head angles theta_n (B, k),
    controls vn (B,) and w (B, k).  The head row rate is taken through the
    chart frame at theta_n; joint velocities accumulate the segment rates
    from the base point outward.
    """
    dx0, dz = _cascade(z, vn)
    _, jac = hs.unit_and_jacobian(theta_n)
    head = np.matmul(jac, w[:, :, None])
    return np.cumsum(np.concatenate([dx0[:, None], dz, head.swapaxes(1, 2)],
                                    axis=1), axis=1)


# ---------------------------------------------------------------------------
# stepping and recording
# ---------------------------------------------------------------------------

def _steps(T: float, h: float) -> np.ndarray:
    if not 0.0 <= T < np.inf:
        raise ValueError("horizon must be finite and nonnegative")
    if T == 0.0:
        return np.empty(0)
    if h >= T:
        return np.array([T])
    full = int(np.floor(T / h + 1e-12))
    rem = T - full * h
    return np.append(np.full(full, h),
                     [rem] if rem > 1e-12 * max(1.0, T) else [])


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _integrate(rhs, head, rows, normalize, y0: np.ndarray,
               u: ControlSignal, k: int, T: float,
               settings: IntegratorSettings):
    """Run the stepper from y0, whose last k components are head angles.

    The stage times of a step are t, t + h/2 and t + h, with t = t + h.
    The controls at all of them and the head track (d theta/dt = w, in
    the loop's arithmetic) are tabled before the first step, and so is
    `head(theta, w)`: the rows (S, r) that `rhs(y, vn, head_row)` reads at
    the stage angles and controls (S, k).  rhs returns the rates of the
    other components of y in a buffer of its own.  `rows(states)` gives
    the rows (M, r, k+1) of stacked states that must stay unit (None:
    none), and `normalize(y, rows, norms)` rescales them in place in y.
    Numpy warns of no overflow: the gates reject what it leads to.

    Returns times (M,), states (M, D), the constraint drift of each step
    before and after its projection (M,), and the controls at the
    recorded times, vn (M,) and w (M, k); record 0 is the initial state.
    """
    steps = _steps(T, settings.h)
    s = steps.size
    times = np.concatenate([[0.0], np.cumsum(steps)])
    stage = np.column_stack([times[:-1], times[:-1] + 0.5 * steps,
                             times[1:]])
    at = np.append(stage.ravel(), times[-1])
    vn = np.asarray(u.v_n(at), dtype=float)
    w = np.asarray(u.w(at), dtype=float)
    if vn.shape != at.shape or w.shape[:1] != at.shape:
        raise ValueError("controls must map an array of M times to arrays "
                         "of shape (M,) and (M, k)")
    if w.shape != at.shape + (k,):
        raise ValueError(f"tangential control must have {k} components")
    stage_vn = vn[:-1].reshape(s, 3).tolist()
    w1, w2, w4 = w[:-1].reshape(s, 3, k).transpose(1, 0, 2)

    states = np.empty((s + 1, y0.size))
    states[0] = y0
    m = y0.size - k
    # the head angle rates of the four stages are w1, w2, w2 and w4
    full, half, theta = steps[:, None], 0.5 * steps[:, None], states[:, m:]
    np.add.accumulate(np.concatenate([theta[:1], (
        ((w1 + w2 * 2.0) + w2 * 2.0) + w4 * 1.0) * (full / 6.0)]), out=theta)
    start = theta[:-1]
    table = head(np.stack([start, w1 * half + start, w2 * half + start,
                           w2 * full + start], axis=1).reshape(-1, k),
                 np.stack([w1, w2, w2, w4], axis=1).reshape(-1, k))
    table, stepped = table.reshape((s, 4) + table.shape[1:]), states[:, :m]

    drift_pre = np.zeros(s + 1)
    acc, ys = np.empty((2, m))
    for j, h in enumerate(steps.tolist()):
        y, y_new = stepped[j], stepped[j + 1]
        (v1, v2, v4), (r1, r2, r3, r4) = stage_vn[j], table[j]
        rates = rhs(y, v1, r1)
        np.copyto(acc, rates)
        for dt, weight, vn_, r in ((0.5 * h, 2.0, v2, r2),
                                   (0.5 * h, 2.0, v2, r3), (h, 1.0, v4, r4)):
            np.multiply(rates, dt, out=ys)
            ys += y
            rates = rhs(ys, vn_, r)
            np.multiply(rates, weight, out=ys)  # ys is free until next stage
            acc += ys
        acc *= h / 6.0
        np.add(y, acc, out=y_new)
        if not np.isfinite(states[j + 1]).all():
            raise StepRejected(f"non-finite state at t={times[j + 1]:g}")
        if rows is None:
            continue
        seg = rows(y_new[None])[0]
        # the norms as np.linalg.norm computes them, cheaper per call
        norms = np.sqrt(np.add.reduce(seg * seg, axis=1))
        drift_pre[j + 1] = np.abs(norms - 1.0).max(initial=0.0)
        if settings.projection:
            normalize(y_new, seg, norms)
        if drift_pre[j + 1] > MAX_STEP_DRIFT:
            raise StepRejected(
                f"constraint drift {drift_pre[j + 1]:.3e} in one step "
                f"at t={times[j + 1]:g}")
    drift_post = np.zeros(s + 1)
    if rows is not None:
        drift_post[1:] = np.max(np.abs(np.linalg.norm(
            rows(states[1:]), axis=-1) - 1.0), axis=-1, initial=0.0)
    # the recorded times: every step's start, then the last step's end
    return (times, states, drift_pre, drift_post, vn[::3].copy(),
            w[::3].copy())


def _record(mode: str, dims: ArmDims, T: float,
            settings: IntegratorSettings, seed: Optional[int], run,
            view) -> Trajectory:
    """Build the trajectory of a stepped route.

    `run` is what `_integrate` returned; `view` maps its stacked states to
    the recorded arrays x0, z, theta_n (and points, Cartesian route).
    """
    times, states, drift_pre, drift_post, vn, w = run
    recorded = view(states)
    z = recorded["z"]
    # the normal velocities v_i = <xdot_{i+1}, z_{i+1}>
    v = np.sum(_joint_velocities(z, recorded["theta_n"], vn, w)[:, 1:] * z,
               axis=2)
    return Trajectory(mode=mode, dims=dims, times=times, vn=vn, w=w, v=v,
                      drift_pre=drift_pre, drift_post=drift_post,
                      h=settings.h, T=T, projection=settings.projection,
                      seed=seed, **recorded)


# ---------------------------------------------------------------------------
# the arm integrator (also used for sub-arms)
# ---------------------------------------------------------------------------

def integrate_arm(q0: AngularConfig, u: ControlSignal, T: float,
                  settings: IntegratorSettings, *, mode: str = "arm",
                  seed: Optional[int] = None) -> Trajectory:
    """Integrate the angular controlled system.

    The state carries the base point, the unit rows z_1..z_n, and the chart
    angles of the head sphere.  Requires a non-degenerate head chart at t=0
    for k >= 2: the tangential controls are chart components and a pole
    start would make their meaning ambiguous.
    """
    dims = q0.dims
    k, k1, n = dims.k, dims.ambient, dims.n
    body = slice(k1, k1 + n * k1)

    def view(states: np.ndarray) -> dict:
        m = states.shape[0]
        theta_n = states[:, body.stop:]
        head = hs.unit_from_angles(theta_n)[:, None]
        z = np.concatenate([states[:, body].reshape(m, n, k1), head], axis=1)
        return {"x0": states[:, :k1], "z": z, "theta_n": theta_n}

    # buffers of the right-hand side, and the views of them it uses
    z, rate = np.empty((n + 1, k1)), np.empty(body.stop)
    prod, a, f, v = np.empty((n, k1)), np.empty(n), np.ones(n + 1), \
        np.empty(n + 1)
    z_body, z_head, z_lo, z_hi = z.reshape(-1)[:-k1], z[n], z[:-1], z[1:]
    rev_a, rev_f, a_col, v_head, v_col = (a[::-1], f[-2::-1], a[:, None],
                                          v[:1], v[1:, None])
    dx0, dz = rate[:k1], rate[body].reshape(n, k1)

    def rhs(y: np.ndarray, vn: float, head_row: np.ndarray) -> np.ndarray:
        # the rows z_1..z_{n+1}, then the rates as in fields._cascade
        z_body[:] = y[body]
        z_head[:] = head_row
        np.multiply(z_lo, z_hi, out=prod)
        np.add.reduce(prod, axis=1, out=a)
        np.multiply.accumulate(rev_a, out=rev_f)
        np.multiply(f, vn, out=v)
        np.multiply(v_head, z[0], out=dx0)
        np.multiply(a_col, z_lo, out=prod)
        np.subtract(z_hi, prod, out=prod)
        np.multiply(v_col, prod, out=dz)
        return rate

    def rows(states: np.ndarray) -> np.ndarray:
        return states[:, body].reshape(states.shape[0], n, k1)

    def normalize(y: np.ndarray, seg: np.ndarray, norms: np.ndarray):
        seg /= norms[:, None]

    y0 = np.concatenate([q0.x0, q0.z[:-1].reshape(-1), q0.angles(n)])
    run = _integrate(rhs, lambda theta, w: hs.unit_from_angles(theta), rows,
                     normalize, y0, u, k, T, settings)
    return _record(mode, dims, T, settings, seed, run, view)


# ---------------------------------------------------------------------------
# the planar car integrator (k = 1 oracle)
# ---------------------------------------------------------------------------

def car_state_from_config(q: AngularConfig) -> np.ndarray:
    """(x, y, theta_0..theta_n) from an angular config with k = 1.

    The planar axes are swapped relative to the arm's ambient coordinates:
    the heading z = (sin t, cos t) means arm axis 1 is the car's y axis.
    """
    if q.dims.k != 1:
        raise ValueError("car variables need k = 1")
    thetas = np.arctan2(q.z[:, 0], q.z[:, 1])
    return np.concatenate([[q.x0[1], q.x0[0]], thetas])


def _car_view(states: np.ndarray) -> dict:
    """Angular view of stacked car states (M, n+3); the head angle is
    reduced to [0, 2 pi)."""
    th = states[:, 2:]
    z = np.stack([np.sin(th), np.cos(th)], axis=2)
    return {"x0": states[:, [1, 0]],
            "z": z / np.linalg.norm(z, axis=2)[:, :, None],
            "theta_n": states[:, -1:] % (2 * np.pi)}


def integrate_car(q0: AngularConfig, u: ControlSignal, T: float,
                  settings: IntegratorSettings,
                  seed: Optional[int] = None) -> Trajectory:
    """Integrate the planar car cascade in (x, y, headings) variables.

    Independent of `integrate_arm`: different state variables, same motion.
    """
    dims = q0.dims
    if dims.k != 1:
        raise ValueError("integrate_car needs k = 1")

    th, rate = np.empty(dims.n + 1), np.empty(dims.n + 2)

    def rhs(y: np.ndarray, vn: float, head_row: np.ndarray) -> np.ndarray:
        th[:-1], th[-1] = y[2:], head_row[0]
        diffs = th[1:] - th[:-1]
        v = f_products(np.cos(diffs), dims.n) * vn
        rate[0], rate[1] = v[0] * np.cos(th[0]), v[0] * np.sin(th[0])
        np.multiply(v[1:], np.sin(diffs), out=rate[2:])
        return rate

    # the head table is the head angle; headings carry no constraint
    run = _integrate(rhs, lambda theta, w: theta, None, None,
                     car_state_from_config(q0), u, 1, T, settings)
    return _record("car", dims, T, settings, seed, run, _car_view)


# ---------------------------------------------------------------------------
# the Cartesian integrator
# ---------------------------------------------------------------------------

def integrate_cartesian(q0: CartesianConfig, u: ControlSignal, T: float,
                        settings: IntegratorSettings,
                        seed: Optional[int] = None) -> Trajectory:
    """Flow the joint positions along the constrained-distribution
    generators, with the head control mapped through the head frame.

    The state is the joint positions followed by the head-sphere chart
    angles (dtheta/dt = w, as in `integrate_arm`), so the tangential
    controls keep their meaning through head-chart poles.  Serves as the
    independent oracle for `integrate_arm` through the segment-difference
    map.
    """
    dims = q0.dims
    k, k1, n, p = dims.k, dims.ambient, dims.n, dims.cartesian_dim

    def view(states: np.ndarray) -> dict:
        x = states[:, :p].reshape(states.shape[0], n + 2, k1)
        z = rows(states)
        return {"x0": x[:, 0],
                "z": z / np.linalg.norm(z, axis=2)[:, :, None],
                "theta_n": states[:, p:], "points": x}

    def head_rates(theta: np.ndarray, w: np.ndarray) -> np.ndarray:
        # jac w at every stage; chunks bound the memory of the factor gather
        out = np.empty((len(theta), k1))
        for i in range(0, len(theta), HEAD_ROWS):
            jac = hs.unit_and_jacobian(theta[i:i + HEAD_ROWS])[1]
            out[i:i + HEAD_ROWS] = (jac @ w[i:i + HEAD_ROWS, :, None])[..., 0]
        return out

    # buffers of the right-hand side, and the views of them it uses
    z, lead = np.empty((n + 1, k1)), np.empty((n + 1, 1))
    prod, a, f = np.empty((n, k1)), np.empty(n), np.ones(n + 1)
    z_flat, z_lo, z_hi, z_head = z.reshape(-1), z[:-1], z[1:], z[n]
    rev_a, rev_f, f_col = a[::-1], f[-2::-1], f[:, None]
    rate = np.empty(p)
    dx, head = rate[:p - k1].reshape(n + 1, k1), rate[p - k1:]

    def rhs(y: np.ndarray, vn: float, head_row: np.ndarray) -> np.ndarray:
        # the segments x_{i+1} - x_i, as np.diff of the joint rows
        np.subtract(y[k1:p], y[:p - k1], out=z_flat)
        # vn * z_{n+1} / |z_{n+1}| + jac w, the norm as np.linalg.norm
        np.divide(z_head, np.sqrt(z_head.dot(z_head)), out=head)
        np.multiply(head, vn, out=head)
        np.add(head, head_row, out=head)
        # the rates of joints 1..n+1, as fields.a_chain and f_products
        np.multiply(z_lo, z_hi, out=prod)
        np.add.reduce(prod, axis=1, out=a)
        np.multiply.accumulate(rev_a, out=rev_f)
        np.multiply(f_col, float(head @ z_head), out=lead)
        np.multiply(lead, z, out=dx)
        return rate

    def rows(states: np.ndarray) -> np.ndarray:
        return np.subtract(states[:, k1:p], states[:, :p - k1]).reshape(
            states.shape[0], n + 1, k1)

    def normalize(y: np.ndarray, seg: np.ndarray, norms: np.ndarray):
        np.divide(seg, norms[:, None], out=seg)
        np.add.accumulate(seg, axis=0, out=seg)  # np.cumsum's arithmetic
        np.add(y[:k1], seg, out=y[k1:p].reshape(n + 1, k1))

    head0 = q0.segments()[n]
    theta0 = hs.angles_from_unit(head0 / np.linalg.norm(head0))
    y0 = np.concatenate([q0.flat(), theta0[0]])
    run = _integrate(rhs, head_rates, rows, normalize, y0, u, k, T, settings)
    return _record("cartesian", dims, T, settings, seed, run, view)


# ---------------------------------------------------------------------------
# sub-arms
# ---------------------------------------------------------------------------

def project_subarm(q: AngularConfig, p: int, m: int) -> AngularConfig:
    """Project the full configuration onto the sub-arm spanning joints
    p-1 .. m+1: base point x_{p-1} with segments z_p..z_{m+1}."""
    dims = q.dims
    if not 1 <= p < m <= dims.n:
        raise ValueError("need 1 <= p < m <= n")
    h = m - p + 1
    x0 = q.x0 + np.sum(q.z[:p - 1], axis=0)
    return AngularConfig(dims=ArmDims(dims.k, h), x0=x0, z=q.z[p - 1:m + 1])


def integrate_subarm(q0: AngularConfig, p: int, m: int, u: ControlSignal,
                     T: float, settings: IntegratorSettings,
                     seed: Optional[int] = None) -> Trajectory:
    """Integrate the projected sub-arm under its own head controls.

    The sub-arm obeys the same controlled system as a full arm of length
    m-p+2, so this delegates to `integrate_arm` on the projected state.
    """
    sub0 = project_subarm(q0, p, m)
    return integrate_arm(sub0, u, T, settings, mode="subarm", seed=seed)


def induced_subarm_controls(traj: Trajectory, p: int, m: int) -> ControlSignal:
    """Controls the segment [M_m, M_{m+1}] exerts on the sub-arm below it,
    read off a recorded full-arm trajectory.

    The returned callables only accept times on the trajectory grid, so the
    source run must be recorded on a grid containing every stage time of
    the consuming integrator (e.g. at half its step).
    """
    dims = traj.dims
    if not 1 <= p < m <= dims.n:
        raise ValueError("need 1 <= p < m <= n")
    v = f_products(a_chain(traj.z), dims.n) * traj.vn[:, None]  # v_0..v_n
    u0 = v[:, m]
    if m == dims.n:
        wv = traj.w
    else:
        wv = v[:, m + 1, None] * hs.tangent_coefficients(traj.z[:, m],
                                                          traj.z[:, m + 1])

    return ControlSignal(lambda t: u0[traj.index_of(t)],
                         lambda t: np.take(wv, traj.index_of(t), axis=0))


# ---------------------------------------------------------------------------
# velocity diagnostics
# ---------------------------------------------------------------------------

def collinearity_residuals(traj: Trajectory) -> np.ndarray:
    """Per record, the norm of each joint velocity's component off the
    segment ahead of it (the nonholonomic constraint), shape (M, n+1)."""
    z = traj.z
    xdot = _joint_velocities(z, traj.theta_n, traj.vn, traj.w)[:, :-1]
    along = np.sum(xdot * z, axis=2)
    return np.linalg.norm(xdot - along[:, :, None] * z, axis=2)


def cascade_residuals(traj: Trajectory) -> np.ndarray:
    """Per record, |v_{i-1} - A_i v_i| for i = 1..n, shape (M, n)."""
    return np.abs(traj.v[:, :-1] - a_chain(traj.z) * traj.v[:, 1:])

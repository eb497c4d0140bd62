"""Controlled kinematics of the arm: fixed-step RK4 integrators with
per-step projection onto the product of unit spheres.

Three independent routes to the same motion cross-check each other:
`integrate_car`, the planar cascade in car variables (x, y, headings) for
k = 1 only; `integrate_arm`, the general system on the base point and
unit segment directions, driven by the normal velocity of the head and
the k tangential chart rates of the last sphere; and
`integrate_cartesian`, the flow of the constrained-distribution
generators on raw joint positions.

The routes differ only in their state variables: one stepper
(`_integrate`) and one recorder (`_record`) serve all three.  Every route
carries the head-sphere chart angles as state, and as d theta/dt = w
alone the stepper tables them with the controls at every stage before
the first step, so no route inverts a chart mid-run.  A state of at most
KERNEL_COMPONENTS stepped components, in rows of k+1 <= 7, steps through
straight-line Python generated for its route and shape (`_arm_kernel`),
larger ones on numpy buffers (`_numpy_loop`) with the same arithmetic in
the same order; `_loop` chooses for every route.  Joint velocities come
from one kernel batched over records (`_joint_velocities`).  The angular
right-hand side is evaluated on unit vectors, so it stays well defined
where intermediate sphere charts degenerate.  A run comes back as a
`records.Trajectory`, which writes and reads its files.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import hyperspherical as hs
from .arm import AngularConfig, ArmDims, CartesianConfig
from .errors import StepRejected
from .fields import _cascade, a_chain, f_products
from .records import CHUNK_ROWS, Trajectory

# Largest constraint drift one RK4 step may build up before projection.
MAX_STEP_DRIFT = 1e-6
# Largest stepped state, (n+1)(k+1) on the arm route, (n+2)(k+1) on the
# Cartesian one and n+2 on the car, for which `_arm_kernel` repays its
# compile.
KERNEL_COMPONENTS = 64


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
        """Linear interpolation of sampled controls at times (M,): vn_values
        (M,) and w_values (M, k); the table must be finite and its times
        strictly increasing."""
        times, vn_values, w_values = (np.asarray(x, dtype=float) for x in
                                      (times, vn_values, w_values))
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
def _integrate(loop, head, rows, y0: np.ndarray, u: ControlSignal, k: int,
               T: float, settings: IntegratorSettings):
    """Run the stepper from y0, whose last k components are head angles.

    The stage times of a step are t, t + h/2 and t + h, with t = t + h.
    The controls at all of them and the head track (d theta/dt = w, in
    the loop's arithmetic) are tabled before the first step.  The steps
    then go in chunks of CHUNK_ROWS, the module's one chunk loop: per
    chunk, `head(theta, w)` gives the rows (S, r) that the route's rates
    read at the chunk's stage angles and controls (S, k), and
    `loop(steps, stepped, table, stage_vn, drift_pre, projection)` steps
    the other components in place, from row 0 of the chunk's `stepped`
    (`_numpy_loop` or `_kernel_loop`), and returns None, or the index in
    the chunk of the step it refused and that step's drift (None: a
    non-finite state); a step whose tabled head angles are not finite is
    refused before the loop reaches it.  `rows(states)` gives the rows
    (M, r, k+1) of stacked states that must stay unit (None: none).  The
    refusal messages are written here alone.  Numpy warns of no overflow:
    the gates reject what it leads to.

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
    w1, w2, w4 = w[:-1].reshape(s, 3, k).transpose(1, 0, 2)

    states = np.empty((s + 1, y0.size))
    states[0] = y0
    m = y0.size - k
    # the head angle rates of the four stages are w1, w2, w2 and w4
    full, half, theta = steps[:, None], 0.5 * steps[:, None], states[:, m:]
    np.add.accumulate(np.concatenate([theta[:1], (
        ((w1 + w2 * 2.0) + w2 * 2.0) + w4 * 1.0) * (full / 6.0)]), out=theta)
    start = theta[:-1]
    angles = np.stack([start, w1 * half + start, w2 * half + start,
                       w2 * full + start], axis=1)
    rates, stage_vn = np.stack([w1, w2, w2, w4], axis=1), vn[:-1].reshape(s, 3)

    # no loop takes a step whose tabled head angles are not finite
    finite = np.isfinite(theta[1:]).all(axis=1)
    stop = s if finite.all() else int(np.argmin(finite))
    drift_pre, refused = np.zeros(s + 1), None
    for j in range(0, stop, CHUNK_ROWS):
        part = slice(j, min(j + CHUNK_ROWS, stop))
        table = head(angles[part].reshape(-1, k), rates[part].reshape(-1, k))
        refused = loop(steps[part], states[j:part.stop + 1, :m],
                       table.reshape((part.stop - j, 4) + table.shape[1:]),
                       stage_vn[part], drift_pre[j:part.stop + 1],
                       settings.projection)
        if refused is not None:
            refused = j + refused[0], refused[1]
            break
    if refused is None and stop < s:
        refused = stop, None
    if refused is not None:
        j, drift = refused
        if drift is None:
            raise StepRejected(f"non-finite state at t={times[j + 1]:g}")
        raise StepRejected(f"constraint drift {drift:.3e} in one step "
                           f"at t={times[j + 1]:g}")
    drift_post = np.zeros(s + 1)
    if rows is not None:
        drift_post[1:] = np.max(np.abs(np.linalg.norm(
            rows(states[1:]), axis=-1) - 1.0), axis=-1, initial=0.0)
    # the recorded times: every step's start, then the last step's end
    return (times, states, drift_pre, drift_post, vn[::3].copy(),
            w[::3].copy())


def _numpy_loop(rhs, rows, normalize, steps, stepped, table, stage_vn,
                drift_pre, projection):
    """`_integrate`'s loop on numpy buffers.

    `rhs(y, vn, head_row)` returns the rates of the stepped components in
    a buffer of its own, and `normalize(y, rows, norms)` rescales the unit
    rows `rows(y[None])[0]` of a stepped state in place.
    """
    acc, ys = np.empty((2, stepped.shape[1]))
    for j, (h, (v1, v2, v4), (r1, r2, r3, r4)) in enumerate(zip(
            steps.tolist(), stage_vn.tolist(), table)):
        y, y_new = stepped[j], stepped[j + 1]
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
        if not np.isfinite(y_new).all():
            return j, None
        if rows is None:
            continue
        seg = rows(y_new[None])[0]
        # the norms as np.linalg.norm computes them, cheaper per call
        norms = np.sqrt(np.add.reduce(seg * seg, axis=1))
        drift_pre[j + 1] = np.abs(norms - 1.0).max(initial=0.0)
        if projection:
            normalize(y_new, seg, norms)
        if drift_pre[j + 1] > MAX_STEP_DRIFT:
            return j, drift_pre[j + 1]
    return None


def _kernel_loop(run, steps, stepped, table, stage_vn, drift_pre,
                 projection):
    """`_integrate`'s loop through a generated kernel `run` (`_arm_kernel`)
    in one call: the chunk's controls and head rows go in as Python
    floats, and its states come back as one flat list and its drifts as
    another, each written into its array at once.  A zero norm raises
    ZeroDivisionError and the cosine or sine of an infinite car angle
    ValueError, where numpy's step turns nan; either way the step after
    the last drift is refused as non-finite."""
    taken, drifts = [], []
    try:
        refused = run(stepped[0].tolist(), steps.tolist(), stage_vn.tolist(),
                      table.reshape(steps.size, -1).tolist(), projection,
                      MAX_STEP_DRIFT, taken, drifts)
    except (ZeroDivisionError, ValueError):  # nan in numpy's step
        refused = len(drifts), None
    if refused is None:
        # np.array would discover the dtype float by float
        stepped[1:] = np.fromiter(taken, float, len(taken)).reshape(
            -1, stepped.shape[1])
        drift_pre[1:] = drifts
    return refused


def _loop(route: str, n: int, k1: int, rhs, rows, normalize):
    """`_integrate`'s loop for a route: its `_arm_kernel` for rows of k+1
    <= 7 terms (k1 = 1 for the car) and at most KERNEL_COMPONENTS stepped,
    else `_numpy_loop`."""
    if k1 < 8 and (n + 1 + (route != "arm")) * k1 <= KERNEL_COMPONENTS:
        return functools.partial(_kernel_loop, _arm_kernel(route, n, k1))
    return functools.partial(_numpy_loop, rhs, rows, normalize)


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

@functools.lru_cache(maxsize=None)
def _arm_kernel(route: str, n: int, k1: int):
    """The step loop of a route, "arm", "cartesian" or "car", as
    straight-line Python compiled once per shape: n+1 segments of k+1
    components, k1 = 1 for the car, whose head row is its head angle.

    Every component is a local float, so a step is the arithmetic of
    `_numpy_loop` on the route's rates in the same order: the four stages,
    their sum, the finite check, the drift and the projection, the routes
    supplying only their stage rates (`_arm_rhs`, or the rhs of
    `integrate_cartesian` or `integrate_car`) and their projection (none
    for the car).  A row's dot product sums left to right, as
    `np.add.reduce` sums fewer than 8 terms, so k+1 <= 7; the Cartesian
    rhs's two `ndarray.dot` calls stay calls, as BLAS fuses multiply and
    add, on operands stored through memoryviews into two buffers that each
    call of `run` allocates, as every caller of a shape shares its kernel,
    and each result is read back as a Python float from a third; the car
    calls `math.cos` and `math.sin` where its rhs calls `np.cos` and
    `np.sin`.  `run(y, steps, stage_vn, heads, projection, limit, taken,
    drifts)` steps from the state y, extends the flat list `taken` by each
    new state and appends its drift to `drifts`, and returns None, or the
    index of the step it refused, `len(drifts)`, and its drift (None:
    non-finite); it computes the drift before dividing by a norm.  Where
    numpy's step turns nan, a zero norm raises ZeroDivisionError and the
    cosine or sine of an infinite angle ValueError.
    """
    m = (n + 1 + (route != "arm")) * k1
    state = [f"y{i}" for i in range(m)]
    # the Cartesian segments x_{i+1} - x_i, in rows
    seg = [[f"z{i + c}" for c in range(k1)] for i in range(0, m - k1, k1)]

    def diff(y):  # as np.diff of the joint rows
        return [f"z{i} = {y[i + k1]} - {y[i]}" for i in range(m - k1)]

    def dots(z):  # a_i = <z_i, z_{i+1}>
        return [f"a{i} = " + " + ".join(map("{} * {}".format, z[i], z[i + 1]))
                for i in range(n)]

    def cascade(scale):
        # v_i = scale * a_{n-1} ... a_i, as `f_products`, and v_n = scale
        code, v, f = [], [f"v{i}" for i in range(n)] + [scale], f"a{n - 1}"
        for i in reversed(range(n)):
            if i < n - 1:
                code.append(f"f = {f} * a{i}")
                f = "f"
            code.append(f"v{i} = {f} * {scale}")
        return code, v

    def arm_stage(y, vn, head, out):
        # `_cascade` on the rows z_1..z_n of y and the tabled head row
        z = [y[i:i + k1] for i in range(k1, m, k1)] + [
            [f"e{head * k1 + c}" for c in range(k1)]]
        chain, v = cascade(vn)
        code = dots(z) + chain
        code += [f"{out}{c} = {v[0]} * {z[0][c]}" for c in range(k1)]
        code += [f"{out}{k1 * (i + 1) + c} = {v[i + 1]} * ({z[i + 1][c]} "
                 f"- a{i} * {z[i][c]})" for i in range(n) for c in range(k1)]
        return code

    def cartesian_stage(y, vn, head, out):
        # the head rate vn z_n / |z_n| + jac w, then (f_i s) z_i with
        # s = <head rate, z_n>
        rate = [f"{out}{m - k1 + c}" for c in range(k1)]
        code = diff(y) + [f"zv[{c}] = {seg[n][c]}" for c in range(k1)]
        code += ["zdot(zt, dv)", "norm = sqrt(dm[()])"]
        code += [f"{rate[c]} = {seg[n][c]} / norm * {vn} + e{head * k1 + c}"
                 for c in range(k1)]
        code += [f"hv[{c}] = {rate[c]}" for c in range(k1)]
        code += ["hdot(zt, dv)", "sd = dm[()]"]
        chain, v = cascade("sd")
        return code + dots(seg) + chain + [
            f"{out}{i * k1 + c} = {v[i]} * {seg[i][c]}"
            for i in range(n + 1) for c in range(k1)]

    def car_stage(y, vn, head, out):
        # the headings' differences d_i and a_i = cos d_i, then the rates
        # of x, y and the headings th_0..th_{n-1}
        th = y[2:] + [f"e{head}"]
        code = [f"d{i} = {th[i + 1]} - {th[i]}" for i in range(n)]
        chain, v = cascade(vn)
        code += [f"a{i} = cos(d{i})" for i in range(n)] + chain
        code += [f"{out}0 = {v[0]} * cos({th[0]})",
                 f"{out}1 = {v[0]} * sin({th[0]})"]
        return code + [f"{out}{i + 2} = {v[i + 1]} * sin(d{i})"
                       for i in range(n)]

    buffers, pre, rows, project = [], [], [], []
    if route == "cartesian":
        stage, read, pre, rows = cartesian_stage, range(m), diff(state), seg
        # the dot products' operands and result, allocated per call:
        # callers share run
        buffers = [f"zt, ht, dv = array([0.0] * {k1}), array([0.0] * {k1}), "
                   "array(0.0)",
                   "zv, hv, dm = memoryview(zt), memoryview(ht), "
                   "memoryview(dv)",
                   "zdot, hdot = zt.dot, ht.dot"]
        # divide, then the cumulative sum, then x_0 + the sums
        project = ([f"z{i} = z{i} / q{i // k1}" for i in range(m - k1)]
                   + [f"z{i} = z{i - k1} + z{i}" for i in range(k1, m - k1)]
                   + [f"y{i + k1} = y{i % k1} + z{i}" for i in range(m - k1)])
    elif route == "car":
        stage, read = car_stage, range(m)
    else:
        stage, read = arm_stage, range(k1, m)
        rows = [state[i:i + k1] for i in read[::k1]]
        project = [f"y{i} = y{i} / q{i // k1 - 1}" for i in read]
    tmp = [f"s{i}" for i in range(m)]
    code = stage(state, "u1", 0, "c")
    code += [f"s{i} = c{i} * dh + y{i}" for i in read]
    for head, dt in ((1, "dh"), (2, "h")):
        code += stage(tmp, "u2", head, "k")
        code += [f"c{i} = c{i} + k{i} * 2.0" for i in range(m)]
        code += [f"s{i} = k{i} * {dt} + y{i}" for i in read]
    code += stage(tmp, "u4", 3, "k")
    code += [f"y{i} = y{i} + (c{i} + k{i}) * h6" for i in range(m)]
    # x * 0.0 is 0 for every finite x and nan otherwise; a non-finite term
    # makes the plain sum non-finite, and only a finite state whose sum
    # overflows needs the exact test
    code += [f"if ({' + '.join(state)}) * 0.0 != 0.0 and "
             f"{' + '.join(f'{y} * 0.0' for y in state)} != 0.0:",
             "    return len(drifts), None"] + pre
    code += [f"q{i} = sqrt({' + '.join(f'{y} * {y}' for y in row)})"
             for i, row in enumerate(rows)]
    r = len(rows)
    code.append(f"d = max({', '.join(f'abs(q{i} - 1.0)' for i in range(r))})"
                if r > 1 else f"d = {'abs(q0 - 1.0)' if r else '0.0'}")
    if r:
        code += ["if d > limit:", "    return len(drifts), d",
                 "if projection:"]
        code += [f"    {line}" for line in project]
    code += [f"put(({', '.join(state)},))", "drift(d)"]
    heads = ", ".join(f"e{i}" for i in range(4 * k1))
    source = "\n".join([
        "def run(y, steps, stage_vn, heads, projection, limit, taken, "
        "drifts):",
        f"    {', '.join(state)}, = y",
        "    put, drift = taken.extend, drifts.append"] + [
        f"    {line}" for line in buffers] + [
        f"    for h, (u1, u2, u4), ({heads},) in zip(steps, stage_vn, heads):",
        "        dh, h6 = 0.5 * h, h / 6.0"] + [f"        {c}" for c in code]
        + ["    return None\n"])
    scope = {"sqrt": math.sqrt, "array": np.array, "cos": math.cos,
             "sin": math.sin}
    exec(compile(source, f"<{route} kernel n={n} k+1={k1}>", "exec"), scope)
    return scope["run"]


def _arm_rhs(n: int, k1: int):
    """The arm's rates `rhs(y, vn, head_row)` on numpy buffers, for the
    shapes `_arm_kernel` does not serve."""
    body = slice(k1, k1 + n * k1)
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

    return rhs


def integrate_arm(q0: AngularConfig, u: ControlSignal, T: float,
                  settings: IntegratorSettings, *, mode: str = "arm",
                  seed: Optional[int] = None) -> Trajectory:
    """Integrate the angular controlled system.

    The state carries the base point, the unit rows z_1..z_n, and the chart
    angles of the head sphere.  Requires a non-degenerate head chart at t=0
    for k >= 2: the tangential controls are chart components and a pole
    start would make their meaning ambiguous.  Shapes of at most
    KERNEL_COMPONENTS components and k+1 <= 7 step through `_arm_kernel`,
    larger ones on numpy buffers; both give the same bits.
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

    def rows(states: np.ndarray) -> np.ndarray:
        return states[:, body].reshape(states.shape[0], n, k1)

    def normalize(y: np.ndarray, seg: np.ndarray, norms: np.ndarray):
        seg /= norms[:, None]

    y0 = np.concatenate([q0.x0, q0.z[:-1].reshape(-1), q0.angles(n)])
    run = _integrate(_loop("arm", n, k1, _arm_rhs(n, k1), rows, normalize),
                     lambda theta, w: hs.unit_from_angles(theta), rows, y0, u,
                     k, T, settings)
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
    Cars of n+2 <= KERNEL_COMPONENTS stepped components (x, y and the
    headings theta_0..theta_{n-1}) step through `_arm_kernel`, larger ones
    on numpy buffers; both give the same bits.
    """
    dims, y0 = q0.dims, car_state_from_config(q0)  # refuses k != 1
    th, rate = np.empty(dims.n + 1), np.empty(dims.n + 2)

    def rhs(y: np.ndarray, vn: float, head_row: np.ndarray) -> np.ndarray:
        th[:-1], th[-1] = y[2:], head_row[0]
        diffs = th[1:] - th[:-1]
        v = f_products(np.cos(diffs), dims.n) * vn
        rate[0], rate[1] = v[0] * np.cos(th[0]), v[0] * np.sin(th[0])
        np.multiply(v[1:], np.sin(diffs), out=rate[2:])
        return rate

    # the head table is the head angle; headings carry no constraint
    run = _integrate(_loop("car", dims.n, 1, rhs, None, None),
                     lambda theta, w: theta, None, y0, u, 1, T, settings)
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
    map.  States of (n+2)(k+1) <= KERNEL_COMPONENTS with k+1 <= 7 step
    through `_arm_kernel`, its two dot products the rhs's `ndarray.dot`
    calls on buffers of the run, larger ones on numpy buffers; both give
    the same bits.
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
        # jac w at every stage of a chunk
        return (hs.unit_and_jacobian(theta)[1] @ w[:, :, None])[..., 0]

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
    run = _integrate(_loop("cartesian", n, k1, rhs, rows, normalize),
                     head_rates, rows, y0, u, k, T, settings)
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

"""Outside-in tracing of the multiflag layers.

`Tracer.install()` replaces public functions at each module boundary with
wrappers that count calls and time them; `uninstall()` puts the originals
back.  Nothing under `src/` is edited: the wrappers are attributes set on
the imported modules and classes, so they see exactly the calls the CLI
makes through those names.

Hot inner calls are aggregated as count plus time.  Coarse boundaries (the
operation, `verify_flag` per point, integrate and export) are also kept as
spans `(id, name, start, end, parent)` in memory.

Self time: every wrapped call pushes a frame; when it returns, its duration
is added to the child time of the enclosing frame.  A call's self time is
its duration minus its wrapped children.  A layer's time counts only its
outermost calls, so a layer function calling another one of the same layer
is not counted twice.
"""

from __future__ import annotations

import inspect
import os
import time
from dataclasses import dataclass, field


@dataclass
class CallStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class OpTrace:
    """Everything recorded while one operation ran traced."""

    stats: dict[str, CallStat] = field(default_factory=dict)
    layer_s: dict[str, float] = field(default_factory=dict)
    spans: list[list] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    op_self_s: float = 0.0
    trajectories: list = field(default_factory=list)


class Tracer:
    """Wraps the package's boundary functions; one `OpTrace` per operation."""

    def __init__(self, mf):
        self.mf = mf
        self._saved: list[tuple[object, str, object]] = []
        # one [wrapped-children seconds, id of the innermost span] per
        # active wrapped call
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self.op: OpTrace | None = None

    # -- recording ------------------------------------------------------------

    def _bump(self, key: str, amount: int = 1) -> None:
        self.op.counts[key] = self.op.counts.get(key, 0) + amount

    def _timed(self, fn, layer: str, name: str, span: bool = False,
               after=None):
        """Wrap `fn`: count and time its calls, credit its duration to the
        enclosing wrapped call, optionally record a span."""
        stack, depth = self._stack, self._depth
        depth.setdefault(layer, 0)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            op = self.op
            span_id = stack[-1][1] if stack else None
            if span:
                op.spans.append([len(op.spans), name, clock(), None, span_id])
                span_id = len(op.spans) - 1
            frame = [0.0, span_id]
            stack.append(frame)
            depth[layer] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[layer] -= 1
                st = op.stats.get(name)
                if st is None:
                    st = op.stats[name] = CallStat()
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[0]
                if not depth[layer]:
                    op.layer_s[layer] = op.layer_s.get(layer, 0.0) + dt
                if stack:
                    stack[-1][0] += dt
                if span:
                    op.spans[span_id][3] = clock()
            if after is not None:
                after(args, out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        self._saved.append((owner, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def _time(self, owner, attr: str, layer: str, name: str, **kw) -> None:
        self._patch(owner, attr, lambda fn: self._timed(fn, layer, name, **kw))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        mf = self.mf
        dyn, hs, fl, fg, sa = (mf.dynamics, mf.hyperspherical, mf.fields,
                               mf.flags, mf.sampling)

        def integrated(args, traj):
            self._bump("dynamics.steps", len(traj) - 1)
            self.op.trajectories.append(traj)

        def exported(args, _):
            self._bump("dynamics.export_bytes", os.path.getsize(args[1]))

        for name in ("integrate_arm", "integrate_car", "integrate_cartesian",
                     "integrate_subarm"):
            self._time(dyn, name, "dynamics.integrate", f"dynamics.{name}",
                       span=True, after=integrated)
        self._time(dyn.Trajectory, "to_csv", "dynamics.export",
                   "dynamics.to_csv", span=True, after=exported)
        self._time(dyn.Trajectory, "to_json", "dynamics.export",
                   "dynamics.to_json", span=True, after=exported)
        for name in ("constant", "sinusoid", "from_table"):
            self._patch(dyn.ControlSignal, name, self._counted_controls)

        for name, fn in list(vars(hs).items()):
            if (inspect.isfunction(fn) and fn.__module__ == hs.__name__
                    and not name.startswith("_")):
                self._time(hs, name, "hyperspherical",
                           f"hyperspherical.{name}")
        for name, fn in list(vars(sa).items()):
            if (inspect.isfunction(fn) and fn.__module__ == sa.__name__
                    and not name.startswith("_")):
                self._time(sa, name, "sampling", f"sampling.{name}")

        self._time(fg, "verify_flag", "flags", "flags.verify_flag", span=True)
        self._time(fg, "field_jacobian", "fields", "fields.field_jacobian")
        for name in ("svd_rank", "orthonormal_rows", "subspace_angle"):
            self._time(fg, name, "numerics", f"numerics.{name}")
        self._patch(fl.Field, "__call__", self._counted_field_call)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _counted_controls(self, make_signal):
        def wrapper(*args, **kwargs):
            sig = make_signal(*args, **kwargs)
            v_n = sig.v_n

            def counted(t):
                self._bump("dynamics.control_evals")
                return v_n(t)
            return type(sig)(counted, sig.w)
        return wrapper

    def _counted_field_call(self, call):
        def wrapper(field_self, points):
            out = call(field_self, points)
            self._bump("fields.eval_rows", out.shape[0])
            return out
        return wrapper

    # -- operations -----------------------------------------------------------

    def run_op(self, op):
        """Run `op()` with the wrappers installed; returns its result and
        its `OpTrace`.  The operation itself is the root span."""
        self.op = OpTrace()
        self.install()
        try:
            result = self._timed(op, "operation", "operation", span=True)()
        finally:
            self.uninstall()
        self.op.op_self_s = self.op.stats["operation"].self_s
        return result, self.op

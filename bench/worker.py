"""One benchmark workload, run in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --workdir DIR --root CHECKOUT [--scale full|tiny] [--spans FILE]
        [--setup-only]

Imports multiflag, generates the workload's inputs from the seed, warms up
with one tiny operation, then runs operations in a closed loop with one
client (the next starts when the previous one finished) for `--seconds`.
Every operation goes through `multiflag.cli.main(argv)` and is checked for
correctness outside its timed region; a calibration loop timed just before
and after it measures the speed of the shared core at that moment.  The
last line of standard output is
one JSON object with the raw per-operation figures; `bench/run.py` turns
it into the benchmark's metrics.

With `--trace 1` each iteration runs the same input twice, untraced and
traced (see `tracing.py`), so the tracing overhead is measured on identical
work.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import statistics
import sys
import time

import numpy as np

from tracing import OpTrace, Tracer

# Gates of the acceptance suite (criteria 7 and 8) applied to every run.
DRIFT_GATE = 1e-9
COLLINEARITY_GATE = 1e-8
CASCADE_GATE = 1e-8
ROUNDTRIP_GATE = 1e-14

INPUT_POOL = 8  # distinct inputs per run; operations cycle through them


def _import_package(root: str):
    """Import multiflag from `<root>/src` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import multiflag
    import multiflag.cli
    if not os.path.abspath(multiflag.__file__).startswith(src + os.sep):
        raise ImportError(f"multiflag imported from {multiflag.__file__}, "
                          f"not from {src}")
    return multiflag


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Inputs, argv and checks of one workload.

    `items` is the work one operation completes: RK4 steps for the
    dynamics workloads, verified configurations for verify-sweep.
    """

    name = ""

    def __init__(self, mf, workdir: str, tiny: bool):
        self.mf = mf
        self.workdir = workdir
        self.tiny = tiny

    def make_input(self, rng: np.random.Generator, j: int) -> dict:
        raise NotImplementedError

    def argvs(self, inp: dict) -> list[list[str]]:
        raise NotImplementedError

    def check(self, inp: dict, outs: list[tuple[int, str]]) -> list[str]:
        raise NotImplementedError


class _Dynamics(Workload):
    k = n = 0
    h = 1e-3

    def make_input(self, rng, j):
        mf = self.mf
        q0 = mf.sampling.random_regular_config(mf.ArmDims(self.k, self.n),
                                               rng, chart_margin=0.1)
        path = os.path.join(self.workdir, f"{self.name}-config-{j}.json")
        mf.save_config(q0, path)
        return {"config": path, "q0": q0, "op_seed": int(rng.integers(2**31))}

    @property
    def steps(self) -> int:
        return int(round(self.T / self.h))

    @property
    def items(self) -> int:
        return self.steps


class SimulateArm(_Dynamics):
    """The users' main run: arm route, CSV + JSON export."""

    name = "simulate-arm"
    k, n = 2, 5

    @property
    def T(self) -> float:
        return 0.02 if self.tiny else 1.0

    def argvs(self, inp):
        return [["simulate", "--mode", "arm", "--k", str(self.k),
                 "--n", str(self.n), "--config", inp["config"],
                 "--controls", "sine", "--vn", "0.8", "--wn", "0.4,0.3",
                 "--h", repr(self.h), "--T", repr(self.T),
                 "--seed", str(inp["op_seed"]),
                 "--out", os.path.join(self.workdir, "sim")]]

    def check(self, inp, outs):
        mf = self.mf
        (rc, _), = outs
        if rc != 0:
            return [f"exit code {rc}"]
        prefix = os.path.join(self.workdir, "sim")
        traj = mf.Trajectory.from_json(prefix + ".json")
        bad = []
        if len(traj) != self.steps + 1:
            bad.append(f"{len(traj)} records for {self.steps} steps")
        drift = float(traj.drift_post.max())
        if not drift < DRIFT_GATE:
            bad.append(f"post-projection drift {drift:.3e}")
        coll = float(mf.collinearity_residuals(traj).max())
        if not coll < COLLINEARITY_GATE:
            bad.append(f"collinearity residual {coll:.3e}")
        casc = float(mf.cascade_residuals(traj).max()) if self.n else 0.0
        if not casc < CASCADE_GATE:
            bad.append(f"cascade residual {casc:.3e}")
        table = np.loadtxt(prefix + ".csv", delimiter=",", skiprows=2,
                           ndmin=2)
        m = len(traj)
        recorded = np.column_stack([traj.times, traj.x0,
                                    traj.z.reshape(m, -1), traj.v])
        if table.shape != recorded.shape:
            bad.append(f"CSV shape {table.shape} != JSON {recorded.shape}")
        elif not np.max(np.abs(table - recorded)) <= ROUNDTRIP_GATE:
            bad.append("CSV and JSON disagree beyond 1e-14")
        q0 = inp["q0"]
        if not (np.max(np.abs(traj.x0[0] - q0.x0)) <= ROUNDTRIP_GATE
                and np.max(np.abs(traj.z[0] - q0.z)) <= ROUNDTRIP_GATE):
            bad.append("first record differs from the initial configuration")
        return bad


_EVENT = re.compile(r"^t=(\S+)\s+A_(\d+) ~")


def scan_events(z: np.ndarray, times: np.ndarray, eps: float):
    """Alignment events `(index, t)` of a recorded run, by the rule of
    `multiflag singular-scan`: one event per contiguous stretch of records
    where A_i is near zero or has just changed sign."""
    a = np.sum(z[:, :-1, :] * z[:, 1:, :], axis=2)
    events = []
    for i in range(a.shape[1]):
        col = a[:, i]
        flips = np.flatnonzero(np.sign(col[:-1]) * np.sign(col[1:]) < 0) + 1
        marks = sorted(set(np.flatnonzero(np.abs(col) < eps)) | set(flips))
        last = None
        for j in marks:
            if last is None or j != last + 1:
                events.append((i + 1, float(times[j])))
            last = j
    return sorted(events)


class ScanCartesian(_Dynamics):
    """Cartesian route, no export: its rhs inverts the head chart."""

    name = "scan-cartesian"
    k, n = 2, 3

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._reference: dict[str, list] = {}

    @property
    def T(self) -> float:
        return 0.02 if self.tiny else 2.0

    def argvs(self, inp):
        return [["singular-scan", "--mode", "cartesian", "--k", str(self.k),
                 "--n", str(self.n), "--config", inp["config"],
                 "--controls", "sine", "--h", repr(self.h),
                 "--T", repr(self.T), "--seed", str(inp["op_seed"])]]

    def reference_events(self, inp):
        """Events of the same inputs integrated by the arm route."""
        if inp["config"] not in self._reference:
            mf = self.mf
            u = mf.ControlSignal.sinusoid(self.k, vn_amp=1.0,
                                          w_amp=np.zeros(self.k), freq=0.5)
            traj = mf.integrate_arm(inp["q0"], u, self.T,
                                    mf.IntegratorSettings(h=self.h))
            self._reference[inp["config"]] = scan_events(
                traj.z, traj.times, mf.flags.EPS_SING)
        return self._reference[inp["config"]]

    def check(self, inp, outs):
        (rc, text), = outs
        if rc != 0:
            return [f"exit code {rc}"]
        got = sorted((int(m.group(2)), float(m.group(1)))
                     for m in map(_EVENT.match, text.splitlines()) if m)
        ref = self.reference_events(inp)
        if [i for i, _ in got] != [i for i, _ in ref]:
            return [f"event indices {got} != arm route {ref}"]
        # times are printed with 6 decimals
        worst = max((abs(a[1] - b[1]) for a, b in zip(got, ref)), default=0.0)
        if worst > self.h + 1e-6:
            return [f"event times differ by {worst:.3g} > one step"]
        return []


class VerifySweep(Workload):
    """The flag check at a small and a large shape in one operation."""

    name = "verify-sweep"
    SINGULAR = 2

    @property
    def shapes(self):
        # (k, n, regular samples)
        return [(2, 2, 1), (3, 4, 1)] if self.tiny else [(2, 2, 40), (3, 4, 20)]

    @property
    def items(self) -> int:
        return sum(s + self.SINGULAR for _, _, s in self.shapes)

    def make_input(self, rng, j):
        return {"op_seed": int(rng.integers(2**31))}

    def argvs(self, inp):
        return [["verify", "--k", str(k), "--n", str(n),
                 "--samples", str(s), "--singular-samples",
                 str(self.SINGULAR), "--seed", str(inp["op_seed"]),
                 "--out", os.path.join(self.workdir, f"flag-{k}-{n}")]
                for k, n, s in self.shapes]

    def check(self, inp, outs):
        bad = []
        for (k, n, s), (rc, _) in zip(self.shapes, outs):
            if rc != 0:
                bad.append(f"(k={k}, n={n}): exit code {rc}")
                continue
            path = os.path.join(self.workdir, f"flag-{k}-{n}_reports.json")
            with open(path) as fh:
                reports = json.load(fh)["reports"]
            if len(reports) != s + self.SINGULAR:
                bad.append(f"(k={k}, n={n}): {len(reports)} reports")
                continue
            for j, r in enumerate(reports[:s]):
                ranks_ok = all(
                    lv["rank_D"] == lv["expected_rank_D"]
                    and lv["rank_E"] == lv["expected_rank_E"]
                    for lv in r["levels"]) and all(
                    d["rank"] == d["expected_rank"] for d in r["derived"])
                if r["verdict"] != "regular" or not r["passed"] \
                        or not ranks_ok:
                    bad.append(f"(k={k}, n={n}) regular sample {j}: "
                               f"{r['verdict']} {r['failures']}")
            for j, r in enumerate(reports[s:]):
                if r["verdict"] != "singular":
                    bad.append(f"(k={k}, n={n}) singular sample {j}: "
                               f"verdict {r['verdict']}")
        return bad


WORKLOADS = {w.name: w for w in (SimulateArm, VerifySweep, ScanCartesian)}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def run_cli(mf, argvs):
    """Run the operation's CLI calls; returns [(exit code, output)] where
    output is what the call printed to stdout and stderr.

    An exception escaping `main` (e.g. StepRejected) ends the operation
    and is re-raised to the caller, which counts it as a failure.
    """
    outs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mf.cli.main(argv)
        outs.append((rc, out.getvalue() + err.getvalue()))
    return outs


def attempt(wl, inp, run):
    """Run one operation through `run` and check it; returns
    (wall seconds, problems, extra) where extra is what `run` returned
    besides the CLI outputs."""
    t0 = time.perf_counter()
    try:
        outs, extra = run()
    except Exception as exc:  # the operation failed; count it, keep going
        return time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"], None
    wall = time.perf_counter() - t0
    try:
        return wall, wl.check(inp, outs), extra
    except (OSError, ValueError, KeyError) as exc:  # e.g. a missing output
        return wall, [f"check: {type(exc).__name__}: {exc}"], extra


def layer_figures(mf, tr: OpTrace) -> tuple[dict, dict, list]:
    """Per-layer figures of one traced operation: times, counts, and the
    duration of each `verify_flag` span in ms."""
    st = tr.stats

    def s(name):
        return st[name].total_s if name in st else 0.0

    def calls(name):
        return st[name].calls if name in st else 0

    fig = {
        "dynamics.integrate_s": tr.layer_s.get("dynamics.integrate", 0.0),
        "dynamics.export_csv_s": s("dynamics.to_csv"),
        "dynamics.export_json_s": s("dynamics.to_json"),
        "hyperspherical.s": tr.layer_s.get("hyperspherical", 0.0),
        "flags.self_s": st["flags.verify_flag"].self_s
        if "flags.verify_flag" in st else 0.0,
        "fields.field_jacobian_s": s("fields.field_jacobian"),
        "numerics.svd_rank_s": s("numerics.svd_rank"),
        "numerics.orthonormal_rows_s": s("numerics.orthonormal_rows"),
        "numerics.subspace_angle_s": s("numerics.subspace_angle"),
        "sampling.config_s": tr.layer_s.get("sampling", 0.0),
        "cli.self_s": tr.op_self_s,
    }
    counts = {
        "dynamics.steps": tr.counts.get("dynamics.steps", 0),
        "dynamics.control_evals": tr.counts.get("dynamics.control_evals", 0),
        "dynamics.export_bytes": tr.counts.get("dynamics.export_bytes", 0),
        "flags.points": calls("flags.verify_flag"),
        "fields.field_jacobian.calls": calls("fields.field_jacobian"),
        "fields.eval_rows": tr.counts.get("fields.eval_rows", 0),
    }
    for name in ("unit_from_angles", "unit_and_jacobian", "angles_from_unit"):
        counts[f"hyperspherical.{name}.calls"] = calls(
            f"hyperspherical.{name}")
    for name in ("svd_rank", "orthonormal_rows", "subspace_angle"):
        counts[f"numerics.{name}.calls"] = calls(f"numerics.{name}")
    # the per-record kernel of the post-pass, on the trajectory produced
    kernel = 0.0
    for traj in tr.trajectories:
        t0 = time.perf_counter()
        mf.collinearity_residuals(traj)
        kernel += time.perf_counter() - t0
    fig["dynamics.record_kernel_s"] = kernel
    verify_ms = [1e3 * (end - start) for _, name, start, end, _ in tr.spans
                 if name == "flags.verify_flag"]
    return fig, counts, verify_ms


def calibration_s() -> float:
    """Wall time of a fixed loop of small numpy operations and Python
    arithmetic, independent of multiflag.  Run next to every operation, it
    measures how fast the shared CPU is at that moment."""
    v = np.arange(6.0)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(3000):
        w = v * 0.5 + i
        acc += float(np.dot(w, v)) + (i % 7) * 0.25
        acc += len({"i": i, "acc": acc})
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--root", required=True,
                    help="checkout root holding src/multiflag")
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--spans", default=None,
                    help="write the spans of the traced operations here")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up (used to time set-up alone)")
    args = ap.parse_args(argv)

    mf = _import_package(args.root)
    os.makedirs(args.workdir, exist_ok=True)
    wl = WORKLOADS[args.workload](mf, args.workdir, args.scale == "tiny")
    rng = np.random.default_rng(args.seed)
    inputs = [wl.make_input(rng, j) for j in range(INPUT_POOL)]
    warm = WORKLOADS[args.workload](mf, args.workdir, tiny=True)
    _, problems, _ = attempt(warm, inputs[0],
                             lambda: (run_cli(mf, warm.argvs(inputs[0])), None))
    if problems:
        print(f"warm-up failed: {problems[0]}", file=sys.stderr)
        return 1
    if args.setup_only:
        return 0

    tracer = Tracer(mf) if args.trace else None

    walls, cals, ratios, errors = [], [], [], []
    figures, verify_ms, counts, spans = [], [], [], []
    attempted = failed = 0
    t_end = time.perf_counter() + args.seconds
    j = 0
    while j == 0 or time.perf_counter() < t_end:
        inp = inputs[j % INPUT_POOL]
        j += 1
        argvs = wl.argvs(inp)
        runs = [lambda: (run_cli(mf, argvs), None)]
        if tracer is not None:
            # the first input is traced twice to check that counts repeat
            runs += [lambda: tracer.run_op(lambda: run_cli(mf, argvs))] * (
                2 if j == 1 else 1)
        base = None  # untraced wall of this iteration
        for rep, run in enumerate(runs):
            cal = calibration_s() if rep == 0 else 0.0
            wall, problems, tr = attempt(wl, inp, run)
            attempted += 1
            if problems:
                failed += 1
                errors.append(problems[0])
                continue
            if rep == 0:
                walls.append(wall)
                cals.append((cal + calibration_s()) / 2)
                base = wall
                continue
            fig, cnt, ms = layer_figures(mf, tr)
            if j == 1:
                counts.append(cnt)
            if rep == len(runs) - 1:
                if base is not None:
                    ratios.append(wall / base)
                figures.append(fig)
                verify_ms.extend(ms)
                spans.extend([j] + sp for sp in tr.spans)

    result = {
        "workload": wl.name,
        "items_per_op": wl.items,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "walls": walls,
        "calibrations": cals,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        zero_fig, zero_counts, _ = layer_figures(mf, OpTrace())
        layers = {key: statistics.median(f[key] for f in figures)
                  if figures else 0.0 for key in zero_fig}
        ms = sorted(verify_ms)
        layers["flags.verify_flag_ms_p50"] = (
            statistics.median(ms) if ms else 0.0)
        layers["flags.verify_flag_ms_p95"] = (
            statistics.quantiles(ms, n=20)[-1] if len(ms) > 1
            else (ms[0] if ms else 0.0))
        layers.update(counts[0] if counts else zero_counts)
        layers["trace.overhead_frac"] = (
            statistics.median(ratios) - 1.0 if ratios else 0.0)
        result["counts_repeat"] = len(counts) == 2 and counts[0] == counts[1]
        result["layers"] = layers
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["op", "id", "name", "start", "end",
                                      "parent"], "spans": spans}, fh)
                fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

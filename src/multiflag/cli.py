"""Command-line front end.

Subcommands:
  simulate       integrate one of the controlled systems, export CSV + JSON
  verify         run the flag checks over sampled configurations
  singular-scan  locate alignment-degeneracy crossings along a trajectory

Outputs are deterministic for a fixed seed: the PRNG is seeded explicitly,
floats are printed with 17 significant digits, and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import warnings

import numpy as np

from . import dynamics as dyn
from . import flags as fg
from . import sampling
from .arm import ArmDims, _write_json, gamma_inverse, load_config
from .errors import FlagCheckFailed, StepRejected
from .fields import a_chain

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class _Parser(argparse.ArgumentParser):
    """Reads a negative number in any float form (-1e-3, -inf, -nan, or
    -0.5,0.3 for a list) as a value, not an option, and raises its
    refusals as ValueError, for `main` to print."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"(?i)-(\.?\d|inf|nan)")

    def error(self, message):
        raise ValueError(message)


def _domain(what: str, ok, kind=float):
    """The argparse type of a flag whose values are the kind(text) for
    which ok holds: argparse refuses a text outside as `must be <what>,
    got '<text>'`, and one kind cannot read as `invalid <kind> value`."""
    def read(text):
        val = kind(text)
        if not ok(val):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return val
    read.__name__ = "int" if kind is int else "float"
    return read


def _floats(text: str):
    """--wn's comma-separated floats; an empty text is its default, None."""
    return [float(x) for x in text.split(",") if x.strip()] if text else None


def _start(args, *outputs) -> np.random.Generator:
    """Refuse, before any work, an empty --out and an output path (None for
    none) that is a directory or whose directory is missing or not
    writable; return the run's generator."""
    if args.out == "":
        raise ValueError("--out must not be empty")
    for path in filter(None, outputs):
        if os.path.isdir(path):
            raise ValueError(f"--out {path!r} is a directory")
        folder = os.path.dirname(os.path.abspath(path))
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ValueError(f"--out {path!r}: directory {folder!r} is "
                             f"missing or not writable")
    return np.random.default_rng(args.seed)


def _read(flag: str, value: str, read, *extra):
    """read(value, *extra), its ValueError or OSError re-raised as a
    ValueError naming the flag and its file."""
    try:
        return read(value, *extra)
    except (ValueError, OSError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValueError(f"{flag} {value!r}: {reason}") from None


def _same_shape(what: str, dims: ArmDims, args) -> None:
    if dims != ArmDims(args.k, args.n):
        raise ValueError(f"{what} file has (k={dims.k}, n={dims.n}), "
                         f"flags say (k={args.k}, n={args.n})")


def _initial_config(args, dims, rng) -> "sampling.AngularConfig":
    if args.config:
        q = _read("--config", args.config, load_config)
        _same_shape("config", q.dims, args)
        return q
    if args.preset == "random":
        return sampling.random_regular_config(dims, rng, chart_margin=0.1)
    return sampling.collinear_config(dims)


def _control_table(path: str, k: int) -> dyn.ControlSignal:
    with open(path) as fh, warnings.catch_warnings():
        # a file without data rows is refused below, not warned about
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
    if not len(data):
        raise ValueError("controls file has no data rows")
    if data.shape[1] != 2 + k:
        raise ValueError(f"controls file needs columns t, vn, w1..w{k}")
    return dyn.ControlSignal.from_table(data[:, 0], data[:, 1], data[:, 2:])


def _controls(args, k: int) -> dyn.ControlSignal:
    if args.controls_file:
        return _read("--controls-file", args.controls_file, _control_table, k)
    wn = np.zeros(k) if args.wn is None else np.array(args.wn)
    if wn.size == 1 and k > 1:
        wn = np.full(k, wn[0])
    if wn.size != k:
        raise ValueError(f"--wn needs {k} comma-separated values")
    if args.controls == "sine":
        return dyn.ControlSignal.sinusoid(k, vn_amp=args.vn, w_amp=wn,
                                          freq=args.freq)
    return dyn.ControlSignal.constant(args.vn, wn)


def _simulate_trajectory(args, rng) -> dyn.Trajectory:
    if args.mode == "car" and args.k != 1:
        raise ValueError("--mode car requires --k 1")
    if args.mode == "subarm" and (args.p is None or args.m is None):
        raise ValueError("--mode subarm requires --p and --m")
    dims = ArmDims(args.k, args.n)
    u = _controls(args, dims.k)
    q0 = _initial_config(args, dims, rng)
    settings = dyn.IntegratorSettings(h=args.h,
                                      projection=not args.no_projection)
    steps = args.T / args.h
    try:
        if steps >= sys.maxsize:
            raise MemoryError  # no array index reaches that many steps
        if args.mode == "car":
            return dyn.integrate_car(q0, u, args.T, settings, seed=args.seed)
        if args.mode == "cartesian":
            return dyn.integrate_cartesian(gamma_inverse(q0), u, args.T,
                                           settings, seed=args.seed)
        if args.mode == "subarm":
            return dyn.integrate_subarm(q0, args.p, args.m, u, args.T,
                                        settings, seed=args.seed)
        return dyn.integrate_arm(q0, u, args.T, settings, seed=args.seed)
    except MemoryError:
        raise ValueError(f"--T / --h = {steps:g} steps do not fit in memory")


def cmd_simulate(args) -> int:
    rng = _start(args, args.out + ".csv", args.out + ".json")
    traj = _simulate_trajectory(args, rng)
    traj.to_csv(args.out + ".csv")
    traj.to_json(args.out + ".json")
    summary = {
        "records": len(traj),
        "max_drift_pre_projection": float(traj.drift_pre.max()),
        "max_drift_post_projection": float(traj.drift_post.max()),
        "min_abs_A": traj.min_abs_a(),
    }
    print(f"wrote {args.out}.csv and {args.out}.json")
    for key, val in summary.items():
        print(f"  {key}: {val:.6e}" if isinstance(val, float)
              else f"  {key}: {val}")
    return EXIT_OK


def cmd_verify(args) -> int:
    rng = _start(args, args.out and args.out + "_reports.json")
    dims = ArmDims(args.k, args.n)
    regular = sampling.random_regular_configs(dims, rng, args.samples)
    # a shape without joints has no alignment to break
    singular = [sampling.singular_config(dims, rng, index=1 + j % dims.n)
                for j in range(args.singular_samples if dims.n else 0)]

    reports = fg.verify_flags(regular + singular, tol=args.tol,
                              basis=args.basis)

    if args.out:
        payload = {
            "k": dims.k, "n": dims.n, "seed": args.seed,
            "samples": args.samples,
            "singular_samples": len(singular),
            "basis": args.basis,
            "reports": reports,
        }
        _write_json(args.out + "_reports.json", payload)

    if args.render and reports:
        print(reports[0].render())

    # regular draws keep |A_i| >= MIN_ABS_A, far above EPS_SING, so none
    # is singular: a regular sample fails only on its own checks
    reg_reports = reports[:len(regular)]
    failures = [(j, r) for j, r in enumerate(reg_reports) if not r.passed]
    print(f"verify k={dims.k} n={dims.n}: "
          f"{len(regular) - len(failures)}/{len(regular)} regular "
          f"samples PASS")
    for j, r in enumerate(reports[len(regular):]):
        print(f"  injected singular sample {j}: verdict={r.verdict} "
              f"indices={list(r.singular_indices)} "
              f"sandwich={list(r.sandwich_indices)}")
    if failures:
        j, rep = failures[0]
        raise FlagCheckFailed(f"FAIL at regular sample {j}: "
                              f"{rep.failures[0]}")
    return EXIT_OK


def cmd_singular_scan(args) -> int:
    rng = _start(args, args.out)
    if args.traj:
        # a recorded run replaces every simulation flag but the shape and
        # --seed, which the scan report records
        sim = argparse.ArgumentParser()
        _add_sim_args(sim)
        unused = ["--" + name.replace("_", "-") for name, val
                  in vars(sim.parse_args(["--k", "1", "--n", "0"])).items()
                  if name not in ("k", "n", "seed")
                  and getattr(args, name) != val]
        if unused:
            raise ValueError(f"--traj scans a recorded run and takes no "
                             f"simulation flags: {', '.join(unused)}")
        traj = _read("--traj", args.traj, dyn.Trajectory.from_json)
        _same_shape("trajectory", traj.dims, args)
    else:
        traj = _simulate_trajectory(args, rng)
    # a record is marked where |A_i| < eps or A_i changed sign since the
    # record before; a run of marks is one crossing, reported at its first
    a = a_chain(traj.z)  # (M, n)
    mark = np.abs(a) < args.eps_sing
    mark[1:] |= np.sign(a[:-1]) * np.sign(a[1:]) < 0
    mark[1:] &= ~mark[:-1]
    # row-major order is (t, index) order
    events = [{"t": float(traj.times[j]), "index": i + 1, "A": float(a[j, i]),
               "zero_velocity_joints": list(range(i + 1))}
              for j, i in np.argwhere(mark).tolist()]
    if args.out:
        _write_json(args.out, {"events": events, "eps_sing": args.eps_sing,
                               "seed": args.seed})
    if not events:
        print("no alignment degeneracies found")
    for e in events:
        print(f"t={e['t']:.6f}  A_{e['index']} ~ {e['A']:.3e}  "
              f"stationary joints M_j for j < {e['index']}: "
              f"{e['zero_velocity_joints']}")
    return EXIT_OK


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="sphere dimension")
    p.add_argument("--n", type=int, required=True,
                   help="number of trailers/segments minus one")
    p.add_argument("--mode", default="arm", choices=dyn.MODES)
    p.add_argument("--p", type=int, default=None, help="sub-arm lower joint")
    p.add_argument("--m", type=int, default=None, help="sub-arm upper joint")
    p.add_argument("--preset", default="straight",
                   choices=["straight", "random"])
    p.add_argument("--config", default=None,
                   help="JSON file with an initial configuration")
    p.add_argument("--controls", default="constant",
                   choices=["constant", "sine"])
    p.add_argument("--controls-file", default=None,
                   help="CSV with columns t, vn, w1..wk (linear interp)")
    finite = _domain("a finite number", math.isfinite)
    p.add_argument("--vn", type=finite, default=1.0,
                   help="normal-velocity control (amplitude for sine)")
    p.add_argument("--wn", type=_domain(
        "finite numbers", lambda v: np.isfinite(v or 0).all(), _floats),
        help="comma-separated tangential controls (amplitudes)")
    p.add_argument("--freq", type=finite, default=0.5,
                   help="frequency of the sine preset")
    p.add_argument("--T", default=1.0, type=_domain(
        "a nonnegative finite number", lambda v: 0 <= v < math.inf))
    p.add_argument("--h", default=1e-3, type=_domain(
        "a positive finite number", lambda v: 0 < v < math.inf))
    p.add_argument("--seed", type=_domain(">= 0", lambda v: v >= 0, int))
    p.add_argument("--no-projection", action="store_true")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing reads
    it and writes only the namespace it is given."""
    ap = _Parser(
        prog="multiflag",
        description="Articulated-arm kinematics and flag verification")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a controlled run")
    _add_sim_args(sim)
    sim.add_argument("--out", default="multiflag_run",
                     help="output path prefix")
    sim.set_defaults(fn=cmd_simulate)

    ver = sub.add_parser("verify", help="flag checks over random samples")
    ver.add_argument("--k", type=int, required=True)
    ver.add_argument("--n", type=int, required=True)
    count = _domain(">= 0", lambda v: v >= 0, int)
    ver.add_argument("--samples", type=count, default=100)
    ver.add_argument("--singular-samples", type=count, default=0,
                     help="additionally verify constructed singular points")
    ver.add_argument("--seed", type=count, default=0)
    ver.add_argument("--tol", type=_domain("in (0, 1)", lambda v: 0 < v < 1),
                     default=1e-8, help="relative SVD rank threshold")
    ver.add_argument("--basis", default="projected",
                     choices=["projected", "chart"])
    ver.add_argument("--out", default=None, help="report path prefix")
    ver.add_argument("--render", action="store_true",
                     help="print the diagram of the first report")
    ver.set_defaults(fn=cmd_verify)

    scan = sub.add_parser("singular-scan",
                          help="find A_i crossings along a trajectory")
    _add_sim_args(scan)
    scan.add_argument("--traj", default=None,
                      help="trajectory JSON (skips simulation)")
    scan.add_argument("--eps-sing", default=fg.EPS_SING, type=_domain(
        "a nonnegative finite number", lambda v: 0 <= v < math.inf))
    scan.add_argument("--out", default=None, help="JSON report path")
    scan.set_defaults(fn=cmd_singular_scan)
    return ap


def main(argv=None) -> int:
    """Run one subcommand.  Bad input (ValueError, OSError, a refused
    argument) exits 2 and a rejected step or a failed flag check exits 1,
    each as the one stderr line `<command>: <reason>` (`multiflag: `
    before a subcommand)."""
    args = argparse.Namespace(command="multiflag")
    try:
        # the subcommand's name lands in args before its flags are parsed
        build_parser().parse_args(argv, args)
        return args.fn(args)
    except (StepRejected, FlagCheckFailed, ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        failed = isinstance(exc, (StepRejected, FlagCheckFailed))
        return EXIT_FAIL if failed else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

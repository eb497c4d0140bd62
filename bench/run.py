"""The multiflag benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--out FILE]

Run from the root of a checkout.  For one workload it times set-up in
several fresh processes, then runs the workload itself in another fresh
process (`worker.py`) with `src/` on the import path and
`MULTIFLAG_THREADS` unset.  It prints one line of machine information and,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics.  `--workload all` runs every
workload untraced and traced, prints a table of every metric with its
unit, and writes the full record (machine, metrics, errors) to `--out`.
The metric names, units and workloads are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 5          # set-up processes per run; set-up_s is their median
CHILD_GRACE_S = 120.0   # allowance beyond --seconds for the workload process


def machine_info() -> dict:
    """CPU, core count, Python, numpy, BLAS and the load at start."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "loadavg_start": list(os.getloadavg()),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("MULTIFLAG_THREADS", None)  # the users' default: one thread
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _worker(args: argparse.Namespace, workload: str, trace: int,
            workdir: str, setup_only: bool = False) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--workdir", workdir, "--root", ROOT, "--scale", args.scale]
    if setup_only:
        cmd.append("--setup-only")
    if args.spans and trace and not setup_only:
        cmd += ["--spans", os.path.abspath(args.spans)]
    return cmd


def _run(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child to completion; a child that overruns is killed and
    waited for before the error propagates."""
    return subprocess.run(cmd, env=_child_env(), cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)


def run_workload(args, workload: str, trace: int, spec: dict) -> dict:
    """Set-up timing plus one workload process; returns the result object."""
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    try:
        setup = []
        for _ in range(1 if args.scale == "tiny" else SETUP_REPS):
            t0 = time.perf_counter()
            proc = _run(_worker(args, workload, trace, workdir, True), 60.0)
            setup.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up of {workload} failed:\n"
                                   + proc.stderr.strip())
        proc = _run(_worker(args, workload, trace, workdir),
                    args.seconds + CHILD_GRACE_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} failed:\n" + proc.stderr.strip())
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        if not raw["walls"]:
            raise RuntimeError(f"{workload}: no operation succeeded: "
                               f"{raw['errors']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(workdir))

    if trace:
        values = raw["layers"]
        names = spec["per_layer"]
    else:
        rel = [w / c for w, c in zip(raw["walls"], raw["calibrations"])]
        values = {
            "wall_rel": statistics.median(rel),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": raw["peak_rss_mb"],
            "success_frac": 1.0 - raw["failed"] / raw["attempted"],
        }
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    correct = raw["failed"] == 0 and raw.get("counts_repeat", True)
    return {"correct": correct, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics,
            "errors": raw["errors"], "raw": raw_times(raw)}


def raw_times(raw: dict) -> dict:
    """Raw operation figures (times in seconds), reported without a bound."""
    wall = statistics.median(raw["walls"])
    return {"operations": {"value": len(raw["walls"]), "unit": "count"},
            "wall_s": {"value": wall, "unit": "s"},
            "wall_min_s": {"value": min(raw["walls"]), "unit": "s"},
            "items_per_s": {"value": raw["items_per_op"] / wall,
                            "unit": "1/s"},
            "calibration_s": {"value": statistics.median(raw["calibrations"]),
                              "unit": "s"}}


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit so that subprocess.run kills and waits
    # for the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: smallest sizes, one set-up process (smoke)")
    ap.add_argument("--out", default=None,
                    help="with --workload all: write the full record here")
    ap.add_argument("--spans", default=None,
                    help="write the spans of the traced operations here")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "multiflag",
                                       "__init__.py")):
        print(f"bench: no multiflag sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"bench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2

    machine = machine_info()
    print(json.dumps({"machine": machine}))
    if args.workload != "all":
        try:
            res = run_workload(args, args.workload, args.trace, spec)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        for err in res["errors"]:
            print(f"check failed: {err}")
        print(json.dumps({"raw": res["raw"]}))
        print(json.dumps({key: res[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0

    record = {"machine": machine, "seed": args.seed,
              "seconds": args.seconds, "results": {}}
    for name in names:
        for trace in (0, 1):
            try:
                res = run_workload(args, name, trace, spec)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"bench: {exc}", file=sys.stderr)
                return 1
            record["results"][f"{name}/trace{trace}"] = res
            print(f"{name} trace={trace}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            rows = list(res["metrics"].items())
            if not trace:
                rows += [(f"{key} (no bound)", m)
                         for key, m in res["raw"].items()]
            for key, m in rows:
                print(f"  {key:36s} {m['value']:>14.6g} {m['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    ok = all(r["correct"] for r in record["results"].values())
    print(json.dumps({"correct": ok}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark at tiny sizes.

Checks the schema of BENCHMARK.json and of the result line, that every
metric it names is reported with its unit, that the count metrics of two
traced runs are identical, and that the benchmark refuses to run without
the package sources.  It makes no timing assertions.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
COUNT_UNITS = ("count", "bytes")
RAW_UNITS = {"operations": "count", "wall_s": "s", "wall_min_s": "s",
             "items_per_s": "1/s", "calibration_s": "s"}


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    if trace == 0:
        raw = json.loads(lines[-2])["raw"]
        assert {k: m["unit"] for k, m in raw.items()} == RAW_UNITS
    assert res["correct"] is True, proc.stdout
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert res["failed"] == 0
    return res


def check_metrics(res: dict, spec: list[dict]) -> None:
    assert list(res["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])


def test_spec_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload):
    check_metrics(result(workload, 0), SPEC["end_to_end"])
    first, second = result(workload, 1), result(workload, 1)
    check_metrics(first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in COUNT_UNITS]
    assert ({n: first["metrics"][n]["value"] for n in counts}
            == {n: second["metrics"][n]["value"] for n in counts})


def test_spans_nest(tmp_path):
    path = tmp_path / "spans.json"
    proc = bench("--workload", "verify-sweep", "--seed", "3", "--seconds",
                 "0", "--trace", "1", "--scale", "tiny", "--spans", str(path))
    assert proc.returncode == 0, proc.stderr
    points = json.loads(proc.stdout.strip().splitlines()[-1])[
        "metrics"]["flags.points"]["value"]
    spans = json.loads(path.read_text())["spans"]
    by_id = {(op, sid): (name, start, end, parent)
             for op, sid, name, start, end, parent in spans}
    assert sum(s[2] == "flags.verify_flag" for s in spans) == points
    for (op, _), (name, start, end, parent) in by_id.items():
        assert start <= end
        if name == "operation":
            assert parent is None
        else:
            _, pstart, pend, _ = by_id[(op, parent)]
            assert pstart <= start and end <= pend


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

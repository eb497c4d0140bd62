import json
import re
import warnings

import numpy as np
import pytest
from multiflag import cli


def read_csv_states(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=2)
    return rows


class TestSimulate:
    def test_straight_run(self, tmp_path, capsys):
        out = tmp_path / "straight"
        rc = cli.main(["simulate", "--k", "1", "--n", "2",
                       "--preset", "straight", "--vn", "1", "--wn", "0",
                       "--T", "1", "--out", str(out)])
        assert rc == 0
        assert (tmp_path / "straight.csv").exists()
        assert (tmp_path / "straight.json").exists()
        data = json.loads((tmp_path / "straight.json").read_text())
        assert max(abs(d) for d in data["drift_post"]) < 1e-12
        # straight-line displacement of length T
        x0 = np.asarray(data["x0"])
        assert abs(np.linalg.norm(x0[-1] - x0[0]) - 1.0) < 1e-12

    def test_random_run_drift(self, tmp_path):
        out = tmp_path / "rnd"
        rc = cli.main(["simulate", "--k", "2", "--n", "2",
                       "--preset", "random", "--seed", "7",
                       "--controls", "sine", "--vn", "0.8", "--wn", "0.4,0.3",
                       "--T", "2", "--h", "1e-3", "--out", str(out)])
        assert rc == 0
        data = json.loads((tmp_path / "rnd.json").read_text())
        assert max(abs(d) for d in data["drift_post"]) < 1e-9

    def test_deterministic_outputs(self, tmp_path):
        blobs = []
        for run in range(2):
            out = tmp_path / f"d{run}"
            rc = cli.main(["simulate", "--k", "2", "--n", "1",
                           "--preset", "random", "--seed", "11",
                           "--T", "0.2", "--out", str(out)])
            assert rc == 0
            blobs.append(((tmp_path / f"d{run}.csv").read_bytes(),
                          (tmp_path / f"d{run}.json").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_car_and_arm_agree(self, tmp_path):
        args = ["--k", "1", "--n", "2", "--preset", "random", "--seed", "3",
                "--controls", "sine", "--vn", "0.7", "--wn", "0.5",
                "--T", "1", "--h", "1e-3"]
        assert cli.main(["simulate", *args, "--mode", "car",
                         "--out", str(tmp_path / "car")]) == 0
        assert cli.main(["simulate", *args, "--mode", "arm",
                         "--out", str(tmp_path / "arm")]) == 0
        a = read_csv_states(tmp_path / "car.csv")
        b = read_csv_states(tmp_path / "arm.csv")
        assert a.shape == b.shape
        assert np.abs(a - b).max() < 1e-10

    def test_subarm_mode(self, tmp_path):
        rc = cli.main(["simulate", "--k", "2", "--n", "3", "--mode", "subarm",
                       "--p", "2", "--m", "3", "--preset", "random",
                       "--seed", "5", "--T", "0.5",
                       "--out", str(tmp_path / "sub")])
        assert rc == 0
        data = json.loads((tmp_path / "sub.json").read_text())
        assert data["mode"] == "subarm"
        assert data["n"] == 2  # m - p + 1 segments above the sub-base

    def test_cartesian_mode(self, tmp_path):
        rc = cli.main(["simulate", "--k", "2", "--n", "2",
                       "--mode", "cartesian", "--preset", "random",
                       "--seed", "9", "--T", "0.3",
                       "--out", str(tmp_path / "cart")])
        assert rc == 0
        data = json.loads((tmp_path / "cart.json").read_text())
        assert "points" in data

    def test_invalid_configuration_exit_code(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--k", "2", "--n", "1", "--mode", "car",
                       "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "invalid run configuration" in capsys.readouterr().err

    def test_config_file_round_trip(self, tmp_path):
        from multiflag import arm, sampling
        q = sampling.random_regular_config(arm.ArmDims(2, 2),
                                           np.random.default_rng(1),
                                           chart_margin=0.1)
        cfg = tmp_path / "cfg.json"
        arm.save_config(q, cfg)
        rc = cli.main(["simulate", "--k", "2", "--n", "2",
                       "--config", str(cfg), "--T", "0.1",
                       "--out", str(tmp_path / "fromfile")])
        assert rc == 0
        data = json.loads((tmp_path / "fromfile.json").read_text())
        assert np.abs(np.asarray(data["z"][0]) - q.z).max() < 1e-12

    def test_controls_file(self, tmp_path):
        table = "t,vn,w1\n0,1,0\n1,1,0\n"
        ctl = tmp_path / "controls.csv"
        ctl.write_text(table)
        rc = cli.main(["simulate", "--k", "1", "--n", "1",
                       "--preset", "straight", "--controls-file", str(ctl),
                       "--T", "0.5", "--out", str(tmp_path / "filectl")])
        assert rc == 0
        data = json.loads((tmp_path / "filectl.json").read_text())
        x0 = np.asarray(data["x0"])
        assert abs(np.linalg.norm(x0[-1] - x0[0]) - 0.5) < 1e-12

    def test_cartesian_through_head_chart_pole(self, tmp_path):
        # the head's first chart angle sweeps through pi at t ~ 0.52
        argv = ["simulate", "--k", "2", "--n", "1", "--preset", "straight",
                "--vn", "0", "--wn", "3,0", "--T", "2"]
        for mode in ("arm", "cartesian"):
            assert cli.main(argv + ["--mode", mode,
                                    "--out", str(tmp_path / mode)]) == 0
        a = read_csv_states(tmp_path / "arm.csv")
        b = read_csv_states(tmp_path / "cartesian.csv")
        assert a.shape == b.shape == (2001, 1 + 3 + 2 * 3 + 2)
        assert np.abs(a - b).max() < 1e-10

    def test_no_projection(self, tmp_path):
        out = tmp_path / "free"
        assert cli.main(["simulate", "--k", "2", "--n", "3", "--T", "0.5",
                         "--preset", "random", "--controls", "sine",
                         "--seed", "3", "--no-projection",
                         "--out", str(out)]) == 0
        meta = (tmp_path / "free.csv").read_text().splitlines()[0]
        assert "projection=off" in meta.split()
        data = json.loads((tmp_path / "free.json").read_text())
        assert data["projection"] is False
        assert data["drift_post"] == data["drift_pre"]
        assert max(data["drift_pre"]) > 0.0  # the drift is really left in

    @pytest.mark.parametrize("mode", ["arm", "cartesian"])
    def test_rejected_run_prints_one_line(self, mode, tmp_path, capsys):
        # the overflow that ends the run raises no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["simulate", "--k", "2", "--n", "2", "--mode", mode,
                           "--preset", "random", "--vn", "1e300", "--h",
                           "0.01", "--T", "0.1", "--seed", "1",
                           "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_FAIL
        captured = capsys.readouterr()
        assert captured.err == "simulate: non-finite state at t=0.01\n"
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, flag, value", [
        ("simulate", "--T", "inf"),
        ("simulate", "--T", "nan"),
        ("simulate", "--T", "-1"),
        ("simulate", "--h", "inf"),
        ("simulate", "--h", "0"),
        ("simulate", "--h", "nan"),
        ("simulate", "--h", "1e-300"),
        ("simulate", "--config", "{tmp}/missing.json"),
        ("simulate", "--controls-file", "{tmp}/missing.csv"),
        ("simulate", "--out", "{tmp}/no/such/dir/run"),
        ("simulate", "--vn", "nan"),
        ("simulate", "--vn", "inf"),
        ("simulate", "--wn", "nan"),
        ("simulate", "--wn", "-inf"),
        ("simulate", "--freq", "inf"),
        ("simulate", "--controls-file", "{tmp}/nan_controls.csv"),
        ("simulate", "--controls-file", "{tmp}/unsorted_controls.csv"),
        ("simulate", "--seed", "-1"),
        ("singular-scan", "--T", "inf"),
        ("singular-scan", "--T", "1e300"),
        ("singular-scan", "--h", "-1e-3"),
        ("singular-scan", "--traj", "{tmp}/missing.json"),
        ("singular-scan", "--traj", "{tmp}/no_n.json"),
        ("singular-scan", "--traj", "{tmp}/short_z.json"),
        ("singular-scan", "--eps-sing", "-1e-9"),
        ("singular-scan", "--eps-sing", "nan"),
        ("singular-scan", "--eps-sing", "inf"),
        ("singular-scan", "--seed", "-2"),
        ("singular-scan", "--out", "{tmp}/no/such/dir/scan.json"),
    ])
    def test_bad_input_rejected(self, command, flag, value, tmp_path,
                                capsys):
        assert cli.main(["simulate", "--k", "1", "--n", "1", "--T", "0.01",
                         "--out", str(tmp_path / "ok")]) == 0
        good = json.loads((tmp_path / "ok.json").read_text())
        (tmp_path / "no_n.json").write_text(json.dumps(
            {key: val for key, val in good.items() if key != "n"}))
        (tmp_path / "short_z.json").write_text(json.dumps(
            dict(good, z=good["z"][:-1])))
        (tmp_path / "nan_controls.csv").write_text(
            "t,vn,w1\n0,1,0\n1,nan,0\n")
        (tmp_path / "unsorted_controls.csv").write_text(
            "t,vn,w1\n0,1,0\n1,1,0\n1,1,0\n2,1,0\n")
        capsys.readouterr()
        argv = [command, "--k", "1", "--n", "1", "--T", "0.01",
                f"{flag}={value.replace('{tmp}', str(tmp_path))}"]
        if command == "simulate" and flag != "--out":
            argv += ["--out", str(tmp_path / "run")]
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        if flag in ("--T", "--h", "--vn", "--wn", "--freq", "--eps-sing",
                    "--seed", "--out"):
            assert flag in err
        assert not (tmp_path / "run.csv").exists()


class TestVerify:
    def test_small_sweep_passes(self, tmp_path, capsys):
        rc = cli.main(["verify", "--k", "2", "--n", "2", "--samples", "5",
                       "--seed", "1", "--out", str(tmp_path / "v")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "5/5 regular samples PASS" in out
        payload = json.loads((tmp_path / "v_reports.json").read_text())
        assert payload["seed"] == 1
        reports = payload["reports"]
        assert len(reports) == 5
        assert all(r["passed"] for r in reports)

    def test_injected_singular_does_not_gate(self, tmp_path, capsys):
        rc = cli.main(["verify", "--k", "2", "--n", "2", "--samples", "3",
                       "--singular-samples", "1", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict=singular" in out

    def test_goursat_sweep(self, capsys):
        rc = cli.main(["verify", "--k", "1", "--n", "3", "--samples", "5",
                       "--seed", "4", "--render"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "D^4" in out and "E^4" in out

    def test_threads_env(self, tmp_path, capsys, monkeypatch):
        # MULTIFLAG_THREADS no longer selects anything: the report is the
        # same file byte for byte with and without it
        argv = ["verify", "--k", "1", "--n", "1", "--samples", "4",
                "--singular-samples", "1", "--seed", "6", "--out"]
        monkeypatch.delenv("MULTIFLAG_THREADS", raising=False)
        assert cli.main(argv + [str(tmp_path / "plain")]) == 0
        monkeypatch.setenv("MULTIFLAG_THREADS", "2")
        assert cli.main(argv + [str(tmp_path / "threads")]) == 0
        plain = (tmp_path / "plain_reports.json").read_bytes()
        assert (tmp_path / "threads_reports.json").read_bytes() == plain
        assert len(json.loads(plain)["reports"]) == 5

    def test_bracket_step_is_not_an_option(self, tmp_path, capsys):
        # every flag bracket takes an exact complex step: there is no step
        # to choose, and argparse refuses the option
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--k", "2", "--n", "2", "--samples", "2",
                      "--bracket-h", "1e-5", "--out", str(tmp_path / "v")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--bracket-h" in err and "Traceback" not in err
        assert not (tmp_path / "v_reports.json").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--samples", "-3"),
        ("--singular-samples", "-1"),
        ("--tol", "-1"),
        ("--tol", "0"),
        ("--tol", "inf"),
        ("--tol", "1"),
        ("--tol", "2"),
        ("--seed", "-1"),
    ])
    def test_bad_input_rejected(self, flag, value, tmp_path, capsys):
        rc = cli.main(["verify", "--k", "1", "--n", "1", "--samples", "2",
                       f"{flag}={value}", "--out", str(tmp_path / "v")])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert flag in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "v_reports.json").exists()


class TestOutputCheckedFirst:
    """An output path in a missing directory is refused before any work."""

    @pytest.mark.parametrize("argv, out", [
        (["simulate", "--k", "2", "--n", "3", "--T", "5", "--out"], "run"),
        (["verify", "--k", "1", "--n", "1", "--samples", "3", "--out"], "v"),
        (["singular-scan", "--k", "1", "--n", "1", "--out"], "scan.json"),
    ])
    def test_missing_directory(self, argv, out, tmp_path, capsys,
                               monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")
        monkeypatch.setattr(cli.dyn, "integrate_arm", no_work)
        monkeypatch.setattr(cli.fg, "verify_flag", no_work)
        monkeypatch.setattr(cli.fg, "verify_flags", no_work)
        rc = cli.main(argv + [str(tmp_path / "missing" / out)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "--out" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "missing").exists()


class TestSamplerExhaustion:
    """A shape whose random draws never meet the sampler's margins is bad
    input: one stderr line and exit 2, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "random", "--T", "0"],
        ["singular-scan", "--preset", "random", "--T", "0"],
        ["verify", "--samples", "1"],
    ])
    def test_one_line_exit_2(self, argv, tmp_path, capsys, monkeypatch):
        def orthogonal(dims, rng):
            # consecutive segments orthogonal, so every draw has A_1 = 0
            z = np.eye(dims.ambient)[np.arange(dims.n + 1) % 2]
            return np.zeros(dims.ambient), z
        monkeypatch.setattr(cli.sampling, "_draw", orthogonal)
        rc = cli.main(argv[:1] + ["--k", "1", "--n", "3"] + argv[1:]
                      + ["--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "rejection sampling failed" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())


class TestSingularScan:
    def test_constructed_crossing_detected_within_one_step(self, capsys):
        # steering alone sweeps the heading difference through pi/2 at
        # t = pi/2 when it starts aligned and turns at unit rate
        h = 1e-3
        rc = cli.main(["singular-scan", "--k", "1", "--n", "1",
                       "--preset", "straight", "--vn", "0", "--wn", "1",
                       "--T", "2", "--h", str(h)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "A_1" in out
        t_detect = float(out.split("t=")[1].split()[0])
        assert abs(t_detect - np.pi / 2) <= h + 1e-12

    def test_straight_run_empty(self, capsys):
        rc = cli.main(["singular-scan", "--k", "1", "--n", "2",
                       "--preset", "straight", "--vn", "1", "--wn", "0",
                       "--T", "1"])
        assert rc == 0
        assert "no alignment degeneracies" in capsys.readouterr().out

    def test_zero_velocity_indices_listed(self, tmp_path, capsys):
        rc = cli.main(["singular-scan", "--k", "1", "--n", "2",
                       "--preset", "straight", "--vn", "0", "--wn", "1",
                       "--T", "2", "--out", str(tmp_path / "scan.json")])
        assert rc == 0
        report = json.loads((tmp_path / "scan.json").read_text())
        events = [e for e in report["events"] if e["index"] == 2]
        assert events and events[0]["zero_velocity_joints"] == [0, 1]

    @pytest.mark.parametrize("argv, message", [
        (["--vn", "300", "--wn", "200,-150", "--h", "0.5"],
         r"constraint drift \S+ in one step at t=0\.5"),
        (["--mode", "cartesian", "--vn", "1e300", "--h", "0.01",
          "--T", "0.1"], r"non-finite state at t=0\.01")],
        ids=["arm-drift", "cartesian-non-finite"])
    def test_rejected_step_one_line_exit_1(self, argv, message, tmp_path,
                                           capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["singular-scan", "--k", "2", "--n", "2",
                           "--preset", "random", "--seed", "1",
                           "--out", str(tmp_path / "scan.json")] + argv)
        assert rc == cli.EXIT_FAIL
        captured = capsys.readouterr()
        assert re.fullmatch(f"singular-scan: {message}\n", captured.err)
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    def test_scan_from_trajectory_file(self, tmp_path, capsys):
        assert cli.main(["simulate", "--k", "1", "--n", "1",
                         "--preset", "straight", "--vn", "0", "--wn", "1",
                         "--T", "2", "--out", str(tmp_path / "tr")]) == 0
        capsys.readouterr()
        rc = cli.main(["singular-scan", "--k", "1", "--n", "1",
                       "--traj", str(tmp_path / "tr.json")])
        assert rc == 0
        assert "A_1" in capsys.readouterr().out

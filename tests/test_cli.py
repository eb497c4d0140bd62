import argparse
import json
import os
import re
import reprlib
import warnings

import numpy as np
import pytest
from multiflag import cli, records
from multiflag.fields import a_chain


def read_sorted_json(path):
    """The object of a written JSON file, whose text must be `json.dump`'s
    of it with sorted keys and a newline: key order, separators and float
    text pinned without the package's writer."""
    text = path.read_text()
    obj = json.loads(text)
    assert text == json.dumps(obj, sort_keys=True) + "\n"
    return obj


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
        data = read_sorted_json(tmp_path / "rnd.json")
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
        assert capsys.readouterr().err == ("simulate: --mode car requires "
                                           "--k 1\n")

    def test_config_shape_must_match_flags(self, tmp_path, capsys):
        from multiflag import arm, sampling
        cfg = tmp_path / "cfg.json"
        records.save_config(
            sampling.collinear_config(arm.ArmDims(1, 2)), cfg)
        rc = cli.main(["simulate", "--k", "1", "--n", "1", "--config",
                       str(cfg), "--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == ("simulate: config file has (k=1, n=2), "
                                "flags say (k=1, n=1)\n")
        assert captured.out == ""
        assert not (tmp_path / "run.csv").exists()

    CONFIG_VALUES = [(key, value, f"must be an integer, got {value!r}")
                     for key in "kn" for value in (1.7, True, "1", 1.0)] + [
        ("x0", ["0.5", True], "must hold only numbers, got '0.5'"),
        ("x0", [0.5, True], "must hold only numbers, got True"),
        ("z", [[1, 0], ["0", "1"]], "must hold only numbers, got '0'"),
        ("z", [[1, 0], [None, 1]], "must hold only numbers, got None")]

    @pytest.mark.parametrize("key, value, reason", CONFIG_VALUES, ids=[
        f"{key}-{value}" for key, value, _ in CONFIG_VALUES])
    @pytest.mark.parametrize("command", ["simulate", "singular-scan"])
    def test_config_scalars_checked(self, command, key, value, reason,
                                    tmp_path, capsys):
        # the shape is read by the trajectory loader's rule: a JSON 1.7,
        # true, "1" or 1.0 is no integer, not k = 1; an array entry "0.5",
        # true or null is no number
        from multiflag import arm, sampling
        cfg = tmp_path / "cfg.json"
        good = records.config_to_dict(
            sampling.collinear_config(arm.ArmDims(1, 1)))
        cfg.write_text(json.dumps(dict(good, **{key: value})))
        rc = cli.main([command, "--k", "1", "--n", "1", "--T", "0.01",
                       "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == (f"{command}: --config {str(cfg)!r}: "
                                f"configuration {key!r} {reason}\n")
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command, flag, text, reason", [
        ("simulate", "--config", "[]", "bad configuration object: "
         "TypeError('list indices must be integers or slices, not str')"),
        ("simulate", "--config", '{"k": 1}',
         "bad configuration object: KeyError('n')"),
        ("singular-scan", "--traj", "[]", "bad trajectory object: "
         "TypeError('list indices must be integers or slices, not str')"),
        ("singular-scan", "--traj", '{"k": 1}',
         "bad trajectory object: KeyError('n')")])
    def test_loaders_word_a_bad_object_alike(self, command, flag, text,
                                             reason, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        rc = cli.main([command, "--k", "1", "--n", "1", flag, str(path),
                       "--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"{command}: {flag} {str(path)!r}: {reason}\n"
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == [path]

    def test_single_wn_applies_to_every_sphere(self, tmp_path):
        argv = ["simulate", "--k", "2", "--n", "1", "--controls", "sine",
                "--T", "0.2", "--wn"]
        assert cli.main(argv + ["0.3", "--out", str(tmp_path / "one")]) == 0
        assert cli.main(argv + ["0.3,0.3", "--out",
                                str(tmp_path / "two")]) == 0
        for ext in (".csv", ".json"):
            assert ((tmp_path / f"one{ext}").read_bytes()
                    == (tmp_path / f"two{ext}").read_bytes())

    def test_config_file_round_trip(self, tmp_path):
        from multiflag import arm, sampling
        q = sampling.random_regular_config(arm.ArmDims(2, 2),
                                           np.random.default_rng(1),
                                           chart_margin=0.1)
        cfg = tmp_path / "cfg.json"
        records.save_config(q, cfg)
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

    def test_car_overflow_in_recorder_is_silent(self, tmp_path, capsys,
                                                monkeypatch):
        # the normal velocities are finite, near 1e300; the collinearity
        # residual overflows, and the recorder no longer forms it
        argv = ["simulate", "--mode", "car", "--k", "1", "--n", "3",
                "--preset", "random", "--seed", "3", "--vn", "1e300"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(argv + ["--out", str(tmp_path / "new")])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (0, "")

        joint = cli.dyn._joint_velocities

        def with_residual(z, theta_n, vn, w):
            # the recorder's kernel when it also formed the residual
            xdot = joint(z, theta_n, vn, w)
            with np.errstate(over="ignore", invalid="ignore"):
                along = np.sum(xdot[:, :-1] * z, axis=2)
                np.linalg.norm(xdot[:, :-1] - along[:, :, None] * z, axis=2)
            return xdot

        monkeypatch.setattr(cli.dyn, "_joint_velocities", with_residual)
        assert cli.main(argv + ["--out", str(tmp_path / "old")]) == 0
        for ext in (".csv", ".json"):
            assert (tmp_path / f"new{ext}").read_bytes() == \
                (tmp_path / f"old{ext}").read_bytes()

    @pytest.mark.parametrize("command, flag, value", [
        ("simulate", "--T", "inf"),
        ("simulate", "--T", "nan"),
        ("simulate", "--T", "-1"),
        ("simulate", "--h", "inf"),
        ("simulate", "--h", "0"),
        ("simulate", "--h", "nan"),
        ("simulate", "--h", "1e-300"),
        ("simulate", "--config", "{tmp}/missing.json"),
        ("simulate", "--config", "{tmp}/ok.csv"),
        ("simulate", "--controls-file", "{tmp}/missing.csv"),
        ("simulate", "--controls-file", "{tmp}/ok.json"),
        ("simulate", "--out", "{tmp}/no/such/dir/run"),
        ("simulate", "--vn", "nan"),
        ("simulate", "--vn", "inf"),
        ("simulate", "--wn", "nan"),
        ("simulate", "--wn", "-inf"),
        ("simulate", "--freq", "inf"),
        ("simulate", "--controls-file", "{tmp}/nan_controls.csv"),
        ("simulate", "--controls-file", "{tmp}/unsorted_controls.csv"),
        ("simulate", "--controls-file", "{tmp}/header_only.csv"),
        ("simulate", "--wn", "1,2"),
        ("simulate", "--wn", "abc"),
        ("simulate", "--mode", "subarm"),
        ("simulate", "--seed", "-1"),
        ("simulate", "--T", "1e15"),
        ("singular-scan", "--T", "inf"),
        ("singular-scan", "--T", "1e300"),
        ("singular-scan", "--T", "1e15"),
        ("singular-scan", "--h", "-1e-3"),
        ("singular-scan", "--traj", "{tmp}/missing.json"),
        ("singular-scan", "--traj", "{tmp}/ok.csv"),
        ("singular-scan", "--traj", "{tmp}/no_n.json"),
        ("singular-scan", "--traj", "{tmp}/short_z.json"),
        ("singular-scan", "--traj", "{tmp}/nan_z.json"),
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
        # Python's json reads NaN; a written run never holds it
        nan_z = json.loads(json.dumps(good["z"]))
        nan_z[-1][0][0] = float("nan")
        (tmp_path / "nan_z.json").write_text(json.dumps(dict(good, z=nan_z)))
        (tmp_path / "nan_controls.csv").write_text(
            "t,vn,w1\n0,1,0\n1,nan,0\n")
        (tmp_path / "unsorted_controls.csv").write_text(
            "t,vn,w1\n0,1,0\n1,1,0\n1,1,0\n2,1,0\n")
        (tmp_path / "header_only.csv").write_text("t,vn,w1\n")
        capsys.readouterr()
        value = value.replace("{tmp}", str(tmp_path))
        # --traj takes no simulation flags, so it gets no --T
        argv = [command, "--k", "1", "--n", "1"]
        if flag != "--traj":
            argv += ["--T", "0.01"]
        argv.append(f"{flag}={value}")
        if command == "simulate" and flag != "--out":
            argv += ["--out", str(tmp_path / "run")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        assert err.startswith(f"{command}: ") and flag in err
        if flag in ("--config", "--controls-file", "--traj"):
            # a file's refusal names the file after its flag
            assert err.startswith(f"{command}: {flag} {value!r}: ")
        if "missing" in value:
            assert err.endswith(": No such file or directory\n")
        if value.endswith("header_only.csv"):
            assert err.endswith(": controls file has no data rows\n")
        assert not (tmp_path / "run.csv").exists()


class TestArgumentRefusals:
    """argparse's refusals leave `main` as one line and exit 2, like every
    other bad input, and a shape below k = 1 is refused before any flag
    that depends on k is read; --help still prints the usage and exits 0."""

    @pytest.mark.parametrize("argv, err", [
        (["simulate", "--k", "x", "--n", "1"],
         "simulate: argument --k: invalid int value: 'x'"),
        (["simulate", "--k", "1", "--n", "1", "--bogus", "3"],
         "simulate: unrecognized arguments: --bogus 3"),
        (["singular-scan", "--k", "1", "--n", "1", "--mode", "boat"],
         "singular-scan: argument --mode: invalid choice: 'boat' (choose "
         "from 'arm', 'car', 'cartesian', 'subarm')"),
        (["verify", "--n", "2"],
         "verify: the following arguments are required: --k"),
        ([], "multiflag: the following arguments are required: command"),
        (["simulat", "--k", "1"],
         "multiflag: argument command: invalid choice: 'simulat' (choose "
         "from 'simulate', 'verify', 'singular-scan')")] + [
        ([command, "--k", k, "--n", "2"] + extra,
         f"{command}: k must be >= 1")
        for command, extra in [("simulate", []), ("simulate", ["--wn", "1,2"]),
                               ("singular-scan", []),
                               ("verify", ["--samples", "1"])]
        for k in ("-1", "0")] + [
        ([command, "--k", "1", "--n", "1", "--out", ""] + extra,
         f"{command}: --out must not be empty")
        for command, extra in [("simulate", []),
                               ("verify", ["--samples", "1"]),
                               ("singular-scan", [])]])
    def test_one_line_exit_2(self, argv, err, tmp_path, monkeypatch,
                             capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == err + "\n"
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, flag, value, rc", [
        ("simulate", "--vn", "-1e-3", cli.EXIT_OK),
        ("simulate", "--wn", "-0.5,0.3", cli.EXIT_OK),
        ("simulate", "--vn", "-.5", cli.EXIT_OK),
        ("singular-scan", "--eps-sing", "-1e-9", cli.EXIT_USAGE),
        ("simulate", "--wn", "-inf", cli.EXIT_USAGE),
        ("simulate", "--wn", "-NaN,0.3", cli.EXIT_USAGE),
        ("simulate", "--vn", "-inf", cli.EXIT_USAGE),
        ("simulate", "--vn", "-nan", cli.EXIT_USAGE)])
    def test_negative_value_in_either_form(self, command, flag, value, rc,
                                           tmp_path, capsys):
        # a value that starts with a minus sign is read as a value whether
        # it follows its flag after a space or after "="
        argv = [command, "--k", "2", "--n", "1", "--T", "0.01",
                "--out", str(tmp_path / "run")]
        runs = []
        for form in ([flag, value], [f"{flag}={value}"]):
            runs.append((cli.main(argv + form), capsys.readouterr(),
                         {f.name: f.read_bytes()
                          for f in sorted(tmp_path.iterdir())}))
        assert runs[0] == runs[1]
        assert runs[0][0] == rc
        if rc == cli.EXIT_USAGE:
            reason = {"--eps-sing": "must be a nonnegative finite number",
                      "--vn": "must be a finite number",
                      "--wn": "must be finite numbers"}[flag]
            assert runs[0][1].err == (f"{command}: argument {flag}: {reason}, "
                                      f"got {value!r}\n")

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: multiflag")
        assert captured.err == ""


def numeric_flags():
    """(command, flag) for each option of a subcommand that argparse reads
    through a type: every numeric flag, the generated rows of the matrix."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0])
            for command, parser in sub.choices.items()
            for action in parser._actions if action.type is not None]


class TestInputMatrix:
    """One input contract, checked on a generated matrix of edge values:
    every run exits 0, 1 or 2, writes nothing to stderr on 0 and exactly
    the one line `<command>: <reason>` otherwise, raises no warning, and
    leaves no output file when it refuses its input (exit 2).

    Legal but meaningless: a value inside its flag's domain that no run
    needs is accepted, not refused.  `verify --tol 5e-324` (a rank
    threshold below rounding) runs the checks and fails a derived rank at
    (2, 1), so it exits 1; `--eps-sing 1e308` marks every record, `--h
    1e308` takes one step of --T and `--vn 1e308` is rejected at its first
    step (exit 1)."""

    # small runs: a (2, 1) arm for 0.01 time units under the sine
    # controls (which read --freq), or 2 verify samples
    ARGV = {"simulate": ["--k", "2", "--n", "1", "--T", "0.01",
                         "--controls", "sine", "--out", "run"],
            "singular-scan": ["--k", "2", "--n", "1", "--T", "0.01",
                              "--controls", "sine", "--out", "scan.json"],
            "verify": ["--k", "2", "--n", "1", "--samples", "2",
                       "--out", "v"]}
    NUMBERS = ["0", "-0.0", "-1", "5e-324", "1e308", "inf", "-inf", "nan",
               "-1e-3", ""]
    PINNED = {("verify", "--tol", "5e-324"): cli.EXIT_FAIL}

    @staticmethod
    def run(argv, capsys):
        """(exit code, stdout, stderr, files) of one run in the current
        directory, whose files it then removes."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(argv)
        out, err = capsys.readouterr()
        files = sorted(os.listdir())
        for name in files:
            os.remove(name)
        assert rc in (cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_USAGE)
        if rc == cli.EXIT_OK:
            assert err == ""
        else:
            assert re.fullmatch(f"{argv[0]}: [^\n]+\n", err), err
        if rc == cli.EXIT_USAGE:
            assert files == []
        return rc, out, err, files

    @pytest.mark.parametrize("value", NUMBERS)
    @pytest.mark.parametrize("command, flag", numeric_flags())
    def test_numbers(self, command, flag, value, tmp_path, monkeypatch,
                     capsys):
        monkeypatch.chdir(tmp_path)
        argv = [command] + self.ARGV[command]
        if flag in ("--p", "--m"):
            # the sub-arm flags act in their mode only, which needs both
            argv += ["--n", "2", "--mode", "subarm", "--p", "1", "--m", "2"]
        # after a space or after "=", a value is read alike
        runs = [self.run(argv + form, capsys)
                for form in ([flag, value], [f"{flag}={value}"])]
        assert runs[0] == runs[1]
        if (command, flag, value) in self.PINNED:
            assert runs[0][0] == self.PINNED[command, flag, value]

    @pytest.mark.parametrize("kind", ["missing", "empty", "header-only",
                                      "directory", "list", "string", "null",
                                      "string-k", "deep", "deep-900"])
    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--config"), ("simulate", "--controls-file"),
        ("singular-scan", "--config"), ("singular-scan", "--controls-file"),
        ("singular-scan", "--traj")])
    def test_files(self, command, flag, kind, tmp_path, monkeypatch,
                   capsys):
        from multiflag import arm, sampling
        (tmp_path / "in").mkdir()
        path = tmp_path / "in" / "input"
        good = records.config_to_dict(
            sampling.collinear_config(arm.ArmDims(2, 1)))
        if flag == "--traj" and kind in ("string-k", "deep-900"):
            assert cli.main(["simulate", "--k", "2", "--n", "1", "--T",
                             "0.01", "--out", str(tmp_path / "in" / "tr")]) == 0
            good = json.loads((tmp_path / "in" / "tr.json").read_text())
        if kind == "directory":
            path.mkdir()
        elif kind != "missing":
            # nested past the recursion limit, or an x0 that decodes but
            # is no array of numbers
            deep = json.dumps(dict(good, x0="?")).replace(
                '"?"', "[" * 900 + "]" * 900)
            path.write_text({"empty": "", "header-only": "t,vn,w1,w2\n",
                             "list": "[]", "string": '"input"',
                             "null": "null",
                             "string-k": json.dumps(dict(good, k="2")),
                             "deep": "[" * 100_000 + "]" * 100_000,
                             "deep-900": deep}[kind])
        capsys.readouterr()
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        argv = [command] + self.ARGV[command]
        if flag == "--traj":
            # a recorded run takes no simulation flags
            argv = [command, "--k", "2", "--n", "1", "--out", "scan.json"]
        rc, out, err, _ = self.run(argv + [flag, str(path)], capsys)
        # each is bad input, refused naming its flag and its file
        assert rc == cli.EXIT_USAGE and out == ""
        assert err.startswith(f"{command}: {flag} {str(path)!r}: ")
        if kind.startswith("deep"):  # a deep entry is quoted shortened
            assert err.count("[") < 10, err


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

    def test_no_joints_no_injected_samples(self, tmp_path, capsys):
        # n = 0 has no alignment to break, so --singular-samples adds none
        rc = cli.main(["verify", "--k", "1", "--n", "0", "--samples", "2",
                       "--singular-samples", "2",
                       "--out", str(tmp_path / "v")])
        assert rc == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == "verify k=1 n=0: 2/2 regular samples PASS\n"
        assert captured.err == ""
        payload = json.loads((tmp_path / "v_reports.json").read_text())
        assert payload["singular_samples"] == 0
        assert len(payload["reports"]) == 2

    def test_bracket_step_is_not_an_option(self, tmp_path, capsys):
        # every flag bracket takes an exact complex step: there is no step
        # to choose, and argparse refuses the option
        rc = cli.main(["verify", "--k", "2", "--n", "2", "--samples", "2",
                       "--bracket-h", "1e-5", "--out", str(tmp_path / "v")])
        assert rc == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == ("verify: unrecognized arguments: "
                                "--bracket-h 1e-5\n")
        assert captured.out == ""
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
        domain = "in (0, 1)" if flag == "--tol" else ">= 0"
        assert capsys.readouterr().err == (
            f"verify: argument {flag}: must be {domain}, got {value!r}\n")
        assert not (tmp_path / "v_reports.json").exists()


def failures_from_json(report):
    """The failed conditions of one report, recomputed from its JSON alone:
    the rules of the flag pass restated.  Level by level, the ranks must
    equal the expected ranks and each residual must stay below the
    recorded residual gate; then, from the top level down, each derived
    rank must equal its expected rank and each angle stay below the gate."""
    gate = report["tolerances"]["residual"]
    out = []
    for lv in report["levels"]:
        m = lv["m"]
        for name in ("D", "E"):
            got, want = lv[f"rank_{name}"], lv[f"expected_rank_{name}"]
            if got != want:
                out.append(f"rank {name}^{m} = {got} != {want}")
        if lv["involutivity_E"] >= gate:
            out.append(f"E^{m} involutivity residual "
                       f"{lv['involutivity_E']:.2e}")
        if lv["cauchy_residual"] is not None and lv["cauchy_residual"] >= gate:
            out.append(f"Cauchy inclusion at level {m}: "
                       f"{lv['cauchy_residual']:.2e}")
    for dv in report["derived"][::-1]:
        m = dv["m"]
        if dv["rank"] != dv["expected_rank"]:
            out.append(f"derived rank of [D^{m + 1},D^{m + 1}] = "
                       f"{dv['rank']} != {dv['expected_rank']}")
        if dv["angle"] >= gate:
            out.append(f"derived span angle at level {m}: {dv['angle']:.2e}")
    return out


class TestVerdictsFromJson:
    """Every report's verdict can be recomputed from its JSON alone."""

    @pytest.mark.parametrize("k, n", [(2, 2), (3, 4)])
    @pytest.mark.parametrize("tol", ["1e-8", "0.5"])
    def test_passed_and_failures(self, k, n, tol, tmp_path, capsys):
        # at --tol 0.5 some ranks drop, so the rank rules are exercised
        rc = cli.main(["verify", "--k", str(k), "--n", str(n),
                       "--samples", "10", "--singular-samples", "2",
                       "--tol", tol, "--out", str(tmp_path / "v")])
        reports = read_sorted_json(tmp_path / "v_reports.json")["reports"]
        assert len(reports) == 12
        for rep in reports:
            assert rep["failures"] == failures_from_json(rep)
            assert rep["passed"] == (not rep["failures"])
        regular_failed = any(not rep["passed"] for rep in reports[:10])
        assert rc == (cli.EXIT_FAIL if regular_failed else cli.EXIT_OK)
        assert regular_failed == (tol == "0.5")
        # the first failing regular sample, on the one stderr line of main
        err = [f"verify: FAIL at regular sample {j}: {rep['failures'][0]}\n"
               for j, rep in enumerate(reports[:10]) if rep["failures"]]
        assert capsys.readouterr().err == "".join(err[:1])


class TestParserReuse:
    """`main` parses every call with the one parser `build_parser` builds
    per process; a call leaves nothing in it that the next one reads."""

    RUNS = [
        ["verify", "--k", "2", "--n", "2", "--samples", "3",
         "--singular-samples", "1", "--seed", "4", "--render", "--out", "v"],
        ["verify", "--k", "2", "--n", "2", "--samples", "3", "--out", "w"],
        ["verify", "--k", "3", "--n", "2", "--tol", "0.5", "--samples", "2"],
        ["simulate", "--k", "2", "--n", "1", "--preset", "random", "--seed",
         "5", "--controls", "sine", "--T", "0.1", "--h", "1e-2",
         "--out", "run"],
        ["singular-scan", "--k", "2", "--n", "1", "--T", "0.1",
         "--out", "scan.json"],
        ["singular-scan", "--k", "2", "--n", "1", "--traj", "run.json",
         "--out", "traj.json"],
        ["simulate", "--k", "2", "--n", "1", "--wn", "-inf"],
        ["verify", "--k", "1", "--n", "1", "--samples", "2",
         "--basis", "chart"],
    ]

    def run_all(self, folder, fresh, capsys, monkeypatch):
        folder.mkdir()
        monkeypatch.chdir(folder)
        out = []
        for argv in self.RUNS:
            if fresh:
                cli.build_parser.cache_clear()
            rc = cli.main(argv)
            captured = capsys.readouterr()
            out.append((rc, captured.out, captured.err))
        files = {p.name: p.read_bytes() for p in sorted(folder.iterdir())}
        return out, files

    def test_calls_leave_no_state(self, tmp_path, capsys, monkeypatch):
        shared = self.run_all(tmp_path / "shared", False, capsys,
                              monkeypatch)
        fresh = self.run_all(tmp_path / "fresh", True, capsys, monkeypatch)
        assert shared == fresh
        assert [rc for rc, _, _ in shared[0]] == [0, 0, 1, 0, 0, 0, 2, 0]
        assert "flag report" in shared[0][0][1]
        assert "flag report" not in shared[0][1][1]
        assert len(shared[1]) == 6
        assert cli.build_parser() is cli.build_parser()


class TestOutputCheckedFirst:
    """An output path in a missing directory, or one that is a directory,
    is refused before any work."""

    SIMULATE = ["simulate", "--k", "2", "--n", "3", "--T", "5", "--out"]
    VERIFY = ["verify", "--k", "1", "--n", "1", "--samples", "3", "--out"]
    SCAN = ["singular-scan", "--k", "1", "--n", "1", "--out"]

    @staticmethod
    def refused(argv, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")
        monkeypatch.setattr(cli.dyn, "integrate_arm", no_work)
        monkeypatch.setattr(cli.fg, "verify_flag", no_work)
        monkeypatch.setattr(cli.fg, "verify_flags", no_work)
        rc = cli.main(argv)
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"{argv[0]}: --out ")
        return err

    @pytest.mark.parametrize("argv, out", [
        (SIMULATE, "run"), (VERIFY, "v"), (SCAN, "scan.json")])
    def test_missing_directory(self, argv, out, tmp_path, capsys,
                               monkeypatch):
        self.refused(argv + [str(tmp_path / "missing" / out)], capsys,
                     monkeypatch)
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("argv, out, folder", [
        (SIMULATE, "o", "o.csv"), (SIMULATE, "o", "o.json"),
        (VERIFY, "v", "v_reports.json"), (SCAN, "adir", "adir")])
    def test_directory_named(self, argv, out, folder, tmp_path, capsys,
                             monkeypatch):
        # each subcommand used to run its work first, then exit 2 on
        # `[Errno 21] Is a directory`
        (tmp_path / folder).mkdir()
        err = self.refused(argv + [str(tmp_path / out)], capsys,
                           monkeypatch)
        assert err.endswith(f"{str(tmp_path / folder)!r} is a directory\n")
        assert [p.name for p in tmp_path.iterdir()] == [folder]
        assert not list((tmp_path / folder).iterdir())


class TestSamplerExhaustion:
    """A shape whose random draws never meet the sampler's margins is bad
    input: one stderr line and exit 2, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "random", "--T", "0"],
        ["singular-scan", "--preset", "random", "--T", "0"],
        ["verify", "--samples", "1"],
    ])
    def test_one_line_exit_2(self, argv, tmp_path, capsys, monkeypatch):
        def orthogonal(dims, rng, tries):
            # consecutive segments orthogonal, so every draw has A_1 = 0
            z = np.eye(dims.ambient)[np.arange(dims.n + 1) % 2]
            return (np.zeros((tries, dims.ambient)),
                    np.broadcast_to(z, (tries,) + z.shape))
        monkeypatch.setattr(cli.sampling, "_draw", orthogonal)
        rc = cli.main(argv[:1] + ["--k", "1", "--n", "3"] + argv[1:]
                      + ["--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == (f"{argv[0]}: rejection sampling failed for "
                       f"{cli.ArmDims(1, 3)} in {cli.sampling.MAX_TRIES} "
                       f"tries; loosen the margins\n")
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
        report = read_sorted_json(tmp_path / "scan.json")
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

    @pytest.mark.parametrize("extra", [
        ["--T", "0.5", "--mode", "car", "--vn", "7"], ["--mode", "cartesian"],
        ["--p", "1"], ["--m", "1"], ["--preset", "random"],
        ["--config", "cfg.json"], ["--controls", "sine"],
        ["--controls-file", "c.csv"], ["--vn", "0"], ["--wn", "0"],
        ["--freq", "2"], ["--T", "3"], ["--h", "0.01"], ["--no-projection"]])
    def test_trajectory_takes_no_simulation_flags(self, extra, tmp_path,
                                                  capsys):
        assert cli.main(["simulate", "--k", "1", "--n", "1", "--vn", "0",
                         "--wn", "1", "--T", "2",
                         "--out", str(tmp_path / "tr")]) == 0
        capsys.readouterr()
        rc = cli.main(["singular-scan", "--k", "1", "--n", "1",
                       "--traj", str(tmp_path / "tr.json"),
                       "--out", str(tmp_path / "scan.json")] + extra)
        assert rc == cli.EXIT_USAGE
        flags = [a for a in extra if a.startswith("--")]
        flags.sort(key=["--mode", "--p", "--m", "--preset", "--config",
                        "--controls", "--controls-file", "--vn", "--wn",
                        "--freq", "--T", "--h", "--no-projection"].index)
        captured = capsys.readouterr()
        assert captured.err == ("singular-scan: --traj scans a recorded run "
                                "and takes no simulation flags: "
                                + ", ".join(flags) + "\n")
        assert captured.out == ""
        assert not (tmp_path / "scan.json").exists()

    def test_trajectory_keeps_scan_flags_and_defaults(self, tmp_path,
                                                      capsys):
        # --seed, --eps-sing and --out act on the scan; a simulation flag
        # spelled at its default changes nothing
        assert cli.main(["simulate", "--k", "1", "--n", "1", "--vn", "0",
                         "--wn", "1", "--T", "2",
                         "--out", str(tmp_path / "tr")]) == 0
        capsys.readouterr()
        rc = cli.main(["singular-scan", "--k", "1", "--n", "1",
                       "--traj", str(tmp_path / "tr.json"), "--seed", "4",
                       "--eps-sing", "1e-3", "--T", "1", "--mode", "arm",
                       "--out", str(tmp_path / "scan.json")])
        assert rc == 0
        report = json.loads((tmp_path / "scan.json").read_text())
        assert report["seed"] == 4 and report["eps_sing"] == 1e-3
        assert abs(report["events"][0]["t"] - np.pi / 2) < 2e-3

    def test_trajectory_shape_must_match_flags(self, tmp_path, capsys):
        assert cli.main(["simulate", "--k", "1", "--n", "1", "--T", "0.01",
                         "--out", str(tmp_path / "tr")]) == 0
        capsys.readouterr()
        rc = cli.main(["singular-scan", "--k", "3", "--n", "4",
                       "--traj", str(tmp_path / "tr.json"),
                       "--out", str(tmp_path / "scan.json")])
        assert rc == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == ("singular-scan: trajectory file has (k=1, "
                                "n=1), flags say (k=3, n=4)\n")
        assert captured.out == ""
        assert not (tmp_path / "scan.json").exists()

    SCALARS = [
        ("k", 1.7, "'k' must be an integer, got 1.7"),
        ("k", True, "'k' must be an integer, got True"),
        ("n", "1", "'n' must be an integer, got '1'"),
        ("projection", "no", "'projection' must be true or false, got 'no'"),
        ("projection", 1, "'projection' must be true or false, got 1"),
        ("h", "0.001", "'h' must be a positive finite number, got '0.001'"),
        ("h", 0, "'h' must be a positive finite number, got 0"),
        ("h", float("inf"), "'h' must be a positive finite number, got inf"),
        ("T", -1.0, "'T' must be a nonnegative finite number, got -1.0"),
        ("T", float("nan"), "'T' must be a nonnegative finite number, got "
         "nan"),
        ("mode", "boat", "'mode' must be one of 'arm', 'car', 'cartesian', "
         "'subarm', got 'boat'"),
        ("seed", "abc", "'seed' must be an integer or null, got 'abc'"),
        ("seed", False, "'seed' must be an integer or null, got False"),
        # the run's 11 records at h = 1e-3; times must strictly increase,
        # as a written run's do and `Trajectory.index_of` reads them
        ("times", [(10 - i) / 1000 for i in range(11)],
         "times must strictly increase"),
        ("times", [0.0] * 11, "times must strictly increase"),
        # an array entry is a JSON number too: no string, true or null
        ("times", [0.0, 0.001, 0.002, "0.003", 0.004, 0.005, 0.006, 0.007,
                   0.008, 0.009, 0.01],
         "'times' must hold only numbers, got '0.003'"),
        ("z", [[[1, 0], [0, True]]] * 11,
         "'z' must hold only numbers, got True"),
        ("x0", [[0, None]] * 11, "'x0' must hold only numbers, got None"),
        # h and T must agree with the times: from 0 to T in steps of h
        ("T", 5.0, "times must step from 0 to T by h"),
        ("h", 0.5, "times must step from 0 to T by h"),
        ("h", 1e-4, "times must step from 0 to T by h"),
        ("times", [(1000 + i) / 1000 for i in range(11)],
         "times must step from 0 to T by h")]

    @pytest.mark.parametrize("key, value, reason", SCALARS, ids=[
        f"{key}-{reprlib.repr(value)}" for key, value, _ in SCALARS])
    def test_trajectory_scalars_checked(self, key, value, reason, tmp_path,
                                        capsys):
        # a scalar of another JSON type is refused, not converted: 1.7 is
        # no k = 1, "no" no projection and "abc" no seed
        assert cli.main(["simulate", "--k", "1", "--n", "1", "--T", "0.01",
                         "--out", str(tmp_path / "tr")]) == 0
        run = json.loads((tmp_path / "tr.json").read_text())
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(run, **{key: value})))
        capsys.readouterr()
        rc = cli.main(["singular-scan", "--k", "1", "--n", "1", "--traj",
                       str(path), "--out", str(tmp_path / "scan.json")])
        assert rc == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == (f"singular-scan: --traj {str(path)!r}: "
                                f"trajectory {reason}\n")
        assert captured.out == ""
        assert not (tmp_path / "scan.json").exists()

    def test_trajectory_without_records(self, tmp_path, capsys):
        assert cli.main(["simulate", "--k", "1", "--n", "1", "--T", "0.01",
                         "--out", str(tmp_path / "tr")]) == 0
        run = json.loads((tmp_path / "tr.json").read_text())
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({key: [] if isinstance(val, list) else val
                                    for key, val in run.items()}))
        capsys.readouterr()
        rc = cli.main(["singular-scan", "--k", "1", "--n", "1", "--traj",
                       str(path), "--out", str(tmp_path / "scan.json")])
        assert rc == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == (f"singular-scan: --traj {str(path)!r}: "
                                f"trajectory has no records\n")
        assert captured.out == ""
        assert not (tmp_path / "scan.json").exists()

    @pytest.mark.parametrize("eps", ["0", "0.3"])
    @pytest.mark.parametrize("mode", ["arm", "cartesian"])
    def test_events_match_per_index_loop(self, mode, eps, tmp_path, capsys):
        # a k = 1, n = 3 sine run crossing A_2 and A_3 several times; the
        # Cartesian record also carries its joint points
        assert cli.main(["simulate", "--k", "1", "--n", "3", "--mode", mode,
                         "--preset", "random", "--seed", "1", "--controls",
                         "sine", "--vn", "0.5", "--wn", "6", "--freq", "2",
                         "--T", "3", "--out", str(tmp_path / "tr")]) == 0
        rc = cli.main(["singular-scan", "--k", "1", "--n", "3",
                       "--traj", str(tmp_path / "tr.json"), "--eps-sing", eps,
                       "--out", str(tmp_path / "scan.json")])
        assert rc == cli.EXIT_OK
        run = json.loads((tmp_path / "tr.json").read_text())
        assert ("points" in run) == (mode == "cartesian")
        want = per_index_events(np.asarray(run["times"]),
                                a_chain(np.asarray(run["z"])), float(eps))
        assert len(want) >= 10
        got = json.loads((tmp_path / "scan.json").read_text())["events"]
        assert got == want


def per_index_events(times, a, eps):
    """Crossing events of an (M, n) A array, index by index: the records
    where |A_i| < eps or A_i changed sign since the record before, one
    event at the first record of each contiguous run, sorted by (t, i)."""
    events = []
    for i in range(a.shape[1]):
        col = a[:, i]
        hits = np.abs(col) < eps
        signflip = np.flatnonzero(np.sign(col[:-1]) * np.sign(col[1:]) < 0)
        marks = sorted(set(np.flatnonzero(hits)).union(signflip + 1))
        last = None
        for j in marks:
            if last is None or j != last + 1:
                events.append({"t": float(times[j]), "index": i + 1,
                               "A": float(col[j]),
                               "zero_velocity_joints": list(range(i + 1))})
            last = j
    return sorted(events, key=lambda e: (e["t"], e["index"]))

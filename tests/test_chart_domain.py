"""Every chart route refuses the same inputs.

The chart degenerates where an interior sine |sin theta^j|, j < k, is at or
below `hyperspherical.EPS_DOM`.  These tests put one sphere's interior sine
on each side of that threshold, and right at it, and check that the field,
conversion and integrator routes agree on whether the point is in the
chart domain.
"""

import numpy as np
import pytest

from multiflag import arm, cli
from multiflag import dynamics as dyn
from multiflag import fields as fl
from multiflag import hyperspherical as hs
from multiflag import sampling
from multiflag.errors import ChartDegenerate
from test_fields import chart_to_embedded

SINES = [0.0, 1e-13, 1e-11, 1e-10, 1e-9, 5e-9, 1e-8,
         1e-8 * (1 - 1e-15), 1e-8 * (1 + 1e-15), 2e-8, 1e-6, 1e-3]
SHAPES = [(2, 1), (2, 3), (3, 2)]
CASES = [(k, n, j, s) for k, n in SHAPES for j in range(k - 1) for s in SINES]


def unit_with_sine(k, j, s):
    """Unit vector whose chart has |sin theta^{j+1}| ~ s and every other
    interior sine 1: axis k-j tilted by s towards axis 1.  For s <= 2e-8
    the norm of e_{k-j} + s e_1 rounds to exactly 1, so the chart inverse
    reads back exactly s, and joint differences along axis k-j reproduce
    the vector exactly."""
    z = np.zeros(k + 1)
    z[1] = s
    z[k - j] = 1.0
    return z / np.linalg.norm(z)


def raises(fn, *args):
    try:
        fn(*args)
    except ChartDegenerate:
        return True
    return False


@pytest.mark.parametrize("k, n, j, s", CASES)
def test_conversions_and_fields_share_one_domain(k, n, j, s):
    rng = np.random.default_rng(17)
    dims = arm.ArmDims(k, n)
    base = sampling.random_regular_config(dims, rng, chart_margin=0.1)
    for m in range(n + 1):
        z = base.z.copy()
        z[m] = unit_with_sine(k, j, s)
        q = arm.AngularConfig(dims, base.x0, z)
        refused = raises(fl.embedded_to_chart, q,
                         rng.normal(size=dims.cartesian_dim))
        assert refused == (s <= hs.EPS_DOM)
        assert raises(chart_to_embedded, q,
                      rng.normal(size=dims.angular_dim)) == refused
        for i in range(1, k + 1):
            assert raises(fl.xi_field(dims, m, i).at, q.flat()) == refused


@pytest.mark.parametrize("k, n, j, s", CASES)
def test_cartesian_and_arm_refuse_the_same_heads(k, n, j, s):
    # a straight arm along axis k-j with the head tilted off it by s
    axis = np.eye(k + 1)[k - j]
    straight = sampling.collinear_config(arm.ArmDims(k, n), direction=axis)
    z = straight.z.copy()
    z[n] = unit_with_sine(k, j, s)
    q0 = arm.AngularConfig(straight.dims, straight.x0, z)
    u = dyn.ControlSignal.constant(0.5, np.full(k, 0.3))
    settings = dyn.IntegratorSettings(h=1e-3)
    refused = raises(dyn.integrate_arm, q0, u, 2e-3, settings)
    assert refused == (s <= hs.EPS_DOM)
    assert raises(dyn.integrate_cartesian, arm.gamma_inverse(q0), u, 2e-3,
                  settings) == refused


@pytest.mark.parametrize("mode", ["arm", "cartesian"])
def test_cli_refuses_head_near_chart_pole(mode, tmp_path, capsys):
    z = np.array([[0.0, 0.0, 1.0], unit_with_sine(2, 0, 1e-10)])
    config = tmp_path / "q0.json"
    arm.save_config(arm.AngularConfig(arm.ArmDims(2, 1), np.zeros(3), z),
                    config)
    rc = cli.main(["simulate", "--k", "2", "--n", "1", "--mode", mode,
                   "--config", str(config), "--T", "0.01",
                   "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "chart" in err
    assert not (tmp_path / "run.csv").exists()

"""Command-line surface: table, eval, exp/log, simulate, scene files."""

import contextlib
import csv
import importlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from pgakit import (BODY, MomentumState, NumericError, Particle, VelocityState,
                    algebra, force_line, inertia_assemble, pga2d, pga3d, point,
                    point_coords, sandwich)
import pgakit.cli as cli
from pgakit.cli import main
from pgakit.expr import ExprError, evaluate
from pgakit.metric import biv_coeffs, biv_mv, even_mv
import pgakit.scene as scene_mod
from pgakit.scene import SceneError, load_scene, parse_scene, run_simulation

from conftest import newton_normalize, reference_rk4


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------------------
# table


def test_table_planar(capsys):
    rc, out, _ = run_cli(capsys, "table", "--signature", "2,0,1")
    assert rc == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 9                      # header plus eight rows
    # a few signature cells
    row_e0 = lines[2].split()
    assert row_e0[0] == "e0" and row_e0[2] == "0"
    assert "-E1" in lines[2]


def test_table_elliptic_even_subalgebra(capsys):
    rc, out, _ = run_cli(capsys, "table", "--signature", "3,0,0")
    assert rc == 0
    # the even subalgebra contains the quaternions: (e1 e2)^2 = -1
    alg_out = [l.split() for l in out.splitlines() if l.strip()]
    names = alg_out[0]
    i = names.index("E2")                       # E2 = e01 in the planar layout
    row = alg_out[1 + i]
    assert row[1 + i] == "-1"


def test_table_bad_signature(capsys):
    rc, _, err = run_cli(capsys, "table", "--signature", "9,9,9")
    assert rc == 2 and "signature" in err
    rc, _, _ = run_cli(capsys, "table", "--signature", "nonsense")
    assert rc == 2


# ---------------------------------------------------------------------------
# eval


def test_eval_examples(capsys):
    rc, out, _ = run_cli(capsys, "eval", "e1*e1")
    assert rc == 0 and out.strip() == "1"
    rc, out, _ = run_cli(capsys, "eval", "!(e01)")
    assert rc == 0 and out.strip() == "e23"
    rc, out, _ = run_cli(capsys, "eval",
                         "(e0-e1)*(E0+E1)*(e0-e1)", "--signature", "2,0,1")
    assert rc == 0 and out.strip() == "-E0 - E1"
    # a leading minus is part of the expression, not a flag
    rc, out, _ = run_cli(capsys, "eval", "-e1")
    assert rc == 0 and out.strip() == "-e1"


def test_eval_reflection_chain_matches_worked_example(capsys):
    # reflecting the point (x, y) in the line x = 1 lands on (2-x, y)
    # before dehomogenization the weight flips sign
    x, y = 0.3, 0.8
    expr = f"(e0-e1)*(E0+{x}*E1+{y}*E2)*(e0-e1)"
    rc, out, _ = run_cli(capsys, "eval", expr, "--signature", "2,0,1")
    assert rc == 0
    alg = pga2d()
    got = evaluate(expr, alg)
    assert got["E0"] == pytest.approx(-1.0)
    assert got["E1"] / got["E0"] == pytest.approx(2.0 - x)
    assert got["E2"] / got["E0"] == pytest.approx(y)


def test_eval_operator_zoo_matches_api(space_alg):
    bl = space_alg.blades
    cases = {
        "e1^e2": bl["e1"] ^ bl["e2"],
        "e1.e1": bl["e1"] | bl["e1"],
        "E0&E1": bl["E0"] & bl["E1"],
        "e12xe23": bl["e12"].commutator(bl["e23"]),
        "~e12": ~bl["e12"],
        "!I": bl["I"].dual(),
        "2*e01-3*e23": 2 * bl["e01"] - 3 * bl["e23"],
        "(1+e12)*(1-e12)": (1 + bl["e12"]) * (1 - bl["e12"]),
    }
    for text, want in cases.items():
        assert evaluate(text, space_alg) == want, text


def test_eval_parse_errors(capsys):
    for bad in ("e1*", "(e1", "e9", "1..2", "e1 $ e2"):
        rc, _, err = run_cli(capsys, "eval", bad)
        assert rc == 2, bad
        assert "position" in err or "error" in err
    for deep in ("(" * 3000 + "1" + ")" * 3000, "~" * 3000 + "e1", "!-" * 1500 + "1"):
        rc, out, err = run_cli(capsys, "eval", deep)
        assert rc == 2 and out == "" and _one_error_line(err)
        assert "nests too deeply" in err
    with pytest.raises(ExprError):
        evaluate("E3", pga2d())


def test_eval_precedence():
    alg = pga3d()
    # products bind tighter than addition, left associative
    assert evaluate("e1*e1+e2*e2", alg) == alg.scalar(2.0)
    assert evaluate("1+2*3", alg) == alg.scalar(7.0)


# ---------------------------------------------------------------------------
# exp / log


def test_exp_cli(capsys):
    rc, out, _ = run_cli(capsys, "exp", "--coeffs", "0,0,0,0,0,0")
    assert rc == 0 and out.strip() == "1"
    rc, out, _ = run_cli(capsys, "exp", "--coeffs", "0.5,0,0", "--signature", "2,0,1")
    assert rc == 0 and "E0" in out and out.startswith("0.87758256189037")
    rc, out, _ = run_cli(capsys, "exp", "--coeffs", "-0.5,0,0", "--signature", "2,0,1")
    assert (rc, out) == (0, run_cli(capsys, "exp", "--coeffs=-0.5,0,0",
                                    "--signature", "2,0,1")[1])
    assert out.strip() == "0.8775825618903728 - 0.479425538604203E0"


def test_log_cli_translator(capsys):
    # the spatial translator matching the planar worked example 1 - E2
    rc, out, _ = run_cli(capsys, "log", "--coeffs", "1,-1,0,0,0,0,0,0")
    assert rc == 0
    assert out.strip() == "-e01"


def test_log_cli_roundtrip_flag(capsys):
    rc, out, _ = run_cli(capsys, "log", "--coeffs",
                         "0.8775825618903728,0.2,-0.1,0.3,0.47942553860420301,0,0",
                         "--signature", "2,0,1")
    assert rc == 2   # wrong coefficient count for the planar algebra
    rc, out, _ = run_cli(capsys, "log", "--roundtrip", "--coeffs",
                         "0.8775825618903728,0.2,-0.1,0.3,0.4794255386042030,0,0,0")
    assert rc == 0 and "roundtrip residual" in out
    resid = float(out.splitlines()[-1].split(":")[1])
    assert resid < 1e-9


def test_log_cli_rejects_zero(capsys):
    rc, _, err = run_cli(capsys, "log", "--coeffs", "0,0,0,0,0,0,0,0")
    assert rc == 3 and "normalize" in err


_BIG = "9" * 200


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, code, what", [
    (("eval", f"{_BIG}*{_BIG}"), 3, "not finite"),
    (("eval", f"{_BIG}*{_BIG} - {_BIG}*{_BIG}"), 3, "not finite"),
    (("exp", "--coeffs", "0,0,0,1e200,0,0"), 3, "overflows"),
    (("exp", "--signature", "3,0,0", "--coeffs", "0.1,0.2,0.3"), 2, "Cl(3,0,0)"),
    (("exp", "--signature", "4,0,0", "--coeffs", "1,0,0,0,0,0"), 2, "Cl(4,0,0)"),
    (("log", "--signature", "2,0,0", "--coeffs", "1,0"), 2, "Cl(2,0,0)"),
    (("log", "--signature", "5,0,0", "--coeffs", ",".join("1" + "0" * 15)), 2,
     "Cl(5,0,0)"),
    # a value with a leading minus reaches the command, not argparse
    (("eval", f"-{_BIG}*{_BIG}"), 3, "not finite"),
    (("eval", "-e9"), 2, "e9"),
    (("exp", "--coeffs", "-1e200,0,0,-1e200,0,0"), 3, "overflows"),
    # wrong counts, malformed lists and signatures are usage errors
    (("exp", "--coeffs", "1,2"), 2, "needs 6 bivector"),
    (("log", "--coeffs", "1,2,3"), 2, "needs 8 even"),
    (("exp", "--coeffs", "a,b"), 2, "invalid coefficient list"),
    (("eval", "e1", "--signature", "9,0,0"), 2, "invalid signature"),
])
def test_cli_rejects_overflow_and_non_pga_signatures(capsys, argv, code, what):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == code and out == "" and _one_error_line(err) and what in err


# The exp/log fuzz: PGA and other signatures, coefficients tame or any
# finite float, their count right for the command or not.
_FUZZ_SIGNATURES = [(2, 0, 1), (3, 0, 1), (2, 0, 0), (3, 0, 0), (4, 0, 0), (3, 1, 0),
                    (5, 0, 1)]


@st.composite
def _exp_log_argv(draw):
    command = draw(st.sampled_from(["exp", "log"]))
    sig = draw(st.sampled_from(_FUZZ_SIGNATURES))
    alg = algebra(*sig)
    want = len(alg.grade_indices[2] if command == "exp" else alg.even_indices)
    count = want if draw(st.booleans()) else draw(st.integers(1, 40))
    real = draw(st.sampled_from([st.floats(-3, 3),
                                 st.floats(allow_nan=False, allow_infinity=False)]))
    coeffs = draw(st.lists(real, min_size=count, max_size=count))
    argv = [command, "--signature", "%d,%d,%d" % sig,
            "--coeffs=" + ",".join(map(repr, coeffs))]
    return argv + ["--roundtrip"] if command == "log" and draw(st.booleans()) else argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(_exp_log_argv())
def test_exp_log_fuzz_exits_0_2_or_3(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    event(f"{argv[0]} exit {rc}")
    assert rc in (0, 2, 3)
    assert rc == 0 or (out.getvalue() == "" and _one_error_line(err.getvalue()))
    assert rc != 0 or not any(w in out.getvalue() for w in ("nan", "inf"))


@pytest.mark.parametrize("command, coeffs", [
    ("exp", "nan,0,0,0.1,0,0.7"),
    ("exp", "0,0,0,0.1,-inf,0.7"),
    ("log", "1,0,0,0,nan,0,0,0"),
    ("log", "inf,0,0,0,0,0,0,0"),
    ("log", "-inf,0,0,0,0,0,0,0"),
])
def test_exp_log_cli_reject_non_finite(capsys, command, coeffs):
    rc, out, err = run_cli(capsys, command, "--coeffs", coeffs)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# scenes


def scene_dict(**over):
    base = {
        "bodies": [{"mass": 1.0, "position": [0.1, 0.2, 0.3]},
                   {"mass": 1.5, "position": [1.0, -0.5, 0.2]},
                   {"mass": 0.7, "position": [-0.4, 0.8, -0.6]},
                   {"mass": 2.0, "position": [0.3, 0.4, 1.1]}],
        "initial": {"omega_body": [0.1, 0.2, -0.1, 0.4, -0.3, 0.5]},
        "integrator": {"dt": 1e-3, "steps": 50},
        "outputs": [[0.1, 0.2, 0.3]],
    }
    base.update(over)
    return base


def test_scene_validation_errors():
    with pytest.raises(SceneError):
        parse_scene(scene_dict(bodies=[]))
    with pytest.raises(SceneError):
        parse_scene(scene_dict(bodies=[{"mass": -1.0, "position": [0, 0, 0]}]))
    with pytest.raises(SceneError):
        parse_scene(scene_dict(initial={}))
    with pytest.raises(SceneError):
        parse_scene(scene_dict(initial={"omega_body": [0] * 6, "pi_body": [0] * 6}))
    with pytest.raises(SceneError):
        parse_scene(scene_dict(integrator={"dt": 0.0, "steps": 5}))
    with pytest.raises(SceneError):
        parse_scene(scene_dict(integrator={"dt": 1e-3, "steps": 0}))
    with pytest.raises(SceneError):
        parse_scene(scene_dict(signature=[4, 0, 0]))


def test_simulate_csv_shape(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    out = tmp_path / "traj.csv"
    scene.write_text(json.dumps(scene_dict()))
    rc, _, _ = run_cli(capsys, "simulate", str(scene), "--out", str(out),
                       "--stride", "5")
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert header == (["t"] + [f"g{i}" for i in range(8)]
                      + [f"pi{i}" for i in range(6)] + ["energy", "x0", "y0", "z0"])
    assert len(data) == 50 // 5 + 1
    values = np.array([[float(v) for v in row] for row in data])
    assert np.isfinite(values).all()
    assert values[0, 0] == 0.0 and values[-1, 0] == pytest.approx(0.05)


def test_simulate_zero_momentum_rows_constant(tmp_path, capsys):
    scene = tmp_path / "s.json"
    out = tmp_path / "t.csv"
    scene.write_text(json.dumps(scene_dict(initial={"pi_body": [0.0] * 6})))
    rc, _, _ = run_cli(capsys, "simulate", str(scene), "--out", str(out))
    assert rc == 0
    values = np.loadtxt(out, delimiter=",", skiprows=1)
    for col in range(1, values.shape[1]):
        assert np.ptp(values[:, col]) == 0.0


def test_simulate_malformed_scene_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run_cli(capsys, "simulate", str(bad), "--out",
                         str(tmp_path / "x.csv"))
    assert rc == 2 and "scene" in err


def test_simulate_singular_inertia_exit3(tmp_path, capsys):
    collinear = scene_dict(bodies=[
        {"mass": 1.0, "position": [t, 2 * t, -t]} for t in (-1.0, 0.5, 2.0)])
    scene = tmp_path / "c.json"
    scene.write_text(json.dumps(collinear))
    rc, _, err = run_cli(capsys, "simulate", str(scene), "--out",
                         str(tmp_path / "x.csv"))
    assert rc == 3 and "degenerate" in err


def test_simulate_tracked_point_follows_motion(tmp_path, capsys):
    # a pure z-rotation about the origin keeps the tracked radius constant
    spin = scene_dict(
        bodies=[{"mass": 1.0, "position": [1.0, 0.0, 0.0]},
                {"mass": 1.0, "position": [-1.0, 0.0, 0.0]},
                {"mass": 1.0, "position": [0.0, 1.0, 0.0]},
                {"mass": 1.0, "position": [0.0, -1.0, 0.0]},
                {"mass": 1.0, "position": [0.0, 0.0, 1.0]},
                {"mass": 1.0, "position": [0.0, 0.0, -1.0]}],
        initial={"omega_body": [0, 0, 0, 0.8, 0, 0]},
        integrator={"dt": 1e-2, "steps": 100},
        outputs=[[1.0, 0.0, 0.0]])
    scene = tmp_path / "spin.json"
    scene.write_text(json.dumps(spin))
    out = tmp_path / "spin.csv"
    rc, _, _ = run_cli(capsys, "simulate", str(scene), "--out", str(out))
    assert rc == 0
    values = np.loadtxt(out, delimiter=",", skiprows=1)
    xyz = values[:, -3:]
    radii = np.linalg.norm(xyz[:, :2], axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-8)
    np.testing.assert_allclose(xyz[:, 2], 0.0, atol=1e-8)
    # energy column constant for the force-free spin
    np.testing.assert_allclose(values[:, 15], values[0, 15], rtol=1e-9)


def _one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("over, what", [
    ({"bodies": [{"mass": 1.0, "position": "abc"}]}, "position"),
    ({"integrator": {"dt": 1e-3, "steps": 2.7}}, "steps"),
    ({"integrator": {"dt": float("inf"), "steps": 5}}, "dt"),
    ({"bodies": [{"mass": float("nan"), "position": [0, 0, 0]}]}, "mass"),
    ({"bodies": [{"mass": 1.0, "position": [0, float("inf"), 0]}]}, "position"),
    ({"forces": [{"point": [0, 0], "vector": [0, 0, 1]}]}, "force point"),
    ({"forces": [{"point": [0, 0, 0], "vector": [0, 0, 1],
                  "t_start": 0.04, "t_end": 0.01}]}, "t_end > t_start"),
    ({"forces": [{"point": [0, 0, 0], "vector": [0, 0, 1],
                  "t_start": 0.02, "t_end": 0.02}]}, "t_end > t_start"),
    ({"force": [{"point": [0, 0, 0], "vector": [0, 0, 1]}]}, "'force'"),
    ({"forces": [{"point": [0, 0, 0], "vector": [0, 0, 1], "tstart": 0.01}]},
     "'tstart'"),
    ({"integrator": {"dt": 1e-3, "steps": 5, "method": "rk4"}}, "'method'"),
], ids=["position-abc", "steps-2.7", "dt-inf", "mass-nan", "position-inf",
        "force-point-2d", "force-window-inverted", "force-window-empty",
        "unknown-scene-key", "unknown-force-key", "unknown-integrator-key"])
def test_simulate_rejects_bad_numbers(tmp_path, capsys, over, what):
    scene = tmp_path / "s.json"
    scene.write_text(json.dumps(scene_dict(**over)))
    with pytest.raises(SceneError, match=what):
        load_scene(str(scene))
    rc, _, err = run_cli(capsys, "simulate", str(scene), "--out",
                         str(tmp_path / "t.csv"))
    assert rc == 2 and _one_error_line(err) and what in err


@pytest.mark.parametrize("over, what", [
    ({"rotor0": [0.0] * 8}, "cannot normalize"),
    ({"initial": {"omega_body": [1e200, 0, 0, 1e200, 0, 0]}},
     "momentum is not finite at t = 0.001"),
    ({"integrator": {"dt": 1e300, "steps": 5}}, "momentum is not finite"),
    # x^2 of the far point overflows, so the form does too
    ({"bodies": [{"mass": 1.0, "position": [0.0, 0.0, 0.0]}] * 4
      + [{"mass": 1.0, "position": [0.0, 0.0, 1.4e154]}]},
     "inertia overflows"),
    # x^2 stays finite here, and the collinear body is refused as such
    ({"bodies": [{"mass": 1.0, "position": [0.0, 0.0, 0.0]}] * 4
      + [{"mass": 1.0, "position": [0.0, 0.0, 6.703903964971299e153]}]},
     "degenerate mass distribution"),
    ({"outputs": [[1.79e308, -1.79e308, 1.79e308]]}, "x0 is not finite"),
    # 0 * inf in the sum of the closed lines must not poison earlier steps
    ({"forces": [{"point": [1e200, 0, 0], "vector": [0, 1e200, 0],
                  "t_start": 0.05, "t_end": 0.06}]}, "force 0 is not finite"),
], ids=["zero-rotor0", "omega-1e200", "dt-1e300", "inertia-overflow",
        "inertia-far-collinear", "tracked-point-overflow", "force-line-overflow"])
def test_simulate_numeric_failure_exit3(tmp_path, capsys, over, what):
    scene = tmp_path / "s.json"
    scene.write_text(json.dumps(scene_dict(**over)))
    out = tmp_path / "t.csv"
    rc, _, err = run_cli(capsys, "simulate", str(scene), "--out", str(out))
    assert rc == 3 and _one_error_line(err) and what in err
    assert out.read_text() == ""                 # no rows, in particular no NaN rows
    # the runner raises the same error, not an overflow warning, outside the CLI
    with pytest.raises(ValueError, match=re.escape(what)):
        _table(load_scene(str(scene)))


def test_simulate_unwritable_out_fails_before_integrating(tmp_path, capsys,
                                                          monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("integrated before checking --out")

    monkeypatch.setattr(cli, "run_simulation", never)
    scene = tmp_path / "s.json"
    scene.write_text(json.dumps(scene_dict()))
    rc, _, err = run_cli(capsys, "simulate", str(scene), "--out",
                         str(tmp_path / "missing" / "t.csv"))
    assert rc == 2 and _one_error_line(err) and "cannot write" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_simulate_failed_csv_write_is_a_usage_error(tmp_path, capsys):
    # /dev/full opens for appending, so the check before integrating
    # passes; the write itself then fails with ENOSPC
    scene = tmp_path / "s.json"
    scene.write_text(json.dumps(scene_dict()))
    rc, out, err = run_cli(capsys, "simulate", str(scene), "--out", "/dev/full")
    assert rc == 2 and out == "" and _one_error_line(err)
    assert "cannot write /dev/full: No space left on device" in err


# Streaming: a run of more than one block is written by a forked writer
# process when a second CPU is free, and by the same formatter in this
# process otherwise.  The fixture runs a test on both paths.


@pytest.fixture(params=["forked", "in-process"])
def writer(request, monkeypatch):
    """The path under test, and the list of processes it started."""
    started = []
    if request.param == "forked":
        if not hasattr(os, "fork"):
            pytest.skip("needs os.fork")
        real_fork = os.fork

        def fork():
            started.append(os.getpid())
            return real_fork()
        monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "_spare_cpu", lambda: request.param == "forked")
    return request.param, started


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_C8_OMEGA = [0.2, -0.4, 0.3, 0.8, -0.5, 0.6]     # criterion 8's spin


def _one_call_csv(tmp_path, doc, stride):
    """The CSV text that the formatter writes for one integrate call's table."""
    saved = scene_mod._BLOCK_ROWS
    scene_mod._BLOCK_ROWS = 10**9
    try:
        header, blocks = run_simulation(parse_scene(doc), stride=stride)
        (table,) = blocks
    finally:
        scene_mod._BLOCK_ROWS = saved
    path = tmp_path / "one-call.csv"
    scene_mod.write_csv(str(path), header, [table])
    return path.read_text()


@pytest.mark.parametrize("steps, stride", [(3 * 1024 + 6, 1), (3 * 2500 + 2, 3)],
                         ids=["3x1024+7-rows", "stride-3"])
def test_simulate_streamed_csv_matches_one_integrate_call(tmp_path, capsys, writer,
                                                          steps, stride):
    # a force window open across the first block boundary, and a stride
    # that does not divide the block, with steps left over after the last row
    mode, started = writer
    doc = scene_dict(
        initial={"omega_body": _C8_OMEGA},
        integrator={"dt": 1e-3, "steps": steps},
        forces=[{"point": [0.2, 0.0, -0.1], "vector": [0.0, 3.0, -1.0],
                 "t_start": 0.9, "t_end": 1.2}],
        outputs=[[0.1, 0.2, 0.3], [1.0, -0.5, 0.2]])
    scene, out = tmp_path / "s.json", tmp_path / "t.csv"
    scene.write_text(json.dumps(doc))
    rc, stdout, err = run_cli(capsys, "simulate", str(scene), "--out", str(out),
                              "--stride", str(stride))
    assert (rc, err) == (0, "")
    assert stdout == f"wrote {steps // stride + 1} rows to {out}\n"
    assert out.read_text() == _one_call_csv(tmp_path, doc, stride)
    assert len(started) == (mode == "forked")
    _no_child_left()


@pytest.mark.parametrize("steps, stride", [(1, 1), (50, 1), (1023, 1), (6000, 600)])
def test_simulate_of_one_block_starts_no_process(tmp_path, capsys, writer,
                                                 steps, stride):
    _, started = writer
    scene, out = tmp_path / "s.json", tmp_path / "t.csv"
    scene.write_text(json.dumps(scene_dict(integrator={"dt": 1e-4, "steps": steps})))
    rc, stdout, _ = run_cli(capsys, "simulate", str(scene), "--out", str(out),
                            "--stride", str(stride))
    assert rc == 0 and stdout == f"wrote {steps // stride + 1} rows to {out}\n"
    assert started == []


def test_simulate_failure_after_streaming_leaves_out_empty(tmp_path, capsys, writer):
    # the force reaches the body at t = 2, in the second block, after the
    # first block's rows have gone to the file
    mode, started = writer
    scene, out = tmp_path / "s.json", tmp_path / "t.csv"
    scene.write_text(json.dumps(scene_dict(
        initial={"omega_body": _C8_OMEGA},
        integrator={"dt": 1e-3, "steps": 3000},
        forces=[{"point": [0, 0, 0], "vector": [0, 1e300, 0], "t_start": 2.0}])))
    out.write_text("rows of an earlier run\n")
    rc, stdout, err = run_cli(capsys, "simulate", str(scene), "--out", str(out))
    assert rc == 3 and stdout == "" and _one_error_line(err)
    assert "momentum is not finite at t = 2.00" in err
    assert out.read_text() == ""
    assert len(started) == (mode == "forked")
    _no_child_left()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_simulate_full_disk_with_streamed_rows(tmp_path, capsys, writer):
    mode, started = writer
    scene = tmp_path / "s.json"
    scene.write_text(json.dumps(scene_dict(integrator={"dt": 1e-3, "steps": 2000})))
    rc, out, err = run_cli(capsys, "simulate", str(scene), "--out", "/dev/full")
    assert rc == 2 and out == "" and _one_error_line(err)
    assert "cannot write /dev/full: No space left on device" in err
    assert len(started) == (mode == "forked")
    _no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_simulate_reports_a_writer_that_dies(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_spare_cpu", lambda: True)
    scene, out = tmp_path / "s.json", tmp_path / "t.csv"
    scene.write_text(json.dumps(scene_dict(integrator={"dt": 1e-3, "steps": 2000})))
    argv = ["simulate", str(scene), "--out", str(out)]

    def killed(*args):
        os.kill(os.getpid(), signal.SIGKILL)
    monkeypatch.setattr(cli, "write_csv", killed)
    rc, stdout, err = run_cli(capsys, *argv)
    assert rc == 2 and stdout == "" and _one_error_line(err)
    assert f"cannot write {out}: the writer process was killed by signal 9" in err
    _no_child_left()

    # a bug in the writer is a bug here too
    def broken(*args):
        raise ZeroDivisionError
    monkeypatch.setattr(cli, "write_csv", broken)
    with pytest.raises(RuntimeError, match="CSV writer"):
        main(argv)
    _no_child_left()


_FORKS = pytest.mark.skipif(not (hasattr(os, "fork") and cli._spare_cpu()),
                            reason="the writer process needs os.fork and a second CPU")


def _start(scene, out):
    """``python -m pgakit simulate`` in a fresh interpreter, on this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.Popen([sys.executable, "-m", "pgakit", "simulate", str(scene),
                             "--out", str(out)], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


@_FORKS
def test_simulate_forks_its_writer_in_a_fresh_interpreter(tmp_path):
    doc = scene_dict(initial={"omega_body": _C8_OMEGA},
                     integrator={"dt": 1e-3, "steps": 2500})
    scene, out = tmp_path / "s.json", tmp_path / "t.csv"
    scene.write_text(json.dumps(doc))
    stdout, stderr = _start(scene, out).communicate(timeout=120)
    assert (stdout, stderr) == (f"wrote 2501 rows to {out}\n", "")
    assert out.read_text() == _one_call_csv(tmp_path, doc, 1)


@_FORKS
def test_simulate_killed_mid_run_leaves_out_empty(tmp_path):
    # the writer sees the pipe close before the last row, empties the
    # file and exits, so it does not outlive the run
    scene, out = tmp_path / "s.json", tmp_path / "t.csv"
    scene.write_text(json.dumps(scene_dict(integrator={"dt": 1e-4, "steps": 300_000})))
    out.write_text("")
    proc = _start(scene, out)
    deadline = time.monotonic() + 60
    try:
        while out.stat().st_size < 1000:        # the first block is going out
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
    finally:
        proc.kill()
        proc.communicate()
    while out.stat().st_size:
        assert time.monotonic() < deadline
        time.sleep(0.005)


def test_run_simulation_memory_does_not_grow_with_the_run(monkeypatch):
    # tracemalloc slows the generated step a hundredfold, so a motion that
    # stands still replaces integrate: arrays of the same shapes, every
    # row the first state
    def frozen(state, inertia, dt, steps, stride=1, force=None):
        rows = steps // stride + 1
        y = [*state.g.coeffs[state.g.algebra.even_indices], *state.pi_body.coeffs]
        return state.t + dt * stride * np.arange(rows), np.tile(y, (rows, 1))
    monkeypatch.setattr(scene_mod, "integrate", frozen)

    def peak(blocks):
        cfg = parse_scene(scene_dict(integrator={
            "dt": 1e-3, "steps": blocks * scene_mod._BLOCK_ROWS - 1}))
        tracemalloc.start()
        try:
            header, rows = run_simulation(cfg)
            for _ in rows:
                pass
            return tracemalloc.get_traced_memory()[1], len(header)
        finally:
            tracemalloc.stop()
    peak(1)                                     # first-use caches
    (two, width), (eight, _) = peak(2), peak(8)
    assert abs(eight - two) < scene_mod._BLOCK_ROWS * width * 8


def test_simulate_caps_recorded_rows(tmp_path, capsys, monkeypatch):
    # every step is integrated whatever the stride, so a run of more than
    # MAX_STEPS steps is refused before integrating, not left to run for hours
    scene = tmp_path / "s.json"
    scene.write_text(json.dumps(scene_dict(integrator={"dt": 1e-3, "steps": 10**300})))
    out = tmp_path / "t.csv"
    rc, _, err = run_cli(capsys, "simulate", str(scene), "--out", str(out))
    assert rc == 2 and _one_error_line(err) and "steps" in err
    assert out.read_text() == ""
    # a stride that records two rows does not let the steps through
    rc, _, err = run_cli(capsys, "simulate", str(scene), "--out", str(out),
                         "--stride", str(10**300))
    assert rc == 2 and _one_error_line(err) and "steps" in err
    assert out.read_text() == ""

    def rows(steps, stride=1):
        cfg = parse_scene(scene_dict(integrator={"dt": 1e-3, "steps": steps}))
        return len(_table(cfg, stride))
    # the cap counts steps, at any stride
    monkeypatch.setattr(scene_mod, "MAX_STEPS", 20)
    assert rows(20) == 21
    for stride in (1, 2, 21, 10**300):
        with pytest.raises(SceneError, match="steps"):
            rows(21, stride=stride)


# The scene fuzz: well-formed documents, their numbers either tame or
# any finite float (the runner then sees 1e308 masses and a dt of
# 1e-300), 0-2 fields damaged by junk or removed, and now and then no
# object at all.  "steps" is small, fractional, or more than MAX_STEPS,
# so no example runs long.
_junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 3),
                  st.just(10**300), st.sampled_from([math.nan, math.inf, -math.inf]),
                  st.lists(st.one_of(st.floats(), st.integers(), st.none()), max_size=9))
_bad_steps = st.one_of(st.integers(-2, 0), st.integers(10**9 + 1, 10**400),
                       st.floats(0, 30).filter(lambda x: not x.is_integer()))


@st.composite
def _scene_docs(draw):
    if draw(st.booleans()):
        real = st.floats(allow_nan=False, allow_infinity=False)
        positive = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
    else:
        real, positive = st.floats(-2, 2), st.floats(1e-3, 3)

    def vec(n):
        return st.lists(real, min_size=n, max_size=n)
    doc = {
        "bodies": draw(st.lists(st.fixed_dictionaries(
            {"mass": positive, "position": vec(3)}), min_size=4, max_size=6)),
        "initial": {draw(st.sampled_from(["omega_body", "pi_body"])): draw(vec(6))},
        "rotor0": draw(st.one_of(st.just([1.0] + [0.0] * 7), vec(8))),
        "integrator": {"dt": draw(positive), "steps": draw(
            _bad_steps if draw(st.booleans()) else st.integers(1, 12))},
        "forces": draw(st.lists(st.fixed_dictionaries(
            {"point": vec(3), "vector": vec(3)},
            optional={"t_start": real, "t_end": st.one_of(real, st.just(math.inf))}),
            max_size=2)),
        "outputs": draw(st.lists(vec(3), max_size=2)),
    }
    for key in draw(st.sets(st.sampled_from([*doc, "signature"]), max_size=2)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(_junk)
    return draw(_junk) if draw(st.integers(0, 19)) == 19 else doc


@settings(max_examples=60, deadline=None)
@given(_scene_docs())
def test_parse_scene_fuzz_raises_only_scene_error(doc):
    try:
        parse_scene(doc)
    except SceneError:
        pass


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_scene_docs(), stride=st.integers(1, 3))
def test_simulate_fuzz_exits_0_2_or_3(tmp_path, doc, stride):
    scene, out = tmp_path / "s.json", tmp_path / "t.csv"
    scene.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["simulate", str(scene), "--out", str(out), "--stride", str(stride)])
    event(f"exit {rc}")
    assert rc in (0, 2, 3)
    assert rc == 0 or _one_error_line(err.getvalue())


def _table(cfg, stride=1):
    """The whole table of a run: its blocks, one after the other."""
    return np.concatenate(list(run_simulation(cfg, stride=stride)[1]))


def _reference_rows(cfg):
    """run_simulation at stride 1 rebuilt from the public Multivector API:
    the conftest RK4 with the open force lines summed per stage, and one
    sandwich per tracked point."""
    alg = pga3d()
    inertia = inertia_assemble([Particle.at(alg, b["mass"], b["position"])
                                for b in cfg.bodies])

    def force(t):
        total = alg.zero()
        for f in cfg.forces:
            if f.t_start <= t < f.t_end:
                total = total + force_line(alg, f.point, f.vector)
        return total

    def row(t, g, pi):
        vals = [t, *g.coeffs[alg.even_indices], *biv_coeffs(pi),
                inertia.energy(inertia.inverse_apply(
                    MomentumState(biv_coeffs(pi), BODY)))]
        for p in cfg.outputs:
            vals += point_coords(sandwich(g, point(alg, *p)))
        return vals

    g = newton_normalize(even_mv(alg, cfg.rotor0))
    pi = biv_mv(alg, inertia.apply(VelocityState(np.array(cfg.omega_body),
                                                 BODY)).coeffs)
    return np.array([row(*state) for state in
                     reference_rk4(inertia, g, pi, cfg.dt, cfg.steps, force)])


def test_run_simulation_matches_reference_loop():
    cfg = parse_scene(scene_dict(
        rotor0=[0.9, 0.1, -0.2, 0.3, 0.2, -0.1, 0.25, 0.05],
        forces=[{"point": [0.2, 0.0, -0.1], "vector": [0.0, 3.0, -1.0],
                 "t_start": 0.01, "t_end": 0.03},
                {"point": [-0.3, 0.4, 0.1], "vector": [2.0, 0.0, 1.0],
                 "t_start": 0.02}],
        outputs=[[0.1, 0.2, 0.3], [1.0, -0.5, 0.2], [-2.0, 0.0, 1.0]]))
    rows = _table(cfg)
    want = _reference_rows(cfg)
    got = np.array(rows)
    assert got.shape == want.shape == (51, 25)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_run_simulation_factors_inertia_once(monkeypatch):
    calls = {"cond": 0, "inv": 0}
    for name in calls:
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    cfg = parse_scene(scene_dict(integrator={"dt": 1e-3, "steps": 100}))
    assert len(_table(cfg)) == 101
    assert calls == {"cond": 1, "inv": 1}


def test_run_simulation_allocates_nothing_per_step(monkeypatch):
    # the package's ``algebra`` attribute is the lookup function
    algebra_mod = importlib.import_module("pgakit.algebra")
    dynamics_mod = importlib.import_module("pgakit.dynamics")
    made = []
    real_set, real_init = algebra_mod._set_algebra, algebra_mod.Multivector.__init__
    real_state = dynamics_mod._BivectorState.__post_init__

    def counted_set(*args):
        made.append(1)
        real_set(*args)

    def counted_init(self, *args):
        made.append(1)
        real_init(self, *args)

    def counted_state(self):
        made.append(1)
        real_state(self)
    monkeypatch.setattr(algebra_mod, "_set_algebra", counted_set)
    monkeypatch.setattr(algebra_mod.Multivector, "__init__", counted_init)
    monkeypatch.setattr(dynamics_mod._BivectorState, "__post_init__", counted_state)

    def objects(steps, forces):
        made.clear()
        cfg = parse_scene(scene_dict(integrator={"dt": 1e-3, "steps": steps},
                                     forces=forces))
        assert len(_table(cfg)) == steps + 1
        return len(made)
    forced = [{"point": [0.2, 0.0, -0.1], "vector": [0.0, 3.0, -1.0],
               "t_start": 0.005},
              {"point": [-0.3, 0.4, 0.1], "vector": [2.0, 0.0, 1.0],
               "t_start": 0.002, "t_end": 0.5}]
    for forces in ([], forced):
        assert objects(10, forces) == objects(1000, forces) > 0


def test_write_csv_matches_per_value_format(tmp_path):
    table = np.array([[-0.0, 5e-324, 1e16, 0.1, -1 / 3],
                      [1.7976931348623157e308, 2.2250738585072014e-308, 123456789.0,
                       -2.5, 1e-300]])
    path = tmp_path / "t.csv"
    scene_mod.write_csv(str(path), ["a", "b", "c", "d", "e"], [table])
    want = "a,b,c,d,e\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                   for row in table.tolist())
    assert path.read_text() == want
    # blocks of any size, as arrays or as their raw bytes, and no rows
    big = np.random.default_rng(5).normal(size=(2 * scene_mod._BLOCK_ROWS + 3, 2))
    scene_mod.write_csv(str(path), ["x", "y"],
                        [big[:5], big[5:1000].tobytes(), big[1000:]])
    assert path.read_text() == "x,y\n" + "".join(
        f"{x:.17g},{y:.17g}\n" for x, y in big.tolist())
    scene_mod.write_csv(str(path), ["x"], [np.empty((0, 1))])
    assert path.read_text() == "x\n"
    scene_mod.write_csv(str(path), ["x"], [])
    assert path.read_text() == "x\n"
    # a block of other values is refused, not read as float64 bytes
    with pytest.raises(TypeError, match="float64"):
        scene_mod.write_csv(str(path), ["x"], [np.arange(3).reshape(3, 1)])
    assert path.read_text() == ""


def test_write_csv_leaves_an_empty_file_when_the_blocks_fail(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("rows of an earlier run\n")

    def blocks():
        yield np.ones((scene_mod._BLOCK_ROWS, 2))
        raise NumericError("x is not finite at t = 1.0")
    with pytest.raises(NumericError):
        scene_mod.write_csv(str(path), ["x", "y"], blocks())
    assert path.read_text() == ""


def test_usage_exit_codes(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["simulate"]) == 2       # missing required arguments
    assert main(["eval", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: pgakit eval")

"""Tests of the benchmark itself (not part of the repository's tier-1 run).

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402


def synthetic(spans):
    """A Trace from (name, start, end, parent) tuples."""
    names = sorted({s[0] for s in spans})
    cols = list(zip(*spans))
    return tracing.Trace(names, [names.index(n) for n in cols[0]],
                         list(cols[1]), list(cols[2]), list(cols[3]),
                         meta={})


def test_self_time_arithmetic_on_nested_spans():
    trace = synthetic([
        ("run", 0, 1000, -1),
        ("scene.run_simulation", 100, 900, 0),
        ("dynamics.euler_step", 150, 350, 1),
        ("numpy.linalg.inv", 200, 230, 2),
        ("numpy.linalg.cond", 240, 300, 2),
        ("dynamics.euler_step", 400, 600, 1),
        ("numpy.linalg.inv", 450, 470, 5),
        ("versors.sandwich", 700, 800, 1),
        ("algebra.gp", 710, 760, 7),
    ])
    dur, own = tracing.self_times(trace.start, trace.end, trace.parent)
    assert dur == [1000, 800, 200, 30, 60, 200, 20, 100, 50]
    assert own == [200, 300, 110, 30, 60, 180, 20, 50, 50]
    assert sum(own) == dur[0]          # self times account for the root
    stats = tracing.aggregate(trace)
    step = stats["dynamics.euler_step"]
    assert step.calls == 2 and step.self_s == pytest.approx(290e-9)
    assert step.total_s == pytest.approx(400e-9) and step.p50_us == 0.2
    assert tracing.inside_count(trace, "dynamics.euler_step", "numpy.linalg.") == 3
    assert tracing.children_time(
        trace, "scene.run_simulation",
        exclude=("dynamics.euler_step",)) == pytest.approx(100e-9)


def _attribute_snapshot():
    import numpy.linalg
    from pgakit.algebra import Algebra, Multivector
    owners = [sys.modules["pgakit"], numpy.linalg, Multivector, Algebra,
              *tracing.pgakit_modules().values()]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_install_rebinds_every_alias_and_restore_undoes_it():
    import pgakit.cli  # noqa: F401  (the simulate path imports every module)
    from pgakit import dynamics, scene, versors
    original = versors.sandwich
    assert scene.sandwich is original and dynamics.sandwich is original
    before = _attribute_snapshot()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert versors.sandwich is not original
        assert scene.sandwich is versors.sandwich is dynamics.sandwich
        assert sys.modules["pgakit"].sandwich is versors.sandwich
        # every attribute that referred to a public pgakit function now
        # refers to its traced version, whatever module holds it
        functions = {id(fn): fn for mod in tracing.pgakit_modules().values()
                     for _, fn in tracing._public_functions(mod)}
        for key, value in before.items():
            if id(value) in functions:
                assert _attribute_snapshot()[key] is not value, key
    finally:
        tracer.restore()
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_records_calls_made_through_aliases(tmp_path):
    import pgakit.cli as cli
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(run.record_scene(3, run.SMOKE)))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        rc = tracer.span(tracing.ROOT, cli.main)(
            ["simulate", str(scene), "--out", str(tmp_path / "t.csv")])
    finally:
        tracer.restore()
    assert rc == 0
    tracer.dump(str(tmp_path / "spans.bin"), import_s=0.0, exit=rc)
    trace = tracing.Trace.load(str(tmp_path / "spans.bin"))
    stats = tracing.aggregate(trace)
    steps = run.SMOKE.record_steps
    points = run.SMOKE.record_points
    assert stats["dynamics.euler_step"].calls == steps
    # scene.run_simulation reaches sandwich through its own alias
    assert stats["versors.sandwich"].calls == (steps + 1) * points
    assert stats["scene.write_csv"].calls == 1
    assert tracing.inside_count(trace, "dynamics.euler_step",
                                "numpy.linalg.") >= steps
    dur, own = tracing.self_times(trace.start, trace.end, trace.parent)
    root = trace.names.index(tracing.ROOT)
    assert sum(own) == sum(d for d, n in zip(dur, trace.name) if n == root)


def test_rotor_residual_matches_pgakit():
    from pgakit import pga3d, rotator, translator, line3d_point_dir, normalize
    from pgakit.versors import rotor_constraint
    alg = pga3d()
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = (translator(alg, rng.normal(size=3))
             * rotator(normalize(line3d_point_dir(alg, rng.normal(size=3),
                                                  rng.normal(size=3))), 1.1))
        g = g * 1.3 + alg.multivector({"I": 0.2})
        z = rotor_constraint(g)
        want = max(abs(z.re - 1.0), abs(z.du))
        got = run.rotor_residual(list(g.coeffs[alg.even_indices]))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_inputs_depend_only_on_the_seed():
    assert run.geometry_pool(4, 50) == run.geometry_pool(4, 50)
    assert run.geometry_pool(4, 50) != run.geometry_pool(5, 50)
    assert run.forced_scene(4, run.SMOKE) == run.forced_scene(4, run.SMOKE)
    assert run.record_scene(4, run.SMOKE) != run.record_scene(5, run.SMOKE)
    kinds = [q["kind"] for q in run.geometry_pool(4, 50)]
    assert {k: kinds.count(k) for k in kinds} == dict.fromkeys(run.QUERY_KINDS, 10)


def _bench(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                         capture_output=True, text=True, timeout=170)
    return out.returncode, out.stdout, out.stderr


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_named_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    rc, stdout, stderr = _bench("--workload", workload, "--seed", "7",
                                "--seconds", "1", "--trace", str(trace),
                                "--smoke")
    assert rc == 0, stderr
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("provenance ")
    prov = json.loads(lines[0].split(" ", 1)[1])
    assert {"nproc", "cpu_model", "python", "numpy", "pgakit_commit",
            "seed", "trace"} <= prov.keys() and prov["seed"] == 7
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "error_rate" in stdout
        return
    calls = {k[:-len(".calls")]: v["value"] for k, v in result["metrics"].items()
             if k.endswith(".calls")}
    # the workload design, confirmed by counts
    if workload == "geometry":
        assert all(v == 0 for k, v in calls.items()
                   if k.startswith(("dynamics.", "scene.")))
        assert calls["versors.exp_bivector"] > 0 and calls["versors.screw_log"] > 0
    else:
        assert calls["versors.exp_bivector"] == calls["versors.screw_log"] == 0
        assert (calls["dynamics.frame_convert"] > 0) == (workload == "sim_forced")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, stdout, _ = _bench("--workload", "geometry", "--seed", "1",
                           "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert rc != 0
    assert '"metrics"' not in stdout

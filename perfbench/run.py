"""pgakit's benchmark: three closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload sim_record --seed 1 --seconds 40 --trace 0

Workloads (see README.md for why each was chosen):

* ``sim_record``: ``pgakit simulate`` on the 4-point reference body,
  force-free, 10^4 steps at stride 1 with tracked points;
* ``sim_forced``: ``pgakit simulate`` on a seeded 256-point body with
  three force lines switching on and off, large stride;
* ``geometry``: a seeded pool of composite queries (incidence, motion,
  lines, planar, noneuclid) through the public API.

Every run of the program is a fresh interpreter started from this
process, one at a time; the runs repeat until ``--seconds`` is used up
and the medians are reported.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` alternates untraced and traced runs and reports
per-layer metrics from the spans (see ``tracing.py``).  ``--workload
all`` runs the three workloads one after the other.  Every output is
checked; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK_DIR = ROOT / ".bench_build"
WORKLOADS = ("sim_record", "sim_forced", "geometry")
TIME_LIMIT_S = 170

# acceptance criterion 8: the reference body, its spin and its bounds
REFERENCE_BODY = [(1.0, (0.1, 0.2, 0.3)), (1.5, (1.0, -0.5, 0.2)),
                  (0.7, (-0.4, 0.8, -0.6)), (2.0, (0.3, 0.4, 1.1))]
REFERENCE_OMEGA = (0.2, -0.4, 0.3, 0.8, -0.5, 0.6)
ENERGY_DRIFT_TOL = 1e-6
RIGID_TOL = 1e-8
ROTOR_TOL = 1e-9
# force windows of sim_forced as shares of the simulated time; fixed, so
# every seed integrates the same number of forced steps
FORCE_WINDOWS = ((0.05, 0.35), (0.20, 0.50), (0.45, 0.68))


@dataclass(frozen=True)
class Sizes:
    record_steps: int = 10_000
    record_points: int = 3
    forced_bodies: int = 256
    forced_steps: int = 6_000
    forced_stride: int = 600
    queries: int = 2_500
    min_runs: int = 3
    setup_runs: int = 3          # one-step runs per full simulate run


SMOKE = Sizes(record_steps=200, forced_bodies=24, forced_steps=200,
              forced_stride=50, queries=60, min_runs=1, setup_runs=1)

# end-to-end metrics: (name, unit)
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("work_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

# per-layer metrics: functions with calls / self time / median call
TRACED_FUNCTIONS = (
    "algebra.gp", "algebra.op", "algebra.ip", "algebra.commutator",
    "duality.join",
    "metric.normalize", "metric.bivector_axis", "metric.point_coords",
    "metric.distance",
    "versors.exp_bivector", "versors.screw_log", "versors.normalize_rotor",
    "versors.sandwich",
    "dynamics.euler_step", "dynamics.frame_convert", "dynamics.body_energy",
    "dynamics.inertia_assemble",
    "scene.load_scene",
)
PER_LAYER = tuple(
    [(f"{fn}.{stat}", unit) for fn in TRACED_FUNCTIONS
     for stat, unit in (("calls", "count"), ("self_s", "s"), ("p50_us", "us"))]
    + [("algebra.Algebra.build_s", "s"), ("algebra.Algebra.build.calls", "count"),
       ("algebra.Multivector.new.calls", "count"),
       ("dynamics.linalg_per_step", "ratio"),
       ("scene.run_simulation.self_s", "s"), ("scene.record_s", "s"),
       ("scene.write_csv.self_s", "s"), ("scene.write_csv.bytes", "bytes"),
       ("cli.import_s", "s"), ("run.self_s", "s"),
       ("trace.wall_s", "s"), ("trace.overhead", "ratio"),
       ("trace.accounted", "ratio")])


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, timeout)."""


# ---------------------------------------------------------------------------
# seeded inputs


def _uniform3(rng, lo, hi):
    return [rng.uniform(lo, hi) for _ in range(3)]


def record_scene(seed: int, sizes: Sizes) -> dict:
    """The criterion-8 body with a seeded spin and seeded tracked points."""
    rng = random.Random(f"sim_record/{seed}")
    return {
        "bodies": [{"mass": m, "position": list(x)} for m, x in REFERENCE_BODY],
        "initial": {"omega_body": [w * rng.uniform(0.9, 1.1)
                                   for w in REFERENCE_OMEGA]},
        "integrator": {"dt": 1e-3, "steps": sizes.record_steps},
        "outputs": [_uniform3(rng, -1.0, 1.0) for _ in range(sizes.record_points)],
    }


def forced_scene(seed: int, sizes: Sizes) -> dict:
    """A seeded many-point body under three windowed force lines."""
    rng = random.Random(f"sim_forced/{seed}")
    dt = 1e-3
    span = sizes.forced_steps * dt
    return {
        "bodies": [{"mass": rng.uniform(0.5, 2.0),
                    "position": [rng.gauss(0.0, 0.7) for _ in range(3)]}
                   for _ in range(sizes.forced_bodies)],
        "initial": {"omega_body": [rng.uniform(-0.5, 0.5) for _ in range(6)]},
        "integrator": {"dt": dt, "steps": sizes.forced_steps},
        "forces": [{"point": _uniform3(rng, -1.0, 1.0),
                    "vector": _uniform3(rng, -40.0, 40.0),
                    "t_start": lo * span, "t_end": hi * span}
                   for lo, hi in FORCE_WINDOWS],
        "outputs": [_uniform3(rng, -1.0, 1.0) for _ in range(2)],
    }


def _far_pair(rng, lo, hi, gap=0.2):
    while True:
        a, b = _uniform3(rng, lo, hi), _uniform3(rng, lo, hi)
        if math.dist(a, b) > gap:
            return [a, b]


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def _det3(a, b, c):
    return sum(x * y for x, y in zip(a, _cross(b, c)))


def _incidence(rng):
    points = _far_pair(rng, -2.0, 2.0) + [_uniform3(rng, -2.0, 2.0)]
    while True:
        normals = [[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(3)]
        lengths = [math.sqrt(sum(x * x for x in n)) for n in normals]
        if abs(_det3(*normals)) > 0.2 * math.prod(lengths):
            break
    return {"points": points,
            "planes": [n + [rng.uniform(-1.0, 1.0)] for n in normals]}


def _motion(rng):
    while True:
        direction = [rng.gauss(0.0, 1.0) for _ in range(3)]
        if math.hypot(*direction) > 0.2:
            break
    return {"at": _uniform3(rng, -1.0, 1.0), "dir": direction,
            "t": rng.uniform(0.05, 1.45), "u": rng.uniform(-1.2, 1.2),
            "points": [_uniform3(rng, -2.0, 2.0) for _ in range(3)]}


def _lines(rng):
    while True:
        line1, line2 = _far_pair(rng, -2.0, 2.0), _far_pair(rng, -2.0, 2.0)
        d1 = [q - p for p, q in zip(*line1)]
        d2 = [q - p for p, q in zip(*line2)]
        sin_a = math.hypot(*_cross(d1, d2)) / (math.hypot(*d1) * math.hypot(*d2))
        if sin_a > 0.15:
            return {"line1": line1, "line2": line2,
                    "t": rng.uniform(0.3, 1.3), "u": rng.uniform(-1.0, 1.0)}


def _planar(rng):
    while True:
        corners = [[rng.uniform(-3.0, 3.0) for _ in range(2)] for _ in range(3)]
        (ax, ay), (bx, by), (cx, cy) = corners
        if 0.5 * abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) > 0.2:
            return {"corners": corners}


def _noneuclid(rng):
    while True:
        x = [rng.gauss(0.0, 1.0) for _ in range(4)]
        y = [rng.gauss(0.0, 1.0) for _ in range(4)]
        c = sum(a * b for a, b in zip(x, y)) / math.sqrt(
            sum(a * a for a in x) * sum(b * b for b in y))
        if abs(c) < 0.95:
            break
    while True:
        u, v = ([1.0] + [rng.uniform(-0.45, 0.45) for _ in range(3)]
                for _ in range(2))
        if math.dist(u, v) > 0.1:
            return {"elliptic": [x, y], "hyperbolic": [u, v]}


QUERY_KINDS = {"incidence": _incidence, "motion": _motion, "lines": _lines,
               "planar": _planar, "noneuclid": _noneuclid}


def geometry_pool(seed: int, size: int) -> list[dict]:
    """``size`` queries, the kinds in a fixed rotation, parameters seeded."""
    rng = random.Random(f"geometry/{seed}")
    kinds = list(QUERY_KINDS)
    return [dict(QUERY_KINDS[kinds[i % len(kinds)]](rng), kind=kinds[i % len(kinds)])
            for i in range(size)]


# ---------------------------------------------------------------------------
# running one fresh interpreter


@dataclass
class Launch:
    returncode: int
    wall_s: float
    rss_mb: float
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"                  # one thread per child, as in the CLI's use
    return env


def launch(cmd: list[str], tmp: Path) -> Launch:
    """Run ``cmd`` to completion; wall time from launch to exit, peak RSS."""
    err_path = tmp / "child.err"
    with open(tmp / "child.out", "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=tmp, env=child_env(), stdout=out,
                                stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6,
                  err_path.read_text(errors="replace")[-2000:])


# ---------------------------------------------------------------------------
# output checks


def rotor_residual(g: list[float]) -> float:
    """``|g ~g - 1|`` of an even element of Cl(3,0,1) given as g0..g7.

    For ``g = s + b01 e01 + b02 e02 + b03 e03 + b12 e12 + b31 e31 + b23 e23
    + p I``: ``g ~g = (s^2 + b12^2 + b31^2 + b23^2)
    + 2 (s p - b01 b23 - b02 b31 - b03 b12) I``.
    """
    s, b01, b02, b03, b12, b31, b23, p = g
    re = s * s + b12 * b12 + b31 * b31 + b23 * b23
    du = 2.0 * (s * p - (b01 * b23 + b02 * b31 + b03 * b12))
    return max(abs(re - 1.0), abs(du))


def check_trajectory(launch_: Launch, csv_path: Path, steps: int, stride: int,
                     free_from: float) -> tuple[list[bool], list[str]]:
    """The checks of one ``pgakit simulate`` run; names of those failed.

    ``free_from`` is the time after which no force acts: the energy of
    every recorded row from then on must stay within the criterion-8
    drift of the first such row.  The tracked points move rigidly, so
    their pairwise distances must keep their first-row values.
    """
    names = ["exit_code", "row_count", "finite", "rotor", "energy_drift", "rigid"]
    if launch_.returncode != 0 or not csv_path.exists():
        return [False] * len(names), names
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",") if lines else []
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        g_cols = [header.index(f"g{i}") for i in range(8)]
        e_col, t_col = header.index("energy"), header.index("t")
    except ValueError:                 # not the documented CSV layout
        return [True] + [False] * (len(names) - 1), names[1:]
    finite = all(math.isfinite(v) for row in rows for v in row)
    rotor_ok = finite and all(
        rotor_residual([row[c] for c in g_cols]) <= ROTOR_TOL for row in rows)
    free = [row[e_col] for row in rows if row[t_col] >= free_from]
    drift_ok = finite and all(abs(e - free[0]) <= ENERGY_DRIFT_TOL * abs(free[0])
                              for e in free)
    tracked = [[header.index(f"{c}{i}") for c in "xyz"]
               for i in range(sum(1 for h in header if h.startswith("x")))]
    pairs = [(a, b) for i, a in enumerate(tracked) for b in tracked[i + 1:]]

    def gaps(row):
        return [math.dist([row[c] for c in a], [row[c] for c in b])
                for a, b in pairs]

    first = gaps(rows[0]) if rows else []
    rigid_ok = finite and all(
        abs(d - d0) <= RIGID_TOL * max(1.0, d0)
        for row in rows for d, d0 in zip(gaps(row), first))
    oks = [True, len(rows) == steps // stride + 1, finite, rotor_ok, drift_ok,
           rigid_ok]
    return oks, [n for n, ok in zip(names, oks) if not ok]


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Result:
    """One workload's numbers and its check tally."""

    workload: str
    metrics: dict = field(default_factory=dict)     # name -> (value, unit)
    report: list = field(default_factory=list)      # (name, value, unit, note)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def tally(self, oks, failed_names, what):
        self.attempted += len(oks)
        self.failed += len(failed_names)
        if failed_names and len(self.failures) < 5:
            self.failures.append(f"{what}: {', '.join(map(str, failed_names))}")


class Clock:
    """Decides whether another iteration still fits in the run."""

    def __init__(self, seconds: float, min_runs: int):
        self.t0 = time.perf_counter()
        self.seconds = seconds
        self.min_runs = min_runs
        self.runs = 0
        self.longest = 0.0

    def more(self) -> bool:
        if self.runs < self.min_runs:
            return True
        elapsed = time.perf_counter() - self.t0
        return elapsed + self.longest <= self.seconds

    def done(self, started: float):
        self.runs += 1
        self.longest = max(self.longest, time.perf_counter() - started)


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data))
    return path


def run_sim(workload: str, seed: int, seconds: float, trace: bool,
            sizes: Sizes, tmp: Path) -> Result:
    if workload == "sim_record":
        scene, stride = record_scene(seed, sizes), 1
        free_from = 0.0
    else:
        scene, stride = forced_scene(seed, sizes), sizes.forced_stride
        free_from = max(f["t_end"] for f in scene["forces"])
    steps = scene["integrator"]["steps"]
    one_step = dict(scene, integrator=dict(scene["integrator"], steps=1))
    full_json = _write_json(tmp / "scene.json", scene)
    setup_json = _write_json(tmp / "scene_setup.json", one_step)
    csv_path = tmp / "trajectory.csv"
    spans = tmp / "spans.bin"
    res = Result(workload)

    def simulate(scene_path, n_steps, traced=False):
        csv_path.unlink(missing_ok=True)
        args = [str(scene_path), "--out", str(csv_path), "--stride", str(stride)]
        if traced:
            cmd = [sys.executable, str(CHILD), "simulate",
                   "--trace-out", str(spans), "--", *args]
        else:
            cmd = [sys.executable, "-m", "pgakit", "simulate", *args]
        run = launch(cmd, tmp)
        oks, bad = check_trajectory(run, csv_path, n_steps, stride, free_from)
        res.tally(oks, bad, f"{'traced ' if traced else ''}{n_steps}-step run"
                  + (f" (exit {run.returncode}: {run.stderr.strip()})"
                     if run.returncode else ""))
        return run

    simulate(setup_json, 1)                   # warm-up: bytecode, file cache
    clock = Clock(seconds, sizes.min_runs)
    full, setup, traced_runs = [], [], []
    while clock.more():
        started = time.perf_counter()
        if trace:
            full.append(simulate(full_json, steps))
            spans.unlink(missing_ok=True)
            run = simulate(full_json, steps, traced=True)
            if run.returncode == 0 and spans.exists():
                traced_runs.append((run.wall_s, tracing.Trace.load(str(spans)),
                                    csv_path.stat().st_size))
        else:
            setup += [simulate(setup_json, 1) for _ in range(sizes.setup_runs)]
            full.append(simulate(full_json, steps))
        clock.done(started)

    full = [r for r in full if r.returncode == 0]
    setup = [r for r in setup if r.returncode == 0]
    if not full or not (setup or trace):
        raise BenchError(f"{workload}: every run failed: {res.failures}")
    wall = statistics.median(r.wall_s for r in full)
    if trace:
        res.metrics = per_layer(traced_runs, wall)
        res.report.append(("wall_s", wall, "s", f"untraced, median of {len(full)}"))
        return res
    setup_s = statistics.median(r.wall_s for r in setup)
    work_s = wall - setup_s
    rss = statistics.median(r.rss_mb for r in full)
    res.metrics = {"wall_s": (wall, "s"), "setup_s": (setup_s, "s"),
                   "work_per_s": (steps / work_s, "1/s"),
                   "peak_rss_mb": (rss, "MB")}
    n = f"median of {len(full)} runs"
    res.report += [("wall_s", wall, "s", n),
                   ("setup_s", setup_s, "s",
                    f"same scene with steps: 1, median of {len(setup)} runs"),
                   ("steps_per_s", steps / work_s, "1/s",
                    f"{steps} steps / (wall_s - setup_s)"),
                   ("peak_rss_mb", rss, "MB", n)]
    return res


def run_geometry(seed: int, seconds: float, trace: bool, sizes: Sizes,
                 tmp: Path) -> Result:
    pool = _write_json(tmp / "pool.json", geometry_pool(seed, sizes.queries))
    out = tmp / "geometry.json"
    spans = tmp / "spans.bin"
    res = Result("geometry")

    def child(traced=False):
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), "geometry", "--pool", str(pool),
               "--out", str(out)]
        if traced:
            cmd += ["--trace-out", str(spans)]
        run = launch(cmd, tmp)
        if run.returncode != 0 or not out.exists():
            res.tally([False], [f"exit {run.returncode}: {run.stderr.strip()}"],
                      "geometry child")
            return run, None
        data = json.loads(out.read_text())
        res.attempted += data["attempted"]
        res.failed += data["failed"]
        res.failures += data["failures"][:5 - len(res.failures)]
        return run, data

    clock = Clock(seconds, sizes.min_runs)
    runs, traced_runs = [], []
    while clock.more():
        started = time.perf_counter()
        runs.append(child())
        if trace:
            spans.unlink(missing_ok=True)
            run, data = child(traced=True)
            if data is not None and spans.exists():
                traced_runs.append((run.wall_s, tracing.Trace.load(str(spans)), 0))
        clock.done(started)

    done = [(run, data) for run, data in runs if data is not None]
    if not done:
        raise BenchError(f"every geometry child failed: {res.failures}")
    wall = statistics.median(run.wall_s for run, _ in done)
    if trace:
        res.metrics = per_layer(traced_runs, wall)
        res.report.append(("wall_s", wall, "s", f"untraced, median of {len(done)}"))
        return res
    setup_s = statistics.median(data["setup_s"] for _, data in done)
    rates = [len(d["query_ns"]) / (sum(d["query_ns"]) / 1e9) for _, d in done]
    latencies = sorted(ns / 1e3 for _, d in done for ns in d["query_ns"])
    cuts = statistics.quantiles(latencies, n=100)
    p50, p99 = statistics.median(latencies), cuts[98]
    rss = statistics.median(run.rss_mb for run, _ in done)
    rate = statistics.median(rates)
    res.metrics = {"wall_s": (wall, "s"), "setup_s": (setup_s, "s"),
                   "work_per_s": (rate, "1/s"), "peak_rss_mb": (rss, "MB")}
    n = f"median of {len(done)} runs"
    beyond = sum(1 for x in latencies if x > p99)
    res.report += [("wall_s", wall, "s", n),
                   ("setup_s", setup_s, "s",
                    "import pgakit + four algebras, " + n),
                   ("queries_per_s", rate, "1/s",
                    f"{sizes.queries} queries per run, " + n),
                   ("query_p50_us", p50, "us", f"{len(latencies)} queries"),
                   ("query_p99_us", p99, "us",
                    f"{len(latencies)} queries, {beyond} beyond"),
                   ("peak_rss_mb", rss, "MB", n)]
    return res


def per_layer(traced_runs, untraced_wall: float) -> dict:
    """Per-layer metrics from the traced run with the median wall time."""
    if not traced_runs:
        raise BenchError("every traced run failed")
    traced_runs = sorted(traced_runs, key=lambda r: r[0])
    wall, trace, csv_bytes = traced_runs[(len(traced_runs) - 1) // 2]
    stats = tracing.aggregate(trace)
    empty = tracing.Stat(0, 0.0, 0.0, 0.0)
    out = {}
    for fn in TRACED_FUNCTIONS:
        st = stats.get(fn, empty)
        out[f"{fn}.calls"] = (st.calls, "count")
        out[f"{fn}.self_s"] = (st.self_s, "s")
        out[f"{fn}.p50_us"] = (st.p50_us, "us")
    build = stats.get(tracing.BUILD, empty)
    steps = stats.get("dynamics.euler_step", empty).calls
    linalg = tracing.inside_count(trace, "dynamics.euler_step",
                                  tracing.LINALG + ".")
    root = stats.get(tracing.ROOT, empty)
    import_s = trace.meta["import_s"]
    out.update({
        "algebra.Algebra.build_s": (build.total_s, "s"),
        "algebra.Algebra.build.calls": (build.calls, "count"),
        "algebra.Multivector.new.calls": (trace.meta["counts"].get(tracing.NEW, 0),
                                          "count"),
        "dynamics.linalg_per_step": (linalg / steps if steps else 0.0, "ratio"),
        "scene.run_simulation.self_s":
            (stats.get("scene.run_simulation", empty).self_s, "s"),
        "scene.record_s": (tracing.children_time(
            trace, "scene.run_simulation",
            exclude=("dynamics.euler_step", "dynamics.inertia_assemble")), "s"),
        "scene.write_csv.self_s": (stats.get("scene.write_csv", empty).self_s, "s"),
        "scene.write_csv.bytes": (csv_bytes, "bytes"),
        "cli.import_s": (import_s, "s"),
        "run.self_s": (root.self_s, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead": (wall / untraced_wall, "ratio"),
        "trace.accounted": ((root.total_s + import_s) / wall, "ratio"),
    })
    return out


# ---------------------------------------------------------------------------
# provenance and output


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pgakit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, trace: bool, smoke: bool) -> dict:
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "pgakit_commit": git_commit(ROOT),
            "pgakit_source_sha256": source_digest(),
            "seed": seed, "trace": trace, "smoke": smoke}


def run_workload(workload, seed, seconds, trace, sizes) -> Result:
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        if workload == "geometry":
            return run_geometry(seed, seconds, trace, sizes, tmp)
        return run_sim(workload, seed, seconds, trace, sizes, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def print_report(res: Result, trace: bool):
    for name, value, unit, note in res.report:
        print(f"{res.workload:<10} {name:<16} {value:>14.6g} {unit:<5} ({note})")
    rate = res.failed / res.attempted if res.attempted else float("nan")
    print(f"{res.workload:<10} {'error_rate':<16} {rate:>14.6g} {'':<5} "
          f"({res.failed} failed / {res.attempted} checks)")
    for failure in res.failures:
        print(f"{res.workload:<10} failed: {failure}")
    if trace:
        for name, (value, unit) in res.metrics.items():
            print(f"{res.workload:<10} {name:<36} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one run each: checks the plumbing")
    args = parser.parse_args(argv)
    if not (SRC / "pgakit" / "__init__.py").is_file():
        print(f"error: no pgakit sources under {SRC}", file=sys.stderr)
        return 2
    sizes = SMOKE if args.smoke else Sizes()
    trace = bool(args.trace)

    def stop(signum, frame):
        # unwinds through launch(), which kills and reaps the running child
        raise BenchError(f"stopped by signal {signum} (time limit {TIME_LIMIT_S} s)")

    signal.signal(signal.SIGALRM, stop)
    signal.signal(signal.SIGTERM, stop)
    print("provenance " + json.dumps(provenance(args.seed, trace, args.smoke)))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            signal.alarm(TIME_LIMIT_S)
            res = run_workload(workload, args.seed, args.seconds, trace, sizes)
            signal.alarm(0)
            print_report(res, trace)
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res.workload + "/"
        metrics.update({prefix + name: {"value": value, "unit": unit}
                        for name, (value, unit) in res.metrics.items()})
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh-interpreter run of a workload, started by ``run.py``.

    child.py geometry --pool POOL.json --out RESULT.json [--trace-out SPANS]
    child.py simulate --trace-out SPANS -- SCENE.json --out TRAJ.csv --stride K

``geometry`` times ``import pgakit`` plus the construction of the four
algebras, then runs every query of the pool one by one through the
public API, timing each from the caller, and checks each result with
tracing paused.  ``simulate`` is the traced form of ``pgakit simulate``:
it calls the same ``pgakit.cli.main`` with spans installed.  The
untraced simulate runs start ``python -m pgakit`` directly.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time

import tracing

# the output checks use the tolerances of the repository's test suite:
# 1e-9 for incidences, round trips and distances, 1e-8 where it compares
# derived lengths (criterion 7's centre ratio, the dual-angle test)
TOL = 1e-9
LENGTH_TOL = 1e-8


def _max_abs(x) -> float:
    return float(abs(x.coeffs).max())


def _vanishes(x, *factors) -> bool:
    """``x`` is zero relative to the scale of the elements it came from."""
    scale = math.prod(_max_abs(f) for f in factors)
    return _max_abs(x) <= TOL * scale


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# queries: each returns what a caller would keep; only public names are used


def q_incidence(pg, pm, q):
    alg = pg.pga3d()
    p, r, s = (pg.point(alg, *c) for c in q["points"])
    planes = [pg.plane(alg, *c) for c in q["planes"]]
    line = pg.join(p, r)
    through = pg.join(line, s)
    axis = planes[0] ^ planes[1]
    corner = axis ^ planes[2]
    return dict(p=p, r=r, s=s, planes=planes, line=line, through=through,
                axis=axis, corner=corner, d=pg.distance(p, r))


def c_incidence(pg, pm, q, res):
    p, r, s, planes = res["p"], res["r"], res["s"], res["planes"]
    line, through, axis, corner = (res[k] for k in ("line", "through", "axis",
                                                    "corner"))
    a, b = q["points"][0], q["points"][1]
    return [
        all(_vanishes(pg.join(line, x), line, x) for x in (p, r)),
        all(_vanishes(pg.join(through, x), through, x) for x in (p, r, s)),
        all(_vanishes(axis ^ pl, axis, pl) for pl in planes[:2]),
        all(_vanishes(corner ^ pl, corner, pl) for pl in planes),
        _close(res["d"], math.dist(a, b), TOL),
    ]


def q_motion(pg, pm, q):
    alg = pg.pga3d()
    axis = pg.normalize(pg.line3d_point_dir(alg, q["at"], q["dir"]))
    screw = q["t"] * axis + q["u"] * (axis * alg.blade("I"))
    g = pg.exp_bivector(screw)
    moved = [pg.point_coords(pg.sandwich(g, pg.point(alg, *c)))
             for c in q["points"]]
    back = pg.exp_bivector(pg.screw_log(g).bivector())
    return dict(g=g, moved=moved, back=back)


def c_motion(pg, pm, q, res):
    g, back = res["g"], res["back"]
    roundtrip = min(_max_abs(back - g), _max_abs(back + g))
    kept = all(_close(math.dist(res["moved"][i], res["moved"][j]),
                      math.dist(q["points"][i], q["points"][j]), TOL)
               for i, j in itertools.combinations(range(len(q["points"])), 2))
    return [roundtrip <= TOL, kept]


def q_lines(pg, pm, q):
    alg = pg.pga3d()
    l1 = pg.normalize(pg.line3d_through(alg, *q["line1"]))
    l2 = pg.normalize(pg.line3d_through(alg, *q["line2"]))
    normal = pg.common_normal(l1, l2)
    angle = pm.dual_angle(l1, l2)
    screw = q["t"] * l1 + q["u"] * (l1 * alg.blade("I"))
    return dict(l1=l1, l2=l2, normal=normal, angle=angle,
                pitch=pg.bivector_pitch(screw))


def c_lines(pg, pm, q, res):
    (p1, q1), (p2, q2) = q["line1"], q["line2"]
    d1, d2 = _unit(_sub(q1, p1)), _unit(_sub(q2, p2))
    cross = _cross(d1, d2)
    sin_a = math.hypot(*cross)
    dist = abs(_dot(_sub(p2, p1), cross)) / sin_a
    z, pitch = res["angle"], res["pitch"]
    return [
        all(abs(pm.pluecker(res["normal"], ln)) <= TOL
            for ln in (res["l1"], res["l2"])),
        abs(abs(z.re) - abs(_dot(d1, d2))) <= TOL,
        abs(abs(z.du) - dist * sin_a) <= LENGTH_TOL * dist * sin_a + TOL,
        pitch.finite and _close(pitch.value, 2 * q["u"] / q["t"], TOL),
    ]


def q_planar(pg, pm, q):
    alg = pg.pga2d()
    pa, pb, pc = (pg.point(alg, *c) for c in q["corners"])
    a, b, c = pg.join(pb, pc), pg.join(pc, pa), pg.join(pa, pb)
    medians = (pg.join(pb + pc, pa), pg.join(pc + pa, pb), pg.join(pa + pb, pc))
    bisectors = ((pb + pc) | a, (pc + pa) | b, (pa + pb) | c)
    altitudes = (pa | a, pb | b, pc | c)
    centroid = pg.normalize(medians[0] ^ medians[1])
    circum = pg.normalize(bisectors[0] ^ bisectors[1])
    ortho = pg.normalize(altitudes[0] ^ altitudes[1])
    return dict(families=(medians, bisectors, altitudes), centroid=centroid,
                circum=circum, ortho=ortho,
                d_mt=pg.distance(centroid, ortho),
                d_mp=pg.distance(centroid, circum),
                d_pt=pg.distance(circum, ortho))


def c_planar(pg, pm, q, res):
    def copunctual(l1, l2, l3):
        scale = math.sqrt(l1.norm2() * l2.norm2() * l3.norm2())
        return abs(pg.pseudo_part((l1 ^ l2) ^ l3)) / scale

    euler = pg.join(res["centroid"], res["circum"])
    ortho = res["ortho"]
    d_mt, d_mp, d_pt = res["d_mt"], res["d_mp"], res["d_pt"]
    return [
        all(copunctual(*lines) < TOL for lines in res["families"]),
        abs(pg.pseudo_part(euler ^ ortho))
        / math.sqrt(euler.norm2() * ortho.norm2()) < TOL,
        abs(d_mt - 2 * d_mp) / max(1.0, d_mt) < LENGTH_TOL
        and abs(d_pt - 3 * d_mp) / max(1.0, d_pt) < LENGTH_TOL,
    ]


def q_noneuclid(pg, pm, q):
    ell, hyp = pg.algebra(4, 0, 0), pg.algebra(3, 1, 0)
    x, y = (pm.point_nd(ell, *c) for c in q["elliptic"])
    u, v = (pm.point_nd(hyp, *c) for c in q["hyperbolic"])
    return dict(elliptic=pg.noneuclidean_distance(x, y),
                hyperbolic=pg.noneuclidean_distance(u, v))


def c_noneuclid(pg, pm, q, res):
    x, y = q["elliptic"]
    cos_e = _dot(x, y) / math.sqrt(_dot(x, x) * _dot(y, y))
    u, v = q["hyperbolic"]

    def minkowski(a, b):
        return -a[0] * b[0] + _dot(a[1:], b[1:])

    cosh_h = -minkowski(u, v) / math.sqrt(minkowski(u, u) * minkowski(v, v))
    return [_close(res["elliptic"], math.acos(cos_e), TOL),
            _close(res["hyperbolic"], math.acosh(cosh_h), TOL)]


KINDS = {"incidence": (q_incidence, c_incidence),
         "motion": (q_motion, c_motion),
         "lines": (q_lines, c_lines),
         "planar": (q_planar, c_planar),
         "noneuclid": (q_noneuclid, c_noneuclid)}


def _sub(a, b):
    return [x - y for x, y in zip(a, b)]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _unit(a):
    n = math.sqrt(_dot(a, a))
    return [x / n for x in a]


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


# ---------------------------------------------------------------------------
# entry points


def run_geometry(args) -> int:
    with open(args.pool) as fh:
        pool = json.load(fh)
    tracer = tracing.Tracer() if args.trace_out else None

    t0 = time.perf_counter()
    import pgakit as pg
    import pgakit.metric as pm
    import_s = time.perf_counter() - t0
    if tracer is not None:
        tracing.install(tracer)

    def run():
        t_build = time.perf_counter()
        for sig in ((2, 0, 1), (3, 0, 1), (4, 0, 0), (3, 1, 0)):
            pg.algebra(*sig)
        setup_s = import_s + time.perf_counter() - t_build
        times, attempted, failed, failures = [], 0, 0, []
        clock = time.perf_counter_ns
        for q in pool:
            query, check = KINDS[q["kind"]]
            error = None
            start = clock()
            try:
                res = query(pg, pm, q)
            except Exception as exc:   # a failed query is a failed check
                error = f"{type(exc).__name__}: {exc}"
            times.append(clock() - start)
            if error is None:
                if tracer is not None:
                    tracer.enabled = False
                oks = check(pg, pm, q, res)
                if tracer is not None:
                    tracer.enabled = True
            else:
                oks = [False]
            attempted += len(oks)
            bad = [i for i, ok in enumerate(oks) if not ok]
            failed += len(bad)
            if bad and len(failures) < 5:
                failures.append({"kind": q["kind"], "checks": bad,
                                 "error": error})
        return dict(setup_s=setup_s, import_s=import_s, query_ns=times,
                    attempted=attempted, failed=failed, failures=failures)

    if tracer is None:
        result = run()
    else:
        result = tracer.span(tracing.ROOT, run)()
        tracer.restore()
        tracer.dump(args.trace_out, import_s=import_s, exit=0)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def run_simulate(args) -> int:
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    import pgakit.cli as cli
    import_s = time.perf_counter() - t0
    tracing.install(tracer)
    try:
        rc = tracer.span(tracing.ROOT, lambda: cli.main(["simulate", *args.rest]))()
    finally:
        tracer.restore()
    tracer.dump(args.trace_out, import_s=import_s, exit=rc)
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    g = sub.add_parser("geometry")
    g.add_argument("--pool", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--trace-out")
    s = sub.add_parser("simulate")
    s.add_argument("--trace-out", required=True)
    s.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "geometry":
        return run_geometry(args)
    if args.rest[:1] == ["--"]:
        args.rest = args.rest[1:]
    return run_simulate(args)


if __name__ == "__main__":
    sys.exit(main())

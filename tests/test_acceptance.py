"""Acceptance gate: every shipped capability at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them all); a FAIL also fails the test.
"""

import math
import time

import numpy as np

from pgakit import (BODY, ForceSchedule, MotionState, Particle, VelocityState,
                    body_energy, distance, euler_step, exp_bivector,
                    force_line, frame_convert, inertia_assemble, join,
                    line3d_point_dir, momentum_of_body, normalize, pga2d, pga3d, point, point_coords, power,
                    resultant, rotator, rotor_log, sandwich,
                    screw_decompose, screw_log, space_momentum, work)
from pgakit.dynamics import force_state
from pgakit.metric import pseudo_part

from conftest import PLANAR_TABLE
from test_metric import identity_residuals
from test_versors import rand_rotor


def report(num, name, ok, detail=""):
    line = f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_cayley_table():
    t0 = time.perf_counter()
    alg = pga2d()
    mismatches = 0
    for row in alg.blade_names:
        for col, want in zip(alg.blade_names, PLANAR_TABLE[row]):
            got = repr(alg.blade(row) * alg.blade(col)).replace(" ", "")
            mismatches += got != want
    elapsed = time.perf_counter() - t0
    report(1, "planar Cayley table, all 64 cells",
           mismatches == 0 and elapsed < 1.0,
           f"{mismatches} mismatches, {elapsed:.3f}s")


def test_criterion_02_reflection_worked_example():
    alg = pga2d()
    a = alg.multivector({"e0": 1.0, "e1": -1.0})      # the line x = 1
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        x, y = rng.uniform(-5, 5, size=2)
        got = point_coords(sandwich(a, point(alg, x, y)))
        worst = max(worst, abs(got[0] - (2 - x)), abs(got[1] - y))
    report(2, "reflection in x=1 sends (x,y) to (2-x,y)",
           worst <= 1e-14, f"max error {worst:.2e}")


def test_criterion_03_translator_example():
    alg = pga2d()
    a = alg.multivector({"e0": 1.0, "e1": -1.0})      # x = 1
    b = alg.multivector({"e0": 2.0, "e1": -1.0})      # x = 2
    t = b * a
    exact = t == alg.multivector({"1": 1.0, "E2": -1.0})
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        x, y = rng.uniform(-5, 5, size=2)
        got = point_coords(sandwich(t, point(alg, x, y)))
        worst = max(worst, abs(got[0] - (x + 2)), abs(got[1] - y))
    report(3, "product of reflections x=1, x=2 is the exact translator 1 - E2",
           exact and worst <= 1e-14, f"exact={exact}, max error {worst:.2e}")


def test_criterion_04_rotor_exercise_value():
    alg = pga3d()
    axis = normalize(line3d_point_dir(alg, (0, 0, 0), (1, 1, 1)))
    g = rotator(axis, 2 * math.pi / 3)                # half-angle pi/3
    want = alg.multivector({"1": 0.5, "e12": 0.5, "e31": 0.5, "e23": 0.5})
    value_err = float(np.abs((g - want).coeffs).max())
    # the sandwich turns (1,0,0) by 2*pi/3 about the (1,1,1) axis
    n = np.ones(3) / math.sqrt(3.0)
    p = np.array([1.0, 0.0, 0.0])
    img = np.array(point_coords(sandwich(g, point(alg, *p))))
    w0 = p - (p @ n) * n
    w1 = img - (img @ n) * n
    cosang = (w0 @ w1) / (np.linalg.norm(w0) * np.linalg.norm(w1))
    angle_err = abs(math.acos(max(-1.0, min(1.0, cosang))) - 2 * math.pi / 3)
    radius_err = abs(np.linalg.norm(w1) - np.linalg.norm(w0))
    ok = value_err <= 1e-12 and angle_err <= 1e-10 and radius_err <= 1e-12
    report(4, "rotor about the (1,1,1) line equals .5(1+e12+e31+e23)",
           ok, f"coeff err {value_err:.2e}, angle err {angle_err:.2e}")


def test_criterion_05_exp_log_roundtrip():
    alg = pga3d()
    rng = np.random.default_rng(5)
    kinds = ["rotator", "translator", "screw"]
    worst_rt, worst_rec, worst_axis = 0.0, 0.0, 0.0
    for i in range(1000):
        g = rand_rotor(alg, rng, kinds[i % 3])
        if rng.random() < 0.5:
            g = -g
        e = exp_bivector(rotor_log(g))
        worst_rt = max(worst_rt, min(float(np.abs((e - g).coeffs).max()),
                                     float(np.abs((e + g).coeffs).max())))
        rot, tra = screw_decompose(g)
        rec = rot * tra
        worst_rec = max(worst_rec, min(float(np.abs((rec - g).coeffs).max()),
                                       float(np.abs((rec + g).coeffs).max())))
        axis = screw_log(g).axis
        worst_axis = max(worst_axis,
                         float(np.abs((sandwich(g, axis) - axis).coeffs).max()))
    ok = worst_rt < 1e-9 and worst_rec < 1e-12 and worst_axis < 1e-10
    report(5, "exp/log roundtrip over 1000 rotors of all three classes", ok,
           f"roundtrip {worst_rt:.2e}, recompose {worst_rec:.2e}, "
           f"axis {worst_axis:.2e}")


def test_criterion_06_bivector_identity_suite():
    alg = pga3d()
    rng = np.random.default_rng(6)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        worst = max(worst, max(identity_residuals(alg, rng)))
    elapsed = time.perf_counter() - t0
    report(6, "bivector identity suite on 1000 random inputs",
           worst < 1e-10 and elapsed < 5.0,
           f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_07_triangle_centers():
    alg = pga2d()
    rng = np.random.default_rng(7)
    worst_meet, worst_euler, worst_ratio = 0.0, 0.0, 0.0
    done = 0
    while done < 100:
        corners = rng.uniform(-3, 3, size=(3, 2))
        u, v = corners[1] - corners[0], corners[2] - corners[0]
        area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
        if area < 0.2:
            continue
        done += 1
        pa, pb, pc = (point(alg, *c) for c in corners)
        a, b, c = join(pb, pc), join(pc, pa), join(pa, pb)

        def copunctual(l1, l2, l3):
            scale = math.sqrt(l1.norm2() * l2.norm2() * l3.norm2())
            return abs(pseudo_part((l1 ^ l2) ^ l3)) / scale

        medians = (join(pb + pc, pa), join(pc + pa, pb), join(pa + pb, pc))
        bisectors = ((pb + pc) | a, (pc + pa) | b, (pa + pb) | c)
        altitudes = (pa | a, pb | b, pc | c)
        for lines in (medians, bisectors, altitudes):
            worst_meet = max(worst_meet, copunctual(*lines))
        centroid = normalize(medians[0] ^ medians[1])
        circum = normalize(bisectors[0] ^ bisectors[1])
        ortho = normalize(altitudes[0] ^ altitudes[1])
        euler = join(centroid, circum)
        scale = math.sqrt(euler.norm2() * ortho.norm2())
        worst_euler = max(worst_euler, abs(pseudo_part(euler ^ ortho)) / scale)
        d_mt = distance(centroid, ortho)
        d_mp = distance(centroid, circum)
        d_pt = distance(circum, ortho)
        worst_ratio = max(worst_ratio, abs(d_mt - 2 * d_mp) / max(1.0, d_mt))
        # M divides the segment PT: |PT| = |MP| + |MT|, not a difference
        worst_ratio = max(worst_ratio,
                          abs(d_pt - 3 * d_mp) / max(1.0, d_pt))
    ok = worst_meet < 1e-9 and worst_euler < 1e-9 and worst_ratio < 1e-8
    report(7, "triangle centers: concurrence, Euler line, |MT| = 2|MP|", ok,
           f"meet {worst_meet:.2e}, euler {worst_euler:.2e}, ratio {worst_ratio:.2e}")


def test_criterion_08_force_free_conservation():
    alg = pga3d()
    body = [Particle.at(alg, m, x) for m, x in [
        (1.0, (0.1, 0.2, 0.3)), (1.5, (1.0, -0.5, 0.2)),
        (0.7, (-0.4, 0.8, -0.6)), (2.0, (0.3, 0.4, 1.1))]]
    inertia = inertia_assemble(body)
    om = VelocityState(np.array([0.2, -0.4, 0.3, 0.8, -0.5, 0.6]), BODY)
    state = MotionState(alg.scalar(1.0), inertia.apply(om))
    e0 = body_energy(inertia, state)
    ps0 = space_momentum(state).coeffs.copy()
    ps_scale = float(np.abs(ps0).max())
    pts = [p.r for p in body]
    d0 = np.array([distance(pts[i], pts[j])
                   for i in range(4) for j in range(i)])
    t0 = time.perf_counter()
    drift_e = drift_p = drift_d = 0.0
    for k in range(10_000):
        state = euler_step(state, inertia, 1e-3)
        if (k + 1) % 1000 == 0:
            drift_e = max(drift_e,
                          abs(body_energy(inertia, state) - e0) / abs(e0))
            drift_p = max(drift_p, float(np.abs(
                space_momentum(state).coeffs - ps0).max()) / ps_scale)
            moved = [normalize(sandwich(state.g, p)) for p in pts]
            d1 = np.array([distance(moved[i], moved[j])
                           for i in range(4) for j in range(i)])
            drift_d = max(drift_d, float(np.abs(d1 / d0 - 1.0).max()))
    elapsed = time.perf_counter() - t0
    ok = drift_e < 1e-6 and drift_p < 1e-6 and drift_d < 1e-8 and elapsed < 10.0
    report(8, "force-free conservation over 10^4 RK4 steps", ok,
           f"energy {drift_e:.2e}, momentum {drift_p:.2e}, "
           f"distances {drift_d:.2e}, {elapsed:.1f}s")


def test_criterion_09_inertia_theorem_crosscheck():
    alg = pga3d()
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        n = rng.integers(3, 7)
        while True:
            body = [Particle.at(alg, rng.uniform(0.2, 3.0), rng.normal(size=3))
                    for _ in range(n)]
            spread = np.array([point_coords(p.r) for p in body])
            if np.linalg.matrix_rank(spread - spread.mean(0), tol=1e-6) >= 2:
                break
        inertia = inertia_assemble(body)
        om = VelocityState(rng.normal(size=6), BODY)
        via_matrix = inertia.apply(om).coeffs
        via_particles = momentum_of_body(body, om).coeffs
        scale = max(1.0, float(np.abs(via_matrix).max()))
        worst = max(worst, float(np.abs(via_matrix - via_particles).max()) / scale)
    report(9, "inertia: assembled matrix equals the per-particle spear sum",
           worst < 1e-10, f"max relative gap {worst:.2e}")


def test_criterion_10_statics_equivalence():
    alg = pga2d()
    rng = np.random.default_rng(10)
    worst_balanced, worst_decomp = 0.0, 0.0
    ok_detect = True
    for _ in range(100):
        forces = [(rng.uniform(-3, 3, size=2), rng.uniform(-2, 2, size=2))
                  for _ in range(rng.integers(2, 6))]
        # close the system: one more force cancelling vector and moment
        v_sum = sum((v for _, v in forces), np.zeros(2))
        m_sum = sum(p[0] * v[1] - p[1] * v[0] for p, v in forces)
        v_close = -v_sum
        if np.linalg.norm(v_close) < 1e-3:
            continue
        m_close = -m_sum
        p_close = np.array([m_close * v_close[1], -m_close * v_close[0]])
        p_close = p_close / (v_close @ v_close)
        hs = [force_line(alg, p, v) for p, v in forces]
        hs.append(force_line(alg, p_close, v_close))
        total = resultant(hs)
        scale = max(np.abs(h.coeffs).max() for h in hs)
        worst_balanced = max(worst_balanced,
                             float(np.abs(total.coeffs).max()) / scale)
        # reverse direction: a nonzero homogeneous sum means the classical
        # sums cannot both vanish
        open_sum = resultant(hs[:-1])
        v_back = np.array([open_sum["e2"], -open_sum["e1"]])
        m_back = open_sum["e0"]
        worst_decomp = max(worst_decomp,
                           float(np.abs(v_back - v_sum).max()) / max(1, scale),
                           abs(m_back - m_sum) / max(1, scale))
        if np.abs(open_sum.coeffs).max() > 1e-9:
            ok_detect &= (np.linalg.norm(v_sum) > 1e-12 or abs(m_sum) > 1e-12)
    # couples leave a pure ideal-line resultant
    couple = resultant([force_line(alg, (0.0, 0.0), (0.0, 2.0)),
                        force_line(alg, (1.5, 0.0), (0.0, -2.0))])
    couple_ok = (couple["e1"] == 0.0 and couple["e2"] == 0.0
                 and couple["e0"] != 0.0)
    ok = worst_balanced < 1e-12 and worst_decomp < 1e-12 and ok_detect and couple_ok
    report(10, "planar statics: equilibrium iff the homogeneous forms cancel",
           ok, f"balanced {worst_balanced:.2e}, decomposition {worst_decomp:.2e}")


def test_criterion_11_work_theorem():
    alg = pga3d()
    body = [Particle.at(alg, m, x) for m, x in [
        (1.0, (0.1, 0.2, 0.3)), (1.5, (1.0, -0.5, 0.2)),
        (0.7, (-0.4, 0.8, -0.6)), (2.0, (0.3, 0.4, 1.1))]]
    inertia = inertia_assemble(body)
    f_space = force_state(alg, (0.2, -0.1, 0.4), (0.3, 0.1, -1.5))
    constant = ForceSchedule([f_space.coeffs], [-math.inf], [math.inf])

    def gap(dt, steps):
        state = MotionState(alg.scalar(1.0), inertia.apply(
            VelocityState(np.array([0.1, 0.2, -0.1, 0.4, -0.3, 0.5]), BODY)))
        # the pairing -<Omega ^ Delta> is the rate of the half-normalized
        # energy form(Omega, Omega)/2 along the motion
        e_start = 0.5 * body_energy(inertia, state)
        times, rates = [0.0], []
        rates.append(power(inertia.inverse_apply(state.pi_body),
                           frame_convert(f_space, state.g, BODY)))
        for _ in range(steps):
            state = euler_step(state, inertia, dt, force=constant)
            times.append(state.t)
            rates.append(power(inertia.inverse_apply(state.pi_body),
                               frame_convert(f_space, state.g, BODY)))
        delta_e = 0.5 * body_energy(inertia, state) - e_start
        return abs(delta_e - work(times, rates))

    err_coarse = gap(2e-3, 500)
    err_fine = gap(1e-3, 1000)
    shrink = err_coarse / err_fine if err_fine > 0 else float("inf")
    # the skater: gravity along the z-axis, gliding along x
    skate = power(-2.0 * alg.blade("e01"), 9.81 * alg.blade("e12"))
    ok = shrink >= 3.5 and skate == 0.0
    report(11, "work equals the energy change, at second order in dt", ok,
           f"error {err_coarse:.2e} -> {err_fine:.2e} (x{shrink:.1f}), "
           f"skater power {skate}")


def test_criterion_12_euclidean_distance_as_limit():
    x = np.array([0.3, -0.2, 0.5])
    y = np.array([1.1, 0.7, -0.4])
    d_true = float(np.linalg.norm(x - y))

    def scaled_distance(eps):
        hx = np.concatenate([[1.0], x])
        hy = np.concatenate([[1.0], y])

        def inner(u, v):
            return eps * u[0] * v[0] + u[1:] @ v[1:]

        c = inner(hx, hy) / math.sqrt(inner(hx, hx) * inner(hy, hy))
        return math.sqrt(eps) * math.acos(max(-1.0, min(1.0, c)))

    errors = [abs(scaled_distance(e) - d_true) / d_true
              for e in (1e2, 1e4, 1e6)]
    ok = errors[0] > errors[1] > errors[2] and errors[2] < 1e-4
    report(12, "scaled Cayley-Klein distance converges to the euclidean one",
           ok, "rel errors " + ", ".join(f"{e:.2e}" for e in errors))

"""Sandwich isometries, rotor classes, exponential and logarithm."""

import math
import re

import numpy as np
import pytest

from pgakit import (DegenerateElementError, NumericError, algebra, distance,
                    exp_bivector, exp_screw, is_rotor, line3d_point_dir,
                    normalize, normalize_rotor, point, point_coords, rotator,
                    pga2d, rotor_log, sandwich, sandwich_matrix,
                    screw_decompose, screw_log, translator)
from pgakit.metric import biv_mv, even_mv, line2d_through
from pgakit.versors import rotor_constraint

from conftest import assert_rel_close, newton_normalize, random_mv


def reflect2d(line_abc, p):
    """Coordinate oracle: reflect a 2D point in the line ax + by + c = 0."""
    a, b, c = line_abc
    n = math.hypot(a, b)
    a, b, c = a / n, b / n, c / n
    d = a * p[0] + b * p[1] + c
    return (p[0] - 2 * d * a, p[1] - 2 * d * b)


def rand_rotor(alg, rng, kind):
    if kind == "rotator":
        axis = normalize(line3d_point_dir(
            alg, rng.normal(size=3), rng.normal(size=3) + 0.2))
        return exp_screw(axis, rng.uniform(0.05, 1.45), 0.0)
    if kind == "translator":
        return translator(alg, rng.normal(size=3) * 2.0)
    axis = normalize(line3d_point_dir(
        alg, rng.normal(size=3), rng.normal(size=3) + 0.2))
    return exp_screw(axis, rng.uniform(0.05, 1.45), rng.uniform(-1.2, 1.2))


# ---------------------------------------------------------------------------
# reflections and the planar worked examples


def test_planar_reflection_in_x_equals_1(plane_alg, rng):
    a = plane_alg.multivector({"e0": 1.0, "e1": -1.0})   # the line x = 1
    for _ in range(20):
        x, y = rng.normal(size=2)
        p = point(plane_alg, x, y)
        img = sandwich(a, p)
        assert point_coords(img) == pytest.approx((2.0 - x, y), abs=1e-14)
    # the raw image carries the orientation flip; weight is -1, not 1
    img = sandwich(a, point(plane_alg, 0.5, 0.25))
    assert img["E0"] == -1.0


def test_planar_reflection_matches_oracle(plane_alg, rng):
    for _ in range(20):
        abc = rng.normal(size=3)
        if math.hypot(abc[0], abc[1]) < 0.2:
            continue
        line = normalize(plane_alg.multivector(
            {"e0": abc[2], "e1": abc[0], "e2": abc[1]}))
        p = rng.normal(size=2)
        img = point_coords(sandwich(line, point(plane_alg, *p)))
        assert img == pytest.approx(reflect2d(abc, p), abs=1e-12)


def test_two_reflections_compose_to_translator(plane_alg):
    a = plane_alg.multivector({"e0": 1.0, "e1": -1.0})    # x = 1
    b = plane_alg.multivector({"e0": 2.0, "e1": -1.0})    # x = 2
    t = b * a
    assert t == plane_alg.multivector({"1": 1.0, "E2": -1.0})
    p = point(plane_alg, -0.75, 2.5)
    assert point_coords(sandwich(t, p)) == pytest.approx((1.25, 2.5), abs=1e-14)


def test_two_reflections_compose_to_rotation(plane_alg, rng):
    # lines through a common point: the composition rotates about it by
    # twice the angle between the lines
    for _ in range(10):
        c = rng.normal(size=2)
        th1, th2 = rng.uniform(0, math.pi, size=2)
        l1 = line2d_through(plane_alg, c, c + np.array([math.cos(th1), math.sin(th1)]))
        l2 = line2d_through(plane_alg, c, c + np.array([math.cos(th2), math.sin(th2)]))
        g = normalize(l2) * normalize(l1)
        lg = rotor_log(g)
        # fixed point of the isometry is the common point
        img = sandwich(g, point(plane_alg, *c))
        assert point_coords(img) == pytest.approx(tuple(c), abs=1e-10)
        half = abs(lg["E0"])
        expect = abs(th2 - th1) % math.pi
        expect = min(expect, math.pi - expect)
        assert half == pytest.approx(expect, abs=1e-10)


def test_parallel_reflections_translate_twice_distance(plane_alg, rng):
    for _ in range(10):
        th = rng.uniform(0, math.pi)
        n = np.array([math.cos(th), math.sin(th)])
        c1, c2 = rng.normal(size=2)
        l1 = plane_alg.multivector({"e0": -c1, "e1": n[0], "e2": n[1]})
        l2 = plane_alg.multivector({"e0": -c2, "e1": n[0], "e2": n[1]})
        g = l2 * l1
        p = rng.normal(size=2)
        img = np.array(point_coords(sandwich(g, point(plane_alg, *p))))
        assert np.linalg.norm(img - p) == pytest.approx(2 * abs(c2 - c1), abs=1e-10)
        step = img - p
        assert step[0] * n[1] - step[1] * n[0] == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# translators and rotators


def test_translator_examples(plane_alg, space_alg, rng):
    assert translator(plane_alg, (2.0, 0.0)) == plane_alg.multivector(
        {"1": 1.0, "E2": -1.0})
    assert translator(plane_alg, (0.0, 0.0)) == plane_alg.scalar(1.0)
    assert translator(space_alg, (0.0, 0.0, 0.0)) == space_alg.scalar(1.0)
    with pytest.raises(ValueError, match="expected 3 coordinates, got 2"):
        translator(space_alg, (1.0, 2.0))
    t3 = translator(space_alg, (2.0, 4.0, 6.0))
    assert t3 == space_alg.multivector(
        {"1": 1.0, "e01": -1.0, "e02": -2.0, "e03": -3.0})
    for _ in range(10):
        v = rng.normal(size=3)
        t = translator(space_alg, v)
        p = rng.normal(size=3)
        img = point_coords(sandwich(t, point(space_alg, *p)))
        assert img == pytest.approx(tuple(p + v), abs=1e-12)
        # ideal points are fixed
        from pgakit import ideal_point
        w = ideal_point(space_alg, *rng.normal(size=3))
        assert sandwich(t, w).isclose(w, rel=1e-12)


def test_rotator_identity_and_point_reflection(plane_alg):
    origin = point(plane_alg, 0.0, 0.0)
    assert rotator(origin, 0.0) == plane_alg.scalar(1.0)
    g = rotator(origin, math.pi)
    assert g.isclose(plane_alg.blade("E0"), rel=1e-15)
    p = point(plane_alg, 1.25, -0.5)
    assert point_coords(sandwich(g, p)) == pytest.approx((-1.25, 0.5), abs=1e-14)


def test_rotator_exercise_value(space_alg):
    axis = normalize(line3d_point_dir(space_alg, (0, 0, 0), (1, 1, 1)))
    g = rotator(axis, 2 * math.pi / 3)
    want = space_alg.multivector(
        {"1": 0.5, "e12": 0.5, "e31": 0.5, "e23": 0.5})
    assert g.isclose(want, rel=1e-12)


def test_rotator_rejects_bad_axes(space_alg):
    screw = space_alg.blades["e03"] + space_alg.blades["e12"]
    with pytest.raises(ValueError):
        rotator(screw, 0.5)
    with pytest.raises(DegenerateElementError):
        rotator(space_alg.blades["e01"], 0.5)
    mixed = space_alg.blades["e12"] + space_alg.blades["E0"]
    with pytest.raises(ValueError, match="point or a 3D line"):
        rotator(mixed, 0.5)


def test_rotator_fixes_axis_and_rotates(space_alg, rng):
    axis = normalize(line3d_point_dir(space_alg, (0.5, -0.2, 1.0), (0.1, 2.0, -0.5)))
    g = rotator(axis, 1.1)
    assert sandwich(g, axis).isclose(axis, rel=1e-12)
    # distance from the axis is preserved for any point
    from pgakit.metric import project_point_to_line
    p = point(space_alg, *rng.normal(size=3))
    img = sandwich(g, p)
    f1 = normalize(project_point_to_line(p, axis))
    f2 = normalize(project_point_to_line(normalize(img), axis))
    assert distance(p, f1) == pytest.approx(distance(normalize(img), f2), rel=1e-10)


# ---------------------------------------------------------------------------
# exponential


def test_exp_zero_and_planar_cases(plane_alg, space_alg):
    assert exp_bivector(plane_alg.zero()) == plane_alg.scalar(1.0)
    assert exp_bivector(space_alg.zero()) == space_alg.scalar(1.0)
    t = 0.8
    g = exp_bivector(t * plane_alg.blade("E0"))
    want = plane_alg.scalar(math.cos(t)) + math.sin(t) * plane_alg.blade("E0")
    assert g.isclose(want, rel=1e-15)
    m = plane_alg.multivector({"E1": 0.3, "E2": -1.1})
    assert exp_bivector(m) == plane_alg.scalar(1.0) + m


def test_exp_of_ideal_is_translator(space_alg):
    m = space_alg.multivector({"e01": 0.4, "e02": -0.2, "e03": 1.0})
    assert exp_bivector(m) == space_alg.scalar(1.0) + m


def test_exp_matches_power_series(space_alg, rng):
    def series(b, terms=60):
        total, term = space_alg.scalar(1.0), space_alg.scalar(1.0)
        for k in range(1, terms):
            term = term * b / k
            total = total + term
        return total

    cases = [random_mv(space_alg, rng, grade=2) for _ in range(20)]
    for _ in range(10):
        # nearly ideal: the euclidean part is 1e-6 of the whole
        c = rng.normal(size=6)
        c[3:] *= 1e-6 * np.linalg.norm(c[:3]) / np.linalg.norm(c[3:])
        cases.append(biv_mv(space_alg, c))
    for _ in range(10):
        # rotation half-angle t = |e| past pi/2
        c = rng.normal(size=6)
        c[3:] *= rng.uniform(1.6, 3.1) / np.linalg.norm(c[3:])
        cases.append(biv_mv(space_alg, c))
    for b in cases:
        assert exp_bivector(b).isclose(series(b), rel=1e-12)


def test_exp_screw_matches_exp_bivector(space_alg, rng):
    # exp((t + uI) A) for a unit axis A, against the general exponential
    for _ in range(40):
        axis = normalize(line3d_point_dir(
            space_alg, rng.normal(size=3), rng.normal(size=3) + 0.2))
        t, u = rng.uniform(-3.0, 3.0, size=2)
        want = exp_bivector(t * axis + u * (axis * space_alg.blade("I")))
        assert_rel_close(exp_screw(axis, t, u).coeffs, want.coeffs)


def test_exp_and_log_take_only_the_pga_signatures():
    for alg in (algebra(2, 0, 0), algebra(3, 0, 0), algebra(4, 0, 0),
                algebra(3, 1, 0), algebra(5, 0, 1)):
        named = re.escape(f"Cl{alg.signature}")
        with pytest.raises(ValueError, match=named):
            exp_bivector(alg.zero())
        with pytest.raises(ValueError, match=named):
            rotor_log(alg.scalar(1.0))
        with pytest.raises(ValueError, match=named):
            screw_log(alg.scalar(1.0))
    with pytest.raises(ValueError, match=re.escape("Cl(2,0,1)")):
        screw_log(pga2d().scalar(1.0))


def test_exp_refuses_parts_of_other_grades(plane_alg, space_alg):
    # a scalar, a vector or an ideal-point part is not silently dropped,
    # leaked into the result or scaled like the bivector
    bl2, bl3 = plane_alg.blades, space_alg.blades
    for b in (0.3 * bl3["e01"] + 5.0, 0.3 * bl3["e12"] + bl3["e1"],
              0.3 * bl2["E0"] + bl2["e1"], 0.3 * bl3["e12"] + math.inf):
        with pytest.raises(ValueError, match="bivector"):
            exp_bivector(b)
    # parts below the 1e-9 dust level are dropped
    assert exp_bivector(0.3 * bl3["e01"] + 1e-12) == 1.0 + 0.3 * bl3["e01"]


@pytest.mark.parametrize("case", [
    "exp 2d nan", "exp 3d nan", "exp 2d inf", "screw_log nan", "screw_log inf",
    "rotor_log 2d nan", "rotor_log 3d nan"])
def test_exp_and_log_refuse_non_finite_coefficients(plane_alg, space_alg, case):
    # a NaN or inf coefficient used to come back as an all-NaN rotor, a
    # zero log or a misleading overflow / wrong-grade message
    nan, inf = math.nan, math.inf
    run = {
        "exp 2d nan": lambda: exp_bivector(nan * plane_alg.blade("E1")),
        "exp 3d nan": lambda: exp_bivector(biv_mv(space_alg, [nan, 0, 0, 1, 0, 0])),
        "exp 2d inf": lambda: exp_bivector(inf * plane_alg.blade("E0")),
        "screw_log nan": lambda: screw_log(space_alg.multivector({"1": nan, "e12": 0.6})),
        "screw_log inf": lambda: screw_log(space_alg.multivector({"1": 1.0, "e01": inf})),
        "rotor_log 2d nan": lambda: rotor_log(nan * plane_alg.scalar(1.0)),
        "rotor_log 3d nan": lambda: rotor_log(nan * space_alg.scalar(1.0)),
    }[case]
    # inf * E0 puts 0 * inf = NaN in the other slots
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match="not finite"):
            run()


def test_exp_rejects_overflowing_bivectors(space_alg):
    for c in ([0, 0, 0, 1e200, 0, 0], [1e300, 0, 0, 1.0, 0, 0]):
        with pytest.raises(NumericError), np.errstate(over="ignore"):
            exp_bivector(biv_mv(space_alg, c))


def test_exp_lands_on_rotor_manifold(space_alg, rng):
    for _ in range(40):
        b = random_mv(space_alg, rng, grade=2)
        g = exp_bivector(b)
        z = rotor_constraint(g)
        assert abs(z.re - 1.0) < 1e-12 and abs(z.du) < 1e-12


@pytest.mark.parametrize("sig, coeffs", [
    ((3, 0, 1), {"e01": 1e13, "e12": 1.0}), ((2, 0, 1), {"E0": 1.0, "E1": 1e13})])
def test_exp_lands_on_the_rotor_group_far_from_the_origin(sig, coeffs):
    # a 1-rad rotation about a center 1e13 from the origin is a rotation,
    # not the translator 1 + b
    assert is_rotor(exp_bivector(algebra(*sig).multivector(coeffs)))


# ---------------------------------------------------------------------------
# logarithm


def test_log_of_planar_translator(plane_alg):
    g = plane_alg.multivector({"1": 1.0, "E2": -1.0})
    assert rotor_log(g) == -plane_alg.blade("E2")


def test_log_of_spatial_rotator(space_alg):
    for t in (0.1, 0.9, 1.8, 2.8):
        g = math.cos(t) + math.sin(t) * space_alg.blade("e12")
        lg = rotor_log(g)
        assert lg.isclose(t * space_alg.blade("e12"), rel=1e-12)


def test_log_of_spatial_translator_goes_through_origin(space_alg):
    t = translator(space_alg, (3.0, 0.0, 0.0))
    lg = screw_log(t)
    assert lg.t == 0.0 and lg.u == pytest.approx(1.5)
    # axis through the origin along x
    assert lg.axis.isclose(space_alg.blade("e23"), rel=1e-12)
    assert exp_bivector(rotor_log(t)).isclose(t, rel=1e-14)


def test_log_identity_and_negation(space_alg):
    assert rotor_log(space_alg.scalar(1.0)).isclose(space_alg.zero())
    assert rotor_log(space_alg.scalar(-1.0)).isclose(space_alg.zero())
    # -g is accepted; its log generates the same isometry
    g = rand_rotor(space_alg, np.random.default_rng(5), "screw")
    e = exp_bivector(rotor_log(-g))
    assert e.isclose(-g, rel=1e-12) or e.isclose(g, rel=1e-12)


def test_log_near_identity(space_alg):
    axis = normalize(line3d_point_dir(space_alg, (1, 0, 0), (0, 0, 1)))
    for eps in (1e-8, 1e-9, 1e-11):
        g = exp_screw(axis, eps, 0.5 * eps)
        lg = screw_log(g)
        assert lg.t == pytest.approx(eps, rel=1e-6)
        assert lg.u == pytest.approx(0.5 * eps, rel=1e-5)


def test_log_near_minus_one_keeps_sign(space_alg, rng):
    # exp(log g) is g itself, not -g, down to the last euclidean digits
    for e_norm in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        for u in (0.0, 0.3 * e_norm, 0.4):
            axis = normalize(line3d_point_dir(
                space_alg, rng.normal(size=3), rng.normal(size=3)))
            g = exp_screw(axis, math.pi - math.asin(e_norm), u)
            lg = screw_log(g)
            assert 0.0 <= lg.t <= math.pi
            assert lg.exp().isclose(g, rel=1e-12)


def test_screw_log_keeps_a_rotation_next_to_a_long_translation(space_alg):
    # the rotation is measured against the euclidean part of the rotor
    # (size 1), not against the translation
    g = exp_screw(space_alg.blade("e12"), 0.5, 1e12)
    lg = screw_log(g)
    assert lg.t == pytest.approx(0.5, rel=1e-12)
    assert lg.u == pytest.approx(1e12, rel=1e-12)
    assert lg.exp().isclose(g, rel=1e-12)


def test_planar_log_keeps_a_rotation_next_to_a_long_translation(plane_alg):
    g = plane_alg.multivector({"1": math.cos(0.5), "E0": math.sin(0.5), "E1": 1e13})
    lg = rotor_log(g)
    assert lg["E0"] == pytest.approx(0.5, rel=1e-12)
    assert exp_bivector(lg).isclose(g, rel=1e-12)


def test_exp_log_roundtrip_three_classes(space_alg, rng):
    for kind in ("rotator", "translator", "screw"):
        for _ in range(30):
            g = rand_rotor(space_alg, rng, kind)
            if rng.random() < 0.5:
                g = -g
            e = exp_bivector(rotor_log(g))
            resid = min(np.abs((e - g).coeffs).max(),
                        np.abs((e + g).coeffs).max())
            assert resid < 1e-9, kind


def test_screw_log_roundtrip_of_bivector(space_alg, rng):
    # log(exp(B)) = B for screw generators with half-angle in (0, pi/2)
    for _ in range(30):
        axis = normalize(line3d_point_dir(
            space_alg, rng.normal(size=3), rng.normal(size=3) + 0.1))
        t, u = rng.uniform(0.05, 1.5), rng.uniform(-1.0, 1.0)
        b = t * axis + u * (axis * space_alg.blade("I"))
        back = rotor_log(exp_bivector(b))
        assert back.isclose(b, rel=1e-9)


def test_screw_decompose(space_alg, rng):
    g = rand_rotor(space_alg, rng, "rotator")
    rot, tra = screw_decompose(g)
    assert rot.isclose(g, rel=1e-12) and tra.isclose(space_alg.scalar(1.0))
    g = rand_rotor(space_alg, rng, "translator")
    rot, tra = screw_decompose(g)
    assert tra.isclose(g, rel=1e-12) and rot.isclose(space_alg.scalar(1.0))
    for _ in range(20):
        g = rand_rotor(space_alg, rng, "screw")
        rot, tra = screw_decompose(g)
        assert (rot * tra).isclose(g, rel=1e-12)
        assert (rot * tra - tra * rot).isclose(space_alg.zero(), rel=1e-12)
        lg = screw_log(g)
        assert sandwich(g, lg.axis).isclose(lg.axis, rel=1e-10)


# ---------------------------------------------------------------------------
# rotor manifold and group structure


def test_normalize_rotor(space_alg, rng):
    g = rand_rotor(space_alg, rng, "screw")
    assert normalize_rotor(g).isclose(g, rel=1e-12)
    assert normalize_rotor(2.0 * g).isclose(g, rel=1e-12)
    bumped = g + 1e-3 * space_alg.blade("I")
    fixed = normalize_rotor(bumped)
    z = rotor_constraint(fixed)
    assert abs(z.re - 1.0) < 1e-14 and abs(z.du) < 1e-14
    assert np.abs((fixed - g).coeffs).max() < 2e-3


def test_normalize_rotor_closed_form_matches_dual_route(space_alg, rng):
    # reference: divide by the square root of the dual number g ~g = a + bI,
    # found by Newton's iteration on Multivector products
    for kind in ("rotator", "translator", "screw"):
        for _ in range(10):
            g = rand_rotor(space_alg, rng, kind)
            g = rng.uniform(0.3, 3.0) * g + rng.normal() * 1e-2 * space_alg.blade("I")
            want = newton_normalize(g)
            assert normalize_rotor(g).isclose(want, rel=1e-14, floor=1e-15)
    # exact rotors come back bit for bit
    for g in (space_alg.scalar(1.0), translator(space_alg, (0.3, -2.0, 1.5)),
              space_alg.blade("e12"), -space_alg.blade("e23")):
        assert normalize_rotor(g) == g


def test_normalize_rotor_rejects_non_rotors(space_alg):
    for g in (space_alg.zero(), space_alg.blade("I"), space_alg.blade("e01"),
              space_alg.scalar(math.nan), space_alg.scalar(math.inf),
              even_mv(space_alg, [1.0, 0, 0, 0, 0, 0, 0, math.inf])):
        with pytest.raises(NumericError), np.errstate(invalid="ignore"):
            normalize_rotor(g)
    with pytest.raises(ValueError, match="even"):
        normalize_rotor(space_alg.blade("e1"))


@pytest.mark.parametrize("sig", [(3, 0, 1), (2, 0, 1)])
def test_sandwich_matrix_matches_sandwich(sig, rng):
    from pgakit import algebra
    alg = algebra(*sig)
    for _ in range(5):
        # scaled rotors too: the matrix is quadratic in g
        g = rng.uniform(0.5, 2.0) * exp_bivector(random_mv(alg, rng, grade=2))
        for k in (1, 2, 3):
            blades = alg.grade_indices[k]
            m = sandwich_matrix(g, k)
            assert m.shape == (len(blades), len(blades))
            for _ in range(3):
                x = random_mv(alg, rng, grade=k)
                want = sandwich(g, x)
                scale = float(np.abs(want.coeffs).max())
                assert np.abs(m @ x.coeffs[blades]
                              - want.coeffs[blades]).max() <= 1e-13 * scale
    with pytest.raises(ValueError, match="even"):
        sandwich_matrix(alg.blade("e1"), 1)


def test_sandwich_homomorphism(space_alg, rng):
    g = rand_rotor(space_alg, rng, "screw")
    h = rand_rotor(space_alg, rng, "rotator")
    x = random_mv(space_alg, rng)
    assert sandwich(g * h, x).isclose(sandwich(g, sandwich(h, x)), rel=1e-11)


def test_sandwich_preserves_metric_quantities(space_alg, rng):
    from pgakit import vector_norm, point_weight, plane
    g = rand_rotor(space_alg, rng, "screw")
    refl = normalize(plane(space_alg, *rng.normal(size=4)))  # odd versor
    for versor in (g, refl):
        pts = [point(space_alg, *rng.normal(size=3)) for _ in range(4)]
        imgs = [sandwich(versor, p) for p in pts]
        for p, q in zip(pts, imgs):
            assert abs(point_weight(q)) == pytest.approx(point_weight(p), rel=1e-12)
        for i in range(4):
            for j in range(i):
                d0 = distance(pts[i], pts[j])
                d1 = distance(normalize(imgs[i]), normalize(imgs[j]))
                assert d1 == pytest.approx(d0, rel=1e-10)
        a = normalize(plane(space_alg, *rng.normal(size=4)))
        assert vector_norm(sandwich(versor, a)) == pytest.approx(1.0, rel=1e-12)


def test_double_cover(space_alg, rng):
    axis = normalize(line3d_point_dir(space_alg, (0, 0, 0), (0, 0, 1)))
    g = rotator(axis, 2 * math.pi)
    assert g.isclose(space_alg.scalar(-1.0), rel=1e-12)
    x = random_mv(space_alg, rng)
    assert sandwich(space_alg.scalar(-1.0), x) == x


def test_is_rotor(space_alg, rng):
    assert is_rotor(rand_rotor(space_alg, rng, "screw"))
    assert not is_rotor(space_alg.scalar(2.0))
    assert not is_rotor(space_alg.blade("e1"))

"""Euclidean norms, distances and 3D line geometry, checked against
plain coordinate-geometry oracles wherever one exists."""

import math
import re

import numpy as np
import pytest

from pgakit import (DegenerateElementError, Multivector, Pitch, algebra,
                    angle, bivector_axis, bivector_pitch, bivector_split,
                    common_normal, direction, distance, ideal_norm,
                    ideal_point, is_simple, join,
                    killing_norm, line2d, line3d_point_dir, line3d_through,
                    noneuclidean_distance, normalize, null_plane, null_point,
                    plane, pluecker, point, point_coords, point_weight,
                    pseudo_part, sandwich, vector_norm)
from pgakit.metric import (_negligible, _require_pga, biv_coeffs, biv_mv, dual_angle,
                           line2d_through, line_angle, point_nd, polar_line,
                           project_line_to_plane, project_point_to_line, perp_through_point)
from pgakit.versors import rotator, translator

from conftest import awkward_coeffs, random_mv


def rand_line(alg, rng, scale=2.0):
    """A random euclidean unit line via two random points."""
    while True:
        p = rng.normal(size=3) * scale
        q = rng.normal(size=3) * scale
        if np.linalg.norm(p - q) > 0.2:
            d = (q - p) / np.linalg.norm(q - p)
            return normalize(line3d_through(alg, p, q)), p, d


def rand_screw_bivector(alg, rng):
    ln, _, _ = rand_line(alg, rng)
    t = rng.uniform(0.3, 1.3)
    u = rng.uniform(-1.0, 1.0)
    return t * ln + u * (ln * alg.blade("I")), ln, t, u


# ---------------------------------------------------------------------------
# embeddings, norms, distances


def test_point_embedding_roundtrip(space_alg):
    p = point(space_alg, 1.5, -2.0, 0.25)
    assert point_weight(p) == 1.0
    assert point_coords(p) == (1.5, -2.0, 0.25)
    assert point_coords(3.0 * p) == (1.5, -2.0, 0.25)


def test_vector_norm(space_alg):
    assert vector_norm(space_alg.blade("e1")) == 1.0
    a = plane(space_alg, 3.0, 0.0, 4.0, 7.0)
    assert vector_norm(a) == pytest.approx(5.0)


def test_point_norm_is_signed_weight(plane_alg):
    p = plane_alg.multivector({"E0": 3.0, "E1": 6.0})
    assert point_weight(p) == 3.0
    n = normalize(p)
    assert point_weight(n) == 1.0
    assert point_weight(normalize(-p)) == 1.0  # sign kept through division


def test_normalize_ideal_line_fails(space_alg, plane_alg):
    for alg in (space_alg, plane_alg):
        with pytest.raises(DegenerateElementError):
            normalize(alg.blade("e0"))


def test_ideal_norm_examples(plane_alg):
    v = plane_alg.multivector({"E1": 3.0, "E2": 4.0})
    assert ideal_norm(v) == pytest.approx(5.0)
    assert ideal_norm(plane_alg.blade("E1")) == 1.0
    # || v join P || for a unit euclidean point P, whichever it is
    probe = point(plane_alg, 7.0, 0.0)
    assert vector_norm(join(v, probe)) == pytest.approx(5.0)


def test_ideal_norm_probe_independence_3d(space_alg, rng):
    # the paper measures an ideal element through the join with any unit
    # point; that route is the oracle for the coefficient norm
    v = ideal_point(space_alg, *rng.normal(size=3))
    ideal_line = join(v, ideal_point(space_alg, *rng.normal(size=3)))
    for _ in range(5):
        probe = point(space_alg, *rng.normal(size=3))
        assert killing_norm(join(v, probe)) == pytest.approx(ideal_norm(v), rel=1e-12)
        assert vector_norm(join(ideal_line, probe)) == pytest.approx(
            ideal_norm(ideal_line), rel=1e-12)


def test_distance(space_alg):
    p = point(space_alg, 0.0, 0.0, 0.0)
    q = point(space_alg, 3.0, 4.0, 0.0)
    assert distance(p, q) == pytest.approx(5.0)
    assert distance(p, p) == 0.0


def test_distance_matches_coordinates(space_alg, rng):
    for _ in range(25):
        a, b = rng.normal(size=3), rng.normal(size=3)
        d = distance(point(space_alg, *a), point(space_alg, *b))
        assert d == pytest.approx(float(np.linalg.norm(a - b)), rel=1e-12)


def test_distance_of_far_points_does_not_overflow(plane_alg, space_alg):
    # the join of these points has ideal slots of 1e320; the distance
    # reads only its euclidean part, which is representable
    for alg in (plane_alg, space_alg):
        zeros = (0.0,) * (alg.dim - 3)
        p = point(alg, 1e160, 0.0, *zeros)
        q = point(alg, 0.0, 1e160, *zeros)
        assert distance(p, q) == pytest.approx(math.sqrt(2.0) * 1e160, rel=1e-15)


def test_angle(space_alg):
    assert angle(space_alg.blade("e1"), space_alg.blade("e2")) == pytest.approx(math.pi / 2)
    a = normalize(plane(space_alg, 1.0, 1.0, 0.0, 3.0))
    b = normalize(plane(space_alg, 1.0, 0.0, 0.0, -1.0))
    assert angle(a, b) == pytest.approx(math.pi / 4)


def test_nan_angles_and_distances_stay_nan(space_alg):
    # a clamp through min/max would turn NaN into a wrong 0.0
    nan = math.nan
    assert math.isnan(angle(plane(space_alg, nan, 0, 0, 0),
                            plane(space_alg, 1, 0, 0, 0)))
    x_axis = line3d_point_dir(space_alg, (0, 0, 0), (1, 0, 0))
    assert math.isnan(line_angle(nan * x_axis, x_axis))
    for sig in ((4, 0, 0), (3, 1, 0)):
        alg = algebra(*sig)
        inside = point_nd(alg, 1.0, 0.1, 0.0, 0.0)
        assert math.isnan(noneuclidean_distance(point_nd(alg, 1.0, nan, 0, 0), inside))


def test_elliptic_distance():
    ell = algebra(4, 0, 0)
    x = point_nd(ell, 1.0, 0.2, -0.3, 0.5)
    assert noneuclidean_distance(x, x) == pytest.approx(0.0, abs=1e-7)
    e0 = point_nd(ell, 1.0, 0.0, 0.0, 0.0)
    e1 = point_nd(ell, 0.0, 1.0, 0.0, 0.0)
    assert noneuclidean_distance(e0, e1) == pytest.approx(math.pi / 2)


def test_hyperbolic_distance_additive_along_geodesic(rng):
    hyp = algebra(3, 1, 0)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    a, b, c = 0.1, 0.45, 0.8
    pa, pb, pc = (point_nd(hyp, 1.0, *(s * u)) for s in (a, b, c))
    dab = noneuclidean_distance(pa, pb)
    dbc = noneuclidean_distance(pb, pc)
    dac = noneuclidean_distance(pa, pc)
    assert dac == pytest.approx(dab + dbc, rel=1e-10)


def test_noneuclidean_distance_does_not_depend_on_the_scale(rng):
    # each point is divided by its largest coefficient first, so 1e-170 x
    # is not null and 1e170 x does not overflow
    for sig in ((4, 0, 0), (3, 1, 0)):
        alg = algebra(*sig)
        for _ in range(20):
            x, y = (point_nd(alg, 1.0, *rng.uniform(-0.5, 0.5, size=3)) for _ in "xy")
            ref = noneuclidean_distance(x, y)
            for k in rng.integers(-1000, 1001, size=2):
                assert noneuclidean_distance(2.0 ** int(k) * x, y) == ref
                assert noneuclidean_distance(x, 2.0 ** int(k) * y) == ref
            for s in (1e-170, 1e170):
                assert noneuclidean_distance(s * x, s * y) == pytest.approx(ref, rel=1e-12)


def test_null_argument_rejected():
    hyp = algebra(3, 1, 0)
    on_quadric = point_nd(hyp, 1.0, 1.0, 0.0, 0.0)
    inside = point_nd(hyp, 1.0, 0.1, 0.0, 0.0)
    with pytest.raises(DegenerateElementError):
        noneuclidean_distance(on_quadric, inside)


def test_noneuclidean_distance_takes_points_as_1_vectors():
    # a bivector of Cl(4,0,0) squares to a negative number: math's domain
    # error before, and a scalar gave a distance
    ell = algebra(4, 0, 0)
    x = point_nd(ell, 1.0, 0.0, 0.0, 0.0)
    for y in (ell.blade("e12"), ell.scalar(1.0), x + ell.blade("I")):
        with pytest.raises(ValueError, match="takes points as 1-vectors"):
            noneuclidean_distance(x, y)
        with pytest.raises(ValueError, match="takes points as 1-vectors"):
            noneuclidean_distance(y, x)


# ---------------------------------------------------------------------------
# Pluecker product and bivector anatomy


def test_pluecker_pairings(space_alg):
    bl = space_alg.blades
    assert pluecker(bl["e01"], bl["e23"]) == 1.0
    assert pluecker(bl["e12"], bl["e31"]) == 0.0
    assert pluecker(bl["e02"], bl["e31"]) == 1.0
    assert pluecker(bl["e23"], bl["e01"]) == 1.0  # symmetric


def test_simplicity(space_alg, rng):
    bl = space_alg.blades
    assert not is_simple(bl["e03"] + bl["e12"])
    # no absolute floor: a tiny screw is still a screw
    assert not is_simple(1e-11 * (bl["e03"] + bl["e12"]))
    assert is_simple(bl["e12"])
    assert is_simple(space_alg.zero())
    for _ in range(10):
        a = random_mv(space_alg, rng, grade=1)
        b = random_mv(space_alg, rng, grade=1)
        assert is_simple(a ^ b)


def test_wedge_of_planes_gives_pluecker_coordinates(space_alg, rng):
    a = random_mv(space_alg, rng, grade=1)
    b = random_mv(space_alg, rng, grade=1)
    av = np.array([a[f"e{i}"] for i in range(4)])
    bv = np.array([b[f"e{i}"] for i in range(4)])
    coeffs = biv_coeffs(a ^ b)
    want = [av[0] * bv[1] - av[1] * bv[0],
            av[0] * bv[2] - av[2] * bv[0],
            av[0] * bv[3] - av[3] * bv[0],
            av[1] * bv[2] - av[2] * bv[1],
            av[3] * bv[1] - av[1] * bv[3],
            av[2] * bv[3] - av[3] * bv[2]]
    np.testing.assert_allclose(coeffs, want, rtol=1e-12, atol=1e-14)


def test_split_and_direction(space_alg):
    bl = space_alg.blades
    inf, fin = bivector_split(bl["e01"] + bl["e12"])
    assert inf == bl["e01"] and fin == bl["e12"]
    assert direction(bl["e23"]) == bl["E1"]
    assert direction(bl["e31"]) == bl["E2"]
    assert direction(bl["e12"]) == bl["E3"]
    # unchanged by ideal contributions
    assert direction(bl["e23"] + 5 * bl["e02"]) == bl["E1"]


def test_direction_matches_two_point_line(space_alg, rng):
    p, q = rng.normal(size=3), rng.normal(size=3)
    ln = line3d_through(space_alg, p, q)
    d = direction(ln)
    got = np.array([d[f"E{i}"] for i in (1, 2, 3)])
    want = q - p
    assert np.allclose(np.cross(got, want), 0.0, atol=1e-12)
    assert got @ want > 0


def test_lines_through_far_points_do_not_overflow(plane_alg, space_alg, rng):
    # each point is scaled by a power of two before the join and the join
    # scaled back, so the moment's products cannot overflow before they
    # cancel; a fused multiply-add in the kernel's mat-vec may leave the
    # rounding of one product, below an ulp of |a| |b|
    a, b = (1e160, 1e160, 0.0), (2e160, 2e160, 0.0)
    ulps = 4 * np.finfo(float).eps * 1e160 * 2e160
    for line in (line3d_through(space_alg, a, b), line3d_point_dir(space_alg, a, a)):
        c = biv_coeffs(line)
        assert np.array_equal(c[3:], [0.0, 1e160, 1e160])
        assert np.abs(c[:3]).max() <= ulps
    line = line2d_through(plane_alg, a[:2], b[:2])
    assert np.array_equal(line.coeffs[plane_alg.grade_indices[1][1:]], [-1e160, 1e160])
    assert abs(line["e0"]) <= ulps
    # the scaling is exact: ordinary points give the plain join bit for bit
    for _ in range(50):
        p, q = rng.normal(size=(2, 3)) * 10.0 ** rng.integers(-5, 6, size=(2, 1))
        assert line3d_through(space_alg, p, q) == join(point(space_alg, *p),
                                                       point(space_alg, *q))
        assert line3d_point_dir(space_alg, p, q) == join(point(space_alg, *p),
                                                         ideal_point(space_alg, *q))
        assert line2d_through(plane_alg, p[:2], q[:2]) == join(
            point(plane_alg, *p[:2]), point(plane_alg, *q[:2]))


def test_axis_examples(space_alg):
    bl = space_alg.blades
    assert bivector_axis(bl["e12"]) == bl["e12"]
    assert bivector_axis(bl["e03"] + bl["e12"]) == bl["e12"]
    with pytest.raises(DegenerateElementError):
        bivector_axis(bl["e01"] + bl["e02"])


def test_axis_recovers_known_screw_axis(space_alg, rng):
    for _ in range(25):
        xi, ln, _, _ = rand_screw_bivector(space_alg, rng)
        ax = bivector_axis(xi)
        assert ax.isclose(ln, rel=1e-9) or ax.isclose(-ln, rel=1e-9)


def test_axis_postconditions(space_alg, rng):
    xi, _, _, _ = rand_screw_bivector(space_alg, rng)
    ax = bivector_axis(xi)
    assert is_simple(ax)
    assert killing_norm(ax) == pytest.approx(1.0)
    assert (ax * ax).isclose(space_alg.scalar(-1.0), rel=1e-12)
    # idempotent: an axis is its own axis
    assert bivector_axis(ax).isclose(ax, rel=1e-12)
    # lies in the pencil spanned by xi and xi I
    basis = np.stack([biv_coeffs(xi), biv_coeffs(xi * space_alg.blade("I"))]).T
    _, residual, _, _ = np.linalg.lstsq(basis, biv_coeffs(ax), rcond=None)
    if len(residual):
        assert float(residual[0]) == pytest.approx(0.0, abs=1e-16)


# ---------------------------------------------------------------------------
# which algebra each function takes


def test_require_pga_takes_exactly_cl201_and_cl301():
    for dim in (2, 3, 4):
        for z in range(dim + 1):
            for n in range(dim - z + 1):
                alg = algebra(dim - z - n, n, z)
                pga = (n, z) == (0, 1) and dim in (3, 4)
                for dims in ((3, 4), (3,), (4,)):
                    if pga and dim in dims:
                        assert _require_pga(alg, "f", dims) is alg
                    else:
                        with pytest.raises(ValueError, match=re.escape(f"Cl{alg.signature}")):
                            _require_pga(alg, "f", dims)
    with pytest.raises(ValueError) as both:
        _require_pga(algebra(3, 0, 0), "f")
    assert str(both.value) == ("f needs the planar algebra Cl(2,0,1) or the "
                               "spatial algebra Cl(3,0,1), not Cl(3,0,0)")
    with pytest.raises(ValueError) as spatial:
        _require_pga(algebra(2, 0, 1), "f", (4,))
    assert str(spatial.value) == "f needs the spatial algebra Cl(3,0,1), not Cl(2,0,1)"


# a call of the euclidean layer in an algebra it does not take; each
# gave an answer, an IndexError, numpy's broadcast error or a misleading
# DegenerateElementError before
_WRONG_ALGEBRA = {
    # a point of Cl(2,0,1)
    "polar_line": ((2, 0, 1), lambda a: polar_line(a.blade("E0"))),
    "direction": ((2, 0, 1), lambda a: direction(a.blade("E0"))),
    "bivector_split": ((2, 0, 1), lambda a: bivector_split(a.blade("E0"))),
    "bivector_axis": ((2, 0, 1), lambda a: bivector_axis(a.blade("E0"))),
    "common_normal": ((2, 0, 1), lambda a: common_normal(a.blade("E0"), a.blade("E1"))),
    "killing_norm": ((2, 0, 1), lambda a: killing_norm(a.blade("E0"))),
    # the non-degenerate algebras of the same dimensions
    "bivector_pitch": ((4, 0, 0), lambda a: bivector_pitch(a.blade("e12"))),
    "point": ((3, 1, 0), lambda a: point(a, 1.0, 2.0, 3.0)),
    "ideal_point": ((4, 0, 0), lambda a: ideal_point(a, 1.0, 2.0, 3.0)),
    "line3d_through": ((3, 0, 0), lambda a: line3d_through(a, (0.0, 1.0), (1.0, 0.0))),
    "line3d_point_dir": ((4, 0, 0), lambda a: line3d_point_dir(a, (0, 0, 0), (0, 0, 1))),
    "line2d": ((3, 0, 0), lambda a: line2d(a, 1.0, 2.0, 3.0)),
    "plane": ((4, 0, 0), lambda a: plane(a, 1.0, 2.0, 3.0, 4.0)),
    "point_weight": ((4, 0, 0), lambda a: point_weight(a.blade("E0"))),
    "point_coords": ((4, 0, 0), lambda a: point_coords(a.blade("E0"))),
    "distance": ((3, 1, 0), lambda a: distance(a.blade("E0"), a.blade("E1"))),
    "ideal_norm": ((4, 0, 0), lambda a: ideal_norm(a.blade("E1"))),
    "normalize": ((3, 1, 0), lambda a: normalize(a.blade("E0"))),
}


@pytest.mark.parametrize("name", sorted(_WRONG_ALGEBRA))
def test_the_euclidean_layer_takes_only_the_pga_signatures(name):
    sig, call = _WRONG_ALGEBRA[name]
    alg = algebra(*sig)
    named = rf"^{name} needs the .*, not {re.escape(f'Cl{alg.signature}')}$"
    with pytest.raises(ValueError, match=named):
        call(alg)


def test_pitch_classes(space_alg, rng):
    bl = space_alg.blades
    p = bivector_pitch(bl["e12"])
    assert p.finite and p.value == pytest.approx(0.0)
    assert not bivector_pitch(bl["e01"] + 2 * bl["e03"]).finite
    # the screw generator (t + uI) L has pitch 2u/t
    xi, _, t, u = rand_screw_bivector(space_alg, rng)
    p = bivector_pitch(xi)
    assert p.finite and p.value == pytest.approx(2 * u / t, rel=1e-9)
    with pytest.raises(DegenerateElementError):
        bivector_pitch(space_alg.zero())
    with pytest.raises(ValueError, match="spatial algebra"):
        bivector_pitch(algebra(2, 0, 1).blade("E0"))
    # no euclidean part at all is ideal, also next to a NaN
    with pytest.raises(DegenerateElementError, match="no axis"):
        bivector_axis(biv_mv(space_alg, [math.nan, 1.0, 0.0, 0.0, 0.0, 0.0]))


def test_pitch_is_a_rigid_invariant(space_alg, rng):
    xi, _, _, _ = rand_screw_bivector(space_alg, rng)
    ref = bivector_pitch(xi).value
    g = (translator(space_alg, rng.normal(size=3))
         * rotator(line3d_point_dir(space_alg, (0.2, -1.0, 0.4), (1.0, 2.0, -1.0)),
                   rng.uniform(0.1, 2.0)))
    moved = sandwich(g, xi)
    assert bivector_pitch(moved).value == pytest.approx(ref, rel=1e-9)


def test_pitch_and_axis_agree_on_a_far_line(space_alg):
    # e01 + 1e-8 e12 is the z-parallel line at distance 1e8 from the
    # origin: a line, not a translator, however small its euclidean part
    xi = space_alg.multivector({"e01": 1.0, "e12": 1e-8})
    p = bivector_pitch(xi)
    assert p.finite and p.value == 0.0
    assert bivector_axis(xi).isclose(xi / 1e-8, rel=1e-15)


def _answer(f, x):
    """``f(x)`` as raw bytes, or the class of the error it raises."""
    try:
        got = f(x)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)
    if isinstance(got, Pitch):
        got = (got.finite, got.value if got.finite else 0.0)
    return np.asarray(getattr(got, "coeffs", got), dtype=float).tobytes()


def test_euclidean_decisions_do_not_depend_on_the_scale(plane_alg, space_alg):
    # seeded points, lines/planes and bivectors, with the euclidean part
    # (the blades without e0) shrunk towards and past the 1e-12 margin;
    # scaling by 2**k is exact, so every answer must be bit for bit the same
    rng = np.random.default_rng(14)
    shrink = (1.0, 1e-6, 1e-11, 1e-12, 1e-13, 0.0)
    kinds = [(plane_alg, 1), (plane_alg, 2), (space_alg, 1), (space_alg, 2),
             (space_alg, 3), (space_alg, "line")]
    funcs = [point_coords, normalize, bivector_axis, bivector_pitch, is_simple]
    for alg, kind in kinds * 150:
        if kind == "line":
            x = line3d_through(alg, rng.normal(size=3), rng.normal(size=3))
        else:
            x = random_mv(alg, rng, grade=kind)
        coeffs = x.coeffs.copy()
        euclidean = np.diagonal(alg._gp[:, :, 0]) != 0.0
        coeffs[euclidean] *= rng.choice(shrink) * rng.uniform(0.5, 2.0)
        x = Multivector(alg, coeffs)
        k = int(rng.integers(-1000, 1001))
        y = 2.0 ** k * x
        if not np.array_equal(2.0 ** -k * y.coeffs, x.coeffs):
            continue   # a subnormal coefficient: the scaling itself rounds
        for f in funcs[:2] if alg is plane_alg else funcs:
            assert _answer(f, x) == _answer(f, y), (f.__name__, x, y)


def test_magnitudes_scale_exactly_with_the_element(plane_alg, space_alg):
    # every magnitude is one math.hypot, which scales before it squares:
    # f(2**k x) == 2**k f(x) bit for bit, far past where a square overflows
    rng = np.random.default_rng(15)
    for _ in range(100):
        cases = []
        for alg in (plane_alg, space_alg):
            n = alg.dim - 1
            p, q = (point(alg, *rng.normal(size=n)) for _ in "pq")
            v = ideal_point(alg, *rng.normal(size=n))
            cases += [(vector_norm, random_mv(alg, rng, grade=1)), (ideal_norm, v),
                      (lambda x, q=q: distance(x, q), p)]
        w = ideal_point(space_alg, *rng.normal(size=3))
        cases += [(killing_norm, random_mv(space_alg, rng, grade=2)),
                  (ideal_norm, join(v, w))]
        s = 2.0 ** int(rng.integers(-1000, 1001))
        for f, x in cases:
            assert f(s * x) == s * f(x), (f, x, s)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e300])
def test_tiny_and_huge_elements_get_the_unit_answers(space_alg, scale):
    # squared coefficients under- or overflow at these scales; the answers
    # must still be finite and those of the unscaled element
    line = line3d_through(space_alg, (0, 0, 0), (1, 2, 3))
    screw = line3d_through(space_alg, (1, 0, 2), (1, 2, 3))
    screw = screw + 0.3 * (screw * space_alg.blade("I"))
    ideal_line = join(ideal_point(space_alg, 1, 2, 3), ideal_point(space_alg, 0, 1, -1))
    for x in (line, plane(space_alg, 1, 2, 3, 4), ideal_point(space_alg, 1, 2, 3),
              ideal_line, point(space_alg, 1, 2, 3), screw):
        got = normalize(scale * x)
        assert np.isfinite(got.coeffs).all()
        assert got.isclose(normalize(x), rel=1e-15)
    for x in (line, screw):
        assert bivector_axis(scale * x).isclose(bivector_axis(x), rel=1e-15)
        assert bivector_pitch(scale * x).value == pytest.approx(
            bivector_pitch(x).value, rel=1e-15, abs=1e-300)


def test_dual_angle(space_alg):
    bl = space_alg.blades
    # intersecting perpendicular axes: dual angle vanishes entirely
    z = dual_angle(bl["e23"], bl["e31"])
    assert z.re == pytest.approx(0.0) and z.du == pytest.approx(0.0)
    # parallel x-axes distance 1 apart: cos 0 - 1 sin 0 I = 1 exactly
    shifted = normalize(line3d_point_dir(space_alg, (0, 0, 1), (1, 0, 0)))
    z = dual_angle(bl["e23"], shifted)
    assert z.re == pytest.approx(1.0) and z.du == pytest.approx(0.0, abs=1e-12)


def test_dual_angle_against_coordinates(space_alg, rng):
    for _ in range(10):
        xi, p1, d1 = rand_line(space_alg, rng)
        phi, p2, d2 = rand_line(space_alg, rng)
        cross = np.cross(d1, d2)
        if np.linalg.norm(cross) < 0.1:
            continue
        dist = abs((p2 - p1) @ cross) / np.linalg.norm(cross)
        alpha = math.acos(max(-1.0, min(1.0, abs(d1 @ d2))))
        z = dual_angle(xi, phi)
        assert abs(z.re) == pytest.approx(abs(math.cos(alpha)), abs=1e-9)
        assert abs(z.du) == pytest.approx(dist * math.sin(alpha), rel=1e-8, abs=1e-9)


def test_line_distance_identity(space_alg, rng):
    # |<Xi ^ Phi>| = sin(angle) * distance for normalized simple lines
    for _ in range(10):
        xi, p1, d1 = rand_line(space_alg, rng)
        phi, p2, d2 = rand_line(space_alg, rng)
        cross = np.cross(d1, d2)
        sin_a = np.linalg.norm(cross)
        if sin_a < 0.1:
            continue
        dist = abs((p2 - p1) @ cross) / sin_a
        assert abs(pseudo_part(xi ^ phi)) == pytest.approx(sin_a * dist, rel=1e-9, abs=1e-12)


def test_line_angle(space_alg, rng):
    xi, _, d1 = rand_line(space_alg, rng)
    phi, _, d2 = rand_line(space_alg, rng)
    want = math.acos(max(-1.0, min(1.0, float(d1 @ d2))))
    got = line_angle(xi, phi)
    assert got == pytest.approx(want, abs=1e-9) or got == pytest.approx(math.pi - want, abs=1e-9)


# ---------------------------------------------------------------------------
# null system


def test_null_plane_incidence(space_alg, rng):
    xi, _, _ = rand_line(space_alg, rng)
    p = point(space_alg, *rng.normal(size=3))
    np_ = null_plane(p, xi)
    # the point lies in its null plane
    resid = np.abs((np_ ^ p).coeffs).max()
    assert resid <= 1e-10 * max(1.0, np_.norm2() * p.norm2())


def test_point_on_line_joins_to_zero(space_alg):
    xi = line3d_through(space_alg, (0, 0, 0), (1, 2, 3))
    p = point(space_alg, 0.5, 1.0, 1.5)
    assert join(p, xi).isclose(space_alg.zero(), rel=1e-12)


def test_null_point_example(space_alg):
    bl = space_alg.blades
    # z = 0 plane meets the z-axis in the origin
    got = null_point(bl["e3"], bl["e12"])
    assert got == bl["E0"]


def test_null_polarity_involution(space_alg, rng):
    # for non-simple bivectors: null point of the null plane is the point back,
    # scaled by the Pluecker self-product
    for _ in range(10):
        xi, _, _, _ = rand_screw_bivector(space_alg, rng)
        p = point(space_alg, *rng.normal(size=3))
        back = null_point(null_plane(p, xi), xi)
        want = -0.5 * pluecker(xi, xi) * p
        assert back.isclose(want, rel=1e-10)


# ---------------------------------------------------------------------------
# projections and the common normal


def test_project_point_examples(space_alg):
    x_axis = space_alg.blade("e23")
    p = point(space_alg, 1.0, 1.0, 0.0)
    foot = normalize(project_point_to_line(p, x_axis))
    assert np.allclose(point_coords(foot), (1.0, 0.0, 0.0), atol=1e-12)
    on = point(space_alg, 2.5, 0.0, 0.0)
    assert np.allclose(point_coords(normalize(project_point_to_line(on, x_axis))),
                       (2.5, 0.0, 0.0), atol=1e-12)


def test_project_point_against_bruteforce(space_alg, rng):
    for _ in range(15):
        xi, p0, d = rand_line(space_alg, rng)
        q = rng.normal(size=3)
        foot = normalize(project_point_to_line(point(space_alg, *q), xi))
        want = p0 + ((q - p0) @ d) * d
        assert np.allclose(point_coords(foot), want, atol=1e-9)


def test_project_line_already_in_plane(space_alg):
    a = space_alg.blade("e3")                    # plane z = 0
    xi = line3d_through(space_alg, (0, 0, 0), (1, 2, 0))  # lies in it
    proj = project_line_to_plane(xi, a)
    assert proj.isclose(xi, rel=1e-12)


def test_project_line_to_plane_oracle(space_alg, rng):
    a = normalize(plane(space_alg, 0.0, 0.0, 1.0, -0.7))   # z = 0.7
    xi, p0, d = rand_line(space_alg, rng)
    proj = project_line_to_plane(xi, a)
    # the projected line joins the projections of two sample points
    s1, s2 = p0, p0 + 2.3 * d
    w1 = np.array([s1[0], s1[1], 0.7])
    w2 = np.array([s2[0], s2[1], 0.7])
    want = line3d_through(space_alg, w1, w2)
    r = normalize(proj)
    w = normalize(want)
    assert r.isclose(w, rel=1e-8) or r.isclose(-w, rel=1e-8)


def test_projections_refuse_an_element_too_small_to_invert(space_alg):
    # x / |x|^2 overflows for a subnormal |x|: an overflow warning and
    # infinite slots before
    p = point(space_alg, 1.0, 2.0, 3.0)
    with pytest.raises(DegenerateElementError, match="too small to invert"):
        project_point_to_line(p, 1e-310 * space_alg.blade("e12"))
    with pytest.raises(DegenerateElementError, match="too small to invert"):
        project_line_to_plane(space_alg.blade("e12"), plane(space_alg, 1e-310, 0.0, 0.0, 0.0))
    # inside the range the inverse, and so the projection, is finite
    foot = project_point_to_line(p, 1e-300 * space_alg.blade("e12"))
    assert point_coords(foot) == pytest.approx((0.0, 0.0, 3.0))


def test_project_line_to_a_plane_far_from_the_origin(space_alg, rng):
    # e0 + 1e-7 e1 is the plane x = -1e7: euclidean, so it projects, and
    # the projection does not depend on the plane's scale
    a = plane(space_alg, 1e-7, 0.0, 0.0, 1.0)
    xi, _, _ = rand_line(space_alg, rng)
    proj = project_line_to_plane(xi, a)
    assert proj.isclose(project_line_to_plane(xi, normalize(a)), rel=1e-12)
    assert np.abs((proj ^ a).coeffs).max() <= 1e-9 * np.abs(proj.coeffs).max()


def test_perp_through_point_2d(plane_alg):
    a = normalize(plane_alg.multivector({"e0": -1.0, "e1": 1.0}))  # x = 1
    p = point(plane_alg, 3.0, 2.0)
    ln = perp_through_point(p, a)
    # passes through p and is perpendicular to a
    assert (ln ^ p).isclose(plane_alg.zero(), rel=1e-12)
    assert abs((normalize(ln) | a).scalar_part) == pytest.approx(0.0, abs=1e-12)


def test_common_normal_example(space_alg):
    x_axis = space_alg.blade("e23")
    other = normalize(line3d_point_dir(space_alg, (0, 0, 1), (0, 1, 0)))
    n = common_normal(x_axis, other)
    z_axis = space_alg.blade("e12")
    assert n.isclose(z_axis, rel=1e-12) or n.isclose(-z_axis, rel=1e-12)


def test_common_normal_against_coordinates(space_alg, rng):
    for _ in range(15):
        xi, p1, d1 = rand_line(space_alg, rng)
        phi, p2, d2 = rand_line(space_alg, rng)
        cross = np.cross(d1, d2)
        if np.linalg.norm(cross) < 0.15:
            continue
        n = common_normal(xi, phi)
        # in involution with both lines
        assert pluecker(n, xi) == pytest.approx(0.0, abs=1e-9)
        assert pluecker(n, phi) == pytest.approx(0.0, abs=1e-9)
        # direction is the cross of the two directions
        dn = np.array([direction(n)[f"E{i}"] for i in (1, 2, 3)])
        assert np.allclose(np.cross(dn, cross), 0.0, atol=1e-8)
        # feet: solve for the closest points, the normal passes through both
        rhs = p2 - p1
        m = np.stack([d1, -d2, cross]).T
        t1, t2, _ = np.linalg.solve(m, rhs)
        foot1 = p1 + t1 * d1
        foot2 = p2 + t2 * d2
        for foot in (foot1, foot2):
            resid = np.abs(join(point(space_alg, *foot), n).coeffs).max()
            assert resid <= 1e-8 * (1.0 + np.linalg.norm(foot)) ** 2


def test_common_normal_of_intersecting_lines(space_alg):
    a = line3d_through(space_alg, (1, 1, 1), (2, 2, 1))
    b = line3d_through(space_alg, (1, 1, 1), (1, 0, 1))
    n = common_normal(normalize(a), normalize(b))
    # passes through the intersection point
    assert join(point(space_alg, 1, 1, 1), n).isclose(space_alg.zero(), rel=1e-9)


def test_common_normal_degenerate(space_alg):
    a = space_alg.blade("e23")
    b = normalize(line3d_point_dir(space_alg, (0, 1, 0), (1, 0, 0)))
    with pytest.raises(DegenerateElementError):
        common_normal(a, b)
    with pytest.raises(DegenerateElementError):
        common_normal(a, a)


# ---------------------------------------------------------------------------
# the identity suite (full 1000-sample sweep lives in the acceptance tests)


def identity_residuals(alg, rng):
    from conftest import random_mv as rmv
    eye = alg.blade("I")
    xi = rmv(alg, rng, grade=2)
    phi = rmv(alg, rng, grade=2)
    p = rmv(alg, rng, grade=3)
    scale = max(xi.norm2(), phi.norm2(), p.norm2()) ** 0.5
    out = []
    # commutator is in involution with its arguments
    out.append(np.abs((xi.commutator(phi) ^ xi).coeffs).max() / scale ** 2)
    # pairing a polar line: <(Xi I) ^ Phi> = <Xi ^ (Phi I)> = Xi . Phi
    k = (xi | phi).scalar_part
    out.append(abs(pseudo_part((xi * eye) ^ phi) - k) / scale ** 2)
    out.append(abs(pseudo_part(xi ^ (phi * eye)) - k) / scale ** 2)
    # null polarity applied twice scales by the Pluecker self-product
    back = xi ^ join(xi, p)
    out.append(np.abs((back + 0.5 * pluecker(xi, xi) * p).coeffs).max() / scale ** 3)
    # commutator with a point equals the polarized null plane
    out.append(np.abs((xi.commutator(p) - join(xi, p) * eye).coeffs).max() / scale ** 2)
    # sandwich identity: P x (Xi x P) = (P Xi P - P^2 Xi) / 2
    lhs = p.commutator(xi.commutator(p))
    rhs = 0.5 * (p * xi * p - (p | p).scalar_part * xi)
    out.append(np.abs((lhs - rhs).coeffs).max() / scale ** 3)
    # ideal/euclidean split identities
    xi_inf, xi_o = bivector_split(xi)
    phi_inf, phi_o = bivector_split(phi)
    out.append(np.abs(((xi ^ phi) - (xi_inf ^ phi_o) - (xi_o ^ phi_inf)).coeffs).max()
               / scale ** 2)
    comm = xi.commutator(phi)
    comm_split = (xi_inf.commutator(phi_o) + xi_o.commutator(phi_inf)
                  + xi_o.commutator(phi_o))
    out.append(np.abs((comm - comm_split).coeffs).max() / scale ** 2)
    out.append(abs((xi | phi).scalar_part - (xi_o | phi_o).scalar_part) / scale ** 2)
    return out


def test_identity_suite_sample(space_alg, rng):
    for _ in range(50):
        for r in identity_residuals(space_alg, rng):
            assert r < 1e-10


def test_simplicity_iff_split_parts_wedge_to_zero(space_alg, rng):
    for _ in range(20):
        a = random_mv(space_alg, rng, grade=1)
        b = random_mv(space_alg, rng, grade=1)
        simple = a ^ b
        xi_inf, xi_o = bivector_split(simple)
        assert np.abs((xi_inf ^ xi_o).coeffs).max() < 1e-10 * simple.norm2()
        screw, _, _, u = rand_screw_bivector(space_alg, rng)
        pinf, po = bivector_split(screw)
        assert (abs(pseudo_part(pinf ^ po)) > 1e-8) == (abs(u) > 1e-8)


def test_polar_line_is_ideal_and_orthogonal(space_alg, rng):
    xi, _, d = rand_line(space_alg, rng)
    pol = polar_line(xi)
    c = biv_coeffs(pol)
    assert np.allclose(c[3:], 0.0)
    # raw pseudoscalar product gives the opposite orientation
    np.testing.assert_allclose(biv_coeffs(xi * space_alg.blade("I")), -c,
                               atol=1e-12)


def test_triangle_centers_against_coordinate_oracles(plane_alg, rng):
    from pgakit import vector_norm
    for _ in range(15):
        pts = rng.uniform(-3, 3, size=(3, 2))
        u, v = pts[1] - pts[0], pts[2] - pts[0]
        if abs(u[0] * v[1] - u[1] * v[0]) < 0.4:
            continue
        pa, pb, pc = (point(plane_alg, *p) for p in pts)
        a, b, c = join(pb, pc), join(pc, pa), join(pa, pb)

        centroid = normalize(join(pb + pc, pa) ^ join(pc + pa, pb))
        assert np.allclose(point_coords(centroid), pts.mean(axis=0), atol=1e-10)

        circum = normalize(((pb + pc) | a) ^ ((pc + pa) | b))
        # oracle: solve the equidistance conditions
        m = 2 * np.array([pts[1] - pts[0], pts[2] - pts[0]])
        rhs = np.array([pts[1] @ pts[1] - pts[0] @ pts[0],
                        pts[2] @ pts[2] - pts[0] @ pts[0]])
        assert np.allclose(point_coords(circum), np.linalg.solve(m, rhs),
                           atol=1e-9)

        ortho = normalize((pa | a) ^ (pb | b))
        # oracle: intersect two altitudes
        m = np.array([pts[2] - pts[1], pts[0] - pts[2]])
        rhs = np.array([pts[0] @ (pts[2] - pts[1]), pts[1] @ (pts[0] - pts[2])])
        assert np.allclose(point_coords(ortho), np.linalg.solve(m, rhs),
                           atol=1e-9)

        # incenter from the bisector formula; the edge lines at each corner
        # must be oriented away from it for the interior bisector
        def bisector(p, q, r):
            s, t = join(p, q), join(p, r)
            return vector_norm(t) * s + vector_norm(s) * t

        inc = normalize(bisector(pa, pb, pc) ^ bisector(pb, pc, pa))
        la, lb, lc = (np.linalg.norm(pts[i] - pts[j])
                      for i, j in ((1, 2), (2, 0), (0, 1)))
        want = (la * pts[0] + lb * pts[1] + lc * pts[2]) / (la + lb + lc)
        assert np.allclose(point_coords(inc), want, atol=1e-9)
        third = bisector(pc, pa, pb)
        scale = math.sqrt(third.norm2()) * math.sqrt(inc.norm2())
        assert abs((third ^ inc).pseudo_part) < 1e-10 * scale


def test_negligible_on_floats_matches_the_numpy_route():
    # a NaN anywhere answers False, as np.max's NaN does
    rng = np.random.default_rng(1012)
    for _ in range(2000):
        c = awkward_coeffs(rng, 8, dust=1e-12)
        cut = rng.integers(0, 9)
        part, whole = c[:cut], c[rng.integers(0, 2) * cut:]
        want = bool(np.abs(part).max(initial=0.0) <= 1e-12 * np.abs(whole).max(initial=0.0))
        assert _negligible(part.tolist(), whole.tolist()) is want, (part, whole)

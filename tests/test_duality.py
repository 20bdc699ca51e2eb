"""Duality map, join/meet."""

import numpy as np
import pytest

from pgakit import dual_j, join, point

from conftest import assert_rel_close, count_einsum, random_mv


def test_dual_blade_examples(space_alg):
    bl = space_alg.blades
    assert dual_j(bl["e01"]) == bl["e23"]
    assert dual_j(bl["e02"]) == bl["e31"]
    assert dual_j(bl["e03"]) == bl["e12"]
    assert dual_j(space_alg.scalar(1.0)) == bl["I"]
    assert dual_j(bl["I"]) == space_alg.scalar(1.0)
    for i in range(4):
        assert dual_j(bl[f"e{i}"]) == bl[f"E{i}"]
        assert dual_j(bl[f"E{i}"]) == bl[f"e{i}"]


def test_dual_reverses_bivector_tuple(space_alg, rng):
    c = rng.normal(size=6)
    x = space_alg.multivector(dict(zip(
        ["e01", "e02", "e03", "e12", "e31", "e23"], c)))
    y = dual_j(x)
    got = [y[nm] for nm in ["e01", "e02", "e03", "e12", "e31", "e23"]]
    np.testing.assert_array_equal(got, c[::-1])


def test_dual_is_involution(space_alg, plane_alg, rng):
    for alg in (space_alg, plane_alg):
        x = random_mv(alg, rng)
        assert dual_j(dual_j(x)) == x


def test_dual_is_grade_reversing(space_alg, rng):
    for k in range(space_alg.dim + 1):
        x = random_mv(space_alg, rng, grade=k)
        assert dual_j(x).grades() in ([], [space_alg.dim - k])


def test_join_meet_duality(space_alg, rng):
    for _ in range(20):
        a, b = random_mv(space_alg, rng), random_mv(space_alg, rng)
        assert dual_j(a ^ b).isclose(join(dual_j(a), dual_j(b)), rel=1e-12)


def test_join_of_basis_points(space_alg, plane_alg):
    bl = space_alg.blades
    assert join(bl["E0"], bl["E1"]) == bl["e23"]   # origin to x-infinity: x-axis
    assert join(bl["E0"], bl["E2"]) == bl["e31"]
    assert join(bl["E0"], bl["E3"]) == bl["e12"]
    # planar: origin to x-infinity is the x-axis, the line y = 0
    bl2 = plane_alg.blades
    assert join(bl2["E0"], bl2["E1"]) == bl2["e2"]


def test_join_self_vanishes(space_alg, rng):
    p = point(space_alg, *rng.normal(size=3))
    assert join(p, p).isclose(space_alg.zero())


def test_collinearity_by_triple_join(plane_alg):
    p = point(plane_alg, 0.0, 0.0)
    q = point(plane_alg, 1.0, 1.0)
    on = point(plane_alg, 2.0, 2.0)
    off = point(plane_alg, 2.0, 2.5)
    assert join(join(p, q), on).isclose(plane_alg.zero())
    assert not join(join(p, q), off).isclose(plane_alg.zero())


def test_join_associativity_on_points(space_alg, rng):
    for _ in range(10):
        p, q, r = (point(space_alg, *rng.normal(size=3)) for _ in range(3))
        lhs = join(join(p, q), r)
        rhs = join(p, join(q, r))
        assert lhs.isclose(rhs, rel=1e-10)


def test_meet_of_planar_lines_is_intersection(plane_alg):
    a = plane_alg.multivector({"e0": -1.0, "e1": 1.0})          # x = 1
    b = plane_alg.multivector({"e0": -2.0, "e2": 1.0})          # y = 2
    meet = a ^ b
    # incidence: a point lies on a line when their wedge vanishes
    assert (a ^ meet).isclose(plane_alg.zero())
    assert (b ^ meet).isclose(plane_alg.zero())
    w = meet["E0"]
    assert w != 0.0
    assert meet["E1"] / w == pytest.approx(1.0)
    assert meet["E2"] / w == pytest.approx(2.0)


def test_join_matches_dual_route(oracle_alg, rng, monkeypatch):
    alg = oracle_alg
    pairs = [(random_mv(alg, rng), random_mv(alg, rng)) for _ in range(5)]
    calls = count_einsum(monkeypatch)
    got = [(a & b, join(a, b)) for a, b in pairs]
    assert calls == []
    for (a, b), joins in zip(pairs, got):
        want = dual_j(dual_j(a) ^ dual_j(b))
        for j in joins:
            assert_rel_close(j.coeffs, want.coeffs)

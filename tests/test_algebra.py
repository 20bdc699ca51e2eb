"""Product engine: Cayley tables, ring axioms, grade structure."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgakit import (Multivector, Signature, SignatureMismatchError, algebra,
                    ideal_point, join, point)
from pgakit.algebra import _bilinear
from pgakit.metric import biv_coeffs, biv_mv, even_mv

from conftest import (PLANAR_TABLE, assert_rel_close, awkward_coeffs, count_einsum,
                      random_mv)


def test_planar_cayley_table(plane_alg):
    names = plane_alg.blade_names
    assert names == ["1", "e0", "e1", "e2", "E0", "E1", "E2", "I"]
    for row in names:
        for col, want in zip(names, PLANAR_TABLE[row]):
            got = repr(plane_alg.blade(row) * plane_alg.blade(col)).replace(" ", "")
            assert got == want, f"{row} * {col}"


def test_basis_names_3d(space_alg):
    assert space_alg.blade_names == [
        "1", "e0", "e1", "e2", "e3",
        "e01", "e02", "e03", "e12", "e31", "e23",
        "E0", "E1", "E2", "E3", "I"]


# the basis of Cl(3,0,1) as words in its generators, each in the order
# that fixes the blade's sign: e31 = e3 e1, E1 = e0 e3 e2, I = e0 e1 e2 e3
SPACE_WORDS = {"1": "", "e0": "0", "e1": "1", "e2": "2", "e3": "3",
               "e01": "01", "e02": "02", "e03": "03", "e12": "12", "e31": "31",
               "e23": "23", "E0": "123", "E1": "032", "E2": "013", "E3": "021",
               "I": "0123"}


def _reduce(word: str) -> tuple[int, str]:
    """The sign and ascending word of a product of generators: a swap of
    adjacent distinct generators flips the sign, and an adjacent equal
    pair is its square, 0 for e0 and 1 for e1, e2 and e3."""
    letters, sign, i = list(word), 1, 0
    while i + 1 < len(letters):
        a, b = letters[i], letters[i + 1]
        if a < b:
            i += 1
            continue
        if a == b == "0":
            return 0, ""
        if a == b:
            del letters[i:i + 2]
        else:
            letters[i:i + 2], sign = [b, a], -sign
        i = max(i - 1, 0)
    return sign, "".join(letters)


def test_space_cayley_table_by_word_reduction(space_alg):
    # all 256 products of basis blades against products of generator words
    assert space_alg.blade_names == list(SPACE_WORDS)
    blade_of = {}                     # ascending word -> (sign, blade name)
    for name, word in SPACE_WORDS.items():
        sign, ascending = _reduce(word)
        blade_of[ascending] = (sign, name)
    assert len(blade_of) == 16
    zeros = 0
    for a, wa in SPACE_WORDS.items():
        for b, wb in SPACE_WORDS.items():
            sign, ascending = _reduce(wa + wb)
            got = (space_alg.blade(a) * space_alg.blade(b)).coeffs
            if sign == 0:
                zeros += 1
                assert not got.any(), f"{a} * {b}"
            else:
                # a word and its blade differ by a sign, its own inverse
                sign_of, name = blade_of[ascending]
                want = sign * sign_of * space_alg.blade(name).coeffs
                assert np.array_equal(got, want), f"{a} * {b}"
    assert zeros == 64                # both factors hold e0: 8 * 8 products


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(-1, 0, 0)
    with pytest.raises(ValueError):
        Signature(7, 0, 0)
    assert Signature(3, 0, 1).squares == (0, 1, 1, 1)
    assert Signature(3, 1, 0).squares == (-1, 1, 1, 1)


def test_metric_squares(space_alg):
    one = space_alg.scalar(1.0)
    assert space_alg.blade("e1") * space_alg.blade("e1") == one
    assert space_alg.blade("e0") * space_alg.blade("e0") == space_alg.zero()
    assert space_alg.blade("I") * space_alg.blade("I") == space_alg.zero()
    assert space_alg.blade("e12") * space_alg.blade("e12") == -one


def test_planar_trivector_product_examples(plane_alg):
    e1, e2 = plane_alg.blade("e1"), plane_alg.blade("e2")
    assert e1 * e2 == plane_alg.blade("E0")
    assert e2 * e1 == -plane_alg.blade("E0")


def test_associativity_random(space_alg, rng):
    for _ in range(50):
        a, b, c = (random_mv(space_alg, rng) for _ in range(3))
        lhs, rhs = (a * b) * c, a * (b * c)
        assert lhs.isclose(rhs, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=24, max_size=24))
def test_exact_ring_axioms_small_integers(ints):
    # products of small integers are exact in floats, so associativity
    # and distributivity must hold with no tolerance at all
    alg = algebra(2, 0, 1)
    a = Multivector(alg, np.array(ints[:8], dtype=float))
    b = Multivector(alg, np.array(ints[8:16], dtype=float))
    c = Multivector(alg, np.array(ints[16:], dtype=float))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_vector_anticommutator_is_polarization(space_alg, rng):
    for _ in range(20):
        x = random_mv(space_alg, rng, grade=1)
        y = random_mv(space_alg, rng, grade=1)
        sym = x * y + y * x
        dot = 2.0 * (x | y).scalar_part
        assert sym.isclose(space_alg.scalar(dot), rel=1e-12)


def test_grade_decomposition(space_alg, rng):
    x = random_mv(space_alg, rng)
    total = space_alg.zero()
    for k in range(space_alg.dim + 1):
        total = total + x.grade(k)
    assert total == x


def test_outer_product_alternates(space_alg, rng):
    for _ in range(10):
        x = random_mv(space_alg, rng, grade=1)
        assert (x ^ x).isclose(space_alg.zero())


def test_outer_is_metric_independent(rng):
    # same wedge coefficients in the degenerate and the elliptic algebra
    a_deg, a_ell = algebra(2, 0, 1), algebra(3, 0, 0)
    co1, co2 = rng.normal(size=8), rng.normal(size=8)
    w_deg = Multivector(a_deg, co1) ^ Multivector(a_deg, co2)
    w_ell = Multivector(a_ell, co1) ^ Multivector(a_ell, co2)
    np.testing.assert_allclose(w_deg.coeffs, w_ell.coeffs, atol=1e-14)


def test_wedge_equals_grade_sum_part_of_product(plane_alg):
    a = plane_alg.blade("e0") - plane_alg.blade("e1")
    b = plane_alg.blade("e2")
    assert (a ^ b) == (a * b).grade(2)


def test_inner_examples(space_alg):
    e1, e0 = space_alg.blade("e1"), space_alg.blade("e0")
    assert (e1 | e1) == space_alg.scalar(1.0)
    assert (e0 | e0) == space_alg.zero()
    e12 = space_alg.blade("e12")
    assert (e12 | e12) == space_alg.scalar(-1.0)


def test_commutator(space_alg, rng):
    x = random_mv(space_alg, rng, grade=2)
    assert x.commutator(x).isclose(space_alg.zero())
    e12, e23 = space_alg.blade("e12"), space_alg.blade("e23")
    assert e12.commutator(e23) == -space_alg.blade("e31")
    # a point on the axis of a simple velocity bivector does not move
    origin = space_alg.blade("E0")
    assert e12.commutator(origin) == space_alg.zero()
    # matches the grade-2 part of the product on bivector pairs
    y = random_mv(space_alg, rng, grade=2)
    assert x.commutator(y).isclose((x * y).grade(2), rel=1e-12)


def test_reversion(space_alg, rng):
    e12 = space_alg.blade("e12")
    assert ~e12 == -e12
    a, b = random_mv(space_alg, rng), random_mv(space_alg, rng)
    assert (~(a * b)).isclose(~b * ~a, rel=1e-12)
    g = space_alg.scalar(1.0) + e12
    prod = ~g * g
    assert prod.grades() in ([0], [0, 4])


def test_grade_projection_of_product(space_alg):
    e1, e2 = space_alg.blade("e1"), space_alg.blade("e2")
    assert (e1 * e2).grade(2) == (e1 ^ e2)


def test_signature_mismatch(plane_alg, space_alg):
    with pytest.raises(SignatureMismatchError):
        plane_alg.scalar(1.0) * space_alg.scalar(1.0)


def test_scalar_interop(space_alg):
    x = space_alg.blade("e1")
    assert (2 * x - x) == x
    assert (x + 1)["1"] == 1.0
    assert (x / 2)["e1"] == 0.5
    assert len({x - x, -(x - x)}) == 1
    assert (x & 2.0) == join(x, space_alg.scalar(2.0))
    assert x.commutator(2.0) == space_alg.zero()
    # a scalar equals its number, so it hashes as the number too
    assert len({space_alg.scalar(1.0), 1.0}) == 1
    assert {1.0: "a"}[space_alg.scalar(1.0)] == "a"
    assert {0.0: "z"}[space_alg.scalar(-0.0)] == "z"
    assert space_alg.scalar(np.float32(0.5)) == np.float32(0.5)
    # the three blade lookups refuse an unknown name with one message
    for lookup in (space_alg.blade, lambda name: space_alg.multivector({name: 1.0}),
                   lambda name: x[name]):
        with pytest.raises(KeyError, match=re.escape("unknown blade 'e9' in Cl(3,0,1)")):
            lookup("e9")
    with pytest.raises(TypeError):
        x.isclose("x")
    # like ^ and |, & coerces numbers only; join and commutator name the type
    with pytest.raises(TypeError):
        x & "s"
    with pytest.raises(TypeError, match="float"):
        join(x, 2.0)
    with pytest.raises(TypeError, match="str"):
        join("s", x)
    with pytest.raises(TypeError, match="commutator"):
        x.commutator("s")


def test_immutability(space_alg, rng):
    x = space_alg.blade("e1")
    with pytest.raises(ValueError):
        x.coeffs[0] = 5.0
    with pytest.raises(AttributeError):
        x.coeffs = np.zeros(16)
    a, b = random_mv(space_alg, rng), random_mv(space_alg, rng)
    a0, b0 = a.coeffs.copy(), b.coeffs.copy()
    results = [a * b, a ^ b, a | b, a & b, a.commutator(b), ~a, a.dual(),
               a.grade(2), a + b, a - b, 1.0 - a, -a, 2.0 * a, a * 2.0, a / 2.0,
               point(space_alg, 1.0, 2.0, 3.0), ideal_point(space_alg, 1.0, 2.0, 3.0),
               biv_mv(space_alg, np.arange(6.0)), even_mv(space_alg, np.arange(8.0))]
    for r in results:
        assert not r.coeffs.flags.writeable
        assert not np.shares_memory(r.coeffs, a.coeffs)
        assert not np.shares_memory(r.coeffs, b.coeffs)
        with pytest.raises(ValueError):
            r.coeffs[0] = 5.0
        with pytest.raises(AttributeError):
            r.coeffs = np.zeros(16)
        with pytest.raises(AttributeError):
            r.algebra = space_alg
    np.testing.assert_array_equal(a.coeffs, a0)
    np.testing.assert_array_equal(b.coeffs, b0)
    # the public constructors and the embeddings copy the caller's array
    arr = rng.normal(size=16)
    want = arr.copy()
    made = [Multivector(space_alg, arr), space_alg.multivector(arr)]
    biv, even = arr[:6].copy(), arr[:8].copy()
    made += [biv_mv(space_alg, biv), even_mv(space_alg, even)]
    arr[:] = biv[:] = even[:] = 0.0
    np.testing.assert_array_equal(made[0].coeffs, want)
    np.testing.assert_array_equal(made[1].coeffs, want)
    np.testing.assert_array_equal(biv_coeffs(made[2]), want[:6])
    np.testing.assert_array_equal(made[3].coeffs[space_alg.even_indices], want[:8])
    # a coefficient array of any other shape is refused up front
    for bad in ([1.0, 2.0], np.zeros((1, 16))):
        for make in (space_alg.multivector,
                     lambda c: Multivector(space_alg, c)):
            with pytest.raises(ValueError, match="expected 16 coefficients"):
                make(bad)


def test_formatting(space_alg):
    x = space_alg.multivector({"1": 1.0, "e01": 2.0, "e23": -1.0})
    assert repr(x) == "1 + 2e01 - e23"
    assert repr(space_alg.zero()) == "0"
    y = space_alg.multivector({"1": float("nan"), "e01": -float("inf"),
                               "I": float("inf")})
    assert repr(y) == "nan - infe01 + infI"


def test_generic_dimensions_product_engine(rng):
    # engine accepts dims 2..6; check associativity away from the metric layer
    for sig in [(2, 0, 0), (4, 1, 0), (5, 0, 1)]:
        alg = algebra(*sig)
        a, b, c = (Multivector(alg, rng.normal(size=alg.n_blades))
                   for _ in range(3))
        assert ((a * b) * c).isclose(a * (b * c), rel=1e-11)
        perm = alg.complement_index
        assert np.array_equal(perm[perm], np.arange(alg.n_blades))


def test_products_match_dense_tables(oracle_alg, rng, monkeypatch):
    alg = oracle_alg
    pairs = [(random_mv(alg, rng), random_mv(alg, rng)) for _ in range(5)]
    calls = count_einsum(monkeypatch)
    got = [(a * b, a ^ b, a | b, a.commutator(b)) for a, b in pairs]
    assert calls == []
    monkeypatch.undo()
    two = alg.scalar(2.0)
    for a, b in pairs:
        # & is the join, and a number on the left acts as a scalar, bit for bit
        assert np.array_equal((a & b).coeffs, join(a, b).coeffs)
        for reflected, want in ((2.0 ^ a, two ^ a), (2.0 | a, two | a),
                                (2.0 & a, join(two, a))):
            assert np.array_equal(reflected.coeffs, want.coeffs)
        # the duality map is a gather by complementary blade
        assert np.array_equal(a.dual().coeffs, a.coeffs[alg.complement_index])
    # the outer product table is a grade mask of the geometric one; the
    # product of the fully degenerate metric is its independent reference
    assert np.array_equal(alg._op, alg._product_tensor((0,) * alg.dim))
    for (a, b), products in zip(pairs, got):
        for table, prod in zip((alg._gp, alg._op, alg._ip, alg._comm), products):
            assert_rel_close(prod.coeffs, np.einsum("i,j,ijk->k", a.coeffs,
                                                    b.coeffs, table))


def _sparse_operands(rng, n, count):
    """Seeded operands at scales 1e-5..1e5, a share of each set to zero."""
    x = rng.normal(size=(count, n)) * 10.0 ** rng.uniform(-5, 5, size=(count, n))
    x[rng.random((count, n)) < rng.uniform(0.0, 0.9, size=(count, 1))] = 0.0
    return x


@pytest.mark.parametrize("sig", [(2, 0, 1), (3, 0, 1), (4, 0, 0), (3, 1, 0)],
                         ids=lambda sig: "%d,%d,%d" % sig)
def test_the_dot_kernel_rounds_as_matmul_does(sig):
    # one operand pair takes np.dot; it must give the bits of two `@` mat-vecs
    alg = algebra(*sig)
    tables = [alg._gp_flat, alg._op_flat, alg._ip_flat, alg._comm_flat, alg._vee_flat]
    rng = np.random.default_rng(sum(sig))
    for table in tables:
        n = table.shape[0]              # every table here pairs operands of one length
        rows_a, rows_b = _sparse_operands(rng, n, 150), _sparse_operands(rng, n, 150)
        for a, b in zip(rows_a, rows_b):
            assert (_bilinear(a, b, table).tobytes()
                    == (b @ (a @ table).reshape(n, -1)).tobytes())


@pytest.mark.parametrize("sig", [(2, 0, 1), (3, 0, 1), (4, 0, 0), (3, 1, 0)],
                         ids=lambda sig: "%d,%d,%d" % sig)
def test_the_even_tables_sum_a_row_alone_as_in_a_stack(sig):
    # EvenTables.quadratic sums each slot elementwise in one fixed order: a
    # row of a stack has the bits of the row alone, and the sums are the
    # dense kernel's to rounding
    alg = algebra(*sig)
    ev = alg.even_tables
    rows = _sparse_operands(np.random.default_rng(sum(sig)), len(ev.even), 60)
    for table in (ev.rotor_norm, *ev.sandwich):
        stack = ev.quadratic(table, rows)
        dense = table.reshape(len(ev.even), -1)
        for g, got in zip(rows, stack):
            assert ev.quadratic(table, g).tobytes() == got.tobytes()
            assert np.abs(got - _bilinear(g, g, dense)).max() <= 1e-13 * np.abs(g).max() ** 2


def _grades_oracle(x, rel_tol):
    # the numpy route that Multivector.grades replaced
    mag = np.abs(x.coeffs)
    cutoff = rel_tol * float(mag.max(initial=0.0))
    live = mag > cutoff if 0.0 < cutoff < np.inf else x.coeffs != 0.0
    alg = x.algebra
    return np.bincount(alg.grades[live], minlength=alg.dim + 1).nonzero()[0].tolist()


@pytest.mark.parametrize("sig", [(2, 0, 1), (3, 0, 1), (4, 0, 0)],
                         ids=lambda sig: "%d,%d,%d" % sig)
def test_grades_with_a_tolerance_match_the_numpy_route(sig):
    alg = algebra(*sig)
    rng = np.random.default_rng(7 * sum(sig))
    for _ in range(400):
        x = Multivector(alg, awkward_coeffs(rng, alg.n_blades))
        for rel_tol in (0.0, 1e-12, 1e-9, 0.5, 2.0):
            assert x.grades(rel_tol) == _grades_oracle(x, rel_tol), (x.coeffs, rel_tol)

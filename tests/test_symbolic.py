"""Exact proofs, in sympy, of the integrator's generated code and of the
closed forms of the rotor, the pitch and the scalar inner product.

The package's own tables act on sympy symbols as object arrays, and the
generated source runs on them as it is, so each identity holds for every
input, not only for sampled ones.
"""

import textwrap

import numpy as np
import pytest
import sympy

from pgakit import algebra, dynamics, metric, pga3d
from pgakit.algebra import _bilinear, _wrap
from pgakit.metric import biv_mv, even_mv, polar_line
from pgakit.versors import normalize_rotor, sandwich

ALG = pga3d()
EVEN, BIV = ALG.even_indices, ALG.grade_indices[2]
NE, NB = len(EVEN), len(BIV)


def exact(values, simplify=sympy.expand):
    """Each value with its floats made the rationals they are, simplified."""
    out = []
    for v in map(sympy.sympify, values):
        out.append(simplify(v.xreplace({f: sympy.Rational(f)
                                        for f in v.atoms(sympy.Float)})))
    return out


def full(slots, coeffs):
    """A multivector's coefficients as an object array, zero off ``slots``."""
    arr = np.array([sympy.Integer(0)] * ALG.n_blades, dtype=object)
    arr[slots] = coeffs
    return arr


def blade(name):
    """A basis blade's coefficients as an object array of integers."""
    return np.array([sympy.Integer(int(c)) for c in ALG.blade(name).coeffs], dtype=object)


def step_body(start: str, end: str) -> str:
    """The lines of the generated loop function's first step from the one
    starting ``start`` up to the one starting ``end``, dedented."""
    lines = dynamics._rk4_source(ALG).split("\n")
    first = next(i for i, x in enumerate(lines) if x.strip().startswith(start))
    last = next(i for i, x in enumerate(lines) if i > first and x.strip().startswith(end))
    return textwrap.dedent("\n".join(lines[first:last]))


def first_slope(g, pi, force):
    """The slope of the generated step's first stage at ``(g, Pi)``, with
    the factory's principal inertia left as symbols."""
    scope = {**{f"y{i}": x for i, x in enumerate((*g, *pi))}, "force1": force,
             **{x: sympy.Symbol(x) for x in dynamics._BOUND}}
    exec(step_body("w3 =", "u0 ="), scope)
    return [scope[f"k1_{i}"] for i in range(NE + NB)]


G = sympy.symbols(f"g:{NE}")
PI = sympy.symbols(f"p:{NB}")
F = sympy.symbols(f"f:{NB}")
W = sympy.symbols(f"w:{NB}")


def test_the_principal_solve_is_six_products():
    # a diagonal form diag(a, a, a, d0, d1, d2): with the constants
    # integrate binds, -1 over the diagonal, the generated solve's six
    # products w_k = c_k v_k solve A Omega = Pi, that is form Omega =
    # -rev(Pi)
    a, *d = sympy.symbols("a d:3", positive=True)
    bound = {"ia": -1 / a, **{f"c{k}": -1 / d[k] for k in range(3)}}
    assert sorted(bound) == sorted(dynamics._BOUND)
    scope = {**bound, **{f"y{NE + i}": p for i, p in enumerate(PI)}}
    body = step_body("w3 =", "k1_0 =")
    assert body.count(" * ") == 6
    exec(body, scope)
    omega = np.array([scope[f"w{i}"] for i in range(NB)], dtype=object)
    residual = np.array(sympy.diag(a, a, a, *d)) @ omega + np.array(PI[::-1], dtype=object)
    assert exact(residual) == [0] * NB


def test_the_principal_frame_carries_the_diagonal_form_to_the_assembled_one():
    # the frame's motor m = T R, T translating by the centroid x and R = w
    # - q1 e23 - q2 e31 - q3 e12 for a unit quaternion, conjugates the
    # diagonal form diag(2M, 2M, 2M, rev(mu)) to inertia_assemble's blocks:
    # P^T diag P, P the sandwich X -> ~m X m, has 2M 1, -2 [c]x (columns
    # reversed) and 2S (reversed) for c = M x and S = S_c + M (|x|^2 1 -
    # x x^T), where 2 S_c = r diag(mu) r^T and r is R's rotation matrix,
    # whose columns are the principal axes
    q1, q2, q3 = sympy.symbols("q1:4", real=True)
    w = sympy.sqrt(1 - q1**2 - q2**2 - q3**2)
    x = np.array(sympy.symbols("x:3", real=True), dtype=object)
    mass, mu = sympy.Symbol("M", positive=True), sympy.symbols("mu:3", positive=True)
    rotor = w * blade("1") - q1 * blade("e23") - q2 * blade("e31") - q3 * blade("e12")
    shift = blade("1") - sum(xi / 2 * blade(f"e0{i + 1}") for i, xi in enumerate(x))
    m = _wrap(ALG, _bilinear(shift, rotor, ALG._gp_flat))
    units = np.eye(ALG.n_blades, dtype=int).astype(object)
    p = np.array([sandwich(~m, _wrap(ALG, units[k])).coeffs[BIV] for k in BIV]).T
    diagonal = np.array([2 * mass] * 3 + list(mu[::-1]), dtype=object)
    r = np.array([[1 - 2 * (q2**2 + q3**2), 2 * (q1 * q2 - q3 * w), 2 * (q1 * q3 + q2 * w)],
                  [2 * (q1 * q2 + q3 * w), 1 - 2 * (q1**2 + q3**2), 2 * (q2 * q3 - q1 * w)],
                  [2 * (q1 * q3 - q2 * w), 2 * (q2 * q3 + q1 * w), 1 - 2 * (q1**2 + q2**2)]])
    s = r @ np.diag(mu) @ r.T / 2 + mass * ((x @ x) * np.eye(3, dtype=int) - np.outer(x, x))
    cross = 2 * np.cross(mass * x, np.eye(3, dtype=int))[:, ::-1]
    want = np.block([[2 * mass * np.eye(3, dtype=int), cross], [cross.T, 2 * s[::-1, ::-1]]])
    assert exact((p.T @ (diagonal[:, None] * p) - want).ravel()) == [0] * 36


def test_the_assembled_form_is_the_particle_momentum():
    # one particle of mass m at x has M = m, c = m x and S = m (|x|^2 1 -
    # x x^T); _form of these, applied as ``operator`` applies it, Pi =
    # -rev(form Omega), is momentum_of_body's 2 m R v (Omega x R) for any
    # m, x and Omega.  The form is linear in the particles, so this holds
    # for every body
    m = sympy.Symbol("m")
    x = np.array(sympy.symbols("x:3"), dtype=object)
    s = m * ((x @ x) * np.eye(3, dtype=int) - np.outer(x, x))
    got = -(dynamics._form(m, m * x, s) @ np.array(W, dtype=object))[::-1]
    r = full(ALG.grade_indices[3], [1, *x])
    spear = _bilinear(r, 2 * _bilinear(full(BIV, W), r, ALG._comm_flat), ALG._vee_flat)
    assert exact(got - m * spear[BIV]) == [0] * NB


def test_the_emitted_force_is_the_sandwich_of_the_reversed_rotor():
    # with no momentum the momentum slope is the force term alone, (q (r +
    # 2d))_2 with q = ~r F for the euclidean and ideal parts r and d of g
    # (integrate tabulates F halved, as the slope is)
    got = first_slope(G, [0] * NB, F)[NE:]
    want = sandwich(~_wrap(ALG, full(EVEN, G)), _wrap(ALG, full(BIV, F))).coeffs
    assert exact(want[np.setdiff1d(np.arange(ALG.n_blades), BIV)]) == [0] * 10
    assert exact(got) == exact(want[BIV])


def test_the_emitted_slope_is_the_motion_equations():
    # (g Omega, Pi x Omega), from the full tables, at any Omega: the motion
    # equations (g Omega, 2 Pi x Omega) with the momentum slope halved; the
    # step takes the factor 2 back in its momentum step sizes h, 2h, h/3
    scope = {**{f"y{i}": x for i, x in enumerate((*G, *PI))},
             **{f"w{i}": x for i, x in enumerate(W)}}
    exec(step_body("k1_0 =", "if force1"), scope)
    got = [scope[f"k1_{i}"] for i in range(NE + NB)]
    omega = full(BIV, W)
    g_omega = _bilinear(full(EVEN, G), omega, ALG._gp_flat)[EVEN]
    torque = 2 * _bilinear(full(BIV, PI), omega, ALG._comm_flat)[BIV]
    assert exact(got) == exact([*g_omega, *(torque / 2)])


def _normalize_rotor(ge):
    # normalize_rotor's closed form on the even coefficients
    tables = ALG.even_tables
    a, b = _bilinear(ge, ge, tables.rotor_norm.reshape(NE, -1))
    return (ge - b / (2 * a) * (tables.times_i @ ge)) / sympy.sqrt(a)


def _renormalize_step(ge):
    # the generated step's renormalization, run as it is but for the
    # check that only raises (a comparison sympy cannot decide)
    names = ", ".join(f"n{i}" for i in range(NE))
    lines = step_body("z0 =", "if not (0.0 < z0") + "\n" + step_body("zq =", "t = t4")
    rotor = ", ".join(f"y{i}" for i in range(NE))
    code = f"def tail({names}):\n" + textwrap.indent(f"{lines}\nreturn {rotor}", "    ")
    scope = {"sqrt": sympy.sqrt}
    exec(code, scope)
    return np.array(scope["tail"](*ge), dtype=object)


@pytest.mark.parametrize("route", [_normalize_rotor, _renormalize_step],
                         ids=["normalize_rotor", "step"])
def test_the_closed_form_lands_on_the_rotor_manifold(route, rng):
    # g ~g = 1 exactly, from the full geometric product table
    r = route(np.array(G, dtype=object))
    rr = _bilinear(full(EVEN, r), full(EVEN, r * ALG._rev_signs[EVEN]), ALG._gp_flat)
    assert exact(rr, sympy.simplify) == [1] + [0] * (ALG.n_blades - 1)
    # and it is what normalize_rotor computes
    ge = rng.normal(size=NE)
    want = normalize_rotor(even_mv(ALG, ge)).coeffs[EVEN]
    got = np.array([float(x.subs(dict(zip(G, ge)))) for x in r])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())


def test_the_even_tables_evaluator_is_exact():
    # EvenTables.quadratic's term lists, run on a symbolic g as they are,
    # give the scalar and pseudoscalar parts of g ~g and, on grades 2 and
    # 3, the matrix of X -> g X ~g, both from the full product table
    tables, g = ALG.even_tables, _wrap(ALG, full(EVEN, G))
    norm = sandwich(g, _wrap(ALG, blade("1"))).coeffs[[0, ALG.pseudoscalar_index]]
    assert exact(tables.quadratic(tables.rotor_norm, np.array(G, dtype=object))
                 - norm) == [0, 0]
    for k in (2, 3):
        blades = ALG.grade_indices[k]
        got = tables.quadratic(tables.sandwich[k], np.array(G, dtype=object))
        want = np.array([sandwich(g, _wrap(ALG, blade(ALG.blade_names[j]))).coeffs[blades]
                         for j in blades]).T
        assert exact(got - want.ravel()) == [0] * len(got)


def _pluecker(a, b):
    # pluecker(a, b): the pseudoscalar part of a ^ b, from the outer table
    return _bilinear(a, b, ALG._op_flat)[ALG.pseudoscalar_index]


def test_the_pitch_is_a_ratio_of_pluecker_pairings(monkeypatch, rng):
    # bivector_pitch's -2 (i . rev(e / |e|)) / |e|, run as it is on symbols,
    # is -pluecker(xi, xi) / pluecker(xi, polar_line(xi)), polar_line(xi)
    # being -(xi I)
    xi = full(BIV, sympy.symbols(f"p:{NB}", real=True))
    monkeypatch.setattr(metric, "_norm", lambda c: sympy.sqrt(sum(x * x for x in c)))
    monkeypatch.setattr(metric, "_negligible", lambda part, whole: False)
    got = metric.bivector_pitch(_wrap(ALG, xi)).value
    polar = -_bilinear(xi, full([ALG.pseudoscalar_index], [1]), ALG._gp_flat)
    assert exact([got + _pluecker(xi, xi) / _pluecker(xi, polar)], sympy.simplify) == [0]
    monkeypatch.undo()
    c = rng.normal(size=NB)
    assert np.array_equal(polar_line(biv_mv(ALG, c)).coeffs,
                          -(biv_mv(ALG, c) * ALG.blade("I")).coeffs)


@pytest.mark.parametrize("sig", [(4, 0, 0), (3, 1, 0)], ids=["elliptic", "hyperbolic"])
def test_the_scalar_inner_product_is_a_signed_dot(sig):
    # noneuclidean_distance's (x | y)_0 = sum_i d_i x_i y_i, for all x, y
    alg = algebra(*sig)
    x, y = (np.array(sympy.symbols(f"{v}:{alg.n_blades}"), dtype=object) for v in "xy")
    want = _bilinear(x, y, alg._ip_flat)[0]
    assert exact([metric._dot(alg._scalar_ip, x * y) - want]) == [0]

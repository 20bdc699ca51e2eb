"""Euclidean geometry on the degenerate algebras Cl(2,0,1) and Cl(3,0,1).

Elements live in the plane-based algebra: 1-vectors are lines (2D) or
planes (3D), top-grade-minus-one blades are points, and 3D grade-2
elements are lines in their axis aspect, with Pluecker coordinates
``(p01, p02, p03, p12, p31, p23)``.  Points and planes embed as

    (x, y, z)           ->  E0 + x E1 + y E2 + z E3
    a x + b y + c z + d ->  d e0 + a e1 + b e2 + c e3

Ideal elements (zero weight / zero spatial part) are the points and
lines at infinity; ideal points double as free vectors.  One noise rule,
``_negligible``, says what is ideal, whatever the scale: an element whose
euclidean part (the blades without ``e0``) is at most 1e-12 of its
largest coefficient of that grade, and a rotor whose rotation part is
that small next to its euclidean part, which is 1 however far it moves.
Every norm and distance is one ``math.hypot`` (``_norm``), which scales
before it squares: nothing over- or underflows, and ``2**k x`` gives ``2**k``
times the answer, bit for bit.

Everything here is a pure function of immutable multivectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

import numpy as np

from .algebra import Algebra, Multivector, _bilinear, _peak, _wrap
from .duality import join

SIMPLE_REL_TOL = 1e-9
_EPS = 1e-12
_DUST = 1e-9   # grades(rel_tol=...): a part under this share of the largest is dust


class DegenerateElementError(ValueError):
    """An ideal or null element where a euclidean one is required."""


_PGA_NAMES = {3: "the planar algebra Cl(2,0,1)", 4: "the spatial algebra Cl(3,0,1)"}


def _require_pga(alg: Algebra, what: str, dims: tuple = (3, 4)) -> Algebra:
    """``alg`` itself if it is Cl(2,0,1) or Cl(3,0,1) with a dimension in
    ``dims``; otherwise ``ValueError`` naming ``what`` and ``alg``'s signature.
    The one test of which algebra a euclidean function takes."""
    s = alg.signature
    if s.z != 1 or s.n or alg.dim not in dims:
        names = " or ".join(_PGA_NAMES[d] for d in dims)
        raise ValueError(f"{what} needs {names}, not Cl{s}")
    return alg


# ---------------------------------------------------------------------------
# embeddings


def point(alg: Algebra, *coords: float) -> Multivector:
    """Embed a position as a unit-weight point."""
    _expect_coords(alg, coords, "point")
    return alg.embed(alg._grade_runs[alg.dim - 1], (1.0, *coords))


def ideal_point(alg: Algebra, *coords: float) -> Multivector:
    """Embed a free vector as a point on the ideal line/plane."""
    _expect_coords(alg, coords, "ideal_point")
    return alg.embed(alg.grade_indices[alg.dim - 1][1:], coords)


def line2d(alg: Algebra, a: float, b: float, c: float) -> Multivector:
    """The line a x + b y + c = 0 as a 1-vector of Cl(2,0,1)."""
    _require_pga(alg, "line2d", (3,))
    return alg.embed(alg._grade_runs[1], (c, a, b))


def plane(alg: Algebra, a: float, b: float, c: float, d: float) -> Multivector:
    """The plane a x + b y + c z + d = 0 as a 1-vector of Cl(3,0,1)."""
    _require_pga(alg, "plane", (4,))
    return alg.embed(alg._grade_runs[1], (d, a, b, c))


def _negligible(part, whole) -> bool:
    """Whether ``part``'s largest magnitude is at most ``_EPS`` times
    ``whole``'s; never when either holds a NaN."""
    return _peak(part) <= _EPS * _peak(whole)


def _euclidean_split(x: Multivector, k: int) -> tuple[list, list]:
    """Grade ``k`` of ``x`` split into its euclidean part (the floats on blades
    that square to non-zero; in PGA, those without ``e0``) and its ideal part."""
    alg, c = x.algebra, x.coeffs.tolist()
    return [c[i] for i in alg._nonnull_slots[k]], [c[i] for i in alg._null_slots[k]]


def _norm(c) -> float:
    """The 2-norm of the floats ``c``, scaled before it is squared."""
    return math.hypot(*c)


def _dot(a, b) -> float:
    """The sum of the products of the floats ``a`` and ``b``, in order."""
    return sum(map(mul, a, b))


def _clamp(c: float, lo: float, hi: float = math.inf) -> float:
    """``c`` clipped to ``[lo, hi]``; NaN stays NaN (``min``/``max`` drop it)."""
    return c if math.isnan(c) else max(lo, min(hi, c))


def _expect_coords(alg, coords, what):
    _require_pga(alg, what)
    if len(coords) != alg.dim - 1:
        raise ValueError(f"expected {alg.dim - 1} coordinates, got {len(coords)}")


def point_weight(x: Multivector) -> float:
    """Signed weight: the coefficient of E0."""
    _require_pga(x.algebra, "point_weight")
    return x["E0"]


def point_coords(x: Multivector) -> tuple[float, ...]:
    """Dehomogenized position of a finite point.

    Divides by the signed weight, so an odd sandwich's orientation flip
    disappears here; read the raw trivector coefficients to keep it.
    """
    _require_pga(x.algebra, "point_coords")
    w, *coords = x.coeffs[x.algebra._grade_runs[x.algebra.dim - 1]].tolist()
    if _negligible((w,), coords):
        raise DegenerateElementError("ideal point has no position")
    return tuple(c / w for c in coords)


def pseudo_part(x: Multivector) -> float:
    """Scalar magnitude of the pseudoscalar part (the grade-top slot)."""
    return x.pseudo_part


# ---------------------------------------------------------------------------
# norms


def vector_norm(a: Multivector) -> float:
    """Norm sqrt(a . a) of a line or plane: the 2-norm of its euclidean part."""
    return _norm(_euclidean_split(a, 1)[0])


def killing_norm(xi: Multivector) -> float:
    """Norm sqrt(-xi . xi) of a 3D bivector: the 2-norm of its euclidean part."""
    _require_pga(xi.algebra, "killing_norm", (4,))
    return _norm(_euclidean_split(xi, 2)[0])


def ideal_norm(v: Multivector) -> float:
    """Length of an ideal point or line: the 2-norm of its ideal part, which
    is ``|| v join P ||`` for each and every unit euclidean point ``P``."""
    _require_pga(v.algebra, "ideal_norm")
    ks = v.grades(rel_tol=_DUST)
    if not ks:
        return 0.0
    if len(ks) != 1 or ks[0] not in (2, v.algebra.dim - 1):
        raise DegenerateElementError("ideal norm needs an ideal point or line")
    return _norm(_euclidean_split(v, ks[0])[1])


def normalize(x: Multivector) -> Multivector:
    """Scale a single-grade element to its natural unit intensity.

    Lines/planes get unit euclidean norm, finite points unit weight
    (sign preserved), euclidean 3D bivectors unit Killing norm, ideal
    points and ideal lines unit length.  Fully degenerate input (an
    ideal 1-vector such as e0) raises.
    """
    _require_pga(x.algebra, "normalize")
    ks = x.grades(rel_tol=_DUST)
    if not ks:
        raise DegenerateElementError("cannot normalize the zero element")
    if len(ks) != 1:
        raise ValueError("normalize expects a homogeneous-grade element")
    (k,) = ks
    part, ideal_part = _euclidean_split(x, k)
    ideal = _negligible(part, ideal_part)
    if k == 1:
        if ideal:
            raise DegenerateElementError("ideal line/plane cannot be normalized")
        return x / _norm(part)
    if k == x.algebra.dim - 1:       # the euclidean part of a point is its weight
        return x / (_norm(ideal_part) if ideal else part[0])
    if k == 2 and x.algebra.dim == 4:
        return x / _norm(ideal_part if ideal else part)
    raise ValueError(f"no normalization convention for grade {k}")


# ---------------------------------------------------------------------------
# distance and angle


def distance(p: Multivector, q: Multivector) -> float:
    """Distance of normalized points: the 2-norm of the euclidean part of
    ``P join Q``, which is ``w_p x_q - w_q x_p`` for weights ``w`` and other
    slots ``x``; the join's ideal slots, which may overflow, are not formed."""
    _require_pga(p.algebra, "distance")
    run = p.algebra._grade_runs[p.algebra.dim - 1]
    w_p, *x_p = p.coeffs[run].tolist()
    w_q, *x_q = q.coeffs[run].tolist()
    return _norm([w_p * b - w_q * a for a, b in zip(x_p, x_q)])


def angle(a: Multivector, b: Multivector) -> float:
    """Angle between normalized 1-vectors: arccos(a . b)."""
    return math.acos(_clamp((a | b).scalar_part, -1.0, 1.0))


def line_angle(xi: Multivector, phi: Multivector) -> float:
    """Angle between the directions of two normalized euclidean 3D lines."""
    return math.acos(_clamp(-(xi | phi).scalar_part, -1.0, 1.0))


def point_nd(alg: Algebra, *coords: float) -> Multivector:
    """A point of a non-degenerate model as a 1-vector (x0, x1, ...)."""
    if len(coords) != alg.dim:
        raise ValueError(f"expected {alg.dim} homogeneous coordinates")
    return alg.embed(alg._grade_runs[1], coords)


def noneuclidean_distance(x: Multivector, y: Multivector) -> float:
    """Distance in the elliptic (4,0,0) or hyperbolic (3,1,0) metric.

    Arguments are points given as 1-vectors of the respective algebra;
    a part of another grade raises ``ValueError``.
    Null arguments (on the metric quadric) have no defined distance.  Both
    are scaled to a largest coefficient of 1 first, so no scale matters.
    Each ``(x | y)_0`` is ``sum_i d_i x_i y_i`` for the signs ``d`` of the
    blade squares, read off the inner-product table.
    """
    sig, d, run = x.algebra.signature, x.algebra._scalar_ip, x.algebra._grade_runs[1]
    x, y = x.coeffs.tolist(), y.coeffs.tolist()
    if any(x[:run.start] + x[run.stop:] + y[:run.start] + y[run.stop:]):
        raise ValueError("noneuclidean_distance takes points as 1-vectors")
    top_x, top_y = _peak(x) or 1.0, _peak(y) or 1.0
    x, y = [a / top_x for a in x], [a / top_y for a in y]
    xx, yy, xy = _dot(d, map(mul, x, x)), _dot(d, map(mul, y, y)), _dot(d, map(mul, x, y))
    scale = max(_dot(x, x), _dot(y, y))
    if abs(xx) <= _EPS * scale or abs(yy) <= _EPS * scale:
        raise DegenerateElementError("null vector has no distance")
    if (sig.p, sig.n, sig.z) == (4, 0, 0):
        return math.acos(_clamp(xy / math.sqrt(xx * yy), -1.0, 1.0))
    if (sig.p, sig.n, sig.z) == (3, 1, 0):
        if xx > 0 or yy > 0:
            raise DegenerateElementError("hyperbolic points lie inside the ball")
        return math.acosh(_clamp(-xy / math.sqrt(xx * yy), 1.0))
    raise ValueError(f"no distance formula for signature {sig}")


# ---------------------------------------------------------------------------
# 3D line geometry


def biv_coeffs(x: Multivector) -> np.ndarray:
    """The six Pluecker coordinates of a grade-2 element."""
    return x.coeffs[x.algebra._grade_runs[2]].copy()


def biv_mv(alg: Algebra, coeffs) -> Multivector:
    """The grade-2 element with the given coefficients, in basis order."""
    return alg.embed(alg._grade_runs[2], coeffs)


def even_mv(alg: Algebra, coeffs) -> Multivector:
    """The even element with the given coefficients, in basis order.

    In Cl(3,0,1) that is ``(1, e01, e02, e03, e12, e31, e23, I)``.
    """
    return alg.embed(alg.even_indices, coeffs)


def pluecker(a: Multivector, b: Multivector) -> float:
    """Pluecker inner product: ``a ^ b = pluecker(a, b) I``.

    Symmetric; vanishing means the two lines are in involution (simple
    lines: they meet).  Note the self-pairing carries a factor two:
    ``pluecker(x, x) = 2 (p01 p23 + p02 p31 + p03 p12)``.
    """
    return (a ^ b).pseudo_part


def is_simple(xi: Multivector) -> bool:
    """Whether the bivector factors as a wedge of planes, i.e. is a line; it is
    scaled to a largest coefficient of 1 before it is paired with itself."""
    y = xi / (np.abs(xi.coeffs).max() or 1.0)
    return abs(pluecker(y, y)) <= SIMPLE_REL_TOL * _norm(biv_coeffs(y)) ** 2


def bivector_split(xi: Multivector) -> tuple[Multivector, Multivector]:
    """Unique decomposition into an ideal line plus a line through the origin."""
    _require_pga(xi.algebra, "bivector_split", (4,))
    c = biv_coeffs(xi)
    alg = xi.algebra
    return (biv_mv(alg, [c[0], c[1], c[2], 0, 0, 0]),
            biv_mv(alg, [0, 0, 0, c[3], c[4], c[5]]))


def direction(xi: Multivector) -> Multivector:
    """Direction of a euclidean bivector as an ideal point.

    Coordinate rule: the euclidean part (p12, p31, p23) read as the
    vector (p23, p31, p12).  Invariant under adding ideal lines.
    """
    _require_pga(xi.algebra, "direction", (4,))
    c = biv_coeffs(xi)
    return ideal_point(xi.algebra, c[5], c[4], c[3])


def polar_line(xi: Multivector) -> Multivector:
    """Ideal line orthogonal to the direction of ``xi``.

    Coordinate form of the euclidean polarity on lines; the raw product
    ``xi * I`` gives the oppositely oriented representative.
    """
    _require_pga(xi.algebra, "polar_line", (4,))
    c = biv_coeffs(xi)
    return biv_mv(xi.algebra, [c[5], c[4], c[3], 0.0, 0.0, 0.0])


def bivector_axis(xi: Multivector) -> Multivector:
    """The unique euclidean line in the span of ``xi`` and ``xi I``.

    Every euclidean bivector factors as ``(t + u I) A`` with ``A`` a unit
    line.  Write the Pluecker coordinates as ``(i, e)``, with
    ``rev(e) = (p23, p31, p12)``, ``l = e . e`` and ``m = i . rev(e)``,
    so that ``xi xi = -l + 2 m I``; then, with ``f = e / |e|``,

        A = (i - (m / l) rev(e), e) / sqrt(l) = ((i - (i . rev(f)) rev(f)) / |e|, f)

    squares to -1 and keeps the orientation of the euclidean part.  A
    translator's bivector is ideal and has no axis.
    """
    _require_pga(xi.algebra, "bivector_axis", (4,))
    c = xi.coeffs[xi.algebra._grade_runs[2]].tolist()
    if not any(c[3:]) or _negligible(c[3:], c[:3]):
        raise DegenerateElementError("ideal bivector has no axis")
    return biv_mv(xi.algebra, _axis_coeffs(c))


def _axis_coeffs(c: list) -> list:
    """:func:`bivector_axis` on Pluecker coordinates whose ``e`` is not zero."""
    i, e = c[:3], c[3:]
    n = _norm(e)
    f = [x / n for x in e]
    rev_f = f[::-1]
    d = _dot(i, rev_f)
    return [(a - d * r) / n for a, r in zip(i, rev_f)] + f


@dataclass(frozen=True)
class Pitch:
    """Translation-per-rotation ratio of a screw; a tagged value so the
    translator case is an explicit branch rather than a float infinity."""

    finite: bool
    value: float | None = None


def bivector_pitch(xi: Multivector) -> Pitch:
    """Pitch of a euclidean bivector: zero for lines, infinite for ideal.

    For the screw generator ``(t + u I) Phi`` the value is ``2u/t``; on the
    Pluecker coordinates ``(i, e)``, ``-2 (i . rev(e / |e|)) / |e|``.
    """
    _require_pga(xi.algebra, "bivector_pitch", (4,))
    e, i = _euclidean_split(xi, 2)
    if not (any(e) or any(i)):
        raise DegenerateElementError("zero bivector has no pitch")
    if _negligible(e, i):
        return Pitch(False)
    n = _norm(e)
    return Pitch(True, -2.0 * _dot(i, [x / n for x in e[::-1]]) / n)


class DualParts(NamedTuple):
    """Scalar and pseudoscalar parts ``re + du I``, read as two floats
    (tuple ``+`` and ``*`` concatenate and repeat: no dual arithmetic)."""

    re: float
    du: float


def dual_angle(xi: Multivector, phi: Multivector) -> DualParts:
    """Dual angle cos(a) - d sin(a) I for normalized simple lines.

    Measures the angle between the directions and the distance along
    the common normal at once.  The overall sign is fixed by making the
    real part non-negative.
    """
    x = xi * phi
    re, du = x.scalar_part, x.pseudo_part
    if re < 0 or (re == 0 and du < 0):
        re, du = -re, -du
    return DualParts(re, du)


# ---------------------------------------------------------------------------
# null system


def null_plane(p: Multivector, xi: Multivector) -> Multivector:
    """The plane of null lines through ``p``: ``xi join p``.

    For a simple ``xi`` this is the joining plane of point and line,
    zero when the point lies on the line.
    """
    return join(xi, p)


def null_point(a: Multivector, xi: Multivector) -> Multivector:
    """The point of null lines in the plane ``a``: ``xi ^ a``.

    For a simple ``xi`` this is where the line pierces the plane.
    """
    return xi ^ a


# ---------------------------------------------------------------------------
# inverses and projections


def _inverse(x: Multivector, k: int) -> Multivector:
    """``x / (x . x)``, the inverse of a euclidean grade-``k`` blade, where
    ``x . x`` is ``|x|^2`` times the sign of the reverse on grade ``k``."""
    part, ideal_part = _euclidean_split(x, k)
    if _negligible(part, ideal_part):
        raise DegenerateElementError(f"ideal grade-{k} element has no inverse")
    n, alg = _norm(part), x.algebra
    if _peak(x.coeffs.tolist()) / n / n == math.inf:
        raise DegenerateElementError(f"grade-{k} element too small to invert")
    return x / (alg._rev_signs[alg.grade_indices[k][0]] * n) / n


def project_point_to_line(p: Multivector, xi: Multivector) -> Multivector:
    """Foot of the perpendicular from a point to a euclidean line."""
    return (p | xi) * _inverse(xi, 2)


def project_line_to_plane(xi: Multivector, a: Multivector) -> Multivector:
    """Orthogonal projection of a 3D line into a euclidean plane."""
    return (xi | a) * _inverse(a, 1)


def perp_through_point(p: Multivector, a: Multivector) -> Multivector:
    """The perpendicular to a line (2D) or plane (3D) through a point: p . a."""
    return p | a


def common_normal(xi: Multivector, phi: Multivector) -> Multivector:
    """The mutual perpendicular of two non-parallel euclidean lines.

    The commutator of the two lines is in involution with both; its
    axis meets both at right angles.  Parallel or identical lines leave
    the commutator without a euclidean part.
    """
    _require_pga(xi.algebra, "common_normal", (4,))
    theta = xi.commutator(phi)
    try:
        return bivector_axis(theta)
    except DegenerateElementError:
        raise DegenerateElementError(
            "parallel or identical lines have no unique common normal") from None


# ---------------------------------------------------------------------------
# joins of positions (conveniences used all over the tests and demos)


def line3d_through(alg: Algebra, a: tuple, b: tuple) -> Multivector:
    return _scaled_join(alg, "line3d_through", (1.0, *a), (1.0, *b))


line2d_through = line3d_through


def line3d_point_dir(alg: Algebra, p: tuple, v: tuple) -> Multivector:
    return _scaled_join(alg, "line3d_point_dir", (1.0, *p), (0.0, *v))


def _scaled_join(alg: Algebra, what: str, *points: tuple) -> Multivector:
    """The join of two points given as ``(weight, *coords)``, for ``what``.

    Each point is first divided by ``2**e``, ``e`` the ``math.frexp``
    exponent of its largest coordinate, and the join multiplied back by
    both powers: far coordinates then cannot overflow in a product before
    they cancel.  Scaling by a power of two is exact, so ordinary inputs
    give the same bits as the plain join.
    """
    scaled, total = [], 0
    for weight, *coords in points:
        _expect_coords(alg, coords, what)
        e = math.frexp(max(map(abs, coords)))[1]
        arr = np.zeros(alg.n_blades)
        arr[alg._grade_runs[alg.dim - 1]] = [math.ldexp(c, -e) for c in (weight, *coords)]
        scaled.append(arr)
        total += e
    return _wrap(alg, np.ldexp(_bilinear(*scaled, alg._vee_flat), total))

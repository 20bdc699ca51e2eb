"""Euclidean geometry on the degenerate algebras Cl(2,0,1) and Cl(3,0,1).

Elements live in the plane-based algebra: 1-vectors are lines (2D) or
planes (3D), top-grade-minus-one blades are points, and 3D grade-2
elements are lines in their axis aspect, with Pluecker coordinates
``(p01, p02, p03, p12, p31, p23)``.  Points and planes embed as

    (x, y, z)           ->  E0 + x E1 + y E2 + z E3
    a x + b y + c z + d ->  d e0 + a e1 + b e2 + c e3

Ideal elements (zero weight / zero spatial part) are the points and
lines at infinity; ideal points double as free vectors.

Everything here is a pure function of immutable multivectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import Algebra, Multivector
from .duality import join

SIMPLE_REL_TOL = 1e-9
_EPS = 1e-12
_DUST = 1e-9   # grades(rel_tol=...): a part under this share of the largest is dust


class DegenerateElementError(ValueError):
    """An ideal or null element where a euclidean one is required."""


# ---------------------------------------------------------------------------
# embeddings


def point(alg: Algebra, *coords: float) -> Multivector:
    """Embed a position as a unit-weight point."""
    _expect_coords(alg, coords)
    return alg.embed(alg.grade_indices[alg.dim - 1], (1.0, *coords))


def ideal_point(alg: Algebra, *coords: float) -> Multivector:
    """Embed a free vector as a point on the ideal line/plane."""
    _expect_coords(alg, coords)
    return alg.embed(alg.grade_indices[alg.dim - 1][1:], coords)


def line2d(alg: Algebra, a: float, b: float, c: float) -> Multivector:
    """The line a x + b y + c = 0 as a 1-vector of Cl(2,0,1)."""
    if alg.dim != 3:
        raise ValueError("line2d needs the planar algebra")
    return alg.multivector({"e0": c, "e1": a, "e2": b})


def plane(alg: Algebra, a: float, b: float, c: float, d: float) -> Multivector:
    """The plane a x + b y + c z + d = 0 as a 1-vector of Cl(3,0,1)."""
    if alg.dim != 4:
        raise ValueError("plane needs the spatial algebra")
    return alg.multivector({"e0": d, "e1": a, "e2": b, "e3": c})


def _clamp(c: float, lo: float, hi: float = math.inf) -> float:
    """``c`` clipped to ``[lo, hi]``; NaN stays NaN (``min``/``max`` drop it)."""
    return c if math.isnan(c) else max(lo, min(hi, c))


def _expect_coords(alg, coords):
    if alg.dim not in (3, 4):
        raise ValueError("the euclidean layer supports the planar and "
                         "spatial algebras only")
    if len(coords) != alg.dim - 1:
        raise ValueError(f"expected {alg.dim - 1} coordinates, got {len(coords)}")


def point_weight(x: Multivector) -> float:
    """Signed weight: the coefficient of E0."""
    return x[f"E0"]


def point_coords(x: Multivector) -> tuple[float, ...]:
    """Dehomogenized position of a finite point.

    Divides by the signed weight, so an odd sandwich's orientation flip
    disappears here; read the raw trivector coefficients to keep it.
    """
    w = point_weight(x)
    if abs(w) <= _EPS * max(1.0, np.abs(x.coeffs).max()):
        raise DegenerateElementError("ideal point has no position")
    idx = x.algebra.grade_indices[x.algebra.dim - 1][1:]
    return tuple(float(c) / w for c in x.coeffs[idx])


def pseudo_part(x: Multivector) -> float:
    """Scalar magnitude of the pseudoscalar part (the grade-top slot)."""
    return x.pseudo_part


# ---------------------------------------------------------------------------
# norms


def vector_norm(a: Multivector) -> float:
    """Euclidean norm sqrt(a . a) of a grade-1 element (line or plane)."""
    return math.sqrt(max((a | a).scalar_part, 0.0))


def killing_norm(xi: Multivector) -> float:
    """Norm sqrt(-xi . xi) of a euclidean 3D line/bivector."""
    return math.sqrt(max(-(xi | xi).scalar_part, 0.0))


def ideal_norm(v: Multivector, probe: Multivector | None = None) -> float:
    """Length of an ideal element, via ``|| v join P ||``.

    The result does not depend on the choice of the normalized
    euclidean probe point ``P`` (default: the origin).
    """
    if probe is None:
        probe = point(v.algebra, *([0.0] * (v.algebra.dim - 1)))
    j = join(v, probe)
    k = j.grades(rel_tol=_DUST)
    if k == [1]:
        return vector_norm(j)
    if k == [2]:
        return killing_norm(j)
    if not k:
        return 0.0
    raise DegenerateElementError("ideal norm needs an ideal point or line")


def normalize(x: Multivector) -> Multivector:
    """Scale a single-grade element to its natural unit intensity.

    Lines/planes get unit euclidean norm, finite points unit weight
    (sign preserved), euclidean 3D bivectors unit Killing norm, ideal
    points and ideal lines unit length.  Fully degenerate input (an
    ideal 1-vector such as e0) raises.
    """
    ks = x.grades(rel_tol=_DUST)
    if not ks:
        raise DegenerateElementError("cannot normalize the zero element")
    if len(ks) != 1:
        raise ValueError("normalize expects a homogeneous-grade element")
    (k,) = ks
    scale = float(np.abs(x.coeffs).max())
    dim = x.algebra.dim
    if k == 1:
        n = vector_norm(x)
        if n <= _EPS * scale:
            raise DegenerateElementError("ideal line/plane cannot be normalized")
        return x / n
    if k == dim - 1:
        w = point_weight(x)
        if abs(w) > _EPS * scale:
            return x / w
        return x / ideal_norm(x)
    if k == 2 and dim == 4:
        n = killing_norm(x)
        if n > _EPS * scale:
            return x / n
        return x / ideal_norm(x)
    raise ValueError(f"no normalization convention for grade {k}")


# ---------------------------------------------------------------------------
# distance and angle


def distance(p: Multivector, q: Multivector) -> float:
    """Euclidean distance of two normalized points: ``|| P join Q ||``."""
    j = join(p, q)
    return vector_norm(j) if p.algebra.dim == 3 else killing_norm(j)


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
    return alg.embed(alg.grade_indices[1], coords)


def noneuclidean_distance(x: Multivector, y: Multivector) -> float:
    """Distance in the elliptic (4,0,0) or hyperbolic (3,1,0) metric.

    Arguments are points given as 1-vectors of the respective algebra.
    Null arguments (on the metric quadric) have no defined distance.
    """
    sig = x.algebra.signature
    xx = (x | x).scalar_part
    yy = (y | y).scalar_part
    xy = (x | y).scalar_part
    scale = max(x.norm2(), y.norm2())
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
    return np.array(x.coeffs[x.algebra.grade_indices[2]])


def biv_mv(alg: Algebra, coeffs) -> Multivector:
    """The grade-2 element with the given coefficients, in basis order."""
    return alg.embed(alg.grade_indices[2], coeffs)


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
    """Whether the bivector factors as a wedge of planes, i.e. is a line."""
    n2 = float(biv_coeffs(xi) @ biv_coeffs(xi))
    return abs(pluecker(xi, xi)) <= SIMPLE_REL_TOL * max(n2, _EPS)


def bivector_split(xi: Multivector) -> tuple[Multivector, Multivector]:
    """Unique decomposition into an ideal line plus a line through the origin."""
    c = biv_coeffs(xi)
    alg = xi.algebra
    return (biv_mv(alg, [c[0], c[1], c[2], 0, 0, 0]),
            biv_mv(alg, [0, 0, 0, c[3], c[4], c[5]]))


def direction(xi: Multivector) -> Multivector:
    """Direction of a euclidean bivector as an ideal point.

    Coordinate rule: the euclidean part (p12, p31, p23) read as the
    vector (p23, p31, p12).  Invariant under adding ideal lines.
    """
    c = biv_coeffs(xi)
    return ideal_point(xi.algebra, c[5], c[4], c[3])


def polar_line(xi: Multivector) -> Multivector:
    """Ideal line orthogonal to the direction of ``xi``.

    Coordinate form of the euclidean polarity on lines; the raw product
    ``xi * I`` gives the oppositely oriented representative.
    """
    c = biv_coeffs(xi)
    return biv_mv(xi.algebra, [c[5], c[4], c[3], 0.0, 0.0, 0.0])


def bivector_axis(xi: Multivector) -> Multivector:
    """The unique euclidean line in the span of ``xi`` and ``xi I``.

    Every euclidean bivector factors as ``(t + u I) A`` with ``A`` a unit
    line.  Write the Pluecker coordinates as ``(i, e)``, with
    ``rev(e) = (p23, p31, p12)``, ``l = e . e`` and ``m = i . rev(e)``,
    so that ``xi xi = -l + 2 m I``; then

        A = (i - (m / l) rev(e), e) / sqrt(l)

    squares to -1 and keeps the orientation of the euclidean part.  A
    translator's bivector is ideal and has no axis.
    """
    c = biv_coeffs(xi)
    i, e = c[:3], c[3:]
    l = float(e @ e)
    if l <= _EPS ** 2 * max(float(c @ c), _EPS):
        raise DegenerateElementError("ideal bivector has no axis")
    rev_e = e[::-1]
    m = float(i @ rev_e)
    return biv_mv(xi.algebra,
                  np.concatenate([i - (m / l) * rev_e, e]) / math.sqrt(l))


@dataclass(frozen=True)
class Pitch:
    """Translation-per-rotation ratio of a screw; a tagged value so the
    translator case is an explicit branch rather than a float infinity."""

    finite: bool
    value: float | None = None

    @classmethod
    def of(cls, value: float) -> "Pitch":
        return cls(True, value)

    @classmethod
    def infinite(cls) -> "Pitch":
        return cls(False, None)


def bivector_pitch(xi: Multivector) -> Pitch:
    """Pitch of a euclidean bivector: zero for lines, infinite for ideal.

    For the screw generator ``(t + u I) Phi`` the value is ``2u/t``.
    """
    c = biv_coeffs(xi)
    scale = float(c @ c)
    if scale <= _EPS ** 2:
        raise DegenerateElementError("zero bivector has no pitch")
    den = pluecker(xi, polar_line(xi))
    if abs(den) <= _EPS * scale:
        return Pitch.infinite()
    return Pitch.of(-pluecker(xi, xi) / den)


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


def vector_inverse(a: Multivector) -> Multivector:
    aa = (a | a).scalar_part
    if abs(aa) <= _EPS * a.norm2():
        raise DegenerateElementError("ideal 1-vector has no inverse")
    return a / aa


def bivector_inverse(xi: Multivector) -> Multivector:
    xx = (xi | xi).scalar_part
    if abs(xx) <= _EPS * xi.norm2():
        raise DegenerateElementError("ideal bivector has no inverse")
    return xi / xx


def project_point_to_line(p: Multivector, xi: Multivector) -> Multivector:
    """Foot of the perpendicular from a point to a euclidean line."""
    return (p | xi) * bivector_inverse(xi)


def project_line_to_plane(xi: Multivector, a: Multivector) -> Multivector:
    """Orthogonal projection of a 3D line into a euclidean plane."""
    return (xi | a) * vector_inverse(a)


def perp_through_point(p: Multivector, a: Multivector) -> Multivector:
    """The perpendicular to a line (2D) or plane (3D) through a point: p . a."""
    return p | a


def common_normal(xi: Multivector, phi: Multivector) -> Multivector:
    """The mutual perpendicular of two non-parallel euclidean lines.

    The commutator of the two lines is in involution with both; its
    axis meets both at right angles.  Parallel or identical lines leave
    the commutator without a euclidean part.
    """
    theta = xi.commutator(phi)
    try:
        return bivector_axis(theta)
    except DegenerateElementError:
        raise DegenerateElementError(
            "parallel or identical lines have no unique common normal") from None


# ---------------------------------------------------------------------------
# joins of positions (conveniences used all over the tests and demos)


def line2d_through(alg: Algebra, a: tuple, b: tuple) -> Multivector:
    return join(point(alg, *a), point(alg, *b))


def line3d_through(alg: Algebra, a: tuple, b: tuple) -> Multivector:
    return join(point(alg, *a), point(alg, *b))


def line3d_point_dir(alg: Algebra, p: tuple, v: tuple) -> Multivector:
    return join(point(alg, *p), ideal_point(alg, *v))

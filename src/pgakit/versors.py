"""Euclidean isometries as sandwich operators.

A versor is a product of unit 1-vectors; sandwiching ``g X ~g`` with an
even versor (a *rotor*, ``g ~g == 1``) gives every direct isometry.
Rotors fall into three classes by their grade-2 part: rotators (simple
euclidean bivector), translators (ideal bivector) and general screws
(non-simple bivector).  The exponential and logarithm below move
between rotors and their bivector generators in Cl(2,0,1) and
Cl(3,0,1); in 3D the dual angle ``t + u I`` carries half the rotation
angle and half the translation distance of the screw.  The rotor
constraint ``g ~g = a + bI`` comes back as ``DualParts(re=a, du=b)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, Multivector, Signature, _bilinear
from .metric import (_DUST, DegenerateElementError, DualParts, _axis_coeffs,
                     _euclidean_split, _expect_coords, _negligible, biv_coeffs,
                     biv_mv, even_mv, is_simple, normalize)

_PGA = (Signature(2, 0, 1), Signature(3, 0, 1))


class NumericError(ValueError):
    """A non-finite or non-normalizable value where a rotor or state is needed."""


def require_pga(alg: Algebra) -> Algebra:
    """``alg`` itself; raises ``ValueError`` unless it is Cl(2,0,1) or Cl(3,0,1)."""
    if alg.signature not in _PGA:
        raise ValueError(f"exp and log take Cl(2,0,1) or Cl(3,0,1), not Cl{alg.signature}")
    return alg


def _even_coeffs(g: Multivector) -> np.ndarray:
    """The even coefficients of ``g`` (basis order); ``ValueError`` on any odd one."""
    if np.count_nonzero(g.coeffs[g.algebra.even_tables.odd]):
        raise ValueError("expected an even element (a rotor or a multiple of one)")
    return g.coeffs[g.algebra.even_indices]


def _require_finite(x: Multivector, what: str) -> None:
    """:class:`NumericError` unless every coefficient of ``x`` is finite."""
    if not np.isfinite(x.coeffs).all():
        raise NumericError(f"the {what} has a coefficient that is not finite")


def sandwich(g: Multivector, x: Multivector) -> Multivector:
    """Apply the isometry of a (normalized) versor: ``g x ~g``."""
    return g * x * ~g


def sandwich_matrix(g: Multivector, k: int) -> np.ndarray:
    """Matrix of ``X -> g X ~g`` on the grade-``k`` coefficients.

    ``g`` must be even (a rotor or a multiple of one).  One matrix moves
    any number of grade-``k`` elements: ``coeffs @ sandwich_matrix(g, k).T``.
    """
    return sandwich_matrix_even(g.algebra, _even_coeffs(g), k)


def sandwich_matrix_even(alg: Algebra, ge: np.ndarray, k: int) -> np.ndarray:
    """:func:`sandwich_matrix` on the even coefficients ``ge`` (basis order).

    A stack of rotors, ``ge`` of shape ``(rows, n_even)``, gives the stack
    of matrices, ``(rows, n, n)``, each equal to its single-rotor result.
    """
    n = len(alg.grade_indices[k])
    m = _bilinear(ge, ge, alg.even_tables.sandwich(k))
    return m.reshape(*ge.shape[:-1], n, n)


def translator(alg: Algebra, v) -> Multivector:
    """The rotor translating every finite point by the vector ``v``."""
    v = tuple(float(c) for c in v)
    _expect_coords(alg, v)
    if alg.dim == 3:
        (vx, vy) = v
        return alg.multivector({"1": 1.0, "E1": vy / 2.0, "E2": -vx / 2.0})
    (vx, vy, vz) = v
    return alg.multivector(
        {"1": 1.0, "e01": -vx / 2.0, "e02": -vy / 2.0, "e03": -vz / 2.0})


def rotator(center: Multivector, theta: float) -> Multivector:
    """Rotation by ``theta`` about a point (2D) or a line (3D).

    The center must be euclidean; a 3D axis must be simple.  Uses the
    half-angle convention ``cos(theta/2) + sin(theta/2) N``.
    """
    alg = center.algebra
    ks = center.grades(rel_tol=_DUST)
    axis = ks == [2] and alg.dim == 4
    if axis and not is_simple(center):
        raise ValueError("a rotation axis must be a simple bivector")
    if not axis and ks != [alg.dim - 1]:
        raise ValueError("rotation center must be a point or a 3D line")
    if _negligible(*_euclidean_split(center, ks[0])):
        raise DegenerateElementError("ideal center or axis: use translator()")
    n = normalize(center)
    return math.cos(theta / 2.0) + math.sin(theta / 2.0) * n


# ---------------------------------------------------------------------------
# exponential


def exp_screw(axis: Multivector, t: float, u: float = 0.0) -> Multivector:
    """``exp((t + u I) axis)`` for a normalized simple euclidean axis.

    Closed form: cos(t) - u sin(t) I + (sin(t) + u cos(t) I) axis.
    """
    alg = axis.algebra
    c, s = math.cos(t), math.sin(t)
    return (alg.multivector({"1": c, "I": -u * s}) + s * axis
            + (u * c) * (axis * alg.blade("I")))


def exp_bivector(b: Multivector) -> Multivector:
    """Exponential of a grade-2 element; always lands in the rotor group.

    Only a bivector with no rotation part at all gives the translator
    ``1 + b``: the closed forms are continuous as the angle goes to 0.
    Otherwise, in 3D and in :func:`~pgakit.metric.bivector_axis`'s
    notation, ``t = sqrt(l)``, ``s = sin(t) / t`` and ``k = m (cos t - s) / l``
    give the screw ``cos t + (s i + k rev(e), s e) + m s I``.  Raises
    ``ValueError`` on a part of another grade above ``1e-9`` of the largest
    coefficient (dust below it is dropped), :class:`NumericError` on a
    non-finite coefficient or when ``e . e`` or the squared norm overflows.
    """
    alg = b.algebra
    require_pga(alg)
    _require_finite(b, "bivector")
    if set(b.grades(rel_tol=_DUST)) - {2}:
        raise ValueError("exp_bivector takes a bivector (a grade-2 element)")
    b = b.grade(2)
    if alg.dim == 3:
        m0 = b["E0"]
        if m0 == 0.0:
            return alg.scalar(1.0) + b
        return math.cos(m0) + math.sin(m0) / m0 * b
    c = biv_coeffs(b)
    i, e = c[:3], c[3:]
    l, cc = float(e @ e), float(c @ c)
    if not (math.isfinite(l) and math.isfinite(cc)):
        raise NumericError("bivector too large: its norm overflows")
    if l == 0.0:
        return alg.scalar(1.0) + b
    t = math.sqrt(l)
    rev_e = e[::-1]
    m = float(i @ rev_e)
    cos_t, s = math.cos(t), math.sin(t) / t
    k = m * (cos_t - s) / l
    return even_mv(alg, [cos_t, *(s * i + k * rev_e), *(s * e), m * s])


# ---------------------------------------------------------------------------
# logarithm


@dataclass(frozen=True)
class ScrewLog:
    """Invariant data of a rotor: axis plus dual half-angle ``t + u I``.

    ``t`` is half the rotation angle, ``u`` half the translation
    distance.  ``exp_screw(axis, t, u)`` reproduces the rotor; only for
    a negated translator or -1 does it give ``-g`` (see
    :func:`screw_log`).
    """

    axis: Multivector
    t: float
    u: float

    def bivector(self) -> Multivector:
        return self.t * self.axis + self.u * (self.axis * self.axis.algebra.blade("I"))

    def exp(self) -> Multivector:
        return exp_screw(self.axis, self.t, self.u)

    def rotation_part(self) -> Multivector:
        return exp_screw(self.axis, self.t, 0.0)

    def translation_part(self) -> Multivector:
        return exp_screw(self.axis, 0.0, self.u)


def _origin_axis(alg: Algebra, direction) -> Multivector:
    """Line through the origin with the given direction vector."""
    dx, dy, dz = direction
    return biv_mv(alg, [0.0, 0.0, 0.0, dz, dy, dx])


def screw_log(g: Multivector) -> ScrewLog:
    """Logarithm of a unit 3D rotor: ``exp(log g) = g``.

    The axis ``A`` is the closed form of :func:`~pgakit.metric.bivector_axis`
    on the grade-2 part ``(i, e)``.  With ``s`` and ``q`` the scalar and
    pseudoscalar parts, ``t = atan2(|e|, s)`` lies in [0, pi] and
    ``u = -(s i . rev(A_e) + |e| q)``.

    ``g`` is a translator when ``e`` is noise next to ``(s, e)``; its axis
    is not unique, so the one through the origin is returned, and a
    negated translator is mapped to the translator first.  The identity
    and -1 get a zero log on an arbitrary axis.  :class:`NumericError` on
    a coefficient that is not finite.
    """
    alg = g.algebra
    if alg.signature != Signature(3, 0, 1):
        raise ValueError(f"screw_log needs Cl(3,0,1), not Cl{alg.signature}")
    _require_finite(g, "rotor")
    s_r = g.scalar_part
    c6 = biv_coeffs(g)
    if _negligible(c6, g.coeffs):
        return ScrewLog(_origin_axis(alg, (0.0, 0.0, 1.0)), 0.0, 0.0)
    e = c6[3:]
    if _negligible(e, (s_r, *e)):
        # translator: map -g to g (the scalar part must be +1), then pick
        # the origin-passing axis; the log of a translator is not unique
        m = c6[:3] if s_r >= 0.0 else -c6[:3]
        length = math.sqrt(float(m @ m))
        return ScrewLog(_origin_axis(alg, -m / length), 0.0, length)
    e_norm = math.sqrt(float(e @ e))
    axis = _axis_coeffs(c6)
    u = -(s_r * float(c6[:3] @ axis[3:][::-1]) + e_norm * g.pseudo_part)
    return ScrewLog(biv_mv(alg, axis), math.atan2(e_norm, s_r), u)


def rotor_log(g: Multivector) -> Multivector:
    """Logarithm of a rotor as a bivector, in Cl(2,0,1) or Cl(3,0,1);
    :class:`NumericError` on a coefficient that is not finite."""
    alg = g.algebra
    require_pga(alg)
    if alg.dim == 4:
        return screw_log(g).bivector()
    _require_finite(g, "rotor")
    if g.scalar_part < 0.0:
        g = -g
    s = g.scalar_part
    m = g.grade(2)
    m0 = m["E0"]
    if _negligible(m0, (s, m0)):   # no rotation next to the euclidean part
        return m
    theta = math.atan2(m0, s)
    return theta / m0 * m


def screw_decompose(g: Multivector) -> tuple[Multivector, Multivector]:
    """Split a rotor into commuting rotation and translation factors.

    Returns ``(exp(t axis), exp(u I axis))`` of the canonical (positive
    scalar) representative; their product in either order is ``+-g``.
    """
    lg = screw_log(g)
    return lg.rotation_part(), lg.translation_part()


# ---------------------------------------------------------------------------
# the rotor constraint


def rotor_constraint(g: Multivector) -> DualParts:
    """Scalar and pseudoscalar parts of ``g ~g``; ``(1, 0)`` on the spin group."""
    z = g * ~g
    return DualParts(z.scalar_part, z.pseudo_part)


def is_rotor(g: Multivector) -> bool:
    """Whether ``g`` is even and ``g ~g = 1``, each to within ``1e-9``."""
    z = rotor_constraint(g)
    odd = np.abs(g.coeffs[g.algebra.even_tables.odd])
    return bool(np.max([abs(z.re - 1.0), abs(z.du), *odd]) <= 1e-9)


def normalize_rotor(g: Multivector) -> Multivector:
    """Rescale an even element onto the rotor manifold.

    Divides by the dual-number square root of ``g ~g = a + bI`` in closed
    form, ``g -> a^(-1/2) (g - (b / 2a) g I)`` (De Keninck & Roelfs,
    arXiv:2206.07496); direction is preserved and an exact rotor comes
    back unchanged.  Raises :class:`NumericError` unless ``a`` is finite
    and positive, ``b`` finite and the rotor found finite.
    """
    alg = g.algebra
    ge = normalize_even(alg, _even_coeffs(g))
    if not np.isfinite(ge).all():
        raise NumericError("cannot normalize: the rotor overflows")
    return even_mv(alg, ge)


def normalize_even(alg: Algebra, ge: np.ndarray) -> np.ndarray:
    """:func:`normalize_rotor` on the even coefficients ``ge`` (basis order)."""
    tables = alg.even_tables
    a, b = _bilinear(ge, ge, tables.rotor_norm)
    if not (0.0 < a < math.inf and math.isfinite(b)):
        raise NumericError(f"cannot normalize: g ~g = {a:g} + {b:g}I is not "
                           "finite with a positive real part")
    return (ge - b / (2.0 * a) * (tables.times_i @ ge)) / math.sqrt(a)

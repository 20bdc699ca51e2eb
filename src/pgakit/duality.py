"""Point/plane duality as a sign-free index permutation.

Two exterior algebras describe the same projective space: a point-based
one (outer product = join) and a plane-based one (outer product = meet).
Both share the canonical coefficient layout of :mod:`pgakit.algebra`,
so the grade-reversing isomorphism between them acts on a single
coefficient vector.  Because complementary canonical blades are paired
with even concatenation parity, the map is a pure permutation: no signs
and no metric enter, which is what keeps it valid when the metric is
degenerate.  Multiplying by the pseudoscalar does *not* compute this
map here -- with ``I**2 == 0`` that product destroys ideal parts.

On every grade except the middle one the permutation is the identity on
coefficients; on the middle grade of the 4D algebra the Pluecker
6-tuple is reversed.
"""

from __future__ import annotations

from .algebra import Multivector, _bilinear, _wrap


def dual_j(x: Multivector) -> Multivector:
    """Map a multivector to its representation in the opposite algebra.

    Involution: ``dual_j(dual_j(x)) == x`` exactly.
    """
    return _wrap(x.algebra, x.coeffs[x.algebra.complement_index])


def join(a: Multivector, b: Multivector) -> Multivector:
    """Regressive product: the join of plane-based elements.

    Mathematically ``dual_j(dual_j(a) ^ dual_j(b))``: both operands mapped
    to the point-based algebra, wedged there, and mapped back.  As the map
    is a fixed permutation, that is one precomputed table, applied in one
    kernel call.  Associative; the meet is simply the native outer
    product ``a ^ b``.
    """
    a._check(b)
    return _wrap(a.algebra, _bilinear(a.coeffs, b.coeffs, a.algebra._vee_flat))

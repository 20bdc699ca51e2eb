"""Dense multivector arithmetic over diagonal-signature Clifford algebras.

A multivector is a flat coefficient vector over a canonical graded blade
basis.  The basis follows the classical line-geometry conventions rather
than plain lexicographic order:

* grade-2 blades in four dimensions are ``e01 e02 e03 e12 e31 e23`` --
  note ``e31``, not ``e13``, the traditional Pluecker ordering;
* the grade-(dim-1) blades ``E0 .. E3`` are oriented so that
  ``e_i ^ E_i = I`` for every basis 1-vector (``E1 = e0 e3 e2`` in 4D);
* complementary blades are paired so that concatenating their index
  tuples is always an even permutation.  This makes the point/plane
  duality map a pure, sign-free index permutation (see
  :mod:`pgakit.duality`).

Signatures are triples ``(p, n, z)``: the number of basis 1-vectors
squaring to +1, -1 and 0.  The degenerate/negative directions come
first, so ``Algebra(3, 0, 1)`` has ``e0**2 == 0`` and
``Algebra(3, 1, 0)`` has ``e0**2 == -1``.

The kernel's boundary is decided here once: which operands a product
takes (``_NUMBER``), how a blade name becomes a slot (``Algebra._slot``)
and how a coefficient slice becomes an element (:meth:`Algebra.embed`).

Multivectors are immutable values; every operation returns a new one,
so they are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations

import numpy as np

REL_TOL = 1e-12
ABS_TOL = 1e-15

_MIN_DIM = 2
_MAX_DIM = 6

# the operands that act as scalars in products, sums and comparisons
_NUMBER = (int, float, np.floating, np.integer)


class SignatureMismatchError(ValueError):
    """Operands belong to different algebras."""


@dataclass(frozen=True)
class Signature:
    """Counts of basis 1-vectors squaring to +1, -1 and 0."""

    p: int
    n: int
    z: int

    def __post_init__(self):
        if min(self.p, self.n, self.z) < 0:
            raise ValueError("signature counts must be non-negative")
        if not _MIN_DIM <= self.dim <= _MAX_DIM:
            raise ValueError(
                f"unsupported dimension {self.dim} (expected {_MIN_DIM}..{_MAX_DIM})")

    @property
    def dim(self) -> int:
        return self.p + self.n + self.z

    @property
    def squares(self) -> tuple[int, ...]:
        """Metric square of each basis 1-vector, degenerate directions first."""
        return (0,) * self.z + (-1,) * self.n + (1,) * self.p

    def __str__(self):
        return f"({self.p},{self.n},{self.z})"


def _perm_parity(perm) -> int:
    inversions = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inversions += 1
    return -1 if inversions & 1 else 1


def _canonical_sign(tup: tuple[int, ...], dim: int) -> int:
    """Orientation of the canonical blade relative to ascending index order."""
    k = len(tup)
    if k == 0 or k == dim or 2 * k < dim:
        return 1
    if 2 * k == dim and 0 in tup:
        return 1
    co = tuple(i for i in range(dim) if i not in tup)
    return _perm_parity(co + tup)


def _blade_name(tup: tuple[int, ...], sign: int, dim: int) -> str:
    k = len(tup)
    if k == 0:
        return "1"
    if k == dim:
        return "I"
    if k == 1:
        return f"e{tup[0]}"
    if k == dim - 1 and dim in (3, 4):
        (co,) = (i for i in range(dim) if i not in tup)
        return f"E{co}"
    idx = list(tup)
    if sign < 0:
        idx[-1], idx[-2] = idx[-2], idx[-1]
    return "e" + "".join(str(i) for i in idx)


def _mask_product(a: int, b: int, squares) -> tuple[int, float]:
    """Geometric product of two ascending-index blades given as bit masks.

    Returns (result mask, coefficient).  The coefficient carries the
    reordering parity and one metric factor per repeated generator.
    """
    coeff = 1.0
    for j in range(len(squares)):
        if b >> j & 1:
            swaps = bin(a >> (j + 1)).count("1")
            if swaps & 1:
                coeff = -coeff
            if a >> j & 1:
                coeff *= squares[j]
                if coeff == 0.0:
                    return 0, 0.0
    return a ^ b, coeff


def _bilinear(a: np.ndarray, b: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Apply a bilinear product to coefficient arrays: two mat-vecs.

    ``table`` is ``T[i, j, k]`` reshaped to ``(len(a), len(b) * m)``; the
    result ``sum_ij a_i b_j T[i, j, k]`` has ``m`` entries.  Every
    :class:`Multivector` product is applied through here.  The operands
    are one-dimensional, and ``np.dot`` gives the bits of ``b @ (a @
    table).reshape(len(b), -1)`` in less call overhead.

    BLAS may fuse a multiply and an add, so a slot whose terms cancel
    exactly can keep one term's rounding error, its value depending on
    the BLAS build: the join of points (0.1, 0.1, 0) and (0.3, 0.3, 0)
    has e03 = -1.67e-18 on one build, not 0.  The closed forms on Python
    floats and the even tables' sums (:meth:`EvenTables.quadratic`) cancel exactly.
    """
    return np.dot(b, np.dot(a, table).reshape(len(b), -1))


def _fixed_sum(terms: np.ndarray) -> np.ndarray:
    """``terms`` summed over the last axis, left to right, elementwise: a
    row gets the same bits alone or in any stack, which BLAS does not promise."""
    return reduce(np.add, terms.T).T


class Algebra:
    """A Clifford algebra with precomputed product tables.

    Instances are cheap to share; use :func:`algebra` for a cached one.
    """

    def __init__(self, p: int, n: int = 0, z: int = 0):
        self.signature = Signature(p, n, z)
        self.dim = self.signature.dim
        self.n_blades = 1 << self.dim
        self._build_basis()
        self._build_tables()

    # -- construction ------------------------------------------------

    def _build_basis(self):
        dim = self.dim
        tuples: list[tuple[int, ...]] = []
        for k in range(dim + 1):
            subs = list(combinations(range(dim), k))
            if 2 * k > dim:
                subs.reverse()
            tuples.extend(subs)
        self.blade_tuples = tuples
        self.masks = [sum(1 << i for i in t) for t in tuples]
        self.blade_signs = np.array(
            [_canonical_sign(t, dim) for t in tuples], dtype=float)
        self.blade_names = [
            _blade_name(t, s, dim)
            for t, s in zip(tuples, self.blade_signs)]
        self.grades = np.array([len(t) for t in tuples], dtype=int)
        self._index_of_mask = {m: i for i, m in enumerate(self.masks)}
        self.name_to_index = {nm: i for i, nm in enumerate(self.blade_names)}
        self.pseudoscalar_index = self.n_blades - 1
        self.even_indices = np.flatnonzero(self.grades % 2 == 0)
        self.odd_indices = np.flatnonzero(self.grades % 2 == 1)
        self.grade_indices = {
            k: np.flatnonzero(self.grades == k) for k in range(dim + 1)}
        # the basis is graded: grade k is the run of slots _grade_runs[k]
        self._grade_runs = [slice(int(s[0]), int(s[-1]) + 1)
                            for s in self.grade_indices.values()]
        self._slot_grades = self.grades.tolist()

    def _product_tensor(self, squares) -> np.ndarray:
        n = self.n_blades
        t = np.zeros((n, n, n))
        for i in range(n):
            for j in range(n):
                mask, coeff = _mask_product(self.masks[i], self.masks[j], squares)
                if coeff != 0.0:
                    k = self._index_of_mask[mask]
                    t[i, j, k] = (coeff * self.blade_signs[i]
                                  * self.blade_signs[j] * self.blade_signs[k])
        return t

    def _build_tables(self):
        self._gp = self._product_tensor(self.signature.squares)
        # the outer and inner products are grade masks of the geometric
        # product: grade k+l of a k- and an l-blade, and grade |k-l|
        g = self.grades
        g_i, g_j, g_k = g[:, None, None], g[None, :, None], g[None, None, :]
        self._op = np.where(g_k == g_i + g_j, self._gp, 0.0)
        self._ip = np.where(g_k == abs(g_i - g_j), self._gp, 0.0)
        # only a blade times itself is a scalar: (x | y)_0 = sum_i d_i x_i y_i
        # for the diagonal d of the scalar slice, whose non-zero entries
        # mark the blades that square to non-zero (in PGA, those without e0)
        d = np.diagonal(self._ip[:, :, 0])
        self._scalar_ip, nonnull = d.tolist(), d != 0.0
        self._nonnull_slots = {k: s[nonnull[s]].tolist()
                               for k, s in self.grade_indices.items()}
        self._null_slots = {k: s[~nonnull[s]].tolist()
                            for k, s in self.grade_indices.items()}
        self._comm = 0.5 * (self._gp - self._gp.transpose(1, 0, 2))
        rev = np.where(g * (g - 1) // 2 % 2 == 1, -1.0, 1.0)
        self._rev_signs = rev
        # complementary-blade permutation: the duality map of dual()
        full = self.n_blades - 1
        c = self.complement_index = np.array(
            [self._index_of_mask[full ^ m] for m in self.masks], dtype=int)
        # the join J(J(a) ^ J(b)) has a table of its own: J is a sign-free
        # involution, so it is the outer product's permuted on every axis
        vee = self._op[np.ix_(c, c, c)]
        n = self.n_blades
        (self._gp_flat, self._op_flat, self._ip_flat, self._comm_flat,
         self._vee_flat) = (t.reshape(n, n * n) for t in (
             self._gp, self._op, self._ip, self._comm, vee))

    @cached_property
    def even_tables(self) -> "EvenTables":
        """Flat product tables of the even subalgebra, built on first use."""
        return EvenTables(self)

    # -- basic constructors -------------------------------------------

    def _slot(self, name: str) -> int:
        """Coefficient index of a blade name; the ``KeyError`` names both."""
        try:
            return self.name_to_index[name]
        except KeyError:
            raise KeyError(f"unknown blade {name!r} in Cl{self.signature}") from None

    def embed(self, slots, coeffs) -> "Multivector":
        """The element with (a copy of) ``coeffs`` in the index or index
        array ``slots``, such as ``even_indices``, and zeros elsewhere."""
        arr = np.zeros(self.n_blades)
        arr[slots] = coeffs
        return _wrap(self, arr)

    def multivector(self, coeffs) -> "Multivector":
        if isinstance(coeffs, dict):
            return self.embed([self._slot(name) for name in coeffs],
                              list(coeffs.values()))
        return Multivector(self, coeffs)

    def zero(self) -> "Multivector":
        return self.embed(0, 0.0)

    def scalar(self, value: float) -> "Multivector":
        return self.embed(0, value)

    def blade(self, name: str) -> "Multivector":
        return self.embed(self._slot(name), 1.0)

    @property
    def blades(self) -> dict[str, "Multivector"]:
        return {nm: self.blade(nm) for nm in self.blade_names}

    def __repr__(self):
        return f"Algebra{self.signature}"

    def __eq__(self, other):
        return isinstance(other, Algebra) and self.signature == other.signature

    def __hash__(self):
        return hash(self.signature)


class EvenTables:
    """Products of even elements, each a table ``T[a, b, m]`` over the
    slots of its operands and its result, in basis order.

    ``product`` is the geometric product of two even elements, from
    which the rigid-body integrator's step is generated; rotor
    renormalization and sandwich matrices run :meth:`quadratic` on the
    others instead of :class:`Multivector` products.  Every table is a
    slice or contraction of the algebra's geometric product table, so
    there is one source of product signs.
    """

    def __init__(self, alg: Algebra):
        gp, rev = alg._gp, alg._rev_signs
        even, pseudo = alg.even_indices, alg.pseudoscalar_index
        self.even = even
        self.product = gp[np.ix_(even, even, even)]
        # scalar and pseudoscalar parts of g ~g, and the matrix of g -> g I;
        # not read off ``product``, which lacks an odd pseudoscalar (as in
        # Cl(2,0,1), where both are zero)
        self.rotor_norm = gp[np.ix_(even, even, [0, pseudo])] * rev[even][None, :, None]
        self.times_i = gp[even, pseudo][:, even].T
        # g X ~g on grade k, m = i n + j for (g X ~g)_i of X_j: (g X)_c =
        # g_a X_j gp[a, j, c] and (g X ~g)_i = (g X)_c ~g_b gp[c, b, i]
        right = gp[:, even] * rev[even][None, :, None]
        self.sandwich = [np.einsum("ajc,cbi->abij", gp[np.ix_(even, s)], right[:, :, s])
                         .reshape(len(even), len(even), -1) for s in alg.grade_indices.values()]
        self._terms: dict[int, tuple] = {}

    def quadratic(self, table: np.ndarray, g: np.ndarray) -> np.ndarray:
        """``sum_ab g_a g_b T[a, b, m]`` for ``T`` one of these tables,
        ``rotor_norm`` or a ``sandwich``, and ``g`` the even coefficients of
        one element or a ``(rows, n)`` stack of them: slot ``m`` is the
        :func:`_fixed_sum` of ``c g_a g_b`` over the symmetrized nonzeros
        (a <= b) of ``T[:, :, m]``, padded by ``-0.0 g_0 g_0``, which adds
        nothing.  No BLAS build changes the bits, nor does the stack, and
        no product that no slot reads (such as ``g_I g_I``) is formed."""
        if id(table) not in self._terms:     # held there, so its id stays its own
            a, b = np.triu_indices(len(self.even))
            sym = ((table[a, b] + table[b, a]) / np.where(a == b, 2.0, 1.0)[:, None]).T
            live = sym.any(axis=0)           # the first stays (0, 0): g_0 g_0 is read
            a, b, sym = a[live], b[live], sym[:, live]
            nonzero = [np.flatnonzero(c) for c in sym]
            k = max(map(len, nonzero))
            pick = np.array([[*i, *[0] * (k - len(i))] for i in nonzero])
            coef = np.array([[*c[i], *[-0.0] * (k - len(i))] for c, i in zip(sym, nonzero)])
            self._terms[id(table)] = table, a, b, pick, coef
        _, a, b, pick, coef = self._terms[id(table)]
        return _fixed_sum((g[..., a] * g[..., b])[..., pick] * coef)


_CACHE: dict[tuple[int, int, int], Algebra] = {}


def algebra(p: int, n: int = 0, z: int = 0) -> Algebra:
    """Cached algebra lookup; ``algebra(3, 0, 1)`` is euclidean space."""
    key = (p, n, z)
    if key not in _CACHE:
        _CACHE[key] = Algebra(p, n, z)
    return _CACHE[key]


def pga2d() -> Algebra:
    """The euclidean plane: Cl(2,0,1) over plane-based (here: line-based) forms."""
    return algebra(2, 0, 1)


def pga3d() -> Algebra:
    """Euclidean space: Cl(3,0,1), 1-vectors are planes."""
    return algebra(3, 0, 1)


def _product(table: str, reflected: bool = False, refusal: str | None = None):
    """The product operator of the flat table ``Algebra.<table>``: the
    coerced other operand comes first when ``reflected``, and one that
    cannot be coerced gives ``NotImplemented`` or ``TypeError(refusal)``."""
    def product(self, other):
        other = self._coerce(other)
        if other is None:
            if refusal is None:
                return NotImplemented
            raise TypeError(refusal)
        a, b = (other, self) if reflected else (self, other)
        alg = self.algebra
        return _wrap(alg, _bilinear(a.coeffs, b.coeffs, getattr(alg, table)))
    return product


class Multivector:
    """Immutable dense element of an :class:`Algebra`.

    Operators: ``*`` geometric product, ``^`` outer product (the meet in
    a plane-based algebra), ``|`` generalized inner product (grade
    ``|k-l|`` part), ``&`` join (regressive product via the duality
    map), ``~`` reversion; ``a.commutator(b)`` is ``(a b - b a) / 2``.
    A number on either side of a binary operator acts as a scalar.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, alg: Algebra, coeffs: np.ndarray):
        object.__setattr__(self, "algebra", alg)
        # a private copy, frozen: sharing a Multivector can never leak
        # writes in either direction
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.shape != (alg.n_blades,):
            raise ValueError(f"expected {alg.n_blades} coefficients")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("Multivector is immutable")

    # -- ring structure ------------------------------------------------

    def _check(self, other: "Multivector"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise SignatureMismatchError(
                f"mixed algebras {self.algebra} and {other.algebra}")

    def _coerce(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            return other
        if isinstance(other, _NUMBER):
            return self.algebra.scalar(float(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _wrap(self.algebra, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _wrap(self.algebra, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _wrap(self.algebra, other.coeffs - self.coeffs)

    def __neg__(self):
        return _wrap(self.algebra, -self.coeffs)

    # the hottest operator: no coercion, and a number scales exactly
    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            alg = self.algebra
            return _wrap(alg, _bilinear(self.coeffs, other.coeffs, alg._gp_flat))
        if isinstance(other, _NUMBER):
            return _wrap(self.algebra, self.coeffs * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _NUMBER):
            return _wrap(self.algebra, self.coeffs / float(other))
        return NotImplemented

    __xor__ = _product("_op_flat")
    __rxor__ = _product("_op_flat", reflected=True)
    __or__ = _product("_ip_flat")
    __ror__ = _product("_ip_flat", reflected=True)
    __and__ = _product("_vee_flat")
    __rand__ = _product("_vee_flat", reflected=True)
    commutator = _product("_comm_flat", refusal="commutator takes a multivector or a number")

    def __invert__(self):
        return _wrap(self.algebra, self.coeffs * self.algebra._rev_signs)

    reverse = __invert__

    # -- structure accessors -------------------------------------------

    def grade(self, k: int) -> "Multivector":
        return _wrap(self.algebra, np.where(self.algebra.grades == k, self.coeffs, 0.0))

    def grades(self, rel_tol: float = 0.0) -> list[int]:
        """Grades with a nonzero coefficient.

        With a ``rel_tol``, grades whose largest coefficient falls below
        ``rel_tol * max|coeffs|``, if finite, are treated as numerical dust.
        """
        c, grade = self.coeffs.tolist(), self.algebra._slot_grades
        cutoff = rel_tol * _peak(c)
        if 0.0 < cutoff < math.inf:
            return sorted({k for k, v in zip(grade, c) if abs(v) > cutoff})
        return sorted({k for k, v in zip(grade, c) if v})

    @property
    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    @property
    def pseudo_part(self) -> float:
        return float(self.coeffs[self.algebra.pseudoscalar_index])

    def __getitem__(self, key) -> float:
        if isinstance(key, str):
            key = self.algebra._slot(key)
        return float(self.coeffs[key])

    def dual(self) -> "Multivector":
        """The sign-free duality map, an exact involution: a gather by
        complementary blade (see :mod:`pgakit.duality`)."""
        return _wrap(self.algebra, self.coeffs[self.algebra.complement_index])

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _NUMBER):
            other = self.algebra.scalar(float(other))
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.algebra == other.algebra and np.array_equal(
            self.coeffs, other.coeffs)

    def __hash__(self):
        # a scalar equals its number, so it hashes as the number; a NaN
        # equals nothing, and its float hash differs per object
        c = self.coeffs[0]
        if c == c and not self.coeffs[1:].any():
            return hash(float(c))
        # -0.0 + 0.0 is 0.0: coefficients that compare equal hash alike
        return hash((self.algebra.signature, (self.coeffs + 0.0).tobytes()))

    def isclose(self, other, rel: float = REL_TOL, floor: float = ABS_TOL) -> bool:
        other = self._coerce(other)
        if other is None:
            raise TypeError("isclose compares with a multivector or a number")
        scale = max(np.abs(self.coeffs).max(initial=0.0),
                    np.abs(other.coeffs).max(initial=0.0))
        tol = max(floor, rel * scale)
        return bool(np.abs(self.coeffs - other.coeffs).max(initial=0.0) <= tol)

    def norm2(self) -> float:
        """Plain sum of squared coefficients (not a metric norm)."""
        return float(self.coeffs @ self.coeffs)

    # -- formatting ------------------------------------------------------

    def __repr__(self):
        return format_multivector(self)

    __str__ = __repr__


_set_algebra, _set_coeffs = Multivector.algebra.__set__, Multivector.coeffs.__set__


def _wrap(alg: Algebra, coeffs: np.ndarray) -> Multivector:
    """The private constructor: freeze a fresh float array that nothing else
    references and wrap it, without the copy ``Multivector()`` makes."""
    coeffs.setflags(write=False)
    x = object.__new__(Multivector)
    _set_algebra(x, alg)
    _set_coeffs(x, coeffs)
    return x


def _peak(c) -> float:
    """The largest magnitude among the floats ``c``, 0.0 if there are none;
    NaN if one is NaN, as ``np.max`` gives (``max`` skips a NaN after the first)."""
    if math.isnan(sum(c)) and any(map(math.isnan, c)):
        return math.nan
    return max(map(abs, c)) if c else 0.0


def _format_coeff(c: float) -> str:
    c = float(c)
    # the magnitude test comes first: int() raises on nan and inf
    if abs(c) < 1e16 and c == int(c):
        return str(int(c))
    return repr(c)


def format_multivector(x: Multivector) -> str:
    terms = []
    for i, c in enumerate(x.coeffs):
        if c == 0.0:
            continue
        name = x.algebra.blade_names[i]
        mag = _format_coeff(abs(c))
        if name != "1":
            mag = name if mag == "1" else f"{mag}{name}"
        if not terms:
            terms.append(f"-{mag}" if c < 0 else mag)
        else:
            terms.append(f"- {mag}" if c < 0 else f"+ {mag}")
    return " ".join(terms) if terms else "0"

"""Rigid-body kinematics and dynamics with bivector states.

Velocity, momentum and force of a rigid body are single grade-2
elements (six coordinates each) instead of separate linear and angular
3-vectors: a translator velocity is an ideal line, a force couple an
ideal momentum line, and so on, with no special cases.

Conventions kept throughout (factor 2 included):

* orbit derivative of a point: ``Pdot = 2 (Omega x P)``;
* particle spear ``Lambda = R join Rdot``, momentum ``Pi = m Lambda``,
  velocity state ``Gamma = Lambda I``;
* equations of motion ``gdot = g Omega_c``,
  ``Pidot_c = Delta_c + 2 (Pi_c x Omega_c)`` with
  ``Omega_c = A^-1(Pi_c)``, integrated by fixed-step RK4 on the flat
  14-coefficient state with rotor renormalization after each step.

:func:`integrate` is the one RK4 loop: it runs any number of steps and
yields the recorded states in ``(rows, 14)`` blocks of :data:`_BLOCK_ROWS`;
:func:`euler_step` is that loop over one step.  Every body is stepped
in its principal frame (origin at the centroid, axes along the
principal moments), where its inertia form is diagonal and each stage
solves ``Omega = A^-1(Pi)`` in six multiplies.  One function,
:func:`_move`, carries every bivector between body and principal
coordinates in one fixed order of sums, so no recorded value depends on
its block.  A block's steps are one call of straight-line Python on 14
floats, generated on first use by one emitter, :func:`_product`, from
the nonzeros of the even product table and compiled once per algebra.
On a shared 2-vCPU Intel Xeon (Python 3.11) that takes about 4 to 6
ms, 1.2 to 1.6 ms of it to generate the source, and a step of a
4-point body costs about 8 us force-free and 13 us with a force line
open.  Its one force input is a :class:`ForceSchedule`, space-frame
force lines over time windows.  A rotor or momentum that stops being
finite raises :class:`~pgakit.versors.NumericError` instead of carrying
NaN on.  :func:`frame_convert` moves a tagged state by fixed-order sums
over its 6x6 sandwich matrix; a multivector moves by
:func:`~pgakit.versors.sandwich`.  The inertia form is a closed form in
the body's mass, first moment and second moment, so set-up makes no
product per particle.

Body-frame and space-frame quantities are tagged and may not be mixed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .algebra import Algebra, Multivector, _fixed_sum, pga3d
from .duality import join
from .metric import (DegenerateElementError, _require_pga, biv_coeffs, biv_mv,
                     even_mv, ideal_norm, ideal_point, pluecker, point, pseudo_part)
# sandwich is not called here; the benchmark's tracing tests use dynamics.sandwich
from .versors import (NumericError, _even_coeffs, _require_finite, _rotor_scale,
                      normalize_rotor, sandwich, sandwich_matrix, translator)  # noqa: F401

BODY = "body"
SPACE = "space"

_COND_LIMIT = 1e12
_BLOCK_ROWS = 1024        # rows in a block of integrate, one array operation
_MOVED = np.r_[1:7, 8:14]   # a state's bivector slots: the rotor's, then Pi


class FrameError(ValueError):
    """Body-frame and space-frame quantities were mixed."""


class SingularInertiaError(ValueError):
    """Degenerate mass distribution: the inertia form is not invertible."""


# ---------------------------------------------------------------------------
# tagged bivector states


@dataclass(frozen=True)
class _BivectorState:
    coeffs: np.ndarray
    frame: str

    def __post_init__(self):
        # a copy, so freezing it leaves the caller's array writeable
        arr = np.array(self.coeffs, dtype=float)
        if arr.shape != (6,):
            raise ValueError("a state has six bivector coordinates")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        if self.frame not in (BODY, SPACE):
            raise ValueError(f"unknown frame {self.frame!r}")

    def as_multivector(self, alg: Algebra) -> Multivector:
        return biv_mv(alg, self.coeffs)


class VelocityState(_BivectorState):
    pass


class MomentumState(_BivectorState):
    pass


class ForceState(_BivectorState):
    pass


def _body_coeffs(x: _BivectorState) -> np.ndarray:
    """The coefficients of a body-frame state; :class:`FrameError` otherwise."""
    if x.frame != BODY:
        raise FrameError(f"expected a body-frame state, not a {x.frame}-frame one")
    return x.coeffs


def frame_convert(x: _BivectorState, g: Multivector, to: str) -> _BivectorState:
    """Move a tagged state between frames: body -> space is ``g X ~g``.

    A multivector moves by :func:`~pgakit.versors.sandwich` of ``g`` or
    ``~g``; anything but a tagged state raises :class:`TypeError`, a rotor
    outside Cl(3,0,1) ``ValueError``.
    """
    if not isinstance(x, _BivectorState):
        raise TypeError("frame_convert moves a tagged state, not "
                        f"{type(x).__name__}; sandwich moves a multivector")
    _require_pga(g.algebra, "frame_convert", (4,))
    if x.frame == to:
        return x
    m = sandwich_matrix(g if to == SPACE else ~g, 2)
    return type(x)(_fixed_sum(m * x.coeffs), to)


@dataclass(frozen=True)
class ForceSchedule:
    """Force lines over time windows, as data for :func:`integrate`.

    Row ``i`` of ``lines`` holds the six bivector coordinates of a
    space-frame force line; it acts while ``t_start[i] <= t <
    t_end[i]``, and lines whose windows overlap add up.  A window that
    never opens, ``t_end[i] <= t_start[i]``, raises ``ValueError``, and
    a line that is not finite :class:`~pgakit.versors.NumericError`,
    each naming its index, so a line that is off cannot turn the sum
    into NaN.
    """

    lines: np.ndarray
    t_start: np.ndarray
    t_end: np.ndarray

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writeable
        lines = np.array(self.lines, dtype=float)
        if lines.ndim != 2 or lines.shape[1] != 6:
            raise ValueError("a schedule has six bivector coordinates per line")
        for name in ("t_start", "t_end"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != lines.shape[:1] or np.isnan(arr).any():
                raise ValueError(f"{name} needs one time per line, not NaN")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        for i, (lo, hi) in enumerate(zip(self.t_start.tolist(), self.t_end.tolist())):
            if hi <= lo:
                raise ValueError(f"force {i} needs t_end > t_start, not [{lo!r}, {hi!r})")
        bad = np.flatnonzero(~np.isfinite(lines).all(axis=1))
        if len(bad):
            raise NumericError(f"force {bad[0]} is not finite")
        lines.flags.writeable = False
        object.__setattr__(self, "lines", lines)


_NO_FORCE = ForceSchedule(np.zeros((0, 6)), (), ())  # what force=None runs


# ---------------------------------------------------------------------------
# particles


@dataclass(frozen=True)
class Particle:
    """A mass point: normalized position ``r`` and ideal velocity ``rdot``."""

    mass: float
    r: Multivector
    rdot: Multivector

    @classmethod
    def at(cls, alg: Algebra, mass: float, position, velocity=None):
        """A particle at ``position``, at rest unless ``velocity`` is given;
        :class:`~pgakit.versors.NumericError` unless every number is finite."""
        rdot = alg.zero() if velocity is None else ideal_point(alg, *velocity)
        _require_finite([mass, *position, *rdot.coeffs], "particle")
        return cls(mass, point(alg, *position), rdot)


def particle_spear(p: Particle) -> Multivector:
    """The weighted line ``R join Rdot`` carrying the particle's motion."""
    return join(p.r, p.rdot)


def particle_momentum(p: Particle) -> Multivector:
    return p.mass * particle_spear(p)


def particle_velocity_state(p: Particle) -> Multivector:
    """``Lambda I``: ideal, since a free particle translates."""
    lam = particle_spear(p)
    return lam * lam.algebra.blade("I")


def kinetic_energy(p: Particle) -> float:
    """``-m/2 Lambda . Lambda``; equals ``m/2 |Rdot|^2`` and the dual
    pairing ``-1/2 <Gamma ^ Pi>`` (asserted in the tests)."""
    lam = particle_spear(p)
    return -0.5 * p.mass * (lam | lam).scalar_part


def kinetic_energy_speed(p: Particle) -> float:
    v = ideal_norm(p.rdot)
    return 0.5 * p.mass * v * v


def kinetic_energy_pairing(p: Particle) -> float:
    gamma = particle_velocity_state(p)
    pi = particle_momentum(p)
    return -0.5 * pseudo_part(gamma ^ pi)


def orbit_derivative(omega: Multivector, p: Multivector) -> Multivector:
    """Instantaneous velocity ``2 (Omega x P)`` of a point under a motion.

    An ideal point; zero exactly when the velocity bivector is a line
    and ``p`` lies on it.
    """
    return 2.0 * omega.commutator(p)


# ---------------------------------------------------------------------------
# inertia


@dataclass(frozen=True)
class InertiaTensor:
    """Positive semi-definite bilinear form on velocity bivectors.

    ``form[i, j]`` is the energy pairing of basis bivectors i and j;
    applying the tensor maps a velocity state to the momentum state
    with ``energy(Omega) = form(Omega, Omega) = -<Omega ^ Pi>``.  Every
    method works in the body's principal frame, built once from its mass,
    centroid and second moment about the centroid, which
    :func:`inertia_assemble` takes from the particles.  A bare ``form``
    gives them from its blocks, subtracting the parallel-axis term (a far
    body keeps fewer digits of its moments), and raises ``ValueError``
    there if they are not a rigid body's, or if it is not 6 x 6.
    """

    form: np.ndarray

    def __post_init__(self):
        arr = np.array(self.form, dtype=float)    # a copy, as for the states
        if arr.shape != (6, 6):
            raise ValueError(f"an inertia form is 6 x 6, not {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "form", arr)

    @cached_property
    def operator(self) -> np.ndarray:
        """Matrix of Omega -> Pi over the bivector basis: ``-form`` with
        its rows reversed, as the Pluecker pairing reverses coordinates."""
        op = -self.form[::-1]
        op.flags.writeable = False    # cached: a caller must not alter it
        return op

    def apply(self, omega: VelocityState) -> MomentumState:
        # rev(Pi)_k = -d_k Omega_k: no solve, so a singular tensor applies
        frame = self._frame
        w = _move(frame, _body_coeffs(omega), _PRINCIPAL)
        return MomentumState(_move(frame, -(frame.diagonal * w)[::-1], BODY), BODY)

    def inverse_apply(self, pi: MomentumState) -> VelocityState:
        frame = self._frame
        v = _move(frame, _body_coeffs(pi), _PRINCIPAL)[::-1]
        return VelocityState(_move(frame, v * self._inverse, BODY), BODY)

    @cached_property
    def _axes(self) -> PrincipalAxes:
        # off the blocks, unless inertia_assemble has put the particles' here
        form = self.form
        _require_finite_inertia(form)
        mass, c = form[0, 0] / 2.0, form[[1, 2, 0], [3, 5, 4]] / 2.0
        s = form[:2:-1, :2:-1] / 2.0
        if (_form(mass, c, s) != form).any():
            raise ValueError("not a rigid body's inertia form: the frame needs the "
                             "blocks 2M 1, -2 [c]x and its transpose, and 2S")
        return _principal_axes(mass, c, lambda at: s + mass * (np.outer(at, at)
                                                               - at @ at * np.eye(3)))

    @cached_property
    def _frame(self) -> _PrincipalFrame:
        """Motor ``translator(center) R``, with ``R = w - x e23 - y e31 - z
        e12`` the quaternion of the rotation whose columns are the axes;
        each axis's free sign makes its diagonal entry non-negative, one
        flipped back if that reflects, so the trace is at least 0 and ``w``
        at least 1/2.  The diagonal is exact: ``2M`` three times, then the
        moments reversed."""
        body = self._axes
        axes = body.axes * np.where(np.diagonal(body.axes) < 0.0, -1.0, 1.0)[:, None]
        if axes[0] @ np.cross(axes[1], axes[2]) < 0.0:
            axes[np.argmin(np.abs(np.diagonal(axes)))] *= -1.0
        r = axes.T
        w = math.sqrt(1.0 + np.trace(r)) / 2.0
        x, y, z = (r[[2, 0, 1], [1, 2, 0]] - r[[1, 2, 0], [2, 0, 1]]) / (4.0 * w)
        alg = pga3d()
        rotation = alg.multivector({"1": w, "e23": -x, "e31": -y, "e12": -z})
        m = normalize_rotor(translator(alg, body.center) * rotation)
        diagonal = np.array([2.0 * body.mass] * 3 + body.moments[::-1].tolist())
        return _PrincipalFrame(m, diagonal, sandwich_matrix(~m, 2), sandwich_matrix(m, 2))

    @cached_property
    def _inverse(self) -> np.ndarray:
        # Omega_k = inverse_k rev(Pi)_k; the condition max |d| / min |d| is
        # checked once, and a singular tensor raises at every call
        moments = np.abs(self._frame.diagonal).tolist()
        if min(moments) == 0.0 or max(moments) / min(moments) > _COND_LIMIT:
            raise SingularInertiaError("degenerate mass distribution (collinear "
                                       "points?); refusing to pseudo-invert")
        return -1.0 / self._frame.diagonal

    def energy(self, omega: VelocityState) -> float:
        w = _move(self._frame, _body_coeffs(omega), _PRINCIPAL)
        return float(_fixed_sum(w * (self._frame.diagonal * w)))


# a body's principal frame: the motor m from principal to body coordinates,
# the form's diagonal there, and the sandwiches ~m X m (in) and m X ~m (out)
_PrincipalFrame = namedtuple("_PrincipalFrame", "motor diagonal to_principal to_body")
_PRINCIPAL = "principal"


def _move(frame: _PrincipalFrame, x: np.ndarray, to: str) -> np.ndarray:
    """Bivectors ``x``, a 6-vector or a ``(rows, 6)`` stack, moved ``to``
    principal or ``BODY`` coordinates: the only product with the frame's
    sandwiches, summed by :func:`_fixed_sum`."""
    matrix = frame.to_body if to == BODY else frame.to_principal
    return _fixed_sum(x[..., None, :] * matrix)


def _body(particles, what: str) -> list:
    """``particles`` as a list; ``ValueError`` naming ``what`` unless each
    one's point is in Cl(3,0,1)."""
    particles = list(particles)
    for alg in {p.r.algebra for p in particles}:
        _require_pga(alg, what, (4,))
    return particles


def _require_finite_inertia(*arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise SingularInertiaError("inertia overflows: masses or positions too large")


def _mass_moments(particles, origin=0.0):
    """Mass ``M``, first moment ``c = sum m x`` and second moment ``S = sum m
    (|x|^2 1 - x x^T)`` of a body about ``origin``.  A position is a point's
    trivector coordinates over its signed weight; a zero weight raises."""
    masses = np.array([p.mass for p in particles], dtype=float)
    slots = np.array([p.r.coeffs[p.r.algebra.grade_indices[3]]
                      for p in particles]).reshape(len(masses), 4)
    if not slots[:, 0].all():
        raise DegenerateElementError("ideal point has no position")
    x = slots[:, 1:] / slots[:, :1] - origin
    mx = masses[:, None] * x
    t = mx.T @ x                                   # sum m x x^T
    d = np.diagonal(t)          # S_ii adds the two other squares: none cancels
    s = np.diag(np.roll(d, 1) + np.roll(d, -1)) - (t - np.diag(d))
    return float(masses.sum()), mx.sum(axis=0), s


def _principal_axes(mass, c, moment_about) -> PrincipalAxes:
    """Centroid ``c / M``, axes and descending moments of twice the second
    moment ``moment_about(centroid)``.  A massless body has no centroid
    unless ``c`` is 0 too, as the empty body's is: the origin serves."""
    if mass == 0.0 and c.any():
        raise SingularInertiaError("zero total mass: the masses sum to 0, so "
                                   "the body has no centroid")
    center = c / mass if mass else c
    s2 = 2.0 * moment_about(center)
    _require_finite_inertia(mass, center, s2)
    vals, vecs = np.linalg.eigh(s2)
    order = np.argsort(vals)[::-1]
    return PrincipalAxes(center, vecs[:, order].T, vals[order], mass)


def _form(mass, c, s) -> np.ndarray:
    """The form of mass ``M``, moments ``c`` and ``S``; see :func:`inertia_assemble`."""
    cross = 2.0 * np.cross(c, np.eye(3))[:, ::-1]          # -2 [c]x reversed
    return np.block([[2.0 * mass * np.eye(3), cross], [cross.T, 2.0 * s[::-1, ::-1]]])


@np.errstate(over="ignore", invalid="ignore")
def inertia_assemble(particles) -> InertiaTensor:
    """Sum of the particle forms; encodes the body's shape once and for all.

    Over ``(e01, e02, e03 | e12, e31, e23)`` the form has the blocks
    ``2 M 1`` and ``2 S`` reversed on both axes on the diagonal, and
    ``-2 [c]x`` (the matrix of ``v -> c x v``) with its columns reversed
    above it, from :func:`_mass_moments`.  :func:`momentum_of_body` is
    its per-particle oracle.  Its frame takes the moment about the
    centroid (see :func:`principal_decomposition`).  The empty body gives
    the zero tensor, which applies but raises :class:`SingularInertiaError`
    when inverted; a body whose masses sum to 0, or whose form overflows,
    raises it here, with no warning.
    """
    particles = _body(particles, "inertia_assemble")
    mass, c, s = _mass_moments(particles)
    tensor = InertiaTensor(_form(mass, c, s))
    _require_finite_inertia(tensor.form)
    object.__setattr__(tensor, "_axes", _principal_axes(
        mass, c, lambda at: _mass_moments(particles, at)[2]))
    return tensor


def momentum_of_body(particles, omega: VelocityState) -> MomentumState:
    """Per-particle momentum sum ``sum 2 m (R join (Omega x R))``.

    Independent route to ``InertiaTensor.apply``, used as its oracle; the
    empty body gives the zero momentum in ``omega``'s frame.
    """
    particles = _body(particles, "momentum_of_body")
    alg = particles[0].r.algebra if particles else pga3d()
    om = omega.as_multivector(alg)
    total = alg.zero()
    for p in particles:
        total = total + p.mass * join(p.r, 2.0 * om.commutator(p.r))
    return MomentumState(biv_coeffs(total), omega.frame)


@dataclass(frozen=True)
class PrincipalAxes:
    """Mass centroid plus descending principal rotational moments."""

    center: np.ndarray
    axes: np.ndarray      # rows: principal directions
    moments: np.ndarray   # descending
    mass: float


def principal_decomposition(particles) -> PrincipalAxes:
    """Diagonalize a body: translate to the centroid ``c / M``, rotate to axes.

    The centred form's rotational block, in x, y, z order, is ``2 S``
    with ``S`` taken about the centroid, not reduced by the parallel-axis
    term, which would cancel for a body far from the origin.  Masses that
    sum to 0 but leave a first moment, or a mass or moment that
    overflows, raise :class:`SingularInertiaError`.
    """
    particles = _body(particles, "principal_decomposition")
    if not particles:
        raise ValueError("an empty body has no principal axes")
    return inertia_assemble(particles)._axes


# ---------------------------------------------------------------------------
# equations of motion


@dataclass(frozen=True)
class MotionState:
    """Integrator state: body-to-space rotor (even), body momentum, time."""

    g: Multivector
    pi_body: MomentumState
    t: float = 0.0

    def __post_init__(self):
        _body_coeffs(self.pi_body)
        _require_pga(self.g.algebra, "MotionState", (4,))
        _even_coeffs(self.g)                  # raises on an odd part


def integrate(state: MotionState, inertia: InertiaTensor, dt: float,
              steps: int, stride: int = 1, force: ForceSchedule | None = None
              ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``steps`` RK4 steps of the motion equations on the flat state.

    Yields blocks of :data:`_BLOCK_ROWS` rows, the last of at most that
    many: the recorded times and a ``(rows, 14)`` array of states, each
    row the even rotor coefficients (basis order) then the body momentum,
    at steps 0, stride, 2*stride, ..., so ``steps // stride + 1`` rows,
    row 0 being ``state``.  ``force`` is a :class:`ForceSchedule` (None
    runs the empty one, anything else raises :class:`TypeError`): the
    sum of the lines open at a stage time reaches the body as ``(~g F) g``.

    The body is stepped in its principal frame, with motor ``m``: the
    rotor's bivector slots, the momentum and the lines move in once by
    ``X -> ~m X m``, and each recorded row back by ``X -> m X ~m``, both
    by :func:`_move`, so no column of a row, energy included, depends on
    its block.  At rest the rows after row 0 are all the same, bit for
    bit; the first step's renormalization may move a turned rotor's ``I``
    slot from row 0's by an ulp.  Row 0 and :func:`euler_step`, which
    moves in and out at every call, agree with ``state`` and the rows to
    rounding.  A far body's body-frame rows keep fewer digits than the
    step when its centroid moves, as their moment coordinates carry its
    linear momentum times its distance: at 1000 from the origin their
    energy holds to 2.2e-12 over 2000 steps, at the origin to 8.5e-13.

    Arguments, inertia and step are checked and made at the call, and a
    block's steps (the unrecorded ones after the last row too) when it is
    asked for.  Raises :class:`~pgakit.versors.NumericError` when ``dt``
    is not finite, a rotor cannot be normalized or a momentum is not
    finite, :class:`SingularInertiaError` for a degenerate body, and
    ``ValueError`` for a bare form that is not a rigid body's.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ValueError(f"steps must be a whole number >= 0, not {steps!r}")
    if not np.isfinite(dt):
        raise NumericError(f"dt is not finite: {dt!r}")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be a whole number >= 1, not {stride!r}")
    force = _NO_FORCE if force is None else force
    if not isinstance(force, ForceSchedule):
        raise TypeError("force must be a ForceSchedule or None, not "
                        f"{type(force).__name__}")
    alg = state.g.algebra
    frame, inverse = inertia._frame, inertia._inverse   # raises if singular
    run = _rk4_factory(alg)(*inverse[2:].tolist())      # -1/(2M), then c_k
    # y = (g, Pi), whose moved slots go in with the lines in one stack
    y = np.concatenate((state.g.coeffs[alg.even_indices], state.pi_body.coeffs))
    moved = _move(frame, np.vstack((y[_MOVED].reshape(2, 6), force.lines)), _PRINCIPAL)
    y[_MOVED], lines = moved[:2].ravel(), moved[2:]

    # the open windows change only at an edge, so half the sum of the open
    # lines, left to right (the step takes half the momentum slope), is
    # tabulated once per interval between edges, at its first time: row i is
    # half the sum at any t with bisect_right(edges, t) == i, None if it is 0
    edges = sorted({*force.t_start.tolist(), *force.t_end.tolist()})
    sums = [_fixed_sum(lines[on].T) if on.any() else np.zeros(6) for on in
            ((force.t_start <= at) & (at < force.t_end) for at in [-np.inf, *edges])]
    totals = [tuple((0.5 * total).tolist()) if total.any() else None for total in sums]
    return _blocks(run, tuple(y.tolist()), float(state.t), float(dt), steps, stride,
                   edges, totals, frame)


def _blocks(run, y, t, h, steps, stride, edges, totals, frame):
    """The blocks of :func:`integrate`; the last one follows every step.

    Each call of ``run`` fills the block and records the row after it, so
    a full block is yielded when the next row is due."""
    size = min(steps // stride + 1, _BLOCK_ROWS)
    rows, left = [(t, *y)], steps
    while True:
        n = min(left, (size + 1 - len(rows)) * stride)
        y, t = run(y, t, h, n, stride, edges, totals, rows)
        left -= n
        if len(rows) > size:
            yield _block(rows[:size], frame)
            del rows[:size]
        if not left:
            yield _block(rows, frame)
            return


def _block(rows, frame):
    """The times and states of recorded ``(t, *y)`` rows, each state's
    moved slots taken back to the body frame by :func:`_move`."""
    table = np.array(rows)
    times, states = table[:, 0], table[:, 1:]
    states[:, _MOVED] = _move(frame, states[:, _MOVED].reshape(-1, 6), BODY).reshape(-1, 12)
    return times, states


@cache
def _rk4_factory(alg: Algebra):
    """The compiled ``factory`` of :func:`_rk4_source`: made once per
    algebra on first use, never at import; each body binds its own
    principal inertia to it."""
    scope = {"bisect_right": bisect_right, "NumericError": NumericError,
             "_rotor_scale": _rotor_scale, "sqrt": math.sqrt, "inf": math.inf}
    exec(compile(_rk4_source(alg), "<generated rk4 run>", "exec"), scope)
    return scope["factory"]


def _sum(terms) -> str:
    """Source of ``c0 * x0 + c1 * x1 + ...`` for nonzero float
    coefficients, one of magnitude 1 written as its sign."""
    out = ""
    for c, x in terms:
        term = x if abs(c) == 1.0 else f"{abs(c)!r} * {x}"
        out += (" - " if c < 0 else " + ") + term if out else \
            ("-" if c < 0 else "") + term
    return out or "0.0"


def _product(table: np.ndarray, a: list, b: list) -> list:
    """Source of each slot ``m`` of ``sum table[i, j, m] a_i b_j`` for the
    named operands ``a`` and ``b``: one :func:`_sum` over the nonzeros of
    ``table[:, :, m]``, in row-major order."""
    out = []
    for m in range(table.shape[2]):
        rows, cols = np.nonzero(table[:, :, m])
        terms = zip(table[rows, cols, m].tolist(), rows.tolist(), cols.tolist())
        out.append(_sum((c, f"{a[i]} * {b[j]}") for c, i, j in terms))
    return out


# the names of the constants integrate binds to the generated code, in order
_BOUND = ("ia", "c0", "c1", "c2")


def _rk4_source(alg: Algebra) -> str:
    """Source of ``factory(ia, c0, c1, c2)``, whose ``run(y, t, h, steps,
    stride, edges, totals, rows)`` takes ``steps`` RK4 steps of
    :func:`integrate` from the tuple of floats ``y`` at time ``t``,
    appends ``(t, *y)`` to ``rows`` after every ``stride``-th, and
    returns the last ``(y, t)``.

    In the principal frame the form is ``diag(a, a, a, d0, d1, d2)``, so
    with ``v`` the reversed ``Pi``, ``Omega = A^-1 Pi`` is six multiplies,
    ``Omega_k = ia v_k`` and ``Omega_{3+k} = c_k v_{3+k}``, for ``ia =
    -1/a`` and ``c_k = -1/d_k``, locals of ``run`` bound as its defaults.

    Every product is written by :func:`_product` from the nonzeros of a
    slice of the even product table: per stage ``g Omega`` and ``Pi x
    Omega``, half the momentum slope ``2 Pi x Omega + ~g F g``, whose
    factor 2 is folded into the momentum slots' step sizes (h, 2h and
    h/3 where the rotor slots take h/2, h and h/6); and the body-frame
    force, tabulated halved as ``F = totals[bisect_right(edges, s)]`` at
    stage time ``s`` (None: no force), as the bivector part of ``q (r +
    2d)`` with ``q = ~r F``, r and d the euclidean and ideal parts of
    ``g``: ``~d F d``, ``~r F_i d`` and ``~d F_i r`` vanish, and the
    bivector parts of ``~d F_e r`` and ``~r F_e d`` agree.  A step's
    first stage takes the force of the step before's last, and the
    lookup runs only when ``t + h`` reaches the next edge.  Per step
    ``g ~g = a + bI`` comes from ``rotor_norm`` and ``g I`` from
    ``times_i``, which the even product cannot give when the
    pseudoscalar is odd; ``_rotor_scale`` is called only to raise.
    Generating product code per signature is the idea of kingdon
    (Roelfs) and ganja.js (De Keninck).
    """
    tables = alg.even_tables
    ne = len(tables.even)
    product = tables.product
    biv = np.flatnonzero(alg.grades[tables.even] == 2)   # in an even element
    nb, n = len(biv), ne + len(biv)
    commute = product[np.ix_(biv, biv, biv)]
    commute = 0.5 * (commute - commute.transpose(1, 0, 2))
    euclid = np.array(alg._scalar_ip)[tables.even] != 0.0   # the slots of r
    reverse = product[:, biv] * alg._rev_signs[tables.even][:, None, None]

    def names(x, stop, start=0):
        return [f"{x}{i}" for i in range(start, stop)]
    w, f, q = names("w", nb), names("f", nb), names("q", ne)

    def stage(x, k, force):
        """The slope ``k0, k1, ...`` at the state ``x0, x1, ...``."""
        g, v = names(x, ne), names(x, n, ne)[::-1]        # v: Pi reversed
        lines = ([f"{w[3 + i]} = c{i} * {v[3 + i]}" for i in range(3)]
                 + [f"{w[i]} = ia * {v[i]}" for i in range(3)])
        slope = _product(product[:, biv], g, w) + _product(commute, v[::-1], w)
        lines += [f"{k}{m} = {s}" for m, s in enumerate(slope)]
        lines += [f"if {force} is not None:", f"    {', '.join(f)} = {force}"]
        r = [x for x, e in zip(g, euclid) if e]
        rd = [x if e else f"d{i}" for i, (x, e) in enumerate(zip(g, euclid))]
        lines += [f"    {d} = 2.0 * {x}" for x, d in zip(g, rd) if d != x]
        lines += [f"    {qm} = {s}" for qm, s in zip(q, _product(reverse[euclid], r, f))]
        lines += [f"    {k}{ne + i} += {s}"
                  for i, s in enumerate(_product(product[:, :, biv], q, rd))]
        return lines

    state = ", ".join(names("y", n))
    head = [f"{state} = y", "append = rows.append",
            "h2 = h / 2", "hh = 2.0 * h", "h6 = h / 6", "h3 = h / 3",
            "i = bisect_right(edges, t)", "force4 = totals[i]",
            "nxt = edges[i] if i < len(edges) else inf",
            "for k in range(1, steps + 1):"]
    body = ["t2 = t + h2", "t4 = t + h", "force1 = force4",
            "if t4 < nxt:", "    force2 = force1", "else:",
            "    force2 = totals[bisect_right(edges, t2)]",
            "    i = bisect_right(edges, t4)", "    force4 = totals[i]",
            "    nxt = edges[i] if i < len(edges) else inf",
            *stage("y", "k1_", "force1")]
    for s, (force, scale) in enumerate((("force2", ("h2", "h")), ("force2", ("h2", "h")),
                                        ("force4", ("h", "hh"))), 2):
        body += [f"u{i} = y{i} + {scale[i >= ne]} * k{s - 1}_{i}" for i in range(n)]
        body += stage("u", f"k{s}_", force)
    body += [f"{'y' if i >= ne else 'n'}{i} = y{i} + {'h3' if i >= ne else 'h6'} * "
             f"((k1_{i} + k4_{i}) + 2.0 * (k2_{i} + k3_{i}))" for i in range(n)]
    # x - x is 0.0 for a finite x and NaN otherwise
    finite = " + ".join(f"({x} - {x})" for x in names("y", n, ne))
    body += [f"if {finite} != 0.0:",
             "    raise NumericError(f'momentum is not finite at t = {t4!r}')"]
    g = names("n", ne)
    norm = _product(tables.rotor_norm, g, g)
    body += [f"z{k} = {s}" for k, s in enumerate(norm)]
    # (g - q g I) / s; _rotor_scale raises where this would not be a rotor
    body += ["if not (0.0 < z0 < inf and z1 - z1 == 0.0):", "    _rotor_scale(z0, z1)",
             "zq = z1 / (2.0 * z0)", "zs = sqrt(z0)"]
    times_i = _product(tables.times_i.T[None], ["zq"], g)
    body += [f"p{i} = {s}" for i, s in enumerate(times_i) if s != "0.0"]
    body += [f"y{i} = n{i} / zs" if s == "0.0" else f"y{i} = (n{i} - p{i}) / zs"
             for i, s in enumerate(times_i)]
    body += ["t = t4", "if k % stride == 0:", f"    append((t, {state}))"]
    params = ["y", "t", "h", "steps", "stride", "edges", "totals", "rows",
              *(f"{c}={c}" for c in _BOUND)]
    return "\n".join([f"def factory({', '.join(_BOUND)}):",
                      f"    def run({', '.join(params)}):",
                      *("        " + line for line in head),
                      *("            " + line for line in body),
                      f"        return ({state}), t",
                      "    return run", ""])


def euler_step(state: MotionState, inertia: InertiaTensor, dt: float,
               force: ForceSchedule | None = None) -> MotionState:
    """One RK4 step of the motion equations, rotor renormalized at the end.

    This is :func:`integrate` over one step, with its one force input:
    None or a :class:`ForceSchedule` of windowed space-frame lines; each
    call moves the state into the principal frame and back.  Raises
    :class:`~pgakit.versors.NumericError` when the new rotor cannot be
    normalized or the new momentum is not finite.
    """
    ((times, states),) = integrate(state, inertia, dt, 1, force=force)
    return MotionState(even_mv(state.g.algebra, states[1, :8]),
                       MomentumState(states[1, 8:], BODY), float(times[1]))


@np.errstate(over="ignore", invalid="ignore")
def body_energy(inertia: InertiaTensor, state: MotionState) -> float:
    """``energy(Omega)`` with ``Omega = A^-1(Pi)``; see :func:`_momentum_energy`.
    Raises :class:`~pgakit.versors.NumericError` if it overflows."""
    energy = float(_momentum_energy(inertia, state.pi_body.coeffs))
    if not math.isfinite(energy):
        raise NumericError(f"the kinetic energy overflows: {energy!r}")
    return energy


def _momentum_energy(inertia: InertiaTensor, pi: np.ndarray) -> np.ndarray:
    """Energy of a body momentum, or of each row of a ``(rows, 6)`` stack.

    ``form Omega = -rev(Pi)``, with ``rev`` the coordinate reversal of
    the Pluecker pairing, so the energy is ``-Omega . rev(Pi)``: one
    :func:`_move` into the principal frame and one :func:`_fixed_sum` of
    the diagonal form, so a row's energy does not depend on its block.
    """
    v = _move(inertia._frame, pi, _PRINCIPAL)[..., ::-1]
    return -_fixed_sum(v * inertia._inverse * v)


def space_momentum(state: MotionState) -> MomentumState:
    return frame_convert(state.pi_body, state.g, SPACE)


# ---------------------------------------------------------------------------
# forces, statics, work


def force_line(alg: Algebra, at, vector) -> Multivector:
    """Weighted line ``P join i(V)`` carrying a force of ``vector`` at ``at``.

    3D coordinate layout (moments | vector):
    ``mx e01 + my e02 + mz e03 + vz e12 + vy e31 + vx e23``.
    In 2D the result is the 1-vector ``m e0 - vy e1 + vx e2``.
    """
    return join(point(alg, *at), ideal_point(alg, *vector))


def resultant(forces) -> Multivector:
    """Componentwise sum; zero exactly for systems in equilibrium."""
    total = None
    for f in forces:
        total = f if total is None else total + f
    if total is None:
        raise ValueError("empty force system")
    return total


def force_moment_2d(h: Multivector) -> float:
    return h["e0"]


def force_vector_2d(h: Multivector) -> tuple[float, float]:
    return (h["e2"], -h["e1"])


def force_state(alg: Algebra, at, vector) -> ForceState:
    """The space-frame state of :func:`force_line`."""
    return ForceState(biv_coeffs(force_line(alg, at, vector)), SPACE)


def power(omega, delta) -> float:
    """Energy pairing ``-<Omega ^ Delta>`` of a velocity and a force.

    Zero exactly when the two lines are incident (the skater case).
    Matches the rate of change of the half-normalized energy
    ``form(Omega, Omega) / 2`` along integrated motion.  Takes two
    tagged states or two multivectors; a mixed pair raises
    :class:`TypeError`.
    """
    if isinstance(omega, _BivectorState) != isinstance(delta, _BivectorState):
        raise TypeError("power pairs two tagged states or two multivectors, "
                        f"not {type(omega).__name__} and {type(delta).__name__}")
    if isinstance(omega, _BivectorState):
        if omega.frame != delta.frame:
            raise FrameError(f"cannot pair {omega.frame}- and {delta.frame}-frame states")
        return -float(omega.coeffs[::-1] @ delta.coeffs)
    return -pluecker(omega, delta)


def work(times, powers) -> float:
    """Trapezoidal time integral of sampled power values."""
    times = np.asarray(times, dtype=float)
    powers = np.asarray(powers, dtype=float)
    if times.shape != powers.shape or times.ndim != 1:
        raise ValueError("times and powers must be matching 1D samples")
    return float(np.sum(0.5 * np.diff(times) * (powers[1:] + powers[:-1])))

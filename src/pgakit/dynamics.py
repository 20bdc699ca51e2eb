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

:func:`integrate` is the one RK4 loop: it runs any number of steps on
flat coefficient arrays and returns the recorded states as one
``(rows, 14)`` array, making no :class:`Multivector` or state object
per step; :func:`euler_step` is that loop over one step.  The one force
input is a :class:`ForceSchedule`, space-frame force lines over time
windows as data the loop reads at every stage: the sum of the open
lines is looked up and moved to the body frame by one grade-2 sandwich
matrix of ``~g``.  A constant force is one line whose window is always
open.  The inertia operator is inverted and condition-checked once per
tensor, the products are the even-subalgebra tables of
:attr:`Algebra.even_tables`, and the rotor is renormalized in closed
form (:func:`~pgakit.versors.normalize_even`).  A step whose rotor or
momentum stops being finite raises
:class:`~pgakit.versors.NumericError` instead of carrying NaN on.
:func:`body_energy`'s formula also runs row-wise on a stack of momenta.
:func:`frame_convert` moves a tagged state between frames by one 6x6
matrix, :func:`~pgakit.versors.sandwich_matrix` of ``g`` or ``~g``; a
multivector moves by :func:`~pgakit.versors.sandwich`.  The
inertia form of a body is two array contractions over all its points,
so set-up does not grow by products per particle.

Body-frame and space-frame quantities are tagged and may not be mixed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import Algebra, Multivector, _bilinear
from .duality import join
from .metric import (biv_coeffs, biv_mv, even_mv, ideal_point, pluecker,
                     point, point_coords, pseudo_part, ideal_norm)
# sandwich is not called here; the benchmark's tracing tests use dynamics.sandwich
from .versors import (NumericError, _even_coeffs, normalize_even, sandwich,  # noqa: F401
                      sandwich_matrix, sandwich_matrix_even)

BODY = "body"
SPACE = "space"

_COND_LIMIT = 1e12


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
        arr = np.asarray(self.coeffs, dtype=float)
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
    ``~g``; anything but a tagged state raises :class:`TypeError`.
    """
    if not isinstance(x, _BivectorState):
        raise TypeError("frame_convert moves a tagged state, not "
                        f"{type(x).__name__}; sandwich moves a multivector")
    if x.frame == to:
        return x
    m = sandwich_matrix(g if to == SPACE else ~g, 2)
    return type(x)(m @ x.coeffs, to)


@dataclass(frozen=True)
class ForceSchedule:
    """Force lines over time windows, as data for :func:`integrate`.

    Row ``i`` of ``lines`` holds the six bivector coordinates of a
    space-frame force line; it acts while ``t_start[i] <= t <
    t_end[i]``, and lines whose windows overlap add up.  A line that is
    not finite raises :class:`~pgakit.versors.NumericError` naming its
    index, so it cannot turn the sum of the lines that are off into NaN.
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
    def at(cls, alg: Algebra, mass: float, position, velocity=(0.0, 0.0, 0.0)):
        return cls(mass, point(alg, *position), ideal_point(alg, *velocity))


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
    with ``energy(Omega) = form(Omega, Omega) = -<Omega ^ Pi>``.
    """

    form: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.form, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "form", arr)

    @cached_property
    def operator(self) -> np.ndarray:
        """Matrix of Omega -> Pi over the bivector basis: ``-form`` with
        its rows reversed, as the Pluecker pairing reverses coordinates."""
        op = -self.form[::-1]
        op.flags.writeable = False    # cached: a caller must not alter apply
        return op

    def apply(self, omega: VelocityState) -> MomentumState:
        return MomentumState(self.operator @ _body_coeffs(omega), BODY)

    def inverse_apply(self, pi: MomentumState) -> VelocityState:
        return VelocityState(self._inverse_operator @ _body_coeffs(pi), BODY)

    @cached_property
    def _inverse_operator(self) -> np.ndarray:
        # the form is frozen, so one condition check and one inverse serve
        # every later call; a singular tensor raises on every call
        op = self.operator
        if not np.isfinite(op).all():
            raise SingularInertiaError(
                "inertia overflows: masses or positions too large")
        if np.linalg.cond(op) > _COND_LIMIT:
            raise SingularInertiaError(
                "degenerate mass distribution (collinear points?); "
                "refusing to pseudo-invert")
        return np.linalg.inv(op)

    def energy(self, omega: VelocityState) -> float:
        w = _body_coeffs(omega)
        return float(w @ self.form @ w)


def _unit_velocity_spear(r: Multivector, b: Multivector) -> Multivector:
    # spear of the point r when driven with unit velocity bivector b
    return join(r, 2.0 * b.commutator(r))


def inertia_assemble(particles) -> InertiaTensor:
    """Sum of the particle forms; encodes the body's shape once and for all.

    The spear of a point ``r`` driven by the unit velocity bivector
    ``E_i`` is quadratic in ``r``: its coefficients are
    ``S[:, i] = r_a r_c T[a, c, i]``, with ``T[a, c, i] = join(R_a,
    2 E_i x R_c)`` over the basis points ``R_a``, ``R_c``.  A particle's
    energy form pairs its spears, ``-m/2 S^T P S`` with ``P[k, l] =
    <(E_k I) ^ E_l>``, so the whole body is two contractions, not
    products per particle.  ``T`` and ``P`` are contractions of the
    algebra's commutator, join, geometric and outer product tables.

    An empty body gives the zero tensor (applying it is fine, inverting
    it reports the singularity).
    """
    particles = list(particles)
    if not particles:
        return InertiaTensor(np.zeros((6, 6)))
    alg = particles[0].r.algebra
    idx = alg.grade_indices[alg.dim - 1]
    biv, top = alg.grade_indices[2], alg.pseudoscalar_index
    t = 2.0 * np.einsum("icm,amk->acik", alg._comm[biv][:, idx],
                        alg._vee[idx][:, :, biv])
    pair = alg._gp[biv, top] @ alg._op[:, biv, top]
    r = np.array([p.r.coeffs[idx] for p in particles])
    masses = np.array([p.mass for p in particles])
    spears = np.einsum("pa,pc,acik->pki", r, r, t)
    form = -0.5 * np.einsum("p,pki,kl,plj->ij", masses, spears, pair, spears)
    return InertiaTensor(form)


def momentum_of_body(particles, omega: VelocityState) -> MomentumState:
    """Per-particle momentum sum ``sum 2 m (R join (Omega x R))``.

    Independent route to ``InertiaTensor.apply``, used as its oracle.
    """
    alg = particles[0].r.algebra
    om = omega.as_multivector(alg)
    total = alg.zero()
    for p in particles:
        total = total + p.mass * _unit_velocity_spear(p.r, om)
    return MomentumState(biv_coeffs(total), omega.frame)


def inertia_clifford_apply(a: InertiaTensor, omega: VelocityState) -> MomentumState:
    """Momentum via the auxiliary Clifford algebra over bivector space.

    The inertia form is installed as the inner product on the six
    velocity directions; contracting the velocity 1-vector into the
    unit 6-volume gives a 5-vector whose dual is the momentum.  The
    orientation of the volume is fixed once so that momenta land in the
    plane-based (axis) convention.
    """
    pairings = a.form @ _body_coeffs(omega)   # <Omega, b_j> for each generator
    orient = -1.0                             # chosen unit-volume orientation
    pi = np.zeros(6)
    for j in range(6):
        sorted5 = orient * (-1.0) ** j * pairings[j]   # x . (b0 ^ ... ^ b5)
        canonical5 = (-1.0) ** j * sorted5             # canonical 5-blade basis
        pi[5 - j] += canonical5                        # complementary-blade dual
    return MomentumState(pi, BODY)


@dataclass(frozen=True)
class PrincipalAxes:
    """Mass centroid plus descending principal rotational moments."""

    center: np.ndarray
    axes: np.ndarray      # rows: principal directions
    moments: np.ndarray   # descending
    mass: float


def principal_decomposition(particles) -> PrincipalAxes:
    """Diagonalize a body: translate to the centroid, rotate to axes.

    The rotational block of the centred inertia form, in x, y, z order,
    is ``2 sum m (|r|^2 1 - r r^T)``: twice the classical tensor.
    """
    particles = list(particles)
    if not particles:
        raise ValueError("an empty body has no principal axes")
    masses = np.array([p.mass for p in particles])
    positions = np.array([point_coords(p.r) for p in particles])
    total = masses.sum()
    center = masses @ positions / total
    r = positions - center
    rot = 2.0 * ((masses @ (r * r).sum(axis=1)) * np.eye(3) - (masses * r.T) @ r)
    vals, vecs = np.linalg.eigh(rot)
    order = np.argsort(vals)[::-1]
    return PrincipalAxes(center, vecs[:, order].T, vals[order], float(total))


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
        _even_coeffs(self.g)                  # raises on an odd part


def integrate(state: MotionState, inertia: InertiaTensor, dt: float,
              steps: int, stride: int = 1, force: ForceSchedule | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """``steps`` RK4 steps of the motion equations on the flat state.

    Returns the recorded times and a ``(rows, 14)`` array of states, each
    row the even rotor coefficients (basis order) then the body momentum.
    Rows are taken at steps 0, stride, 2*stride, ..., so there are
    ``steps // stride + 1`` of them and row 0 is ``state`` itself.
    ``force`` is a :class:`ForceSchedule`, evaluated at every stage on
    flat arrays: the open windows select the sum of their lines, which
    reaches the body frame as ``~g F g``, one grade-2 sandwich matrix of
    the reversed stage rotor.  None runs the empty schedule.  Any other
    ``force`` raises :class:`TypeError`.  The rotor is renormalized after
    every step; no :class:`Multivector` or state object is made per
    step.  Raises :class:`~pgakit.versors.NumericError` when ``dt`` is
    not finite, a rotor cannot be normalized or a momentum is not finite.
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
    tables = alg.even_tables
    motion, ne = tables.motion, len(tables.even)
    inv_op = inertia._inverse_operator
    rev = alg._rev_signs[tables.even]

    # the set of open windows changes only at an edge, so the sum of the
    # open lines is tabulated once per interval between edges; row i is
    # ``open @ lines`` at the interval's first time, bit for bit the sum
    # at any stage time t with bisect_right(edges, t) == i
    edges = sorted({*force.t_start.tolist(), *force.t_end.tolist()})
    totals = [((force.t_start <= at) & (at < force.t_end)) @ force.lines
              for at in [-np.inf, *edges]]
    active = [bool(total.any()) for total in totals]

    # y = (g, Pi): the even rotor coefficients, then the body momentum
    def rhs(t, y):
        omega = inv_op @ y[ne:]
        dy = _bilinear(y, omega, motion)
        i = bisect_right(edges, t)
        if active[i]:
            # ~g F g: one grade-2 sandwich matrix of the reversed rotor
            dy[ne:] += sandwich_matrix_even(alg, rev * y[:ne], 2) @ totals[i]
        return dy

    y = np.concatenate((state.g.coeffs[tables.even], state.pi_body.coeffs))
    t, h = state.t, dt
    times = np.empty(steps // stride + 1)
    states = np.empty((len(times), len(y)))
    times[0], states[0] = t, y
    for k in range(1, steps + 1):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + h
        if not np.isfinite(y[ne:]).all():
            raise NumericError(f"momentum is not finite at t = {t!r}")
        y[:ne] = normalize_even(alg, y[:ne])
        if k % stride == 0:
            times[k // stride], states[k // stride] = t, y
    return times, states


def euler_step(state: MotionState, inertia: InertiaTensor, dt: float,
               force: ForceSchedule | None = None) -> MotionState:
    """One RK4 step of the motion equations, rotor renormalized at the end.

    This is :func:`integrate` over one step, with its one force input:
    None or a :class:`ForceSchedule` of windowed space-frame lines.
    Raises :class:`~pgakit.versors.NumericError` when the new rotor
    cannot be normalized or the new momentum is not finite.
    """
    times, states = integrate(state, inertia, dt, 1, force=force)
    alg = state.g.algebra
    ne = len(alg.even_indices)
    return MotionState(even_mv(alg, states[1, :ne]),
                       MomentumState(states[1, ne:], BODY), float(times[1]))


def body_energy(inertia: InertiaTensor, state: MotionState) -> float:
    """``energy(Omega)`` with ``Omega = A^-1(Pi)``; see :func:`_momentum_energy`."""
    return float(_momentum_energy(inertia, state.pi_body.coeffs))


def _momentum_energy(inertia: InertiaTensor, pi: np.ndarray) -> np.ndarray:
    """Energy of a body momentum, or of each row of a ``(rows, 6)`` stack.

    ``form Omega = -rev(Pi)``, with ``rev`` the coordinate reversal of
    the Pluecker pairing, so the energy is ``-Omega . rev(Pi)``: one
    mat-vec with the cached inverse and one dot per momentum.
    """
    omega = pi @ inertia._inverse_operator.T
    return -(omega * pi[..., ::-1]).sum(axis=-1)


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
    ``form(Omega, Omega) / 2`` along integrated motion.
    """
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

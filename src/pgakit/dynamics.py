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

The step runs on flat coefficient arrays only: the inertia operator is
inverted and condition-checked once per tensor, the products are the
even-subalgebra tables of :attr:`Algebra.even_tables`, and the rotor
is renormalized in closed form (:func:`~pgakit.versors.normalize_even`).
A step whose rotor or momentum stops being finite raises
:class:`~pgakit.versors.NumericError` instead of carrying NaN on.
Moving a bivector state between frames is one 6x6 matrix,
:func:`~pgakit.versors.sandwich_matrix` of ``g`` or ``~g``.  The
inertia form of a body is two array contractions over all its points,
so set-up does not grow by products per particle.

Body-frame and space-frame quantities are tagged and may not be mixed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .algebra import Algebra, Multivector, _bilinear
from .duality import join
from .metric import (biv_coeffs, biv_mv, even_mv, ideal_point, pluecker,
                     point, pseudo_part, ideal_norm)
from .versors import NumericError, normalize_even, sandwich, sandwich_matrix

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

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _same_frame(self, other)
        return type(self)(self.coeffs + other.coeffs, self.frame)

    def __mul__(self, scalar: float):
        return type(self)(self.coeffs * float(scalar), self.frame)

    __rmul__ = __mul__


class VelocityState(_BivectorState):
    pass


class MomentumState(_BivectorState):
    pass


class ForceState(_BivectorState):
    pass


def _same_frame(a, b):
    if a.frame != b.frame:
        raise FrameError(f"cannot combine {a.frame}-frame and {b.frame}-frame states")


def frame_convert(x, g: Multivector, to: str):
    """Move a state or multivector between body and space frames.

    body -> space is ``g X ~g``; the inverse direction undoes it.
    """
    if isinstance(x, _BivectorState):
        if x.frame == to:
            return x
        m = sandwich_matrix(g if to == SPACE else ~g, 2)
        return type(x)(m @ x.coeffs, to)
    if to == SPACE:
        return sandwich(g, x)
    if to == BODY:
        return sandwich(~g, x)
    raise ValueError(f"unknown frame {to!r}")


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


_K6 = np.fliplr(np.eye(6))  # Pluecker pairing of the bivector basis


@dataclass(frozen=True)
class InertiaTensor:
    """Positive semi-definite bilinear form on velocity bivectors.

    ``form[i, j]`` is the energy pairing of basis bivectors i and j;
    applying the tensor maps a velocity state to the momentum state
    with ``energy(Omega) = form(Omega, Omega) = -<Omega ^ Pi>``.
    """

    form: np.ndarray
    algebra: Algebra

    def __post_init__(self):
        arr = np.asarray(self.form, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "form", arr)

    @property
    def operator(self) -> np.ndarray:
        """Matrix of Omega -> Pi over the bivector basis: ``-K form``."""
        return -_K6 @ self.form

    def apply(self, omega: VelocityState) -> MomentumState:
        if omega.frame != BODY:
            raise FrameError("the inertia tensor lives in the body frame")
        return MomentumState(self.operator @ omega.coeffs, BODY)

    def inverse_apply(self, pi: MomentumState) -> VelocityState:
        if pi.frame != BODY:
            raise FrameError("the inertia tensor lives in the body frame")
        return VelocityState(self._inverse_operator @ pi.coeffs, BODY)

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
        if omega.frame != BODY:
            raise FrameError("the inertia tensor lives in the body frame")
        return float(omega.coeffs @ self.form @ omega.coeffs)


def _unit_velocity_spear(r: Multivector, b: Multivector) -> Multivector:
    # spear of the point r when driven with unit velocity bivector b
    return join(r, 2.0 * b.commutator(r))


def inertia_assemble(particles, alg: Algebra | None = None) -> InertiaTensor:
    """Sum of the particle forms; encodes the body's shape once and for all.

    The spear of a point ``r`` driven by the unit velocity bivector
    ``E_i`` is quadratic in ``r``: its coefficients are
    ``S[:, i] = r_a r_c T[a, c, i]``, with ``T`` built from the basis
    points.  A particle's energy form pairs its spears,
    ``-m/2 S^T P S`` with ``P[k, l] = <(E_k I) ^ E_l>``, so the whole
    body is two contractions, not products per particle.

    An empty body gives the zero tensor (applying it is fine, inverting
    it reports the singularity).
    """
    particles = list(particles)
    if not particles:
        from .algebra import pga3d
        return InertiaTensor(np.zeros((6, 6)), alg or pga3d())
    alg = particles[0].r.algebra
    idx = alg.grade_indices[alg.dim - 1]
    basis = [biv_mv(alg, row) for row in np.eye(6)]
    corners = [Multivector(alg, row) for row in np.eye(alg.n_blades)[idx]]
    # T[a, c, i] = join(R_a, 2 E_i x R_c) over the basis points R_a, R_c
    t = 2.0 * np.array([[[biv_coeffs(join(ra, b.commutator(rc))) for b in basis]
                         for rc in corners] for ra in corners])
    i_mv = alg.blade("I")
    pair = np.array([[pseudo_part((bk * i_mv) ^ bl) for bl in basis]
                     for bk in basis])
    r = np.array([p.r.coeffs[idx] for p in particles])
    masses = np.array([p.mass for p in particles])
    spears = np.einsum("pa,pc,acik->pki", r, r, t)
    form = -0.5 * np.einsum("p,pki,kl,plj->ij", masses, spears, pair, spears)
    return InertiaTensor(form, alg)


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
    if omega.frame != BODY:
        raise FrameError("the inertia tensor lives in the body frame")
    pairings = a.form @ omega.coeffs          # <Omega, b_j> for each generator
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
    """Diagonalize a body: translate to the centroid, rotate to axes."""
    particles = list(particles)
    masses = np.array([p.mass for p in particles])
    from .metric import point_coords
    positions = np.array([point_coords(p.r) for p in particles])
    total = masses.sum()
    center = masses @ positions / total
    alg = particles[0].r.algebra
    centered = [replace(p, r=point(alg, *(pos - center)))
                for p, pos in zip(particles, positions)]
    form = inertia_assemble(centered).form
    # rotational block in x,y,z axis order: slots e23, e31, e12
    rot = form[np.ix_([5, 4, 3], [5, 4, 3])]
    vals, vecs = np.linalg.eigh(rot)
    order = np.argsort(vals)[::-1]
    return PrincipalAxes(center, vecs[:, order].T, vals[order], float(total))


# ---------------------------------------------------------------------------
# equations of motion


@dataclass(frozen=True)
class MotionState:
    """Integrator state: body-to-space rotor, body momentum, time."""

    g: Multivector
    pi_body: MomentumState
    t: float = 0.0

    def __post_init__(self):
        if self.pi_body.frame != BODY:
            raise FrameError("MotionState stores the body-frame momentum")


def euler_step(state: MotionState, inertia: InertiaTensor, dt: float,
               force=None) -> MotionState:
    """One RK4 step of the motion equations, rotor renormalized at the end.

    ``force`` may be None, a body-frame :class:`ForceState`, or a
    callable ``(t, g, pi_body) -> ForceState`` evaluated at every
    stage (the rotor argument is stage-extrapolated).  Raises
    :class:`~pgakit.versors.NumericError` when the new rotor cannot be
    normalized or the new momentum is not finite.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    alg = state.g.algebra
    tables = alg.even_tables
    motion, ne = tables.motion, len(tables.even)
    inv_op = inertia._inverse_operator

    if isinstance(force, ForceState):
        if force.frame != BODY:
            raise FrameError("euler_step takes the force in the body frame")
        const_force = force.coeffs
        force = None
    else:
        const_force = None

    # y = (g, Pi): the even rotor coefficients, then the body momentum
    def rhs(t, y):
        omega = inv_op @ y[ne:]
        dy = _bilinear(y, omega, motion)
        if const_force is not None:
            dy[ne:] += const_force
        elif force is not None:
            f = force(t, even_mv(alg, y[:ne]), MomentumState(y[ne:], BODY))
            if f.frame != BODY:
                raise FrameError("force callable must return a body-frame state")
            dy[ne:] += f.coeffs
        return dy

    y = np.concatenate((state.g.coeffs[tables.even], state.pi_body.coeffs))
    t, h = state.t, dt
    k1 = rhs(t, y)
    k2 = rhs(t + h / 2, y + h / 2 * k1)
    k3 = rhs(t + h / 2, y + h / 2 * k2)
    k4 = rhs(t + h, y + h * k3)
    y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    pi = y[ne:]
    if not np.isfinite(pi).all():
        raise NumericError(f"momentum is not finite at t = {t + h!r}")
    g = even_mv(alg, normalize_even(alg, y[:ne]))
    return MotionState(g, MomentumState(pi, BODY), t + h)


def body_energy(inertia: InertiaTensor, state: MotionState) -> float:
    """``energy(Omega)`` with ``Omega = A^-1(Pi)``.

    ``form Omega = -K Pi``, so the energy is ``-Omega . K Pi``: one
    mat-vec with the cached inverse and one dot.
    """
    pi = state.pi_body.coeffs
    return -float((inertia._inverse_operator @ pi) @ pi[::-1])


def space_momentum(state: MotionState) -> MomentumState:
    return frame_convert(state.pi_body, state.g, SPACE)


# ---------------------------------------------------------------------------
# forces, statics, work


def force_homogeneous(p: Multivector, v: Multivector) -> Multivector:
    """Weighted line ``P join i(V)`` carrying a force of vector ``v``.

    3D coordinate layout (moments | vector):
    ``mx e01 + my e02 + mz e03 + vz e12 + vy e31 + vx e23``.
    In 2D the result is the 1-vector ``m e0 - vy e1 + vx e2``.
    """
    return join(p, v)


def force_line(alg: Algebra, at, vector) -> Multivector:
    return force_homogeneous(point(alg, *at), ideal_point(alg, *vector))


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


def force_state(alg: Algebra, at, vector, frame: str = SPACE) -> ForceState:
    return ForceState(biv_coeffs(force_line(alg, at, vector)), frame)


def power(omega, delta) -> float:
    """Energy pairing ``-<Omega ^ Delta>`` of a velocity and a force.

    Zero exactly when the two lines are incident (the skater case).
    Matches the rate of change of the half-normalized energy
    ``form(Omega, Omega) / 2`` along integrated motion.
    """
    if isinstance(omega, _BivectorState):
        _same_frame(omega, delta)
        return -float(omega.coeffs @ _K6 @ delta.coeffs)
    return -pluecker(omega, delta)


def work(times, powers) -> float:
    """Trapezoidal time integral of sampled power values."""
    times = np.asarray(times, dtype=float)
    powers = np.asarray(powers, dtype=float)
    if times.shape != powers.shape or times.ndim != 1:
        raise ValueError("times and powers must be matching 1D samples")
    return float(np.sum(0.5 * np.diff(times) * (powers[1:] + powers[:-1])))

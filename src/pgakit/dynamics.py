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
returns the recorded states as one ``(rows, 14)`` array;
:func:`euler_step` is that loop over one step.  A step is one call of
straight-line Python on 14 floats, generated on first use from the
nonzeros of :attr:`Algebra.even_tables` and compiled once per algebra
(about 5 ms); each body binds the entries of its inverse inertia
operator, which is inverted and condition-checked once per tensor.  The
step covers the four stages, the force term, the momentum check and
the closed-form rotor renormalization.  On a shared 2-vCPU Xeon it
costs 11-14 us on the benchmark's force-free scene and 15-22 us on its
forced one, against 42-60 and 64-80 us for the numpy route it replaced.
Its one force input is a :class:`ForceSchedule`, space-frame force
lines over time windows: at every stage the sum of the open lines
reaches the body frame as ``~g F g``.  A rotor or momentum that stops
being finite raises :class:`~pgakit.versors.NumericError` instead of
carrying NaN on.
:func:`frame_convert` moves a tagged state by one 6x6 matrix; a
multivector moves by :func:`~pgakit.versors.sandwich`.  The inertia
form is a closed form in the body's mass, first moment and second
moment, so set-up makes no product per particle.

Body-frame and space-frame quantities are tagged and may not be mixed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import Algebra, Multivector
from .duality import join
from .metric import (DegenerateElementError, biv_coeffs, biv_mv, even_mv,
                     ideal_norm, ideal_point, pluecker, point, pseudo_part)
# sandwich is not called here; the benchmark's tracing tests use dynamics.sandwich
from .versors import (NumericError, _even_coeffs, _rotor_scale, sandwich,  # noqa: F401
                      sandwich_matrix)

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
        arr = np.array(self.form, dtype=float)    # a copy, as for the states
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


def inertia_assemble(particles) -> InertiaTensor:
    """Sum of the particle forms; encodes the body's shape once and for all.

    Over ``(e01, e02, e03 | e12, e31, e23)`` the form has the blocks
    ``2 M 1`` and ``2 S`` reversed on both axes on the diagonal, and
    ``-2 [c]x`` (the matrix of ``v -> c x v``) with its columns reversed
    above it, from :func:`_mass_moments`.  :func:`momentum_of_body` is
    its per-particle oracle.  An empty body gives the zero tensor
    (applying it is fine, inverting it reports the singularity).
    """
    mass, c, s = _mass_moments(list(particles))
    cross = 2.0 * np.cross(c, np.eye(3))[:, ::-1]          # -2 [c]x reversed
    return InertiaTensor(np.block([[2.0 * mass * np.eye(3), cross],
                                   [cross.T, 2.0 * s[::-1, ::-1]]]))


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
    term, which would cancel for a body far from the origin.
    """
    particles = list(particles)
    if not particles:
        raise ValueError("an empty body has no principal axes")
    mass, c, _ = _mass_moments(particles)
    center = c / mass
    vals, vecs = np.linalg.eigh(2.0 * _mass_moments(particles, center)[2])
    order = np.argsort(vals)[::-1]
    return PrincipalAxes(center, vecs[:, order].T, vals[order], mass)


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
    ``force`` is a :class:`ForceSchedule`; the open windows at each stage
    time select the sum of their lines, which reaches the body frame as
    ``~g F g``.  None runs the empty schedule.  Any other ``force`` raises
    :class:`TypeError`.  Each step is one call of straight-line code on
    floats, generated from the nonzeros of the even tables (see
    :func:`_rk4_source`): the four stages, the force term, the momentum
    check and the closed-form rotor renormalization; no numpy call,
    :class:`Multivector` or state object is made per step.  Raises
    :class:`~pgakit.versors.NumericError` when ``dt`` is not finite, a
    rotor cannot be normalized or a momentum is not finite.
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
    step = _rk4_step(alg, inertia._inverse_operator)

    # the set of open windows changes only at an edge, so the sum of the
    # open lines is tabulated once per interval between edges; row i is
    # ``open @ lines`` at the interval's first time, bit for bit the sum
    # at any stage time t with bisect_right(edges, t) == i, and None
    # where no line acts
    edges = sorted({*force.t_start.tolist(), *force.t_end.tolist()})
    sums = [((force.t_start <= at) & (at < force.t_end)) @ force.lines
            for at in [-np.inf, *edges]]
    totals = [tuple(total.tolist()) if total.any() else None for total in sums]

    # y = (g, Pi): the even rotor coefficients, then the body momentum
    y = (*state.g.coeffs[alg.even_indices].tolist(), *state.pi_body.coeffs.tolist())
    t, h = float(state.t), float(dt)
    times = np.empty(steps // stride + 1)
    states = np.empty((len(times), len(y)))
    times[0], states[0] = t, y
    for k in range(1, steps + 1):
        y = step(y, t, h, edges, totals)
        t = t + h
        if k % stride == 0:
            times[k // stride], states[k // stride] = t, y
    return times, states


def _rk4_step(alg: Algebra, inv_op: np.ndarray):
    """The generated RK4 step with the entries of ``A^-1`` bound.

    The source is compiled once per algebra, on first use, and its
    factory cached on the even tables, so another body only binds its
    own operator.
    """
    tables = alg.even_tables
    if tables.rk4_factory is None:
        scope = {"bisect_right": bisect_right, "isfinite": math.isfinite,
                 "NumericError": NumericError, "_rotor_scale": _rotor_scale}
        exec(compile(_rk4_source(alg), "<generated rk4 step>", "exec"), scope)
        tables.rk4_factory = scope["factory"]
    return tables.rk4_factory(*inv_op.ravel().tolist())


def _sum(terms) -> str:
    """Source of ``c0 * x0 + c1 * x1 + ...``: zero terms dropped and a
    magnitude that all coefficients share taken out once, as
    ``repr(float(m)) * (...)`` unless it is 1."""
    terms = [(float(c), x) for c, x in terms if c]
    if not terms:
        return "0.0"
    mags = {abs(c) for c, _ in terms}
    m = mags.pop() if len(mags) == 1 else 1.0
    out = ""
    for c, x in terms:
        term = x if abs(c) == m else f"{abs(c)!r} * {x}"
        out += (" - " if c < 0 else " + ") + term if out else \
            ("-" if c < 0 else "") + term
    return out if m == 1.0 else f"{m!r} * ({out})"


def _pairs(q: np.ndarray) -> list:
    """The quadratic form ``sum q[a, b] x_a x_b`` (extra axes kept) as
    ``(a, b, coefficients)`` over ``a <= b``, the two orders added up and
    pairs with no nonzero coefficient left out."""
    pairs = [(a, b, q[a, a] if a == b else q[a, b] + q[b, a])
             for a in range(len(q)) for b in range(a, len(q))]
    return [(a, b, c) for a, b, c in pairs if c.any()]


def _rk4_source(alg: Algebra) -> str:
    """Source of ``factory(inv0_0, ..., inv5_5)``, whose ``step(y, t, h,
    edges, totals)`` is one RK4 step of :func:`integrate` on a tuple of
    floats, returning the next one.

    Every term is a nonzero of the even tables: ``(g Omega, 2 Pi x
    Omega)`` from ``motion``, with ``Omega = A^-1 Pi`` from the bound
    entries; the force ``~g F g`` from ``sandwich(2)`` at the reversed
    rotor, with ``F = totals[bisect_right(edges, s)]`` at stage time
    ``s`` (None: no force); ``g ~g = a + bI`` from ``rotor_norm`` and
    ``g I`` from ``times_i``.  Generating product code per signature is
    the idea of kingdon (Roelfs) and ganja.js (De Keninck).
    """
    tables = alg.even_tables
    n, ne = tables.motion.shape[0], len(tables.even)
    nb = n - ne
    motion = tables.motion.reshape(n, nb, n)
    rev = alg._rev_signs[tables.even]
    # ~g F g, the sandwich of the reversed rotor, as sums of the pair
    # products p = c x_a x_b, with c the pair's smallest coefficient, so
    # that most terms are a bare + or -
    load = []
    for a, b, c in _pairs(tables.sandwich(2).reshape(ne, ne, nb, nb)
                          * np.multiply.outer(rev, rev)[:, :, None, None]):
        m = np.abs(c[c != 0]).min()
        load.append((f"p{a}_{b}", _sum([(m, f"{{x}}{a} * {{x}}{b}")]),
                     (c / m).tolist()))
    # its matrix entries, each distinct sum named once (the rotation block
    # acts on both halves of F)
    grid = [[_sum((c[i][j], p) for p, _, c in load) for j in range(nb)]
            for i in range(nb)]
    entries = {}
    for entry in sum(grid, []):
        if entry != "0.0":
            entries.setdefault(entry, f"m{len(entries)}")

    # the slope {k} at the stage state {x} under the force {f}: a template
    # written once, filled in per stage
    rhs = [f"w{j} = " + _sum((1.0, f"inv{j}_{i} * {{x}}{ne + i}")
                             for i in range(nb)) for j in range(nb)]
    slope = [[] for _ in range(n)]
    for i, j, m in np.argwhere(motion).tolist():
        slope[m].append((motion[i, j, m], f"{{x}}{i} * w{j}"))
    rhs += [f"{{k}}{m} = " + _sum(terms) for m, terms in enumerate(slope)]
    rhs += ["if {f} is not None:",
            "    " + ", ".join(f"f{j}" for j in range(nb)) + " = {f}"]
    rhs += [f"    {p} = {product}" for p, product, _ in load]
    rhs += [f"    {name} = {entry}" for entry, name in entries.items()]
    rhs += [f"    {{k}}{ne + i} += " + _sum((1.0, f"{entries[entry]} * f{j}")
                                          for j, entry in enumerate(row)
                                          if entry != "0.0")
            for i, row in enumerate(grid)]
    rhs = "\n".join(rhs)

    body = [", ".join(f"y{i}" for i in range(n)) + " = y",
            "h2 = h / 2", "t2 = t + h2", "t4 = t + h",
            "force1 = totals[bisect_right(edges, t)]",
            "force2 = totals[bisect_right(edges, t2)]",
            "force4 = totals[bisect_right(edges, t4)]",
            rhs.format(x="y", k="k1_", f="force1")]
    for s, (f, scale) in enumerate((("force2", "h2"), ("force2", "h2"),
                                    ("force4", "h")), 2):
        body += [f"u{i} = y{i} + {scale} * k{s - 1}_{i}" for i in range(n)]
        body += [rhs.format(x="u", k=f"k{s}_", f=f)]
    body += ["h6 = h / 6"]
    body += [f"n{i} = y{i} + h6 * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
             for i in range(n)]
    finite = " and ".join(f"isfinite(n{i})" for i in range(ne, n))
    body += [f"if not ({finite}):",
             "    raise NumericError(f'momentum is not finite at t = {t4!r}')"]
    norm = _pairs(tables.rotor_norm.reshape(ne, ne, 2))
    body += [f"z{k} = " + _sum((c[k], f"n{a} * n{b}") for a, b, c in norm)
             for k in range(2)]
    # (g - (b / 2a) g I) / sqrt(a)
    rotor = [_sum([(1.0, f"n{i}"), *((-c, f"zq * n{j}")
                                     for j, c in enumerate(tables.times_i[i]))])
             for i in range(ne)]
    rotor = [(f"({g})" if " " in g else g) + " / zs" for g in rotor]
    body += ["zq, zs = _rotor_scale(z0, z1)",
             "return (" + ", ".join(rotor + [f"n{i}" for i in range(ne, n)]) + ")"]
    inv = ", ".join(f"inv{i}_{j}" for i in range(nb) for j in range(nb))
    return "\n".join([f"def factory({inv}):",
                      "    def step(y, t, h, edges, totals):",
                      *("        " + line for chunk in body
                        for line in chunk.split("\n")),
                      "    return step", ""])


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

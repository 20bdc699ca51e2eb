"""Particles, inertia, Euler equations, statics, work."""

import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from pgakit import (BODY, SPACE, DegenerateElementError, ForceSchedule,
                    ForceState, FrameError, InertiaTensor, MomentumState,
                    MotionState, NumericError, Particle, SingularInertiaError,
                    VelocityState, algebra, body_energy, distance, euler_step,
                    exp_bivector, force_line, frame_convert, ideal_point,
                    inertia_assemble, kinetic_energy,
                    momentum_of_body, normalize, orbit_derivative, pluecker,
                    pga3d, point, point_coords, power, principal_decomposition,
                    resultant, sandwich, space_momentum, work)
import pgakit.dynamics as dynamics
from pgakit.dynamics import (force_moment_2d, force_state, force_vector_2d,
                             integrate, kinetic_energy_pairing,
                             kinetic_energy_speed)
from pgakit.metric import biv_coeffs, biv_mv, even_mv, line3d_point_dir
from pgakit.versors import rotor_constraint, sandwich_matrix

from conftest import assert_rel_close, reference_rk4

ROOT = Path(__file__).resolve().parents[1]


def four_point_body(alg, offset=0.0):
    data = [(1.0, (0.1, 0.2, 0.3)), (1.5, (1.0, -0.5, 0.2)),
            (0.7, (-0.4, 0.8, -0.6)), (2.0, (0.3, 0.4, 1.1))]
    return [Particle.at(alg, m, np.add(x, offset)) for m, x in data]


# ---------------------------------------------------------------------------
# particles


def test_particle_spear_example(space_alg):
    p = Particle.at(space_alg, 1.0, (0, 0, 0), (1, 0, 0))
    from pgakit.dynamics import particle_spear, particle_momentum, \
        particle_velocity_state
    lam = particle_spear(p)
    assert lam == space_alg.blade("e23")          # the x-axis, weight one
    assert particle_momentum(p) == lam
    gamma = particle_velocity_state(p)
    assert gamma.grades() == [2]
    assert np.allclose(biv_coeffs(gamma)[3:], 0.0)  # ideal: translatory


def test_particle_at_rest(space_alg):
    p = Particle.at(space_alg, 2.0, (1, 2, 3))
    from pgakit.dynamics import particle_spear, particle_momentum
    assert particle_spear(p) == space_alg.zero()
    assert particle_momentum(p) == space_alg.zero()
    assert kinetic_energy(p) == 0.0


def test_particle_at_rest_in_any_algebra(plane_alg, space_alg):
    # the default velocity is the zero ideal point of the particle's own
    # algebra, not a 3-D triple
    for alg, at in ((plane_alg, (0.0, 1.0)), (space_alg, (0.0, 1.0, 2.0))):
        p = Particle.at(alg, 1.0, at)
        assert p.r == point(alg, *at)
        assert p.rdot == ideal_point(alg, *[0.0] * len(at))
        assert kinetic_energy(p) == 0.0


def test_kinetic_energy_three_ways(space_alg, rng):
    p = Particle.at(space_alg, 1.0, (0, 0, 0), (1, 0, 0))
    assert kinetic_energy(p) == pytest.approx(0.5)
    for _ in range(20):
        q = Particle.at(space_alg, rng.uniform(0.1, 3.0),
                        rng.normal(size=3), rng.normal(size=3))
        e = kinetic_energy(q)
        assert kinetic_energy_speed(q) == pytest.approx(e, rel=1e-12)
        assert kinetic_energy_pairing(q) == pytest.approx(e, rel=1e-12)


def test_orbit_derivative(space_alg, rng):
    z_axis = space_alg.blade("e12")
    origin = point(space_alg, 0, 0, 0)
    assert orbit_derivative(z_axis, origin) == space_alg.zero()
    v = orbit_derivative(z_axis, point(space_alg, 1, 0, 0))
    assert v.grades() == [3]
    assert v["E0"] == 0.0                       # ideal point: a free vector
    assert abs(v["E2"]) == 2.0 and v["E1"] == v["E3"] == 0.0
    # a translator velocity moves every point by the same vector
    ideal = space_alg.multivector({"e01": 0.3, "e02": -1.0, "e03": 0.7})
    v1 = orbit_derivative(ideal, point(space_alg, *rng.normal(size=3)))
    v2 = orbit_derivative(ideal, point(space_alg, *rng.normal(size=3)))
    assert v1.isclose(v2, rel=1e-12)


def test_orbit_derivative_null_plane_form(space_alg, rng):
    from pgakit import join, Multivector
    om = Multivector(space_alg, np.where(space_alg.grades == 2,
                                         rng.normal(size=16), 0.0))
    p = point(space_alg, *rng.normal(size=3))
    lhs = orbit_derivative(om, p)
    rhs = 2.0 * (join(om, p) * space_alg.blade("I"))
    assert lhs.isclose(rhs, rel=1e-11)


# ---------------------------------------------------------------------------
# inertia


def test_single_particle_at_origin_blocks(space_alg):
    a = inertia_assemble([Particle.at(space_alg, 1.5, (0, 0, 0))])
    want = np.zeros((6, 6))
    want[:3, :3] = 2 * 1.5 * np.eye(3)
    np.testing.assert_allclose(a.form, want, atol=1e-14)


def test_empty_body_zero_tensor():
    a = inertia_assemble([])
    assert not a.form.any()
    assert not a.apply(VelocityState(np.ones(6), BODY)).coeffs.any()
    with pytest.raises(SingularInertiaError):
        a.inverse_apply(MomentumState(np.ones(6), BODY))


def test_empty_body_momentum_is_zero_in_its_frame():
    for frame in (BODY, SPACE):
        pi = momentum_of_body([], VelocityState(np.ones(6), frame))
        assert pi.frame == frame and not pi.coeffs.any()
    om = VelocityState(np.ones(6), BODY)
    assert np.array_equal(momentum_of_body([], om).coeffs,
                          inertia_assemble([]).apply(om).coeffs)


# the functions of a body's particles, each called on a body
_OF_A_BODY = {
    "inertia_assemble": inertia_assemble,
    "principal_decomposition": principal_decomposition,
    "momentum_of_body": lambda body: momentum_of_body(body, VelocityState(np.ones(6), BODY)),
}


@pytest.mark.parametrize("name", _OF_A_BODY)
def test_a_body_outside_cl301_is_refused_by_name(name, plane_alg, space_alg):
    planar = [Particle.at(plane_alg, 1.0, x) for x in ((0, 0), (1, 0), (0, 1))]
    for body in (planar, four_point_body(space_alg)[:1] + planar):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} needs the spatial algebra Cl(3,0,1), not Cl(2,0,1)")):
            _OF_A_BODY[name](body)


def test_zero_total_mass_is_named(space_alg):
    # masses +1, -1, +1, -1 sum to 0 but leave a first moment: there is no
    # centroid to divide by, and every route to the frame says so without
    # a divide-by-zero warning
    body = [Particle(m, p.r, p.rdot) for m, p in zip((1.0, -1.0, 1.0, -1.0),
                                                      four_point_body(space_alg))]
    for make in (principal_decomposition, inertia_assemble):
        with pytest.raises(SingularInertiaError, match="zero total mass"):
            make(body)
    # its form as a bare matrix meets the same check where its blocks are read
    bare = InertiaTensor(dynamics._form(*dynamics._mass_moments(body)))
    st = MotionState(space_alg.scalar(1.0), MomentumState(np.ones(6), BODY))
    for solve in (lambda: bare.inverse_apply(st.pi_body), lambda: body_energy(bare, st),
                  lambda: euler_step(st, bare, 1e-3), lambda: integrate(st, bare, 1e-3, 5)):
        with pytest.raises(SingularInertiaError, match="zero total mass"):
            solve()


def test_form_is_symmetric_psd(space_alg):
    a = inertia_assemble(four_point_body(space_alg))
    np.testing.assert_allclose(a.form, a.form.T, atol=1e-12)
    assert np.linalg.eigvalsh(a.form).min() > 0


def test_apply_matches_particle_sum(space_alg, rng):
    body = four_point_body(space_alg)
    a = inertia_assemble(body)
    for _ in range(10):
        om = VelocityState(rng.normal(size=6), BODY)
        np.testing.assert_allclose(a.apply(om).coeffs,
                                   momentum_of_body(body, om).coeffs,
                                   rtol=1e-10, atol=1e-12)


def test_assembled_form_matches_particle_sum_on_large_body(space_alg, rng,
                                                           monkeypatch):
    import pgakit.dynamics as dyn
    from pgakit import join
    body = [Particle.at(space_alg, m, x)
            for m, x in zip(rng.uniform(0.5, 2.0, 40), rng.normal(0, 0.7, (40, 3)))]

    def joins_for(n):
        calls = []
        monkeypatch.setattr(dyn, "join",
                            lambda a, b: calls.append(1) or join(a, b))
        inertia_assemble(body[:n])
        monkeypatch.undo()
        return len(calls)

    # the form is a closed form in the body's moments: its products do
    # not grow with the body
    assert joins_for(2) == joins_for(40)
    a = inertia_assemble(body)
    for om in np.eye(6):
        om = VelocityState(om, BODY)
        np.testing.assert_allclose(a.apply(om).coeffs,
                                   momentum_of_body(body, om).coeffs,
                                   rtol=1e-12, atol=1e-12)


def test_energy_is_pairing_of_velocity_and_momentum(space_alg, rng):
    a = inertia_assemble(four_point_body(space_alg))
    om = VelocityState(rng.normal(size=6), BODY)
    pi = a.apply(om)
    e = a.energy(om)
    assert e == pytest.approx(-pluecker(om.as_multivector(space_alg),
                                        pi.as_multivector(space_alg)), rel=1e-12)
    assert e > 0


def test_inverse_apply_roundtrip(space_alg, rng):
    a = inertia_assemble(four_point_body(space_alg))
    for _ in range(10):
        om = rng.normal(size=6)
        back = a.inverse_apply(a.apply(VelocityState(om, BODY))).coeffs
        np.testing.assert_allclose(back, om, rtol=1e-10, atol=1e-12)


def test_collinear_body_is_singular(space_alg):
    body = [Particle.at(space_alg, 1.0, (t, 2 * t, -t)) for t in (-1, 0.5, 2)]
    a = inertia_assemble(body)
    with pytest.raises(SingularInertiaError):
        a.inverse_apply(MomentumState(np.ones(6), BODY))
    # the failed factorization is not cached: every later use raises too
    st = MotionState(space_alg.scalar(1.0), MomentumState(np.ones(6), BODY))
    with pytest.raises(SingularInertiaError):
        body_energy(a, st)
    with pytest.raises(SingularInertiaError):
        euler_step(st, a, 1e-3)
    # the check is max |d| / min |d| over the principal diagonal, here the
    # form's own: a ratio of 1e12 passes, the next float up and a zero
    # moment are refused
    InertiaTensor(np.diag([1.0] * 5 + [1e12])).inverse_apply(st.pi_body)
    for moment in (np.nextafter(1e12, math.inf), 0.0):
        with pytest.raises(SingularInertiaError):
            InertiaTensor(np.diag([1.0] * 5 + [moment])).inverse_apply(st.pi_body)


@pytest.mark.parametrize("mass, position, velocity", [
    (math.nan, (0.0, 0.0, 0.0), None), (math.inf, (0.0, 0.0, 0.0), None),
    (1.0, (math.inf, 0.0, 0.0), None), (1.0, (0.0, math.nan, 0.0), None),
    (1.0, (0.0, 0.0, 0.0), (0.0, 0.0, -math.inf)),
], ids=["mass-nan", "mass-inf", "position-inf", "position-nan", "velocity-inf"])
def test_particle_at_refuses_non_finite_input(space_alg, mass, position, velocity):
    with pytest.raises(NumericError, match="particle has a coefficient that is not finite"):
        Particle.at(space_alg, mass, position, velocity)


@pytest.mark.parametrize("mass, at", [(1.0, (math.inf, 0.0, 0.0)),
                                      (1.0, (0.0, math.nan, 0.0)),
                                      (math.inf, (1.0, 0.0, 0.0))],
                         ids=["position-inf", "position-nan", "mass-inf"])
def test_inertia_of_a_non_finite_particle_is_refused_without_warnings(space_alg,
                                                                      mass, at):
    # a particle made without Particle.at; the suite turns a RuntimeWarning
    # into an error, so the named error must come first
    body = four_point_body(space_alg) + [Particle(mass, point(space_alg, *at),
                                                  space_alg.zero())]
    with pytest.raises(SingularInertiaError, match="inertia overflows"):
        inertia_assemble(body)


@pytest.mark.parametrize("mass, at", [(1.0, (1e200, 0.0, 0.0)), (1e300, (1e10, 0.0, 0.0))],
                         ids=["far", "heavy"])
def test_inertia_that_overflows_is_refused_without_warnings(space_alg, mass, at):
    # finite particles whose moments overflow: the named error comes first,
    # with every warning an error
    body = [Particle.at(space_alg, mass, at), Particle.at(space_alg, 1.0, (0.0, 1.0, 0.0)),
            Particle.at(space_alg, 1.0, (0.0, 0.0, 1.0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for assemble in (inertia_assemble, principal_decomposition):
            with pytest.raises(SingularInertiaError, match="inertia overflows"):
                assemble(body)


def test_body_energy_that_overflows_is_refused_without_warnings(space_alg):
    a = inertia_assemble(four_point_body(space_alg))
    g = space_alg.scalar(1.0)
    for pi in ([1e300, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, -1e200]):
        with pytest.raises(NumericError, match="kinetic energy overflows"):
            body_energy(a, MotionState(g, MomentumState(pi, BODY)))
    # large but finite energies still come back
    assert math.isfinite(body_energy(a, MotionState(g, MomentumState([1e150] * 6, BODY))))


def test_spherical_body_rotational_block_is_scalar(space_alg):
    body = []
    for axis in range(3):
        for s in (-1.0, 1.0):
            pos = [0.0, 0.0, 0.0]
            pos[axis] = s
            body.append(Particle.at(space_alg, 1.0, pos))
    a = inertia_assemble(body)
    rot = a.form[3:, 3:]
    np.testing.assert_allclose(rot, rot[0, 0] * np.eye(3), atol=1e-12)
    # so rotational momentum is proportional to rotational velocity
    om = VelocityState(np.array([0, 0, 0, 0.3, -0.2, 0.9]), BODY)
    pi = a.apply(om)
    comm = om.as_multivector(space_alg).commutator(pi.as_multivector(space_alg))
    assert np.abs(comm.coeffs).max() < 1e-12


def test_principal_decomposition(space_alg):
    body = four_point_body(space_alg)
    dec = principal_decomposition(body)
    masses = np.array([p.mass for p in body])
    pos = np.array([point_coords(p.r) for p in body])
    np.testing.assert_allclose(dec.center, masses @ pos / masses.sum(), rtol=1e-12)
    assert dec.moments[0] >= dec.moments[1] >= dec.moments[2] > 0
    # axes form a rotation and diagonalize the centered rotational block,
    # read from the per-particle spear sum: a unit rotation about axis i
    # (e23, e31, e12) has momentum -I_i on slot e0i
    assert np.allclose(dec.axes @ dec.axes.T, np.eye(3), atol=1e-12)
    from dataclasses import replace
    centered = [replace(p, r=point(space_alg, *(x - dec.center)))
                for p, x in zip(body, pos)]
    rot = -np.array([momentum_of_body(centered, VelocityState(om, BODY)).coeffs[:3]
                     for om in np.eye(6)[[5, 4, 3]]]).T
    diag = dec.axes @ rot @ dec.axes.T
    np.testing.assert_allclose(diag, np.diag(dec.moments), atol=1e-10)
    with pytest.raises(ValueError, match="empty"):
        principal_decomposition([])


def test_point_weight_does_not_change_the_form(space_alg):
    body = four_point_body(space_alg)
    want = inertia_assemble(body).form
    for w in (2.0, -1.0):
        weighted = [Particle(p.mass, w * p.r, p.rdot) for p in body]
        np.testing.assert_allclose(inertia_assemble(weighted).form, want,
                                   rtol=1e-15, atol=1e-15)
        dec = principal_decomposition(weighted)
        np.testing.assert_allclose(dec.moments, principal_decomposition(body).moments,
                                   rtol=1e-14)


def test_ideal_particle_has_no_inertia(space_alg):
    body = four_point_body(space_alg)
    body.append(Particle(1.0, ideal_point(space_alg, 1.0, 2.0, 3.0),
                         ideal_point(space_alg, 0.0, 0.0, 0.0)))
    for make in (inertia_assemble, principal_decomposition):
        with pytest.raises(DegenerateElementError, match="ideal point"):
            make(body)


def test_far_body_keeps_its_principal_moments(space_alg):
    # the second moment is taken about the centroid, not reduced from the
    # one about the origin, whose parallel-axis term would swamp it
    near = four_point_body(space_alg)
    shift = np.array([1e8, -1e8, 1e8])
    far = [Particle.at(space_alg, p.mass, np.array(point_coords(p.r)) + shift)
           for p in near]
    dec_near, dec_far = principal_decomposition(near), principal_decomposition(far)
    np.testing.assert_allclose(dec_far.moments, dec_near.moments, rtol=1e-6)
    np.testing.assert_allclose(dec_far.center, dec_near.center + shift, rtol=1e-15)


def test_needle_keeps_its_smallest_principal_moment(space_alg):
    # about the long axis S_xx = sum m (y^2 + z^2); as sum m |r|^2 - sum m
    # x^2 it would cancel to 0, since 1 + 1e-18 rounds to 1
    body = [Particle.at(space_alg, 1.0, (sx, sy * 1e-9, 0.0))
            for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)]
    assert principal_decomposition(body).moments[2] == pytest.approx(
        8e-18, rel=1e-12, abs=0.0)


def test_frame_tags_enforced(space_alg, rng):
    a = inertia_assemble(four_point_body(space_alg))
    with pytest.raises(FrameError):
        a.apply(VelocityState(rng.normal(size=6), SPACE))
    with pytest.raises(FrameError):
        power(VelocityState(np.ones(6), BODY), ForceState(np.ones(6), SPACE))
    # every body-frame rule refuses a space-frame state
    omega, pi = VelocityState(np.ones(6), SPACE), MomentumState(np.ones(6), SPACE)
    for refuse in (lambda: a.inverse_apply(pi), lambda: a.energy(omega),
                   lambda: MotionState(space_alg.scalar(1.0), pi)):
        with pytest.raises(FrameError, match="body-frame"):
            refuse()


def test_pluecker_pairing_is_a_reversal(space_alg, rng):
    a = inertia_assemble(four_point_body(space_alg))
    assert np.array_equal(a.operator, -np.fliplr(np.eye(6)) @ a.form)
    assert a.operator is a.operator and not a.operator.flags.writeable
    w, f = rng.normal(size=6), rng.normal(size=6)
    assert power(VelocityState(w, BODY), ForceState(f, BODY)) == pytest.approx(
        -pluecker(biv_mv(space_alg, w), biv_mv(space_alg, f)), rel=1e-12)


def test_power_refuses_a_state_paired_with_a_multivector(space_alg):
    state, mv = VelocityState(np.ones(6), BODY), space_alg.blade("e12")
    for pair in ((state, mv), (mv, state)):
        with pytest.raises(TypeError, match="VelocityState.*Multivector|"
                                            "Multivector.*VelocityState"):
            power(*pair)


def test_value_classes_copy_the_callers_array(space_alg):
    w, f = np.ones(6), np.eye(6)
    state, inertia = VelocityState(w, BODY), InertiaTensor(f)
    w[0], f[0, 0] = 2.0, 3.0                   # still writeable
    assert state.coeffs[0] == 1.0 and inertia.form[0, 0] == 1.0
    assert not (state.coeffs.flags.writeable or inertia.form.flags.writeable)
    # a form of any other shape is refused up front, not by numpy's matmul
    # or the generated step later on
    for shape in ((5, 5), (6, 5), (36,), (1, 6, 6)):
        with pytest.raises(ValueError, match=re.escape(f"6 x 6, not {shape}")):
            InertiaTensor(np.ones(shape))


def test_motion_state_refuses_an_odd_rotor(space_alg):
    # the integrator reads only the even coefficients: an odd part would
    # be dropped without a word, so the state refuses it up front
    pi = MomentumState(np.ones(6), BODY)
    with pytest.raises(ValueError, match="even"):
        MotionState(1.0 + space_alg.blade("e1"), pi)
    MotionState(1.0 + space_alg.blade("e12"), pi)


@pytest.mark.parametrize("sig", [(4, 0, 0), (3, 1, 0), (2, 0, 1)])
def test_the_dynamics_take_only_cl301(sig):
    # a rotor of another algebra ran silently (Cl(4,0,0), Cl(3,1,0)) or
    # failed in the generated step or numpy's matmul (Cl(2,0,1))
    alg = algebra(*sig)
    named = rf"needs the spatial algebra Cl\(3,0,1\), not {re.escape(f'Cl{alg.signature}')}$"
    pi = MomentumState(np.ones(6), BODY)
    with pytest.raises(ValueError, match=named):
        MotionState(alg.scalar(1.0), pi)
    with pytest.raises(ValueError, match=named):
        frame_convert(pi, alg.scalar(1.0), SPACE)


# ---------------------------------------------------------------------------
# motion


def test_zero_momentum_is_stationary(space_alg):
    a = inertia_assemble(four_point_body(space_alg))
    st = MotionState(space_alg.scalar(1.0), MomentumState(np.zeros(6), BODY))
    nxt = euler_step(st, a, 1e-2)
    assert nxt.g == st.g
    assert not nxt.pi_body.coeffs.any()
    assert nxt.t == pytest.approx(1e-2)


def test_non_finite_step_raises(space_alg):
    a = inertia_assemble(four_point_body(space_alg))
    spin = VelocityState(np.array([0.2, -0.4, 0.3, 0.8, -0.5, 0.6]), BODY)
    st = MotionState(space_alg.scalar(1.0), a.apply(spin))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            euler_step(st, a, math.inf)
        with pytest.raises(NumericError):
            euler_step(MotionState(st.g, a.apply(
                VelocityState(1e200 * spin.coeffs, BODY))), a, 1e-3)


def _trajectory(*args, **kwargs):
    """The times and states of one integrate call: its blocks joined."""
    times, states = zip(*integrate(*args, **kwargs))
    return np.concatenate(times), np.concatenate(states)


def test_integrate_records_euler_steps_on_the_rotor_manifold(space_alg, rng):
    # coarse steps of a brisk tumble: without renormalization RK4 leaves
    # the rotor manifold by ~1e-6 per step.  Each euler_step moves its
    # state into the principal frame and back, and integrate does so once
    # per row, so the rows agree with the steps to rounding (2.3e-13 at
    # most over five seeds), and row 0 with the state to a few ulps
    a = inertia_assemble(four_point_body(space_alg))
    st = MotionState(exp_bivector(biv_mv(space_alg, rng.normal(size=6))),
                     a.apply(VelocityState(5.0 * rng.normal(size=6), BODY)), 0.25)
    times, states = _trajectory(st, a, 0.05, 41, stride=4)
    assert times.shape == (11,) and states.shape == (11, 14)
    for row in range(11):
        g = even_mv(space_alg, states[row, :8])
        z = rotor_constraint(g)
        assert abs(z.re - 1.0) <= 1e-12 and abs(z.du) <= 1e-12
        assert times[row] == st.t
        assert_rel_close(states[row], np.concatenate(
            (st.g.coeffs[space_alg.even_indices], st.pi_body.coeffs)),
            1e-15 if row == 0 else 1e-12)
        for _ in range(4):
            st = euler_step(st, a, 0.05)
    for stride in (0, 2.5):
        with pytest.raises(ValueError, match="stride"):
            integrate(st, a, 0.05, 4, stride=stride)
    for steps in (-1, 2.5):
        with pytest.raises(ValueError, match="steps"):
            integrate(st, a, 0.05, steps)
    for dt in (np.nan, np.inf):
        for steps in (0, 4):
            with pytest.raises(ValueError, match="dt"):
                integrate(st, a, dt, steps)
    assert len(_trajectory(st, a, 0.05, np.int64(3))[0]) == 4


def _reference_table(states):
    # the conftest RK4 states as integrate's times and (rows, 14) table
    alg = states[0][1].algebra
    return (np.array([t for t, _, _ in states]),
            np.array([np.concatenate((g.coeffs[alg.even_indices], biv_coeffs(pi)))
                      for _, g, pi in states]))


def test_integrate_space_schedule_matches_the_reference_rk4(space_alg, rng):
    # the reference moves the open lines to the body frame per stage with
    # a Multivector sandwich and sums them line by line
    a = inertia_assemble(four_point_body(space_alg))
    st = MotionState(exp_bivector(biv_mv(space_alg, rng.normal(size=6))),
                     a.apply(VelocityState(rng.normal(size=6), BODY)))
    h, t = 0.01, 0.0
    for _ in range(7):
        t = t + h
    half = t + h / 2                      # the k2 and k3 stage time of step 8
    lines = np.array([biv_coeffs(force_line(space_alg, rng.normal(size=3),
                                            rng.normal(size=3)))
                      for _ in range(3)])
    # line 0 closes and line 2 opens exactly at that stage; lines 1 and 2
    # overlap, and line 1 never closes
    t_start = np.array([0.0, 0.033, half])
    t_end = np.array([half, math.inf, 0.2])

    def reference(t_end):
        def force(t):
            total = space_alg.zero()
            for line, lo, hi in zip(lines, t_start, t_end):
                if lo <= t < hi:
                    total = total + biv_mv(space_alg, line)
            return total
        return _reference_table(reference_rk4(
            a, st.g, biv_mv(space_alg, st.pi_body.coeffs), h, 30, force))

    times, got = _trajectory(st, a, h, 30,
                             force=ForceSchedule(lines, t_start, t_end))
    want_times, want = reference(t_end)
    assert np.array_equal(times, want_times)
    assert_rel_close(got, want)
    # the edge is live: one ulp later, line 0 is still open at that stage
    late = t_end.copy()
    late[0] = np.nextafter(half, 1.0)
    _, moved = _trajectory(st, a, h, 30,
                           force=ForceSchedule(lines, t_start, late))
    assert np.array_equal(moved[:8], got[:8]) and not np.array_equal(moved, got)
    assert_rel_close(moved, reference(late)[1])


def test_overlapping_windows_add_their_lines_left_to_right(space_alg, monkeypatch):
    # integrate tabulates half the sum of the open lines once per interval
    # between edges, adding them in the schedule's order as Python adds
    # floats; in this body's principal frame e02 stays e02, where the sum
    # of 1 and two halves of its ulp depends on that order
    body = [Particle.at(space_alg, m, (s * x, s * y, s * z)) for m, (x, y, z) in
            ((3.0, (1, 0, 0)), (2.0, (0, 1, 0)), (1.0, (0, 0, 1))) for s in (1, -1)]
    inertia = inertia_assemble(body)
    st = MotionState(space_alg.scalar(1.0), MomentumState(np.zeros(6), BODY))
    lines = np.array([[0.1, 1.0, 0, 0, 0.2, 0], [0, 2.0**-53, 0.3, 0, 0, 0],
                      [0.5, 2.0**-53, 0, -0.7, 0, 0]])
    moved = dynamics._move(inertia._frame, lines, dynamics._PRINCIPAL)
    assert moved[:, 1].tolist() == lines[:, 1].tolist()
    monkeypatch.setattr(dynamics, "_blocks", lambda *args: args)
    edges, totals = integrate(st, inertia, 1e-3, 1, force=ForceSchedule(
        lines, [0.0, 1.0, 2.0], [3.0] * 3))[6:8]
    assert edges == [0.0, 1.0, 2.0, 3.0]
    want = [None, [0.5 * a for a in moved[0]],
            [0.5 * (a + b) for a, b in zip(*moved[:2])],
            [0.5 * ((a + b) + c) for a, b, c in zip(*moved)], None]
    assert want[3][1] != 0.5 * (1.0 + 2.0**-52)
    assert ([x and np.array(x).tobytes() for x in totals]
            == [x and np.array(x).tobytes() for x in want])
    # the empty schedule opens nothing, and steps as no force does
    empty = ForceSchedule(np.zeros((0, 6)), [], [])
    assert integrate(st, inertia, 1e-3, 1, force=empty)[6:8] == ([], [None])
    monkeypatch.undo()
    spun = MotionState(st.g, MomentumState([0.1, -0.2, 0.3, 0.4, 0.5, -0.6], BODY))
    runs = [integrate(spun, inertia, 1e-3, 5, force=f) for f in (empty, None)]
    for block, free in zip(*runs):
        assert all(np.array_equal(x, y) for x, y in zip(block, free))


def test_integrate_constant_force_is_an_always_open_window(space_alg, rng):
    a = inertia_assemble(four_point_body(space_alg))
    st = MotionState(exp_bivector(biv_mv(space_alg, rng.normal(size=6))),
                     a.apply(VelocityState(rng.normal(size=6), BODY)))
    f = rng.normal(size=6)
    always = ForceSchedule([f], [-math.inf], [math.inf])
    _, got = _trajectory(st, a, 0.01, 20, force=always)
    _, want = _reference_table(reference_rk4(
        a, st.g, biv_mv(space_alg, st.pi_body.coeffs), 0.01, 20,
        lambda t: biv_mv(space_alg, f)))
    assert_rel_close(got, want)
    # the retired force inputs fail loudly instead of running force-free
    for stale in (ForceState(f, BODY), lambda t, g, pi: ForceState(f, BODY)):
        with pytest.raises(TypeError, match=type(stale).__name__):
            integrate(st, a, 0.01, 2, force=stale)
        with pytest.raises(TypeError, match=type(stale).__name__):
            euler_step(st, a, 0.01, force=stale)


@pytest.mark.parametrize("forced, offset, rel", [(False, 0.0, 1e-12), (True, 0.0, 1e-12),
                                                (True, 10.0, 5e-11)],
                         ids=["free", "windows", "far"])
def test_integrate_follows_the_reference_rk4_over_a_long_run(space_alg, rng, forced,
                                                              offset, rel):
    # 2000 steps of the generated step against the Multivector RK4; the
    # windows overlap, and the last one stays open to the end.  The far
    # body sits 10 from the origin on every axis (operator cond 3e5),
    # where the run amplifies a solve's rounding.  integrate steps in the
    # principal frame; the reference solves in that frame too, refines
    # each solve against the assembled operator and compensates its
    # momentum sums, and the two agree to 1.8e-11, each within 2e-11 of
    # a 40-digit RK4
    a = inertia_assemble(four_point_body(space_alg, offset))
    st = MotionState(exp_bivector(biv_mv(space_alg, rng.normal(size=6))),
                     a.apply(VelocityState(rng.normal(size=6), BODY)))
    lines = np.array([biv_coeffs(force_line(space_alg, rng.normal(size=3),
                                            rng.normal(size=3)))
                      for _ in range(3)])
    t_start, t_end = np.array([0.0, 0.4, 0.9]), np.array([1.2, 1.6, math.inf])

    def force(t):
        return sum((biv_mv(space_alg, line)
                    for line, lo, hi in zip(lines, t_start, t_end) if lo <= t < hi),
                   space_alg.zero())
    want_times, want = _reference_table(reference_rk4(
        a, st.g, biv_mv(space_alg, st.pi_body.coeffs), 1e-3, 2000,
        force if forced else None))
    times, got = _trajectory(st, a, 1e-3, 2000, force=ForceSchedule(
        lines, t_start, t_end) if forced else None)
    assert np.array_equal(times, want_times)
    assert_rel_close(got, want, rel)


@pytest.mark.parametrize("offset", [0.0, 10.0])
def test_the_principal_frame_carries_the_assembled_form(space_alg, offset):
    # the motor m to the principal frame moves the diagonal form back onto
    # the body's assembled one: form = P_f^T diag P_f with P_f the
    # sandwich by ~m, which P_b, the sandwich by m, undoes; the diagonal
    # is 2M and the principal moments, written exactly
    body = four_point_body(space_alg, offset)
    inertia = inertia_assemble(body)
    frame, axes = inertia._frame, principal_decomposition(body)
    assert np.array_equal(frame.diagonal, [2.0 * axes.mass] * 3 + axes.moments[::-1].tolist())
    assert np.array_equal(frame.to_principal, sandwich_matrix(~frame.motor, 2))
    assert np.array_equal(frame.to_body, sandwich_matrix(frame.motor, 2))
    want = inertia.form
    got = frame.to_principal.T @ np.diag(frame.diagonal) @ frame.to_principal
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert np.abs(frame.to_body @ frame.to_principal - np.eye(6)).max() <= 1e-14


def test_a_body_far_from_the_origin_steps_in_its_principal_frame(space_alg, rng):
    # 1000 from the origin the assembled operator's cond is 2.6e13, past
    # the check's 1e12, and the body would be refused in that frame; in
    # its principal frame its diagonal is the one it has at the origin.
    # The body spins about a line through its centroid, a top whose
    # body-frame momentum keeps its digits: one whose centroid moves has
    # moment coordinates ~1000 times its linear momentum, and rounding
    # them to float64 alone moves the energy of the rows by ~2e-12
    body = four_point_body(space_alg, 1e3)
    far = inertia_assemble(body)
    near = inertia_assemble(four_point_body(space_alg))
    assert np.linalg.cond(far.operator) > 1e13
    np.testing.assert_allclose(far._frame.diagonal, near._frame.diagonal, rtol=1e-13)
    center = principal_decomposition(body).center
    om = VelocityState(biv_coeffs(line3d_point_dir(space_alg, center,
                                                   rng.normal(size=3))), BODY)
    st = MotionState(exp_bivector(biv_mv(space_alg, rng.normal(size=6))), far.apply(om))
    assert_rel_close(far.inverse_apply(st.pi_body).coeffs, om.coeffs, 1e-14)
    assert far.energy(om) == pytest.approx(body_energy(far, st), rel=1e-14, abs=0.0)
    _, states = _trajectory(st, far, 1e-3, 2000)
    energy = [body_energy(far, MotionState(even_mv(space_alg, row[:8]),
                                           MomentumState(row[8:], BODY)))
              for row in states]
    assert np.ptp(energy) <= 1e-12 * energy[0]
    for _ in range(5):
        st = euler_step(st, far, 1e-3)
    assert_rel_close(np.concatenate((st.g.coeffs[space_alg.even_indices],
                                     st.pi_body.coeffs)), states[5])


@pytest.mark.parametrize("steps, stride", [(20, 1), (23, 3), (6, 7), (21, 1)])
def test_integrate_yields_bounded_blocks_of_one_run(space_alg, rng, monkeypatch,
                                                    steps, stride):
    # blocks of 7 rows; the force window is open across the block edges at
    # t = 0.07 (stride 1) and t = 0.21 (stride 3), stride 7 records row 0
    # only, then runs 6 unrecorded steps, and 21 steps end in a block of
    # one row.  A row's energy is the same in any block, or taken alone
    a = inertia_assemble(four_point_body(space_alg))
    st = MotionState(exp_bivector(biv_mv(space_alg, rng.normal(size=6))),
                     a.apply(VelocityState(rng.normal(size=6), BODY)))
    line = biv_coeffs(force_line(space_alg, (0.2, 0.0, -0.1), (0.0, 3.0, -1.0)))
    force = ForceSchedule([line], [0.05], [0.25])
    monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 10**9)
    ((want_times, want),) = integrate(st, a, 0.01, steps, stride, force=force)
    monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 7)
    blocks = list(integrate(st, a, 0.01, steps, stride, force=force))
    sizes = [len(times) for times, _ in blocks]
    assert [len(states) for _, states in blocks] == sizes
    assert sizes[:-1] == [7] * (len(sizes) - 1) and 1 <= sizes[-1] <= 7
    times, states = (np.concatenate(part) for part in zip(*blocks))
    assert np.array_equal(times, want_times) and np.array_equal(states, want)
    energy = np.concatenate([dynamics._momentum_energy(a, block[:, 8:])
                             for _, block in blocks])
    alone = [dynamics._momentum_energy(a, pi) for pi in want[:, 8:]]
    whole = dynamics._momentum_energy(a, want[:, 8:])
    assert np.array_equal(energy, whole) and np.array_equal(alone, whole)
    # set-up is checked at the call, before any block is asked for
    args = dict(state=st, inertia=a, dt=0.01, steps=steps, stride=stride)
    for bad in ({"stride": 0}, {"steps": -1}, {"dt": math.nan}, {"dt": 0.0}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            integrate(**(args | bad))
    line_body = [Particle.at(space_alg, 1.0, (t, 2 * t, -t)) for t in (-1, 0.5, 2)]
    with pytest.raises(SingularInertiaError):
        integrate(st, inertia_assemble(line_body), 0.01, steps, stride)
    # a step that fails raises from the blocks, the unrecorded steps too
    spin = VelocityState(1e200 * np.array([0.2, -0.4, 0.3, 0.8, -0.5, 0.6]), BODY)
    blocks = integrate(MotionState(st.g, a.apply(spin)), a, 0.01, steps, stride)
    with pytest.raises(NumericError):
        list(blocks)


def test_integrate_takes_only_a_rigid_body_inertia_form(space_alg, rng):
    # a bare form's frame is read off the blocks inertia_assemble writes:
    # the identity form (M = 1/2, c = 0, S = 1/2) is one and integrates,
    # and so is an assembled form passed as a bare matrix
    st = MotionState(exp_bivector(biv_mv(space_alg, rng.normal(size=6))),
                     MomentumState(rng.normal(size=6), BODY))
    assembled = inertia_assemble(four_point_body(space_alg))
    for inertia in (InertiaTensor(np.eye(6)), InertiaTensor(assembled.form)):
        _, got = _trajectory(st, inertia, 1e-2, 20)
        _, want = _reference_table(reference_rk4(
            inertia, st.g, biv_mv(space_alg, st.pi_body.coeffs), 1e-2, 20))
        assert_rel_close(got, want)
    # a mass block that is not a multiple of 1, or a coupling block that is
    # not -2 [c]x (columns reversed) and its transpose, is refused where the
    # blocks are read, by any route to the frame
    for at in ((1, 1), (0, 1), (0, 5), (2, 3), (4, 1), (0, 3), (5, 1)):
        bent = assembled.form.copy()
        bent[at] += 1e-3
        bent = InertiaTensor(bent)
        for solve in (lambda: integrate(st, bent, 1e-2, 20),
                      lambda: bent.inverse_apply(st.pi_body),
                      lambda: bent.apply(VelocityState(np.ones(6), BODY))):
            with pytest.raises(ValueError, match="not a rigid body's inertia form"):
                solve()


def test_the_step_is_compiled_on_first_use_and_once():
    # a fresh interpreter: importing the CLI generates no step code, and
    # every body, whatever its form, binds its own principal inertia to
    # the one step compiled for the algebra: two assembled bodies, two
    # diagonal ones, euler_step and a scene run
    code = textwrap.dedent("""
        import numpy as np
        import pgakit.cli
        from pgakit import (BODY, InertiaTensor, MomentumState, MotionState,
                            Particle, dynamics, euler_step, inertia_assemble, pga3d)
        from pgakit.scene import parse_scene, run_simulation
        alg = pga3d()
        assert dynamics._rk4_factory.cache_info().currsize == 0
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return compile(*args, **kwargs)
        dynamics.compile = counted
        rows = []
        state = MotionState(alg.scalar(1.0), MomentumState(np.ones(6), BODY))
        for far in (1.0, 3.0):
            corners = [(0, 0, 0), (far, 0, 0), (0, 1, 0), (0, 0, 1)]
            body = [Particle.at(alg, 1.0, x) for x in corners]
            rows.append(next(dynamics.integrate(state, inertia_assemble(body),
                                                1e-2, 3))[1])
        assert not np.array_equal(rows[0], rows[1])
        for moments in ([3.0, 2.0, 1.0], [5.0, 4.0, 0.5]):
            diagonal = InertiaTensor(np.diag([2.0] * 3 + moments))
            next(dynamics.integrate(state, diagonal, 1e-2, 3))
            euler_step(state, diagonal, 1e-2)
        cfg = parse_scene({"bodies": [{"mass": 1.0, "position": x} for x in
                                      ([3, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1])],
                           "initial": {"omega_body": [0.1] * 6},
                           "integrator": {"dt": 1e-2, "steps": 3}})
        list(run_simulation(cfg)[1])
        assert calls == ["<generated rk4 run>"], calls
        assert dynamics._rk4_factory.cache_info().currsize == 1
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def test_the_solve_costs_6_products():
    # the cost that integrate pays per stage for Omega = A^-1 Pi, every
    # body being in its principal frame: c_k v_k
    src = dynamics._rk4_source(pga3d())
    solve = src[src.index("force2 = force1"):src.index("k1_0 =")]
    assert solve.split("nxt = edges[i]")[1].count(" * ") == 6


def test_force_schedule_validates_its_input():
    lines = np.ones((2, 6))
    schedule = ForceSchedule(lines, [0.0, 0.5], [1.0, math.inf])
    assert lines.flags.writeable and not schedule.lines.flags.writeable
    with pytest.raises(NumericError, match="force 1 is not finite"):
        ForceSchedule([np.ones(6), [0, math.inf, 0, 0, 0, 0]], [0, 0], [1, 1])
    with pytest.raises(ValueError, match="six"):
        ForceSchedule(np.ones((2, 5)), [0, 0], [1, 1])
    with pytest.raises(ValueError, match="t_end"):
        ForceSchedule(lines, [0, 0], [1])
    with pytest.raises(ValueError, match="t_start"):
        ForceSchedule(lines, [0, math.nan], [1, 1])
    # a window that never opens, as scene.parse_scene refuses it
    for t_end in (0.5, 1.0):
        with pytest.raises(ValueError, match=re.escape(
                f"force 1 needs t_end > t_start, not [1.0, {t_end!r})")):
            ForceSchedule(lines, [0.0, 1.0], [1.0, t_end])


def test_spherical_body_spins_uniformly(space_alg):
    body = []
    for axis in range(3):
        for s in (-1.0, 1.0):
            pos = [0.0, 0.0, 0.0]
            pos[axis] = s
            body.append(Particle.at(space_alg, 1.0, pos))
    a = inertia_assemble(body)
    # pure rotation about an origin line: the momentum is the polar ideal
    # line of the velocity, so the two commute and nothing precesses
    om6 = np.array([0.0, 0.0, 0.0, 0.4, 0.3, -0.5])
    pi0 = a.apply(VelocityState(om6, BODY))
    st = MotionState(space_alg.scalar(1.0), pi0)
    n, dt = 500, 2e-3
    for _ in range(n):
        st = euler_step(st, a, dt)
    np.testing.assert_allclose(st.pi_body.coeffs, pi0.coeffs, rtol=1e-12)
    from pgakit.metric import biv_mv
    want = exp_bivector(biv_mv(space_alg, om6 * (n * dt)))
    assert st.g.isclose(want, rel=1e-9)


def test_force_free_conservation_short(space_alg, rng):
    a = inertia_assemble(four_point_body(space_alg))
    om = VelocityState(rng.normal(size=6), BODY)
    st = MotionState(space_alg.scalar(1.0), a.apply(om))
    e0 = body_energy(a, st)
    ps0 = space_momentum(st).coeffs.copy()
    for _ in range(500):
        st = euler_step(st, a, 1e-3)
    assert body_energy(a, st) == pytest.approx(e0, rel=1e-9)
    np.testing.assert_allclose(space_momentum(st).coeffs, ps0,
                               rtol=0, atol=1e-9 * np.linalg.norm(ps0))


def test_rigid_body_distances_preserved(space_alg, rng):
    body = four_point_body(space_alg)
    a = inertia_assemble(body)
    st = MotionState(space_alg.scalar(1.0),
                     a.apply(VelocityState(rng.normal(size=6), BODY)))
    pts = [p.r for p in body]
    d0 = [distance(pts[i], pts[j]) for i in range(4) for j in range(i)]
    for _ in range(300):
        st = euler_step(st, a, 2e-3)
    moved = [normalize(sandwich(st.g, p)) for p in pts]
    d1 = [distance(moved[i], moved[j]) for i in range(4) for j in range(i)]
    np.testing.assert_allclose(d1, d0, rtol=1e-9)


def test_momentum_rate_equals_force(space_alg, rng):
    # finite difference of the space momentum matches the applied space force
    body = four_point_body(space_alg)
    a = inertia_assemble(body)
    f_space = force_state(space_alg, (0.3, 0.1, -0.2), (0.0, 0.5, 1.0))
    constant = ForceSchedule([f_space.coeffs], [-math.inf], [math.inf])
    st = MotionState(space_alg.scalar(1.0),
                     a.apply(VelocityState(0.3 * rng.normal(size=6), BODY)))
    errs = []
    for dt in (4e-2, 2e-2):
        mid = euler_step(st, a, dt, force=constant)
        after = euler_step(mid, a, dt, force=constant)
        fd = (space_momentum(after).coeffs - space_momentum(st).coeffs) / (2 * dt)
        errs.append(np.abs(fd - f_space.coeffs).max())
    assert errs[0] < 1e-2
    assert errs[1] < errs[0] / 3.0   # O(dt^2) central difference


def test_frame_convert_roundtrip(space_alg, rng):
    from conftest import random_mv
    g = exp_bivector(random_mv(space_alg, rng, grade=2))
    x = random_mv(space_alg, rng)
    assert sandwich(~g, sandwich(g, x)).isclose(x, rel=1e-11)
    assert sandwich(space_alg.scalar(1.0), x) == x
    # a tagged state moves by the 6x6 sandwich matrix, as its multivector does
    for to, frame in ((SPACE, BODY), (BODY, SPACE)):
        f = ForceState(rng.normal(size=6), frame)
        want = biv_coeffs(sandwich(g if to == SPACE else ~g,
                                   f.as_multivector(space_alg)))
        got = frame_convert(f, g, to)
        assert got.frame == to
        np.testing.assert_allclose(got.coeffs, want, rtol=0, atol=1e-13)
    # a multivector moves by sandwich; frame_convert has no second route
    with pytest.raises(TypeError, match="sandwich"):
        frame_convert(x, g, SPACE)


def test_body_to_space_derivative_formula(space_alg):
    # d/dt (g X_c ~g) = g (X_c' + 2 Omega_c x X_c) ~g, checked by finite
    # differences along an integrated motion with an analytic X_c(t)
    a = inertia_assemble(four_point_body(space_alg))
    om = VelocityState(np.array([0.2, -0.4, 0.3, 0.5, -0.1, 0.7]), BODY)
    st = MotionState(space_alg.scalar(1.0), a.apply(om))

    def xc(t):
        return space_alg.multivector(
            {"e01": math.sin(t), "e12": 1.0 + 0.5 * t, "e23": math.cos(2 * t)})

    def xc_dot(t):
        return space_alg.multivector(
            {"e01": math.cos(t), "e12": 0.5, "e23": -2.0 * math.sin(2 * t)})

    errs = []
    for dt in (1e-2, 5e-3):
        states = {}
        s = st
        for k in range(3):
            states[k] = s
            s = euler_step(s, a, dt)
        mid = states[1]
        om_mid = a.inverse_apply(mid.pi_body).as_multivector(space_alg)
        fd = (sandwich(states[2].g, xc(2 * dt))
              - sandwich(states[0].g, xc(0.0))) / (2 * dt)
        formula = sandwich(mid.g, xc_dot(dt) + 2.0 * om_mid.commutator(xc(dt)))
        errs.append(np.abs((fd - formula).coeffs).max())
    assert errs[0] < 1e-2
    assert errs[1] < errs[0] / 3.0     # second-order convergence


# ---------------------------------------------------------------------------
# statics and work


def test_force_2d_layout(plane_alg):
    h = force_line(plane_alg, (1.0, 0.0), (0.0, 1.0))
    assert h.isclose(plane_alg.multivector({"e0": 1.0, "e1": -1.0}), rel=1e-14)
    assert force_moment_2d(h) == pytest.approx(1.0)
    assert force_vector_2d(h) == pytest.approx((0.0, 1.0))


def test_force_3d_layout(space_alg, rng):
    # moments land on e01..e03 as (mx, my, mz), the vector on
    # (e12, e31, e23) as (vz, vy, vx)
    for _ in range(10):
        p, v = rng.normal(size=3), rng.normal(size=3)
        h = force_line(space_alg, p, v)
        c = biv_coeffs(h)
        m = np.cross(p, v)
        np.testing.assert_allclose(c[:3], m, atol=1e-12)
        np.testing.assert_allclose(c[3:], v[::-1], atol=1e-12)


def test_single_force_is_simple_euclidean(space_alg, rng):
    from pgakit import is_simple
    h = force_line(space_alg, rng.normal(size=3), rng.normal(size=3) + 0.1)
    assert is_simple(h)
    assert np.abs(biv_coeffs(h)[3:]).max() > 0


def test_couple_is_ideal(plane_alg, space_alg):
    h1 = force_line(plane_alg, (0.0, 0.0), (0.0, 1.0))
    h2 = force_line(plane_alg, (3.0, 0.0), (0.0, -1.0))
    r = resultant([h1, h2])
    assert r.grades() == [1]
    assert r["e1"] == 0.0 and r["e2"] == 0.0 and r["e0"] != 0.0
    f1 = force_line(space_alg, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    f2 = force_line(space_alg, (1.0, 0.0, 0.0), (0.0, 0.0, -1.0))
    c = biv_coeffs(resultant([f1, f2]))
    assert np.abs(c[3:]).max() == 0.0 and np.abs(c[:3]).max() > 0


def test_statics_equivalence_2d(plane_alg, rng):
    # sum of vectors and moments vanishes exactly when the homogeneous
    # forms cancel, in both directions
    for _ in range(20):
        forces = [(rng.normal(size=2), rng.normal(size=2)) for _ in range(4)]
        hs = [force_line(plane_alg, p, v) for p, v in forces]
        total_v = sum((v for _, v in forces), np.zeros(2))
        total_m = sum(p[0] * v[1] - p[1] * v[0] for p, v in forces)
        h = resultant(hs)
        lhs_zero = (np.abs(total_v).max() < 1e-12) and abs(total_m) < 1e-12
        rhs_zero = np.abs(h.coeffs).max() < 1e-12
        assert lhs_zero == rhs_zero
        assert force_moment_2d(h) == pytest.approx(total_m, rel=1e-12, abs=1e-13)
        np.testing.assert_allclose(force_vector_2d(h), total_v, atol=1e-12)
    # constructively balanced system
    p1, v1 = np.array([1.0, 2.0]), np.array([0.5, -1.0])
    p2, v2 = np.array([-2.0, 1.0]), np.array([1.0, 0.75])
    v3 = -(v1 + v2)
    m3 = -((p1[0] * v1[1] - p1[1] * v1[0]) + (p2[0] * v2[1] - p2[1] * v2[0]))
    p3 = np.array([m3 * v3[1], -m3 * v3[0]]) / (v3 @ v3)
    balanced = resultant([force_line(plane_alg, p, v)
                          for p, v in [(p1, v1), (p2, v2), (p3, v3)]])
    assert np.abs(balanced.coeffs).max() < 1e-12


def test_skater_power_is_zero(space_alg):
    gravity = 9.81 * space_alg.blade("e12")     # force along the z-axis line
    glide = -2.0 * space_alg.blade("e01")       # translation in x
    assert power(glide, gravity) == 0.0
    # any force incident with the velocity line does no work
    line = line3d_point_dir(space_alg, (1.0, 2.0, 0.5), (1.0, 1.0, 0.0))
    assert power(line, 3.0 * line) == 0.0


def test_power_magnitude_from_distance_and_angle(space_alg, rng):
    # |power| = d sin(angle) |Omega| |Delta| for a rotator and a single force
    for _ in range(15):
        p1, p2 = rng.normal(size=3), rng.normal(size=3)
        d1, d2 = rng.normal(size=3), rng.normal(size=3)
        d1 /= np.linalg.norm(d1)
        d2 /= np.linalg.norm(d2)
        cross = np.cross(d1, d2)
        sin_a = np.linalg.norm(cross)
        if sin_a < 0.1:
            continue
        dist = abs((p2 - p1) @ cross) / sin_a
        k, mu = rng.uniform(0.5, 2.0, size=2)
        omega = k * normalize(line3d_point_dir(space_alg, p1, d1))
        delta = mu * normalize(line3d_point_dir(space_alg, p2, d2))
        assert abs(power(omega, delta)) == pytest.approx(
            dist * sin_a * k * mu, rel=1e-9, abs=1e-12)


def test_work_matches_energy_change(space_alg, rng):
    a = inertia_assemble(four_point_body(space_alg))
    f_space = force_state(space_alg, (0.2, -0.1, 0.4), (0.0, 0.0, -1.5))
    constant = ForceSchedule([f_space.coeffs], [-math.inf], [math.inf])

    def run(dt, steps):
        st = MotionState(space_alg.scalar(1.0),
                         a.apply(VelocityState(
                             np.array([0.1, 0.2, -0.1, 0.4, -0.3, 0.5]), BODY)))
        times, powers = [0.0], []
        powers.append(power(a.inverse_apply(st.pi_body),
                            frame_convert(f_space, st.g, BODY)))
        e0 = 0.5 * body_energy(a, st)
        for _ in range(steps):
            st = euler_step(st, a, dt, force=constant)
            times.append(st.t)
            powers.append(power(a.inverse_apply(st.pi_body),
                                frame_convert(f_space, st.g, BODY)))
        return abs((0.5 * body_energy(a, st) - e0) - work(times, powers))

    err1 = run(2e-3, 500)
    err2 = run(1e-3, 1000)
    assert err2 < err1 / 3.5


def test_work_sign_matches_energy_slope(space_alg):
    a = inertia_assemble(four_point_body(space_alg))
    f_space = force_state(space_alg, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    constant = ForceSchedule([f_space.coeffs], [-math.inf], [math.inf])
    st = MotionState(space_alg.scalar(1.0),
                     a.apply(VelocityState(
                         np.array([0.3, 0.0, 0.0, 0.0, 0.0, 0.1]), BODY)))
    for _ in range(50):
        e_before = 0.5 * body_energy(a, st)
        p_now = power(a.inverse_apply(st.pi_body),
                      frame_convert(f_space, st.g, BODY))
        st = euler_step(st, a, 1e-3, force=constant)
        slope = (0.5 * body_energy(a, st) - e_before) / 1e-3
        if abs(p_now) > 1e-3:
            assert math.copysign(1, slope) == math.copysign(1, p_now)

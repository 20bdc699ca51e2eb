"""Forces as weighted lines: statics with no case splits, and the
incidence story behind work.

A planar force is one 1-vector holding vector and moment together; a
spatial force is one bivector.  Equilibrium is a single cancellation,
a force couple is just a force on the ideal line, and a force does no
work exactly when its line is incident with the velocity.
"""

import math

import numpy as np

from pgakit import (BODY, ForceSchedule, MotionState, Particle,
                    VelocityState, body_energy, euler_step, force_line,
                    frame_convert, inertia_assemble, pga2d, pga3d, power,
                    resultant, work)
from pgakit.dynamics import force_moment_2d, force_state, force_vector_2d

plane = pga2d()
space = pga3d()

print("== a planar force is one line ==")
h = force_line(plane, (1.0, 0.0), (0.0, 1.0))
print("unit force +y along x=1:", h)
print("  vector:", force_vector_2d(h), " moment:", force_moment_2d(h))
print()

print("== equilibrium is a single cancellation ==")
forces = [force_line(plane, (0.0, 0.0), (1.0, 0.0)),
          force_line(plane, (1.0, 1.0), (-0.5, 0.5)),
          force_line(plane, (1.0, -1.0), (-0.5, -0.5))]
print("three forces sum to:", resultant(forces))
print()

print("== a couple lives on the ideal line ==")
couple = resultant([force_line(plane, (0.0, 0.0), (0.0, 2.0)),
                    force_line(plane, (1.5, 0.0), (0.0, -2.0))])
print("equal and opposite on parallel lines:", couple)
print()

print("== the skater ==")
gravity = 9.81 * space.blade("e12")          # weight along the z-axis line
glide = -2.0 * space.blade("e01")            # translation along x
print("power of gravity against a glide:", power(glide, gravity),
      " (no work to skate!)")
spin = space.blade("e12")                    # rotation about the gravity line
print("power of gravity against a spin:  ", power(spin, gravity))
print()

print("== work along a forced tumble ==")
body = [Particle.at(space, m, x) for m, x in
        [(1.0, (0.1, 0.2, 0.3)), (1.5, (1.0, -0.5, 0.2)),
         (0.7, (-0.4, 0.8, -0.6)), (2.0, (0.3, 0.4, 1.1))]]
inertia = inertia_assemble(body)
pull = force_state(space, (0.2, -0.1, 0.4), (0.3, 0.1, -1.5))
# a constant space-frame force: one line whose window is always open
always = ForceSchedule([pull.coeffs], [-math.inf], [math.inf])

state = MotionState(space.scalar(1.0), inertia.apply(
    VelocityState(np.array([0.1, 0.2, -0.1, 0.4, -0.3, 0.5]), BODY)))
times, rates = [0.0], []
rates.append(power(inertia.inverse_apply(state.pi_body),
                   frame_convert(pull, state.g, BODY)))
e_start = 0.5 * body_energy(inertia, state)
for _ in range(2000):
    state = euler_step(state, inertia, 1e-3, force=always)
    times.append(state.t)
    rates.append(power(inertia.inverse_apply(state.pi_body),
                       frame_convert(pull, state.g, BODY)))
delta_e = 0.5 * body_energy(inertia, state) - e_start
integrated = work(times, rates)
print(f"energy change {delta_e:.8f} vs integrated power {integrated:.8f}")
print(f"gap {abs(delta_e - integrated):.2e} (second order in the step)")

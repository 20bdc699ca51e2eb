"""A free rigid body integrated with bivector momentum.

The body is four mass points; its inertia is one 6x6 form on velocity
bivectors, and the equations of motion are two coupled first-order
systems on the rotor and the body momentum.  No external forces: the
energy and the space momentum must stay put while the top tumbles.
"""

import os
import tempfile

import numpy as np

from pgakit import (BODY, MotionState, Particle, VelocityState, body_energy,
                    euler_step, inertia_assemble, normalize, pga3d,
                    principal_decomposition, sandwich, space_momentum)
from pgakit.metric import point_coords
from pgakit.scene import parse_scene, run_simulation, write_csv

alg = pga3d()

masses_positions = [(1.0, (0.1, 0.2, 0.3)), (1.5, (1.0, -0.5, 0.2)),
                    (0.7, (-0.4, 0.8, -0.6)), (2.0, (0.3, 0.4, 1.1))]
body = [Particle.at(alg, m, x) for m, x in masses_positions]
inertia = inertia_assemble(body)

print("== the body ==")
dec = principal_decomposition(body)
print("total mass:", dec.mass)
print("centroid:", np.round(dec.center, 4))
print("principal rotational moments:", np.round(dec.moments, 4))
print()

omega0 = VelocityState(np.array([0.2, -0.4, 0.3, 0.8, -0.5, 0.6]), BODY)
state = MotionState(alg.scalar(1.0), inertia.apply(omega0))
e0 = body_energy(inertia, state)
p0 = space_momentum(state).coeffs.copy()
print("== tumbling, 4000 RK4 steps at dt = 1e-3 ==")
print(f"  t=0.0  energy {e0:.6f}")
for chunk in range(4):
    for _ in range(1000):
        state = euler_step(state, inertia, 1e-3)
    e = body_energy(inertia, state)
    pt = point_coords(normalize(sandwich(state.g, body[0].r)))
    print(f"  t={state.t:.1f}  energy {e:.6f}  first point at "
          f"({pt[0]: .3f}, {pt[1]: .3f}, {pt[2]: .3f})")
drift_e = abs(body_energy(inertia, state) - e0) / e0
drift_p = np.abs(space_momentum(state).coeffs - p0).max()
print(f"energy drift {drift_e:.2e}, space-momentum drift {drift_p:.2e}")
print()

print("== the same run through the scene runner ==")
scene = parse_scene({
    "bodies": [{"mass": m, "position": list(x)} for m, x in masses_positions],
    "initial": {"omega_body": list(omega0.coeffs)},
    "integrator": {"dt": 1e-3, "steps": 2000},
    "outputs": [[0.1, 0.2, 0.3]],
})
# the runner yields the table in blocks of rows; this run is one block
header, blocks = run_simulation(scene, stride=500)
rows = np.concatenate(list(blocks))
with tempfile.TemporaryDirectory() as folder:
    path = os.path.join(folder, "top.csv")
    write_csv(path, header, [rows])
    print("wrote", len(rows), "rows to", path)
print("columns:", ", ".join(header))
energies = [row[15] for row in rows]
print("energy column:", ["%.9f" % e for e in energies])

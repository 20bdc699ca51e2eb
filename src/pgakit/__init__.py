"""Plane-based projective geometric algebra with a degenerate metric.

The kernel is a signature-generic dense multivector engine; on top of
it sit the point/plane duality map with non-metric join and meet,
euclidean distances and line geometry in Cl(2,0,1) and Cl(3,0,1),
screw-theoretic exponentials and logarithms of rotors, and a
bivector-valued rigid-body dynamics integrator.
"""

from .algebra import (ABS_TOL, REL_TOL, Algebra, Multivector, Signature,
                      SignatureMismatchError, algebra, pga2d, pga3d)
from .duality import dual_j, join
from .metric import (Bivector3, DegenerateElementError, Pitch, angle,
                     bivector_axis, bivector_pitch, bivector_split,
                     common_normal, direction, distance, ideal_norm,
                     ideal_point, is_simple, killing_norm, line2d,
                     line2d_through, line3d_point_dir, line3d_through,
                     noneuclidean_distance, normalize, null_plane,
                     null_point, plane, pluecker, point, point_coords,
                     point_weight, pseudo_part, vector_norm)
from .versors import (NumericError, ScrewLog, exp_bivector, exp_screw,
                      is_rotor, normalize_rotor, rotator, rotor_log, sandwich,
                      sandwich_matrix, screw_decompose, screw_log, translator)
from .dynamics import (BODY, SPACE, ForceSchedule, ForceState, FrameError,
                       InertiaTensor, MomentumState, MotionState, Particle,
                       SingularInertiaError, VelocityState, body_energy,
                       euler_step, force_homogeneous, force_line,
                       force_state, frame_convert, inertia_assemble,
                       inertia_clifford_apply, kinetic_energy,
                       momentum_of_body, orbit_derivative, power,
                       principal_decomposition, resultant, space_momentum,
                       work)

__version__ = "0.1.0"

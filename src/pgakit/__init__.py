"""Plane-based projective geometric algebra with a degenerate metric.

The kernel is a signature-generic dense multivector engine; on top of
it sit the point/plane duality map with non-metric join and meet,
euclidean distances and line geometry in Cl(2,0,1) and Cl(3,0,1),
screw-theoretic exponentials and logarithms of rotors, and a
bivector-valued rigid-body dynamics integrator.

The rigid-body names (``InertiaTensor``, ``euler_step`` and the rest of
:mod:`pgakit.dynamics`) load on first use: ``import pgakit`` leaves that
layer unloaded until one of them is read.
"""

from .algebra import (ABS_TOL, REL_TOL, Algebra, Multivector, Signature,
                      SignatureMismatchError, algebra, pga2d, pga3d)
from .duality import dual_j, join
from .metric import (DegenerateElementError, Pitch, angle, bivector_axis,
                     bivector_pitch, bivector_split, common_normal,
                     direction, distance, ideal_norm, ideal_point,
                     is_simple, killing_norm, line2d, line2d_through,
                     line3d_point_dir, line3d_through,
                     noneuclidean_distance, normalize, null_plane,
                     null_point, plane, pluecker, point, point_coords,
                     point_weight, pseudo_part, vector_norm)
from .versors import (NumericError, ScrewLog, exp_bivector, exp_screw,
                      is_rotor, normalize_rotor, rotator, rotor_log, sandwich,
                      sandwich_matrix, screw_decompose, screw_log, translator)

__version__ = "0.1.0"

# the names of pgakit.dynamics that the root exports, read from it on first use
_DYNAMICS = ("BODY", "SPACE", "ForceSchedule", "ForceState", "FrameError",
             "InertiaTensor", "MomentumState", "MotionState", "Particle",
             "SingularInertiaError", "VelocityState", "body_energy",
             "euler_step", "force_line", "force_state", "frame_convert",
             "inertia_assemble", "kinetic_energy", "momentum_of_body",
             "orbit_derivative", "power", "principal_decomposition",
             "resultant", "space_momentum", "work")

__all__ = [
    "ABS_TOL", "REL_TOL", "Algebra", "Multivector", "Signature",
    "SignatureMismatchError", "algebra", "pga2d", "pga3d",
    "dual_j", "join",
    "DegenerateElementError", "Pitch", "angle", "bivector_axis",
    "bivector_pitch", "bivector_split", "common_normal", "direction",
    "distance", "ideal_norm", "ideal_point", "is_simple", "killing_norm",
    "line2d", "line2d_through", "line3d_point_dir", "line3d_through",
    "noneuclidean_distance", "normalize", "null_plane", "null_point", "plane",
    "pluecker", "point", "point_coords", "point_weight", "pseudo_part",
    "vector_norm",
    "NumericError", "ScrewLog", "exp_bivector", "exp_screw", "is_rotor",
    "normalize_rotor", "rotator", "rotor_log", "sandwich", "sandwich_matrix",
    "screw_decompose", "screw_log", "translator",
    *_DYNAMICS,
]


def __getattr__(name):
    # PEP 562: called only for a name the module does not hold yet
    if name not in _DYNAMICS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import dynamics
    globals().update({n: getattr(dynamics, n) for n in _DYNAMICS})
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_DYNAMICS})

"""Lines, screws and rigid motions in Cl(3,0,1).

Spatial bivectors carry six Pluecker coordinates; most of them are not
lines but linear line complexes.  The axis, the pitch and the dual
angle turn that into concrete screw geometry, and the exponential map
builds every direct isometry from a bivector.
"""

import math

from pgakit import (bivector_axis, bivector_pitch, common_normal, direction,
                    exp_screw, is_simple, line3d_point_dir, normalize,
                    pga3d, pluecker, point, point_coords, rotor_log, sandwich,
                    screw_decompose, screw_log, translator)
from pgakit.metric import dual_angle

alg = pga3d()
bl = alg.blades

print("== lines as meets of planes ==")
x_axis = bl["e23"]
print("the x-axis e23 is simple:", is_simple(x_axis))
print("its direction vector:", direction(x_axis))
screw = bl["e03"] + bl["e12"]
print("e03 + e12 is simple:", is_simple(screw),
      "  (a genuine line complex, not a line)")
print("its axis:", bivector_axis(screw))
print("its pitch:", bivector_pitch(screw))
print()

print("== relations between two lines ==")
ln1 = normalize(line3d_point_dir(alg, (0, 0, 0), (1, 0, 0)))
ln2 = normalize(line3d_point_dir(alg, (0, 0, 2), (0, 1, 0)))
print("pairing <l1, l2> =", pluecker(ln1, ln2),
      "(zero would mean they meet)")
# the scalar and pseudoscalar parts of l1 l2, as DualParts(re, du)
re, du = dual_angle(ln1, ln2)
print(f"dual angle: {re!r} + {du!r}I  -> angle", math.degrees(math.acos(re)),
      "deg, offset", -du, "along the common normal")
print("common normal:", common_normal(ln1, ln2))
print()

print("== every rotor is the exponential of a bivector ==")
axis = normalize(line3d_point_dir(alg, (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)))
g = exp_screw(axis, t=math.pi / 6, u=0.25)
print("screw about", axis)
print("rotor:", g)
lg = screw_log(g)
print("log recovers half-angle", lg.t, "and half-slide", lg.u)
rot, tra = screw_decompose(g)
print("rotation part:", rot)
print("translation part:", tra)
print("parts commute:", (rot * tra - tra * rot).isclose(alg.zero()))

p = point(alg, 2.0, 1.0, 0.0)
track = [point_coords(normalize(sandwich(g, p)))]
for _ in range(3):
    track.append(point_coords(normalize(sandwich(g, point(alg, *track[-1])))))
print("orbit of (2,1,0) under repeated screwing:")
for xyz in track:
    print("   (%.4f, %.4f, %.4f)" % xyz)
print()

print("== translators are the ideal case ==")
t = translator(alg, (1.0, 2.0, 3.0))
print("translator rotor:", t)
print("its log is the ideal bivector", rotor_log(t))
print("pitch of a translator bivector:", bivector_pitch(rotor_log(t)))

"""Scene descriptions and the batch simulation runner.

A scene is a JSON document:

    {
      "signature": [3, 0, 1],
      "bodies":    [{"mass": 1.0, "position": [x, y, z]}, ...],
      "initial":   {"omega_body": [6 reals]} | {"pi_body": [6 reals]},
      "rotor0":    [8 reals],                      // optional, identity
      "forces":    [{"point": [x,y,z], "vector": [x,y,z],
                     "t_start": 0.0, "t_end": 1.0}, ...],   // optional
      "integrator": {"dt": 0.001, "steps": 1000},
      "outputs":   [[x, y, z], ...]                // tracked body points
    }

A force line acts while ``t_start <= t < t_end``, so a window needs
``t_end > t_start``; a key not shown above, at the top level, in a
force entry or in ``integrator``, is refused rather than ignored.

The trajectory is CSV: one row per recorded step with the rotor, the
body momentum, the kinetic energy and the dehomogenized space-frame
position of every tracked point.  :func:`run_simulation` hands the
force lines to :func:`~pgakit.dynamics.integrate` as one
:class:`~pgakit.dynamics.ForceSchedule` and yields the float table in
blocks of :data:`_BLOCK_ROWS` rows.  Each block resumes ``integrate``
from the last row of the block before, so its rows are bit for bit
those of one ``integrate`` call, then gets its energy and tracked-point
columns as array operations and is refused with
:class:`~pgakit.versors.NumericError` if any value in it is not finite.
Memory therefore stays that of one block however long the run.
:func:`write_csv` formats the blocks as they come and leaves an empty
file if the run fails part-way.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import pga3d
from .dynamics import (BODY, ForceSchedule, MomentumState, MotionState,
                       Particle, VelocityState, _momentum_energy, force_line,
                       inertia_assemble, integrate)
from .metric import biv_coeffs, even_mv, point
# sandwich is not called here; the benchmark's tracing tests use scene.sandwich
# as their example of an alias made by ``from .versors import``
from .versors import (NumericError, normalize_rotor, sandwich,  # noqa: F401
                      sandwich_matrix_even)


# run_simulation integrates every step whatever the stride (2.5-6 h at
# 9-20 us a step)
MAX_STEPS = 10**9
# rows recorded, and formatted by write_csv, in one array operation: the
# runner yields its table this many rows at a time
_BLOCK_ROWS = 1024


class SceneError(ValueError):
    """Malformed scene description."""


_SCENE_KEYS = ("signature", "bodies", "initial", "rotor0", "forces",
               "integrator", "outputs")
_FORCE_KEYS = ("point", "vector", "t_start", "t_end")
_INTEGRATOR_KEYS = ("dt", "steps")


@dataclass(frozen=True)
class SceneForce:
    point: list
    vector: list
    t_start: float = 0.0
    t_end: float = float("inf")


@dataclass(frozen=True)
class SceneConfig:
    bodies: list
    dt: float
    steps: int
    omega_body: list | None = None
    pi_body: list | None = None
    rotor0: list = field(default_factory=lambda: [1.0] + [0.0] * 7)
    forces: list = field(default_factory=list)
    outputs: list = field(default_factory=list)


def _require(cond, message):
    if not cond:
        raise SceneError(message)


def _number(value, what: str) -> float:
    """A finite JSON number (not a boolean) as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise SceneError(f"{what} must be a finite number, not {value!r:.40}")


def _vector(value, n: int, what: str) -> list[float]:
    _require(isinstance(value, (list, tuple)) and len(value) == n,
             f"{what} must be a list of {n} numbers")
    return [_number(c, what) for c in value]


def _known_keys(entry: dict, allowed: tuple, what: str):
    """Refuse a misspelt key, which would otherwise be ignored silently."""
    for key in entry:
        if key not in allowed:
            raise SceneError(f"unknown {what} key {key!r:.40}; "
                             f"expected one of {', '.join(allowed)}")


def parse_scene(data: dict) -> SceneConfig:
    """Validate a scene document; every defect raises :class:`SceneError`."""
    _require(isinstance(data, dict), "scene must be a JSON object")
    _known_keys(data, _SCENE_KEYS, "scene")
    sig = data.get("signature", [3, 0, 1])
    _require(isinstance(sig, (list, tuple)) and tuple(sig) == (3, 0, 1),
             f"simulation supports signature 3,0,1, not {sig!r:.40}")

    bodies = data.get("bodies")
    _require(isinstance(bodies, list) and bodies, "scene needs a non-empty 'bodies' list")
    parsed_bodies = []
    for b in bodies:
        _require(isinstance(b, dict) and set(b) == {"mass", "position"},
                 "each body entry is {mass, position}")
        mass = _number(b["mass"], "a mass")
        _require(mass > 0.0, "masses must be positive")
        parsed_bodies.append({"mass": mass,
                              "position": _vector(b["position"], 3, "a position")})

    initial = data.get("initial")
    _require(isinstance(initial, dict), "scene needs an 'initial' object")
    keys = set(initial)
    _require(keys in ({"omega_body"}, {"pi_body"}),
             "initial must hold exactly one of omega_body, pi_body")
    (key,) = keys
    state6 = _vector(initial[key], 6, f"initial.{key}")

    rotor0 = _vector(data.get("rotor0", [1.0] + [0.0] * 7), 8, "rotor0")

    integrator = data.get("integrator")
    _require(isinstance(integrator, dict) and {"dt", "steps"} <= set(integrator),
             "scene needs integrator.dt and integrator.steps")
    _known_keys(integrator, _INTEGRATOR_KEYS, "integrator")
    dt = _number(integrator["dt"], "dt")
    _require(dt > 0.0, "dt must be positive")
    steps = _number(integrator["steps"], "steps")
    _require(steps.is_integer(), f"steps must be a whole number, not {steps!r}")
    _require(steps >= 1, "steps must be at least 1")

    forces = data.get("forces", [])
    _require(isinstance(forces, list), "forces must be a list")
    parsed_forces = []
    for f in forces:
        _require(isinstance(f, dict) and {"point", "vector"} <= set(f),
                 "each force entry needs point and vector")
        _known_keys(f, _FORCE_KEYS, "force")
        t_start = _number(f.get("t_start", 0.0), "t_start")
        t_end = f.get("t_end", math.inf)
        t_end = t_end if t_end == math.inf else _number(t_end, "t_end")
        _require(t_end > t_start, f"a force window needs t_end > t_start, "
                 f"not [{t_start!r}, {t_end!r})")
        parsed_forces.append(SceneForce(
            point=_vector(f["point"], 3, "a force point"),
            vector=_vector(f["vector"], 3, "a force vector"),
            t_start=t_start, t_end=t_end))

    outputs = data.get("outputs", [])
    _require(isinstance(outputs, list), "outputs must be a list")

    return SceneConfig(
        bodies=parsed_bodies,
        dt=dt,
        steps=int(steps),
        omega_body=state6 if key == "omega_body" else None,
        pi_body=state6 if key == "pi_body" else None,
        rotor0=rotor0,
        forces=parsed_forces,
        outputs=[_vector(p, 3, "a tracked output") for p in outputs])


def load_scene(path: str) -> SceneConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise SceneError(f"cannot read scene {path}: {exc}") from exc
    return parse_scene(data)


# ---------------------------------------------------------------------------
# runner


# an overflow surfaces as NumericError or SingularInertiaError, not as
# warnings, in set-up here and in each block's columns in ``record``
@np.errstate(over="ignore", invalid="ignore")
def run_simulation(cfg: SceneConfig, stride: int = 1):
    """Integrate the scene; returns ``(header, blocks)``.

    ``blocks`` yields the trajectory table as float arrays of at most
    :data:`_BLOCK_ROWS` rows, a row per recorded step at steps 0, stride,
    2*stride, ... so there are ``steps // stride + 1`` rows in all, of at
    most :data:`MAX_STEPS` steps.  Set-up errors (a bad stride, singular
    inertia, a rotor that cannot be normalized) are raised here; a block
    is integrated only when it is asked for, and raises
    :class:`~pgakit.versors.NumericError` naming the first column and
    time at which a value is not finite.
    """
    if stride < 1:
        raise SceneError("stride must be at least 1")
    if cfg.steps > MAX_STEPS:
        raise SceneError(f"the run has more than {MAX_STEPS} steps")
    alg = pga3d()
    particles = [Particle.at(alg, b["mass"], b["position"]) for b in cfg.bodies]
    inertia = inertia_assemble(particles)

    g = normalize_rotor(even_mv(alg, cfg.rotor0))

    if cfg.omega_body is not None:
        pi = inertia.apply(VelocityState(np.array(cfg.omega_body), BODY))
    else:
        pi = MomentumState(np.array(cfg.pi_body), BODY)

    # trivector coefficients (weight E0, then E1 E2 E3) of the tracked points
    tri = alg.grade_indices[3]
    tracked = np.array([point(alg, *p).coeffs[tri] for p in cfg.outputs]).reshape(-1, 4)
    schedule = None
    if cfg.forces:
        schedule = ForceSchedule(
            [biv_coeffs(force_line(alg, f.point, f.vector)) for f in cfg.forces],
            [f.t_start for f in cfg.forces], [f.t_end for f in cfg.forces])

    header = (["t"] + [f"g{i}" for i in range(8)] + [f"pi{i}" for i in range(6)]
              + ["energy"])
    for i in range(len(tracked)):
        header += [f"x{i}", f"y{i}", f"z{i}"]
    ne = len(alg.even_indices)

    @np.errstate(over="ignore", invalid="ignore")
    def record(times, states):
        """The table rows of recorded times and states, checked finite."""
        width = states.shape[1]
        table = np.empty((len(times), len(header)))
        table[:, 0] = times
        table[:, 1:width + 1] = states
        table[:, width + 1] = _momentum_energy(inertia, states[:, ne:])
        if len(tracked):
            # one sandwich matrix per row moves every tracked point;
            # dehomogenize as point_coords does
            mats = sandwich_matrix_even(alg, states[:, :ne], 3)
            moved = tracked @ mats.transpose(0, 2, 1)
            table[:, width + 2:] = (moved[:, :, 1:] / moved[:, :, :1]).reshape(
                len(mats), -1)
        bad = np.argwhere(~np.isfinite(table))
        if len(bad):
            row, col = bad[0]
            raise NumericError(
                f"{header[col]} is not finite at t = {float(table[row, 0])!r}")
        return table

    def blocks():
        # the first block keeps row 0, the initial state; a later one
        # resumes from the last row of the block before and drops it
        state, done, skip = MotionState(g, pi, 0.0), 0, 0
        while done < cfg.steps:
            steps = cfg.steps - done
            if steps // stride > _BLOCK_ROWS - 1 + skip:
                steps = stride * (_BLOCK_ROWS - 1 + skip)
            times, states = integrate(state, inertia, cfg.dt, steps, stride,
                                      force=schedule)
            yield record(times[skip:], states[skip:])
            done, skip = done + steps, 1
            state = MotionState(even_mv(alg, states[-1, :ne]),
                                MomentumState(states[-1, ne:], BODY), times[-1])

    return header, blocks()


def write_csv(path: str, header, blocks):
    """Write the header, then the rows of each block as they come.

    A block is a C-contiguous float64 table, or the raw bytes of one;
    each value is written as ``f"{v:.17g}"``: 17 significant digits read
    back exactly.  If ``blocks`` or a write raises, the file is left
    empty, not holding the rows of a run that failed part-way.
    """
    width = len(header)
    line = ",".join(["%.17g"] * width) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for block in blocks:
                view = memoryview(block)
                if view.format not in ("d", "B"):
                    raise TypeError(f"a block holds float64 values, not {view.format!r}")
                values = view.cast("B").cast("d").tolist() if view.nbytes else []
                fh.write((line * (len(values) // width)) % tuple(values))
    except BaseException:
        with contextlib.suppress(OSError):
            open(path, "w").close()
        raise

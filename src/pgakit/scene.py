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

The trajectory is CSV: one row per recorded step with the rotor, the
body momentum, the kinetic energy and the dehomogenized space-frame
position of every tracked point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .algebra import pga3d
from .dynamics import (BODY, SPACE, ForceState, MomentumState, MotionState,
                       Particle, VelocityState, body_energy, euler_step,
                       force_line, frame_convert, inertia_assemble)
from .metric import biv_coeffs, even_mv, point, point_coords
from .versors import normalize_rotor, sandwich


class SceneError(ValueError):
    """Malformed scene description."""


@dataclass(frozen=True)
class SceneForce:
    point: list
    vector: list
    t_start: float = 0.0
    t_end: float = float("inf")


@dataclass(frozen=True)
class SceneConfig:
    bodies: list
    integrator: dict
    signature: tuple = (3, 0, 1)
    omega_body: list | None = None
    pi_body: list | None = None
    rotor0: list = field(default_factory=lambda: [1.0] + [0.0] * 7)
    forces: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    @property
    def dt(self) -> float:
        return float(self.integrator["dt"])

    @property
    def steps(self) -> int:
        return int(self.integrator["steps"])


def _require(cond, message):
    if not cond:
        raise SceneError(message)


def parse_scene(data: dict) -> SceneConfig:
    _require(isinstance(data, dict), "scene must be a JSON object")
    sig = tuple(data.get("signature", (3, 0, 1)))
    _require(sig == (3, 0, 1), f"simulation supports signature 3,0,1, not {sig}")

    bodies = data.get("bodies")
    _require(isinstance(bodies, list) and bodies, "scene needs a non-empty 'bodies' list")
    for b in bodies:
        _require(isinstance(b, dict) and set(b) == {"mass", "position"},
                 "each body entry is {mass, position}")
        _require(float(b["mass"]) > 0.0, "masses must be positive")
        _require(len(b["position"]) == 3, "positions are [x, y, z]")

    initial = data.get("initial")
    _require(isinstance(initial, dict), "scene needs an 'initial' object")
    keys = set(initial)
    _require(keys in ({"omega_body"}, {"pi_body"}),
             "initial must hold exactly one of omega_body, pi_body")
    state6 = list(initial.get("omega_body", initial.get("pi_body")))
    _require(len(state6) == 6, "the initial state has 6 bivector coordinates")

    rotor0 = list(data.get("rotor0", [1.0] + [0.0] * 7))
    _require(len(rotor0) == 8, "rotor0 has 8 even coefficients")

    integrator = data.get("integrator")
    _require(isinstance(integrator, dict) and {"dt", "steps"} <= set(integrator),
             "scene needs integrator.dt and integrator.steps")
    _require(float(integrator["dt"]) > 0.0, "dt must be positive")
    _require(int(integrator["steps"]) >= 1, "steps must be at least 1")

    forces = []
    for f in data.get("forces", []):
        _require(isinstance(f, dict) and {"point", "vector"} <= set(f),
                 "each force entry needs point and vector")
        forces.append(SceneForce(
            point=list(f["point"]), vector=list(f["vector"]),
            t_start=float(f.get("t_start", 0.0)),
            t_end=float(f.get("t_end", float("inf")))))

    outputs = [list(p) for p in data.get("outputs", [])]
    for p in outputs:
        _require(len(p) == 3, "tracked outputs are [x, y, z] points")

    return SceneConfig(
        bodies=[{"mass": float(b["mass"]), "position": [float(c) for c in b["position"]]}
                for b in bodies],
        integrator={"dt": float(integrator["dt"]), "steps": int(integrator["steps"])},
        signature=sig,
        omega_body=state6 if "omega_body" in keys else None,
        pi_body=state6 if "pi_body" in keys else None,
        rotor0=[float(c) for c in rotor0],
        forces=forces,
        outputs=outputs)


def load_scene(path: str) -> SceneConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SceneError(f"cannot read scene {path}: {exc}") from exc
    return parse_scene(data)


def scene_to_dict(cfg: SceneConfig) -> dict:
    out = {
        "signature": list(cfg.signature),
        "bodies": cfg.bodies,
        "initial": ({"omega_body": cfg.omega_body} if cfg.omega_body is not None
                    else {"pi_body": cfg.pi_body}),
        "rotor0": cfg.rotor0,
        "integrator": cfg.integrator,
        "outputs": cfg.outputs,
    }
    if cfg.forces:
        out["forces"] = [asdict(f) for f in cfg.forces]
    return out


def dump_scene(cfg: SceneConfig, path: str):
    with open(path, "w") as fh:
        json.dump(scene_to_dict(cfg), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# runner


def run_simulation(cfg: SceneConfig, stride: int = 1):
    """Integrate the scene; returns (header, rows).

    Rows are recorded at steps 0, stride, 2*stride, ... so there are
    ``steps // stride + 1`` of them.
    """
    if stride < 1:
        raise SceneError("stride must be at least 1")
    alg = pga3d()
    particles = [Particle.at(alg, b["mass"], b["position"]) for b in cfg.bodies]
    inertia = inertia_assemble(particles)

    g = normalize_rotor(even_mv(alg, cfg.rotor0))

    if cfg.omega_body is not None:
        pi = inertia.apply(VelocityState(np.array(cfg.omega_body), BODY))
    else:
        pi = MomentumState(np.array(cfg.pi_body), BODY)
    state = MotionState(g, pi, 0.0)

    tracked = [point(alg, *p) for p in cfg.outputs]
    force_cb = _scene_force(alg, cfg.forces) if cfg.forces else None

    header = (["t"] + [f"g{i}" for i in range(8)] + [f"pi{i}" for i in range(6)]
              + ["energy"])
    for i in range(len(tracked)):
        header += [f"x{i}", f"y{i}", f"z{i}"]

    def row(st: MotionState):
        vals = [st.t]
        vals += list(st.g.coeffs[alg.even_indices])
        vals += list(st.pi_body.coeffs)
        vals.append(body_energy(inertia, st))
        for pt in tracked:
            vals += list(point_coords(sandwich(st.g, pt)))
        return vals

    rows = [row(state)]
    for k in range(1, cfg.steps + 1):
        state = euler_step(state, inertia, cfg.dt, force=force_cb)
        if k % stride == 0:
            rows.append(row(state))
    return header, rows


def _scene_force(alg, forces):
    lines = [(force_line(alg, f.point, f.vector), f.t_start, f.t_end)
             for f in forces]

    def callback(t, g, pi_body):
        total = np.zeros(6)
        for mv, t0, t1 in lines:
            if t0 <= t < t1:
                total += biv_coeffs(mv)
        if not total.any():
            return ForceState(total, BODY)
        return frame_convert(ForceState(total, SPACE), g, BODY)

    return callback


def write_csv(path: str, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

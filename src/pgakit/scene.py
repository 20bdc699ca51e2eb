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
:class:`~pgakit.dynamics.ForceSchedule` and turns each block of states
it yields, stepped in the body's principal frame and moved back to its
own, into a block of the float table: its energy and tracked-point
columns are elementwise sums in a fixed order, and it is refused with
:class:`~pgakit.versors.NumericError` if any value in it is not finite.
Memory therefore stays that of one block however long the run.
:func:`write_csv` formats the blocks as they come and leaves an empty
file if the run fails part-way.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import _fixed_sum, pga3d
from .dynamics import (BODY, ForceSchedule, MomentumState, MotionState, Particle,
                       VelocityState, _momentum_energy, force_line, inertia_assemble,
                       integrate)
from .metric import biv_coeffs, even_mv, point
# sandwich is not called here; the benchmark's tracing tests use scene.sandwich
# as their example of an alias made by ``from .versors import``
from .versors import NumericError, normalize_rotor, sandwich  # noqa: F401


# run_simulation integrates every step whatever the stride (2.2-3.6 h at
# 8-13 us a step)
MAX_STEPS = 10**9


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

    ``blocks`` yields the trajectory table, one float array per block of
    ``integrate``, a row per recorded step at steps 0, stride,
    2*stride, ... so there are ``steps // stride + 1`` rows in all, of at
    most :data:`MAX_STEPS` steps.  Set-up errors (a bad stride, singular
    inertia, a rotor that cannot be normalized) are raised here; a block
    is integrated only when it is asked for, and raises
    :class:`~pgakit.versors.NumericError` naming the first column and
    time at which a value is not finite.

    The state and energy columns are those of
    :func:`~pgakit.dynamics.integrate` and
    :func:`~pgakit.dynamics.body_energy` on the body's assembled inertia.
    """
    if stride < 1:
        raise SceneError("stride must be at least 1")
    if cfg.steps > MAX_STEPS:
        raise SceneError(f"the run has more than {MAX_STEPS} steps")
    alg = pga3d()
    inertia = inertia_assemble([Particle.at(alg, b["mass"], b["position"])
                                for b in cfg.bodies])
    pi = (MomentumState(cfg.pi_body, BODY) if cfg.omega_body is None
          else inertia.apply(VelocityState(cfg.omega_body, BODY)))

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
    ne, tables = len(alg.even_indices), alg.even_tables

    @np.errstate(over="ignore", invalid="ignore")
    def record(times, states):
        """The table rows of recorded times and states, checked finite."""
        width = states.shape[1]
        table = np.empty((len(times), len(header)))
        table[:, 0] = times
        table[:, 1:width + 1] = states
        table[:, width + 1] = _momentum_energy(inertia, states[:, ne:])
        if len(tracked):
            # each row's sandwich matrix, sandwich_matrix(g, 3), moves every
            # tracked point, every sum elementwise and in a fixed order, as
            # _move's; dehomogenize as point_coords does
            mats = tables.quadratic(tables.sandwich[3], table[:, 1:ne + 1])
            moved = _fixed_sum(tracked[:, None, :] * mats.reshape(-1, 1, 4, 4))
            table[:, width + 2:] = (moved[..., 1:] / moved[..., :1]).reshape(len(table), -1)
        bad = np.argwhere(~np.isfinite(table))
        if len(bad):
            row, col = bad[0]
            raise NumericError(
                f"{header[col]} is not finite at t = {float(table[row, 0])!r}")
        return table

    return header, itertools.starmap(record, integrate(
        MotionState(normalize_rotor(even_mv(alg, cfg.rotor0)), pi), inertia,
        cfg.dt, cfg.steps, stride, force=schedule))


# ---------------------------------------------------------------------------
# CSV text


_SPLIT = 134217729.0             # 2**27 + 1, Dekker's split of a float64
# values per _csv_text call: at 25600 each call faulted in 1800 fresh heap pages
_TEXT_VALUES = 4096


def _words(parts):
    """Byte strings of at most 8 bytes, zero-padded, as uint64 words."""
    return np.frombuffer(b"".join(p.ljust(8, b"\0") for p in parts), np.uint64)


@functools.cache
def _text_tables():
    """The tables of :func:`_csv_text`, made on its first call.

    A value's text is built in 7 words: sign and lead digit, 16 digits,
    ``0.000`` and the lead digit, the 16 digits again, ``e+XXX`` and the
    separator.  The mask of its layout (the exponent k, 0 in scientific
    notation, and the place of the last nonzero digit) keeps the bytes
    it shows.  Exponents, layouts and ``powers`` (``10**(16 - k)`` as a
    Dekker-split double-double, filled by :func:`_scaled` as blocks need
    it) are indexed by ``k + 300``.
    """
    d = np.arange(10000, dtype=np.int16)
    left, right = np.zeros((2, 10000, 8), np.uint8)     # four digits, then four after
    left[:, :4] = right[:, 4:] = np.stack([d // 1000, d // 100 % 10, d // 10 % 10,
                                           d % 10], 1) + 48
    # the trailing zeros of four digits; 16 for 0000, so that it sorts last
    zeros = np.where(d == 0, 16, sum(d % 10**i == 0 for i in range(1, 4))).astype(np.int8)
    e = np.arange(-300, 301)
    exponents = _words((b"" if -4 <= k <= 16 else b"e%+03d" % k).ljust(5, b"\0") + b","
                       for k in e.tolist())
    k, last, j = np.arange(-4, 17)[:, None, None], np.arange(17)[:, None], np.arange(17)
    shown = (np.ones(7, bool), j <= k, k < 0, last > k, np.arange(3) < -k - 1,
             np.zeros(2, bool), (k < j) & (j <= last), np.ones(8, bool))
    mask = np.concatenate([np.broadcast_to(m, (21, 17, np.shape(m)[-1])) for m in shown], 2)
    left, right = left.view(np.uint64).ravel(), right.view(np.uint64).ravel()
    return (left, right, zeros, _words(b"\0" * 7 + b"%d" % i for i in range(10)),
            _words([b"", b"\0" * 6 + b"-"]), _words([b"0.000"]), exponents,
            17 * np.where((e < -4) | (e > 16), 4, e + 4),
            (mask * np.uint8(255)).reshape(-1, 56).view(np.uint64),
            np.full((4, len(e)), np.nan))


def _scaled(a, i, powers):
    """``a * 10**(316 - i)`` as ``p + r``: the rounded product and the rest to
    1e-31 of it, by Dekker's exact product (numpy fuses no multiply-adds)."""
    hi, hi_big, hi_small, lo = powers.take(i, axis=1)
    if np.isnan(hi).any():
        for n in set(i[np.isnan(hi)].tolist()):
            q = 316 - n
            top, bottom = (10**q, 1) if q >= 0 else (1, 10**-q)
            h = top / bottom
            num, den = h.as_integer_ratio()
            big = h * _SPLIT - (h * _SPLIT - h)
            powers[:, n] = h, big, h - big, (top * den - num * bottom) / (bottom * den)
        hi, hi_big, hi_small, lo = powers.take(i, axis=1)
    t = a * _SPLIT
    big = t - (t - a)
    small = a - big
    p = a * hi
    return p, (((big * hi_big - p) + big * hi_small + small * hi_big) + small * hi_small
               + a * lo)


def _divmod(n, base):
    q = n // base                # numpy's // by a constant is a multiply; % is not
    return q, n - q * base


def _csv_text(block) -> bytes:
    """The CSV rows of a ``(rows, width)`` float64 block: per row, exactly
    ``",".join(f"{v:.17g}" for v in row) + "\\n"``.

    Each value's 17 digits are ``round(|x| 10**(16 - k))``, ``k = floor(log10
    |x|)``, from a scaled value good to about 1e-14.  ``"%.17g"`` formats
    the values that are not finite, those outside [1e-280, 1e280), where
    the split could overflow, and those within 1e-6 of a rounding tie or 2
    ulps of 10**16 or 10**17 (where ``k`` may be off by one).
    """
    left, right, zeros, leads, signs, point, exps, layouts, masks, powers = _text_tables()
    x = block.ravel()
    a = np.abs(x)
    plain = (a >= 1e-280) & (a < 1e280)
    a = np.where(plain, a, 1.0)
    i = np.floor(np.log10(a)).astype(np.intp) + 300
    p, r = _scaled(a, i, powers)
    up = np.rint(r)
    decided = (plain & (p > 1e16 + 2) & (p < 1e17 - 16) & (np.abs(r - up) < 0.5 - 1e-6)
               | (x == 0))
    digits = np.where(x == 0, 0, p.astype(np.int64) + up.astype(np.int64))
    lead, rest = _divmod(digits, 10**16)
    high, low = _divmod(rest, 10**8)
    (q1, q2), (q3, q4) = _divmod(high, 10**4), _divmod(low, 10**4)
    last = np.maximum(np.maximum(4 - zeros[q1], 8 - zeros[q2]),
                      np.maximum(12 - zeros[q3], 16 - zeros[q4]))
    cell = masks.take(layouts[i] + last, axis=0)
    lead = leads[lead]
    cell[:, 0] &= lead | signs[np.signbit(x).astype(np.intp)]
    cell[:, 3] &= lead | point
    for col, word in ((1, left[q1] | right[q2]), (2, left[q3] | right[q4])):
        cell[:, col] &= word
        cell[:, col + 3] &= word
    cell[:, 6] &= exps[i]
    text = cell.view(np.uint8)
    text.reshape(*block.shape, 56)[:, -1, 53] = 10
    slow = b"".join(("%.17g" % v).encode().ljust(53, b"\0") for v in x[~decided].tolist())
    text[~decided, :53] = np.frombuffer(slow, np.uint8).reshape(-1, 53)
    return text.tobytes().translate(None, b"\0")


def write_csv(path: str, header, blocks):
    """Write the header, then the rows of each block as they come.

    A block is a C-contiguous float64 table, or its values as a flat
    float64 buffer.  Each value is written as ``f"{v:.17g}"``, 17
    significant digits that read back exactly, by :func:`_csv_text` in
    numpy's elementwise functions (3.3 ms a block of 1024 rows of 25 on a
    shared 2-vCPU Xeon).  If ``blocks`` or a write raises, the file is
    left empty, not holding the rows of a run that failed part-way.
    """
    width = len(header)
    step = max(1, _TEXT_VALUES // width)
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for block in blocks:
                view = memoryview(block)
                if view.format != "d":
                    raise TypeError(f"a block holds float64 values, not {view.format!r}")
                table = np.asarray(view).reshape(-1, width)
                for i in range(0, len(table), step):
                    fh.write(_csv_text(table[i:i + step]))
    except BaseException:
        with contextlib.suppress(OSError):
            open(path, "w").close()
        raise

"""Command-line surface: Cayley tables, a blade calculator, exp/log,
and the batch rigid-body simulator.

Exit codes: 0 success, 2 usage or parse problems (including a malformed
scene, an output path that cannot be opened and exp/log outside PGA), 3
numeric failures (singular inertia, non-normalizable rotors, a value
that stops being finite).  Each failure prints one ``error:`` line.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .algebra import Algebra, Signature, format_multivector
from .dynamics import SingularInertiaError
from .expr import ExprError, evaluate
from .metric import biv_mv, even_mv
from .scene import SceneError, load_scene, run_simulation, write_csv
from .versors import (NumericError, exp_bivector, normalize_rotor,
                      require_pga, rotor_log)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _parse_signature(text: str) -> Algebra:
    try:
        parts = [int(p) for p in text.split(",")]
        if len(parts) != 3:
            raise ValueError
        return Algebra(Signature(*parts))
    except ValueError:
        raise SystemExit(_usage_error(f"invalid signature {text!r}; expected P,N,Z"))


def _parse_pga_signature(text: str) -> Algebra:
    try:
        return require_pga(_parse_signature(text))
    except ValueError as exc:
        raise SystemExit(_usage_error(str(exc)))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _numeric_error(message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_NUMERIC


def _parse_coeffs(text: str) -> list[float]:
    try:
        coeffs = [float(p) for p in text.split(",")]
    except ValueError:
        raise SystemExit(_usage_error(f"invalid coefficient list {text!r}"))
    if not all(math.isfinite(c) for c in coeffs):
        raise SystemExit(_usage_error(f"non-finite coefficient in {text!r}"))
    return coeffs


def cmd_table(args) -> int:
    alg = _parse_signature(args.signature)
    names = alg.blade_names
    cells = [[""] + names]
    for rn in names:
        row = [rn]
        for cn in names:
            row.append(format_multivector(alg.blade(rn) * alg.blade(cn)))
        cells.append(row)
    widths = [max(len(r[c]) for r in cells) for c in range(len(names) + 1)]
    for r in cells:
        print("  ".join(s.rjust(w) for s, w in zip(r, widths)))
    return EXIT_OK


# an overflow surfaces as a numeric error, not as warnings
@np.errstate(over="ignore", invalid="ignore")
def cmd_eval(args) -> int:
    alg = _parse_signature(args.signature)
    try:
        value = evaluate(args.expression, alg)
    except ExprError as exc:
        return _usage_error(str(exc))
    if not np.isfinite(value.coeffs).all():
        return _numeric_error(f"the value is not finite: {value}")
    print(value)
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        cfg = load_scene(args.scene)
    except SceneError as exc:
        return _usage_error(str(exc))
    # fail on an unwritable output before integrating, not after
    try:
        with open(args.out, "a"):
            pass
    except OSError as exc:
        return _usage_error(f"cannot write {args.out}: {exc.strerror}")
    try:
        header, table = run_simulation(cfg, stride=args.stride)
    except SceneError as exc:
        return _usage_error(str(exc))
    except (SingularInertiaError, NumericError) as exc:
        return _numeric_error(exc)
    write_csv(args.out, header, table)
    print(f"wrote {len(table)} rows to {args.out}")
    return EXIT_OK


@np.errstate(over="ignore", invalid="ignore")
def cmd_exp(args) -> int:
    alg = _parse_pga_signature(args.signature)
    coeffs = _parse_coeffs(args.coeffs)
    want = len(alg.grade_indices[2])
    if len(coeffs) != want:
        return _usage_error(f"exp needs {want} bivector coefficients for Cl{alg.signature}")
    try:
        print(exp_bivector(biv_mv(alg, coeffs)))
    except NumericError as exc:
        return _numeric_error(exc)
    return EXIT_OK


@np.errstate(over="ignore", invalid="ignore")
def cmd_log(args) -> int:
    alg = _parse_pga_signature(args.signature)
    coeffs = _parse_coeffs(args.coeffs)
    want = len(alg.even_indices)
    if len(coeffs) != want:
        return _usage_error(f"log needs {want} even coefficients for Cl{alg.signature}")
    try:
        g = normalize_rotor(even_mv(alg, coeffs))
        b = rotor_log(g)
        if not np.isfinite(b.coeffs).all():
            raise NumericError(f"the logarithm is not finite: {b}")
        e = exp_bivector(b) if args.roundtrip else None
    except ValueError as exc:
        return _numeric_error(exc)
    print(b)
    if e is not None:
        residual = min(float(np.abs((e - g).coeffs).max()),
                       float(np.abs((e + g).coeffs).max()))
        print(f"roundtrip residual: {residual:.3e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgakit",
        description="geometric algebra with a degenerate metric: tables, "
                    "a blade calculator, and rigid-body simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print the Cayley table of a signature")
    p.add_argument("--signature", default="2,0,1", help="P,N,Z (default 2,0,1)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("eval", help="evaluate a blade expression")
    p.add_argument("expression")
    p.add_argument("--signature", default="3,0,1")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="integrate a rigid-body scene to CSV")
    p.add_argument("scene", help="scene JSON path")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.add_argument("--stride", type=int, default=1, help="record every K-th step")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("exp", help="exponential of a bivector")
    p.add_argument("--coeffs", required=True,
                   help="bivector coefficients, e.g. 0,0,0,0.1,0,0.7")
    p.add_argument("--signature", default="3,0,1")
    p.set_defaults(func=cmd_exp)

    p = sub.add_parser("log", help="logarithm of a rotor")
    p.add_argument("--coeffs", required=True,
                   help="even coefficients: scalar, bivector..., pseudoscalar")
    p.add_argument("--signature", default="3,0,1")
    p.add_argument("--roundtrip", action="store_true",
                   help="also print the exp(log(g)) residual")
    p.set_defaults(func=cmd_log)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: Cayley tables, a blade calculator, exp/log,
and the batch rigid-body simulator.

Commands raise and :func:`main` alone reports: it prints one ``error:``
line and maps the error to the exit code.  Exit codes: 0 success; 2 for
:class:`UsageError` (a bad signature, coefficient list or ``--out``
path, a CSV write that fails, exp/log outside PGA),
:class:`~pgakit.scene.SceneError` (a malformed scene) and
:class:`~pgakit.expr.ExprError`; 3 for every other
``ValueError``, the numeric failures (singular inertia, a rotor that
cannot be normalized, a value that stops being finite).  Any other
exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from .algebra import Algebra, format_multivector
from .expr import ExprError, evaluate
from .metric import biv_mv, even_mv
from .scene import SceneError, load_scene, run_simulation, write_csv
from .versors import (NumericError, exp_bivector, normalize_rotor,
                      require_pga, rotor_log)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    """A bad command-line value; :func:`main` exits with ``EXIT_USAGE``."""


def _parse_signature(text: str) -> Algebra:
    try:
        parts = [int(p) for p in text.split(",")]
        if len(parts) != 3:
            raise ValueError
        return Algebra(*parts)
    except ValueError:
        raise UsageError(f"invalid signature {text!r}; expected P,N,Z") from None


def _parse_pga_signature(text: str) -> Algebra:
    alg = _parse_signature(text)
    try:
        return require_pga(alg)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_coeffs(args, alg: Algebra, want: int, kind: str) -> list[float]:
    """``args.coeffs`` as ``want`` finite numbers, the ``kind`` part of ``alg``."""
    try:
        coeffs = [float(p) for p in args.coeffs.split(",")]
    except ValueError:
        raise UsageError(f"invalid coefficient list {args.coeffs!r}") from None
    if not all(math.isfinite(c) for c in coeffs):
        raise UsageError(f"non-finite coefficient in {args.coeffs!r}")
    if len(coeffs) != want:
        raise UsageError(f"{args.command} needs {want} {kind} coefficients "
                         f"for Cl{alg.signature}")
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


def cmd_eval(args) -> int:
    value = evaluate(args.expression, _parse_signature(args.signature))
    if not np.isfinite(value.coeffs).all():
        raise NumericError(f"the value is not finite: {value}")
    print(value)
    return EXIT_OK


def _write_or_refuse(path: str, write) -> None:
    """``write(path)``; an ``OSError`` becomes :class:`UsageError`."""
    try:
        write(path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def cmd_simulate(args) -> int:
    cfg = load_scene(args.scene)
    # fail on an unwritable output before integrating, not after; a write
    # that fails later (a full disk) is reported the same way
    _write_or_refuse(args.out, lambda path: open(path, "a").close())
    header, table = run_simulation(cfg, stride=args.stride)
    _write_or_refuse(args.out, lambda path: write_csv(path, header, table))
    print(f"wrote {len(table)} rows to {args.out}")
    return EXIT_OK


def cmd_exp(args) -> int:
    alg = _parse_pga_signature(args.signature)
    coeffs = _parse_coeffs(args, alg, len(alg.grade_indices[2]), "bivector")
    print(exp_bivector(biv_mv(alg, coeffs)))
    return EXIT_OK


def cmd_log(args) -> int:
    alg = _parse_pga_signature(args.signature)
    coeffs = _parse_coeffs(args, alg, len(alg.even_indices), "even")
    g = normalize_rotor(even_mv(alg, coeffs))
    b = rotor_log(g)
    if not np.isfinite(b.coeffs).all():
        raise NumericError(f"the logarithm is not finite: {b}")
    e = exp_bivector(b) if args.roundtrip else None
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
    # a value may start with "-" ("-e1", "--coeffs -0.5,0,0"): a word with
    # one leading dash that names no option is read as a value, the way
    # argparse already reads a plain negative number
    for command in sub.choices.values():
        command._negative_number_matcher = re.compile(r"-[^-]")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        # an overflow surfaces as a numeric error, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (UsageError, SceneError, ExprError)):
            return EXIT_USAGE
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

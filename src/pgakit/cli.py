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

``simulate`` streams the runner's blocks of rows to the CSV.  A run of
more than one block, where ``os.fork`` exists and a second CPU is free,
is written by a forked writer process that formats one block while this
process integrates the next; every other run is written here by the
same :func:`~pgakit.scene.write_csv`, and no process is started.  Either
way a run that fails after rows went out leaves ``--out`` empty.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import sys
import warnings

import numpy as np

from .algebra import Algebra, format_multivector
from .expr import ExprError, evaluate
from .metric import _require_pga, biv_mv, even_mv
from .scene import SceneError, load_scene, run_simulation, write_csv
from .versors import NumericError, exp_bivector, normalize_rotor, rotor_log

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


def _parse_pga_signature(text: str, command: str) -> Algebra:
    alg = _parse_signature(text)
    try:
        return _require_pga(alg, command)
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


def _spare_cpu() -> bool:
    """Whether this process may run on more than one CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _received(pipe, size: int, chunk: int):
    """``size`` bytes read from ``pipe``, ``chunk`` at a time, each cast to
    float64; raises ``EOFError`` if the pipe closes before they are all in."""
    while size:
        want = min(size, chunk)
        data = pipe.read(want)
        if len(data) < want:
            raise EOFError("the run stopped before its last row")
        size -= want
        yield memoryview(data).cast("d")


def _write_forked(path: str, header, first, blocks, rows: int) -> None:
    """:func:`write_csv` of ``rows`` rows, ``first`` then ``blocks``, in
    a forked writer process, so that formatting one block overlaps
    integrating the next.

    The writer formats ``first``, which it inherits, then the rows this
    process sends down a pipe as raw float64 bytes; it runs numpy's
    elementwise functions, no BLAS, and always ends in ``os._exit``.  A
    write error comes back as its exit status, the errno, and is raised
    here as ``OSError``.  If a block raises here, the pipe closes early
    and the writer, seeing fewer than ``rows`` rows, empties the file;
    the same happens if this process is killed, so no writer outlives
    it.  The writer is reaped on every path.
    """
    read, write = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 warns that forking a process with more threads
        # (numpy's BLAS pool) may deadlock the child; the writer calls
        # no BLAS and takes none of their locks
        warnings.filterwarnings("ignore", ".*multi-threaded.*fork",
                                DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 255                # unless it ends as planned: a bug
        try:
            os.close(write)
            width = 8 * len(header)
            with open(read, "rb") as pipe:
                write_csv(path, header, itertools.chain([first], _received(
                    pipe, (rows - len(first)) * width, len(first) * width)))
            code = 0
        except OSError as exc:
            code = exc.errno or code
        except EOFError:
            pass                  # the run failed; write_csv emptied the file
        except Exception:
            sys.excepthook(*sys.exc_info())
        finally:
            os._exit(code)
    try:
        os.close(read)
        for block in blocks:
            view = memoryview(block).cast("B")
            while view:
                view = view[os.write(write, view):]
    except BrokenPipeError:
        pass                      # the writer stopped; its status says why
    finally:
        os.close(write)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        raise OSError(0, f"the writer process was killed by signal {-code}")
    if code == 255:
        raise RuntimeError("the CSV writer process failed")
    if code:
        raise OSError(code, os.strerror(code))


def cmd_simulate(args) -> int:
    cfg = load_scene(args.scene)
    # fail on an unwritable output before integrating, not after, and
    # empty it, so that a run failing from here on leaves no earlier
    # run's rows; a write that fails later (a full disk) is reported the same way
    _write_or_refuse(args.out, lambda path: open(path, "w").close())
    header, blocks = run_simulation(cfg, stride=args.stride)
    rows = cfg.steps // args.stride + 1
    # a run that fails in its first block writes nothing, and a run of
    # one block is written here: a writer process pays only when it can
    # format a block while this one integrates the next
    first = next(blocks)
    if len(first) < rows and hasattr(os, "fork") and _spare_cpu():
        _write_or_refuse(args.out, lambda path: _write_forked(
            path, header, first, blocks, rows))
    else:
        _write_or_refuse(args.out, lambda path: write_csv(
            path, header, itertools.chain([first], blocks)))
    print(f"wrote {rows} rows to {args.out}")
    return EXIT_OK


def cmd_exp(args) -> int:
    alg = _parse_pga_signature(args.signature, args.command)
    coeffs = _parse_coeffs(args, alg, len(alg.grade_indices[2]), "bivector")
    print(exp_bivector(biv_mv(alg, coeffs)))
    return EXIT_OK


def cmd_log(args) -> int:
    alg = _parse_pga_signature(args.signature, args.command)
    coeffs = _parse_coeffs(args, alg, len(alg.even_indices), "even")
    g = normalize_rotor(even_mv(alg, coeffs))
    b = rotor_log(g)
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

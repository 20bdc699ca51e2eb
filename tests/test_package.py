"""Package hygiene: every module-level helper and constant, public or
private, has a caller, every import within the package points down
its layers, and every public function of the geometry layers fails only
with the package's own errors."""

import ast
import importlib
import inspect
import linecache
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgakit
from pgakit import Multivector, algebra, duality, metric, versors

ROOT = Path(__file__).resolve().parents[1]


def _defined_here(module, name, obj) -> bool:
    if inspect.isfunction(obj) or inspect.isclass(obj):
        return obj.__module__ == module.__name__
    # a constant: an UPPER_CASE name, or _UPPER_CASE, assigned at the
    # module's top level
    return (re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name) is not None
            and re.search(rf"^{name}\s*=", inspect.getsource(module), re.M)
            is not None)


def _sources():
    return [path for folder in ("src", "tests", "demos")
            for path in sorted((ROOT / folder).rglob("*.py"))]


def test_every_module_level_name_is_referenced():
    # a name that occurs once in src/, tests/ and demos/ occurs only in
    # its own definition: nothing calls, imports or tests it.  Private
    # helpers count too, so removing a caller cannot strand one.  A name
    # occurs where a maximal word run equals it, so the runs are counted once
    words = Counter(re.findall(r"\w+", "\n".join(path.read_text()
                                                 for path in _sources())))
    unused = []
    for info in pkgutil.iter_modules(pgakit.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"pgakit.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("__") or not _defined_here(module, name, obj):
                continue
            if words[name] <= 1:
                unused.append(f"{info.name}.{name}")
    assert unused == []


def test_every_f_string_has_a_placeholder():
    # an f-string with nothing to format is a plain string; the format
    # spec of a placeholder, the ``.3e`` of ``f"{x:.3e}"``, is an f-string
    # node of its own and is not one
    found = []
    for path in _sources():
        tree = ast.parse(path.read_text())
        specs = {id(node.format_spec) for node in ast.walk(tree)
                 if isinstance(node, ast.FormattedValue) and node.format_spec}
        found += [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.JoinedStr) and id(node) not in specs
                  and not any(isinstance(v, ast.FormattedValue) for v in node.values)]
    assert found == []


def test_only_one_move_applies_the_principal_frame():
    # every move between body and principal coordinates is dynamics._move,
    # which sums in one fixed order: a second route, such as a BLAS
    # product, which rounds one row and a stack of rows differently, would
    # make a recorded column depend on its block.  The frame is built
    # with its sandwiches by position, so _move alone reads them
    names = {"to_principal", "to_body"}
    readers = []
    for path in sorted((ROOT / "src" / "pgakit").glob("*.py")):
        tree = ast.parse(path.read_text())
        move = {id(node) for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name == "_move"
                and path.name == "dynamics.py" for node in ast.walk(fn)}
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if (getattr(node, "attr", None) in names
                        or getattr(node, "id", None) in names) and id(node) not in move]
    assert readers == []


def _blas_uses(fn) -> list:
    """Lines of ``fn`` with a matrix product or a name of numpy's BLAS routes."""
    banned = {"dot", "matmul", "einsum", "tensordot", "inner", "linalg"}
    return [f"{fn.name}:{node.lineno}" for node in ast.walk(fn)
            if (getattr(node, "attr", None) or getattr(node, "id", None)) in banned
            or isinstance(getattr(node, "op", None), ast.MatMult)]


def _functions(module: str) -> dict:
    tree = ast.parse((ROOT / "src" / "pgakit" / f"{module}.py").read_text())
    return {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}


def _function(module: str, name: str) -> ast.FunctionDef:
    """The one function or method named ``name`` in ``module``, at any depth."""
    tree = ast.parse((ROOT / "src" / "pgakit" / f"{module}.py").read_text())
    (fn,) = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             and fn.name == name]
    return fn


def test_the_csv_writer_calls_no_blas():
    # the writer process is forked from one whose BLAS pool may hold its
    # locks (cli._write_forked), so write_csv, _csv_text and every helper
    # of scene.py they reach use no matrix product and nothing of linalg
    helpers = _functions("scene")
    reached, todo, found = set(), ["write_csv", "_csv_text"], []
    while todo:
        name = todo.pop()
        reached.add(name)
        found += _blas_uses(helpers[name])
        for node in ast.walk(helpers[name]):
            word = getattr(node, "attr", None) or getattr(node, "id", None)
            if word in helpers and word not in reached:
                todo.append(word)
    assert {"_text_tables", "_scaled", "_divmod", "_words"} <= reached
    assert found == []


def test_each_block_of_a_run_calls_no_blas():
    # a BLAS product may round a row alone and in a stack differently, and
    # a multi-threaded BLAS spins a worker on a second CPU: after set-up,
    # the code that makes each block of simulate's table sums elementwise
    # in a fixed order.  Set-up in run_simulation itself is not walked.
    # The even tables' evaluator sums in that order too, and so do the
    # sandwich matrices, rotor normalization and frame moves that call it,
    # so no BLAS build changes a principal frame or a normalized rotor
    walked = [_function(module, name) for module, names in (
        ("scene", ["record"]), ("algebra", ["quadratic", "_fixed_sum"]),
        ("versors", ["sandwich_matrix", "normalize_rotor"]),
        ("dynamics", ["frame_convert", "_blocks", "_block", "_move", "_momentum_energy"]),
    ) for name in names]
    assert [use for fn in walked for use in _blas_uses(fn)] == []


def test_only_the_multivector_products_call_the_dense_kernel():
    # _bilinear's two BLAS mat-vecs serve the Multivector operators,
    # duality.join and metric._scaled_join; every other product sums in a
    # fixed order (EvenTables.quadratic, _fixed_sum) or is a closed form.
    # A call counts for each function around it: _product makes product
    callers = set()
    for path in sorted((ROOT / "src" / "pgakit").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                callers |= {f"{path.stem}.{fn.name}" for node in ast.walk(fn)
                            if isinstance(node, ast.Call)
                            and getattr(node.func, "id", None) == "_bilinear"}
    assert callers == {"algebra._product", "algebra.product", "algebra.__mul__",
                       "duality.join", "metric._scaled_join"}


# the modules of the package, lowest layer first: a module imports only
# from the layers below its own, so expr reads the algebra and nothing else
LAYERS = [{"algebra"}, {"duality", "expr"}, {"metric"}, {"versors"},
          {"dynamics"}, {"scene"}, {"cli"}, {"__init__", "__main__"}]


def test_imports_point_down_the_layers():
    # each at its module's top level but one: the root imports the
    # rigid-body layer on first use of one of its names
    layer = {name: i for i, names in enumerate(LAYERS) for name in names}
    src = ROOT / "src" / "pgakit"
    assert {path.stem for path in src.glob("*.py")} == set(layer)
    wrong, deferred = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = set(tree.body)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                targets = [node.module] if node.module else [a.name for a in node.names]
            else:
                continue
            for target in (t.removeprefix("pgakit.") for t in targets):
                if target not in layer:
                    continue
                if layer[target] >= layer[path.stem]:
                    wrong.append(f"{path.stem}:{node.lineno} imports {target}")
                elif node not in top:
                    deferred.append(f"{path.stem} imports {target}")
    assert wrong == []
    assert deferred == ["__init__ imports dynamics"]


# the names the root exports from pgakit.dynamics
DYNAMICS_NAMES = [
    "BODY", "SPACE", "ForceSchedule", "ForceState", "FrameError", "InertiaTensor",
    "MomentumState", "MotionState", "Particle", "SingularInertiaError",
    "VelocityState", "body_energy", "euler_step", "force_line", "force_state",
    "frame_convert", "inertia_assemble", "kinetic_energy", "momentum_of_body",
    "orbit_derivative", "power", "principal_decomposition", "resultant",
    "space_momentum", "work"]


def test_import_pgakit_loads_the_rigid_body_layer_on_first_use():
    # in a fresh interpreter: the geometry layers only, until a name of
    # the rigid-body layer is read, which then is the dynamics module's own
    code = textwrap.dedent(f"""
        import sys
        import pgakit
        later = ["pgakit.dynamics", "pgakit.scene", "pgakit.cli", "pgakit.expr"]
        assert not any(m in sys.modules for m in later), [m for m in later if m in sys.modules]
        names = {DYNAMICS_NAMES!r}
        assert set(names) <= set(dir(pgakit)) and set(names) <= set(pgakit.__all__)
        scope = {{}}
        exec("from pgakit import *", scope)
        from pgakit import dynamics
        for name in names:
            assert scope[name] is getattr(pgakit, name) is getattr(dynamics, name), name
        assert "scene" not in dir(pgakit) and not hasattr(pgakit, "nothing")
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def test_the_root_exports_every_public_name_it_holds():
    # __all__ lists the names the root imports, and those it reads from
    # the rigid-body layer, and no submodule
    held = {name for name, value in vars(pgakit).items()
            if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(pgakit.__all__) == held | set(DYNAMICS_NAMES)
    assert len(pgakit.__all__) == len(set(pgakit.__all__))


def test_only_the_kernel_reads_the_product_tensors():
    # the 3-index tables _gp, _op, _ip, _comm and _vee stay inside
    # algebra.py; other modules apply the flat tables through _bilinear
    # or read the even-subalgebra tables
    tensor = re.compile(r"\b_(?:gp|op|ip|comm|vee)\b")
    readers = [f"{path.name}:{n}"
               for path in sorted((ROOT / "src" / "pgakit").glob("*.py"))
               if path.name != "algebra.py"
               for n, line in enumerate(path.read_text().splitlines(), 1)
               if tensor.search(line)]
    assert readers == []


def test_only_metric_decides_which_algebra_a_function_takes():
    # one helper in metric.py refuses a wrong algebra; elsewhere no
    # comparison reads an algebra's signature and no refusal compares its
    # dim (a dim test that dispatches, as in rotator, raises nothing)
    def attr(node, *names):
        return isinstance(node, ast.Attribute) and node.attr in names

    deciders = []
    for path in sorted((ROOT / "src" / "pgakit").glob("*.py")):
        if path.name in ("algebra.py", "metric.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(attr(x, "signature") for x in operands):
                    deciders.append(f"{path.name}:{node.lineno}")
            elif (attr(node, "p", "n", "z") and attr(node.value, "signature")
                  or isinstance(node, ast.Name) and node.id == "Signature"):
                deciders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body):
                if any(isinstance(c, ast.Compare) and any(attr(x, "dim") for x in
                                                          [c.left, *c.comparators])
                       for c in ast.walk(node.test)):
                    deciders.append(f"{path.name}:{node.lineno}")
    assert deciders == []


# ---------------------------------------------------------------------------
# the public API on every algebra


def _multivector_functions():
    """Every public function of duality, metric and versors whose
    parameters are one or two multivectors."""
    found = []
    for module in (duality, metric, versors):
        for name, fn in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            params = inspect.signature(fn).parameters.values()
            if 0 < len(params) < 3 and all(p.annotation in ("Multivector", Multivector)
                                           for p in params):
                found.append(fn)
    return found


_FUNCTIONS = _multivector_functions()
_ALGEBRAS = [algebra(2, 0, 1), algebra(3, 0, 1), algebra(4, 0, 0), algebra(3, 1, 0)]
_SRC = ROOT / "src" / "pgakit"


def _the_package_raised(exc: BaseException) -> bool:
    """Whether ``exc`` is one of the package's errors: a class of its own,
    or raised by a ``raise`` statement in its source.  An ``IndexError``, a
    warning, or an error that numpy or Python raised inside the package's
    code (its innermost frame is not a ``raise``) is not."""
    if isinstance(exc, (IndexError, Warning)):
        return False
    if type(exc).__module__.startswith("pgakit."):
        return True
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    path = Path(tb.tb_frame.f_code.co_filename)
    return (_SRC in path.parents
            and linecache.getline(str(path), tb.tb_lineno).lstrip().startswith("raise"))


def test_the_property_test_covers_the_euclidean_and_versor_functions():
    names = {fn.__name__ for fn in _FUNCTIONS}
    assert {"join", "polar_line", "direction", "bivector_split", "bivector_axis",
            "common_normal", "killing_norm", "exp_bivector", "screw_log"} <= names


# finite, bounded coefficients with exact zeros; non-finite ones are
# another question (see ROADMAP item 12)
_COEFF = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))


def _elements(alg, c):
    """Zero, then the grade-k part of the coefficients ``c`` for each k."""
    return [alg.zero(), *(Multivector(alg, np.where(alg.grades == k, c, 0.0))
                          for k in range(alg.dim + 1))]


@pytest.mark.parametrize("alg", _ALGEBRAS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_public_functions_return_or_raise_the_package_errors(alg, data):
    # zero and an element of each grade, as the first and the second
    # argument, in the two PGA algebras and two others
    c = np.array(data.draw(st.lists(_COEFF, min_size=2 * alg.n_blades,
                                    max_size=2 * alg.n_blades)))
    firsts, seconds = _elements(alg, c[:alg.n_blades]), _elements(alg, c[alg.n_blades:])
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in _FUNCTIONS:
            one = len(inspect.signature(fn).parameters) == 1
            for args in ([(x,) for x in firsts] if one
                         else [(x, y) for x in firsts for y in seconds]):
                try:
                    fn(*args)
                except Exception as exc:
                    if not _the_package_raised(exc):
                        failures.append(f"{fn.__name__}{args}: {type(exc).__name__}: {exc}")
    assert failures == []

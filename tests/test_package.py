"""Package hygiene: every module-level helper and constant, public or
private, has a caller, and every import within the package points down
its layers."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pgakit

ROOT = Path(__file__).resolve().parents[1]


def _defined_here(module, name, obj) -> bool:
    if inspect.isfunction(obj) or inspect.isclass(obj):
        return obj.__module__ == module.__name__
    # a constant: an UPPER_CASE name, or _UPPER_CASE, assigned at the
    # module's top level
    return (re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name) is not None
            and re.search(rf"^{name}\s*=", inspect.getsource(module), re.M)
            is not None)


def test_every_module_level_name_is_referenced():
    # a name that occurs once in src/, tests/ and demos/ occurs only in
    # its own definition: nothing calls, imports or tests it.  Private
    # helpers count too, so removing a caller cannot strand one
    text = "\n".join(path.read_text()
                     for folder in ("src", "tests", "demos")
                     for path in sorted((ROOT / folder).rglob("*.py")))
    unused = []
    for info in pkgutil.iter_modules(pgakit.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"pgakit.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("__") or not _defined_here(module, name, obj):
                continue
            if len(re.findall(rf"\b{name}\b", text)) <= 1:
                unused.append(f"{info.name}.{name}")
    assert unused == []


# the modules of the package, lowest layer first: a module imports only
# from the layers below its own, so expr reads the algebra and nothing else
LAYERS = [{"algebra"}, {"duality", "expr"}, {"metric"}, {"versors"},
          {"dynamics"}, {"scene"}, {"cli"}, {"__init__", "__main__"}]


def test_imports_point_down_the_layers():
    layer = {name: i for i, names in enumerate(LAYERS) for name in names}
    src = ROOT / "src" / "pgakit"
    assert {path.stem for path in src.glob("*.py")} == set(layer)
    wrong = []
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
                if target in layer and (node not in top
                                        or layer[target] >= layer[path.stem]):
                    wrong.append(f"{path.stem}:{node.lineno} imports {target}")
    assert wrong == []


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

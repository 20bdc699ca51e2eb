"""Package hygiene: every public helper and constant has a caller."""

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
    # a constant: an UPPER_CASE name assigned at the module's top level
    return (re.fullmatch(r"[A-Z][A-Z0-9_]*", name) is not None
            and re.search(rf"^{name}\s*=", inspect.getsource(module), re.M)
            is not None)


def test_every_public_name_is_referenced():
    # a name that occurs once in src/, tests/ and demos/ occurs only in
    # its own definition: nothing calls, imports or tests it
    text = "\n".join(path.read_text()
                     for folder in ("src", "tests", "demos")
                     for path in sorted((ROOT / folder).rglob("*.py")))
    unused = []
    for info in pkgutil.iter_modules(pgakit.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"pgakit.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not _defined_here(module, name, obj):
                continue
            if len(re.findall(rf"\b{name}\b", text)) <= 1:
                unused.append(f"{info.name}.{name}")
    assert unused == []

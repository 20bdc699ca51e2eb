"""Package hygiene: every public helper has a caller."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pgakit

ROOT = Path(__file__).resolve().parents[1]


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
            if (name.startswith("_")
                    or not (inspect.isfunction(obj) or inspect.isclass(obj))
                    or obj.__module__ != module.__name__):
                continue
            if len(re.findall(rf"\b{name}\b", text)) <= 1:
                unused.append(f"{info.name}.{name}")
    assert unused == []

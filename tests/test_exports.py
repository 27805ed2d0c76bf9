"""Static checks of the code base. Each module's ``__all__`` names only what
the module itself defines, so a re-export (an exception from ``errors``
listed again in ``numerics``, say) cannot come back unnoticed. Every Python
file parses with the oldest supported grammar, and every dataclass field
has a reader."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import immunoepi

ROOT = Path(__file__).resolve().parent.parent
# __main__ runs the command line on import
MODULES = [
    info.name
    for info in pkgutil.iter_modules(immunoepi.__path__, "immunoepi.")
    if info.name != "immunoepi.__main__"
]
# the oldest Python that pyproject.toml's requires-python admits
OLDEST_PYTHON = (3, 10)
# dataclasses whose instances the command line writes whole with asdict, so
# every field reaches an output file without an attribute read: the events
# of events.json
SERIALISED_WHOLE = {"BifurcationEvent"}


def python_files(*directories):
    return sorted(path for name in directories for path in (ROOT / name).rglob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_are_defined_in_their_module(name):
    module = importlib.import_module(name)
    for attr in module.__all__:
        obj = getattr(module, attr)
        if callable(obj):
            assert obj.__module__ == name, f"{name}.{attr} comes from {obj.__module__}"


def test_every_file_parses_with_the_oldest_supported_grammar():
    paths = python_files("src", "scripts", "tests", "perfbench")
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST_PYTHON)


def test_every_dataclass_field_has_a_reader():
    """A field that nothing in src/ or scripts/ reads as an attribute, in a
    class not written out whole, only echoes what its caller already has."""
    read = {
        node.attr
        for path in python_files("src", "scripts")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for name in MODULES:
        for obj in vars(importlib.import_module(name)).values():
            if not (isinstance(obj, type) and dataclasses.is_dataclass(obj)):
                continue
            if obj.__module__ != name or obj.__name__ in SERIALISED_WHOLE:
                continue
            unread += [
                f"{name}.{obj.__name__}.{field.name}"
                for field in dataclasses.fields(obj)
                if field.name not in read
            ]
    assert unread == []

"""Each module's ``__all__`` names only what the module itself defines, so
a re-export (an exception from ``errors`` listed again in ``numerics``, say)
cannot come back unnoticed."""

import importlib
import pkgutil

import pytest

import immunoepi

# __main__ runs the command line on import
MODULES = [
    info.name
    for info in pkgutil.iter_modules(immunoepi.__path__, "immunoepi.")
    if info.name != "immunoepi.__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_are_defined_in_their_module(name):
    module = importlib.import_module(name)
    for attr in module.__all__:
        obj = getattr(module, attr)
        if callable(obj):
            assert obj.__module__ == name, f"{name}.{attr} comes from {obj.__module__}"

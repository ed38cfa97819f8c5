"""The package namespace republishes exactly the names its modules declare public.

Each library module's ``__all__`` is the one list of its public names; the
package's ``from .<module> import *`` lines republish them all.
"""

import importlib
import pkgutil
import types

import pytest

import quantum_replicator

MODULES = ("games", "dynamics", "stability", "ess", "scenarios")
PUBLIC = {name: importlib.import_module(f"quantum_replicator.{name}").__all__
          for name in MODULES}


def test_package_imports_found():
    # Every module of the package is republished, except the CLI front end.
    found = {info.name for info in pkgutil.iter_modules(quantum_replicator.__path__)}
    assert found == {*MODULES, "cli"}


@pytest.mark.parametrize("name", MODULES)
def test_every_package_import_is_in_module_all(name):
    module = importlib.import_module(f"quantum_replicator.{name}")
    missing = [public for public in module.__all__
               if getattr(quantum_replicator, public, None) is not getattr(module, public)]
    assert missing == []


def test_no_name_is_public_in_two_modules():
    # A wildcard import would let the later module's name shadow the earlier one.
    names = [public for name in MODULES for public in PUBLIC[name]]
    assert sorted({public for public in names if names.count(public) > 1}) == []


def test_no_other_public_name_at_the_top():
    union = {public for name in MODULES for public in PUBLIC[name]}
    top = {public for public, value in vars(quantum_replicator).items()
           if not public.startswith("_") and not isinstance(value, types.ModuleType)}
    assert top == union

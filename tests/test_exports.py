import importlib
import inspect
import pkgutil

import pytest

import gridimpact

MODULES = sorted(name for _, name, _ in
                 pkgutil.walk_packages(gridimpact.__path__, "gridimpact."))
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", EXPORTING)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(name)
    unresolved = [exported for exported in module.__all__ if not hasattr(module, exported)]
    assert unresolved == []
    defined = {attr for attr, obj in vars(module).items()
               if not attr.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == name}
    assert sorted(defined - set(module.__all__)) == []

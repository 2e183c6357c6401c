"""Every public module's __all__ names live objects, and `import *` works.

A name deleted from a module but left in its __all__ (or in the package's
re-exports) only fails on `from ... import *`, which no other test runs.
"""

import importlib
import pkgutil

import pytest

import schwarzstatic

MODULES = ["schwarzstatic"] + sorted(
    f"schwarzstatic.{info.name}"
    for info in pkgutil.iter_modules(schwarzstatic.__path__)
    if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_reexports_are_module_exports():
    # each re-export is public in the module that defines it
    for attr in schwarzstatic.__all__:
        if attr == "__version__":
            continue
        obj = getattr(schwarzstatic, attr)
        home = importlib.import_module(obj.__module__)
        assert attr in home.__all__, f"{attr} is not in {obj.__module__}.__all__"

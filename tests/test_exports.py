import importlib
import pkgutil

import pytest

import subharnack

# the package and every submodule but __main__, which runs the CLI on import
MODULES = ["subharnack"] + [
    f"subharnack.{info.name}"
    for info in pkgutil.iter_modules(subharnack.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale entry in __all__ breaks `from subharnack.<m> import *`
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []

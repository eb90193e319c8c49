import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_no_module_imports_scipy():
    # scipy is a test dependency only; the package runs on numpy alone
    found = []
    for path in sorted(Path(subharnack.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []

import ast
import importlib
import pkgutil
from pathlib import Path

import qconsensus


def test_module_exports_resolve():
    modules = {
        info.name: importlib.import_module(f"qconsensus.{info.name}")
        for info in pkgutil.iter_modules(qconsensus.__path__)
    }
    for name, module in modules.items():
        for exported in getattr(module, "__all__", ()):
            assert hasattr(module, exported), f"qconsensus.{name}.__all__ names missing {exported!r}"
    tree = ast.parse(Path(qconsensus.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        exported = modules[node.module].__all__
        for alias in node.names:
            assert alias.name in exported, f"qconsensus imports {alias.name!r}, not in {node.module}.__all__"

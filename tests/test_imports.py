"""The library imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

import scomult

SRC = Path(scomult.__file__).parent


def absolute_imports():
    """(file, line, top-level module) for every absolute import in scomult."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            out.extend((path.name, node.lineno, name.split(".")[0]) for name in names)
    return out


def test_runtime_dependencies_are_stdlib_only():
    imports = absolute_imports()
    assert imports
    foreign = [entry for entry in imports
               if entry[2] != "scomult" and entry[2] not in sys.stdlib_module_names]
    assert foreign == []

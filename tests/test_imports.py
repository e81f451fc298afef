"""The library imports nothing outside the standard library and itself,
and its modules import one another without a cycle."""

import ast
import importlib
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


def test_traced_methods_are_defined_on_their_own_class():
    """perfbench's tracer wraps each METHODS entry in its class's own __dict__."""
    tracer = SRC.parent.parent / "perfbench" / "tracer.py"
    methods = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "METHODS" for target in node.targets)
    )
    assert methods
    for layer, class_name, method in methods:
        cls = getattr(importlib.import_module(f"scomult.{layer}"), class_name)
        assert method in vars(cls), (layer, class_name, method)


def package_import_graph():
    """Module name -> the scomult modules it imports, `__init__` excluded."""
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        targets = graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.ImportFrom) and node.module:   # from .x
                names = ["scomult." + node.module]
            elif isinstance(node, ast.ImportFrom):                   # from . import x
                names = ["scomult." + alias.name for alias in node.names]
            else:
                continue
            targets.update(name.split(".")[1] for name in names
                           if name.startswith("scomult."))
    return graph


def test_package_import_graph_has_no_cycle():
    graph = package_import_graph()
    assert {"modules", "morphisms", "rings"} <= graph["s_theory"]
    state = {}                      # module -> "open" while on the path, then "done"

    def visit(name, path):
        state[name] = "open"
        for target in sorted(graph[name]):
            if state.get(target) == "open":
                raise AssertionError(
                    "import cycle: " + " -> ".join(path + [name, target]))
            if target not in state:
                visit(target, path + [name])
        state[name] = "done"

    for name in sorted(graph):
        if name not in state:
            visit(name, [])

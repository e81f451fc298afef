"""The library imports nothing outside the standard library and itself,
its modules import one another without a cycle, its module-level caches
are the pinned ones, and importing it defines one dataclass, the toolbox
that perfbench's tracer rebinds."""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
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


def _called_name(node):
    """The bare name of a Name or Attribute node, such as `functools.cache`."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _is_cache_decorator(node):
    """`lru_cache`, `lru_cache(...)`, `cache` or their `functools.` forms."""
    return _called_name(node.func if isinstance(node, ast.Call) else node) in (
        "lru_cache", "cache")


def _is_empty_container(node):
    """`{}`, `[]`, `dict()`, `set()`, `defaultdict(...)` and the like."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return isinstance(node, ast.Call) and _called_name(node.func) in (
        "dict", "set", "list", "defaultdict", "OrderedDict",
        "WeakValueDictionary", "WeakKeyDictionary") and not node.args


def module_level_caches():
    """`module.function` for every cached function and `module.NAME` for every
    module-level name bound to an empty container, across scomult."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(map(_is_cache_decorator, node.decorator_list))):
                found.add(f"{path.stem}.{node.name}")
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if _is_empty_container(node.value):
                found.update(f"{path.stem}.{target.id}" for target in targets
                             if isinstance(target, ast.Name))
    return found


# Every cache that outlives a call: the 20 lru_cache sites, the module
# table and the pool of shared values.  All are unbounded; the pool holds
# one entry per distinct value.  A change that adds, removes or bounds a
# cache edits this set and says why.
MODULE_LEVEL_CACHES = {
    "localization.localize_module",
    "localization.localize_ring_with",
    "modules._MODULE_CACHE",
    "modules.annihilator_set",
    "modules.colon_set_into_ring",
    "modules.enumerate_submodules",
    "modules.quotient_module",
    "modules.self_module",
    "modules.submodule_as_module",
    "modules.zero_colon_set",
    "modules.zero_divisors_on",
    "morphisms.homothety_family",
    "morphisms.homothety_on_family",
    "rings._POOL",
    "rings.enumerate_ideals",
    "rings.jacobson_radical",
    "rings.maximal_ideals",
    "rings.minimal_nonzero_ideals",
    "rings.prime_ideals",
    "rings.units",
    "s_theory.is_comultiplication",
    "s_theory.is_s_comultiplication",
}

# Filled once at import by the `revalidator` decorator; not caches.
IMPORT_TIME_REGISTRIES = {"witnesses.REVALIDATORS", "witnesses.PARAMETERS",
                          "witnesses._MCS_AT"}


def test_module_level_caches_are_pinned():
    assert len(MODULE_LEVEL_CACHES) == 22
    assert module_level_caches() == MODULE_LEVEL_CACHES | IMPORT_TIME_REGISTRIES


def run_fresh(code):
    """Run `code` in a new interpreter with scomult and perfbench on the path;
    its stdout."""
    paths = [str(SRC.parent), str(SRC.parent.parent / "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_toolbox_is_the_only_dataclass():
    """Every other record is a NamedTuple or a hand-written class, so the
    import makes no dataclass but the one the tracer needs."""
    out = run_fresh("""
        import sys
        import scomult, scomult.mutations, scomult.cli
        for name, module in sorted(sys.modules.items()):
            if name == "scomult" or name.startswith("scomult."):
                for attr, obj in vars(module).items():
                    if (isinstance(obj, type) and obj.__module__ == name
                            and hasattr(obj, "__dataclass_fields__")):
                        print(f"{name}.{attr}")
    """)
    assert out.split() == ["scomult.statements.Toolbox"]


def test_the_tracer_rebinds_every_mutant_toolbox():
    """`Tracer.rebind` swaps each mutant's field for its wrapper, through
    `dataclasses.fields` and `dataclasses.replace`; the toolbox it returns
    still runs, and kills, a statement that reads that field."""
    out = run_fresh("""
        import scomult, scomult.mutations
        from tracer import Tracer
        from scomult.mutations import MUTANTS, mutant_toolbox, mutation_catalog_params
        from scomult.statements import Toolbox, verify

        tracer = Tracer()
        tracer.install()
        catalog = scomult.generate_catalog(mutation_catalog_params())
        reader = {"is_s_prime_submodule": "P-SPR", "is_s_second": "T-SEC",
                  "localization_torsion": "P-LOC", "lemma_pair_form": "L-EQ",
                  "uniform_multiple": "T-M3"}
        for name in sorted(MUTANTS):
            field, mutant = MUTANTS[name]
            toolbox = tracer.rebind(mutant_toolbox(name))
            assert type(toolbox) is Toolbox and toolbox.mutated == (name,)
            assert getattr(toolbox, field).__wrapped__ is mutant
            report = verify(reader[field], catalog, toolbox)
            calls = tracer.metrics()[f"mutations.{mutant.__name__}_calls"]
            print(name, report.verdict, calls > 0)
    """)
    assert out.splitlines() == [f"{name} fail True" for name in (
        "lemma_pair_direction_flip", "localization_drop_ufactor",
        "s_prime_quantifier_swap", "s_second_drop_disjointness",
        "tm3_drop_uniform_clause")]


def test_the_pool_shares_plain_values_only():
    """After `verify_all` on the reduced catalog, the pool of shared values
    holds only frozensets of ints and tuples built from ints, never a ring,
    module, submodule or hom, so no catalog's objects reach another through
    it; and equal stored sets and localization rows are one object."""
    out = run_fresh("""
        import scomult
        from scomult import localization, modules, rings
        from scomult.mutations import mutation_catalog_params
        from scomult.statements import verify_all

        catalog = scomult.generate_catalog(mutation_catalog_params())
        verify_all(catalog)

        def plain(value):
            if type(value) is frozenset:
                return all(type(x) is int for x in value)
            if type(value) is tuple:
                return all(type(x) is int or plain(x) for x in value)
            return False

        assert all(plain(v) and v is rings._POOL[v] for v in rings._POOL)
        found, stored = {}, []
        for ring in catalog.rings:
            ideals = rings.enumerate_ideals(ring)
            stored.extend(i.elements for i in ideals)
            for module in catalog.modules[ring]:
                subs = [n.elements for n in modules.enumerate_submodules(module)]
                stored.extend(subs + [module.carrier])
                stored.extend(modules.colon_set_into_ring(module, n, k)
                              for n in subs for k in subs)
                stored.extend(modules.zero_colon_set(module, i.elements)
                              for i in ideals)
                for n in subs:
                    stored.extend(modules._scalar_multiples(module, n))
                for mcs in catalog.mcs[ring]:
                    loc = localization.localize_module(module, mcs)
                    for part in (loc, loc.locring):
                        stored.append(part.coset)
                        stored.extend(part.solve.values())
                    for table in (loc.module, loc.locring.ring):
                        stored.extend(table._add_rows + table._act_rows)
                        stored.append(table._neg)
        assert all(found.setdefault(v, v) is v for v in stored)
        print(len(stored), len(found), len(rings._POOL))
    """)
    stored, distinct, pooled = map(int, out.split())
    assert stored > 4 * distinct and pooled >= distinct

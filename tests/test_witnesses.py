"""The witness registry: every claim made has a revalidator and vice versa,
every witness binds its m.c.s. and s, and no witness passes with s outside S
or with a failing revalidator.  Revalidators read no search result, and the
ones that read action rows agree with their element-by-element references."""

import ast
import inspect
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from conftest import (
    REFERENCE_REVALIDATORS,
    reference_is_prime_submodule_set,
    reference_s_epic_with,
    reference_s_monic_with,
    reference_s_zero_with,
)

import scomult  # noqa: F401  registers the library's claims
import scomult.localization  # noqa: F401
from scomult.catalog import generate_catalog
from scomult.errors import AxiomViolation
from scomult.modules import Module, enumerate_submodules, self_module
from scomult.morphisms import (
    ModuleHom,
    homothety_family,
    homothety_on_family,
    is_s_epic_with,
    is_s_monic_with,
    is_s_zero,
    is_s_zero_with,
)
from scomult.mutations import MUTANTS, mutant_toolbox, mutation_catalog_params
from scomult.rings import MCS, Submodule, make_ring_zn, unit_mcs, validate_mcs
from scomult.s_theory import is_prime_submodule_set, is_s_finite, is_s_multiplication
from scomult.statements import STATEMENTS, verify, verify_all
from scomult.witnesses import PARAMETERS, REVALIDATORS, Witness

SRC = Path(scomult.__file__).parent


def witness_makes():
    """(file, line, claim, arguments) for every `Witness.make` call with a
    literal claim, and for every call that passes a literal claim to a
    helper whose `Witness.make` takes the claim from its first parameter;
    the arguments are the source text of the bound values, in order (a
    helper's own, for the calls of a helper)."""
    out, helpers, trees = [], {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        trees.append((path, tree))
        enclosing = {child: node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)
                     for child in ast.walk(node)}       # innermost last
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "make"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "Witness"):
                claim, *values = node.args
                assert not node.keywords and not any(
                    isinstance(v, ast.Starred) for v in values), (
                    f"{path.name}:{node.lineno} binds by name or unpacks")
                names = [ast.unparse(v) for v in values]
                if isinstance(claim, ast.Constant):
                    out.append((path.name, node.lineno, claim.value, names))
                    continue
                func = enclosing.get(node)
                assert (func is not None and isinstance(claim, ast.Name)
                        and claim.id == func.args.args[0].arg), (
                    f"{path.name}:{node.lineno} makes a non-literal claim")
                helpers[func.name] = names
    for path, tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in helpers):
                claim = node.args[0]
                assert isinstance(claim, ast.Constant), (
                    f"{path.name}:{node.lineno} passes a non-literal claim")
                out.append((path.name, node.lineno, claim.value,
                            helpers[node.func.id]))
    return out


def made_claims():
    """(file, claim) for every literal claim passed to `Witness.make`."""
    return [(name, claim) for name, _, claim, _ in witness_makes()]


def test_every_made_claim_has_a_revalidator():
    claims = made_claims()
    assert claims
    missing = [(name, claim) for name, claim in claims if claim not in REVALIDATORS]
    assert missing == []


def test_every_revalidator_claim_is_made():
    made = {claim for _, claim in made_claims()}
    assert sorted(set(REVALIDATORS) - made) == []


def test_every_witness_binds_its_claims_revalidator_parameters():
    """Each `Witness.make` passes one value per parameter of its claim's
    revalidator, in order, positionally, and the m.c.s. it searched, named
    `mcs`, where the revalidator takes `mcs`, just before `s`.  The
    registry's names are the revalidator's parameters."""
    wrong = []
    for name, line, claim, values in witness_makes():
        params = tuple(inspect.signature(REVALIDATORS[claim]).parameters)
        at = params.index("mcs")
        if (params != PARAMETERS[claim] or len(values) != len(params)
                or values[at] != "mcs" or params[at + 1] != "s"):
            wrong.append((name, line, claim, values, params))
    assert wrong == []


# The kind of value each bound name holds.
KINDS = {"module": Module, "hom": ModuleHom, "mcs": MCS, "ideal": Submodule,
         "s": int, "element": int, "generators": tuple, "p": frozenset,
         "n": frozenset, "k": frozenset, "l": frozenset}


def test_every_revalidated_witness_binds_each_name_a_value_of_its_kind(
        revalidated):
    """Every witness the suite revalidates on the reduced catalog binds each
    name a value of its kind: s an element of the m.c.s.'s ring, and an
    element, generators and element sets of the bound module; so no make
    site passes its values in another order."""
    _, found = revalidated
    seen = Counter()
    for claim, witnesses in found.items():
        for witness in witnesses:
            named = dict(witness.bindings)
            for key, value in named.items():
                assert isinstance(value, KINDS[key]), witness.describe()
                seen[key] += 1
            assert named["s"] in range(named["mcs"].ring.size)
            module = named.get("module")
            for key in ("p", "n", "k", "l", "generators", "element"):
                if key in named:
                    inside = (named[key] if key != "element" else (named[key],))
                    assert set(inside) <= module.carrier, witness.describe()
            if "ideal" in named:
                assert named["ideal"].module == module.ring
    assert seen.keys() == KINDS.keys(), seen


@pytest.fixture(scope="module")
def revalidated():
    """The reduced catalog and, by claim, every witness that the statement
    suite revalidates on it, in order; for S-zero, which no statement makes,
    the S-zero witness of every (hom, m.c.s.) pair of the catalog that has
    one."""
    catalog = generate_catalog(mutation_catalog_params())
    found = defaultdict(list)
    real_validate = Witness.validate

    def recording_validate(self):
        found[self.claim].append(self)
        return real_validate(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Witness, "validate", recording_validate)
        verify_all(catalog)
    s_zero = (is_s_zero(f, mcs) for ring in catalog.rings
              for f in catalog.homs[ring] for mcs in catalog.mcs[ring])
    found["s-zero"] = [w for w in s_zero if w is not None]
    return catalog, found


@pytest.fixture(scope="module")
def real_witnesses(revalidated):
    """One witness per claim from the reduced catalog: the first that the
    statement suite revalidates (the first S-zero witness of its homs for
    S-zero), then S-multiplication, which no statement makes."""
    catalog, revalidated_by_claim = revalidated
    found = {claim: witnesses[0] for claim, witnesses in revalidated_by_claim.items()}
    found["s-multiplication"] = next(
        w for module, mcs in catalog.module_mcs_pairs()
        for _, w in is_s_multiplication(module, mcs).witnesses)
    return found


@pytest.mark.parametrize("claim", sorted(REVALIDATORS))
def test_a_witness_with_s_outside_s_fails_validation(real_witnesses, claim):
    witness = real_witnesses[claim]
    assert witness is not None and witness.validate()
    zero = witness.get("mcs").ring.zero
    assert zero not in witness.get("mcs")
    moved = Witness(witness.claim, tuple(
        (key, zero if key == "s" else value) for key, value in witness.bindings))
    assert not moved.validate(), moved.describe()


@pytest.mark.parametrize("claim", sorted(REVALIDATORS))
def test_validate_calls_the_revalidator(real_witnesses, claim, monkeypatch):
    """With s in S, the verdict is the revalidator's: a real witness whose
    revalidator says False fails, and the revalidator gets its bindings."""
    witness = real_witnesses[claim]
    assert witness.get("s") in witness.get("mcs")
    calls = []

    def refuse(*args):
        calls.append(args)
        return False

    monkeypatch.setitem(REVALIDATORS, claim, refuse)
    assert not witness.validate()
    assert calls == [tuple(value for _, value in witness.bindings)]


@pytest.mark.parametrize("claim", sorted(REFERENCE_REVALIDATORS))
def test_row_revalidators_equal_their_reference(revalidated, claim):
    """On every witness of the claim that the suite revalidates, and with its
    (mcs, s) replaced by each m.c.s. of the ring in the catalog and each
    element of the ring, the revalidator gives the reference's verdict.
    Witnesses that differ only in (mcs, s) are one subject, tried with every
    m.c.s. that any of them would be tried with."""
    catalog, found = revalidated
    fast, reference = REVALIDATORS[claim], REFERENCE_REVALIDATORS[claim]
    verdicts = Counter()
    assert found[claim]
    subjects = defaultdict(dict)        # other bindings -> m.c.s.s, in order
    for witness in found[claim]:
        named = dict(witness.bindings)
        mcs, _ = named.pop("mcs"), named.pop("s")
        subjects[tuple(named.items())].update(
            dict.fromkeys(catalog.mcs.get(mcs.ring, (mcs,))))
    for bindings, mcs_list in subjects.items():
        named = dict(bindings)
        for mcs in mcs_list:
            for s in mcs.ring.elements():
                named.update(mcs=mcs, s=s)
                expected = reference(**named)
                assert fast(**named) == expected, Witness(claim, (
                    (key, named[key]) for key in PARAMETERS[claim])).describe()
                verdicts[expected] += 1
    assert verdicts[True] and verdicts[False], verdicts


HOM_HELPERS = {
    "s-zero": (is_s_zero_with, reference_s_zero_with),
    "s-monic": (is_s_monic_with, reference_s_monic_with),
    "s-epic": (is_s_epic_with, reference_s_epic_with),
}


def test_row_helpers_equal_their_reference(revalidated):
    """`is_prime_submodule_set` on every submodule of every module of the
    reduced catalog; the three `*_with` checks on every hom of the catalog
    and every member of both homothety families of each of its submodules,
    with every element of the ring, each asked twice of the same hom
    object, so at least once with its kernel and image already filled."""
    catalog, _ = revalidated
    verdicts = Counter()
    for module in catalog.nonzero_modules():
        for p in enumerate_submodules(module):
            expected = reference_is_prime_submodule_set(module, p.elements)
            assert is_prime_submodule_set(module, p.elements) == expected, p.describe()
            verdicts["prime", expected] += 1
    for ring in catalog.rings:
        homs = list(catalog.homs[ring])
        for module in catalog.modules[ring]:
            for n in enumerate_submodules(module):
                homs.extend(homothety_family(module, n.elements))
                homs.extend(homothety_on_family(module, n.elements))
        for f in homs:
            for s in ring.elements():
                for name, (fast, reference) in HOM_HELPERS.items():
                    expected = reference(f, s)
                    assert fast(f, s) == fast(f, s) == expected, (
                        name, f.describe(), f.values, s)
                    verdicts[name, expected] += 1
    assert len(verdicts) == 8, verdicts


# What a search computes, or a hom caches; a revalidator must recompute it.
SEARCH_RESULTS = frozenset((
    "first_multiplier", "_scalar_multiples", "s_zero_scalars",
    "s_monic_scalars", "s_epic_scalars", "_bridge_core", "_signature",
    "_s_second_search", "_lemma_pair_search"))


def _names(node):
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_revalidators_name_no_search_result():
    """No `@revalidator` function, nor a private helper of its own module
    that it reaches, names a search or a hom's scalar sets."""
    wrong, seen = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        helpers = {node.name: node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Call) and getattr(d.func, "id", None) == "revalidator"
                    for d in node.decorator_list)):
                continue
            seen += 1
            reached, todo = {node.name}, [node]
            while todo:
                names = _names(todo.pop())
                for name in sorted(names & SEARCH_RESULTS):
                    wrong.append((path.name, node.name, name))
                for name in (names & helpers.keys()) - reached:
                    reached.add(name)
                    todo.append(helpers[name])
    assert seen == len(REVALIDATORS)
    assert wrong == []


# The search side of the hom claims, and what only revalidation may read.
HOM_SEARCHES = frozenset((
    "_bridge_core", "_signature", "_s_monic_cross_checked", "_transfer_core",
    "s_zero_scalars", "s_monic_scalars", "s_epic_scalars"))
REVALIDATION_CACHES = frozenset((
    "_revalidation_kernel", "_revalidation_image", "_kernel", "_image"))


def _library_functions():
    """Every function and method of the library, by bare name."""
    functions = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                functions[node.name].append(node)
    return functions


def _reached(functions, start):
    """The names that `start` reaches, following every name that some
    function or method of the library bears, in any module."""
    names, todo = set(), [node for name in start for node in functions[name]]
    while todo:
        new = _names(todo.pop()) - names
        names |= new
        todo.extend(node for name in new for node in functions.get(name, ()))
    return names


def test_hom_searches_reach_no_revalidation_cache():
    """No search side of a hom claim reaches, by any chain of names across
    the library's modules, the kernel tuple and image set that the `*_with`
    checks keep on a hom; the hom revalidators do reach them."""
    functions = _library_functions()
    assert HOM_SEARCHES <= functions.keys()
    assert sorted(_reached(functions, HOM_SEARCHES) & REVALIDATION_CACHES) == []
    for claim, cache in (("s-zero", "_revalidation_image"),
                         ("s-monic", "_revalidation_kernel"),
                         ("s-epic", "_revalidation_image")):
        assert cache in _reached(functions, {REVALIDATORS[claim].__name__})


# Revalidator calls per claim in one mutation pass over the reduced catalog.
MUTATION_PASS_REVALIDATIONS = {
    "lemma-pair": 4512, "maximal-multiple": 299, "s-comultiplication": 900,
    "s-comultiplication-def": 900, "s-cyclic": 625, "s-epic": 15445,
    "s-finite": 30, "s-minimal-step": 395, "s-monic": 30890,
    "s-prime-colon": 909, "s-prime-homothety": 909, "s-prime-submodule": 1084,
    "s-second": 1366, "s-second-containment": 910, "s-second-homothety": 910,
    "s-torsion-free": 195, "uniform-multiple": 362,
}


def test_a_mutation_pass_revalidates_every_witness(monkeypatch):
    """One pass over a fresh reduced catalog as the benchmark runs it: each
    mutant in name order, its toolbox in place of the default one, every
    statement in id order.  Each claim's revalidator is called as often as
    pinned, 60,641 calls in all, so a cheaper check never skips one."""
    calls = Counter()

    def counting(claim, check):
        def counted(*args):
            calls[claim] += 1
            return check(*args)
        return counted

    for claim, check in list(REVALIDATORS.items()):
        monkeypatch.setitem(REVALIDATORS, claim, counting(claim, check))
    catalog = generate_catalog(mutation_catalog_params())
    for name in sorted(MUTANTS):
        toolbox = mutant_toolbox(name)
        for statement_id in sorted(STATEMENTS):
            verify(statement_id, catalog, toolbox)
    assert calls == MUTATION_PASS_REVALIDATIONS
    assert sum(calls.values()) == 60641


def test_witness_is_an_immutable_record(real_witnesses):
    witness = real_witnesses["s-prime-submodule"]
    for name in ("claim", "bindings", "other"):
        with pytest.raises(AttributeError):
            setattr(witness, name, None)
    with pytest.raises(AttributeError):
        del witness.claim
    assert witness.claim == "s-prime-submodule"


def test_witness_round_trips_its_bindings_in_order(real_witnesses):
    for claim, witness in real_witnesses.items():
        bindings = witness.bindings
        copy = Witness(claim, bindings)
        assert copy.bindings == bindings
        assert copy == witness and hash(copy) == hash(witness)
        assert all(copy.get(key) is value for key, value in bindings)
        assert copy.describe() == witness.describe()
    made = Witness.make("uniform-multiple", 2, 1, 4, 3)
    assert made.bindings == (("module", 2), ("n", 1), ("mcs", 4), ("s", 3))
    assert made == Witness("uniform-multiple", made.bindings)
    first, second = real_witnesses["s-second"], real_witnesses["s-prime-colon"]
    assert first != second
    with pytest.raises(ValueError, match="s-second binds"):
        Witness(first.claim, reversed(first.bindings))
    assert "validate" in vars(Witness)


def test_witness_equality_is_order_sensitive_and_typed(real_witnesses):
    """Reordered bindings, or names other than the revalidator's, are
    refused rather than reordered; a witness equals one built from its own
    bindings under both == and !=, is truthy, and equals no plain tuple of
    its claim and its bindings, or its own plain copy, from either side."""
    for witness in real_witnesses.values():
        same = Witness(witness.claim, witness.bindings)
        assert same == witness and not same != witness
        with pytest.raises(ValueError):
            Witness(witness.claim, reversed(witness.bindings))
        with pytest.raises(ValueError):
            Witness(witness.claim, witness.bindings[:-1])
        assert bool(witness) is True
        for plain in ((witness.claim, witness.bindings),
                      (witness.claim, dict(witness.bindings)),
                      tuple(witness)):
            assert witness != plain and plain != witness
            assert not witness == plain and not plain == witness


@pytest.mark.parametrize("claim, subset, mcs, s", [
    ("s-prime-colon", {0, 3}, {1, 3}, 1),
    ("s-prime-homothety", {0, 3}, {1, 3}, 1),
    ("s-second-homothety", {0, 3}, {1, 2, 4}, 2),
    ("s-second-containment", {0, 3}, {1, 2, 4}, 2),
])
def test_a_derived_form_witness_fails_when_its_precondition_fails(
        z6, m6, claim, subset, mcs, s):
    """Over Z6 acting on itself, (P:M) = {0,3} meets {1,3} and ann(N) = {0,2,4}
    meets {1,2,4}; the search raises DisjointnessFailure on these instances,
    so a witness built for them by hand must not validate."""
    key = "p" if claim.startswith("s-prime") else "n"
    assert PARAMETERS[claim] == ("module", key, "mcs", "s")
    witness = Witness.make(claim, m6, frozenset(subset), validate_mcs(z6, mcs), s)
    assert not witness.validate(), witness.describe()


@pytest.mark.parametrize("claim, key", [
    ("s-prime-homothety", "p"), ("s-second-homothety", "n")])
def test_a_homothety_witness_on_a_non_submodule_raises(z6, m6, s1, claim, key):
    """{0,1} is not closed under addition in Z6, and (P:M) = ann(N) = {0}
    misses S = {1}, so the revalidator goes on to the homothety family.  The
    family is reached from the element set and built through a closure check,
    which raises on every call: a set that is not a submodule gets no cached
    family."""
    assert PARAMETERS[claim] == ("module", key, "mcs", "s")
    witness = Witness.make(claim, m6, frozenset({0, 1}), s1, 1)
    for _ in range(2):
        with pytest.raises(AxiomViolation,
                           match="submodule not closed under addition"):
            witness.validate()


def test_describe_names_set_and_tuple_bindings_by_label():
    ring = make_ring_zn([2, 3])
    module = self_module(ring)
    witness = is_s_finite(module, frozenset(module.elements()), unit_mcs(ring))
    assert witness.describe() == (
        "s-finite(module=Z2xZ3 over Z2xZ3, n={(0,0),(0,1),(0,2),(1,0),(1,1),(1,2)},"
        " mcs={(1,1)}, s=(1,1), generators=((0,1),(1,0)))")

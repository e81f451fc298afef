"""The e_S reduction against definitional searches over every s of S.

Every "is there an s in S with ..." predicate of the library tests one
element, e_S (`MCS.idempotent`).  Here e_S is checked element by element
on every m.c.s. of both catalogs, and each predicate's verdict is compared
with a search over every s of S (the conftest e_S oracles), which uses the
conftest `reference_*` checks where they exist and the claim's revalidator
otherwise: on every (module, m.c.s.) pair, on every P-SPR and T-SEC triple
where disjointness holds, and on every (hom, m.c.s.) pair.  Each witness
found names e_S.
"""

import pytest

from conftest import (
    reference_check,
    reference_for_each,
    reference_idempotent_faults,
    reference_s_epic_with,
    reference_s_monic_with,
    reference_s_torsion,
    reference_s_zero_with,
    reference_some_s,
)
from scomult import s_theory as st
from scomult.catalog import CatalogParams, generate_catalog
from scomult.errors import DisjointnessFailure, PreconditionUnmet
from scomult.localization import s_torsion
from scomult.modules import annihilator_set, enumerate_submodules, first_multiplier
from scomult.morphisms import is_s_epic, is_s_monic, is_s_zero
from scomult.mutations import mutation_catalog_params
from scomult.rings import enumerate_ideals

CATALOGS = {"default": CatalogParams(), "reduced": mutation_catalog_params()}

# per catalog: m.c.s., (module, m.c.s.) pairs with the zero modules, the
# P-SPR/T-SEC triples where disjointness holds, and (hom, m.c.s.) pairs
COUNTS = {"default": (103, 401, (1054, 1054), 19603),
          "reduced": (25, 95, (223, 223), 5784)}


@pytest.fixture(scope="module", params=sorted(CATALOGS))
def named_catalog(request):
    return request.param, generate_catalog(CATALOGS[request.param])


def names_e_s(witness, mcs):
    return witness is None or witness.get("s") == mcs.idempotent


def agrees(result, mcs, reference):
    """A `ForEachResult` gives the reference's (verdict, first failing
    item), and each of its witnesses names e_S."""
    return ((result.holds, result.failing) == reference
            and all(names_e_s(w, mcs) for _, w in result.witnesses))


def test_e_s_lies_in_s_is_idempotent_and_every_t_divides_it(named_catalog):
    name, catalog = named_catalog
    families = [catalog.mcs[ring] for ring in catalog.rings]
    assert sum(map(len, families)) == COUNTS[name][0]
    for mcs in (m for family in families for m in family):
        assert reference_idempotent_faults(mcs) == [], mcs.describe()


def test_s_torsion_is_the_set_some_u_of_s_kills(named_catalog):
    _, catalog = named_catalog
    for module, mcs in catalog.module_mcs_pairs(include_zero=True):
        for base in (module, module.ring):
            assert s_torsion(base, mcs) == reference_s_torsion(base, mcs)


def test_module_predicates_answer_like_a_search_over_s(named_catalog):
    """S-comultiplication (the annihilator, pair and definitional forms),
    S-multiplication, `first_multiplier` on every pair of submodules,
    S-minimality under both readings, the uniform multiple, S-cyclicity and
    S-torsion-freeness."""
    name, catalog = named_catalog
    pairs = list(catalog.module_mcs_pairs(include_zero=True))
    assert len(pairs) == COUNTS[name][1]
    for module, mcs in pairs:
        subs = enumerate_submodules(module)
        ideals = enumerate_ideals(module.ring)

        def search(claim, **named):
            """Whether some s of S passes the claim's check with these bindings."""
            check = reference_check(claim)
            return reference_some_s(
                mcs, lambda s: check(module=module, mcs=mcs, s=s, **named))

        assert agrees(st.is_s_comultiplication(module, mcs), mcs, reference_for_each(
            subs, lambda n: search("s-comultiplication", n=n.elements)))
        assert agrees(st.is_s_multiplication(module, mcs), mcs, reference_for_each(
            subs, lambda n: search("s-multiplication", n=n.elements)))
        anns = {n: annihilator_set(module, n.elements) for n in subs}
        assert agrees(st.lemma_pair_form(module, mcs), mcs, reference_for_each(
            [(k, n) for k in subs for n in subs if anns[k] <= anns[n]],
            lambda kn: search("lemma-pair", k=kn[0].elements, n=kn[1].elements)))
        assert agrees(st.lemma_definitional_form(module, mcs), mcs, reference_for_each(
            subs, lambda n: any(search("s-comultiplication-def", n=n.elements,
                                       ideal=ideal) for ideal in ideals)))
        for x in subs:
            for y in subs:
                found = first_multiplier(module, mcs, x.elements, y.elements)
                assert found in (None, mcs.idempotent)
                assert (found is not None) == search(
                    "lemma-pair", k=y.elements, n=x.elements), (x, y)
            found = st.uniform_multiple(module, x, mcs)
            assert names_e_s(found, mcs)
            assert (found is not None) == search("uniform-multiple", n=x.elements)
            if x.is_zero():
                continue
            for include_zero in (False, True):
                below = [l for l in subs if l.elements <= x.elements
                         and (include_zero or not l.is_zero())]
                assert agrees(st.is_s_minimal(module, x, mcs, include_zero), mcs,
                              reference_for_each(below, lambda l: search(
                                  "s-minimal-step", k=x.elements, l=l.elements)))
        found = st.is_s_cyclic(module, mcs)
        assert names_e_s(found, mcs) and (found is not None) == any(
            search("s-cyclic", element=m) for m in module.elements())
        found = st.is_s_torsion_free(module, mcs)
        assert names_e_s(found, mcs)
        assert (found is not None) == search("s-torsion-free")


def guarded(thunk):
    """(True, the thunk's result), or (False, None) when its precondition fails."""
    try:
        return True, thunk()
    except (DisjointnessFailure, PreconditionUnmet):
        return False, None


def test_s_prime_and_s_second_forms_answer_like_a_search_over_s(named_catalog):
    """On each (module, N, m.c.s.) triple where the definitional form's
    disjointness holds, every S-prime and S-second form."""
    name, catalog = named_catalog
    triples = {"prime": 0, "second": 0}
    for module in catalog.nonzero_modules():
        for mcs in catalog.mcs[module.ring]:
            for n in enumerate_submodules(module):
                for kind, direct, forms in (
                        ("prime", st.is_s_prime_submodule, (
                            (st.is_s_prime_submodule, "s-prime-submodule"),
                            (st.s_prime_colon_form, "s-prime-colon"),
                            (st.s_prime_homothety_form, "s-prime-homothety"))),
                        ("second", st.is_s_second, (
                            (st.is_s_second, "s-second"),
                            (st.s_second_homothety_form, "s-second-homothety"),
                            (st.s_second_containment_form, "s-second-containment")))):
                    held, _ = guarded(lambda: direct(module, n, mcs))
                    if not held:
                        continue
                    triples[kind] += 1
                    subject = {"p" if kind == "prime" else "n": n.elements}
                    for form, claim in forms:
                        check = reference_check(claim)
                        _, found = guarded(lambda: form(module, n, mcs))
                        assert names_e_s(found, mcs)
                        assert (found is not None) == reference_some_s(
                            mcs, lambda s: check(module=module, mcs=mcs, s=s,
                                                 **subject)), (claim, n)
    assert (triples["prime"], triples["second"]) == COUNTS[name][2]


def test_hom_predicates_answer_like_a_search_over_s(named_catalog):
    """S-zero, S-monic and S-epic on every catalog hom and m.c.s. of its ring."""
    name, catalog = named_catalog
    pairs = 0
    for ring in catalog.rings:
        for f in catalog.homs[ring]:
            for mcs in catalog.mcs[ring]:
                pairs += 1
                for test, check in ((is_s_zero, reference_s_zero_with),
                                    (is_s_monic, reference_s_monic_with),
                                    (is_s_epic, reference_s_epic_with)):
                    found = test(f, mcs)
                    assert names_e_s(found, mcs)
                    assert (found is not None) == reference_some_s(
                        mcs, lambda s: check(f, s))
    assert pairs == COUNTS[name][3]

"""The e_S reduction against definitional searches over every s of S.

Every "is there an s in S with ..." predicate of the library tests one
element, e_S (`MCS.idempotent`).  Here e_S is checked element by element
on every m.c.s. of both catalogs, and each predicate's verdict is compared
with a search over every s of S (the conftest e_S oracles), which uses the
conftest `reference_*` checks where they exist and the claim's revalidator
otherwise: on every (module, m.c.s.) pair, on every P-SPR and T-SEC triple
where disjointness holds, and on every (hom, m.c.s.) pair.  Each witness
found names e_S.  The corollaries that let a checker skip a loop over S,
and the four side conditions that S must avoid or lie in, are checked
against element-by-element sets, and a wrong e_S is shown to fail
statements through their revalidators.
"""

import pytest

from conftest import (
    reference_annihilator,
    reference_check,
    reference_colon,
    reference_divides,
    reference_for_each,
    reference_idempotent_faults,
    reference_is_comultiplication,
    reference_multiple,
    reference_s_epic_with,
    reference_s_monic_with,
    reference_s_torsion,
    reference_s_zero_with,
    reference_saturation,
    reference_some_s,
    reference_units,
    reference_zero_divisors,
)
from scomult import localization, rings
from scomult import s_theory as st
from scomult.catalog import CatalogParams, generate_catalog
from scomult.errors import DisjointnessFailure, PreconditionUnmet
from scomult.localization import s_torsion
from scomult.modules import annihilator_set, enumerate_submodules, first_multiplier
from scomult.morphisms import is_s_epic, is_s_monic, is_s_zero
from scomult.mutations import mutation_catalog_params
from scomult.rings import enumerate_ideals, saturation
from scomult.statements import verify_all

CATALOGS = {"default": CatalogParams(), "reduced": mutation_catalog_params()}

# per catalog: m.c.s., (module, m.c.s.) pairs with the zero modules, the
# P-SPR/T-SEC triples where disjointness holds, (hom, m.c.s.) pairs, pairs
# with nonzero modules, and pairs S < T of m.c.s. of one ring
COUNTS = {"default": (103, 401, (1054, 1054), 19603, 298, 160),
          "reduced": (25, 95, (223, 223), 5784, 70, 31)}


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


# ---------------------------------------------------------------------------
# corollaries of e_S that replace a loop over S


def nonzero_pairs_with_e_s_m(name, catalog):
    """Each (module, m.c.s.) pair with a nonzero module, and e_S M."""
    pairs = list(catalog.module_mcs_pairs())
    assert len(pairs) == COUNTS[name][4]
    for module, mcs in pairs:
        yield module, mcs, reference_multiple(module, mcs.idempotent,
                                              module.elements())


def test_s_comultiplication_is_comultiplication_of_e_s_m(named_catalog):
    """M is S-comultiplication iff e_S M is comultiplication."""
    name, catalog = named_catalog
    for module, mcs, e_image in nonzero_pairs_with_e_s_m(name, catalog):
        assert (st.is_s_comultiplication(module, mcs).holds
                == reference_is_comultiplication(module, e_image)), (module, mcs)


def test_every_s_m_is_faithful_iff_e_s_m_is(named_catalog):
    """ann(sM) = 0 for every s in S iff ann(e_S M) = 0 (T-CY2's hypothesis)."""
    name, catalog = named_catalog
    for module, mcs, e_image in nonzero_pairs_with_e_s_m(name, catalog):
        zero = frozenset((module.ring.zero,))
        every_s = all(
            reference_annihilator(module, reference_multiple(
                module, s, module.elements())) == zero
            for s in mcs)
        assert every_s == (reference_annihilator(module, e_image) == zero)


def test_saturation_is_the_definitional_set_with_the_same_e_s(named_catalog):
    name, catalog = named_catalog
    family = [mcs for ring in catalog.rings for mcs in catalog.mcs[ring]]
    assert len(family) == COUNTS[name][0]
    for mcs in family:
        star = saturation(mcs)
        assert star.elements == reference_saturation(mcs), mcs
        assert star.idempotent == mcs.idempotent, mcs


def test_a_larger_m_c_s_has_an_e_s_that_the_smaller_one_divides(named_catalog):
    """S < T gives e_S | e_T (P-MONO's step from S to T)."""
    name, catalog = named_catalog
    pairs = [(s, t) for ring in catalog.rings for s in catalog.mcs[ring]
             for t in catalog.mcs[ring] if s.elements < t.elements]
    assert len(pairs) == COUNTS[name][5]
    for s, t in pairs:
        assert reference_divides(s.ring, s.idempotent, t.idempotent), (s, t)


def side_conditions(catalog):
    """(the m.c.s. of its ring, {kind: sets of that kind}) per catalog
    module, zero modules included: (P :_R M) for every submodule P, ann(N)
    for every submodule N and z(M), each built element by element."""
    for ring in catalog.rings:
        for module in catalog.modules[ring]:
            subs = [n.elements for n in enumerate_submodules(module)]
            yield catalog.mcs[ring], {
                "colon": [reference_colon(module, p) for p in subs],
                "annihilator": [reference_annihilator(module, n) for n in subs],
                "zero divisors": [reference_zero_divisors(module)],
            }


# per catalog and kind of side condition: (sets met by S, sets S avoids),
# over every (module, m.c.s.) pair with the zero modules and every
# submodule; then the m.c.s. inside the units and the others
SIDE_CONDITIONS = {
    "default": {"colon": (739, 1054), "annihilator": (739, 1054),
                "zero divisors": (124, 277), "units": (46, 57)},
    "reduced": {"colon": (174, 223), "annihilator": (174, 223),
                "zero divisors": (28, 67), "units": (13, 12)},
}


def test_side_conditions_hold_for_s_iff_they_hold_for_e_s(named_catalog):
    """S meets (P :_R M), ann(N) or z(M) iff e_S lies in it, each an ideal
    or closed under multiplication by R; and S lies in the units iff
    e_S = 1, iff the idempotent e_S is a unit.  These are the disjointness
    preconditions of S-prime and S-second and the side conditions of the
    monic/epic bridge, read at e_S by the derived forms and the bridge."""
    name, catalog = named_catalog
    tally = {kind: [0, 0] for kind in SIDE_CONDITIONS[name]}
    for family, sides in side_conditions(catalog):
        for mcs in family:
            for kind, sets in sides.items():
                for side in sets:
                    meets = not side.isdisjoint(mcs.elements)
                    assert meets == (mcs.idempotent in side), (kind, mcs, side)
                    tally[kind][not meets] += 1
    for ring in catalog.rings:
        units = reference_units(ring)
        for mcs in catalog.mcs[ring]:
            inside = mcs.elements <= units
            assert inside == (mcs.idempotent == ring.one) == (
                mcs.idempotent in units), mcs
            tally["units"][not inside] += 1
    assert {kind: tuple(counts) for kind, counts in tally.items()} == (
        SIDE_CONDITIONS[name])


# Each statement that fails on the reduced catalog when every m.c.s. takes
# 1 for e_S: (instances, counterexample).  P-LOC, T-COM and T-LOC read the
# S-torsion as ann(1) = 0, on whose cosets some s of S is not a unit,
# P-SAT's saturation (the divisors of 1) misses S, and T-M3's uniform
# multiple at s = 1 fails revalidation.
WRONG_E_S_FAILURES = {
    "P-LOC": (0, {"error": "axiom violated: image of S must consist of units"
                           " at (3,)"}),
    "P-SAT": (0, {"error": "axiom violated: saturation must contain the"
                           " original set"}),
    "T-COM": (0, {"error": "axiom violated: image of S must consist of units"
                           " at (2,)"}),
    "T-LOC": (0, {"error": "axiom violated: image of S must consist of units"
                           " at (3,)"}),
    "T-M3": (16, {"module": "Z6 over Z6", "mcs": "{1,3}", "submodule": "{0,2,4}",
                  "detail": "witness failed revalidation: uniform-multiple("
                            "module=Z6 over Z6, n={0,2,4}, mcs={1,3}, s=1)"}),
}


def test_a_wrong_e_s_fails_the_statements_that_rest_on_it(monkeypatch):
    """No search tests a clause "for every t in S", which t | e_S settles;
    with 1 in place of e_S, the revalidators still catch the witness that
    breaks one.  An m.c.s. equals another with the same
    elements whatever its e_S, so the caches keyed by m.c.s. are cleared
    before and after."""
    caches = (st.is_s_comultiplication, localization.localize_module,
              localization.localize_ring_with)
    for cache in caches:
        cache.cache_clear()
    try:
        monkeypatch.setattr(rings, "_idempotent_power", lambda ring, elements: ring.one)
        reports = verify_all(generate_catalog(mutation_catalog_params()))
    finally:
        for cache in caches:
            cache.cache_clear()
    assert {r.statement_id: (r.instances, r.counterexample)
            for r in reports if r.verdict == "fail"} == WRONG_E_S_FAILURES

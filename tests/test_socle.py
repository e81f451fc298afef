"""Two facts about finite rings that explain the catalog's verdicts.

The socle criterion (README, "A socle criterion for (S-)comultiplication"):
M is S-comultiplication iff every maximal ideal m that misses S has
|(0 :_M m)| <= |R/m|, and comultiplication iff every maximal m does.  The
oracle `reference_socle_criterion` reads only the raw tables and the
maximal ideals found by brute force, never the submodule lattice, so its
agreement with `is_s_comultiplication` and `is_comultiplication` on every
pair is a check that shares no code with theirs.

Why T-CY3 cannot fail (README, "Why T-CY3 cannot fail"): when M is
S-torsion-free and e_S M is nonzero, e_S R is a field with identity e_S.
"""

import pytest
from conftest import (
    reference_maximal_ideals,
    reference_s_torsion_free,
    reference_socle_criterion,
)

from scomult import s_theory as st
from scomult.catalog import CatalogParams, generate_catalog
from scomult.mutations import mutation_catalog_params

CATALOGS = {"default": CatalogParams(), "reduced": mutation_catalog_params()}

# per catalog: modules, (module, m.c.s.) pairs with the zero modules, the
# S-torsion-free pairs among them with e_S M nonzero, and the
# S-comultiplication pairs among those
COUNTS = {"default": (67, 401, 103, 92), "reduced": (25, 95, 34, 28)}


@pytest.fixture(scope="module", params=sorted(CATALOGS))
def named_catalog(request):
    catalog = generate_catalog(CATALOGS[request.param])
    maximal = {ring: reference_maximal_ideals(ring) for ring in catalog.rings}
    return request.param, catalog, maximal


def test_the_socle_criterion_decides_s_comultiplication(named_catalog):
    name, catalog, maximal = named_catalog
    verdicts = []
    for module, mcs in catalog.module_mcs_pairs(include_zero=True):
        expected = reference_socle_criterion(module, maximal[module.ring], mcs)
        assert st.is_s_comultiplication(module, mcs).holds == expected, (
            module.describe(), mcs.describe())
        verdicts.append(expected)
    assert len(verdicts) == COUNTS[name][1]
    assert True in verdicts and False in verdicts


def test_the_socle_criterion_decides_comultiplication(named_catalog):
    name, catalog, maximal = named_catalog
    verdicts = []
    for ring in catalog.rings:
        for module in catalog.modules[ring]:
            expected = reference_socle_criterion(module, maximal[ring])
            assert st.is_comultiplication(module) == expected, module.describe()
            verdicts.append(expected)
    assert len(verdicts) == COUNTS[name][0]
    assert True in verdicts and False in verdicts


def test_brute_force_maximal_ideals_have_field_quotients():
    """R/m is a field for each maximal ideal the oracle finds: every
    element outside m has an inverse modulo m."""
    catalog = generate_catalog(mutation_catalog_params())
    for ring in catalog.rings:
        for m in reference_maximal_ideals(ring):
            for x in ring.elements():
                if x not in m:
                    assert any(ring.add(ring.mul(x, y), ring.neg(ring.one)) in m
                               for y in ring.elements()), (ring.name, m, x)


def test_s_torsion_free_with_e_s_m_nonzero_makes_e_s_r_a_field(named_catalog):
    """Every S-torsion-free pair (by the library, and by some s of S in the
    element-by-element check) with e_S M nonzero has e_S R a field whose
    identity is e_S; and when M is also S-comultiplication, e_S M is one
    orbit e_S R m, which is the S-cyclic witness T-CY3 asks for."""
    name, catalog, _ = named_catalog
    pairs = orbits = 0
    for module, mcs in catalog.module_mcs_pairs(include_zero=True):
        ring, e = module.ring, mcs.idempotent
        torsion_free = st.is_s_torsion_free(module, mcs) is not None
        assert torsion_free == any(reference_s_torsion_free(module, mcs, s)
                                   for s in mcs)
        e_m = {module.act(e, x) for x in module.elements()}
        if not torsion_free or e_m == {0}:
            continue
        pairs += 1
        e_r = {ring.mul(e, r) for r in ring.elements()}
        assert all(ring.mul(e, x) == x for x in e_r)
        assert all(any(ring.mul(x, y) == e for y in e_r)
                   for x in e_r if x != ring.zero), (module.describe(), mcs.describe())
        if st.is_s_comultiplication(module, mcs).holds:
            assert any(e_m == {module.act(r, m) for r in e_r} for m in e_m)
            orbits += 1
    assert (pairs, orbits) == COUNTS[name][2:]

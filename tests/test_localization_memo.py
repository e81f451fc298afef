"""P-LOC and T-LOC read S^-1 M's verdicts from the catalog memo.

An entry is keyed by the torsion function, the module and the sets K_R and
K_M it gives, since S^-1 M is M/K_M over R/K_R once every s permutes the
cosets (README, "A localization reads S only through its torsion sets").
Each (module, m.c.s.) pair still runs S's refusal, by the product of S's
elements, and the kernel checks.  The oracles here are the localization of
each pair on its own and the refusal scanned s by s.
"""

import pytest

from scomult import localization, statements
from scomult.catalog import CatalogParams, generate_catalog
from scomult.errors import AxiomViolation
from scomult.localization import (
    localize_module,
    localize_module_with,
    localized_colon_identity_check,
    s_torsion,
)
from scomult.modules import Module, Submodule, coset_index_map, self_module
from scomult.mutations import mutation_catalog_params
from scomult.rings import enumerate_ideals, make_ring_zn, prime_ideals, validate_mcs
from scomult.s_theory import is_comultiplication, is_s_comultiplication
from scomult.statements import verify, verify_all

CATALOGS = {"default": CatalogParams(), "reduced": mutation_catalog_params()}

# per catalog: (module, m.c.s.) pairs, memo entries after P-LOC and T-LOC,
# and the entries whose colon identities P-LOC checked
ENTRIES = {"default": (298, 112, 89), "reduced": (70, 34, 25)}


@pytest.mark.parametrize("name", sorted(CATALOGS))
def test_each_pair_reads_the_verdicts_of_its_own_localization(name):
    """After P-LOC and T-LOC, the entry of every (module, m.c.s.) pair holds
    what the pair's own `localize_module` gives: whether it is
    comultiplication, and for an S-comultiplication pair the index of the
    first ideal whose localized colon identity breaks, or -1."""
    catalog = generate_catalog(CATALOGS[name])
    assert [r.verdict for r in verify_all(catalog, ["P-LOC", "T-LOC"])] == [
        "pass", "pass"]
    pairs = list(catalog.module_mcs_pairs())
    for module, mcs in pairs:
        entry = catalog._memo[statements._localized, s_torsion, module,
                              s_torsion(module.ring, mcs), s_torsion(module, mcs)]
        assert entry[0] == is_comultiplication(localize_module(module, mcs).module)
        if is_s_comultiplication(module, mcs).holds:
            assert entry[1] == next(
                (i for i, ideal in enumerate(enumerate_ideals(module.ring))
                 if not localized_colon_identity_check(module, mcs, ideal)), -1)
    entries = [value for key, value in catalog._memo.items()
               if key[0] is statements._localized]
    assert (len(pairs), len(entries),
            sum(entry[1] is not None for entry in entries)) == ENTRIES[name]


def test_two_torsion_sets_in_one_e_s_class_get_two_entries(monkeypatch):
    """S = {1} and S = {1, 5} of Z6 share e_S = 1.  A torsion function, put
    in place of `s_torsion` so that the kernel checks accept it, that gives
    {0, 3} for {1, 5} and {0} for {1} gives them two entries, each holding
    the verdict of its own localization."""
    z6 = make_ring_zn([6])
    m6 = self_module(z6)
    s1, s15 = validate_mcs(z6, {1}), validate_mcs(z6, {1, 5})
    assert s1.idempotent == s15.idempotent

    def torsion(base, mcs):
        return frozenset((0, 3)) if mcs == s15 else frozenset((0,))

    caches = (localization.localize_module, localization.localize_ring_with)
    for cache in caches:
        cache.cache_clear()
    catalog = generate_catalog(mutation_catalog_params())
    monkeypatch.setattr(localization, "s_torsion", torsion)
    try:
        for mcs in (s1, s15, s1, s15):
            entry = statements._localized(catalog, m6, mcs, torsion)
            built = localize_module_with(m6, mcs, torsion).module
            assert entry[0] == is_comultiplication(built)
            assert built.size == (6 if mcs == s1 else 3)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert len(catalog._memo) == 2
    assert {key[3:] for key in catalog._memo} == {
        (frozenset({0}), frozenset({0})), (frozenset({0, 3}), frozenset({0, 3}))}


def scanned_refusal(base, mcs, torsion_set):
    """The first s in S whose map y + K -> sy + K misses a coset, or None."""
    index = coset_index_map(base, Submodule(base, torsion_set))
    cosets = set(index.values())
    for s in mcs:
        if {index[sy] for sy in base.act_row(s)} != cosets:
            return s
    return None


def product_refusal(base, mcs, torsion_set):
    try:
        localization._refuse_non_units(base, mcs, torsion_set)
    except AxiomViolation as err:
        assert err.axiom == "image of S must consist of units"
        return err.witness[0]
    return None


# per catalog: (base, m.c.s.) pairs tried with each torsion set, and the
# refusals with K = {0}; `s_torsion`'s set is never refused
REFUSALS = {"default": (504, 181), "reduced": (120, 40)}


@pytest.mark.parametrize("name", sorted(CATALOGS))
def test_the_product_refuses_exactly_when_some_s_does(name):
    """With K = {0}, and with `s_torsion`'s set, on every catalog ring and
    module and each of the ring's m.c.s., the product test refuses exactly
    when the scan over S does, and names the same s."""
    catalog = generate_catalog(CATALOGS[name])
    tried = refused = 0
    for ring in catalog.rings:
        for base in (ring, *catalog.modules[ring]):
            for mcs in catalog.mcs[ring]:
                zero = frozenset((base.zero,))
                s = product_refusal(base, mcs, zero)
                assert s == scanned_refusal(base, mcs, zero), (base, mcs)
                torsion_set = s_torsion(base, mcs)
                assert product_refusal(base, mcs, torsion_set) is None
                assert scanned_refusal(base, mcs, torsion_set) is None
                tried += 1
                refused += s is not None
    assert (tried, refused) == REFUSALS[name]


@pytest.mark.parametrize("name", sorted(CATALOGS))
def test_locally_nonzero_reads_the_torsion_set(name):
    """S^-1 M != 0 iff K_M != M, since x/1 = 0 iff ux = 0 for some u in S:
    `locally_nonzero` agrees with the size of the built S^-1 M on every
    catalog module, the zero modules included, at each of its ring's
    m.c.s. and at the complement of each prime ideal."""
    catalog = generate_catalog(CATALOGS[name])
    tally = {True: 0, False: 0}
    for ring in catalog.rings:
        sets = [*catalog.mcs[ring],
                *(localization.complement_mcs(ring, p) for p in prime_ideals(ring))]
        for module in catalog.modules[ring]:
            for mcs in sets:
                expected = localize_module(module, mcs).module.size > 1
                assert localization.locally_nonzero(module, mcs) == expected
                tally[expected] += 1
    assert tally[True] and tally[False]


def test_t_com_builds_no_localization(monkeypatch):
    """T-COM runs S's checks on K_R and K_M once per (module, m.c.s.) it
    asks about, and builds no S^-1 R or S^-1 M."""
    catalog = generate_catalog(mutation_catalog_params())
    built, checked = [], []
    real_build, real_check = localization._pair_classes, localization.check_s_on_torsion_sets

    def building(*args):
        built.append(args[0])
        return real_build(*args)

    def checking(*args):
        checked.append(args[:2])
        return real_check(*args)

    monkeypatch.setattr(localization, "_pair_classes", building)
    monkeypatch.setattr(localization, "check_s_on_torsion_sets", checking)
    assert verify("T-COM", catalog).verdict == "pass"
    assert built == [] and checked and len(set(checked)) == len(checked)


def test_an_injected_torsion_runs_once_per_pair(monkeypatch):
    """With an injected torsion function, T-LOC asks it for K_R and K_M
    once per (module, m.c.s.) pair, and a memo miss hands K_M to the build
    instead of asking again."""
    asked, built = [], []

    def torsion(base, mcs):
        asked.append(base)
        return s_torsion(base, mcs)

    real_build = localization._pair_classes

    def building(base, *args):
        built.append(base)
        return real_build(base, *args)

    monkeypatch.setattr(localization, "_pair_classes", building)
    catalog = generate_catalog(mutation_catalog_params())
    pairs = list(catalog.module_mcs_pairs())
    toolbox = statements.Toolbox(localization_torsion=torsion)
    assert verify("T-LOC", catalog, toolbox).verdict == "pass"
    modules_asked = [base for base in asked if isinstance(base, Module)]
    modules_built = [base for base in built if isinstance(base, Module)]
    assert len(modules_asked) == len(pairs) == 70
    assert len(modules_built) == ENTRIES["reduced"][1]

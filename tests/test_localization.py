"""Localization by pair classes: structure, canonical maps, identities."""

import hashlib

import pytest

from scomult.catalog import generate_catalog
from scomult.errors import AxiomViolation
from scomult.localization import (
    _partition,
    all_submodules_are_localizations,
    complement_mcs,
    localize_module,
    localize_module_with,
    localize_ring,
    localize_ring_with,
    localize_submodule,
    localized_colon_identity_check,
    mm_locally_nonzero,
)
from scomult.modules import self_module, submodule_from_set, zn_over_zk
from scomult.mutations import localization_drop_ufactor, mutation_catalog_params
from scomult.rings import (
    enumerate_ideals,
    enumerate_mcs,
    make_ring_table,
    make_ring_zn,
    maximal_ideals,
    units,
    validate_mcs,
)


def test_localized_ring_pins(z6, s13):
    loc = localize_ring(z6, s13)
    assert loc.ring.order == 2
    assert loc.kernel() == frozenset({0, 2, 4})
    assert localize_ring(z6, validate_mcs(z6, {1})).ring.order == 6
    assert localize_ring(z6, validate_mcs(z6, {1, 5})).ring.order == 6


def test_images_of_s_are_units(z6):
    for mcs in enumerate_mcs(z6):
        loc = localize_ring(z6, mcs)
        image_units = units(loc.ring)
        for s in mcs:
            assert loc.map_element(s) in image_units


def test_localized_module_pins(m6, s13):
    loc = localize_module(m6, s13)
    assert loc.module.size == 2
    evens = submodule_from_set(m6, {0, 2, 4})
    assert localize_submodule(loc, evens).members() == [0]
    trivial = localize_module(m6, validate_mcs(m6.ring, {1}))
    assert trivial.module.size == 6


def test_every_submodule_is_a_localization(m6, z6):
    for mcs in enumerate_mcs(z6):
        assert all_submodules_are_localizations(m6, mcs)


def test_colon_identity(m6, z6):
    for mcs in enumerate_mcs(z6):
        for ideal in enumerate_ideals(z6):
            assert localized_colon_identity_check(m6, mcs, ideal)


def test_mm_locally_nonzero_pins(z6, m6, z2_over_z6):
    by_members = {tuple(m.members()): m for m in maximal_ideals(z6)}
    evens = by_members[(0, 2, 4)]
    threes = by_members[(0, 3)]
    assert mm_locally_nonzero(m6, evens)
    assert mm_locally_nonzero(m6, threes)
    assert not mm_locally_nonzero(z2_over_z6, threes)
    from scomult.modules import zero_module

    assert not mm_locally_nonzero(zero_module(z6), evens)


def test_complement_mcs_validated(z6):
    for m in maximal_ideals(z6):
        mcs = complement_mcs(z6, m)
        assert z6.one in mcs.elements
        assert not (mcs.elements & m.elements)


def test_ufactor_is_essential(z6, m6, s13):
    """Dropping the u-factor breaks transitivity over rings with zero divisors."""
    with pytest.raises(AxiomViolation):
        localize_ring_with(z6, s13, localization_drop_ufactor)
    with pytest.raises(AxiomViolation) as info:
        localize_module_with(m6, s13, localization_drop_ufactor)
    assert info.value.axiom == "localization relation not transitive"
    assert info.value.witness == ((0, 1), (0, 3), (4, 3))


def test_ufactor_mutant_harmless_without_zero_divisors():
    z5 = make_ring_zn([5])
    mcs = validate_mcs(z5, {1, 2, 3, 4})
    broken = localize_ring_with(z5, mcs, localization_drop_ufactor)
    real = localize_ring(z5, mcs)
    assert broken.ring.order == real.ring.order == 5


def test_localization_of_small_carrier(z6, s13):
    z2 = zn_over_zk(z6, 2)
    loc = localize_module(z2, s13)
    # 3 acts as the identity on Z2, so nothing collapses
    assert loc.module.size == 2
    s14 = validate_mcs(z6, {1, 4})
    assert localize_module(z2, s14).module.size == 1


def test_localized_kernel_characterization(m6, z6):
    for mcs in enumerate_mcs(z6):
        loc = localize_module(m6, mcs)
        expected = frozenset(
            m for m in m6.elements()
            if any(m6.act(u, m) == 0 for u in mcs))
        assert loc.kernel() == expected


@pytest.mark.parametrize("s_set", [{1, 3}, {1, 5}, {1}, {1, 2, 4}])
def test_ring_with_zero_off_index_0_localizes(z6, s_set):
    """Z6 with residue x stored at index x + 1 (mod 6), so zero sits at index 1."""
    residue = [(i - 1) % 6 for i in range(6)]

    def table(op):
        return [[(op(residue[i], residue[j]) + 1) % 6 for j in range(6)]
                for i in range(6)]

    shifted = make_ring_table(table(z6.add), table(z6.mul), zero=1, one=2)
    loc = localize_ring(z6, validate_mcs(z6, s_set))
    shifted_loc = localize_ring(
        shifted, validate_mcs(shifted, {(s + 1) % 6 for s in s_set}))
    assert shifted_loc.ring.order == loc.ring.order
    assert shifted_loc.kernel() == {(x + 1) % 6 for x in loc.kernel()}


def test_module_localization_shares_the_ring_localization(z6, m6, s13):
    assert localize_module(m6, s13).locring is localize_ring(z6, s13)


def localization_digest(catalog):
    """SHA-256 over every localization of the catalog's (module, m.c.s.) pairs.

    Module labels are x/s for the least pair (x, s) of each class.  They are
    hashed as computed from the pairs and checked against the built module
    only when it kept its own name: make_module interns equal modules, so a
    built module may carry the name and labels of an earlier equal one.
    """
    digest = hashlib.sha256()
    for module, mcs in catalog.module_mcs_pairs(include_zero=True):
        loc = localize_module(module, mcs)
        ring, lmod = loc.locring.ring, loc.module
        rels, mels = ring.elements(), lmod.elements()
        least = {}
        for i, c in enumerate(loc.class_of_pair):
            least.setdefault(c, loc.pairs[i])
        labels = [f"{module.label(x)}/{module.ring.label(s)}"
                  for x, s in (least[c] for c in mels)]
        if lmod.name == f"({module.name} loc {mcs.describe()})":
            assert [lmod.label(m) for m in mels] == labels
        digest.update(repr((
            ring.order, lmod.size, ring.zero, ring.one,
            [ring.label(a) for a in rels], labels,
            [[ring.add(a, b) for b in rels] for a in rels],
            [[ring.mul(a, b) for b in rels] for a in rels],
            [[lmod.add(m, n) for n in mels] for m in mels],
            [list(lmod.act_row(r)) for r in rels],
            [loc.map_element(m) for m in module.elements()],
        )).encode())
    return digest.hexdigest()


# captured before the ring and module localizations shared one construction
REDUCED_LOCALIZATION_DIGEST = (
    "791dfd9c05f364390e96d3ad36091485f5b1e77ec80fd581021efa214cf57f44")


def test_reduced_catalog_localizations_are_pinned():
    catalog = generate_catalog(mutation_catalog_params())
    assert localization_digest(catalog) == REDUCED_LOCALIZATION_DIGEST


def drop_ufactor_outcomes(catalog):
    """Per (module, m.c.s.) pair: the built size, or the violation raised."""
    out = []
    for module, mcs in catalog.module_mcs_pairs(include_zero=True):
        try:
            loc = localize_module_with(module, mcs, localization_drop_ufactor)
        except AxiomViolation as err:
            out.append((module.name, mcs.describe(), "raised", err.args))
        else:
            out.append((module.name, mcs.describe(), "built", loc.module.size))
    return out


# captured before the equivalence scan walked only the set bits of each row
REDUCED_DROP_UFACTOR_DIGEST = (
    "d71dcfc12ff652fb5ab12843aeb605df93991bb5887a97c939489b118c5c4033")


def test_drop_ufactor_scan_outcomes_are_pinned():
    outcomes = drop_ufactor_outcomes(generate_catalog(mutation_catalog_params()))
    assert len(outcomes) == 95
    assert sum(o[2] == "built" for o in outcomes) == 46
    assert all(o[3][0].startswith("axiom violated: localization relation not "
                                  "transitive at ")
               for o in outcomes if o[2] == "raised")
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == REDUCED_DROP_UFACTOR_DIGEST


@pytest.mark.parametrize("related, axiom, witness", [
    (lambda p, q: p == q and p != "b", "localization relation not reflexive",
     ("b",)),
    (lambda p, q: p == q or (p, q) == ("a", "c"),
     "localization relation not symmetric", ("a", "c")),
])
def test_partition_reports_the_first_violation(related, axiom, witness):
    with pytest.raises(AxiomViolation) as info:
        _partition(("a", "b", "c"), related)
    assert info.value.axiom == axiom
    assert info.value.witness == witness


def idempotent_power(ring, mcs):
    """e = t^k idempotent for t the product of S (Fitting's lemma)."""
    t = ring.one
    for s in mcs:
        t = ring.mul(t, s)
    e = t
    while ring.mul(e, e) != e:
        e = ring.mul(e, t)
    return e


def test_localization_matches_the_idempotent_oracle():
    """S^-1 M is eM and S^-1 R is eR, computed without pair classes."""
    catalog = generate_catalog(mutation_catalog_params())
    pairs = list(catalog.module_mcs_pairs(include_zero=True))
    assert len(pairs) == 95
    for module, mcs in pairs:
        ring = module.ring
        e = idempotent_power(ring, mcs)
        e_module = {module.act(e, x) for x in module.elements()}
        e_ring = {ring.mul(e, r) for r in ring.elements()}
        killed = frozenset(x for x in module.elements()
                           if module.act(e, x) == module.zero)
        loc = localize_module(module, mcs)
        assert loc.module.size == len(e_module)
        assert loc.kernel() == killed
        assert localize_ring(ring, mcs).ring.order == len(e_ring)

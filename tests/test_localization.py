"""Localization by pair classes: structure, canonical maps, identities."""

import hashlib

import pytest

from conftest import (
    all_submodules_are_localizations,
    reference_canonical_map_faults,
    reference_localization,
)
from scomult import localization
from scomult.catalog import generate_catalog
from scomult.errors import AxiomViolation, SizeCapExceeded
from scomult.localization import (
    complement_mcs,
    localize_module,
    localize_module_with,
    localize_ring,
    localize_ring_with,
    localize_submodule,
    localized_colon_identity_check,
    mm_locally_nonzero,
    s_torsion,
)
from scomult.modules import (
    Module,
    enumerate_submodules,
    self_module,
    submodule_from_set,
    zn_over_zk,
)
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
    """With K = {0}, the zero divisor 3 of Z6 cannot permute the cosets of K,
    so its image cannot be a unit; the ring is refused before the module."""
    for localize, base in ((localize_ring_with, z6), (localize_module_with, m6)):
        with pytest.raises(AxiomViolation) as info:
            localize(base, s13, localization_drop_ufactor)
        assert info.value.axiom == "image of S must consist of units"
        assert info.value.witness == (3,)


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


def pair_classes(loc):
    """(pairs, class_of_pair, members) of a localization, read from
    `class_of(x, s)` over the pairs in x-major, S-ordered order."""
    pairs = [(x, s) for x in loc.base.elements() for s in loc.mcs]
    class_of_pair = tuple(loc.class_of(x, s) for x, s in pairs)
    members = [[] for _ in loc.reps]
    for i, c in enumerate(class_of_pair):
        members[c].append(i)
    return pairs, class_of_pair, tuple(map(tuple, members))


def localization_digest(catalog):
    """SHA-256 over every localization of the catalog's (module, m.c.s.) pairs.

    Module labels are x/s for the least pair (x, s) of each class.  They are
    hashed as computed from the pairs and checked against the labels of the
    built module on every pair.
    """
    digest = hashlib.sha256()
    for module, mcs in catalog.module_mcs_pairs(include_zero=True):
        loc = localize_module(module, mcs)
        ring, lmod = loc.locring.ring, loc.module
        rels, mels = ring.elements(), lmod.elements()
        pairs, class_of_pair, _ = pair_classes(loc)
        least = {}
        for i, c in enumerate(class_of_pair):
            least.setdefault(c, pairs[i])
        labels = [f"{module.label(x)}/{module.ring.label(s)}"
                  for x, s in (least[c] for c in mels)]
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


# captured on the default catalog before the equivalence check and the
# cross-checked tables read the rows directly
DEFAULT_LOCALIZATION_DIGEST = (
    "4cb3f19b45e55f4f0727bc31769ba48b1704b3c01e4b95aa714ba72979be2a15")


def test_default_catalog_localizations_are_pinned():
    assert localization_digest(generate_catalog()) == DEFAULT_LOCALIZATION_DIGEST


def built_localization(loc, structure):
    """(class_of_pair, members, labels, add table, action table) as built."""
    carrier = structure.elements()
    return (*pair_classes(loc)[1:],
            tuple(structure.label(m) for m in carrier),
            tuple(tuple(structure.add(a, b) for b in carrier) for a in carrier),
            tuple(tuple(structure.act_row(r)) for r in structure.ring.elements()))


def test_localizations_match_the_reference_construction():
    """Every module and ring localization of the reduced catalog equals the
    pair-by-pair relation, full equivalence scan and per-cell set tables."""
    catalog = generate_catalog(mutation_catalog_params())
    modules = list(catalog.module_mcs_pairs(include_zero=True))
    rings = [(ring, mcs) for ring in catalog.rings for mcs in catalog.mcs[ring]]
    assert (len(modules), len(rings)) == (95, 25)
    for module, mcs in modules:
        loc = localize_module(module, mcs)
        assert built_localization(loc, loc.module) == reference_localization(
            module, mcs), (module.name, mcs.describe())
    for ring, mcs in rings:
        loc = localize_ring(ring, mcs)
        assert built_localization(loc, loc.ring) == reference_localization(
            ring, mcs), (ring.name, mcs.describe())


@pytest.mark.parametrize("params, torsion, counts", [
    (mutation_catalog_params(), s_torsion, (25, 0)),
    (None, s_torsion, (103, 0)),
    (mutation_catalog_params(), localization_drop_ufactor, (13, 12)),
    (None, localization_drop_ufactor, (46, 57)),
])
def test_every_localized_ring_has_a_unital_canonical_map(params, torsion, counts):
    """On every localized ring of both catalogs, and on every one the
    drop-u-factor mutant builds, R -> S^-1 R is a unital ring map that sends
    S to units; a localization the mutant cannot build raises instead."""
    catalog = generate_catalog(params)
    built = refused = 0
    for ring in catalog.rings:
        for mcs in catalog.mcs[ring]:
            try:
                loc = localize_ring_with(ring, mcs, torsion)
            except AxiomViolation as err:
                assert err.axiom == "image of S must consist of units"
                refused += 1
                continue
            built += 1
            assert reference_canonical_map_faults(loc) == [], (
                ring.name, mcs.describe())
    assert (built, refused) == counts


def test_the_canonical_map_oracle_names_each_fault(z6, s1, s13):
    """Stand-ins for a localized ring whose map is x -> 5x (additive, not
    multiplicative, 1 not sent to 1) or x -> 0 (S not sent to units)."""
    class Stand:
        def __init__(self, image, mcs):
            self.base, self.ring, self.mcs = z6, z6, mcs
            self.map_element = image

    faults = reference_canonical_map_faults(Stand(lambda x: 5 * x % 6, s1))
    assert {f[0] for f in faults} == {"not multiplicative", "1 not sent to 1"}
    faults = reference_canonical_map_faults(Stand(lambda x: 0, s13))
    assert faults == [("1 not sent to 1",), ("not a unit", 1), ("not a unit", 3)]
    assert reference_canonical_map_faults(localize_ring(z6, s13)) == []


def every_localization(catalog):
    """(localization, built structure) for each module localization of the
    catalog, then for each ring localization."""
    for module, mcs in catalog.module_mcs_pairs(include_zero=True):
        loc = localize_module(module, mcs)
        yield loc, loc.module
    for ring in catalog.rings:
        for mcs in catalog.mcs[ring]:
            loc = localize_ring(ring, mcs)
            yield loc, loc.ring


@pytest.mark.parametrize("params, counts", [
    (mutation_catalog_params(), (95, 25)),
    (None, (401, 103)),
])
def test_localizations_keep_one_coset_per_element_and_one_row_per_s(params, counts):
    """Each localization stores |X| coset indices and, for each s in S, a
    row with one entry per class of the built ring or module."""
    shapes = []
    for loc, built in every_localization(generate_catalog(params)):
        shapes.append(type(loc).__name__)
        assert len(loc.coset) == loc.base.size
        assert list(loc.solve) == list(loc.mcs)
        assert all(len(row) == built.size for row in loc.solve.values())
        assert len(loc.reps) == built.size
    assert (shapes.count("LocalizedModule"), shapes.count("LocalizedRing")) == counts


@pytest.mark.parametrize("what", ["ring", "module"])
def test_pair_cap_guard_names_the_pair_count(monkeypatch, z6, m6, s13, what):
    """Z6 with S = {1, 3} has 12 pairs, over a cap of 3 * 3; at the real cap
    of 64 * 64 the guard cannot fire, as |X| <= 64 and |S| <= 63."""
    base, cls = ((z6, localization.LocalizedRing) if what == "ring"
                 else (m6, localization.LocalizedModule))
    monkeypatch.setattr(localization, "DEFAULT_CAP", 3)
    with pytest.raises(SizeCapExceeded) as info:
        localization._pair_classes(base, s13, s_torsion, what, cls)
    assert (info.value.what, info.value.size, info.value.cap) == (
        f"{what} localization pairs", 12, 9)


def test_pair_cap_guard_admits_exactly_the_cap(monkeypatch):
    """Z8 with S = {1, 7} has 16 pairs, which a cap of 4 * 4 still admits."""
    z8 = make_ring_zn([8])
    monkeypatch.setattr(localization, "DEFAULT_CAP", 4)
    loc, _, labels = localization._pair_classes(
        z8, validate_mcs(z8, {1, 7}), s_torsion, "ring", localization.LocalizedRing)
    assert len(labels) == len(loc.reps) == 8


def test_localized_modules_keep_their_own_name_and_ring():
    catalog = generate_catalog(mutation_catalog_params())
    for module, mcs in catalog.module_mcs_pairs(include_zero=True):
        loc = localize_module(module, mcs)
        assert loc.module.name == f"({module.name} loc {mcs.describe()})"
        assert loc.module.ring is loc.locring.ring


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


# captured when the classes became cosets of K
REDUCED_DROP_UFACTOR_DIGEST = (
    "ff0fdadac7c1a8b460813eac30a118f5ad2b3fe348f55e7846614974f669edc0")


def without_messages(outcomes):
    """The outcomes with each violation's text dropped: built or raised."""
    return [o[:3] if o[2] == "raised" else o for o in outcomes]


# which pairs build under the drop-u-factor mutant, and to what size,
# independent of how the construction words its violation
REDUCED_DROP_UFACTOR_SHAPE_DIGEST = (
    "9f89b2be1feee8cc666ce7fd45c739768e59bb55ba0dfdc1155f8cbe890bc155")


def test_drop_ufactor_builds_the_pinned_pairs():
    outcomes = drop_ufactor_outcomes(generate_catalog(mutation_catalog_params()))
    shapes = without_messages(outcomes)
    assert (len(shapes), sum(o[2] == "built" for o in shapes)) == (95, 46)
    digest = hashlib.sha256(repr(shapes).encode()).hexdigest()
    assert digest == REDUCED_DROP_UFACTOR_SHAPE_DIGEST


def test_drop_ufactor_scan_outcomes_are_pinned():
    outcomes = drop_ufactor_outcomes(generate_catalog(mutation_catalog_params()))
    assert len(outcomes) == 95
    assert sum(o[2] == "built" for o in outcomes) == 46
    assert all(o[3][0].startswith("axiom violated: image of S must consist "
                                  "of units at ")
               for o in outcomes if o[2] == "raised")
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == REDUCED_DROP_UFACTOR_DIGEST


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


def recorded_bases(monkeypatch, name):
    """Patch `localization.<name>` to record the base of every call."""
    bases = []
    real = getattr(localization, name)

    def recording(base, *args):
        bases.append(base)
        return real(base, *args)

    monkeypatch.setattr(localization, name, recording)
    return bases


def test_default_torsion_runs_once_per_localization(monkeypatch):
    """With the default torsion function, the kernel check reuses the K that
    built the classes: one `s_torsion` call per ring or module built."""
    catalog = generate_catalog(mutation_catalog_params())
    torsion_bases = recorded_bases(monkeypatch, "s_torsion")
    built_bases = recorded_bases(monkeypatch, "_pair_classes")
    for module, mcs in catalog.module_mcs_pairs(include_zero=True):
        localize_module_with(module, mcs, localization.s_torsion)
    for ring in catalog.rings:
        for mcs in catalog.mcs[ring]:
            localize_ring_with(ring, mcs, localization.s_torsion)
    assert len(built_bases) == 95 + 25
    assert torsion_bases == built_bases


def test_an_injected_torsion_still_gets_its_kernel_checked(monkeypatch):
    """Under the drop-u-factor mutant each module that builds has its kernel
    checked against a fresh `s_torsion`, and the outcomes are unchanged."""
    catalog = generate_catalog(mutation_catalog_params())
    torsion_bases = recorded_bases(monkeypatch, "s_torsion")
    outcomes = drop_ufactor_outcomes(catalog)
    built = [o for o in outcomes if o[2] == "built"]
    assert len(built) == 46
    assert sum(isinstance(base, Module) for base in torsion_bases) == 46
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == REDUCED_DROP_UFACTOR_DIGEST


def only_for_modules(torsion):
    """torsion on modules, the true `s_torsion` on rings."""
    return lambda base, mcs: (torsion(base, mcs) if isinstance(base, Module)
                              else s_torsion(base, mcs))


def test_a_wrong_injected_kernel_is_caught(z6, m6):
    """K = {0, 3} with S = {1}, or K = {0, 2, 4} with S = {1, 5}, is a
    submodule of Z6 whose cosets every s permutes, so it gives the classes
    of Z6/K, a consistent but wrong localization; the kernel check names
    the ring or the module."""
    for s_set, k in (({1}, {0, 3}), ({1, 5}, {0, 2, 4})):
        mcs = validate_mcs(z6, s_set)

        def wrong(base, mcs, k=frozenset(k)):
            return k

        for torsion, message in ((wrong, "canonical map kernel mismatch"),
                                 (only_for_modules(wrong),
                                  "canonical module map kernel mismatch")):
            with pytest.raises(AxiomViolation) as info:
                localize_module_with(m6, mcs, torsion)
            assert info.value.axiom == message


def test_an_injected_kernel_must_be_a_submodule(m6, s1):
    """K = {0, 1} over Z6 is refused by the closure check, as an ideal of
    the ring or as a submodule of the module, before any class is built."""
    def zero_one(base, mcs):
        return frozenset((0, 1))

    for torsion, message in ((zero_one, "ideal not closed under addition"),
                             (only_for_modules(zero_one),
                              "submodule not closed under addition")):
        with pytest.raises(AxiomViolation) as info:
            localize_module_with(m6, s1, torsion)
        assert (info.value.axiom, info.value.witness) == (message, (1, 1))


def test_localized_sets_match_the_pair_by_pair_classes():
    """S^-1 X' read as the S rows at the cosets X' meets equals the class of
    every (x, s), on every submodule, ideal and singleton of the reduced
    catalog.  Over a finite ring each s in S has an inverse s^k/1, so on a
    submodule the classes (x, 1) alone already give S^-1 X'; the
    singletons are what tell the two apart."""
    catalog = generate_catalog(mutation_catalog_params())
    checked = distinct = 0
    for module, mcs in catalog.module_mcs_pairs(include_zero=True):
        locmod = localize_module(module, mcs)
        for loc, subsets in ((locmod, enumerate_submodules(module)),
                             (locmod.locring, enumerate_ideals(module.ring))):
            subsets = [n.elements for n in subsets] + [{x} for x in loc.base.elements()]
            for subset in subsets:
                expected = {loc.class_of(x, s) for x in subset for s in mcs}
                assert localization._localize_set(loc, subset) == expected
                checked += 1
                distinct += expected != {loc.map_element(x) for x in subset}
    assert (checked, distinct) == (1606, 198)

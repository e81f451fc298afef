"""Homomorphisms, homotheties, S-classifications, and the transfer check."""

import hashlib
from itertools import product
from pathlib import Path

import pytest

from conftest import reference_enumerate_homs
from scomult.catalog import CatalogParams, _ring_homs, generate_catalog
from scomult.errors import AxiomViolation, PreconditionUnmet
from scomult.instancefile import parse_instance_file
from scomult.modules import (
    direct_sum_module,
    enumerate_submodules,
    make_module,
    zero_divisors_on,
    full_submodule,
    quotient_module,
    self_module,
    submodule_as_module,
    submodule_from_set,
    zn_over_zk,
)
from scomult.morphisms import (
    ModuleHom,
    _additive_maps,
    _bridge_core,
    _linear_homs,
    enumerate_homs,
    homothety_family,
    homothety_on_family,
    identity_hom,
    image,
    inclusion_hom,
    is_epic,
    is_monic,
    is_s_epic,
    is_s_epic_with,
    is_s_monic,
    is_s_monic_via_kernel,
    is_s_monic_with,
    is_s_zero,
    is_s_zero_with,
    kernel,
    make_hom,
    monic_epic_bridge,
    multiplication_hom,
    projection_hom,
)
from scomult.mutations import mutation_catalog_params
from scomult.rings import _POOL, make_ring_zn, unit_mcs, units, validate_mcs
from scomult.s_theory import (
    s_prime_homothety_form,
    s_second_homothety_form,
    transfer_theorem_check,
)
from scomult.statements import verify

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def test_make_hom_pins(m6):
    ident = identity_hom(m6)
    assert kernel(ident).members() == [0]
    assert image(ident).members() == [0, 1, 2, 3, 4, 5]
    double = multiplication_hom(m6, 2)
    assert kernel(double).members() == [0, 3]
    assert image(double).members() == [0, 2, 4]
    with pytest.raises(AxiomViolation) as err:
        make_hom(m6, m6, (0, 1, 1, 1, 1, 1))
    assert (err.value.axiom, err.value.witness) == ("map is not additive", (1, 1))
    plane = self_module(make_ring_zn([2, 2]))
    swap = (0, 2, 1, 3)                          # (x, y) -> (y, x)
    assert swap in _additive_maps(plane, plane)  # additive, but not linear
    with pytest.raises(AxiomViolation) as err:
        make_hom(plane, plane, swap)
    assert (err.value.axiom, err.value.witness) == ("map is not linear", (1, 1))


def test_s_zero_pins(m6, s13):
    triple = multiplication_hom(m6, 3)
    assert is_s_zero(triple, s13) is None       # 3*3 = 3 stays nonzero
    double = multiplication_hom(m6, 2)
    w = is_s_zero(double, s13)
    assert w is not None and w.get("s") == 3 and w.validate()


def test_s_monic_epic_pins(m6, s1, s13):
    ident = identity_hom(m6)
    assert is_s_monic(ident, s13).get("s") == 3     # e_S of {1, 3}
    assert is_s_epic(ident, s13).get("s") == 3
    double = multiplication_hom(m6, 2)
    assert is_s_monic(double, s13) is None
    assert is_s_monic(double, s13) == is_s_monic_via_kernel(double, s13)
    w = is_s_monic(double, validate_mcs(m6.ring, {1, 4}))
    assert w is not None and w.get("s") == 4    # 4 kills the kernel {0, 3}


def test_trivial_mcs_reduces_to_classical(m6, s1):
    for f in enumerate_homs(m6, m6):
        assert (is_s_zero(f, s1) is not None) == all(v == 0 for v in f.values)
        assert (is_s_monic(f, s1) is not None) == is_monic(f)
        assert (is_s_epic(f, s1) is not None) == is_epic(f)


def test_bridge_claims(m6, s13):
    for f in enumerate_homs(m6, m6):
        report = monic_epic_bridge(f, s13)
        assert report.holds()
    s15 = validate_mcs(m6.ring, {1, 5})
    for f in enumerate_homs(m6, m6):
        assert monic_epic_bridge(f, s15).holds()


def test_homothety_pins(m4, m6):
    half = submodule_from_set(m4, {0, 2})
    quotient = quotient_module(m4, half)
    squash = multiplication_hom(quotient, 2)
    assert all(squash(x) == 0 for x in squash.source.elements())
    ident = multiplication_hom(quotient, 1)
    assert list(ident.values) == list(ident.source.elements())
    evens = submodule_from_set(m6, {0, 2, 4})
    double_on = multiplication_hom(submodule_as_module(evens), 2)
    assert set(double_on.values) == set(double_on.source.elements())
    # on M/P = Z4/2Z4, a = 2 gives h_0 again and a = 3 gives h_1
    assert homothety_family(m4, half.elements) == (
        multiplication_hom(quotient, 0), ident)
    # on N = 2Z6, a and a + 3 act alike
    assert homothety_on_family(m6, evens.elements) == (
        multiplication_hom(submodule_as_module(evens), 0),
        multiplication_hom(submodule_as_module(evens), 1), double_on)


@pytest.mark.parametrize("family, carrier", [
    (homothety_family, quotient_module),
    (homothety_on_family, lambda module, n: submodule_as_module(n))])
def test_a_homothety_family_holds_each_distinct_homothety_once(
        m4, m6, family, carrier):
    """Each family is the distinct per-a homotheties in order of the first a
    that gives each, so h_a = h_b exactly when a and b share an action row."""
    for module in (m4, m6):
        ring = module.ring
        for n in enumerate_submodules(module):
            on = carrier(module, n)
            per_a = [multiplication_hom(on, a) for a in ring.elements()]
            homs = family(module, n.elements)
            assert homs == tuple(dict.fromkeys(per_a))
            assert len(homs) == len(set(on._act_rows))


def test_homothety_composition(m4):
    half = submodule_from_set(m4, {0, 2})
    quotient = quotient_module(m4, half)
    ring = m4.ring
    for a in ring.elements():
        for b in ring.elements():
            left = multiplication_hom(quotient, a)
            right = multiplication_hom(quotient, b)
            composed = tuple(left(right(x)) for x in left.source.elements())
            assert composed == multiplication_hom(quotient, ring.mul(a, b)).values


def test_transfer_inclusion(m6, s1):
    evens = submodule_from_set(m6, {0, 2, 4})
    report = transfer_theorem_check(inclusion_hom(evens), s1)
    assert report.kernel_witness.get("s") == 1
    assert report.downward_applicable and report.downward_holds
    assert report.holds()


def test_transfer_precondition_unmet(m4, s1):
    half = submodule_from_set(m4, {0, 2})
    surjection = projection_hom(m4, half)
    with pytest.raises(PreconditionUnmet):
        transfer_theorem_check(surjection, unit_mcs(m4.ring))


def test_transfer_upward(m6):
    s13 = validate_mcs(m6.ring, {1, 3})
    evens = submodule_from_set(m6, {0, 2, 4})
    surjection = projection_hom(m6, evens)
    # kernel {0,2,4} is killed by 3, so the check applies both ways
    report = transfer_theorem_check(surjection, s13)
    assert report.kernel_witness.get("s") == 3
    assert report.holds()


def test_enumerate_homs_counts(m6, v2):
    from scomult.modules import zn_over_zk

    assert len(enumerate_homs(m6, m6)) == 6            # multiplication maps
    assert len(enumerate_homs(v2, v2)) == 16           # 2x2 matrices over F2
    z3 = zn_over_zk(m6.ring, 3)
    assert len(enumerate_homs(m6, z3)) == 3            # reductions mod 3


def _swapped_z4():
    """Z_4 over itself with the indices of 1 and 2 swapped.  Its greedy
    additive generators, 2 and then 1, are dependent, so some of the
    candidate tables that hom enumeration builds are not additive."""
    perm = (0, 2, 1, 3)                          # its own inverse
    add = [[perm[(perm[a] + perm[b]) % 4] for b in range(4)] for a in range(4)]
    act = [[perm[(r * perm[x]) % 4] for x in range(4)] for r in range(4)]
    return make_module(make_ring_zn([4]), add, act, name="Z4 swapped")


def _oracle_module_pairs():
    """Every ordered pair of nonzero modules with carrier at most 8 over each
    reduced-catalog ring, then the pairs of each shipped table instance and
    of the swapped Z_4 with Z_4."""
    cat = generate_catalog(mutation_catalog_params())
    for ring in cat.rings:
        modules = [m for m in cat.modules[ring]
                   if not m.is_zero_module and m.size <= 8]
        yield from product(modules, repeat=2)
    for name in ("v2_over_f2.inst", "f4_table.inst"):
        modules = parse_instance_file(INSTANCES / name).modules.values()
        yield from product(modules, repeat=2)
    yield from product((_swapped_z4(), self_module(make_ring_zn([4]))), repeat=2)


def test_enumerate_homs_matches_reference():
    pairs = list(_oracle_module_pairs())
    assert any(source != target for source, target in pairs)
    swapped = _swapped_z4()
    assert len(_additive_maps(swapped, swapped)) < 8   # 2 * 4 candidates
    for source, target in pairs:
        assert enumerate_homs(source, target) == reference_enumerate_homs(source, target)


def test_additive_table_is_keyed_by_both_addition_tables():
    """One table serves modules with equal addition tables and different
    actions, and pairs with one addition table in common."""
    z2, z22, z4 = make_ring_zn([2]), make_ring_zn([2, 2]), make_ring_zn([4])
    plane, self22 = direct_sum_module(z2, (2, 2)), self_module(z22)
    assert plane._add_rows == self22._add_rows
    expected = {plane: 16, self22: 4}
    for order in ((plane, self22), (self22, plane)):
        additive = {}
        for module in order:
            pool = _ring_homs(module.ring, (module,), CatalogParams(), additive)
            endo = [f for f in pool if f.source == f.target == module]
            assert len(endo) == expected[module]
        assert len(additive) == 1
    m4, z2_over_z4 = self_module(z4), zn_over_zk(z4, 2)
    pairs = [(m4, m4), (m4, z2_over_z4), (z2_over_z4, m4)]
    for order in (pairs, pairs[::-1]):
        additive = {}
        for source, target in order:
            homs = _linear_homs(source, target, additive)
            assert homs == reference_enumerate_homs(source, target)
        assert len(additive) == 3
    assert [len(enumerate_homs(*pair)) for pair in pairs] == [4, 2, 2]


def test_inclusion_projection_shapes(m6):
    evens = submodule_from_set(m6, {0, 2, 4})
    inc = inclusion_hom(evens)
    assert inc.source.size == 3 and inc.target == m6
    assert is_monic(inc) and not is_epic(inc)
    proj = projection_hom(m6, evens)
    assert proj.target.size == 2
    assert is_epic(proj) and not is_monic(proj)


@pytest.fixture(scope="module")
def reduced_catalog():
    return generate_catalog(mutation_catalog_params())


@pytest.fixture(scope="module")
def default_catalog():
    return generate_catalog()


def _witness_s(witness):
    return None if witness is None else witness.get("s")


def hom_predicate_digest(catalog):
    """SHA-256 over the S-hom searches, bridge and transfer of every (hom, m.c.s.).

    Each pair contributes the witness s (or None) of `is_s_zero`,
    `is_s_monic` and `is_s_epic`, the four bridge claims, and the transfer
    report, or "unmet" where `transfer_theorem_check` raised
    `PreconditionUnmet`.
    """
    digest = hashlib.sha256()
    for ring in catalog.rings:
        for f in catalog.homs[ring]:
            for mcs in catalog.mcs[ring]:
                try:
                    t = transfer_theorem_check(f, mcs)
                except PreconditionUnmet:
                    transfer = "unmet"
                else:
                    transfer = (_witness_s(t.kernel_witness), *t[1:5],
                                None if t.failing_submodule is None
                                else t.failing_submodule.members())
                digest.update(repr((
                    f.describe(), f.values, mcs.describe(),
                    _witness_s(is_s_zero(f, mcs)),
                    _witness_s(is_s_monic(f, mcs)),
                    _witness_s(is_s_epic(f, mcs)),
                    tuple(monic_epic_bridge(f, mcs)[:4]),
                    transfer,
                )).encode())
    return digest.hexdigest()


# captured once the S-hom tests named e_S
REDUCED_HOM_PREDICATE_DIGEST = (
    "ee0d56d15a4373811b72aa181092a5e93cd758529eb92f2b93a14bb2a5b4b28f")


def test_hom_predicate_outcomes_are_pinned(reduced_catalog):
    assert hom_predicate_digest(reduced_catalog) == REDUCED_HOM_PREDICATE_DIGEST


def scalar_set_disagreements(homs):
    """(pairs checked, (hom, s) where a set and its `*_with` check differ)."""
    pairs, wrong = 0, []
    for f in homs:
        for s in f.source.ring.elements():
            pairs += 1
            if ((s in f.s_zero_scalars()) != is_s_zero_with(f, s)
                    or (s in f.s_monic_scalars()) != is_s_monic_with(f, s)
                    or (s in f.s_epic_scalars()) != is_s_epic_with(f, s)):
                wrong.append((f.describe(), f.values, s))
    return pairs, wrong


def catalog_homs(catalog):
    return [f for ring in catalog.rings for f in catalog.homs[ring]]


def homothety_homs(catalog):
    """Every a's homothety on M/N and on N, one hom per ring element a."""
    out = []
    for ring in catalog.rings:
        for module in catalog.modules[ring]:
            for n in enumerate_submodules(module):
                for on in (quotient_module(module, n), submodule_as_module(n)):
                    out.extend(multiplication_hom(on, a) for a in ring.elements())
    return out


def test_scalar_sets_match_the_elementwise_checks(reduced_catalog,
                                                  default_catalog):
    """s lies in ann(Im f), ann(Ker f), (Im f : M') iff f is S-zero, S-monic,
    S-epic with s, on every (hom, ring element) pair."""
    assert scalar_set_disagreements(catalog_homs(reduced_catalog)) == (6944, [])
    assert scalar_set_disagreements(catalog_homs(default_catalog)) == (25587, [])
    assert scalar_set_disagreements(homothety_homs(reduced_catalog)) == (4484, [])


def _every_scalar(f):
    return frozenset(f.source.ring.elements())


def _tamper(monkeypatch, *names):
    for name in names:
        monkeypatch.setattr(ModuleHom, name, _every_scalar)


def test_revalidation_does_not_read_the_scalar_sets(m4, monkeypatch):
    """With every ring element in each hom's sets, the searches return bad
    witnesses; the element-wise revalidators, or the S-monic cross-check,
    reject them.  The hom statements keep their core values as long as the
    catalog lives, so a tampered run gets a catalog of its own."""
    _tamper(monkeypatch, "s_zero_scalars", "s_monic_scalars", "s_epic_scalars")
    catalog = generate_catalog(mutation_catalog_params())
    report = verify("T-HOM", catalog)
    assert report.verdict == "fail"
    assert report.counterexample["detail"] == (
        "witness failed revalidation: s-monic(hom=Z2->Z2, mcs={1}, s=1)")
    report = verify("P-HOMS", catalog)
    assert report.verdict == "fail"
    assert report.counterexample == {
        "error": "axiom violated: S-monic characterizations disagree"}
    s1 = unit_mcs(m4.ring)
    # honestly: the identity is not S-zero, {0} is not S-prime in Z4 and
    # Z4 is not S-second, each for S = {1}
    for witness in (is_s_zero(identity_hom(m4), s1),
                    s_prime_homothety_form(m4, submodule_from_set(m4, {0}), s1),
                    s_second_homothety_form(m4, full_submodule(m4), s1)):
        assert witness is not None and witness.get("s") == 1
        assert not witness.validate()


def test_revalidation_catches_a_tampered_s_epic_set(monkeypatch):
    _tamper(monkeypatch, "s_epic_scalars")
    report = verify("P-HOMS", generate_catalog(mutation_catalog_params()))
    assert report.verdict == "fail"
    assert report.counterexample["detail"] == (
        "witness failed revalidation: s-epic(hom=Z2->Z2, mcs={1}, s=1)")


HOM_SLOTS = ("_source", "_target", "_values", "_s_zero", "_s_monic",
             "_s_epic", "_kernel", "_image")


def kernel_and_image(f):
    """The kernel tuple and image set as defined from the values."""
    return (tuple(m for m, v in enumerate(f.values) if v == 0),
            frozenset(f.values))


def test_module_hom_is_slotted_and_its_sets_are_not_identity(m6):
    assert vars(ModuleHom)["__slots__"] == HOM_SLOTS
    f = multiplication_hom(m6, 2)
    assert not hasattr(f, "__dict__")
    fresh = ModuleHom(f.source, f.target, f.values)
    filled = (f.s_zero_scalars(), f.s_monic_scalars(), f.s_epic_scalars())
    assert filled == (frozenset({0, 3}), frozenset({0, 2, 4}), frozenset({0, 2, 4}))
    assert (f._s_zero, f._s_monic, f._s_epic) == filled
    assert (fresh._s_zero, fresh._s_monic, fresh._s_epic) == (None, None, None)
    assert (f._kernel, f._image) == (None, None)   # the scalar sets fill neither
    assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)
    assert fresh.s_zero_scalars() is f.s_zero_scalars()    # shared, not copied
    for check, filled, verdict in ((is_s_zero_with, "_image", True),
                                   (is_s_monic_with, "_kernel", False),
                                   (is_s_epic_with, "_image", False)):
        fresh = ModuleHom(f.source, f.target, f.values)
        assert (fresh._kernel, fresh._image) == (None, None)
        assert check(fresh, 3) is verdict and check(fresh, 3) is verdict
        assert [name for name in ("_kernel", "_image")
                if getattr(fresh, name) is not None] == [filled]
        assert check(f, 3) is verdict
    assert (f._kernel, f._image) == kernel_and_image(f) == ((0, 3), frozenset({0, 2, 4}))
    assert f._kernel is _POOL[f._kernel] and f._image is _POOL[f._image]
    assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)


def test_a_rebuilt_hom_keeps_equality_hash_repr_and_slots(reduced_catalog):
    """Identity is (source, target, values), hashed as that tuple, and the
    repr names those three fields only, filled scalar sets or not.  A rebuilt
    hom starts with no kernel tuple or image set; a `*_with` check fills
    both from its values, as objects of the pool."""
    homs = catalog_homs(reduced_catalog)
    for f in homs:
        f.s_zero_scalars()
        fresh = ModuleHom(f.source, f.target, f.values)
        assert (fresh._kernel, fresh._image) == (None, None)
        is_s_monic_with(f, 0)
        is_s_epic_with(f, 0)
        assert (f._kernel, f._image) == kernel_and_image(f)
        assert f._kernel is _POOL[f._kernel] and f._image is _POOL[f._image]
        key = (f.source, f.target, f.values)
        assert fresh == f and not fresh != f and hash(fresh) == hash(key)
        assert repr(fresh) == repr(f) == (
            f"ModuleHom(source={f.source!r}, target={f.target!r}, "
            f"values={f.values!r})")
        assert fresh != key and key != fresh
        assert not hasattr(fresh, "__dict__")
        assert fresh._s_zero is None and f._s_zero is not None
        assert (fresh._kernel, fresh._image) == (None, None)
    assert len(set(homs)) == len(homs)
    assert ModuleHom.__slots__ == HOM_SLOTS
    f = homs[0]
    for name in ("source", "target", "values"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
    with pytest.raises(AttributeError):
        f.extra = 1


def reference_bridge(f, mcs):
    """The six bridge fields from the public predicates, each asked alone."""
    monic, s_monic = is_monic(f), is_s_monic(f, mcs)
    epic, s_epic = is_epic(f), is_s_epic(f, mcs)
    monic_converse = None
    if not (mcs.elements & zero_divisors_on(f.source)):
        monic_converse = s_monic is None or monic
    epic_converse = None
    if mcs.elements <= units(f.source.ring):
        epic_converse = s_epic is None or epic
    return (not monic or s_monic is not None, monic_converse,
            not epic or s_epic is not None, epic_converse, s_monic, s_epic)


def s_of(witness):
    return None if witness is None else witness.get("s")


def test_the_per_hom_batch_equals_the_bridge_on_every_pair(reduced_catalog):
    pairs = 0
    for ring in reduced_catalog.rings:
        mcs_list = reduced_catalog.mcs[ring]
        for f in reduced_catalog.homs[ring]:
            batch = _bridge_core(f, mcs_list)
            assert type(batch) is tuple and len(batch) == len(mcs_list)
            for mcs, entry in zip(mcs_list, batch):
                pairs += 1
                single = monic_epic_bridge(f, mcs)
                assert entry == (*single[:4], s_of(single.s_monic),
                                 s_of(single.s_epic)), (
                    f.describe(), f.values, mcs.describe())
                assert tuple(single) == reference_bridge(f, mcs)
    assert pairs == 5784        # the reduced catalog's P-HOMS instances


@pytest.mark.parametrize("scalars, axiom", [
    (frozenset(), "S-monic characterizations disagree"),
])
def test_a_wrong_s_monic_set_fails_the_cross_check(m6, s13, monkeypatch,
                                                   scalars, axiom):
    """The identity on Z6 is S-monic with s = e_S = 3 element by element, so
    a set without 3 disagrees with the direct side on every path."""
    f = identity_hom(m6)
    monkeypatch.setattr(ModuleHom, "s_monic_scalars", lambda self: scalars)
    for call in (lambda: _bridge_core(f, (s13,)),
                 lambda: monic_epic_bridge(f, s13),
                 lambda: is_s_monic(f, s13)):
        with pytest.raises(AxiomViolation) as info:
            call()
        assert info.value.axiom == axiom

"""Module construction, submodule lattices, residuals, and quotients."""

import hashlib

import pytest

from scomult import modules
from scomult.catalog import generate_catalog
from scomult.errors import AxiomViolation
from scomult.modules import (
    Submodule,
    annihilator_set,
    colon_into_module,
    colon_into_ring,
    colon_set_into_module,
    direct_sum_module,
    enumerate_submodules,
    full_submodule,
    is_torsion,
    make_module,
    product_module,
    quotient_module,
    self_module,
    submodule_as_module,
    submodule_closure,
    submodule_from_set,
    torsion_set,
    zero_module,
    zn_over_zk,
)
from scomult.mutations import mutation_catalog_params
from scomult.rings import (
    Ideal,
    enumerate_ideals,
    ideal_from_set,
    make_ring_table,
    make_ring_zn,
    product_ring,
)

from conftest import brute_force_submodules


def test_self_module(z6, m6):
    assert m6.size == 6 and m6.ring == z6
    assert m6.act(5, 3) == 3


def test_zn_over_zk_pins(z6):
    z2 = zn_over_zk(z6, 2)
    assert z2.size == 2
    assert z2.act(3, 1) == 1 and z2.act(4, 1) == 0
    with pytest.raises(AxiomViolation):
        zn_over_zk(z6, 4)


def test_bad_action_rejected(z6):
    # identity must act as identity
    add = ((0, 1), (1, 0))
    action = tuple((0, 0) for _ in z6.elements())
    with pytest.raises(AxiomViolation):
        make_module(z6, add, action)


def test_submodule_closure_pins(m6, v2):
    assert submodule_closure(m6, [2]).members() == [0, 2, 4]
    assert submodule_closure(m6, []).members() == [0]
    assert submodule_closure(v2, [2]).members() == [0, 2]


def test_enumerate_submodules_pins(m6, v2):
    assert len(enumerate_submodules(m6)) == 4
    assert len(enumerate_submodules(v2)) == 5
    z5 = self_module(make_ring_zn([5]))
    assert len(enumerate_submodules(z5)) == 2


@pytest.mark.parametrize("build", [
    lambda: self_module(make_ring_zn([6])),
    lambda: direct_sum_module(make_ring_zn([2]), [2, 2]),
    lambda: direct_sum_module(make_ring_zn([4]), [2, 4]),
    lambda: zn_over_zk(make_ring_zn([6]), 3),
    lambda: direct_sum_module(make_ring_zn([2]), [2, 2, 2]),
])
def test_enumerate_submodules_matches_brute_force(build):
    module = build()
    assert [n.elements for n in enumerate_submodules(module)] == \
        brute_force_submodules(module)


@pytest.mark.parametrize("moduli, members, generators, kind, axiom, witness", [
    ([6], {2, 4}, None, "ideal", "ideal must contain 0", ()),
    ([6], {2, 4}, None, "submodule", "submodule must contain 0", ()),
    ([6], {0, 2, 3}, None, "ideal", "ideal not closed under addition", (2, 2)),
    ([6], {0, 2, 3}, None, "submodule", "submodule not closed under addition",
     (2, 2)),
    ([2, 2], {0, 3}, None, "ideal", "ideal not closed under scalars", (1, 3)),
    ([2, 2], {0, 3}, None, "submodule", "submodule not closed under action",
     (1, 3)),
    ([6], {0, 2, 4}, (3,), "ideal",
     "generators do not generate the element set", ()),
    ([6], {0, 2, 4}, (3,), "submodule",
     "generators do not generate the element set", ()),
])
def test_closure_violations_are_pinned(moduli, members, generators, kind, axiom,
                                       witness):
    """Ideals of R and submodules of R over itself fail with the same witness."""
    ring = make_ring_zn(moduli)
    with pytest.raises(AxiomViolation) as err:
        if kind == "ideal":
            Ideal(ring, frozenset(members), generators=generators)
        else:
            Submodule(self_module(ring), frozenset(members), generators=generators)
    assert (err.value.axiom, err.value.witness) == (axiom, witness)


Z2_ADD = ((0, 1), (1, 0))
Z2_ACT = ((0, 0), (0, 1))
F4_ADD = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
F4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
F4_ZERO_ROW, F4_ID_ROW = (0, 0, 0, 0), (0, 1, 2, 3)
Z2 = make_ring_zn([2])
F4 = make_ring_table(F4_ADD, F4_MUL, 0, 1)


@pytest.mark.parametrize("ring, add, act, axiom, witness", [
    (Z2, ((0, 1), (1,)), Z2_ACT, "addition table has wrong shape", ()),
    (Z2, Z2_ADD, ((0, 0),), "multiplication table has wrong shape", ()),
    (Z2, ((0, 1), (1, 5)), Z2_ACT, "addition table entry out of range", (1, 1)),
    (Z2, Z2_ADD, ((0, 0), (0, 2)),
     "multiplication table entry out of range", (1, 1)),
    (Z2, (), ((), ()), "0 out of range", (0,)),
    (Z2, ((1, 0), (0, 1)), Z2_ACT, "0 is not an additive identity", (0,)),
    (Z2, Z2_ADD, ((0, 0), (0, 0)), "1 is not a multiplicative identity", (1,)),
    (Z2, ((0, 1), (1, 1)), Z2_ACT, "missing additive inverse", (1,)),
    (Z2, ((0, 1, 2), (1, 2, 0), (2, 1, 0)), ((0, 0, 0), (0, 1, 2)),
     "addition not commutative", (1, 2)),
    (Z2, ((0, 1, 2), (1, 0, 1), (2, 1, 0)), ((0, 0, 0), (0, 1, 2)),
     "addition not associative", (1, 1, 2)),
    (Z2, Z2_ADD, ((1, 0), (0, 1)), "multiplication not distributive", (0, 0, 0)),
    (Z2, Z2_ADD, ((0, 1), (0, 1)),
     "multiplication not distributive over scalar addition", (0, 0, 1)),
    # a acts as 0 on Z2 x Z2, so a*a = a+1 acts as 1 but a(a x) = 0
    (F4, F4_ADD, (F4_ZERO_ROW, F4_ID_ROW, F4_ZERO_ROW, F4_ID_ROW),
     "multiplication not associative", (2, 2, 1)),
])
def test_module_table_violations_are_pinned(ring, add, act, axiom, witness):
    """Module tables get the same check, R acting by the given rows."""
    with pytest.raises(AxiomViolation) as err:
        make_module(ring, add, act)
    assert (err.value.axiom, err.value.witness) == (axiom, witness)


def test_equal_tables_are_checked_once(monkeypatch):
    """Interned tables skip the axiom check; invalid ones raise every time."""
    calls = []
    check = modules._check_tables
    monkeypatch.setattr(modules, "_MODULE_CACHE", {})
    monkeypatch.setattr(modules, "_check_tables",
                        lambda *args: calls.append(args) or check(*args))
    z6 = make_ring_zn([6])
    assert zn_over_zk(z6, 3) == zn_over_zk(make_ring_zn([6]), 3)
    assert len(calls) == 1
    for _ in range(2):
        with pytest.raises(AxiomViolation):
            make_module(Z2, ((0, 1), (1, 5)), Z2_ACT)
    assert len(calls) == 3


# captured before ideals and submodules shared one closure and enumeration core
REDUCED_LATTICE_DIGEST = (
    "91d6bc01fc554c4e820741a51c16195c5a8ab81001a28ada7cef4a3071d84066")


def test_reduced_catalog_lattices_are_pinned():
    """SHA-256 over every ring's ideals and every module's submodules, in order."""
    catalog = generate_catalog(mutation_catalog_params())
    digest = hashlib.sha256()
    for ring in catalog.rings:
        digest.update(repr((ring.name, [
            (i.members(), i.describe()) for i in enumerate_ideals(ring)
        ])).encode())
        for module in catalog.modules[ring]:
            digest.update(repr([
                (n.members(), n.describe()) for n in enumerate_submodules(module)
            ]).encode())
    assert digest.hexdigest() == REDUCED_LATTICE_DIGEST


def test_colon_into_ring_pins(z6, m6):
    threes = submodule_from_set(m6, {0, 3})
    assert colon_into_ring(threes, frozenset({2})).members() == [0, 3]
    full = full_submodule(m6)
    assert colon_into_ring(full, frozenset(m6.elements())).members() == \
        [0, 1, 2, 3, 4, 5]
    assert annihilator_set(m6, frozenset({0, 2, 4})) == frozenset({0, 3})


def test_colon_into_module_pins(z6, m6, m4):
    zero = submodule_from_set(m6, {0})
    threes = ideal_from_set(z6, {0, 3})
    assert colon_into_module(zero, threes).members() == [0, 2, 4]
    anything = submodule_from_set(m6, {0, 3})
    zero_ideal = ideal_from_set(z6, {0})
    assert colon_into_module(anything, zero_ideal).members() == [0, 1, 2, 3, 4, 5]
    two = Ideal(m4.ring, frozenset({0, 2}))
    assert sorted(colon_set_into_module(m4, frozenset({0}), two.elements)) == [0, 2]


def test_torsion_pins(m6, z2_over_z6):
    assert sorted(torsion_set(m6)) == [0, 2, 3, 4]
    assert not is_torsion(m6)
    assert is_torsion(z2_over_z6)
    z5 = self_module(make_ring_zn([5]))
    assert torsion_set(z5) == frozenset({0})


def test_torsion_contains_zero_when_zero_divisors_act(m6, z2_over_z6, v2):
    from scomult.modules import zero_divisors_on

    for module in (m6, z2_over_z6, v2):
        if zero_divisors_on(module.ring, module) - {module.ring.zero}:
            assert 0 in torsion_set(module)


def test_product_module_pins():
    z2, z3 = make_ring_zn([2]), make_ring_zn([3])
    m = product_module(self_module(z2), self_module(z3))
    assert m.size == 6 and m.ring.order == 6
    assert m.ring == make_ring_zn([2, 3])


def test_product_mcs_pins():
    from scomult.rings import product_mcs, unit_mcs, validate_mcs

    z2, z3 = make_ring_zn([2]), make_ring_zn([3])
    ring = product_ring(z2, z3)
    trivial = product_mcs(unit_mcs(z2), unit_mcs(z3), ring)
    assert trivial.members() == [ring.one]          # {(1,1)}
    bigger = product_mcs(unit_mcs(z2), validate_mcs(z3, {1, 2}), ring)
    assert len(bigger) == 2 and ring.one in bigger.elements


def test_product_annihilators_factor():
    z2, z3 = make_ring_zn([2]), make_ring_zn([3])
    m1, m2 = self_module(z2), self_module(z3)
    prod = product_module(m1, m2)
    ring = prod.ring
    for n1 in enumerate_submodules(m1):
        for n2 in enumerate_submodules(m2):
            combined = frozenset(
                a * m2.size + b for a in n1.elements for b in n2.elements)
            expected = frozenset(
                x * 3 + y
                for x in annihilator_set(m1, n1.elements)
                for y in annihilator_set(m2, n2.elements))
            assert annihilator_set(prod, combined) == expected


def test_product_submodules_factor():
    z2, z3 = make_ring_zn([2]), make_ring_zn([3])
    m1, m2 = self_module(z2), self_module(z3)
    prod = product_module(m1, m2)
    factored = {
        frozenset(a * m2.size + b for a in n1.elements for b in n2.elements)
        for n1 in enumerate_submodules(m1) for n2 in enumerate_submodules(m2)}
    assert {n.elements for n in enumerate_submodules(prod)} == factored


def test_quotient_pins(m4, m6):
    q = quotient_module(m4, submodule_from_set(m4, {0, 2}))
    assert q.size == 2
    assert all(q.act(2, x) == 0 for x in q.elements())
    trivial = quotient_module(m6, submodule_from_set(m6, {0}))
    assert len(enumerate_submodules(trivial)) == len(enumerate_submodules(m6))


def test_submodule_as_module_pins(m6):
    evens = submodule_from_set(m6, {0, 2, 4})
    restricted = submodule_as_module(evens)
    assert restricted.size == 3
    assert annihilator_set(
        restricted, frozenset(restricted.elements())) == frozenset({0, 3})


def test_zero_module_flagged(z6):
    zero = zero_module(z6)
    assert zero.is_zero_module and zero.size == 1


def test_galois_direction(m6):
    # K sits inside (N :_M (N : K))
    subs = enumerate_submodules(m6)
    for n in subs:
        for k in subs:
            colon = colon_into_ring(n, k.elements)
            back = colon_set_into_module(m6, n.elements, colon.elements)
            assert k.elements <= back


def test_structural_equality_dedupes(z6):
    a = zn_over_zk(z6, 2)
    b = quotient_module(self_module(z6), submodule_from_set(self_module(z6), {0, 2, 4}))
    # Z6/(2Z6) has two cosets with representative arithmetic mod 2
    assert a == b
    assert hash(a) == hash(b)


def test_mixed_presentation_products():
    from scomult.rings import make_ring_table
    from test_rings import F4_ADD, F4_MUL

    f4 = make_ring_table(F4_ADD, F4_MUL, 0, 1)
    z2 = make_ring_zn([2])
    ring = product_ring(f4, z2)
    prod = product_module(self_module(f4), self_module(z2), ring=ring)
    assert prod.size == 8
    assert len(enumerate_submodules(prod)) == 4

"""Ring construction, ideal arithmetic, and m.c.s. handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from scomult import rings
from scomult.catalog import generate_catalog
from scomult.errors import (
    AxiomViolation,
    ContainsZero,
    MissingOne,
    NotClosed,
    SizeCapExceeded,
)
from scomult.modules import self_module, zero_divisors_on
from scomult.mutations import mutation_catalog_params
from scomult.rings import (
    _check_tables,
    cyclic_mcs,
    divides,
    enumerate_ideals,
    enumerate_mcs,
    has_maximal_multiple,
    ideal_sum,
    jacobson_radical,
    make_ring_table,
    make_ring_zn,
    maximal_ideals,
    minimal_nonzero_ideals,
    prime_ideals,
    product_ring,
    saturation,
    submodule_closure,
    submodule_from_set,
    units,
    validate_mcs,
)

from conftest import (
    brute_force_ideals,
    ideal_annihilator,
    ideal_colon,
    ideal_intersection,
    ideal_product,
)

F4_ADD = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
F4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


def test_zn_construction():
    z6 = make_ring_zn([6])
    assert z6.order == 6 and z6.one == 1 and z6.zero == 0
    z23 = make_ring_zn([2, 3])
    assert z23.order == 6
    assert z23.label(z23.one) == "(1,1)"
    assert z23 != z6


def test_zn_rejects_degenerate_moduli():
    with pytest.raises(AxiomViolation):
        make_ring_zn([1])
    with pytest.raises(SizeCapExceeded):
        make_ring_zn([65])


def test_table_ring_validation():
    f4 = make_ring_table(F4_ADD, F4_MUL, 0, 1)
    assert f4.order == 4
    assert units(f4) == frozenset({1, 2, 3})
    bad_mul = [row[:] for row in F4_MUL]
    bad_mul[2][2] = 2          # breaks associativity/commutativity structure
    with pytest.raises(AxiomViolation):
        make_ring_table(F4_ADD, bad_mul, 0, 1)


def test_equal_ring_tables_are_checked_once(monkeypatch):
    """Pooled ring tables skip the axiom check and share their rows, while
    each ring keeps its own name; invalid tables raise every time."""
    calls = []
    check = rings._check_tables
    monkeypatch.setattr(rings, "_POOL", {})
    monkeypatch.setattr(rings, "_check_tables",
                        lambda *args: calls.append(args) or check(*args))
    first = make_ring_table(F4_ADD, F4_MUL, 0, 1, name="F4")
    second = make_ring_table([row[:] for row in F4_ADD], F4_MUL, 0, 1, name="GF4")
    assert len(calls) == 1
    assert first == second and second.name == "GF4"
    assert second._add_rows is first._add_rows and second._act_rows is first._act_rows
    make_ring_table(Z2_ADD, Z2_MUL, 0, 1)
    assert len(calls) == 2
    bad_mul = [row[:] for row in F4_MUL]
    bad_mul[2][2] = 2
    for _ in range(2):
        with pytest.raises(AxiomViolation):
            make_ring_table(F4_ADD, bad_mul, 0, 1)
    assert len(calls) == 4


def test_zero_ring_rejected():
    with pytest.raises(AxiomViolation):
        make_ring_table([[0]], [[0]], 0, 0)


Z2_ADD = ((0, 1), (1, 0))
Z2_MUL = ((0, 0), (0, 1))
NOT_ASSOCIATIVE_3 = ((0, 1, 2), (1, 0, 1), (2, 1, 0))    # (1+1)+2 != 1+(1+2)


def _z2_cubed_mul(basis_products):
    """Bilinear multiplication on Z2^3 (elements as bit masks) from e_i*e_j."""
    def mul(x, y):
        out = 0
        for i in range(3):
            for j in range(3):
                if x >> i & 1 and y >> j & 1:
                    out ^= basis_products[i][j]
        return out
    return tuple(tuple(mul(x, y) for y in range(8)) for x in range(8))


@pytest.mark.parametrize("add, mul, zero, one, axiom, witness", [
    (((0, 1), (1,)), Z2_MUL, 0, 1, "addition table has wrong shape", ()),
    (Z2_ADD, ((0, 0),), 0, 1, "multiplication table has wrong shape", ()),
    (((0, 1), (1, 2)), Z2_MUL, 0, 1, "addition table entry out of range", (1, 1)),
    (Z2_ADD, ((0, 0), (0, -1)), 0, 1,
     "multiplication table entry out of range", (1, 1)),
    (Z2_ADD, Z2_MUL, 9, 1, "0 out of range", (9,)),
    (Z2_ADD, Z2_MUL, 0, 7, "1 out of range", (7,)),
    (Z2_ADD, Z2_MUL, 0, 0, "1 must differ from 0", ()),
    (Z2_ADD, Z2_MUL, 1, 0, "0 is not an additive identity", (0,)),
    (Z2_ADD, ((0, 0), (0, 0)), 0, 1, "1 is not a multiplicative identity", (1,)),
    (((0, 1), (1, 1)), Z2_MUL, 0, 1, "missing additive inverse", (1,)),
    (((0, 1, 2), (1, 2, 0), (2, 1, 0)), ((0, 0, 0), (0, 1, 2), (0, 2, 1)), 0, 1,
     "addition not commutative", (1, 2)),
    (Z2_ADD, ((0, 1), (0, 1)), 0, 1, "multiplication not commutative", (0, 1)),
    (NOT_ASSOCIATIVE_3, ((0, 0, 0), (0, 1, 2), (0, 2, 0)), 0, 1,
     "addition not associative", (1, 1, 2)),
    (Z2_ADD, ((1, 0), (0, 1)), 0, 1, "multiplication not distributive", (0, 0, 0)),
    # Z2^3 with a*a = b, a*b = 0, b*b = 1: (a*a)*b = 1 but a*(a*b) = 0
    (tuple(tuple(x ^ y for y in range(8)) for x in range(8)),
     _z2_cubed_mul(((1, 2, 4), (2, 4, 0), (4, 0, 1))), 0, 1,
     "multiplication not associative", (2, 2, 4)),
])
def test_ring_table_violations_are_pinned(add, mul, zero, one, axiom, witness):
    """A ring's tables are checked as R acting on itself, 1 != 0, commutative."""
    with pytest.raises(AxiomViolation) as err:
        make_ring_table(add, mul, zero, one)
    assert (err.value.axiom, err.value.witness) == (axiom, witness)


def test_ideal_closure_pins(z6):
    assert submodule_closure(z6, [2]).members() == [0, 2, 4]
    assert submodule_closure(z6, []).members() == [0]
    assert submodule_closure(z6, [5]).members() == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("build, indices, outside", [
    (submodule_closure, [7], (7,)),
    (submodule_closure, [-1], (-1,)),
    (submodule_from_set, [0, 1, 2, 3, 4, 5, -1], (-1,)),
    (validate_mcs, [1, 9], (9,)),
    (validate_mcs, [1, -5], (-5,)),
])
def test_indices_outside_the_ring_are_rejected(z6, build, indices, outside):
    with pytest.raises(AxiomViolation) as err:
        build(z6, indices)
    assert (err.value.axiom, err.value.witness) == ("element out of range", outside)


def test_enumerate_ideals_pins(z6):
    assert [i.members() for i in enumerate_ideals(z6)] == [
        [0], [0, 3], [0, 2, 4], [0, 1, 2, 3, 4, 5]]
    z4 = make_ring_zn([4])
    assert [i.members() for i in enumerate_ideals(z4)] == [[0], [0, 2], [0, 1, 2, 3]]
    z5 = make_ring_zn([5])
    assert len(enumerate_ideals(z5)) == 2


@pytest.mark.parametrize("moduli", [[2], [3], [4], [5], [6], [7], [8], [2, 3], [2, 4], [2, 2, 2]])
def test_enumerate_ideals_matches_brute_force(moduli):
    ring = make_ring_zn(moduli)
    expected = brute_force_ideals(ring)
    assert [i.elements for i in enumerate_ideals(ring)] == expected


def test_enumerate_ideals_brute_force_table_ring():
    f4 = make_ring_table(F4_ADD, F4_MUL, 0, 1)
    assert [i.elements for i in enumerate_ideals(f4)] == brute_force_ideals(f4)


def test_maximal_ideals_pins(z6):
    assert {i.elements for i in maximal_ideals(z6)} == {
        frozenset({0, 3}), frozenset({0, 2, 4})}
    z4 = make_ring_zn([4])
    assert [i.members() for i in maximal_ideals(z4)] == [[0, 2]]
    z5 = make_ring_zn([5])
    assert [i.members() for i in maximal_ideals(z5)] == [[0]]


def test_prime_equals_maximal_on_finite_rings():
    for moduli in ([6], [4], [12], [2, 3], [3, 3]):
        ring = make_ring_zn(moduli)
        assert {i.elements for i in prime_ideals(ring)} == \
            {i.elements for i in maximal_ideals(ring)}


def test_jacobson_pins(z6):
    assert jacobson_radical(z6).members() == [0]
    assert jacobson_radical(make_ring_zn([4])).members() == [0, 2]
    assert jacobson_radical(make_ring_zn([5])).members() == [0]
    assert jacobson_radical(make_ring_zn([12])).members() == [0, 6]


def test_jacobson_inside_every_maximal():
    for moduli in ([6], [8], [9], [12], [2, 4]):
        ring = make_ring_zn(moduli)
        jac = jacobson_radical(ring).elements
        assert all(jac <= m.elements for m in maximal_ideals(ring))


def test_ideal_ops_pins(z6):
    evens = submodule_from_set(z6, {0, 2, 4})
    threes = submodule_from_set(z6, {0, 3})
    assert ideal_annihilator(evens).members() == [0, 3]
    assert ideal_colon(threes, evens).members() == [0, 3]
    zero = submodule_from_set(z6, {0})
    assert ideal_colon(evens, zero).members() == [0, 1, 2, 3, 4, 5]
    assert ideal_sum(evens, threes).members() == [0, 1, 2, 3, 4, 5]
    assert ideal_product(evens, threes).members() == [0]
    assert ideal_intersection(evens, threes).members() == [0]


def test_ideal_arithmetic_with_zero_off_index_0(z6):
    """Z6 with residue x stored at index x + 1 (mod 6), so zero sits at index 1."""
    residue = [(i - 1) % 6 for i in range(6)]

    def table(op):
        return [[(op(residue[i], residue[j]) + 1) % 6 for j in range(6)]
                for i in range(6)]

    def shift(ideal):
        return frozenset((x + 1) % 6 for x in ideal.elements)

    shifted = make_ring_table(table(z6.add), table(z6.mul), zero=1, one=2)
    ideals = enumerate_ideals(z6)
    shifted_ideals = enumerate_ideals(shifted)
    assert sorted(map(shift, ideals), key=lambda s: (len(s), sorted(s))) == \
        [i.elements for i in shifted_ideals]
    by_set = {i.elements: i for i in shifted_ideals}
    for x in z6.elements():
        assert submodule_closure(shifted, [(x + 1) % 6]).elements == \
            shift(submodule_closure(z6, [x]))
    for i in ideals:
        si = by_set[shift(i)]
        assert ideal_annihilator(si).elements == shift(ideal_annihilator(i))
        for j in ideals:
            sj = by_set[shift(j)]
            assert ideal_sum(si, sj).elements == shift(ideal_sum(i, j))
            assert ideal_product(si, sj).elements == shift(ideal_product(i, j))
            assert ideal_colon(si, sj).elements == shift(ideal_colon(i, j))


def test_colon_product_contained(z6):
    ideals = enumerate_ideals(z6)
    for i in ideals:
        for j in ideals:
            colon = ideal_colon(i, j)
            products = {z6.mul(x, a) for x in colon.elements for a in j.elements}
            assert products <= i.elements


def test_units_and_zero_divisors(z6):
    assert units(z6) == frozenset({1, 5})
    assert units(make_ring_zn([5])) == frozenset({1, 2, 3, 4})
    assert zero_divisors_on(self_module(z6)) == frozenset({0, 2, 3, 4})


def test_units_never_divide_zero():
    for moduli in ([2], [4], [6], [9], [12], [2, 3], [2, 4], [2, 2, 2]):
        ring = make_ring_zn(moduli)
        assert not units(ring) & zero_divisors_on(self_module(ring))


def test_validate_mcs_pins(z6):
    assert validate_mcs(z6, {1, 3}).members() == [1, 3]
    assert validate_mcs(z6, {1, 5}).members() == [1, 5]
    with pytest.raises(NotClosed) as err:
        validate_mcs(z6, {1, 2})
    assert err.value.pair == (2, 2)
    with pytest.raises(ContainsZero):
        validate_mcs(z6, {0, 1})
    with pytest.raises(MissingOne):
        validate_mcs(z6, {3})


def test_saturation_pins(z6, s13, s1):
    assert saturation(s13).members() == [1, 3, 5]
    assert saturation(s1).members() == [1, 5]
    sat = saturation(s13)
    assert saturation(sat).elements == sat.elements


def test_divides_and_maximal_multiple(z6, s13):
    assert divides(z6, 3, 3) and divides(z6, 1, 3)
    assert not divides(z6, 3, 1)
    assert has_maximal_multiple(s13).get("s") == 3
    assert has_maximal_multiple(validate_mcs(z6, {1})).get("s") == 1
    # 5 is also divisible by everything in {1, 5}; 1 just comes first
    s15 = validate_mcs(z6, {1, 5})
    assert has_maximal_multiple(s15).get("s") == 1
    assert divides(z6, 1, 5) and divides(z6, 5, 5)


def test_maximal_multiple_always_exists_finitely():
    """The product of all elements of S lies in S and is a multiple of each,
    so T-LOC never meets an m.c.s. without a maximal multiple: checked on
    every m.c.s. of the default and reduced catalogs too."""
    families = [enumerate_mcs(make_ring_zn(moduli), cap=16)
                for moduli in ([6], [8], [12], [2, 4])]
    for catalog in (generate_catalog(), generate_catalog(mutation_catalog_params())):
        families += [catalog.mcs[ring] for ring in catalog.rings]
    for mcs in (m for family in families for m in family):
        witness = has_maximal_multiple(mcs)
        assert witness is not None and witness.validate()


def test_enumerate_mcs_z6(z6):
    found = enumerate_mcs(z6)
    assert [s.members() for s in found] == [
        [1], [1, 3], [1, 4], [1, 5], [1, 2, 4], [1, 3, 5], [1, 2, 4, 5]]


def test_cyclic_mcs_subset_of_exhaustive(z6):
    exhaustive = {s.elements for s in enumerate_mcs(z6)}
    assert {s.elements for s in cyclic_mcs(z6)} <= exhaustive


def test_product_ring_and_split():
    z2, z3 = make_ring_zn([2]), make_ring_zn([3])
    prod = product_ring(z2, z3)
    assert prod == make_ring_zn([2, 3])
    f4 = make_ring_table(F4_ADD, F4_MUL, 0, 1)
    mixed = product_ring(f4, z2)
    assert mixed.order == 8 and mixed.moduli is None
    assert units(mixed) == frozenset(
        a * 2 + b for a in units(f4) for b in units(z2))
    # (a, b) sits at index a*|R2| + b in every product, Z_n or table.
    for r1, r2 in ((z2, z3), (make_ring_zn([2, 2]), z3), (f4, z2)):
        prod = product_ring(r1, r2)
        n2 = r2.order
        assert prod.zero == r1.zero * n2 + r2.zero
        assert prod.one == r1.one * n2 + r2.one
        for a in r1.elements():
            for b in r2.elements():
                for c in r1.elements():
                    for d in r2.elements():
                        x, y = a * n2 + b, c * n2 + d
                        assert prod.add(x, y) == r1.add(a, c) * n2 + r2.add(b, d)
                        assert prod.mul(x, y) == r1.mul(a, c) * n2 + r2.mul(b, d)


def _residues(index, moduli):
    out = []
    for n in reversed(moduli):
        out.append(index % n)
        index //= n
    return tuple(reversed(out))


def _index(residues, moduli):
    index = 0
    for r, n in zip(residues, moduli):
        index = index * n + r
    return index


@pytest.mark.parametrize("moduli", [
    (2,), (12,), (64,), (2, 3), (2, 2, 3), (4, 16), (2, 2, 2, 2, 2, 2)])
def test_zn_tables_match_residue_arithmetic(moduli):
    ring = make_ring_zn(moduli)
    order = 1
    for n in moduli:
        order *= n
    assert ring.order == order and ring.moduli == moduli
    assert ring.zero == 0
    assert ring.one == _index((1,) * len(moduli), moduli)
    for a in range(order):
        ra = _residues(a, moduli)
        expected_label = str(a) if len(moduli) == 1 else \
            "(" + ",".join(str(x) for x in ra) + ")"
        assert ring.label(a) == expected_label
        assert ring.neg(a) == _index(
            tuple((-x) % n for x, n in zip(ra, moduli)), moduli)
        for b in range(order):
            rb = _residues(b, moduli)
            assert ring.add(a, b) == _index(
                tuple((x + y) % n for x, y, n in zip(ra, rb, moduli)), moduli)
            assert ring.mul(a, b) == _index(
                tuple((x * y) % n for x, y, n in zip(ra, rb, moduli)), moduli)
    _check_tables(ring._add_rows, ring._act_rows, ring.zero, ring.one)


def test_minimal_nonzero_ideals(z6):
    assert {i.elements for i in minimal_nonzero_ideals(z6)} == {
        frozenset({0, 3}), frozenset({0, 2, 4})}
    z4 = make_ring_zn([4])
    assert [i.members() for i in minimal_nonzero_ideals(z4)] == [[0, 2]]


@settings(max_examples=60, deadline=None)
@given(n=hst.integers(min_value=2, max_value=10),
       picks=hst.sets(hst.integers(min_value=1, max_value=9), max_size=4))
def test_saturation_properties(n, picks):
    ring = make_ring_zn([n])
    subset = {1} | {p % n for p in picks if p % n != 0}
    try:
        mcs = validate_mcs(ring, subset)
    except Exception:
        return
    sat = saturation(mcs)
    assert mcs.elements <= sat.elements
    assert saturation(sat).elements == sat.elements


def test_saturation_over_whole_catalog():
    catalog = generate_catalog()
    for ring in catalog.rings:
        for mcs in catalog.mcs[ring]:
            sat = saturation(mcs)          # validates and checks containment
            assert saturation(sat).elements == sat.elements

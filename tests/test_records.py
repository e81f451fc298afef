"""What callers see of the value records: equality and hashing over the
identity fields only, repr text, read-only fields, truthiness and the report
document.  Pinned so that a change of representation keeps all of it."""

import pytest

from scomult.catalog import CatalogParams, generate_catalog
from scomult.modules import self_module
from scomult.mutations import mutation_catalog_params
from scomult.rings import MCS, Submodule, make_ring_zn, submodule_closure, validate_mcs
from scomult.s_theory import ForEachResult, comultiplication_result
from scomult.statements import StatementReport


@pytest.fixture(scope="module")
def z6():
    return make_ring_zn((6,))


def test_submodule_identity_ignores_its_generators(z6):
    m6 = self_module(z6)
    spanned = submodule_closure(m6, [2])
    plain = Submodule(m6, frozenset({0, 2, 4}))
    assert spanned.generators == (2,) and plain.generators is None
    assert spanned == plain and hash(spanned) == hash(plain)
    assert len({spanned, plain}) == 1
    assert plain != Submodule(m6, frozenset({0, 3}))
    assert plain != Submodule(z6, frozenset({0, 2, 4}))      # an ideal, not M
    assert plain != (m6, frozenset({0, 2, 4}))


def test_mcs_identity_ignores_its_sorted_members(z6):
    found, built = validate_mcs(z6, {1, 3}), MCS(z6, frozenset({3, 1}))
    assert found is not built and found == built and hash(found) == hash(built)
    object.__setattr__(built, "_sorted", (3, 1))
    assert list(built) == [3, 1] and list(found) == [1, 3]
    assert found == built and hash(found) == hash(built)
    assert found != MCS(z6, frozenset({1}))
    assert found != MCS(make_ring_zn((2, 3)), frozenset({1, 3}))


def test_catalog_identity_ignores_its_memo():
    params = mutation_catalog_params()
    first, second = generate_catalog(params), generate_catalog(params)
    first._memo["filled"] = True
    assert second._memo == {} and first == second and not first != second
    assert first != generate_catalog(CatalogParams(max_ring_order=4))
    with pytest.raises(TypeError):
        hash(first)


def test_catalog_params_compare_and_hash_by_value():
    assert CatalogParams() == CatalogParams() and hash(CatalogParams()) == hash(CatalogParams())
    assert mutation_catalog_params() == CatalogParams(
        max_ring_order=6, product_moduli=((2, 2), (2, 3)), max_module_carrier=8)
    assert mutation_catalog_params() != CatalogParams()


def test_record_repr_text_is_pinned(z6):
    m6 = self_module(z6)
    assert repr(CatalogParams()) == (
        "CatalogParams(max_ring_order=12, product_moduli=((2, 2), (2, 3), (2, 4), "
        "(3, 3), (2, 2, 2), (2, 2, 3)), max_module_carrier=16, mcs_exhaustive_limit=8, "
        "hom_enum_limit=8, max_direct_sums=3, max_quotients=2, triple_family_limit=12)")
    assert repr(mutation_catalog_params()) == (
        "CatalogParams(max_ring_order=6, product_moduli=((2, 2), (2, 3)), "
        "max_module_carrier=8, mcs_exhaustive_limit=8, hom_enum_limit=8, "
        "max_direct_sums=3, max_quotients=2, triple_family_limit=12)")
    assert repr(submodule_closure(m6, [2])) == (
        "Submodule(module=Module(Z6 over Z6), elements=frozenset({0, 2, 4}), "
        "generators=(2,))")
    assert repr(Submodule(z6, frozenset({0, 3}))) == (
        "Submodule(module=Ring(Z6), elements=frozenset({0, 3}), generators=None)")
    assert repr(validate_mcs(z6, {1, 3})) == (
        "MCS(ring=Ring(Z6), elements=frozenset({1, 3}))")


def test_record_fields_refuse_assignment(z6):
    submodule = submodule_closure(self_module(z6), [3])
    mcs = validate_mcs(z6, {1, 5})
    params = CatalogParams()
    for record, names in ((submodule, ("module", "elements", "generators")),
                          (mcs, ("ring", "elements")),
                          (params, ("max_ring_order", "product_moduli"))):
        for name in names + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for name in names:
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert submodule.elements == frozenset({0, 3}) and submodule.generators == (3,)
    assert mcs.elements == frozenset({1, 5}) and params.max_ring_order == 12


def test_for_each_result_is_true_exactly_when_it_holds(z6):
    m6 = self_module(z6)
    some = Submodule(m6, frozenset({0, 3}))
    assert bool(ForEachResult(False, ((some, None),), some)) is False
    assert bool(ForEachResult(True, (), None)) is True
    for module in (m6, self_module(make_ring_zn((2, 2)))):
        result = comultiplication_result(module)
        assert bool(result) == result.holds


def test_statement_report_json_is_pinned():
    bare = StatementReport("T-X", "a title", "pass", 3, None, 1.23456, {})
    assert bare.to_json() == {"id": "T-X", "title": "a title", "verdict": "pass",
                              "instances": 3, "ms": 1.235}
    full = StatementReport("T-X", "a title", "fail", 0, {"error": "boom"}, 0.0004,
                           {"skips": 2})
    document = full.to_json()
    assert list(document) == ["id", "title", "verdict", "instances", "ms", "notes",
                              "counterexample"]
    assert document == {"id": "T-X", "title": "a title", "verdict": "fail",
                        "instances": 0, "ms": 0.0, "notes": {"skips": 2},
                        "counterexample": {"error": "boom"}}

"""Catalog generation: determinism, coverage, and the count snapshot."""

import pytest

from scomult.catalog import MAX_RING_ORDER, CatalogParams, generate_catalog


@pytest.fixture(scope="module")
def default_catalog():
    return generate_catalog()


def test_count_snapshot(default_catalog):
    assert default_catalog.counts() == {
        "rings": 17,
        "modules": 67,
        "mcs": 103,
        "homs": 3606,
        "module_mcs_pairs": 298,
        "product_cases": 11,
        "triple_cases": 3,
    }


def test_minimum_coverage(default_catalog):
    counts = default_catalog.counts()
    assert counts["rings"] >= 15
    assert counts["module_mcs_pairs"] >= 40


def test_every_member_validates(default_catalog):
    for ring in default_catalog.rings:
        assert ring.order <= 64
        for module in default_catalog.modules[ring]:
            assert module.ring == ring
            assert module.size <= default_catalog.params.max_module_carrier
        for mcs in default_catalog.mcs[ring]:
            assert mcs.ring == ring and ring.one in mcs.elements


def test_zero_module_present_and_flagged(default_catalog):
    for ring in default_catalog.rings:
        zeros = [m for m in default_catalog.modules[ring] if m.is_zero_module]
        assert len(zeros) == 1


def test_generation_is_deterministic(default_catalog):
    again = generate_catalog()
    assert [r.name for r in again.rings] == [r.name for r in default_catalog.rings]
    for ring in again.rings:
        assert [m.name for m in again.modules[ring]] == \
            [m.name for m in default_catalog.modules[ring]]
        assert [s.members() for s in again.mcs[ring]] == \
            [s.members() for s in default_catalog.mcs[ring]]
        assert [f.values for f in again.homs[ring]] == \
            [f.values for f in default_catalog.homs[ring]]


def test_restricted_catalog():
    small = generate_catalog(CatalogParams(max_ring_order=8))
    orders = [r.order for r in small.rings]
    assert max(orders) <= 8
    assert any(r.moduli == (2, 2, 2) for r in small.rings)


def test_empty_catalog():
    empty = generate_catalog(CatalogParams(max_ring_order=1))
    assert empty.rings == ()
    assert empty.counts()["module_mcs_pairs"] == 0


@pytest.mark.parametrize("order", [MAX_RING_ORDER + 1, 20])
def test_ring_order_above_the_maximum_is_rejected(order):
    with pytest.raises(ValueError, match=f"at most {MAX_RING_ORDER}, got {order}"):
        generate_catalog(CatalogParams(max_ring_order=order))


def test_product_cases_live_on_catalog_rings(default_catalog):
    ring_set = set(default_catalog.rings)
    for case in default_catalog.product_cases + default_catalog.triple_cases:
        assert case.module.ring in ring_set
        assert case.mcs.ring == case.module.ring

"""Catalog generation: determinism, coverage, and the count snapshot."""

import hashlib

import pytest

from scomult import catalog as catalog_module
from scomult.catalog import MAX_RING_ORDER, CatalogParams, generate_catalog
from scomult.mutations import mutation_catalog_params


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


def _is_catalog_ring(catalog, ring):
    return any(ring is r for r in catalog.rings)


@pytest.mark.parametrize("params", [CatalogParams(), mutation_catalog_params()])
def test_product_cases_use_the_catalog_ring_objects(params, monkeypatch):
    """Factor, middle and product rings are looked up among the catalog's
    own rings, so generation builds each ring once.  A factor's self module
    may come from the cache filled by an earlier catalog, so its ring is
    only equal to the catalog's."""
    built = []
    real = catalog_module.make_ring_zn

    def counting(moduli):
        built.append(tuple(moduli))
        return real(moduli)

    monkeypatch.setattr(catalog_module, "make_ring_zn", counting)
    catalog = generate_catalog(params)
    assert built == [r.moduli for r in catalog.rings]
    cases = catalog.product_cases + catalog.triple_cases
    assert cases
    for case in cases:
        assert _is_catalog_ring(catalog, case.module.ring)
        assert case.mcs.ring is case.module.ring
        for module, mcs in case.factors:
            assert _is_catalog_ring(catalog, mcs.ring)
            assert module.ring == mcs.ring


def _catalog_digest(catalog):
    """SHA-256 over every ring, module, m.c.s., hom and product case."""
    digest = hashlib.sha256()
    seen = {}

    def module_key(m):
        if id(m) not in seen:
            seen[id(m)] = hashlib.sha256(repr((
                m.name, m.kind, m.ring.name, m._add_rows, m._act_rows,
                tuple(m.label(x) for x in m.elements()),
            )).encode()).hexdigest()
        return seen[id(m)]

    def feed(*item):
        digest.update(repr(item).encode())

    for ring in catalog.rings:
        feed("ring", ring.name, ring.zero, ring.one, ring._add_rows,
             ring._act_rows)
        for module in catalog.modules[ring]:
            feed("module", module_key(module))
        for mcs in catalog.mcs[ring]:
            feed("mcs", mcs.members())
        for f in catalog.homs[ring]:
            feed("hom", module_key(f.source), module_key(f.target), f.values)
    for case in catalog.product_cases + catalog.triple_cases:
        feed("case", module_key(case.module), case.mcs.members(),
             tuple((module_key(m), s.members()) for m, s in case.factors))
    return digest.hexdigest()


def test_catalog_digest_is_pinned(default_catalog):
    reduced = generate_catalog(mutation_catalog_params())
    assert _catalog_digest(default_catalog) == (
        "9d44a5099f508ac3e7d5889e2285e1aa7812125918768966dbc969a1a1c767f3")
    assert _catalog_digest(reduced) == (
        "d11563f512ce757eb05f3fe62ec849bfa9624c85e49fd8dee3c58e7ec804fab3")

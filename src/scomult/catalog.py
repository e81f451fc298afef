"""Catalog generation: the instance universe the statement suite runs over.

Everything is deterministic in the parameters: ring list, modules per ring,
multiplicatively closed sets per ring, homomorphism pools, and the product
cases used by the product-characterization statements.  The one-element
module is constructed per ring and flagged; statement checkers skip it
except where a statement's content forces degenerate instances.  A catalog
also owns a private memo of data derived from it, empty when generated and
dropped with it: the statement checkers keep there the values that no
toolbox field reaches (listed in the `statements` module docstring).
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import NamedTuple

from .modules import (
    Module,
    direct_sum_module,
    enumerate_submodules,
    product_module,
    quotient_module,
    self_module,
    zero_module,
    zn_over_zk,
)
from .morphisms import (
    _linear_homs,
    identity_hom,
    inclusion_hom,
    multiplication_hom,
    projection_hom,
)
from .rings import (
    MCS,
    cyclic_mcs,
    enumerate_mcs,
    make_ring_zn,
    product_mcs,
)

# Largest ring order a catalog may ask for; generate_catalog rejects a larger
# max_ring_order and the CLI a larger --max-ring.
MAX_RING_ORDER = 12


class CatalogParams(NamedTuple):
    max_ring_order: int = MAX_RING_ORDER
    product_moduli: tuple = ((2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2), (2, 2, 3))
    max_module_carrier: int = 16
    mcs_exhaustive_limit: int = 8
    hom_enum_limit: int = 8
    max_direct_sums: int = 3
    max_quotients: int = 2
    triple_family_limit: int = 12


class ProductCase(NamedTuple):
    module: Module
    mcs: MCS
    factors: tuple        # ((module_i, mcs_i), ...)


class Catalog:
    """The generated instances.  Two catalogs are equal when every field but
    `_memo` is: toolbox-free checker values derived from the catalog, kept
    as long as it lives and filled the first time a checker asks (see the
    `statements` module docstring)."""

    def __init__(self, params, rings, modules, mcs, homs, product_cases,
                 triple_cases):
        self.params = params
        self.rings = rings
        self.modules = modules
        self.mcs = mcs
        self.homs = homs
        self.product_cases = product_cases
        self.triple_cases = triple_cases
        self._memo = {}

    def _identity(self):
        return (self.params, self.rings, self.modules, self.mcs, self.homs,
                self.product_cases, self.triple_cases)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity() == other._identity()

    def module_mcs_pairs(self, include_zero=False):
        for ring in self.rings:
            for module in self.modules[ring]:
                if module.is_zero_module and not include_zero:
                    continue
                for mcs in self.mcs[ring]:
                    yield module, mcs

    def nonzero_modules(self):
        for ring in self.rings:
            for module in self.modules[ring]:
                if not module.is_zero_module:
                    yield module

    def counts(self):
        return {
            "rings": len(self.rings),
            "modules": sum(len(v) for v in self.modules.values()),
            "mcs": sum(len(v) for v in self.mcs.values()),
            "homs": sum(len(v) for v in self.homs.values()),
            "module_mcs_pairs": sum(1 for _ in self.module_mcs_pairs()),
            "product_cases": len(self.product_cases),
            "triple_cases": len(self.triple_cases),
        }


def _divisors(n):
    return [d for d in range(2, n) if n % d == 0]


def _dedupe(seq):
    seen = {}
    for item in seq:
        seen.setdefault(item, item)
    return list(seen)


def _ring_modules(ring, params):
    mods = [self_module(ring)]
    cap = params.max_module_carrier
    if ring.moduli is not None and len(ring.moduli) == 1:
        n = ring.moduli[0]
        for d in _divisors(n):
            mods.append(zn_over_zk(ring, d))
        sums = []
        divs = [d for d in range(2, n + 1) if n % d == 0]
        for k in (2, 3, 4):
            for combo in combinations_with_replacement(divs, k):
                carrier = 1
                for d in combo:
                    carrier *= d
                if 1 < carrier <= cap:
                    sums.append((carrier, combo))
        sums.sort()
        for _, combo in sums[: params.max_direct_sums]:
            mods.append(direct_sum_module(ring, combo))
        base = next((m for m in mods if m.kind == "direct_sum"), None)
        if base is not None:
            quotients = 0
            for sub in enumerate_submodules(base):
                if sub.is_zero() or sub.is_full():
                    continue
                mods.append(quotient_module(base, sub))
                quotients += 1
                if quotients >= params.max_quotients:
                    break
    mods = [m for m in _dedupe(mods) if m.size <= cap]
    mods.append(zero_module(ring))
    return tuple(mods)


def _ring_mcs(ring, params):
    if ring.order <= params.mcs_exhaustive_limit:
        return enumerate_mcs(ring, cap=params.mcs_exhaustive_limit)
    return cyclic_mcs(ring)


def _ring_homs(ring, modules, params, additive):
    pool = []
    for module in modules:
        if module.is_zero_module:
            continue
        if module.size <= params.hom_enum_limit:
            pool.extend(_linear_homs(module, module, additive))
        else:
            pool.append(identity_hom(module))
            pool.extend(multiplication_hom(module, a) for a in ring.elements())
        picked = 0
        for sub in enumerate_submodules(module):
            if sub.is_zero() or sub.is_full():
                continue
            pool.append(inclusion_hom(sub))
            pool.append(projection_hom(module, sub))
            picked += 1
            if picked >= 3:
                break
    return tuple(_dedupe(pool))


def _factor_pool(ring, params):
    """Small module/mcs pools for the factors of product cases."""
    modules = [self_module(ring)]
    if ring.moduli is not None and len(ring.moduli) == 1:
        divs = _divisors(ring.moduli[0])
        if divs:
            modules.append(zn_over_zk(ring, divs[0]))
    return modules, _ring_mcs(ring, params)[:3]


def generate_catalog(params=None):
    params = params or CatalogParams()
    if params.max_ring_order > MAX_RING_ORDER:
        raise ValueError(f"max_ring_order must be at most {MAX_RING_ORDER}, "
                         f"got {params.max_ring_order}")
    small_products = [tuple(moduli) for moduli in params.product_moduli
                      if math.prod(moduli) <= params.max_ring_order]
    rings = [make_ring_zn([n]) for n in range(2, params.max_ring_order + 1)]
    rings = _dedupe(rings + [make_ring_zn(moduli) for moduli in small_products])

    modules = {ring: list(_ring_modules(ring, params)) for ring in rings}

    by_moduli = {r.moduli: r for r in rings}
    product_cases = []
    triple_cases = []
    for moduli in small_products:
        factor_rings = [by_moduli.get((m,)) for m in moduli]
        if any(r is None for r in factor_rings):
            continue
        big = by_moduli[moduli]
        if len(moduli) == 2:
            (mods1, mcss1), (mods2, mcss2) = (_factor_pool(r, params)
                                              for r in factor_rings)
            for m1 in mods1:
                for m2 in mods2:
                    if m1.size * m2.size > params.max_module_carrier:
                        continue
                    prod = product_module(m1, m2, ring=big)
                    for s1 in mcss1:
                        for s2 in mcss2:
                            s = product_mcs(s1, s2, big)
                            product_cases.append(ProductCase(
                                prod, s, ((m1, s1), (m2, s2))
                            ))
        elif len(moduli) == 3:
            mid = by_moduli.get(moduli[:2]) or make_ring_zn(moduli[:2])
            factor_modules = [self_module(r) for r in factor_rings]
            mcs_pools = [enumerate_mcs(r, cap=params.mcs_exhaustive_limit)[:2]
                         for r in factor_rings]
            inner = product_module(factor_modules[0], factor_modules[1], ring=mid)
            nested = product_module(inner, factor_modules[2], ring=big)
            for s1 in mcs_pools[0]:
                for s2 in mcs_pools[1]:
                    s12 = product_mcs(s1, s2, mid)
                    for s3 in mcs_pools[2]:
                        s = product_mcs(s12, s3, big)
                        triple_cases.append(ProductCase(
                            nested, s,
                            ((factor_modules[0], s1), (factor_modules[1], s2),
                             (factor_modules[2], s3)),
                        ))

    for case in product_cases:
        ring = case.module.ring
        pool = modules[ring]
        if case.module not in pool:
            pool.insert(len(pool) - 1, case.module)

    modules = {ring: tuple(pool) for ring, pool in modules.items()}
    mcs = {}
    homs = {}
    additive = {}       # additive maps per pair of addition tables, for this call
    for ring in rings:
        mcs[ring] = _ring_mcs(ring, params)
        homs[ring] = _ring_homs(ring, modules[ring], params, additive)

    return Catalog(params, tuple(rings), modules, mcs, homs,
                   tuple(product_cases), tuple(triple_cases))

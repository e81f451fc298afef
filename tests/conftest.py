"""Shared fixtures, the independent brute-force oracles and cross-checks.

The oracles deliberately avoid the library's closure-based enumeration:
they filter raw subsets against the defining invariants, so agreement
between the two is a real check rather than a tautology.  The two
cross-checks at the end (every submodule of S^-1 M is a localization, and
S-multiplication in its existential-ideal form) live here, not in the
library, because only tests call them.
"""

import pytest

from scomult.catalog import generate_catalog
from scomult.localization import localize_module, localize_submodule
from scomult.modules import (
    direct_sum_module,
    enumerate_submodules,
    ideal_times_module_set,
    scalar_times_set,
    self_module,
    zn_over_zk,
)
from scomult import mutations
from scomult.rings import enumerate_ideals, make_ring_zn, validate_mcs
from scomult.statements import verify_all


def brute_force_ideals(ring):
    """Every subset containing 0 that passes the ideal invariant."""
    size = ring.order
    out = []
    for mask in range(1, 1 << size, 2):          # bit 0 = the zero element
        members = [i for i in range(size) if (mask >> i) & 1]
        ok = True
        for a in members:
            for b in members:
                if not (mask >> ring.add(a, b)) & 1:
                    ok = False
                    break
            if not ok:
                break
            for r in range(size):
                if not (mask >> ring.mul(r, a)) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(members))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def brute_force_submodules(module):
    """Every subset containing 0 that passes the submodule invariant."""
    size = module.size
    act_rows = [module.act_row(r) for r in module.ring.elements()]
    out = []
    for mask in range(1, 1 << size, 2):
        members = [i for i in range(size) if (mask >> i) & 1]
        ok = True
        for a in members:
            row = module._add_rows[a]
            for b in members:
                if not (mask >> row[b]) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for row in act_rows:
                for a in members:
                    if not (mask >> row[a]) & 1:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            out.append(frozenset(members))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


@pytest.fixture(scope="session")
def z6():
    return make_ring_zn([6])


@pytest.fixture(scope="session")
def m6(z6):
    return self_module(z6)


@pytest.fixture(scope="session")
def z4():
    return make_ring_zn([4])


@pytest.fixture(scope="session")
def m4(z4):
    return self_module(z4)


@pytest.fixture(scope="session")
def z2():
    return make_ring_zn([2])


@pytest.fixture(scope="session")
def v2(z2):
    """The plane over the two-element field."""
    return direct_sum_module(z2, [2, 2])


@pytest.fixture(scope="session")
def z2_over_z6(z6):
    return zn_over_zk(z6, 2)


@pytest.fixture(scope="session")
def s1(z6):
    return validate_mcs(z6, {1})


@pytest.fixture(scope="session")
def s13(z6):
    return validate_mcs(z6, {1, 3})


@pytest.fixture(scope="session")
def s124(z6):
    return validate_mcs(z6, {1, 2, 4})


@pytest.fixture(scope="session")
def mutation_run():
    """The mutation suite on its reduced catalog, run once per test session.

    Returns the suite's outcomes and every statement report behind them,
    keyed by mutant name, plus the default toolbox's reports under
    "default".
    """
    catalog = generate_catalog(mutations.mutation_catalog_params())
    reports = {"default": tuple(verify_all(catalog))}

    def recording_verify_all(cat, statement_ids=None, toolbox=None):
        out = verify_all(cat, statement_ids, toolbox)
        reports[toolbox.mutated[0]] = tuple(out)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mutations, "verify_all", recording_verify_all)
        outcomes = tuple(mutations.run_mutation_suite(catalog))
    return outcomes, reports


@pytest.fixture(scope="session")
def mutation_outcomes(mutation_run):
    return mutation_run[0]


@pytest.fixture(scope="session")
def mutation_reports(mutation_run):
    return mutation_run[1]


def all_submodules_are_localizations(module, mcs):
    """Every submodule of S^-1 M arises as S^-1 N for a submodule N of M."""
    locmod = localize_module(module, mcs)
    images = {localize_submodule(locmod, n).elements
              for n in enumerate_submodules(module)}
    return all(w.elements in images
               for w in enumerate_submodules(locmod.module))


def s_multiplication_general_form(module, mcs):
    """Some s and ideal I with sN <= IM <= N for every N: no reduction to (N:M)."""
    full = frozenset(module.elements())
    images = [ideal_times_module_set(module, i.elements, full)
              for i in enumerate_ideals(module.ring)]
    return all(
        any(any(scalar_times_set(module, s, n.elements) <= im <= n.elements
                for im in images)
            for s in mcs)
        for n in enumerate_submodules(module))

"""Deliberately broken predicate variants for exercising the suite.

A verifier that cannot fail verifies nothing.  Each mutant swaps one
toolbox entry for a subtly wrong implementation; running the statement
suite with a mutant installed must make at least one statement fail.

Two of the mutants cannot change any boolean verdict over a finite ring:
closure of S under products means a per-pair witness can always be
multiplied up to a uniform one, and the product of all elements of S is a
multiple of each of them.  Those mutants return witnesses they never
verified, and the suite catches them through witness revalidation.
"""

from __future__ import annotations

from .catalog import CatalogParams, generate_catalog
from .modules import Submodule, first_multiplier
from .s_theory import (
    _lemma_pair_search,
    _nonzero_submodule,
    _s_prime_subject,
    _s_second_search,
)
from .statements import Toolbox, verify_all
from .witnesses import Witness


def s_prime_quantifier_swap(module, p, mcs):
    """Checks each pair am in P on its own and reports the last pair's s."""
    p_set, colon = _s_prime_subject(module, p, mcs)
    ring = module.ring
    last = mcs.members()[0]
    for a in ring.elements():
        a_row = module.act_row(a)
        for m in module.elements():
            if a_row[m] not in p_set:
                continue
            found = None
            for s in mcs:
                if ring.mul(s, a) in colon or module.act(s, m) in p_set:
                    found = s
                    break
            if found is None:
                return None
            last = found
    return Witness.make("s-prime-submodule", module, p_set, mcs, last)


def s_second_drop_disjointness(module, n, mcs):
    """Skips the ann(N) and S disjointness precondition."""
    return _s_second_search(module, _nonzero_submodule(module, n), mcs)


def lemma_pair_direction_flip(module, mcs):
    """Tests sK <= N instead of sN <= K."""
    return _lemma_pair_search(
        module, mcs, lambda k, n: first_multiplier(module, mcs, k, n))


def uniform_multiple_unchecked(module, n, mcs):
    """Emits s = 1, the first element of S, unchecked, in place of e_S."""
    n_set = n.elements if isinstance(n, Submodule) else frozenset(n)
    return Witness.make("uniform-multiple", module, n_set, mcs, mcs.members()[0])


def localization_drop_ufactor(base, mcs):
    """K = {0}: relates pairs only when s'x - sx' is exactly zero."""
    return frozenset((base.zero,))


MUTANTS = {
    "s_prime_quantifier_swap": ("is_s_prime_submodule", s_prime_quantifier_swap),
    "s_second_drop_disjointness": ("is_s_second", s_second_drop_disjointness),
    "localization_drop_ufactor": ("localization_torsion", localization_drop_ufactor),
    "lemma_pair_direction_flip": ("lemma_pair_form", lemma_pair_direction_flip),
    "tm3_drop_uniform_clause": ("uniform_multiple", uniform_multiple_unchecked),
}


# The statements each mutant fails on the reduced catalog, in id order;
# `verify --mutation` exits 0 exactly when every mutant fails these.
KILLS = {
    "s_prime_quantifier_swap": ("P-SPR", "T-M3"),
    "s_second_drop_disjointness": ("T-M3", "T-SEC", "T-SSUM"),
    "localization_drop_ufactor": ("P-LOC", "T-LOC"),
    "lemma_pair_direction_flip": ("L-EQ",),
    "tm3_drop_uniform_clause": ("T-M3",),
}


def mutant_toolbox(name):
    field_name, fn = MUTANTS[name]
    return Toolbox(**{field_name: fn, "mutated": (name,)})


def mutation_catalog_params():
    """A reduced catalog; every mutant is killable inside the Z6 family."""
    return CatalogParams(max_ring_order=6, product_moduli=((2, 2), (2, 3)),
                         max_module_carrier=8)


def run_mutation_suite(catalog=None, statement_ids=None):
    """Run the suite once per mutant; report which statements each one broke.

    Returns a list of (mutant name, [failed statement ids]) in mutant-name
    order.  A mutant with an empty list escaped the suite.
    """
    if catalog is None:
        catalog = generate_catalog(mutation_catalog_params())
    outcomes = []
    for name in sorted(MUTANTS):
        reports = verify_all(catalog, statement_ids, toolbox=mutant_toolbox(name))
        failed = [r.statement_id for r in reports if r.verdict == "fail"]
        outcomes.append((name, failed))
    return outcomes


def kill_mismatches(outcomes, statement_ids=None):
    """(name, failed, expected) for each mutant of `run_mutation_suite`'s
    outcomes whose failed statements are not its `KILLS` among the
    statements that ran."""
    mismatches = []
    for name, failed in outcomes:
        expected = [sid for sid in KILLS[name]
                    if statement_ids is None or sid in statement_ids]
        if failed != expected:
            mismatches.append((name, failed, expected))
    return mismatches

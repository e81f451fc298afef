"""The table and closure axioms checked on additive generators.

`rings._check_tables` runs its associativity and distributive loops with
the middle variables over additive generators of the carrier and the
scalar over additive generators of the ring, and `rings._check_closed`
applies only the rows of the ring's generators; each runs the full scan
only after that reduced pass fails (README, "Axioms on generators").  The
oracles here compare both checks with a full scan that shares no code with
them, `reference_check_tables` and `reference_check_closed`, on the
default catalog's tables and subsets and on seeded corruptions and
relabelings of them.
"""

import random

import pytest

from scomult import modules, rings
from scomult.catalog import generate_catalog
from scomult.errors import AxiomViolation
from scomult.localization import localize_module
from scomult.modules import enumerate_submodules, make_module
from scomult.rings import (
    Submodule,
    _additive_generators,
    _ring_generators,
    enumerate_ideals,
    make_ring_table,
    make_ring_zn,
)

from conftest import reaches_every_element, reference_check_closed, reference_check_tables
from test_imports import run_fresh
from test_rings import F4_ADD, F4_MUL

# the axioms that the loops over generators check
LOOP_AXIOMS = {
    "addition not associative",
    "multiplication not distributive",
    "multiplication not distributive over scalar addition",
    "multiplication not associative",
}


@pytest.fixture(scope="module")
def catalog():
    return generate_catalog()


def outcome(check, *args):
    """(axiom, witness) of the AxiomViolation the check raises, or None."""
    try:
        check(*args)
    except AxiomViolation as err:
        return (err.axiom, err.witness)
    return None


def catalog_tables(catalog):
    """(add, act, zero, one, ring) of every catalog ring, ring None, and of
    every catalog module over its ring."""
    out = []
    for ring in catalog.rings:
        out.append((ring._add_rows, ring._act_rows, ring.zero, ring.one, None))
        out.extend((m._add_rows, m._act_rows, 0, ring.one, ring)
                   for m in catalog.modules[ring])
    return out


def relabeled(ring, rnd):
    """The ring's tables with its elements permuted so that zero moves."""
    perm = list(range(ring.order))
    while perm[ring.zero] == ring.zero:
        rnd.shuffle(perm)
    inverse = sorted(range(ring.order), key=perm.__getitem__)

    def table(rows):
        return tuple(tuple(perm[rows[inverse[a]][inverse[b]]]
                           for b in range(ring.order)) for a in range(ring.order))

    return (table(ring._add_rows), table(ring._act_rows), perm[ring.zero],
            perm[ring.one], None)


def corrupted(case, rnd):
    """The tables with 1-3 entries set to random values.  Entries of the
    rows and columns that the identity checks read are left alone, and a
    ring's entries are changed in symmetric pairs, so that most corrupted
    tables get past the cheap checks to the loops."""
    add, act, zero, one, ring = case
    add, act = [list(row) for row in add], [list(row) for row in act]
    size = len(add)
    for _ in range(rnd.randint(1, 3)):
        if rnd.random() < 0.5:
            a, b = (rnd.choice([x for x in range(size) if x != zero])
                    for _ in range(2))
            add[a][b] = add[b][a] = rnd.randrange(size)
        elif ring is None:
            a, b = (rnd.choice([x for x in range(size) if x != one])
                    for _ in range(2))
            act[a][b] = act[b][a] = rnd.randrange(size)
        else:
            r = rnd.choice([x for x in range(len(act)) if x != one])
            act[r][rnd.randrange(size)] = rnd.randrange(size)
    return (tuple(map(tuple, add)), tuple(map(tuple, act)), zero, one, ring)


def test_generators_reach_every_element(catalog):
    """The cached generators of every catalog ring and of every ring of
    a localization, and the generators of every module table and of every
    localized module, reach every element by left-normed sums."""
    ring_count = module_count = 0
    for ring in catalog.rings:
        localized = [localize_module(module, mcs)
                     for module in catalog.modules[ring] for mcs in catalog.mcs[ring]]
        for base in [ring] + [loc.locring.ring for loc in localized]:
            gens = _ring_generators(base)
            assert base._generators is gens is _ring_generators(base)
            assert reaches_every_element(base._add_rows, base.zero, gens)
            ring_count += 1
        for module in [*catalog.modules[ring], *(loc.module for loc in localized)]:
            gens = _additive_generators(module._add_rows, 0)[0]
            assert reaches_every_element(module._add_rows, 0, gens)
            module_count += 1
    assert ring_count > 100 and module_count > 400


def test_table_checks_agree_with_the_full_scan(catalog):
    """Every catalog ring and module table, seeded relabelings of every
    catalog ring with zero moved, and seeded corruptions of all of them:
    `_check_tables` raises the (axiom, witness) of the full scan, or
    passes where it passes, and the reduced pass alone fails exactly when
    the full scan's loops do."""
    rnd = random.Random(35)
    cases = catalog_tables(catalog)
    cases += [relabeled(ring, rnd) for ring in catalog.rings for _ in range(2)]
    cases += [corrupted(case, rnd) for case in cases if len(case[0]) > 2
              for _ in range(40)]
    tally = {"valid": 0, "loops": 0, "early": 0}
    for add, act, zero, one, ring in cases:
        expected = reference_check_tables(add, act, zero, one, ring)
        assert outcome(rings._check_tables, add, act, zero, one, ring) == expected
        if expected is None or expected[0] in LOOP_AXIOMS:
            gens = _additive_generators(add, zero)[0]
            scalars = gens if ring is None else _ring_generators(ring)
            reduced = outcome(rings._axiom_loops, add, act, *(
                (add, act) if ring is None else (ring._add_rows, ring._act_rows)),
                gens, scalars)
            assert (reduced is None) == (expected is None)
            tally["valid" if expected is None else "loops"] += 1
        else:
            tally["early"] += 1
    assert tally["valid"] >= 300 and tally["loops"] >= 2500 and tally["early"] >= 400


def test_closure_checks_agree_with_the_full_scan(catalog):
    """Every ideal and submodule of the catalog, of seeded relabelings of
    its rings, seeded random subsets and seeded additive subgroups of each
    base: `_check_closed` raises the (axiom, witness) of the full scan, or
    passes where it passes."""
    rnd = random.Random(3535)
    bases = []
    for ring in catalog.rings:
        bases.append((ring, enumerate_ideals(ring)))
        bases.extend((m, enumerate_submodules(m)) for m in catalog.modules[ring])
        table = make_ring_table(*relabeled(ring, rnd)[:4])
        bases.append((table, enumerate_ideals(table)))
    tally = {"closed": 0, "action": 0, "other": 0}
    for base, closed in bases:
        subsets = [n.elements for n in closed]
        for _ in range(60):
            picks = rnd.sample(range(base.size), rnd.randint(1, base.size))
            subsets.append(frozenset(picks + [base.zero] * rnd.randint(0, 1)))
            subgroup, frontier = {base.zero}, [base.zero]
            while frontier:
                x = frontier.pop()
                for g in picks[:2]:
                    y = base.add(x, g)
                    if y not in subgroup:
                        subgroup.add(y)
                        frontier.append(y)
            subsets.append(frozenset(subgroup))
        for subset in subsets:
            expected = reference_check_closed(base, subset)
            assert outcome(rings._check_closed, base, subset, None) == expected
            tally["closed" if expected is None else
                  "action" if "under addition" not in expected[0]
                  and "contain 0" not in expected[0] else "other"] += 1
    assert tally["closed"] >= 8000 and tally["action"] >= 250 and tally["other"] >= 3000


def test_a_default_run_never_scans_in_full():
    """A default catalog and `verify_all` in a fresh process check 161
    tables and 2,961 subsets, each on generators only: the full scan, the
    one pass that gets a range of elements, runs on none of them.  (T-COM
    reads S^-1 M != 0 off the torsion set without building S^-1 M.)"""
    out = run_fresh("""
        from scomult import generate_catalog, rings
        from scomult.statements import verify_all

        calls = {}
        for name in ("_axiom_loops", "_action_loops"):
            def counting(*args, real=getattr(rings, name), name=name):
                key = (name, range in map(type, args))
                calls[key] = calls.get(key, 0) + 1
                return real(*args)
            setattr(rings, name, counting)
        verify_all(generate_catalog())
        print(sorted(calls.items()))
    """)
    assert out.strip() == str([(("_action_loops", False), 2961),
                               (("_axiom_loops", False), 161)])


def fails_on_generators(monkeypatch, name):
    """Make the reduced pass of `rings.<name>` fail on any input, and
    return the list of the full passes it then runs.  Only a full pass
    gets a range of elements."""
    real, full = getattr(rings, name), []

    def broken(*args):
        if range not in map(type, args):
            raise AxiomViolation("injected failure on generators")
        full.append(args)
        return real(*args)

    monkeypatch.setattr(rings, name, broken)
    return full


def test_a_reduced_table_pass_that_disagrees_raises(monkeypatch):
    """Valid ring and module tables whose reduced pass fails are scanned in
    full, and the disagreement raises rather than passes."""
    z6 = make_ring_zn([6])
    z3_add = [[(x + y) % 3 for y in range(3)] for x in range(3)]
    z3_act = [[r * x % 3 for x in range(3)] for r in range(6)]
    full = fails_on_generators(monkeypatch, "_axiom_loops")
    monkeypatch.setattr(rings, "_POOL", {})
    monkeypatch.setattr(modules, "_MODULE_CACHE", {})
    with pytest.raises(AssertionError):
        make_ring_table(F4_ADD, F4_MUL, 0, 1)
    with pytest.raises(AssertionError):
        make_module(z6, z3_add, z3_act)
    assert len(full) == 2


def test_a_reduced_closure_pass_that_disagrees_raises(monkeypatch):
    """A closed subset whose reduced pass fails is checked on every row,
    and the disagreement raises rather than passes."""
    full = fails_on_generators(monkeypatch, "_action_loops")
    with pytest.raises(AssertionError):
        Submodule(make_ring_zn([6]), frozenset({0, 3}))
    assert len(full) == 1


def test_the_generator_walk_decides_addition_closure():
    """On every subset holding 0 of the additive groups of Z12, Z2^3 and
    Z2xZ6 (as their rings' tables), the walk of a subset's greedy
    generators stays inside it iff every pairwise sum does: on the 32
    subgroups (6, 16 and 5 * 2) and on no other subset."""
    tally = {True: 0, False: 0}
    for ring in (make_ring_zn([12]), make_ring_zn([2, 2, 2]), make_ring_zn([2, 6])):
        others = [x for x in ring.elements() if x != ring.zero]
        for bits in range(1 << len(others)):
            subset = frozenset([ring.zero] + [x for i, x in enumerate(others)
                                              if bits >> i & 1])
            expected = all(ring.add(a, b) in subset for a in subset for b in subset)
            assert rings._sums_stay_inside(ring._add_rows, ring.zero,
                                           subset) == expected, (ring.name, subset)
            tally[expected] += 1
    assert tally == {True: 6 + 16 + 5 * 2, False: 2048 + 128 + 2048 - 32}


def test_a_default_run_never_scans_pairs():
    """A default catalog and `verify_all` in a fresh process walk the
    generators of 2,961 subsets, and every walk stays inside its subset,
    so the pairwise addition scan runs on none."""
    out = run_fresh("""
        from scomult import generate_catalog, rings
        from scomult.statements import verify_all

        calls = {}
        def counting(*args, real=rings._sums_stay_inside):
            result = real(*args)
            calls[result] = calls.get(result, 0) + 1
            return result
        rings._sums_stay_inside = counting
        verify_all(generate_catalog())
        print(sorted(calls.items()))
    """)
    assert out.strip() == str([(True, 2961)])


def test_a_generator_walk_that_disagrees_raises(monkeypatch):
    """A closed subset whose generator walk fails is scanned pair by pair,
    and the disagreement raises rather than passes."""
    monkeypatch.setattr(rings, "_sums_stay_inside", lambda *args: False)
    with pytest.raises(AssertionError):
        Submodule(make_ring_zn([6]), frozenset({0, 3}))
    with pytest.raises(AxiomViolation, match="ideal not closed under addition"):
        Submodule(make_ring_zn([6]), frozenset({0, 1}))

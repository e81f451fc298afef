"""Shared fixtures, the independent brute-force oracles and cross-checks.

The oracles deliberately avoid the library's closure-based enumeration:
they filter raw subsets against the defining invariants, so agreement
between the two is a real check rather than a tautology.  The ideal
arithmetic oracles (product, intersection, colon, annihilator) work from
the ring's multiplication element by element.  The two cross-checks at the
end (every submodule of S^-1 M is a localization, and S-multiplication in
its existential-ideal form) live here, not in the library, because only
tests call them.  `reference_localization` rebuilds S^-1 X the slow way:
the relation tested pair by pair, every pair of rows scanned for the three
equivalence axioms, and each table cell built as a set of the classes its
representative pairs give.  `REFERENCE_REVALIDATORS` holds, by claim, the
element-by-element form of each revalidator that the library computes from
action rows, one `act`, `mul` or `scalar_times_set` call per element;
`reference_is_prime_submodule_set` and `reference_s_zero_with` are the same
for `s_theory.is_prime_submodule_set` and `morphisms.is_s_zero_with`.
`reference_span` is the closed-subset core's span as a frontier closure:
every r*x first, then every sum of a new element with every element so
far, until nothing new appears; it keeps no cyclic piece and no sum.
`reference_enumerate_homs` is hom enumeration as one loop over candidates,
each checked pair by pair, with no table shared between calls.
`REFERENCE_CHECKERS` holds, by statement id, the checker bodies of P-EXT,
P-FAM, P-PF, T-M3 and T-SSUM that recompute their module-only data for
every (module, m.c.s.) pair and run a `first_multiplier` search for every
instance, and the bodies of P-HOMS and T-HOM that ask the public
`monic_epic_bridge` and `transfer_theorem_check` once per (hom, m.c.s.)
instance.
"""

from itertools import product

import pytest

from scomult.catalog import generate_catalog
from scomult.localization import localize_module, localize_submodule
from scomult.modules import (
    annihilator_set,
    colon_set_into_ring,
    direct_sum_module,
    enumerate_submodules,
    ideal_times_module_set,
    scalar_times_set,
    self_module,
    zn_over_zk,
)
from scomult.morphisms import ModuleHom
from scomult import mutations, s_theory, statements
from scomult.rings import (
    Submodule,
    enumerate_ideals,
    make_ring_zn,
    submodule_closure,
    validate_mcs,
)
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


def reference_span(base, elements, scalars=None):
    """Additive closure of 0 and every r*x, r in scalars (default all of R)."""
    add, rows = base._add_rows, base._act_rows
    elems = {base.zero}
    frontier = []
    for row in rows if scalars is None else (rows[a] for a in scalars):
        for x in elements:
            y = row[x]
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    while frontier:
        row = add[frontier.pop()]
        for y in list(elems):
            z = row[y]
            if z not in elems:
                elems.add(z)
                frontier.append(z)
    return frozenset(elems)


def ideal_product(i, j):
    """I*J, the ideal generated by the products ab with a in I, b in J."""
    ring = i.module
    return submodule_closure(ring, {ring.mul(a, b)
                                for a in i.elements for b in j.elements})


def ideal_intersection(i, j):
    return Submodule(i.module, i.elements & j.elements)


def ideal_colon(i, j):
    """(I : J) = {x in R : xJ <= I}."""
    ring = i.module
    return Submodule(ring, frozenset(
        x for x in ring.elements()
        if all(ring.mul(x, b) in i.elements for b in j.elements)))


def ideal_annihilator(i):
    """ann(I) = (0 : I)."""
    return ideal_colon(Submodule(i.module, frozenset((i.module.zero,))), i)


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


def reference_classes(base, mcs):
    """Pairs (x, s) of S^-1 base, pair index -> class and class -> pairs.

    (x, s) ~ (y, t) iff tx - sy is killed by some u in S, tested pair by
    pair; the relation must pass a scan of every row for reflexivity,
    symmetry and transitivity.
    """
    pairs = [(x, s) for x in base.elements() for s in mcs]
    killed = {x for x in base.elements()
              if any(base.act(u, x) == base.zero for u in mcs)}
    rows = [sum(1 << j for j, (y, t) in enumerate(pairs)
                if base.add(base.act(t, x), base.neg(base.act(s, y))) in killed)
            for x, s in pairs]
    for i, row in enumerate(rows):
        assert row >> i & 1, ("not reflexive", pairs[i])
        for j in range(len(pairs)):
            if row >> j & 1:
                assert rows[j] >> i & 1, ("not symmetric", pairs[i], pairs[j])
                assert rows[j] | row == row, ("not transitive", pairs[i], pairs[j])
    class_of = [None] * len(pairs)
    members = []
    for i, row in enumerate(rows):
        if class_of[i] is None:
            block = tuple(j for j in range(len(pairs)) if row >> j & 1)
            for j in block:
                class_of[j] = len(members)
            members.append(block)
    return pairs, tuple(class_of), tuple(members)


def reference_localization(base, mcs):
    """S^-1 base as (class_of_pair, members, labels, add table, action table);
    the action is by the classes of S^-1 R, the ring's multiplication when
    base is the ring itself."""
    ring = mcs.ring
    pairs, class_of, members = reference_classes(base, mcs)
    ring_pairs, _, ring_members = reference_classes(ring, mcs)
    width = len(mcs)
    rank = {s: i for i, s in enumerate(mcs)}

    def table(row_pairs, row_members, numerator):
        out = []
        for row in row_members:
            cells = []
            for col in members:
                picks = set()
                for a in row[:2]:
                    x, s = row_pairs[a]
                    for b in col[:2]:
                        y, t = pairs[b]
                        picks.add(class_of[numerator(x, s, y, t) * width
                                           + rank[ring.mul(s, t)]])
                assert len(picks) == 1
                cells.append(picks.pop())
            out.append(tuple(cells))
        return tuple(out)

    add_table = table(pairs, members, lambda x, s, y, t: base.add(
        base.act(t, x), base.act(s, y)))
    act_table = table(ring_pairs, ring_members, lambda r, s, y, t: base.act(r, y))
    labels = tuple(f"{base.label(x)}/{ring.label(s)}"
                   for x, s in (pairs[m[0]] for m in members))
    return class_of, members, labels, add_table, act_table


_ZERO = frozenset((0,))


def reference_s_prime(module, p, mcs, s):
    colon = colon_set_into_ring(module, p, frozenset(module.elements()))
    if colon & mcs.elements:
        return False
    ring = module.ring
    for a in ring.elements():
        for m in module.elements():
            if module.act(a, m) in p:
                if ring.mul(s, a) not in colon and module.act(s, m) not in p:
                    return False
    return True


def reference_is_prime_submodule_set(module, subset):
    if len(subset) == module.size:
        return False
    colon = colon_set_into_ring(module, subset, frozenset(module.elements()))
    for a in module.ring.elements():
        if a in colon:
            continue
        row = module.act_row(a)
        for m in module.elements():
            if m not in subset and row[m] in subset:
                return False
    return True


def reference_s_prime_colon(module, p, mcs, s):
    if colon_set_into_ring(module, p, frozenset(module.elements())) & mcs.elements:
        return False
    target = frozenset(m for m in module.elements() if module.act(s, m) in p)
    if not reference_is_prime_submodule_set(module, target):
        return False
    for t in mcs:
        other = frozenset(m for m in module.elements() if module.act(t, m) in p)
        if not other <= target:
            return False
    return True


def reference_s_second(module, n, mcs, s):
    if annihilator_set(module, n) & mcs.elements:
        return False
    ring = module.ring
    s_image = scalar_times_set(module, s, n)
    for a in ring.elements():
        sa_image = scalar_times_set(module, ring.mul(s, a), n)
        if sa_image != _ZERO and sa_image != s_image:
            return False
    return True


def reference_s_second_containment(module, n, mcs, s):
    if annihilator_set(module, n) & mcs.elements:
        return False
    ring = module.ring
    s_image = scalar_times_set(module, s, n)
    for a in ring.elements():
        sa_image = scalar_times_set(module, ring.mul(s, a), n)
        a_image = scalar_times_set(module, a, n)
        if sa_image != _ZERO and not s_image <= a_image:
            return False
    return True


def reference_s_torsion_free(module, mcs, s):
    ring = module.ring
    for a in ring.elements():
        for m in module.elements():
            if module.act(a, m) == 0:
                if ring.mul(s, a) != ring.zero and module.act(s, m) != 0:
                    return False
    return True


def reference_s_zero_with(f, s):
    row = f.target.act_row(s)
    return all(row[v] == 0 for v in f.values)


REFERENCE_REVALIDATORS = {
    "s-prime-submodule": reference_s_prime,
    "s-prime-colon": reference_s_prime_colon,
    "s-second": reference_s_second,
    "s-second-containment": reference_s_second_containment,
    "s-torsion-free": reference_s_torsion_free,
}


# ---------------------------------------------------------------------------
# reference hom enumeration: the candidate-by-candidate body that the two
# stages of `morphisms.enumerate_homs` replace.  It rebuilds the same
# candidates in the same order, but checks each one element by element.


def _reference_additive_generators(module):
    gens, span, order, parent = [], {0}, [0], {0: None}
    while len(span) < module.size:
        g = min(m for m in module.elements() if m not in span)
        gens.append(g)
        frontier = list(order)
        while frontier:
            x = frontier.pop(0)
            y = module.add(x, g)
            if y not in span:
                span.add(y)
                parent[y] = (x, len(gens) - 1)
                order.append(y)
                frontier.append(y)
    return gens, order, parent


def _reference_is_hom(source, target, values):
    """Every f(a + b) = f(a) + f(b) and every f(r*m) = r*f(m), one at a time."""
    return (all(values[source.add(a, b)] == target.add(values[a], values[b])
                for a in source.elements() for b in source.elements())
            and all(values[source.act(r, m)] == target.act(r, values[m])
                    for r in source.ring.elements() for m in source.elements()))


def reference_enumerate_homs(source, target):
    gens, order, parent = _reference_additive_generators(source)
    if not gens:
        return (ModuleHom(source, target, (0,)),)
    candidate_images = []
    for g in gens:
        o, acc = 1, g
        while acc != 0:
            acc, o = source.add(acc, g), o + 1
        ok = []
        for y in target.elements():
            acc = 0
            for _ in range(o):
                acc = target.add(acc, y)
            if acc == 0:
                ok.append(y)
        candidate_images.append(ok)
    out = []
    for combo in product(*candidate_images):
        values = [0] * source.size
        for m in order[1:]:
            x, gi = parent[m]
            values[m] = target.add(values[x], combo[gi])
        if _reference_is_hom(source, target, values):
            out.append(ModuleHom(source, target, tuple(values)))
    return tuple(out)


# ---------------------------------------------------------------------------
# reference statement checkers: the per-(module, m.c.s.) bodies that the
# statement suite's per-module tables replace, and the per-(hom, m.c.s.)
# bodies of the two hom statements.  Each reads the library
# through the `statements` module, so a monkeypatch there reaches it too.


def reference_p_pf(cat, tb, ctx):
    for module, mcs, _ in statements._s_comult_pairs(cat):
        full = frozenset(module.elements())
        for ideal in statements.enumerate_ideals(module.ring):
            if statements.zero_colon_set(module, ideal.elements) != _ZERO:
                continue
            ctx.instances += 1
            im = statements.ideal_times_module_set(module, ideal.elements, full)
            if statements.first_multiplier(module, mcs, full, im) is None:
                ctx.fail(module=module, mcs=mcs, ideal=ideal,
                         detail="no s with sM inside IM")
            for m in module.elements():
                if not any(
                    module.act(s, m) == module.act(a, m)
                    for s in mcs for a in sorted(ideal.elements)
                ):
                    ctx.fail(module=module, mcs=mcs, ideal=ideal, element=m,
                             detail="no s, a with sm = am")
            ring = module.ring
            if not any(
                statements.scalar_times_set(module, ring.add(s, a), full) == _ZERO
                for s in mcs for a in sorted(ideal.elements)
            ):
                ctx.fail(module=module, mcs=mcs, ideal=ideal,
                         detail="no s, a with (s+a)M = 0")


def reference_p_fam(cat, tb, ctx):
    sums = {}                 # (module, N, part) -> N + part
    for module, mcs, _ in statements._s_comult_pairs(cat):
        subs = statements.enumerate_submodules(module)
        for family in statements._families(module, cat.params):
            meet = family[0]
            for part in family[1:]:
                meet = meet & part
            if meet != _ZERO:
                continue
            ctx.instances += 1
            for n in subs:
                target = None
                for part in family:
                    key = (module, n.elements, part)
                    summed = sums.get(key)
                    if summed is None:
                        summed = sums[key] = statements.sum_of_sets(
                            module, (n.elements, part))
                    target = summed if target is None else target & summed
                if not n.elements <= target:
                    ctx.fail(module=module, mcs=mcs, submodule=n,
                             detail="N escaped the intersection")
                if statements.first_multiplier(module, mcs, target,
                                               n.elements) is None:
                    ctx.fail(module=module, mcs=mcs, submodule=n,
                             family=[module.set_label(p) for p in family],
                             detail="no s squeezing the intersection into N")


def reference_p_ext(cat, tb, ctx):
    for module, mcs, result in statements._s_comult_pairs(cat):
        for n, witness in result.witnesses:
            s = witness.get("s")
            for ideal in statements.enumerate_ideals(module.ring):
                shifted = statements.scalar_times_set(
                    module, s, statements.zero_colon_set(module, ideal.elements))
                if not n.elements <= shifted:
                    continue
                ctx.instances += 1
                bigger = statements.ideal_sum(
                    ideal, statements.annihilator(module, n.elements))
                if not ideal.elements <= bigger.elements:
                    ctx.fail(module=module, mcs=mcs, ideal=ideal,
                             detail="sum ideal lost the original")
                squeezed = statements.scalar_times_set(
                    module, s, statements.zero_colon_set(module, bigger.elements))
                if not squeezed <= n.elements:
                    ctx.fail(module=module, mcs=mcs, ideal=ideal,
                             submodule=n,
                             detail="s(0:_M J) escaped N for J = I + ann(N)")


def reference_t_m3(cat, tb, ctx):
    for module, mcs, _ in statements._s_comult_pairs(cat):
        ring = module.ring
        for n in statements._nonzero_submodules(module):
            second = s_theory._guard(lambda: tb.is_s_second(module, n, mcs))
            ann_ideal = statements.annihilator(module, n.elements)
            prime = s_theory._guard(lambda: s_theory.is_s_prime_ideal(
                ring, ann_ideal, mcs, submodule_fn=tb.is_s_prime_submodule))
            clause = tb.uniform_multiple(module, n, mcs)
            ctx.revalidate(clause, module=module, mcs=mcs, submodule=n)
            ctx.instances += 1
            left = second is not None
            right = prime is not None and clause is not None
            if left != right:
                ctx.fail(module=module, mcs=mcs, submodule=n,
                         second=left, prime_annihilator=prime is not None,
                         uniform_multiple=clause is not None)
            for witness in (second, prime):
                ctx.revalidate(witness, module=module, mcs=mcs, submodule=n)


def reference_t_ssum(cat, tb, ctx):
    totals = {}               # (module, family) -> sum of the family
    for module, mcs, _ in statements._s_comult_pairs(cat):
        seconds = []
        for n in statements._nonzero_submodules(module):
            witness = s_theory._guard(lambda: tb.is_s_second(module, n, mcs))
            if witness is None:
                continue
            ctx.revalidate(witness, module=module, mcs=mcs, submodule=n)
            seconds.append(n)
        if not seconds:
            continue
        for family in statements._families(module, cat.params):
            key = (module, family)
            total = totals.get(key)
            if total is None:
                total = totals[key] = statements.sum_of_sets(module, family)
            for n in seconds:
                if not n.elements <= total:
                    continue
                ctx.instances += 1
                if all(statements.first_multiplier(module, mcs, n.elements,
                                                   part) is None
                       for part in family):
                    ctx.fail(module=module, mcs=mcs, submodule=n,
                             family=[module.set_label(p) for p in family],
                             detail="no s with sN inside a summand")


def _hom_instances(cat):
    """(f, mcs) for every catalog hom and m.c.s. of its ring, in catalog order."""
    for ring in cat.rings:
        for f in cat.homs[ring]:
            for mcs in cat.mcs[ring]:
                yield f, mcs


def reference_p_homs(cat, tb, ctx):
    for f, mcs in _hom_instances(cat):
        report = statements.mor.monic_epic_bridge(f, mcs)
        ctx.instances += 1
        for witness in (report.s_monic, report.s_epic):
            ctx.revalidate(witness, hom=f, mcs=mcs)
        if not report.holds():
            ctx.fail(hom=f, mcs=mcs, detail=report.failure())


def reference_t_hom(cat, tb, ctx):
    unmet = 0
    for f, mcs in _hom_instances(cat):
        try:
            report = statements.st.transfer_theorem_check(f, mcs)
        except statements.PreconditionUnmet:
            unmet += 1
            continue
        ctx.revalidate(report.kernel_witness, hom=f, mcs=mcs)
        ctx.instances += 1
        if report.downward_holds is False:
            ctx.fail(hom=f, mcs=mcs, failing=report.failing_submodule,
                     detail="property failed to descend to the source")
        if report.upward_holds is False:
            ctx.fail(hom=f, mcs=mcs, failing=report.failing_submodule,
                     detail="property failed to push to the target")
    ctx.notes["precondition_unmet"] = unmet


REFERENCE_CHECKERS = {
    "P-EXT": reference_p_ext,
    "P-FAM": reference_p_fam,
    "P-HOMS": reference_p_homs,
    "P-PF": reference_p_pf,
    "T-HOM": reference_t_hom,
    "T-M3": reference_t_m3,
    "T-SSUM": reference_t_ssum,
}

"""The statement suite: one exhaustive check per lemma/proposition/theorem.

Each checker iterates every catalog instance satisfying the statement's
hypotheses, asserts the conclusion, and reports pass/fail with a
counterexample on failure; a statement whose hypotheses select no instance
reports `vacuous`.  Every witness consumed along the way is re-validated
through the definition-level path, so an implementation that emits a bogus
witness fails the statement even when the boolean verdicts cannot differ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

from . import localization as loc
from . import morphisms as mor
from . import s_theory as st
from .errors import (
    DisjointnessFailure,
    PreconditionUnmet,
    ScomultError,
    UnknownStatement,
)
from .modules import (
    annihilator,
    annihilator_set,
    enumerate_submodules,
    full_submodule,
    ideal_times_module_set,
    quotient_module,
    scalar_times_set,
    self_module,
    submodule_as_module,
    sum_of_sets,
    torsion_set,
    zero_colon_set,
)
from .rings import (
    enumerate_ideals,
    has_maximal_multiple,
    ideal_sum,
    is_prime_ideal_set,
    jacobson_radical,
    maximal_ideals,
    minimal_nonzero_ideals,
    prime_ideals,
    saturation,
)

_ZERO = frozenset((0,))


@dataclass(frozen=True)
class Toolbox:
    """The predicate implementations a check run routes through.

    The default toolbox is the real library; mutation mode swaps individual
    entries for deliberately broken variants.
    """

    is_s_prime_submodule: Callable = st.is_s_prime_submodule
    is_s_second: Callable = st.is_s_second
    lemma_pair_form: Callable = st.lemma_pair_form
    uniform_multiple: Callable = st.uniform_multiple
    localization_relation: Callable = loc.default_relation
    mutated: tuple = ()


@dataclass
class StatementReport:
    statement_id: str
    title: str
    verdict: str                  # pass | fail | vacuous
    instances: int
    counterexample: dict | None
    ms: float
    notes: dict = field(default_factory=dict)

    def to_json(self):
        out = {
            "id": self.statement_id,
            "title": self.title,
            "verdict": self.verdict,
            "instances": self.instances,
            "ms": round(self.ms, 3),
        }
        if self.notes:
            out["notes"] = self.notes
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


class _Ctx:
    """Mutable instance counter plus counterexample plumbing per checker."""

    def __init__(self):
        self.instances = 0
        self.notes = {}

    def fail(self, **payload):
        return self.instances, self.notes, _jsonable(payload)

    def done(self):
        return self.instances, self.notes, None

    def bad_witness(self, witness, **payload):
        payload["detail"] = f"witness failed revalidation: {witness.describe()}"
        return self.fail(**payload)


def _jsonable(payload):
    out = {}
    for key, value in payload.items():
        if hasattr(value, "describe"):
            out[key] = value.describe()
        elif isinstance(value, frozenset):
            out[key] = sorted(value)
        elif isinstance(value, (list, tuple)):
            out[key] = [v.describe() if hasattr(v, "describe") else v for v in value]
        else:
            out[key] = value
    return out


def _ok(witness):
    return witness is None or witness.validate()


def _localize(module, mcs, tb):
    if tb.localization_relation is loc.default_relation:
        return loc.localize_module(module, mcs)
    return loc.localize_module_with(module, mcs, tb.localization_relation)


def _nonzero_submodules(module):
    return [n for n in enumerate_submodules(module) if not n.is_zero()]


def _s_comult_pairs(cat, include_zero=False):
    for module, mcs in cat.module_mcs_pairs(include_zero=include_zero):
        result = st.is_s_comultiplication(module, mcs)
        if result.holds:
            yield module, mcs, result


# ---------------------------------------------------------------------------
# section 2: the lemma, monotonicity, saturation, localization, transfer


def _check_l_eq(cat, tb):
    ctx = _Ctx()
    for module, mcs in cat.module_mcs_pairs():
        bundle = st.lemma_equivalence_bundle(module, mcs,
                                             pair_form_fn=tb.lemma_pair_form)
        ctx.instances += 1
        if not bundle.agree():
            return ctx.fail(module=module, mcs=mcs, verdicts=list(bundle.verdicts))
        for w in (w for form in bundle for _, w in form.witnesses):
            if not _ok(w):
                return ctx.bad_witness(w, module=module, mcs=mcs)
    return ctx.done()


def _check_p_mono(cat, tb):
    ctx = _Ctx()
    for ring in cat.rings:
        sets = cat.mcs[ring]
        for module in cat.modules[ring]:
            if module.is_zero_module:
                continue
            for s1 in sets:
                if not st.is_s_comultiplication(module, s1).holds:
                    continue
                for s2 in sets:
                    if s1.elements < s2.elements:
                        ctx.instances += 1
                        if not st.is_s_comultiplication(module, s2).holds:
                            return ctx.fail(module=module, smaller=s1, larger=s2)
    return ctx.done()


def _check_p_sat(cat, tb):
    ctx = _Ctx()
    for module, mcs in cat.module_mcs_pairs():
        star = saturation(mcs)
        ctx.instances += 1
        before = st.is_s_comultiplication(module, mcs).holds
        after = st.is_s_comultiplication(module, star).holds
        if before != after:
            return ctx.fail(module=module, mcs=mcs, saturation=star,
                            before=before, after=after)
    return ctx.done()


def _check_p_loc(cat, tb):
    ctx = _Ctx()
    for module, mcs, _ in _s_comult_pairs(cat):
        ctx.instances += 1
        localized = _localize(module, mcs, tb)
        if not st.is_comultiplication(localized.module):
            return ctx.fail(module=module, mcs=mcs,
                            detail="localization is not comultiplication")
        if tb.localization_relation is loc.default_relation:
            for ideal in enumerate_ideals(module.ring):
                if not loc.localized_colon_identity_check(module, mcs, ideal):
                    return ctx.fail(module=module, mcs=mcs, ideal=ideal,
                                    detail="localized colon identity broke")
    return ctx.done()


def _check_t_loc(cat, tb):
    ctx = _Ctx()
    unasserted = []
    for module, mcs in cat.module_mcs_pairs():
        witness = has_maximal_multiple(mcs)
        left = st.is_s_comultiplication(module, mcs).holds
        right = st.is_comultiplication(_localize(module, mcs, tb).module)
        if witness is None:
            # cannot happen over a finite ring; recorded, not asserted
            unasserted.append((left, right))
            continue
        if not _ok(witness):
            return ctx.bad_witness(witness, module=module, mcs=mcs)
        ctx.instances += 1
        if left != right:
            return ctx.fail(module=module, mcs=mcs, s_comultiplication=left,
                            localized_comultiplication=right)
    if unasserted:
        ctx.notes["no_maximal_multiple"] = len(unasserted)
    return ctx.done()


def _check_t_hom(cat, tb):
    ctx = _Ctx()
    unmet = 0
    for ring in cat.rings:
        for f in cat.homs[ring]:
            for mcs in cat.mcs[ring]:
                try:
                    report = mor.transfer_theorem_check(f, mcs)
                except PreconditionUnmet:
                    unmet += 1
                    continue
                if not _ok(report.kernel_witness):
                    return ctx.bad_witness(report.kernel_witness, hom=f, mcs=mcs)
                ctx.instances += 1
                if report.downward_holds is False:
                    return ctx.fail(hom=f, mcs=mcs, failing=report.failing_submodule,
                                    detail="property failed to descend to the source")
                if report.upward_holds is False:
                    return ctx.fail(hom=f, mcs=mcs, failing=report.failing_submodule,
                                    detail="property failed to push to the target")
    ctx.notes["precondition_unmet"] = unmet
    return ctx.done()


def _check_c_sub(cat, tb):
    ctx = _Ctx()
    for module, mcs, _ in _s_comult_pairs(cat):
        for n in _nonzero_submodules(module):
            ctx.instances += 1
            restricted = submodule_as_module(n)
            if not st.is_s_comultiplication(restricted, mcs).holds:
                return ctx.fail(module=module, mcs=mcs, submodule=n,
                                detail="submodule lost the property")
            t = next((t for t in mcs
                      if scalar_times_set(module, t, frozenset(module.elements()))
                      <= n.elements), None)
            if t is not None:
                quotient = quotient_module(module, n)
                if not st.is_s_comultiplication(quotient, mcs).holds:
                    return ctx.fail(module=module, mcs=mcs, submodule=n, t=t,
                                    detail="quotient lost the property")
    return ctx.done()


def _check_product_cases(cases):
    ctx = _Ctx()
    for case in cases:
        ctx.instances += 1
        whole = st.is_s_comultiplication(case.module, case.mcs).holds
        parts = all(
            st.is_s_comultiplication(m, s).holds for m, s in case.factors
        )
        if whole != parts:
            return ctx.fail(module=case.module, mcs=case.mcs, whole=whole,
                            parts=parts)
    return ctx.done()


def _check_p_prod(cat, tb):
    return _check_product_cases(cat.product_cases)


def _check_t_prodn(cat, tb):
    return _check_product_cases(cat.triple_cases)


def _check_t_com(cat, tb):
    ctx = _Ctx()
    for ring in cat.rings:
        primes = prime_ideals(ring)
        maxes = maximal_ideals(ring)
        if set(p.elements for p in primes) != set(m.elements for m in maxes):
            return ctx.fail(ring=ring,
                            detail="prime and maximal ideals differ on this ring")
        for module in cat.modules[ring]:
            if module.is_zero_module:
                continue
            ctx.instances += 1
            base = st.is_comultiplication(module)
            via_primes = all(
                st.is_s_comultiplication(module, loc.complement_mcs(ring, p)).holds
                for p in primes
            )
            via_maxes = all(
                st.is_s_comultiplication(module, loc.complement_mcs(ring, m)).holds
                for m in maxes
            )
            via_supported = all(
                st.is_s_comultiplication(module, loc.complement_mcs(ring, m)).holds
                for m in maxes if loc.mm_locally_nonzero(module, m)
            )
            if not base == via_primes == via_maxes == via_supported:
                return ctx.fail(module=module, verdicts=[
                    base, via_primes, via_maxes, via_supported])
    return ctx.done()


# ---------------------------------------------------------------------------
# dual Nakayama and its feeder proposition


def _check_p_pf(cat, tb):
    ctx = _Ctx()
    for module, mcs, _ in _s_comult_pairs(cat):
        full = frozenset(module.elements())
        for ideal in enumerate_ideals(module.ring):
            if zero_colon_set(module, ideal.elements) != _ZERO:
                continue
            ctx.instances += 1
            im = ideal_times_module_set(module, ideal.elements, full)
            if not any(scalar_times_set(module, s, full) <= im for s in mcs):
                return ctx.fail(module=module, mcs=mcs, ideal=ideal,
                                detail="no s with sM inside IM")
            for m in module.elements():
                if not any(
                    module.act(s, m) == module.act(a, m)
                    for s in mcs for a in sorted(ideal.elements)
                ):
                    return ctx.fail(module=module, mcs=mcs, ideal=ideal, element=m,
                                    detail="no s, a with sm = am")
            ring = module.ring
            if not any(
                scalar_times_set(module, ring.add(s, a), full) == _ZERO
                for s in mcs for a in sorted(ideal.elements)
            ):
                return ctx.fail(module=module, mcs=mcs, ideal=ideal,
                                detail="no s, a with (s+a)M = 0")
    return ctx.done()


def _check_t_du(cat, tb):
    # degenerate modules are admitted here: over a finite ring the
    # hypothesis (0 :_M tI) = 0 forces M = 0, so they are the only
    # instances the statement can see
    ctx = _Ctx()
    nonzero_hits = 0
    for module, mcs, _ in _s_comult_pairs(cat, include_zero=True):
        ring = module.ring
        ring_module = self_module(ring)
        jac = jacobson_radical(ring).elements
        seen = set()
        for t in mcs:
            for ideal in enumerate_ideals(ring):
                t_ideal = scalar_times_set(ring_module, t, ideal.elements)
                if not t_ideal <= jac:
                    continue
                if zero_colon_set(module, t_ideal) != _ZERO:
                    continue
                key = (module, mcs, t_ideal)
                if key in seen:
                    continue
                seen.add(key)
                ctx.instances += 1
                if not module.is_zero_module:
                    nonzero_hits += 1
                full = frozenset(module.elements())
                if not any(scalar_times_set(module, s, full) == _ZERO for s in mcs):
                    return ctx.fail(module=module, mcs=mcs, ideal=ideal, t=t,
                                    detail="no s with sM = 0")
    ctx.notes["nonzero_instances"] = nonzero_hits
    return ctx.done()


def _check_c_du(cat, tb):
    ctx = _Ctx()
    nonzero_hits = 0
    for ring in cat.rings:
        jac = jacobson_radical(ring).elements
        for module in cat.modules[ring]:
            if not st.is_comultiplication(module):
                continue
            for ideal in enumerate_ideals(ring):
                if not ideal.elements <= jac:
                    continue
                if zero_colon_set(module, ideal.elements) != _ZERO:
                    continue
                ctx.instances += 1
                if not module.is_zero_module:
                    nonzero_hits += 1
                    return ctx.fail(module=module, ideal=ideal,
                                    detail="nonzero module with (0:_M I) = 0")
    ctx.notes["nonzero_instances"] = nonzero_hits
    return ctx.done()


# ---------------------------------------------------------------------------
# section 3: cyclicity, families, torsion, minimality


def _check_p_cy1(cat, tb):
    ctx = _Ctx()
    for module, mcs, _ in _s_comult_pairs(cat):
        for ideal in minimal_nonzero_ideals(module.ring):
            if zero_colon_set(module, ideal.elements) != _ZERO:
                continue
            ctx.instances += 1
            witness = st.is_s_cyclic(module, mcs)
            if witness is None:
                return ctx.fail(module=module, mcs=mcs, ideal=ideal,
                                detail="module is not S-cyclic")
            if not _ok(witness):
                return ctx.bad_witness(witness, module=module, mcs=mcs)
    return ctx.done()


def _families(module, params):
    """Families of 2 or 3 submodule element sets, deterministic order."""
    subs = [n.elements for n in enumerate_submodules(module)]
    for pair in combinations(subs, 2):
        yield pair
    if len(subs) <= params.triple_family_limit:
        for triple in combinations(subs, 3):
            yield triple


def _check_p_fam(cat, tb):
    ctx = _Ctx()
    sums = {}                 # (module, N, part) -> N + part
    for module, mcs, _ in _s_comult_pairs(cat):
        subs = enumerate_submodules(module)
        for family in _families(module, cat.params):
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
                        summed = sums[key] = sum_of_sets(module, (n.elements, part))
                    target = summed if target is None else target & summed
                if not n.elements <= target:
                    return ctx.fail(module=module, mcs=mcs, submodule=n,
                                    detail="N escaped the intersection")
                if not any(scalar_times_set(module, s, target) <= n.elements
                           for s in mcs):
                    return ctx.fail(module=module, mcs=mcs, submodule=n,
                                    family=[module.set_label(p) for p in family],
                                    detail="no s squeezing the intersection into N")
    return ctx.done()


def _check_p_ext(cat, tb):
    ctx = _Ctx()
    for module, mcs, result in _s_comult_pairs(cat):
        for n, witness in result.witnesses:
            s = witness.get("s")
            for ideal in enumerate_ideals(module.ring):
                shifted = scalar_times_set(
                    module, s, zero_colon_set(module, ideal.elements))
                if not n.elements <= shifted:
                    continue
                ctx.instances += 1
                bigger = ideal_sum(ideal, annihilator(module, n.elements))
                if not ideal.elements <= bigger.elements:
                    return ctx.fail(module=module, mcs=mcs, ideal=ideal,
                                    detail="sum ideal lost the original")
                squeezed = scalar_times_set(
                    module, s, zero_colon_set(module, bigger.elements))
                if not squeezed <= n.elements:
                    return ctx.fail(module=module, mcs=mcs, ideal=ideal,
                                    submodule=n,
                                    detail="s(0:_M J) escaped N for J = I + ann(N)")
    return ctx.done()


def _check_t_tor(cat, tb):
    ctx = _Ctx()
    for module, mcs, _ in _s_comult_pairs(cat):
        ctx.instances += 1
        witness = st.is_s_cyclic(module, mcs)
        if witness is not None:
            if not _ok(witness):
                return ctx.bad_witness(witness, module=module, mcs=mcs)
            continue
        if len(torsion_set(module)) != module.size:
            return ctx.fail(module=module, mcs=mcs,
                            detail="neither S-cyclic nor torsion")
    return ctx.done()


def _is_domain(ring):
    return all(
        ring.mul(a, b) != ring.zero
        for a in ring.elements() if a != ring.zero
        for b in ring.elements() if b != ring.zero
    )


def _check_t_cy2(cat, tb):
    ctx = _Ctx()
    trivial = 0
    for ring in cat.rings:
        if not _is_domain(ring):
            continue
        for module in cat.modules[ring]:
            if module.is_zero_module:
                continue
            full = frozenset(module.elements())
            for mcs in cat.mcs[ring]:
                if not st.is_s_comultiplication(module, mcs).holds:
                    continue
                finite = st.is_s_finite(module, frozenset(module.elements()), mcs)
                if not _ok(finite):
                    return ctx.bad_witness(finite, module=module, mcs=mcs)
                faithful = all(
                    annihilator_set(module, scalar_times_set(module, s, full))
                    == frozenset((ring.zero,))
                    for s in mcs
                )
                if not faithful:
                    continue
                ctx.instances += 1
                if st.is_cyclic(module):
                    trivial += 1
                witness = st.is_s_cyclic(module, mcs)
                if witness is None:
                    return ctx.fail(module=module, mcs=mcs,
                                    detail="module is not S-cyclic")
    ctx.notes["already_cyclic"] = trivial
    return ctx.done()


def _check_t_cy3(cat, tb):
    ctx = _Ctx()
    for module, mcs, _ in _s_comult_pairs(cat):
        torsion_free = st.is_s_torsion_free(module, mcs)
        if torsion_free is None:
            continue
        if not _ok(torsion_free):
            return ctx.bad_witness(torsion_free, module=module, mcs=mcs)
        ctx.instances += 1
        witness = st.is_s_cyclic(module, mcs)
        if witness is None:
            return ctx.fail(module=module, mcs=mcs,
                            detail="S-torsion-free module is not S-cyclic")
    return ctx.done()


def _check_t_min(cat, tb):
    ctx = _Ctx()
    nonzero_reading = 0
    all_reading = 0
    for module, mcs, _ in _s_comult_pairs(cat):
        if not st.is_prime_module(module):
            continue
        ctx.instances += 1
        top = full_submodule(module)
        steps = st.is_s_minimal(module, top, mcs, include_zero=False)
        if steps is None:
            return ctx.fail(module=module, mcs=mcs,
                            detail="not S-minimal under the nonzero-L reading")
        for witness in steps.values():
            if not _ok(witness):
                return ctx.bad_witness(witness, module=module, mcs=mcs)
        nonzero_reading += 1
        if st.is_s_minimal(module, top, mcs, include_zero=True) is not None:
            all_reading += 1
    ctx.notes["holds_nonzero_L_reading"] = nonzero_reading
    ctx.notes["holds_all_L_reading"] = all_reading
    return ctx.done()


# ---------------------------------------------------------------------------
# section 4: hom bridges, S-prime/S-second characterizations


def _check_p_homs(cat, tb):
    ctx = _Ctx()
    for ring in cat.rings:
        for f in cat.homs[ring]:
            for mcs in cat.mcs[ring]:
                ctx.instances += 1
                report = mor.monic_epic_bridge(f, mcs)
                for witness in (report.s_monic, report.s_epic):
                    if not _ok(witness):
                        return ctx.bad_witness(witness, hom=f, mcs=mcs)
                if not report.holds():
                    return ctx.fail(hom=f, mcs=mcs, detail=report.failure())
    return ctx.done()


def _check_forms(cat, submodules, characterize, skips):
    """Every form of a submodule property agrees and every witness holds.

    `characterize(module, n, mcs)` raising one of `skips` counts as a skip.
    """
    ctx = _Ctx()
    skipped = 0
    for module, mcs in cat.module_mcs_pairs():
        for n in submodules(module):
            try:
                forms = characterize(module, n, mcs)
            except skips:
                skipped += 1
                continue
            ctx.instances += 1
            if not forms.agree():
                return ctx.fail(module=module, mcs=mcs, submodule=n,
                                verdicts=list(forms.verdicts))
            for witness in forms:
                if not _ok(witness):
                    return ctx.bad_witness(witness, module=module, mcs=mcs,
                                           submodule=n)
    ctx.notes["disjointness_skips"] = skipped
    return ctx.done()


def _check_p_spr(cat, tb):
    return _check_forms(
        cat, enumerate_submodules,
        lambda module, p, mcs: st.s_prime_characterizations(
            module, p, mcs, direct_fn=tb.is_s_prime_submodule),
        DisjointnessFailure)


def _check_t_sec(cat, tb):
    return _check_forms(
        cat, _nonzero_submodules,
        lambda module, n, mcs: st.s_second_characterizations(
            module, n, mcs, direct_fn=tb.is_s_second),
        (DisjointnessFailure, PreconditionUnmet))


def _check_t_m3(cat, tb):
    ctx = _Ctx()
    for module, mcs, _ in _s_comult_pairs(cat):
        ring = module.ring
        for n in _nonzero_submodules(module):
            second = st._guard(lambda: tb.is_s_second(module, n, mcs))
            ann_ideal = annihilator(module, n.elements)
            prime = st._guard(lambda: st.is_s_prime_ideal(
                ring, ann_ideal, mcs, submodule_fn=tb.is_s_prime_submodule))
            clause = tb.uniform_multiple(module, n, mcs)
            if clause is not None and not _ok(clause):
                return ctx.bad_witness(clause, module=module, mcs=mcs, submodule=n)
            ctx.instances += 1
            left = second is not None
            right = prime is not None and clause is not None
            if left != right:
                return ctx.fail(module=module, mcs=mcs, submodule=n,
                                second=left, prime_annihilator=prime is not None,
                                uniform_multiple=clause is not None)
            for witness in (second, prime):
                if not _ok(witness):
                    return ctx.bad_witness(witness, module=module, mcs=mcs,
                                           submodule=n)
    return ctx.done()


def _check_c_m3(cat, tb):
    ctx = _Ctx()
    for module in cat.nonzero_modules():
        if not st.is_comultiplication(module):
            continue
        for n in _nonzero_submodules(module):
            ctx.instances += 1
            second = st.is_second_submodule_set(module, n.elements)
            prime = is_prime_ideal_set(module.ring,
                                       annihilator_set(module, n.elements))
            if second != prime:
                return ctx.fail(module=module, submodule=n, second=second,
                                prime_annihilator=prime)
    return ctx.done()


def _check_t_ssum(cat, tb):
    ctx = _Ctx()
    totals = {}               # (module, family) -> sum of the family
    for module, mcs, _ in _s_comult_pairs(cat):
        seconds = []
        for n in _nonzero_submodules(module):
            witness = st._guard(lambda: tb.is_s_second(module, n, mcs))
            if witness is None:
                continue
            if not _ok(witness):
                return ctx.bad_witness(witness, module=module, mcs=mcs, submodule=n)
            seconds.append(n)
        if not seconds:
            continue
        for family in _families(module, cat.params):
            key = (module, family)
            total = totals.get(key)
            if total is None:
                total = totals[key] = sum_of_sets(module, family)
            for n in seconds:
                if not n.elements <= total:
                    continue
                ctx.instances += 1
                if not any(
                    scalar_times_set(module, s, n.elements) <= part
                    for s in mcs for part in family
                ):
                    return ctx.fail(module=module, mcs=mcs, submodule=n,
                                    family=[module.set_label(p) for p in family],
                                    detail="no s with sN inside a summand")
    return ctx.done()


# ---------------------------------------------------------------------------
# registry and runners


@dataclass(frozen=True)
class Statement:
    statement_id: str
    title: str
    check: Callable


STATEMENTS = {
    s.statement_id: s for s in (
        Statement("L-EQ", "three equivalent forms of the S-comultiplication property", _check_l_eq),
        Statement("P-MONO", "monotonicity in the multiplicative set", _check_p_mono),
        Statement("P-SAT", "invariance under saturation", _check_p_sat),
        Statement("P-LOC", "localizations of S-comultiplication modules are comultiplication", _check_p_loc),
        Statement("T-LOC", "S-comultiplication iff the localization is comultiplication", _check_t_loc),
        Statement("T-HOM", "transfer along maps whose kernel is killed by S", _check_t_hom),
        Statement("C-SUB", "inheritance by submodules and by quotients under tM <= N", _check_c_sub),
        Statement("P-PROD", "two-factor product characterization", _check_p_prod),
        Statement("T-PRODN", "three-factor product characterization", _check_t_prodn),
        Statement("T-COM", "comultiplication via prime and maximal complements", _check_t_com),
        Statement("P-PF", "consequences of a vanishing colon (0:_M I) = 0", _check_p_pf),
        Statement("T-DU", "dual Nakayama lemma, S-version", _check_t_du),
        Statement("C-DU", "dual Nakayama lemma, classical corollary", _check_c_du),
        Statement("P-CY1", "S-cyclicity from a minimal ideal with vanishing colon", _check_p_cy1),
        Statement("P-FAM", "squeezing through intersections over zero-meet families", _check_p_fam),
        Statement("P-EXT", "enlarging the ideal in a colon sandwich", _check_p_ext),
        Statement("T-TOR", "every S-comultiplication module is S-cyclic or torsion", _check_t_tor),
        Statement("T-CY2", "S-cyclicity over integral domains with faithful multiples", _check_t_cy2),
        Statement("T-CY3", "S-torsion-free S-comultiplication modules are S-cyclic", _check_t_cy3),
        Statement("T-MIN", "S-comultiplication prime modules are S-minimal", _check_t_min),
        Statement("P-HOMS", "monic/epic against S-monic/S-epic bridges", _check_p_homs),
        Statement("P-SPR", "characterizations of S-prime submodules", _check_p_spr),
        Statement("T-SEC", "characterizations of S-second submodules", _check_t_sec),
        Statement("T-M3", "S-second iff S-prime annihilator plus a uniform multiple", _check_t_m3),
        Statement("C-M3", "second iff prime annihilator, in comultiplication modules", _check_c_m3),
        Statement("T-SSUM", "S-second submodules squeeze into one summand", _check_t_ssum),
    )
}


def verify(statement_id, catalog, toolbox=None):
    """Run one statement over the catalog and report the outcome."""
    if statement_id not in STATEMENTS:
        raise UnknownStatement(statement_id, STATEMENTS)
    statement = STATEMENTS[statement_id]
    tb = toolbox or Toolbox()
    start = time.perf_counter()
    try:
        instances, notes, counterexample = statement.check(catalog, tb)
    except ScomultError as err:
        instances, notes = 0, {}
        counterexample = {"error": str(err)}
    elapsed = (time.perf_counter() - start) * 1000.0
    if counterexample is not None:
        verdict = "fail"
    elif instances == 0:
        verdict = "vacuous"
    else:
        verdict = "pass"
    return StatementReport(statement_id, statement.title, verdict, instances,
                           counterexample, elapsed, notes)


def verify_all(catalog, statement_ids=None, toolbox=None):
    """Run every statement (or the given subset), ordered by statement id."""
    if statement_ids is None:
        ids = sorted(STATEMENTS)
    else:
        ids = sorted(statement_ids)
        for statement_id in ids:
            if statement_id not in STATEMENTS:
                raise UnknownStatement(statement_id, STATEMENTS)
    return [verify(statement_id, catalog, toolbox) for statement_id in ids]

"""The statement suite: one exhaustive check per lemma/proposition/theorem.

Each checker iterates every catalog instance satisfying the statement's
hypotheses and asserts the conclusion.  It reports through the run context
that `verify` hands it (`check(cat, tb, ctx)`): it names each subject once
(`ctx.instance`, which also counts, or `ctx.at`), tallies notes, and leaves
early only through `ctx.fail`, which carries the subject and the failure's
own fields out to `verify`.  A statement whose hypotheses select no
instance reports `vacuous`.  Every witness consumed along the way goes
through `ctx.revalidate`, the definition-level re-check, so an
implementation that emits a bogus witness fails the statement even when the
boolean verdicts cannot differ.

The catalog memo.  A value that no `Toolbox` field reaches is the same
under every toolbox, so it belongs to the catalog and lives in
`Catalog._memo`, keyed by its evaluator and subject:
- every ring's e_S classes: each m.c.s.'s class index and the first
  m.c.s. of each class, in catalog order (`_e_s_classes`);
- P-HOMS and T-HOM: each ring's hom signature classes (source, target,
  kernel, image) and, per signature class and e_S class, the bridge and
  transfer core values, evaluated at the e_S class's first m.c.s. and
  spread to the class (`_by_signature`);
- P-SPR and T-SEC: whether each derived form gave a witness, per
  (module, e_S class, N) (`_check_forms`);
- P-PF, P-FAM, T-M3 and T-SSUM: the part of their work that does not
  depend on S, one table per module (`_with_module_table`);
- P-LOC and T-LOC: whether S^-1 M is comultiplication and the first
  ideal whose localized colon identity breaks, per (torsion function,
  module, K_R, K_M) (`_localized`).
An S-verdict depends on S only through e_S (see `s_theory`), so a value
kept per e_S class is the value of every m.c.s. in it; a localization's
verdicts depend on S only through its torsion sets, and each pair still
runs the refusal and kernel checks that read S.
A value is evaluated the first time a walk needs it, so a walk fails where
one without the memo would; a later walk over the same catalog, under any
toolbox, reads it back; a fresh catalog starts cold.  Values are stored
compactly, as codes, indices and shared sets, never as a `Witness` or a
`ForEachResult`: each instance makes the witnesses that bind its own
subject and m.c.s., at s = e_S (`MCS.idempotent`, see `s_theory`), and
has each revalidated, on every walk, and the toolbox's own seams (the
direct S-prime and S-second forms, the pair form, the uniform multiple,
the localization torsion) run on every walk.  Once `Toolbox` routes a
function that a memoized evaluator calls, that memo must also be keyed by
the field.

P-PF keeps the ideals with (0:_M I) = 0 and their IM; P-FAM the zero-meet
families, as indices into the submodules (`bytes`), each distinct
intersection of N + part over a family, and per family one index per N
into those (`bytes`); T-M3 ann(N) per N; T-SSUM the family sums.  P-FAM
and T-SSUM answer their question "is there an s in S with sX inside Y?"
at e_S, which works exactly when some s
does: P-FAM computes (N :_M e_S) once per (m.c.s., N) and T-SSUM e_S N once
per (m.c.s., S-second N).  P-EXT keeps J = I + ann(N) per (N, I) in a
table that lives for one module only.  Every x*N a checker reads comes
from the module's (or ring's) search table (`modules.scalar_times_set`
and `_scalar_multiples`).
Everything else that depends on S (the multiplier tests, the S-second and
S-prime verdicts, instance counts and witness revalidation) still runs per
(module, m.c.s.) pair, in the same order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

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
    _scalar_multiples,
    annihilator,
    annihilator_set,
    colon_set_into_module,
    enumerate_submodules,
    first_multiplier,
    full_submodule,
    ideal_times_module_set,
    is_torsion,
    quotient_module,
    scalar_times_set,
    submodule_as_module,
    sum_of_sets,
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
    _shared,
)
from .witnesses import Witness

_ZERO = frozenset((0,))


@dataclass(frozen=True)
class Toolbox:
    """The predicate implementations a check run routes through.

    The default toolbox is the real library; mutation mode swaps individual
    entries for deliberately broken variants.  The one dataclass in the
    package: perfbench's tracer rebinds a toolbox's fields through
    `dataclasses.fields` and `dataclasses.replace`.
    """

    is_s_prime_submodule: Callable = st.is_s_prime_submodule
    is_s_second: Callable = st.is_s_second
    lemma_pair_form: Callable = st.lemma_pair_form
    uniform_multiple: Callable = st.uniform_multiple
    localization_torsion: Callable = loc.s_torsion
    mutated: tuple = ()


class StatementReport(NamedTuple):
    statement_id: str
    title: str
    verdict: str                  # pass | fail | vacuous
    instances: int
    counterexample: dict | None
    ms: float
    notes: dict                   # note -> count; {} when none

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


class _Counterexample(Exception):
    """A checker's counterexample on its way out to `verify`.

    Not a `ScomultError`, so no checker's precondition handler and not
    `verify`'s error branch can catch it.
    """


class _Ctx:
    """The run context `verify` hands a checker: subject, count and notes.

    `instance` counts one instance and, given fields, names a new subject;
    `at` names one without counting, for a witness revalidated before its
    instance counts.  A checker leaves early only through `fail`, directly
    or from `revalidate`, which re-checks a consumed witness, or `reject`,
    which reports one that did not re-check; the counterexample is the
    subject's fields, then the failure's own.  The hot loops (P-HOMS,
    T-HOM, P-SPR and T-SEC) name the subject's outer field with `at`, add
    to `instances` and call `validate` themselves, so that an instance
    makes no keyword call, and pass the inner fields only on a failure.
    `tally` adds to a note; a failing report drops them.
    """

    def __init__(self):
        self.instances = 0
        self.notes = {}
        self.subject = {}

    def instance(self, **subject):
        self.instances += 1
        if subject:
            self.subject = subject

    def at(self, **subject):
        self.subject = subject

    def tally(self, note, by=1):
        self.notes[note] = self.notes.get(note, 0) + by

    def fail(self, **extra):
        raise _Counterexample(_jsonable({**self.subject, **extra}))

    def revalidate(self, witness, **extra):
        """Fail unless the witness re-checks through its definition; None passes."""
        if witness is not None and not witness.validate():
            self.reject(witness, **extra)

    def reject(self, witness, **extra):
        """Fail with a witness that did not re-check through its definition."""
        self.fail(**extra,
                  detail=f"witness failed revalidation: {witness.describe()}")


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


def _localized(cat, module, mcs, torsion):
    """The catalog memo's entry for S^-1 M built with `torsion`: [whether
    it is comultiplication, the index of the first ideal whose localized
    colon identity breaks or -1, None until P-LOC asks].

    Both depend on S only through K_R and K_M, the sets `torsion` gives
    (README, "A localization reads S only through its torsion sets"), so
    the entry is keyed by them and built at the first m.c.s. that gives
    them; every later m.c.s. runs the checks that read S itself.  An
    injected torsion's build is handed the K_M computed here; the default
    one's goes through `localize_module`, whose cache P-LOC's colon
    identities read, and computes K_M again.
    """
    ring_set, module_set = torsion(module.ring, mcs), torsion(module, mcs)
    key = (_localized, torsion, module, ring_set, module_set)
    entry = cat._memo.get(key)
    if entry is not None:
        loc.check_s_on_torsion_sets(module, mcs, torsion, ring_set, module_set)
        return entry
    if torsion is loc.s_torsion:
        localized = loc.localize_module(module, mcs)
    else:
        localized = loc._localize_module(
            loc.localize_ring_with(module.ring, mcs, torsion), module, mcs,
            torsion, module_set)
    entry = cat._memo[key] = [st.is_comultiplication(localized.module), None]
    return entry


def _nonzero_submodules(module):
    return [n for n in enumerate_submodules(module) if not n.is_zero()]


def _with_module_table(cat, key, pairs, build):
    """Each (module, mcs, ...) item of a module-major stream with the
    module's table appended: build(module), kept in the catalog memo under
    (key, module) and built at the module's first item of the first walk
    that reaches it."""
    memo = cat._memo
    current = table = None
    for item in pairs:
        module = item[0]
        if module is not current:
            current, table = module, memo.get((key, module))
            if table is None:
                table = memo[key, module] = build(module)
        yield (*item, table)


def _s_comult_pairs(cat, include_zero=False):
    for module, mcs in cat.module_mcs_pairs(include_zero=include_zero):
        result = st.is_s_comultiplication(module, mcs)
        if result.holds:
            yield module, mcs, result


# ---------------------------------------------------------------------------
# section 2: the lemma, monotonicity, saturation, localization, transfer


def _check_l_eq(cat, tb, ctx):
    for module, mcs in cat.module_mcs_pairs():
        bundle = st.lemma_equivalence_bundle(module, mcs, tb.lemma_pair_form)
        ctx.instance(module=module, mcs=mcs)
        if not bundle.agree():
            ctx.fail(verdicts=list(bundle.verdicts))
        for w in (w for form in bundle for _, w in form.witnesses):
            ctx.revalidate(w)


def _check_p_mono(cat, tb, ctx):
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
                        ctx.instance(module=module, smaller=s1, larger=s2)
                        if not st.is_s_comultiplication(module, s2).holds:
                            ctx.fail()


def _check_p_sat(cat, tb, ctx):
    for module, mcs in cat.module_mcs_pairs():
        star = saturation(mcs)
        ctx.instance(module=module, mcs=mcs)
        before = st.is_s_comultiplication(module, mcs).holds
        after = st.is_s_comultiplication(module, star).holds
        if before != after:
            ctx.fail(saturation=star, before=before, after=after)


def _check_p_loc(cat, tb, ctx):
    """The colon identities read the default localization, whatever the
    toolbox's torsion function."""
    torsion = tb.localization_torsion
    for module, mcs, _ in _s_comult_pairs(cat):
        ctx.instance(module=module, mcs=mcs)
        entry = _localized(cat, module, mcs, torsion)
        if not entry[0]:
            ctx.fail(detail="localization is not comultiplication")
        if torsion is not loc.s_torsion:
            entry = _localized(cat, module, mcs, loc.s_torsion)
        ideals = enumerate_ideals(module.ring)
        if entry[1] is None:
            entry[1] = next(
                (i for i, ideal in enumerate(ideals)
                 if not loc.localized_colon_identity_check(module, mcs, ideal)),
                -1)
        if entry[1] >= 0:
            ctx.fail(ideal=ideals[entry[1]],
                     detail="localized colon identity broke")


def _check_t_loc(cat, tb, ctx):
    for module, mcs in cat.module_mcs_pairs():
        witness = has_maximal_multiple(mcs)
        left = st.is_s_comultiplication(module, mcs).holds
        right = _localized(cat, module, mcs, tb.localization_torsion)[0]
        ctx.at(module=module, mcs=mcs)
        ctx.revalidate(witness)
        ctx.instance()
        if left != right:
            ctx.fail(s_comultiplication=left, localized_comultiplication=right)


def _check_t_hom(cat, tb, ctx):
    make = Witness.make
    ctx.tally("precondition_unmet", 0)
    for f, mcs_list, core in _by_signature(cat, st._transfer_core):
        ctx.at(hom=f)
        ctx.tally("precondition_unmet", core.count(None))
        for mcs, entry in zip(mcs_list, core):
            if entry is None:
                continue
            s, _, downward, _, upward, failing = entry
            witness = make("s-monic", f, mcs, s)
            if not witness.validate():
                ctx.reject(witness, mcs=mcs)
            ctx.instances += 1
            if downward is False:
                ctx.fail(mcs=mcs, failing=failing,
                         detail="property failed to descend to the source")
            if upward is False:
                ctx.fail(mcs=mcs, failing=failing,
                         detail="property failed to push to the target")


def _by_signature(cat, evaluate):
    """(f, the m.c.s. of its ring, evaluate(f, those m.c.s.)) for every
    catalog hom in catalog order.

    `evaluate` reads only the hom's signature (source, target, kernel,
    image) and each m.c.s.'s e_S, so the memo (see the module docstring)
    keeps its values keyed by `evaluate`, one per signature class of a ring
    (`_hom_classes`), evaluated at the class's first hom and at the first
    m.c.s. of each e_S class (`_e_s_classes`), then spread to every m.c.s.
    of the class.  Few values are distinct (summed over the default
    catalog's rings, the bridge has 140 among 2,142 per-e_S-class entries
    and 112 among 994 classes), so each is stored once per ring.
    """
    memo = cat._memo
    for ring in cat.rings:
        class_of, firsts = _hom_classes(cat, ring)
        e_class_of, e_firsts = _e_s_classes(cat, ring)
        entry = memo.get((evaluate, ring))
        if entry is None:
            entry = memo[evaluate, ring] = [None] * len(firsts), {}
        values_of, distinct = entry
        mcs_list = cat.mcs[ring]
        for f, c in zip(cat.homs[ring], class_of):
            values = values_of[c]
            if values is None:
                at_firsts = [distinct.setdefault(v, v)
                             for v in evaluate(firsts[c], e_firsts)]
                values = tuple(map(at_firsts.__getitem__, e_class_of))
                values = values_of[c] = distinct.setdefault(values, values)
            yield f, mcs_list, values


def _hom_classes(cat, ring):
    """The class index of each of the ring's catalog homs, in catalog order,
    and the first hom of each class; a class is one signature."""
    return _class_table(cat, _hom_classes, ring, cat.homs[ring], mor._signature)


def _e_s_classes(cat, ring):
    """The class index of each of the ring's catalog m.c.s., in catalog
    order, and the first m.c.s. of each class; a class is one e_S."""
    return _class_table(cat, _e_s_classes, ring, cat.mcs[ring],
                        lambda mcs: mcs.idempotent)


def _class_table(cat, owner, ring, members, key):
    """`_classes(members, key)`, built the first time `owner` asks for the
    ring's table and kept in the catalog's memo under (owner, ring)."""
    table = cat._memo.get((owner, ring))
    if table is None:
        table = cat._memo[owner, ring] = _classes(members, key)
    return table


def _classes(members, key):
    """(the class index of each member, the first member of each class),
    where a class is one value of key(member), numbered in member order;
    the keys themselves are dropped."""
    index, firsts, class_of = {}, [], []
    for x in members:
        c = index.setdefault(key(x), len(firsts))
        if c == len(firsts):
            firsts.append(x)
        class_of.append(c)
    return tuple(class_of), tuple(firsts)


def _check_c_sub(cat, tb, ctx):
    for module, mcs, _ in _s_comult_pairs(cat):
        for n in _nonzero_submodules(module):
            ctx.instance(module=module, mcs=mcs, submodule=n)
            restricted = submodule_as_module(n)
            if not st.is_s_comultiplication(restricted, mcs).holds:
                ctx.fail(detail="submodule lost the property")
            t = first_multiplier(module, mcs, module.carrier, n.elements)
            if t is not None:
                quotient = quotient_module(module, n)
                if not st.is_s_comultiplication(quotient, mcs).holds:
                    ctx.fail(t=t, detail="quotient lost the property")


def _check_product_cases(cases, ctx):
    for case in cases:
        ctx.instance(module=case.module, mcs=case.mcs)
        whole = st.is_s_comultiplication(case.module, case.mcs).holds
        parts = all(
            st.is_s_comultiplication(m, s).holds for m, s in case.factors
        )
        if whole != parts:
            ctx.fail(whole=whole, parts=parts)


def _check_p_prod(cat, tb, ctx):
    _check_product_cases(cat.product_cases, ctx)


def _check_t_prodn(cat, tb, ctx):
    _check_product_cases(cat.triple_cases, ctx)


def _check_t_com(cat, tb, ctx):
    for ring in cat.rings:
        primes = prime_ideals(ring)
        maxes = maximal_ideals(ring)
        if set(p.elements for p in primes) != set(m.elements for m in maxes):
            ctx.at(ring=ring)
            ctx.fail(detail="prime and maximal ideals differ on this ring")
        at_primes = [loc.complement_mcs(ring, p) for p in primes]
        at_maxes = [loc.complement_mcs(ring, m) for m in maxes]
        for module in cat.modules[ring]:
            if module.is_zero_module:
                continue
            ctx.instance(module=module)
            base = st.is_comultiplication(module)
            via_primes = all(
                st.is_s_comultiplication(module, s).holds for s in at_primes
            )
            via_maxes = all(
                st.is_s_comultiplication(module, s).holds for s in at_maxes
            )
            via_supported = all(
                st.is_s_comultiplication(module, s).holds
                for s in at_maxes if loc.locally_nonzero(module, s)
            )
            if not base == via_primes == via_maxes == via_supported:
                ctx.fail(verdicts=[base, via_primes, via_maxes, via_supported])


# ---------------------------------------------------------------------------
# dual Nakayama and its feeder proposition


def _check_p_pf(cat, tb, ctx):
    """Each "some s, a" is asked at s = e_S: sm = am and (s + a)M = 0 still
    hold with s and a both multiplied by r, and ra stays in I."""
    for module, mcs, _, vanishing in _with_module_table(
            cat, _check_p_pf, _s_comult_pairs(cat), _vanishing_colon_ideals):
        full = module.carrier
        ring, e = module.ring, mcs.idempotent
        for ideal, members, im in vanishing:
            ctx.instance(module=module, mcs=mcs, ideal=ideal)
            if first_multiplier(module, mcs, full, im) is None:
                ctx.fail(detail="no s with sM inside IM")
            for m in module.elements():
                if not any(module.act(e, m) == module.act(a, m) for a in members):
                    ctx.fail(element=m, detail="no s, a with sm = am")
            if not any(scalar_times_set(module, ring.add(e, a), full) == _ZERO
                       for a in members):
                ctx.fail(detail="no s, a with (s+a)M = 0")


def _vanishing_colon_ideals(module):
    """(I, sorted I, IM) for every ideal I with (0:_M I) = 0, in ideal order."""
    full = module.carrier
    return [(ideal, sorted(ideal.elements),
             ideal_times_module_set(module, ideal.elements, full))
            for ideal in enumerate_ideals(module.ring)
            if zero_colon_set(module, ideal.elements) == _ZERO]


def _check_t_du(cat, tb, ctx):
    # degenerate modules are admitted here: over a finite ring the
    # hypothesis (0 :_M tI) = 0 forces M = 0, so they are the only
    # instances the statement can see
    ctx.tally("nonzero_instances", 0)
    for module, mcs, _ in _s_comult_pairs(cat, include_zero=True):
        ring = module.ring
        jac = jacobson_radical(ring).elements
        seen = set()
        # tI for every t, read from the ring's search table
        multiples = [(ideal, _scalar_multiples(ring, ideal.elements))
                     for ideal in enumerate_ideals(ring)]
        for t in mcs:
            for ideal, times in multiples:
                t_ideal = times[t]
                if not t_ideal <= jac:
                    continue
                if zero_colon_set(module, t_ideal) != _ZERO:
                    continue
                key = (module, mcs, t_ideal)
                if key in seen:
                    continue
                seen.add(key)
                ctx.instance(module=module, mcs=mcs, ideal=ideal, t=t)
                if not module.is_zero_module:
                    ctx.tally("nonzero_instances")
                if first_multiplier(module, mcs, module.carrier, _ZERO) is None:
                    ctx.fail(detail="no s with sM = 0")


def _check_c_du(cat, tb, ctx):
    ctx.tally("nonzero_instances", 0)     # a nonzero instance fails
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
                ctx.instance(module=module, ideal=ideal)
                if not module.is_zero_module:
                    ctx.fail(detail="nonzero module with (0:_M I) = 0")


# ---------------------------------------------------------------------------
# section 3: cyclicity, families, torsion, minimality


def _check_p_cy1(cat, tb, ctx):
    for module, mcs, _ in _s_comult_pairs(cat):
        for ideal in minimal_nonzero_ideals(module.ring):
            if zero_colon_set(module, ideal.elements) != _ZERO:
                continue
            ctx.instance(module=module, mcs=mcs)
            witness = st.is_s_cyclic(module, mcs)
            if witness is None:
                ctx.fail(ideal=ideal, detail="module is not S-cyclic")
            ctx.revalidate(witness)


def _families(module, params):
    """Families of 2 or 3 submodule element sets, deterministic order."""
    subs = [n.elements for n in enumerate_submodules(module)]
    for pair in combinations(subs, 2):
        yield pair
    if len(subs) <= params.triple_family_limit:
        for triple in combinations(subs, 3):
            yield triple


def _check_p_fam(cat, tb, ctx):
    """Some s squeezes a target into N iff e_S does, iff the target lies
    in (N :_M e_S), computed once per (m.c.s., N)."""
    for module, mcs, _, (subs, meets, squeezes) in _with_module_table(
            cat, _check_p_fam, _s_comult_pairs(cat),
            lambda m: _zero_meet_targets(m, cat.params)):
        ctx.at(module=module, mcs=mcs)
        e = (mcs.idempotent,)
        pullbacks = [colon_set_into_module(module, n.elements, e) for n in subs]
        for parts, targets in squeezes:
            ctx.instance()
            for n, target, pullback in zip(subs, map(meets.__getitem__, targets),
                                           pullbacks):
                if not n.elements <= target:
                    ctx.fail(submodule=n, detail="N escaped the intersection")
                if not target <= pullback:
                    ctx.fail(submodule=n,
                             family=[module.set_label(subs[i].elements) for i in parts],
                             detail="no s squeezing the intersection into N")


def _zero_meet_targets(module, params):
    """The module's submodules, the distinct intersections, and (family,
    targets) for each family whose meet is 0: family holds the indices of
    its parts among the submodules, and targets[i] is the index among
    those intersections of the one of N + part over the family for the
    i-th submodule N.

    Each sum N + part is computed once, and each distinct intersection is
    stored once: it is a submodule, so there are no more of them than
    submodules, and a family and its targets are one byte per index (a
    tuple of ints past 256 submodules).
    """
    subs = enumerate_submodules(module)
    pack = bytes if len(subs) <= 256 else tuple
    position = {n.elements: i for i, n in enumerate(subs)}
    sums, index, out = {}, {}, []
    for family in _families(module, params):
        meet = family[0]
        for part in family[1:]:
            meet = meet & part
        if meet != _ZERO:
            continue
        targets = []
        for n in subs:
            target = None
            for part in family:
                key = (n.elements, part)
                summed = sums.get(key)
                if summed is None:
                    summed = sums[key] = sum_of_sets(module, key)
                target = summed if target is None else target & summed
            targets.append(index.setdefault(target, len(index)))
        out.append((pack(map(position.__getitem__, family)), pack(targets)))
    return subs, tuple(map(_shared, index)), out


def _check_p_ext(cat, tb, ctx):
    """The s of each N is the first of S, in canonical order, with
    s(0:_M ann(N)) inside N, which the instances depend on.  Each x(0:_M I)
    is read from the module's search table, one tuple per ideal I."""
    current = None
    for module, mcs, result in _s_comult_pairs(cat):
        if module is not current:       # tables for this module only
            current, ideals, enlarged = module, enumerate_ideals(module.ring), {}
            shifts = [_times_colon(module, ideal) for ideal in ideals]
        ctx.at(module=module, mcs=mcs)
        for n, _ in result.witnesses:
            colon = zero_colon_set(module, annihilator_set(module, n.elements))
            s = next(s for s in mcs if scalar_times_set(module, s, colon) <= n.elements)
            for ideal, shifted in zip(ideals, shifts):
                if not n.elements <= shifted[s]:
                    continue
                ctx.instance()
                key = (n.elements, ideal.elements)
                found = enlarged.get(key)
                if found is None:
                    bigger = ideal_sum(ideal, annihilator(module, n.elements))
                    found = enlarged[key] = bigger, _times_colon(module, bigger)
                bigger, squeezed = found
                if not ideal.elements <= bigger.elements:
                    ctx.fail(ideal=ideal, detail="sum ideal lost the original")
                if not squeezed[s] <= n.elements:
                    ctx.fail(ideal=ideal, submodule=n,
                             detail="s(0:_M J) escaped N for J = I + ann(N)")


def _times_colon(module, ideal):
    """x(0:_M I) for every ring element x: the search table's tuple."""
    return _scalar_multiples(module, zero_colon_set(module, ideal.elements))


def _check_t_tor(cat, tb, ctx):
    for module, mcs, _ in _s_comult_pairs(cat):
        ctx.instance(module=module, mcs=mcs)
        witness = st.is_s_cyclic(module, mcs)
        ctx.revalidate(witness)
        if witness is None and not is_torsion(module):
            ctx.fail(detail="neither S-cyclic nor torsion")


def _check_t_cy2(cat, tb, ctx):
    ctx.tally("already_cyclic", 0)
    for ring in cat.rings:
        zero_ideal = frozenset((ring.zero,))
        if not is_prime_ideal_set(ring, zero_ideal):   # R is a domain iff (0) is prime
            continue
        for module in cat.modules[ring]:
            if module.is_zero_module:
                continue
            full = module.carrier
            for mcs in cat.mcs[ring]:
                if not st.is_s_comultiplication(module, mcs).holds:
                    continue
                ctx.at(module=module, mcs=mcs)
                ctx.revalidate(st.is_s_finite(module, full, mcs))
                # every ann(sM) is 0 iff ann(e_S M) is: e_S M lies in each sM
                e_image = scalar_times_set(module, mcs.idempotent, full)
                if annihilator_set(module, e_image) != zero_ideal:
                    continue
                ctx.instance()
                if st.is_cyclic(module):
                    ctx.tally("already_cyclic")
                witness = st.is_s_cyclic(module, mcs)
                if witness is None:
                    ctx.fail(detail="module is not S-cyclic")
                ctx.revalidate(witness)


def _check_t_cy3(cat, tb, ctx):
    for module, mcs, _ in _s_comult_pairs(cat):
        torsion_free = st.is_s_torsion_free(module, mcs)
        if torsion_free is None:
            continue
        ctx.at(module=module, mcs=mcs)
        ctx.revalidate(torsion_free)
        ctx.instance()
        witness = st.is_s_cyclic(module, mcs)
        if witness is None:
            ctx.fail(detail="S-torsion-free module is not S-cyclic")
        ctx.revalidate(witness)


def _check_t_min(cat, tb, ctx):
    ctx.tally("holds_nonzero_L_reading", 0)
    ctx.tally("holds_all_L_reading", 0)
    for module, mcs, _ in _s_comult_pairs(cat):
        if not st.is_prime_module(module):
            continue
        ctx.instance(module=module, mcs=mcs)
        top = full_submodule(module)
        steps = st.is_s_minimal(module, top, mcs, include_zero=False)
        if not steps.holds:
            ctx.fail(detail="not S-minimal under the nonzero-L reading")
        for _, witness in steps.witnesses:
            ctx.revalidate(witness)
        ctx.tally("holds_nonzero_L_reading")
        if st.is_s_minimal(module, top, mcs, include_zero=True).holds:
            ctx.tally("holds_all_L_reading")


# ---------------------------------------------------------------------------
# section 4: hom bridges, S-prime/S-second characterizations


def _check_p_homs(cat, tb, ctx):
    make = Witness.make
    for f, mcs_list, outcomes in _by_signature(cat, _bridge_outcomes):
        ctx.at(hom=f)
        for mcs, (s_monic, s_epic, failure) in zip(mcs_list, outcomes):
            ctx.instances += 1
            if s_monic is not None:
                witness = make("s-monic", f, mcs, s_monic)
                if not witness.validate():
                    ctx.reject(witness, mcs=mcs)
            if s_epic is not None:
                witness = make("s-epic", f, mcs, s_epic)
                if not witness.validate():
                    ctx.reject(witness, mcs=mcs)
            if failure is not None:
                ctx.fail(mcs=mcs, detail=failure)


def _bridge_outcomes(f, mcs_list):
    """Per m.c.s., the s of the S-monic and S-epic witnesses of
    `monic_epic_bridge` (None where there is none) and how the bridge fails
    (None when it holds)."""
    return [(s_monic, s_epic, mor._bridge_failure(claims))
            for *claims, s_monic, s_epic in mor._bridge_core(f, mcs_list)]


def _check_forms(cat, ctx, submodules, direct, record, derived, skips):
    """Every form of a submodule property agrees and every witness holds.

    `direct(module, n, mcs)`, the toolbox's definitional form, raising one
    of `skips` counts as a skip.  `record` is the forms record and
    `derived` holds, per derived form in field order, the form and the
    claim of its witness, made at e_S from (module, N's elements, mcs); as in
    `s_theory._characterize`, a derived form whose own precondition fails
    reads as None.  A derived form reads S only through e_S (its
    disjointness too: an ideal meets S iff it holds e_S), so the memo
    keeps, per module, one byte per (e_S class, N, derived form)
    (`_e_s_classes`): 0 before the form is evaluated, 1 for None, 2 for a
    witness.  The first m.c.s. of a class that the walk reaches evaluates
    the form; the class's later m.c.s. read the byte.
    """
    width = len(derived)
    make = Witness.make
    ctx.tally("disjointness_skips", 0)
    for module in cat.nonzero_modules():
        ctx.at(module=module)
        subs = submodules(module)
        class_of, firsts = _e_s_classes(cat, module.ring)
        stride = len(subs) * width
        table = cat._memo.get((record, module))
        if table is None:
            table = cat._memo[record, module] = bytearray(len(firsts) * stride)
        for mcs, c in zip(cat.mcs[module.ring], class_of):
            e = mcs.idempotent
            at = c * stride
            for n in subs:
                try:
                    first = direct(module, n, mcs)
                except skips:
                    ctx.tally("disjointness_skips")
                    at += width
                    continue
                witnesses = [first]
                for form, claim in derived:
                    code = table[at]
                    if code == 0:
                        witness = st._guard(lambda: form(module, n, mcs))
                        table[at] = 1 if witness is None else 2
                    elif code == 1:
                        witness = None
                    else:
                        witness = make(claim, module, n.elements, mcs, e)
                    witnesses.append(witness)
                    at += 1
                ctx.instances += 1
                checked = record(*witnesses)
                if not checked.agree():
                    ctx.fail(mcs=mcs, submodule=n, verdicts=list(checked.verdicts))
                for witness in checked:
                    if witness is not None and not witness.validate():
                        ctx.reject(witness, mcs=mcs, submodule=n)


def _check_p_spr(cat, tb, ctx):
    """`s_prime_characterizations`, the derived forms read from the memo."""
    _check_forms(
        cat, ctx, enumerate_submodules, tb.is_s_prime_submodule, st.SPrimeForms,
        ((st.s_prime_colon_form, "s-prime-colon"),
         (st.s_prime_homothety_form, "s-prime-homothety")),
        DisjointnessFailure)


def _check_t_sec(cat, tb, ctx):
    """`s_second_characterizations`, the derived forms read from the memo."""
    _check_forms(
        cat, ctx, _nonzero_submodules, tb.is_s_second, st.SSecondForms,
        ((st.s_second_homothety_form, "s-second-homothety"),
         (st.s_second_containment_form, "s-second-containment")),
        (DisjointnessFailure, PreconditionUnmet))


def _check_t_m3(cat, tb, ctx):
    for module, mcs, _, annihilated in _with_module_table(
            cat, _check_t_m3, _s_comult_pairs(cat), _nonzero_annihilators):
        ring = module.ring
        for n, ann_ideal in annihilated:
            second = st._guard(lambda: tb.is_s_second(module, n, mcs))
            prime = st._guard(lambda: st.is_s_prime_ideal(
                ring, ann_ideal, mcs, submodule_fn=tb.is_s_prime_submodule))
            clause = tb.uniform_multiple(module, n, mcs)
            ctx.at(module=module, mcs=mcs, submodule=n)
            ctx.revalidate(clause)
            ctx.instance()
            left = second is not None
            right = prime is not None and clause is not None
            if left != right:
                ctx.fail(second=left, prime_annihilator=prime is not None,
                         uniform_multiple=clause is not None)
            for witness in (second, prime):
                ctx.revalidate(witness)


def _nonzero_annihilators(module):
    """(N, ann(N)) for every nonzero submodule N, in submodule order."""
    return [(n, annihilator(module, n.elements))
            for n in _nonzero_submodules(module)]


def _check_c_m3(cat, tb, ctx):
    for module in cat.nonzero_modules():
        if not st.is_comultiplication(module):
            continue
        for n in _nonzero_submodules(module):
            ctx.instance(module=module, submodule=n)
            second = st.is_second_submodule_set(module, n.elements)
            prime = is_prime_ideal_set(module.ring,
                                       annihilator_set(module, n.elements))
            if second != prime:
                ctx.fail(second=second, prime_annihilator=prime)


def _check_t_ssum(cat, tb, ctx):
    """Some s puts sN inside a summand iff e_S does: e_S N is computed once
    per (m.c.s., S-second N)."""
    for module, mcs, _, (nonzero, totals) in _with_module_table(
            cat, _check_t_ssum, _s_comult_pairs(cat),
            lambda m: (_nonzero_submodules(m), [])):
        ctx.at(module=module, mcs=mcs)
        seconds = []
        for n in nonzero:
            witness = st._guard(lambda: tb.is_s_second(module, n, mcs))
            if witness is None:
                continue
            ctx.revalidate(witness, submodule=n)
            seconds.append(n)
        if not seconds:
            continue
        if not totals:          # the first time the module has an S-second N
            totals.extend((family, sum_of_sets(module, family))
                          for family in _families(module, cat.params))
        images = [scalar_times_set(module, mcs.idempotent, n.elements)
                  for n in seconds]
        for family, total in totals:
            for n, image in zip(seconds, images):
                if not n.elements <= total:
                    continue
                ctx.instance()
                if not any(image <= part for part in family):
                    ctx.fail(submodule=n, family=[module.set_label(p) for p in family],
                             detail="no s with sN inside a summand")


# ---------------------------------------------------------------------------
# registry and runners


class Statement(NamedTuple):
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
    ctx = _Ctx()
    counterexample = None
    start = time.perf_counter()
    try:
        statement.check(catalog, toolbox or Toolbox(), ctx)
    except _Counterexample as failure:
        ctx.notes = {}                          # tallied only part way
        counterexample = failure.args[0]
    except ScomultError as err:
        ctx.instances, ctx.notes = 0, {}        # drop the counts made before it
        counterexample = {"error": str(err)}
    elapsed = (time.perf_counter() - start) * 1000.0
    if counterexample is not None:
        verdict = "fail"
    elif ctx.instances == 0:
        verdict = "vacuous"
    else:
        verdict = "pass"
    return StatementReport(statement_id, statement.title, verdict, ctx.instances,
                           counterexample, elapsed, ctx.notes)


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

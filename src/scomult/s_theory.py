"""S-theoretic predicates with deterministic witness extraction.

Every predicate of the shape "there exists s in S such that ..." is
answered at one element, e_S (`MCS.idempotent`): e_S lies in S and every s
of S divides it, and each condition below still holds when s is multiplied
by a ring element, so some s works exactly when e_S does (see the README,
"One multiplier answers for S").  A predicate returns a `Witness` that
binds the m.c.s. and s = e_S and re-validates against the defining
condition.  A clause "for every t in S" holds at e_S, which t divides, so
only the revalidators range over S to check it.  Every test
whether e_S X lies inside Y is one call of `modules.first_multiplier`.
The searches read x*N from the module's search table
(`modules._scalar_multiples`), the revalidators from its revalidation
table (`_revalidation_multiples`): each x*N is built once per (module, N)
on each side, and neither side reads the other's.
The definitional lemma form and S-cyclicity then look for an ideal or an
element in canonical order.  Predicates whose definition is conditional on a
disjointness hypothesis raise `DisjointnessFailure` instead of returning
False; the two outcomes are deliberately kept distinct.  The transfer
check along a hom lives here, not in `morphisms`, because it reads
S-comultiplication at both ends; `transfer_theorem_check` builds its report
from a core that T-HOM reads once per hom signature and e_S class.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import AxiomViolation, DisjointnessFailure, PreconditionUnmet
from .modules import (
    Submodule,
    _scalar_multiples,
    annihilator_set,
    colon_set_into_ring,
    cyclic_set,
    enumerate_submodules,
    first_multiplier,
    ideal_times_module_set,
    scalar_times_set,
    self_module,
    zero_colon_set,
)
from .morphisms import (
    _hom_witness,
    _idempotent_in,
    homothety_family,
    homothety_on_family,
    is_epic,
    is_s_epic_with,
    is_s_monic_with,
    is_s_zero_with,
)
from .rings import _multiples_of, _span, enumerate_ideals
from .witnesses import Witness, revalidator

_ZERO = frozenset((0,))


def _as_submodule(module, x):
    """x if a Submodule, else the closure-checked Submodule on its elements."""
    return x if isinstance(x, Submodule) else Submodule(module, frozenset(x))


class ForEachResult(NamedTuple):
    """A witness for every item (a submodule or a pair), or the first without."""

    holds: bool
    witnesses: tuple          # ((item, Witness), ...); () for a classical property
    failing: object           # the first item without a witness, or None

    def __bool__(self):
        return self.holds


def _for_each(items, find):
    """`find(item)` for every item, stopping at the first that gives None."""
    found = []
    for item in items:
        witness = find(item)
        if witness is None:
            return ForEachResult(False, tuple(found), item)
        found.append((item, witness))
    return ForEachResult(True, tuple(found), None)


def _verdicts(forms):
    """The truth of each form, in field order: the `verdicts` property of
    the forms records (NamedTuples of equivalent forms of one property,
    each form a witness, a result or None)."""
    return tuple(map(bool, forms))


def _agree(forms):
    return len(set(_verdicts(forms))) == 1


def _revalidation_multiples(module, subset):
    """x*N for every ring element x, as a tuple indexed by x, from the
    revalidation table of the module keyed by N: built from the action rows
    on first use and read by the revalidators only, never by a search."""
    table = module._revalidation_multiples
    if table is None:
        table = module._revalidation_multiples = {}
    multiples = table.get(subset)
    if multiples is None:
        multiples = table[subset] = _multiples_of(module, subset)
    return multiples


# ---------------------------------------------------------------------------
# S-prime submodules and ideals


def _require_disjoint(shared_name, left, mcs):
    common = left & mcs.elements
    if common:
        raise DisjointnessFailure(min(common), shared_name)


def _guard(thunk):
    """The thunk's result, or None when it raises a precondition error."""
    try:
        return thunk()
    except (DisjointnessFailure, PreconditionUnmet):
        return None


def _characterize(forms, module, x, mcs, direct, *derived):
    """`forms` of the submodule x: the definitional form, then the derived ones.

    The definitional form runs first and its precondition errors propagate;
    a derived form whose own precondition fails reads as None.
    """
    sub = _as_submodule(module, x)
    return forms(direct(module, sub, mcs),
                 *(_guard(lambda f=f: f(module, sub, mcs)) for f in derived))


def _s_prime_subject(module, p, mcs):
    """P's element set and (P:M), once (P:M) is known to miss S, else raise."""
    p_set = p.elements if isinstance(p, Submodule) else frozenset(p)
    colon = colon_set_into_ring(module, p_set, module.carrier)
    _require_disjoint("(P:M) and S", colon, mcs)
    return p_set, colon


def is_s_prime_submodule(module, p, mcs):
    """e_S when it makes every am in P resolve to sa in (P:M) or sm in P."""
    p_set, colon = _s_prime_subject(module, p, mcs)
    ring, e = module.ring, mcs.idempotent
    e_row = module.act_row(e)
    for a in ring.elements():
        if ring.mul(e, a) in colon:
            continue
        a_row = module.act_row(a)
        for m in module.elements():
            if a_row[m] in p_set and e_row[m] not in p_set:
                return None
    return Witness.make("s-prime-submodule", module, p_set, mcs, e)


def _outside(module, t, p):
    """The m with t*m outside p, read from t's action row."""
    return [m for m, tm in enumerate(module.act_row(t)) if tm not in p]


@revalidator("s-prime-submodule")
def _check_s_prime(module, p, mcs, s):
    colon = colon_set_into_ring(module, p, module.carrier)
    if not colon.isdisjoint(mcs.elements):
        return False
    # am in P must give sa in (P:M) or sm in P: each a with sa outside
    # (P:M) must send every m with sm outside P outside P too.
    outside = _outside(module, s, p)
    return all(p.isdisjoint(map(module.act_row(a).__getitem__, outside))
               for a, sa in enumerate(module.ring.act_row(s)) if sa not in colon)


def is_s_prime_ideal(ring, ideal, mcs, submodule_fn=None):
    """An ideal is S-prime when it is an S-prime submodule of R over itself."""
    fn = submodule_fn or is_s_prime_submodule
    return fn(self_module(ring), frozenset(ideal.elements), mcs)


def is_prime_submodule_set(module, subset):
    """Classical prime: proper, and am in P forces m in P or a in (P:M)."""
    if len(subset) == module.size:
        return False
    colon = colon_set_into_ring(module, subset, module.carrier)
    outside = [m for m in module.elements() if m not in subset]
    return all(subset.isdisjoint(map(module.act_row(a).__getitem__, outside))
               for a in module.ring.elements() if a not in colon)


class SPrimeForms(NamedTuple):
    direct: Witness | None
    colon_prime: Witness | None
    homothety: Witness | None
    verdicts = property(_verdicts)
    agree = _agree


def s_prime_colon_form(module, p, mcs):
    """e_S when (P:_M e_S) is prime.  (P:_M t) lies below it for every t in
    S: e_S = rt, so tm in P gives e_S m = r(tm) in P."""
    p_set, _ = _s_prime_subject(module, _as_submodule(module, p), mcs)
    e = mcs.idempotent
    colon = frozenset(m for m, em in enumerate(module.act_row(e)) if em in p_set)
    if is_prime_submodule_set(module, colon):
        return Witness.make("s-prime-colon", module, p_set, mcs, e)
    return None


def s_prime_homothety_form(module, p, mcs):
    """e_S when it makes every homothety on M/P S-zero or S-injective."""
    p_set, _ = _s_prime_subject(module, _as_submodule(module, p), mcs)
    e = mcs.idempotent
    if all(e in h.s_zero_scalars() or e in h.s_monic_scalars()
           for h in homothety_family(module, p_set)):
        return Witness.make("s-prime-homothety", module, p_set, mcs, e)
    return None


def s_prime_characterizations(module, p, mcs, direct_fn=None):
    """Definitional, colon-by-s, and quotient-homothety verdicts for S-prime."""
    return _characterize(SPrimeForms, module, p, mcs,
                         direct_fn or is_s_prime_submodule,
                         s_prime_colon_form, s_prime_homothety_form)


@revalidator("s-prime-colon")
def _check_s_prime_colon(module, p, mcs, s):
    if not colon_set_into_ring(module, p, module.carrier).isdisjoint(mcs.elements):
        return False
    outside = _outside(module, s, p)
    target = module.carrier.difference(outside)         # (P :_M s)
    if not is_prime_submodule_set(module, target):
        return False
    # (P :_M t) <= (P :_M s): t sends every m outside (P :_M s) outside P.
    return all(p.isdisjoint(map(module.act_row(t).__getitem__, outside))
               for t in mcs)


@revalidator("s-prime-homothety")
def _check_s_prime_homothety(module, p, mcs, s):
    if colon_set_into_ring(module, p, module.carrier) & mcs.elements:
        return False
    family = homothety_family(module, p)
    return all(is_s_zero_with(h, s) or is_s_monic_with(h, s) for h in family)


# ---------------------------------------------------------------------------
# S-second submodules


def _nonzero_submodule(module, n):
    n_sub = _as_submodule(module, n)
    if n_sub.is_zero():
        raise PreconditionUnmet("S-second requires a nonzero submodule")
    return n_sub


def _s_second_subject(module, n, mcs):
    """N as a nonzero submodule whose annihilator misses S, else raise."""
    n_sub = _nonzero_submodule(module, n)
    _require_disjoint("ann(N) and S", annihilator_set(module, n_sub.elements), mcs)
    return n_sub


def _s_second_search(module, n_sub, mcs):
    """The test at e_S behind `is_s_second`, with no precondition checked."""
    multiples = _scalar_multiples(module, n_sub.elements)
    e = mcs.idempotent
    e_image = multiples[e]
    if all(multiples[ea] == _ZERO or multiples[ea] == e_image
           for ea in module.ring.act_row(e)):
        return Witness.make("s-second", module, n_sub.elements, mcs, e)
    return None


def is_s_second(module, n, mcs):
    """e_S when it makes saN = 0 or saN = sN for every scalar a."""
    return _s_second_search(module, _s_second_subject(module, n, mcs), mcs)


@revalidator("s-second")
def _check_s_second(module, n, mcs, s):
    if not annihilator_set(module, n).isdisjoint(mcs.elements):
        return False
    multiples = _revalidation_multiples(module, n)
    s_image = multiples[s]
    for sa in set(module.ring.act_row(s)):      # each product sa once
        sa_image = multiples[sa]
        if sa_image != _ZERO and sa_image != s_image:
            return False
    return True


def is_second_submodule_set(module, subset):
    """Classical second: nonzero, every homothety on N zero or surjective."""
    if subset == _ZERO:
        return False
    multiples = _scalar_multiples(module, frozenset(subset))
    return all(img == _ZERO or img == frozenset(subset) for img in multiples)


class SSecondForms(NamedTuple):
    direct: Witness | None
    homothety: Witness | None
    containment: Witness | None
    verdicts = property(_verdicts)
    agree = _agree


def s_second_homothety_form(module, n, mcs):
    """e_S when it makes every homothety on N S-zero or S-surjective."""
    n_sub = _s_second_subject(module, n, mcs)
    e = mcs.idempotent
    if all(e in h.s_zero_scalars() or e in h.s_epic_scalars()
           for h in homothety_on_family(module, n_sub.elements)):
        return Witness.make("s-second-homothety", module, n_sub.elements, mcs, e)
    return None


def s_second_containment_form(module, n, mcs):
    """e_S when, at s = e_S, saN = 0 or sN <= aN for every scalar a."""
    n_sub = _s_second_subject(module, n, mcs)
    multiples = _scalar_multiples(module, n_sub.elements)
    e = mcs.idempotent
    if all(multiples[ea] == _ZERO or multiples[e] <= multiples[a]
           for a, ea in enumerate(module.ring.act_row(e))):
        return Witness.make("s-second-containment", module, n_sub.elements, mcs, e)
    return None


def s_second_characterizations(module, n, mcs, direct_fn=None):
    """Definitional, homothety, and containment verdicts for S-second."""
    return _characterize(SSecondForms, module, n, mcs,
                         direct_fn or is_s_second,
                         s_second_homothety_form, s_second_containment_form)


@revalidator("s-second-homothety")
def _check_s_second_homothety(module, n, mcs, s):
    if annihilator_set(module, n) & mcs.elements:
        return False
    family = homothety_on_family(module, n)
    return all(is_s_zero_with(h, s) or is_s_epic_with(h, s) for h in family)


@revalidator("s-second-containment")
def _check_s_second_containment(module, n, mcs, s):
    if not annihilator_set(module, n).isdisjoint(mcs.elements):
        return False
    # saN = 0 or sN <= aN for every a; live holds each product sa with saN != 0
    multiples = _revalidation_multiples(module, n)
    s_image = multiples[s]
    sa_row = module.ring.act_row(s)
    live = {sa for sa in set(sa_row) if multiples[sa] != _ZERO}
    return all(s_image.issubset(multiples[a])
               for a, sa in enumerate(sa_row) if sa in live)


# ---------------------------------------------------------------------------
# S-comultiplication and the equivalence lemma


@lru_cache(maxsize=None)
def is_s_comultiplication(module, mcs):
    """For every N, a single s with s(0:_M ann(N)) inside N: e_S, if any.

    Containment N <= (0:_M ann(N)) holds automatically and is asserted.
    """

    def find(n):
        colon = zero_colon_set(module, annihilator_set(module, n.elements))
        if not n.elements <= colon:
            raise AxiomViolation("N must sit inside (0 :_M ann(N))")
        s = first_multiplier(module, mcs, colon, n.elements)
        return None if s is None else Witness.make(
            "s-comultiplication", module, n.elements, mcs, s)

    return _for_each(enumerate_submodules(module), find)


@revalidator("s-comultiplication")
def _check_s_comult(module, n, mcs, s):
    colon = zero_colon_set(module, annihilator_set(module, n))
    return _revalidation_multiples(module, colon)[s] <= n <= colon


def _lemma_pair_search(module, mcs, multiplier):
    """For each K, N with ann(K) <= ann(N), the s that multiplier(K, N) finds.

    K and N reach `multiplier` as element sets; it returns an s or None.
    """
    subs = enumerate_submodules(module)
    anns = {n: annihilator_set(module, n.elements) for n in subs}

    def find(pair):
        k, n = pair
        s = multiplier(k.elements, n.elements)
        return None if s is None else Witness.make(
            "lemma-pair", module, k.elements, n.elements, mcs, s)

    return _for_each(
        ((k, n) for k in subs for n in subs if anns[k] <= anns[n]), find)


def lemma_pair_form(module, mcs):
    """For each K, N with ann(K) <= ann(N), a single s with sN <= K: e_S, if any."""
    return _lemma_pair_search(
        module, mcs, lambda k, n: first_multiplier(module, mcs, n, k))


@revalidator("lemma-pair")
def _check_lemma_pair(module, k, n, mcs, s):
    return _revalidation_multiples(module, n)[s] <= k


def lemma_definitional_form(module, mcs):
    """For each N, some s and ideal I with s(0:_M I) <= N <= (0:_M I): s = e_S
    and the first such I in ideal order, if any."""
    e = mcs.idempotent
    colons = [(i, zero_colon_set(module, i.elements))
              for i in enumerate_ideals(module.ring)]

    def find(n):
        for ideal, colon in colons:
            if n.elements <= colon and scalar_times_set(module, e, colon) <= n.elements:
                return Witness.make("s-comultiplication-def", module, n.elements,
                                    mcs, e, ideal)
        return None

    return _for_each(enumerate_submodules(module), find)


@revalidator("s-comultiplication-def")
def _check_s_comult_def(module, n, mcs, s, ideal):
    colon = zero_colon_set(module, ideal.elements)
    return _revalidation_multiples(module, colon)[s] <= n <= colon


class LemmaForms(NamedTuple):
    definitional: ForEachResult
    annihilator: ForEachResult
    pairwise: ForEachResult
    verdicts = property(_verdicts)
    agree = _agree


def lemma_equivalence_bundle(module, mcs, pair_form_fn=None):
    """All three forms of the S-comultiplication property, side by side."""
    return LemmaForms(
        lemma_definitional_form(module, mcs),
        is_s_comultiplication(module, mcs),
        (pair_form_fn or lemma_pair_form)(module, mcs),
    )


# ---------------------------------------------------------------------------
# classical counterparts and multiplication-side predicates


def comultiplication_result(module):
    """Every N equals (0 :_M ann(N)); no scalar to record, so no witnesses."""
    for n in enumerate_submodules(module):
        if zero_colon_set(module, annihilator_set(module, n.elements)) != n.elements:
            return ForEachResult(False, (), n)
    return ForEachResult(True, (), None)


@lru_cache(maxsize=None)
def is_comultiplication(module):
    """Every N equals (0 :_M ann(N))."""
    return comultiplication_result(module).holds


def is_multiplication(module):
    """Every N equals (N : M)M."""
    full = module.carrier
    for n in enumerate_submodules(module):
        colon = colon_set_into_ring(module, n.elements, full)
        if ideal_times_module_set(module, colon, full) != n.elements:
            return False
    return True


def is_s_multiplication(module, mcs):
    """For every N a single s with sN <= (N:M)M, using the largest ideal:
    e_S, if any."""
    full = module.carrier

    def find(n):
        colon = colon_set_into_ring(module, n.elements, full)
        im = ideal_times_module_set(module, colon, full)
        if not im <= n.elements:
            raise AxiomViolation("(N:M)M must sit inside N")
        s = first_multiplier(module, mcs, n.elements, im)
        return None if s is None else Witness.make(
            "s-multiplication", module, n.elements, mcs, s)

    return _for_each(enumerate_submodules(module), find)


@revalidator("s-multiplication")
def _check_s_mult(module, n, mcs, s):
    full = module.carrier
    colon = colon_set_into_ring(module, n, full)
    im = ideal_times_module_set(module, colon, full)
    return _revalidation_multiples(module, n)[s] <= im <= n


def is_s_cyclic(module, mcs):
    """(e_S, m) for the first m with e_S M <= Rm, if any."""
    e = mcs.idempotent
    e_image = scalar_times_set(module, e, module.carrier)
    for m in module.elements():
        if e_image <= cyclic_set(module, m):
            return Witness.make("s-cyclic", module, mcs, e, m)
    return None


@revalidator("s-cyclic")
def _check_s_cyclic(module, mcs, s, element):
    return (_revalidation_multiples(module, module.carrier)[s]
            <= cyclic_set(module, element))


def is_cyclic(module):
    return any(len(cyclic_set(module, m)) == module.size for m in module.elements())


def is_s_finite(module, n, mcs):
    """Always true at finite scale; reports a greedily minimal generator set."""
    n_sub = _as_submodule(module, n)
    gens = []
    current = _ZERO
    while current != n_sub.elements:
        gens.append(min(n_sub.elements - current))
        current = _span(module, tuple(gens))
    return Witness.make("s-finite", module, n_sub.elements, mcs, module.ring.one,
                        tuple(gens))


@revalidator("s-finite")
def _check_s_finite(module, n, mcs, s, generators):
    span = _span(module, generators)
    return _revalidation_multiples(module, n)[s] <= span <= n


def is_s_torsion_free(module, mcs):
    """e_S when am = 0 implies sa = 0 or sm = 0 at s = e_S."""
    ring, e = module.ring, mcs.idempotent
    e_row = module.act_row(e)
    if all(ring.mul(e, a) == ring.zero or e_row[m] == 0
           for a in ring.elements() for m in module.elements()
           if module.act(a, m) == 0):
        return Witness.make("s-torsion-free", module, mcs, e)
    return None


@revalidator("s-torsion-free")
def _check_s_torsion_free(module, mcs, s):
    # am = 0 must give sa = 0 or sm = 0: each a with sa nonzero must not
    # kill an m with sm nonzero.
    zero = module.ring.zero
    moved = [m for m, sm in enumerate(module.act_row(s)) if sm != 0]
    return all(0 not in map(module.act_row(a).__getitem__, moved)
               for a, sa in enumerate(module.ring.act_row(s)) if sa != zero)


def is_s_minimal(module, k, mcs, include_zero=False):
    """For every submodule L below K, e_S if e_S K <= L; a ForEachResult.

    L runs in `enumerate_submodules` order.  The default reading ranges over
    nonzero L; `include_zero` adds L = 0, which forces some s to annihilate
    K outright.
    """
    k_sub = _as_submodule(module, k)
    if k_sub.is_zero():
        raise PreconditionUnmet("S-minimal requires a nonzero submodule")
    k_set = k_sub.elements

    def step(l):
        s = first_multiplier(module, mcs, k_set, l.elements)
        return None if s is None else Witness.make(
            "s-minimal-step", module, k_set, l.elements, mcs, s)

    below = [l for l in enumerate_submodules(module)
             if l.elements <= k_set and (include_zero or not l.is_zero())]
    return _for_each(below, step)


@revalidator("s-minimal-step")
def _check_s_minimal_step(module, k, l, mcs, s):
    return _revalidation_multiples(module, k)[s] <= l


def is_prime_module(module):
    """Every nonzero submodule has the same annihilator as the module."""
    if module.is_zero_module:
        return False
    ann_m = annihilator_set(module, module.carrier)
    return all(
        annihilator_set(module, n.elements) == ann_m
        for n in enumerate_submodules(module) if not n.is_zero()
    )


def uniform_multiple(module, n, mcs):
    """e_S, with e_S N <= tN for every t in S and submodule N: e_S = rt, so
    e_S N = t(rN) lies in tN."""
    n_set = n.elements if isinstance(n, Submodule) else frozenset(n)
    return Witness.make("uniform-multiple", module, n_set, mcs, mcs.idempotent)


@revalidator("uniform-multiple")
def _check_uniform_multiple(module, n, mcs, s):
    multiples = _revalidation_multiples(module, n)
    return all(multiples[s] <= multiples[t] for t in mcs)


# ---------------------------------------------------------------------------
# transfer along homs


class TransferReport(NamedTuple):
    kernel_witness: Witness
    downward_applicable: bool     # target had the property
    downward_holds: bool | None
    upward_applicable: bool       # f surjective and source had the property
    upward_holds: bool | None
    failing_submodule: object

    def holds(self):
        return self.downward_holds in (None, True) and self.upward_holds in (None, True)


def transfer_theorem_check(f, mcs):
    """Transfer of the S-comultiplication property along f when tKer(f)=0."""
    entry = _transfer_core(f, (mcs,))[0]
    if entry is None:
        raise PreconditionUnmet("no element of S annihilates the kernel")
    s, *verdicts = entry
    return TransferReport(_hom_witness("s-monic", f, mcs, s), *verdicts)


def _transfer_core(f, mcs_list):
    """For each m.c.s. in turn: None where no s of S annihilates Ker(f),
    else e_S, which then does, and the other five `TransferReport` fields.

    It reads only the hom's signature (source, target, kernel and image)
    and each m.c.s.'s e_S, so every hom with that signature has the same
    core, and every m.c.s. with that e_S the same entry.
    """
    kernel_scalars, epic = f.s_monic_scalars(), is_epic(f)
    core = []
    for mcs in mcs_list:
        s = _idempotent_in(kernel_scalars, mcs)
        if s is None:
            core.append(None)
            continue
        failing = None
        target_res = is_s_comultiplication(f.target, mcs)
        source_res = is_s_comultiplication(f.source, mcs)
        downward_applicable = target_res.holds
        downward = None
        if downward_applicable:
            downward = source_res.holds
            if not downward:
                failing = source_res.failing
        upward_applicable = epic and source_res.holds
        upward = None
        if upward_applicable:
            upward = target_res.holds
            if not upward:
                failing = target_res.failing
        core.append((s, downward_applicable, downward, upward_applicable,
                     upward, failing))
    return tuple(core)

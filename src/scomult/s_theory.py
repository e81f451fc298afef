"""S-theoretic predicates with deterministic witness extraction.

Every predicate of the shape "there exists s in S such that ..." searches
the m.c.s. in canonical element order, witness outermost, and returns a
`Witness` that re-validates against the defining condition.  Predicates
whose definition is conditional on a disjointness hypothesis raise
`DisjointnessFailure` instead of returning False; the two outcomes are
deliberately kept distinct.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

from .errors import AxiomViolation, DisjointnessFailure, PreconditionUnmet
from .modules import (
    Submodule,
    annihilator_set,
    colon_set_into_ring,
    cyclic_set,
    enumerate_submodules,
    ideal_times_module_set,
    scalar_times_set,
    self_module,
    zero_colon_set,
)
from .morphisms import (
    homothety_family,
    homothety_on_family,
    is_s_epic_with,
    is_s_monic_with,
    is_s_zero_with,
)
from .rings import _span, enumerate_ideals
from .witnesses import Witness, revalidator

_ZERO = frozenset((0,))


def _full_set(module):
    return frozenset(module.elements())


def _as_submodule(module, x):
    """x if a Submodule, else the closure-checked Submodule on its elements."""
    return x if isinstance(x, Submodule) else Submodule(module, frozenset(x))


@dataclass(frozen=True)
class ForEachResult:
    """A witness for every item (a submodule or a pair), or the first without."""

    holds: bool
    witnesses: tuple          # ((item, Witness), ...)
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


@dataclass(frozen=True)
class _Forms:
    """Equivalent forms of one property, each a witness, a result or None."""

    def __iter__(self):
        return (getattr(self, f.name) for f in fields(self))

    @property
    def verdicts(self):
        return tuple(map(bool, self))

    def agree(self):
        return len(set(self.verdicts)) == 1


@lru_cache(maxsize=None)
def _scalar_multiples(module, subset):
    """x*K for every ring element x, as a tuple indexed by x."""
    return tuple(
        scalar_times_set(module, x, subset) for x in module.ring.elements()
    )


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
    colon = colon_set_into_ring(module, p_set, _full_set(module))
    _require_disjoint("(P:M) and S", colon, mcs)
    return p_set, colon


def is_s_prime_submodule(module, p, mcs):
    """Single s making every am in P resolve to sa in (P:M) or sm in P."""
    p_set, colon = _s_prime_subject(module, p, mcs)
    ring = module.ring
    for s in mcs:
        s_row = module.act_row(s)
        ok = True
        for a in ring.elements():
            if ring.mul(s, a) in colon:
                continue
            a_row = module.act_row(a)
            for m in module.elements():
                if a_row[m] in p_set and s_row[m] not in p_set:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return Witness.make("s-prime-submodule", module=module, p=p_set,
                                mcs=mcs, s=s)
    return None


@revalidator("s-prime-submodule")
def _check_s_prime(w):
    module, p_set, mcs, s = (w.get("module"), w.get("p"), w.get("mcs"), w.get("s"))
    colon = colon_set_into_ring(module, p_set, _full_set(module))
    if colon & mcs.elements or s not in mcs.elements:
        return False
    ring = module.ring
    for a in ring.elements():
        for m in module.elements():
            if module.act(a, m) in p_set:
                if ring.mul(s, a) not in colon and module.act(s, m) not in p_set:
                    return False
    return True


def is_s_prime_ideal(ring, ideal, mcs, submodule_fn=None):
    """An ideal is S-prime when it is an S-prime submodule of R over itself."""
    fn = submodule_fn or is_s_prime_submodule
    return fn(self_module(ring), frozenset(ideal.elements), mcs)


def is_prime_submodule_set(module, subset):
    """Classical prime: proper, and am in P forces m in P or a in (P:M)."""
    if len(subset) == module.size:
        return False
    colon = colon_set_into_ring(module, subset, _full_set(module))
    for a in module.ring.elements():
        if a in colon:
            continue
        row = module.act_row(a)
        for m in module.elements():
            if m not in subset and row[m] in subset:
                return False
    return True


@dataclass(frozen=True)
class SPrimeForms(_Forms):
    direct: Witness | None
    colon_prime: Witness | None
    homothety: Witness | None


def s_prime_colon_form(module, p, mcs):
    """Some s with (P:_M s) prime and (P:_M s') below it for all s'."""
    p_set, _ = _s_prime_subject(module, _as_submodule(module, p), mcs)
    by_s = {s: frozenset(m for m in module.elements()
                         if module.act(s, m) in p_set) for s in mcs}
    for s in mcs:
        w = by_s[s]
        if is_prime_submodule_set(module, w) and all(by_s[t] <= w for t in mcs):
            return Witness.make("s-prime-colon", module=module, p=p_set,
                                mcs=mcs, s=s)
    return None


def s_prime_homothety_form(module, p, mcs):
    """Some s making every homothety on M/P S-zero or S-injective with it."""
    p_sub = _as_submodule(module, p)
    p_set, _ = _s_prime_subject(module, p_sub, mcs)
    family = homothety_family(module, p_sub)
    for s in mcs:
        if all(is_s_zero_with(h, s) or is_s_monic_with(h, s) for h in family):
            return Witness.make("s-prime-homothety", module=module, p=p_set,
                                mcs=mcs, s=s)
    return None


def s_prime_characterizations(module, p, mcs, direct_fn=None):
    """Definitional, colon-by-s, and quotient-homothety verdicts for S-prime."""
    return _characterize(SPrimeForms, module, p, mcs,
                         direct_fn or is_s_prime_submodule,
                         s_prime_colon_form, s_prime_homothety_form)


@revalidator("s-prime-colon")
def _check_s_prime_colon(w):
    module, p_set, mcs, s = (w.get("module"), w.get("p"), w.get("mcs"), w.get("s"))
    target = frozenset(m for m in module.elements() if module.act(s, m) in p_set)
    if not is_prime_submodule_set(module, target):
        return False
    for t in mcs:
        other = frozenset(m for m in module.elements() if module.act(t, m) in p_set)
        if not other <= target:
            return False
    return True


@revalidator("s-prime-homothety")
def _check_s_prime_homothety(w):
    module, p_set, s = w.get("module"), w.get("p"), w.get("s")
    family = homothety_family(module, Submodule(module, p_set))
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
    """The search behind `is_s_second`, with no precondition checked."""
    multiples = _scalar_multiples(module, n_sub.elements)
    ring = module.ring
    for s in mcs:
        s_image = multiples[s]
        if all(
            multiples[ring.mul(s, a)] == _ZERO or multiples[ring.mul(s, a)] == s_image
            for a in ring.elements()
        ):
            return Witness.make("s-second", module=module, n=n_sub.elements,
                                mcs=mcs, s=s)
    return None


def is_s_second(module, n, mcs):
    """Single s making saN = 0 or saN = sN for every scalar a."""
    return _s_second_search(module, _s_second_subject(module, n, mcs), mcs)


@revalidator("s-second")
def _check_s_second(w):
    module, n_set, mcs, s = (w.get("module"), w.get("n"), w.get("mcs"), w.get("s"))
    if annihilator_set(module, n_set) & mcs.elements or s not in mcs.elements:
        return False
    ring = module.ring
    s_image = scalar_times_set(module, s, n_set)
    for a in ring.elements():
        sa_image = scalar_times_set(module, ring.mul(s, a), n_set)
        if sa_image != _ZERO and sa_image != s_image:
            return False
    return True


def is_second_submodule_set(module, subset):
    """Classical second: nonzero, every homothety on N zero or surjective."""
    if subset == _ZERO:
        return False
    multiples = _scalar_multiples(module, frozenset(subset))
    return all(img == _ZERO or img == frozenset(subset) for img in multiples)


@dataclass(frozen=True)
class SSecondForms(_Forms):
    direct: Witness | None
    homothety: Witness | None
    containment: Witness | None


def s_second_homothety_form(module, n, mcs):
    """Some s making every homothety on N S-zero or S-surjective with it."""
    n_sub = _s_second_subject(module, n, mcs)
    family = homothety_on_family(n_sub)
    for s in mcs:
        if all(is_s_zero_with(h, s) or is_s_epic_with(h, s) for h in family):
            return Witness.make("s-second-homothety", module=module,
                                n=n_sub.elements, mcs=mcs, s=s)
    return None


def s_second_containment_form(module, n, mcs):
    """Some s with saN = 0 or sN <= aN for every scalar a."""
    n_sub = _s_second_subject(module, n, mcs)
    multiples = _scalar_multiples(module, n_sub.elements)
    ring = module.ring
    for s in mcs:
        if all(
            multiples[ring.mul(s, a)] == _ZERO or multiples[s] <= multiples[a]
            for a in ring.elements()
        ):
            return Witness.make("s-second-containment", module=module,
                                n=n_sub.elements, mcs=mcs, s=s)
    return None


def s_second_characterizations(module, n, mcs, direct_fn=None):
    """Definitional, homothety, and containment verdicts for S-second."""
    return _characterize(SSecondForms, module, n, mcs,
                         direct_fn or is_s_second,
                         s_second_homothety_form, s_second_containment_form)


@revalidator("s-second-homothety")
def _check_s_second_homothety(w):
    module, n_set, s = w.get("module"), w.get("n"), w.get("s")
    family = homothety_on_family(Submodule(module, n_set))
    return all(is_s_zero_with(h, s) or is_s_epic_with(h, s) for h in family)


@revalidator("s-second-containment")
def _check_s_second_containment(w):
    module, n_set, s = w.get("module"), w.get("n"), w.get("s")
    ring = module.ring
    s_image = scalar_times_set(module, s, n_set)
    for a in ring.elements():
        sa_image = scalar_times_set(module, ring.mul(s, a), n_set)
        a_image = scalar_times_set(module, a, n_set)
        if sa_image != _ZERO and not s_image <= a_image:
            return False
    return True


# ---------------------------------------------------------------------------
# S-comultiplication and the equivalence lemma


@lru_cache(maxsize=None)
def is_s_comultiplication(module, mcs):
    """For every N, a single s with s(0:_M ann(N)) inside N.

    Containment N <= (0:_M ann(N)) holds automatically and is asserted.
    """

    def find(n):
        colon = zero_colon_set(module, annihilator_set(module, n.elements))
        if not n.elements <= colon:
            raise AxiomViolation("N must sit inside (0 :_M ann(N))")
        for s in mcs:
            if scalar_times_set(module, s, colon) <= n.elements:
                return Witness.make("s-comultiplication", module=module,
                                    n=n.elements, s=s)
        return None

    return _for_each(enumerate_submodules(module), find)


@revalidator("s-comultiplication")
def _check_s_comult(w):
    module, n_set, s = w.get("module"), w.get("n"), w.get("s")
    ann = annihilator_set(module, n_set)
    colon = zero_colon_set(module, ann)
    return scalar_times_set(module, s, colon) <= n_set <= colon


def _lemma_pair_search(module, mcs, holds):
    """For each K, N with ann(K) <= ann(N), the first s with holds(K, N, s).

    K and N reach `holds` as element sets.
    """
    subs = enumerate_submodules(module)
    anns = {n: annihilator_set(module, n.elements) for n in subs}

    def find(pair):
        k, n = pair
        for s in mcs:
            if holds(k.elements, n.elements, s):
                return Witness.make("lemma-pair", module=module,
                                    k=k.elements, n=n.elements, s=s)
        return None

    return _for_each(
        ((k, n) for k in subs for n in subs if anns[k] <= anns[n]), find)


def lemma_pair_form(module, mcs):
    """For each K, N with ann(K) <= ann(N), a single s with sN <= K."""
    return _lemma_pair_search(
        module, mcs, lambda k, n, s: scalar_times_set(module, s, n) <= k)


@revalidator("lemma-pair")
def _check_lemma_pair(w):
    module, k_set, n_set, s = (w.get("module"), w.get("k"), w.get("n"), w.get("s"))
    return scalar_times_set(module, s, n_set) <= k_set


def lemma_definitional_form(module, mcs):
    """For each N, some s and ideal I with s(0:_M I) <= N <= (0:_M I)."""
    ideals = enumerate_ideals(module.ring)
    colons = [(i, zero_colon_set(module, i.elements)) for i in ideals]

    def find(n):
        for s in mcs:
            for ideal, colon in colons:
                if n.elements <= colon and scalar_times_set(module, s, colon) <= n.elements:
                    return Witness.make("s-comultiplication-def", module=module,
                                        n=n.elements, s=s, ideal=ideal)
        return None

    return _for_each(enumerate_submodules(module), find)


@revalidator("s-comultiplication-def")
def _check_s_comult_def(w):
    module, n_set, s, ideal = (w.get("module"), w.get("n"), w.get("s"), w.get("ideal"))
    colon = zero_colon_set(module, ideal.elements)
    return scalar_times_set(module, s, colon) <= n_set <= colon


@dataclass(frozen=True)
class LemmaForms(_Forms):
    definitional: ForEachResult
    annihilator: ForEachResult
    pairwise: ForEachResult


def lemma_equivalence_bundle(module, mcs, pair_form_fn=None):
    """All three forms of the S-comultiplication property, side by side."""
    return LemmaForms(
        lemma_definitional_form(module, mcs),
        is_s_comultiplication(module, mcs),
        (pair_form_fn or lemma_pair_form)(module, mcs),
    )


# ---------------------------------------------------------------------------
# classical counterparts and multiplication-side predicates


@lru_cache(maxsize=None)
def is_comultiplication(module):
    """Every N equals (0 :_M ann(N))."""
    for n in enumerate_submodules(module):
        ann = annihilator_set(module, n.elements)
        if zero_colon_set(module, ann) != n.elements:
            return False
    return True


@lru_cache(maxsize=None)
def is_multiplication(module):
    """Every N equals (N : M)M."""
    full = _full_set(module)
    for n in enumerate_submodules(module):
        colon = colon_set_into_ring(module, n.elements, full)
        if ideal_times_module_set(module, colon, full) != n.elements:
            return False
    return True


def is_s_multiplication(module, mcs):
    """For every N a single s with sN <= (N:M)M, using the largest ideal."""
    full = _full_set(module)

    def find(n):
        colon = colon_set_into_ring(module, n.elements, full)
        im = ideal_times_module_set(module, colon, full)
        if not im <= n.elements:
            raise AxiomViolation("(N:M)M must sit inside N")
        for s in mcs:
            if scalar_times_set(module, s, n.elements) <= im:
                return Witness.make("s-multiplication", module=module,
                                    n=n.elements, s=s)
        return None

    return _for_each(enumerate_submodules(module), find)


@revalidator("s-multiplication")
def _check_s_mult(w):
    module, n_set, s = w.get("module"), w.get("n"), w.get("s")
    full = _full_set(module)
    colon = colon_set_into_ring(module, n_set, full)
    im = ideal_times_module_set(module, colon, full)
    return scalar_times_set(module, s, n_set) <= im <= n_set


def s_multiplication_general_form(module, mcs):
    """Existential-ideal variant, kept as a cross-check of the reduction."""
    full = _full_set(module)
    ideals = enumerate_ideals(module.ring)
    images = [(i, ideal_times_module_set(module, i.elements, full)) for i in ideals]
    for n in enumerate_submodules(module):
        ok = False
        for s in mcs:
            s_image = scalar_times_set(module, s, n.elements)
            if any(s_image <= im <= n.elements for _, im in images):
                ok = True
                break
        if not ok:
            return False
    return True


def is_s_cyclic(module, mcs):
    """First (s, m) with sM <= Rm."""
    full_images = {s: scalar_times_set(module, s, _full_set(module)) for s in mcs}
    for s in mcs:
        s_image = full_images[s]
        for m in module.elements():
            if s_image <= cyclic_set(module, m):
                return Witness.make("s-cyclic", module=module, s=s, element=m)
    return None


@revalidator("s-cyclic")
def _check_s_cyclic(w):
    module, s, m = w.get("module"), w.get("s"), w.get("element")
    return scalar_times_set(module, s, _full_set(module)) <= cyclic_set(module, m)


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
    return Witness.make("s-finite", module=module, n=n_sub.elements,
                        s=module.ring.one, generators=tuple(gens))


@revalidator("s-finite")
def _check_s_finite(w):
    module, n_set, s, gens = (w.get("module"), w.get("n"), w.get("s"),
                              w.get("generators"))
    span = _span(module, gens)
    return scalar_times_set(module, s, n_set) <= span <= n_set


def is_s_torsion_free(module, mcs):
    """First s with am = 0 implying sa = 0 or sm = 0."""
    ring = module.ring
    zero_pairs = [
        (a, m) for a in ring.elements() for m in module.elements()
        if module.act(a, m) == 0
    ]
    for s in mcs:
        s_row = module.act_row(s)
        if all(ring.mul(s, a) == ring.zero or s_row[m] == 0 for a, m in zero_pairs):
            return Witness.make("s-torsion-free", module=module, mcs=mcs, s=s)
    return None


@revalidator("s-torsion-free")
def _check_s_torsion_free(w):
    module, s = w.get("module"), w.get("s")
    ring = module.ring
    for a in ring.elements():
        for m in module.elements():
            if module.act(a, m) == 0:
                if ring.mul(s, a) != ring.zero and module.act(s, m) != 0:
                    return False
    return True


def is_s_minimal(module, k, mcs, include_zero=False):
    """Per-L witnesses with sK <= L for every submodule L below K, or None.

    The default reading ranges over nonzero L; `include_zero` adds L = 0,
    which forces some s to annihilate K outright.
    """
    k_sub = _as_submodule(module, k)
    if k_sub.is_zero():
        raise PreconditionUnmet("S-minimal requires a nonzero submodule")
    out = {}
    for l in enumerate_submodules(module):
        if not l.elements <= k_sub.elements:
            continue
        if l.is_zero() and not include_zero:
            continue
        witness = None
        for s in mcs:
            if scalar_times_set(module, s, k_sub.elements) <= l.elements:
                witness = Witness.make("s-minimal-step", module=module,
                                       k=k_sub.elements, l=l.elements, s=s)
                break
        if witness is None:
            return None
        out[l] = witness
    return out


@revalidator("s-minimal-step")
def _check_s_minimal_step(w):
    module, k_set, l_set, s = (w.get("module"), w.get("k"), w.get("l"), w.get("s"))
    return scalar_times_set(module, s, k_set) <= l_set


def is_prime_module(module):
    """Every nonzero submodule has the same annihilator as the module."""
    if module.is_zero_module:
        return False
    ann_m = annihilator_set(module, _full_set(module))
    return all(
        annihilator_set(module, n.elements) == ann_m
        for n in enumerate_submodules(module) if not n.is_zero()
    )


def uniform_multiple(module, n, mcs):
    """First s with sN <= s'N for every s' in S."""
    n_set = n.elements if isinstance(n, Submodule) else frozenset(n)
    multiples = {s: scalar_times_set(module, s, n_set) for s in mcs}
    for s in mcs:
        if all(multiples[s] <= multiples[t] for t in mcs):
            return Witness.make("uniform-multiple", module=module, n=n_set,
                                mcs=mcs, s=s)
    return None


@revalidator("uniform-multiple")
def _check_uniform_multiple(w):
    module, n_set, mcs, s = (w.get("module"), w.get("n"), w.get("mcs"), w.get("s"))
    s_image = scalar_times_set(module, s, n_set)
    return all(s_image <= scalar_times_set(module, t, n_set) for t in mcs)

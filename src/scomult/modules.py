"""Finite unital modules over a Ring: carriers, actions, and submodules.

Every module, like every ring, is held as tables on the carrier shared with
`scomult.rings`: an addition table and a full scalar action table, checked
exhaustively by the same axiom check as ring tables the first time they are
seen over a ring.  Index 0 is always the zero element.  A carrier given as
Z_{d1} x ... x Z_{dm} is indexed in mixed radix, lexicographic on residue
tuples, the same canonical order that Z_n product rings use; quotients,
localizations and submodule restrictions index their elements as they
build them.

Submodule closure, enumeration, `(N : K)`, `IM'` and sums run on the same
core in `scomult.rings` as ideals do; the core reads the action rows of its
base, which for a ring are its multiplication rows: an ideal is a submodule
of R over itself.

`first_multiplier`, the first s of an m.c.s. with sX inside Y, is the
library's one existential-s search; witness revalidation never calls it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import AxiomViolation, SizeCapExceeded
from .rings import (
    DEFAULT_CAP,
    Ideal,
    _check_closed,
    _check_in_range,
    _check_tables,
    _colon,
    _enumerate_closed,
    _span,
    _sum,
    _Table,
    componentwise_table,
    mixed_radix_residues,
    product_ring,
    residue_labels,
)

_MODULE_CACHE = {}


class Module(_Table):
    """A finite unital module; elements are indices 0..size-1, zero is 0."""

    __slots__ = ("ring", "kind", "moduli")

    def __init__(self, ring, add_rows, act_rows, kind, name, moduli=None,
                 labels=None):
        super().__init__(add_rows, act_rows, 0, name, labels)
        self.ring = ring
        self.kind = kind
        self.moduli = moduli

    @property
    def is_zero_module(self):
        return self.size == 1

    def describe(self):
        return f"{self.name} over {self.ring.name}"

    def _key(self):
        return (self.ring, self.size, self._add_rows, self._act_rows)


def _intern(ring, add_rows, act_rows):
    """The first (add rows, action rows) pair seen with these tables over ring.

    Tables are checked on their first sight only: a hit means equal tables
    over an equal ring already passed.
    """
    key = (ring, add_rows, act_rows)
    seen = _MODULE_CACHE.get(key)
    if seen is None:
        _check_tables(add_rows, act_rows, 0, ring.one, ring)
        seen = _MODULE_CACHE[key] = key
    return seen[1:]


def make_module(ring, add_rows, act_rows, kind="table", name=None, moduli=None,
                labels=None, cap=DEFAULT_CAP):
    """Validated module from explicit tables.

    Equal tables over an equal ring are stored once and shared, while the
    module keeps the ring, name, labels and kind it was built with.
    """
    add_rows = tuple(tuple(row) for row in add_rows)
    act_rows = tuple(tuple(row) for row in act_rows)
    size = len(add_rows)
    if size > cap:
        raise SizeCapExceeded("module carrier", size, cap)
    add_rows, act_rows = _intern(ring, add_rows, act_rows)
    return Module(
        ring, add_rows, act_rows, kind, name or f"table({size})",
        moduli=moduli, labels=tuple(labels) if labels is not None else None,
    )


def module_from_rule(ring, moduli, rule, kind, name, cap=DEFAULT_CAP):
    """Module over a Z-product carrier with action given by a rule on tuples."""
    moduli = tuple(moduli)
    size = 1
    for n in moduli:
        size *= n
    if size > cap:
        raise SizeCapExceeded("module carrier", size, cap)
    tuples = mixed_radix_residues(moduli)
    index = {t: i for i, t in enumerate(tuples)}
    act_rows = tuple(
        tuple(index[rule(r, t)] for t in tuples) for r in ring.elements()
    )
    return make_module(
        ring, componentwise_table(moduli, operator.add), act_rows,
        kind=kind, name=name, moduli=moduli, labels=residue_labels(moduli),
        cap=cap,
    )


@lru_cache(maxsize=None)
def self_module(ring):
    """The ring viewed as a module over itself."""
    if ring.zero != 0:
        raise AxiomViolation("table ring must place zero at index 0 for self module")
    return make_module(ring, ring._add_rows, ring._act_rows, kind="self",
                       name=ring.name, labels=ring._labels)


def zn_over_zk(ring, d, cap=DEFAULT_CAP):
    """Z_d as a module over Z_n (single-modulus ring), requiring d | n."""
    if ring.moduli is None or len(ring.moduli) != 1:
        raise AxiomViolation("zn_over_zk needs a single-modulus ring")
    n = ring.moduli[0]
    if d < 1 or n % d != 0:
        raise AxiomViolation("carrier modulus must divide the ring modulus", (d, n))
    return module_from_rule(
        ring, (d,), lambda r, t: ((r * t[0]) % d,), "zn_over_zk", f"Z{d}", cap=cap
    )


def direct_sum_module(ring, moduli, cap=DEFAULT_CAP):
    """Z_{d1} + ... + Z_{dk} over Z_n with componentwise action, each d | n."""
    if ring.moduli is None or len(ring.moduli) != 1:
        raise AxiomViolation("direct_sum needs a single-modulus ring")
    n = ring.moduli[0]
    moduli = tuple(moduli)
    for d in moduli:
        if d < 1 or n % d != 0:
            raise AxiomViolation("each carrier modulus must divide the ring modulus", (d, n))
    name = "+".join(f"Z{d}" for d in moduli)
    return module_from_rule(
        ring, moduli,
        lambda r, t: tuple((r * x) % d for x, d in zip(t, moduli)),
        "direct_sum", name, cap=cap,
    )


def zero_module(ring):
    """The one-element module; constructible but flagged via is_zero_module."""
    return make_module(ring, ((0,),), tuple((0,) for _ in ring.elements()),
                       kind="zero", name="0")


def product_module(m1, m2, ring=None, cap=DEFAULT_CAP):
    """M1 x M2 over R1 x R2 with componentwise action."""
    r1, r2 = m1.ring, m2.ring
    if ring is None:
        ring = product_ring(r1, r2, cap=cap)
    size = m1.size * m2.size
    if size > cap:
        raise SizeCapExceeded("module carrier", size, cap)

    def enc(a, b):
        return a * m2.size + b

    add_rows = tuple(
        tuple(enc(m1.add(a1, b1), m2.add(a2, b2))
              for b1 in m1.elements() for b2 in m2.elements())
        for a1 in m1.elements() for a2 in m2.elements()
    )
    act_rows = []
    for r in ring.elements():
        ra, rb = divmod(r, r2.order)
        row1, row2 = m1.act_row(ra), m2.act_row(rb)
        act_rows.append(tuple(
            enc(row1[a], row2[b]) for a in m1.elements() for b in m2.elements()
        ))
    labels = tuple(
        f"({m1.label(a)},{m2.label(b)})"
        for a in m1.elements() for b in m2.elements()
    )
    return make_module(
        ring, add_rows, tuple(act_rows), kind="product",
        name=f"{m1.name}x{m2.name}", labels=labels, cap=cap,
    )


# ---------------------------------------------------------------------------
# submodules


@dataclass(frozen=True)
class Submodule:
    """A subset closed under addition and the full ring action."""

    module: Module
    elements: frozenset
    generators: tuple = field(default=None, compare=False)

    def __post_init__(self):
        _check_closed(self.module, self.elements, self.generators, "submodule",
                      "action")

    def members(self):
        return sorted(self.elements)

    def __contains__(self, x):
        return x in self.elements

    def __len__(self):
        return len(self.elements)

    def is_zero(self):
        return len(self.elements) == 1

    def is_full(self):
        return len(self.elements) == self.module.size

    def describe(self):
        return self.module.set_label(self.elements)


def submodule_closure(module, generators):
    """Least submodule containing the generators."""
    gens = tuple(sorted(set(generators)))
    _check_in_range(module, gens)
    return Submodule(module, _span(module, gens), generators=gens)


def submodule_from_set(module, elements):
    elements = frozenset(elements)
    _check_in_range(module, elements)
    return Submodule(module, elements)


def full_submodule(module):
    return Submodule(module, frozenset(module.elements()))


@lru_cache(maxsize=None)
def enumerate_submodules(module, cap=DEFAULT_CAP):
    """All submodules by incremental one-element extensions, canonical order."""
    if module.size > cap:
        raise SizeCapExceeded("module carrier", module.size, cap)
    return tuple(Submodule(module, els) for els in _enumerate_closed(module))


# ---------------------------------------------------------------------------
# residuals, annihilators, torsion

_ZERO_SET = frozenset((0,))


@lru_cache(maxsize=None)
def colon_set_into_ring(module, n_set, k_set):
    """(N : K) = {x in R : xK <= N} as a raw element set; cached per key."""
    return _colon(module, n_set, k_set)


def colon_set_into_module(module, n_set, i_set):
    """(N :_M I) = {m : Im <= N} as a raw element set."""
    rows = [module.act_row(a) for a in i_set]
    return frozenset(
        m for m in module.elements() if all(row[m] in n_set for row in rows)
    )


@lru_cache(maxsize=None)
def annihilator_set(module, subset):
    """ann(K) = (0 : K) as a raw element set; cached per (module, subset)."""
    return colon_set_into_ring(module, _ZERO_SET, subset)


def annihilator(module, subset):
    return Ideal(module.ring, annihilator_set(module, frozenset(subset)))


@lru_cache(maxsize=None)
def zero_colon_set(module, i_set):
    """(0 :_M I) as a raw element set; cached per (module, ideal set)."""
    return colon_set_into_module(module, _ZERO_SET, i_set)


@lru_cache(maxsize=None)
def torsion_set(module):
    """T(M) = {m : rm = 0 for some nonzero r}."""
    ring = module.ring
    rows = [module.act_row(r) for r in ring.elements() if r != ring.zero]
    return frozenset(m for m in module.elements() if any(row[m] == 0 for row in rows))


def is_torsion(module):
    return len(torsion_set(module)) == module.size


@lru_cache(maxsize=None)
def zero_divisors_on(ring, module):
    """z(M) = {x in R : xm = 0 for some nonzero m}."""
    return frozenset(
        x for x in ring.elements()
        if any(module.act(x, m) == 0 for m in module.elements() if m != 0)
    )


def scalar_times_set(module, r, elements):
    row = module.act_row(r)
    return frozenset(row[m] for m in elements)


def first_multiplier(module, mcs, subset, target):
    """The first s of S, in canonical order, with s*subset inside target, else None.

    Each s is dropped at its first element that misses; nothing is cached.
    """
    for s in mcs:
        if target.issuperset(map(module.act_row(s).__getitem__, subset)):
            return s
    return None


def sum_of_sets(module, sets):
    """N1 + ... + Nk elementwise; submodule sums are already closed."""
    return _sum(module, sets)


def ideal_times_module_set(module, i_set, m_set):
    """IM' = additive closure of {a*m : a in I, m in M'}."""
    return _span(module, m_set, i_set)


def cyclic_set(module, m):
    """Rm = {rm : r in R}; closed already, being the image of an ideal."""
    return frozenset(module.act(r, m) for r in module.ring.elements())


# ---------------------------------------------------------------------------
# quotients, restrictions


@lru_cache(maxsize=None)
def quotient_module(module, submodule):
    """M/N with the induced action, cosets indexed by least representative."""
    n_set = submodule.elements
    seen = coset_index_map(module, submodule)
    reps = []                     # cosets are numbered by their least member
    for m in module.elements():
        if seen[m] == len(reps):
            reps.append(m)
    size = len(reps)
    add_rows = tuple(
        tuple(seen[module.add(reps[i], reps[j])] for j in range(size))
        for i in range(size)
    )
    act_rows = tuple(
        tuple(seen[module.act(r, reps[i])] for i in range(size))
        for r in module.ring.elements()
    )
    labels = tuple("[" + module.label(reps[i]) + "]" for i in range(size))
    return make_module(
        module.ring, add_rows, act_rows, kind="quotient",
        name=f"{module.name}/{module.set_label(n_set)}", labels=labels,
    )


def coset_index_map(module, submodule):
    """Element of M -> index of its coset in quotient_module(M, N)."""
    n_set = submodule.elements
    seen = {}
    count = 0
    for m in module.elements():
        if m in seen:
            continue
        for y in (module.add(m, x) for x in n_set):
            seen[y] = count
        count += 1
    return seen


@lru_cache(maxsize=None)
def submodule_as_module(submodule):
    """N as a module in its own right, same ring and action."""
    module = submodule.module
    members = sorted(submodule.elements)
    index = {m: i for i, m in enumerate(members)}
    add_rows = tuple(
        tuple(index[module.add(a, b)] for b in members) for a in members
    )
    act_rows = tuple(
        tuple(index[module.act(r, a)] for a in members)
        for r in module.ring.elements()
    )
    labels = tuple(module.label(m) for m in members)
    return make_module(
        module.ring, add_rows, act_rows, kind="restriction",
        name=f"{module.name}|{module.set_label(submodule.elements)}", labels=labels,
    )

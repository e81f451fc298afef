"""Finite unital modules over a Ring: carriers, actions, and submodules.

Every module, like every ring, is held as tables on the carrier shared with
`scomult.rings`: an addition table and a full scalar action table, checked
exhaustively by the same axiom check as ring tables the first time they are
seen over a ring.  Index 0 is always the zero element.  A carrier given as
Z_{d1} x ... x Z_{dm} is indexed in mixed radix, lexicographic on residue
tuples, the same canonical order that Z_n product rings use; quotients,
localizations and submodule restrictions index their elements as they
build them.

`Submodule` and its closure constructors live in the closed-subset core of
`scomult.rings` and are re-exported here.  Submodule enumeration, `(N : K)`,
`IM'` and sums run on that core, which reads the action rows of its base;
for a ring these are its multiplication rows, so an ideal is a `Submodule`
of R over itself, and `annihilator` returns one.  Direct products of
modules share one table builder with product rings.

Every x*N a search reads comes from one table per (module or ring, N):
`_scalar_multiples` holds x*N for every ring element x, built on first use
and kept on the table object, and `scalar_times_set` and
`first_multiplier` read it.  `first_multiplier` answers "is there an s of
an m.c.s. with sX inside Y?" for a submodule Y by one containment test at
e_S (`MCS.idempotent`): the s that work are closed under multiplication by
R, and e_S is a multiple of every s in S.  Witness revalidation reads none
of them: it keeps a table of its own (`s_theory._revalidation_multiples`).
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .errors import AxiomViolation
from .rings import (
    Submodule,
    _check_size,
    _check_tables,
    _colon,
    _enumerate_closed,
    _multiples_of,
    _product_tables,
    _shared,
    _span,
    _sum,
    _Table,
    componentwise_table,
    mixed_radix_residues,
    product_ring,
    residue_labels,
    submodule_closure,     # re-exported: closed subsets live in rings
    submodule_from_set,
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
    over an equal ring already passed.  Once checked, their rows are shared.
    """
    seen = _MODULE_CACHE.get((ring, add_rows, act_rows))
    if seen is None:
        _check_tables(add_rows, act_rows, 0, ring.one, ring)
        seen = (ring, tuple(map(_shared, add_rows)), tuple(map(_shared, act_rows)))
        _MODULE_CACHE[seen] = seen
    return seen[1:]


def make_module(ring, add_rows, act_rows, kind="table", name=None, moduli=None,
                labels=None):
    """Validated module from explicit tables.

    Equal tables over an equal ring are stored once and shared, while the
    module keeps the ring, name, labels and kind it was built with.
    """
    add_rows = tuple(tuple(row) for row in add_rows)
    act_rows = tuple(tuple(row) for row in act_rows)
    size = len(add_rows)
    _check_size("module carrier", size)
    add_rows, act_rows = _intern(ring, add_rows, act_rows)
    return Module(
        ring, add_rows, act_rows, kind, name or f"table({size})",
        moduli=moduli, labels=tuple(labels) if labels is not None else None,
    )


def module_from_rule(ring, moduli, rule, kind, name):
    """Module over a Z-product carrier with action given by a rule on tuples."""
    moduli = tuple(moduli)
    size = 1
    for n in moduli:
        size *= n
    _check_size("module carrier", size)
    tuples = mixed_radix_residues(moduli)
    index = {t: i for i, t in enumerate(tuples)}
    act_rows = tuple(
        tuple(index[rule(r, t)] for t in tuples) for r in ring.elements()
    )
    return make_module(
        ring, componentwise_table(moduli, operator.add), act_rows,
        kind=kind, name=name, moduli=moduli, labels=residue_labels(moduli),
    )


@lru_cache(maxsize=None)
def self_module(ring):
    """The ring viewed as a module over itself."""
    if ring.zero != 0:
        raise AxiomViolation("table ring must place zero at index 0 for self module")
    return make_module(ring, ring._add_rows, ring._act_rows, kind="self",
                       name=ring.name, labels=ring._labels)


def zn_over_zk(ring, d):
    """Z_d as a module over Z_n (single-modulus ring), requiring d | n."""
    if ring.moduli is None or len(ring.moduli) != 1:
        raise AxiomViolation("zn_over_zk needs a single-modulus ring")
    n = ring.moduli[0]
    if d < 1 or n % d != 0:
        raise AxiomViolation("carrier modulus must divide the ring modulus", (d, n))
    return module_from_rule(
        ring, (d,), lambda r, t: ((r * t[0]) % d,), "zn_over_zk", f"Z{d}"
    )


def direct_sum_module(ring, moduli):
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
        "direct_sum", name,
    )


def zero_module(ring):
    """The one-element module; constructible but flagged via is_zero_module."""
    return make_module(ring, ((0,),), tuple((0,) for _ in ring.elements()),
                       kind="zero", name="0")


def product_module(m1, m2, ring=None):
    """M1 x M2 over R1 x R2 with componentwise action."""
    if ring is None:
        ring = product_ring(m1.ring, m2.ring)
    add_rows, act_rows, labels = _product_tables(m1, m2, "module carrier")
    return make_module(
        ring, add_rows, act_rows, kind="product",
        name=f"{m1.name}x{m2.name}", labels=labels,
    )


# ---------------------------------------------------------------------------
# submodules


def full_submodule(module):
    return Submodule(module, module.carrier)


@lru_cache(maxsize=None)
def enumerate_submodules(module):
    """All submodules, as sums of cyclic submodules Rm, in canonical order."""
    return _enumerate_closed(module, "module carrier")


# ---------------------------------------------------------------------------
# residuals, annihilators, torsion

_ZERO_SET = frozenset((0,))


@lru_cache(maxsize=None)
def colon_set_into_ring(module, n_set, k_set):
    """(N : K) = {x in R : xK <= N} as a raw element set; cached per key."""
    return _colon(module, n_set, k_set)


def colon_set_into_module(module, n_set, i_set):
    """(N :_M I) = {m : Im <= N} as a raw element set, shared."""
    rows = [module.act_row(a) for a in i_set]
    return _shared(frozenset(
        m for m in module.elements() if all(row[m] in n_set for row in rows)
    ))


@lru_cache(maxsize=None)
def annihilator_set(module, subset):
    """ann(K) = (0 : K) as a raw element set; cached per (module, subset)."""
    return colon_set_into_ring(module, _ZERO_SET, subset)


def annihilator(module, subset):
    """ann(K) as an ideal, a Submodule of the ring."""
    return Submodule(module.ring, annihilator_set(module, frozenset(subset)))


@lru_cache(maxsize=None)
def zero_colon_set(module, i_set):
    """(0 :_M I) as a raw element set; cached per (module, ideal set)."""
    return colon_set_into_module(module, _ZERO_SET, i_set)


def torsion_set(module):
    """T(M) = {m : rm = 0 for some nonzero r}."""
    ring = module.ring
    rows = [module.act_row(r) for r in ring.elements() if r != ring.zero]
    return frozenset(m for m in module.elements() if any(row[m] == 0 for row in rows))


def is_torsion(module):
    return len(torsion_set(module)) == module.size


@lru_cache(maxsize=None)
def zero_divisors_on(module):
    """z(M) = {x in R : xm = 0 for some nonzero m}."""
    return frozenset(
        x for x in module.ring.elements()
        if any(module.act(x, m) == 0 for m in module.elements() if m != 0)
    )


def _scalar_multiples(module, subset):
    """x*subset for every ring element x, as a tuple indexed by x, from the
    search table of the module (or ring) keyed by the subset, a frozenset;
    equal images are one shared frozenset."""
    table = module._multiples
    if table is None:
        table = module._multiples = {}
    multiples = table.get(subset)
    if multiples is None:
        multiples = table[subset] = _multiples_of(module, subset)
    return multiples


def scalar_times_set(module, r, elements):
    """r*elements, read from the search table."""
    return _scalar_multiples(module, elements)[r]


def first_multiplier(module, mcs, subset, target):
    """e_S when e_S*subset lies inside target, else None.

    For a submodule target, some s of S has s*subset inside it exactly when
    e_S has; e_S*subset is read from the search table.
    """
    e = mcs.idempotent
    return e if target.issuperset(_scalar_multiples(module, subset)[e]) else None


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

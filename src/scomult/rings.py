"""Finite commutative unital rings, their ideals, and multiplicatively closed sets.

A ring is R acting on itself: rings and modules share one table carrier,
whose action rows are a ring's multiplication rows, and one axiom check,
the module axioms, which a ring's tables meet over themselves.  An ideal is
a closed subset of R acting on itself, that is a submodule of R as an
R-module, so ideals and submodules share the closed-subset core below
(closure check, generator closure, enumeration, products, colons and sums).

Every ring is held as a pair of Cayley tables over the element indices
0..order-1.  Products of Z_n are built as tables too: the index of an
element is the mixed-radix encoding of its residue tuple, so index order is
lexicographic on residues, and the moduli stay on the ring as metadata.
That index order is the canonical order used by every "first witness"
search in the library.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product

from .errors import (
    AxiomViolation,
    ContainsZero,
    MCSViolation,
    MissingOne,
    NotClosed,
    SizeCapExceeded,
)
from .witnesses import Witness, revalidator

DEFAULT_CAP = 64


class _Table:
    """An abelian group on the indices 0..size-1 with a ring acting by rows.

    Row r of the action rows maps x to r*x.  A Ring is R acting on itself,
    so its action rows are its multiplication rows; a Module's are its
    scalar action.  Equality and hashing go through the per-class `_key()`.
    """

    __slots__ = ("size", "zero", "name", "_labels", "_add_rows", "_act_rows",
                 "_neg", "_hash")

    def __init__(self, add_rows, act_rows, zero, name, labels):
        self.size = len(add_rows)
        self.zero = zero
        self.name = name
        self._labels = labels
        self._add_rows = add_rows
        self._act_rows = act_rows
        self._neg = tuple(row.index(zero) for row in add_rows)
        self._hash = None

    def elements(self):
        return range(self.size)

    def add(self, a, b):
        return self._add_rows[a][b]

    def neg(self, a):
        return self._neg[a]

    def act(self, r, x):
        return self._act_rows[r][x]

    def act_row(self, r):
        return self._act_rows[r]

    def label(self, a):
        if self._labels is not None:
            return self._labels[a]
        return str(a)

    def set_label(self, elements):
        return "{" + ",".join(self.label(x) for x in sorted(elements)) + "}"

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({self.describe()})"


class Ring(_Table):
    """A finite commutative ring with 1 != 0, elements indexed 0..order-1.

    `moduli` is set only for Z_{n1} x ... x Z_{nk}; arithmetic never reads it.
    `add` and `mul` are defined on Ring itself, where perfbench's tracer
    wraps them.
    """

    __slots__ = ("one", "moduli")

    def __init__(self, add_rows, mul_rows, zero, one, name, labels=None,
                 moduli=None):
        super().__init__(add_rows, mul_rows, zero, name, labels)
        self.one = one
        self.moduli = moduli

    @property
    def order(self):
        return self.size

    def add(self, a, b):
        return self._add_rows[a][b]

    def mul(self, a, b):
        return self._act_rows[a][b]

    def describe(self):
        return self.name

    def _key(self):
        return (self.moduli, self.size, self.zero, self.one,
                self._add_rows, self._act_rows)


def mixed_radix_residues(moduli):
    """Residue tuples of Z_{n1} x ... x Z_{nk}, listed in mixed-radix index order."""
    return tuple(product(*(range(n) for n in moduli)))


def residue_labels(moduli):
    """Element labels: "(a,b,...)" for two or more moduli, plain "a" for one."""
    if len(moduli) == 1:
        return tuple(str(a) for a in range(moduli[0]))
    return tuple(
        "(" + ",".join(map(str, t)) + ")" for t in mixed_radix_residues(moduli)
    )


def componentwise_table(moduli, op):
    """Cayley table of `op` applied per component mod each n, mixed-radix indexed."""
    tuples = mixed_radix_residues(moduli)
    index = {t: i for i, t in enumerate(tuples)}
    return tuple(
        tuple(
            index[tuple(op(x, y) % n for x, y, n in zip(ta, tb, moduli))]
            for tb in tuples
        )
        for ta in tuples
    )


def make_ring_zn(moduli, cap=DEFAULT_CAP):
    """Ring Z_{n1} x ... x Z_{nk} under componentwise modular arithmetic.

    The tables are correct by construction, so the exhaustive axiom check
    that make_ring_table runs on outside input is skipped here.
    """
    moduli = tuple(int(n) for n in moduli)
    if not moduli or any(n < 2 for n in moduli):
        raise AxiomViolation("zn_product moduli must all be >= 2", moduli)
    order = 1
    for n in moduli:
        order *= n
    if order > cap:
        raise SizeCapExceeded("ring", order, cap)
    one = mixed_radix_residues(moduli).index((1,) * len(moduli))
    return Ring(
        componentwise_table(moduli, operator.add),
        componentwise_table(moduli, operator.mul),
        0, one, "x".join(f"Z{n}" for n in moduli),
        labels=residue_labels(moduli), moduli=moduli,
    )


def make_ring_table(add_rows, mul_rows, zero, one, cap=DEFAULT_CAP,
                    labels=None, name=None):
    """Ring from explicit Cayley tables; all ring axioms checked exhaustively."""
    add_rows = tuple(tuple(row) for row in add_rows)
    mul_rows = tuple(tuple(row) for row in mul_rows)
    order = len(add_rows)
    if order > cap:
        raise SizeCapExceeded("ring", order, cap)
    _check_tables(add_rows, mul_rows, zero, one)
    return Ring(
        add_rows, mul_rows, zero, one, name or f"table({order})",
        labels=tuple(labels) if labels is not None else None,
    )


def _check_tables(add, act, zero, one, ring=None):
    """Raise the first axiom of a module over `ring` that the tables break.

    `add` is the carrier's addition table and `act` its multiplication by
    scalars, row r mapping x to r*x.  With `ring` None the tables are a ring
    acting on itself: `act` is its multiplication, `one` its 1, and it must
    also be commutative with 1 != 0.
    """
    radd, rmul = (add, act) if ring is None else (ring._add_rows, ring._act_rows)
    size, order = len(add), len(radd)
    rng = range(size)
    if any(len(row) != size for row in add):
        raise AxiomViolation("addition table has wrong shape")
    if len(act) != order or any(len(row) != size for row in act):
        raise AxiomViolation("multiplication table has wrong shape")
    for table, name in ((add, "addition"), (act, "multiplication")):
        for a, row in enumerate(table):
            for b, v in enumerate(row):
                if not 0 <= v < size:
                    raise AxiomViolation(f"{name} table entry out of range", (a, b))
    if not 0 <= zero < size:
        raise AxiomViolation("0 out of range", (zero,))
    if not 0 <= one < order:
        raise AxiomViolation("1 out of range", (one,))
    if ring is None and zero == one:
        raise AxiomViolation("1 must differ from 0")
    for a in rng:
        if add[zero][a] != a:
            raise AxiomViolation("0 is not an additive identity", (a,))
        if act[one][a] != a:
            raise AxiomViolation("1 is not a multiplicative identity", (a,))
        if zero not in add[a]:
            raise AxiomViolation("missing additive inverse", (a,))
    for a in rng:
        for b in rng:
            if add[a][b] != add[b][a]:
                raise AxiomViolation("addition not commutative", (a, b))
            if ring is None and act[a][b] != act[b][a]:
                raise AxiomViolation("multiplication not commutative", (a, b))
    for a in rng:
        row = add[a]
        for b in rng:
            ab = add[row[b]]
            for c in rng:
                if ab[c] != row[add[b][c]]:
                    raise AxiomViolation("addition not associative", (a, b, c))
    for r, row in enumerate(act):
        for x in rng:
            rx, x_plus = add[row[x]], add[x]
            for y in rng:
                if row[x_plus[y]] != rx[row[y]]:
                    raise AxiomViolation("multiplication not distributive", (r, x, y))
    for r in range(order):
        row = act[r]
        for s in range(order):
            sum_row, prod_row, s_row = act[radd[r][s]], act[rmul[r][s]], act[s]
            for x in rng:
                if sum_row[x] != add[row[x]][s_row[x]]:
                    raise AxiomViolation(
                        "multiplication not distributive over scalar addition",
                        (r, s, x))
                if prod_row[x] != row[s_row[x]]:
                    raise AxiomViolation("multiplication not associative", (r, s, x))


def product_ring(r1, r2, cap=DEFAULT_CAP):
    """Direct product R1 x R2; (a, b) has index a*|R2| + b.

    Z_n products concatenate their moduli, whose mixed-radix index is the same.
    """
    if r1.moduli is not None and r2.moduli is not None:
        return make_ring_zn(r1.moduli + r2.moduli, cap=cap)
    order = r1.order * r2.order
    if order > cap:
        raise SizeCapExceeded("ring", order, cap)

    def enc(a, b):
        return a * r2.order + b

    add = tuple(
        tuple(enc(r1.add(a1, b1), r2.add(a2, b2)) for b1 in r1.elements()
              for b2 in r2.elements())
        for a1 in r1.elements() for a2 in r2.elements()
    )
    mul = tuple(
        tuple(enc(r1.mul(a1, b1), r2.mul(a2, b2)) for b1 in r1.elements()
              for b2 in r2.elements())
        for a1 in r1.elements() for a2 in r2.elements()
    )
    labels = tuple(
        f"({r1.label(a)},{r2.label(b)})" for a in r1.elements() for b in r2.elements()
    )
    return make_ring_table(
        add, mul, enc(r1.zero, r2.zero), enc(r1.one, r2.one),
        cap=cap, labels=labels, name=f"{r1.name}x{r2.name}",
    )


# ---------------------------------------------------------------------------
# closed subsets: the core shared by ideals and submodules
#
# Each routine takes a base, a Ring or a Module, and reads its zero, its
# addition rows and its action rows, where row r maps x to r*x: a ring acts
# on itself by multiplication, so an ideal is a submodule of R over itself.


def _check_closed(base, elements, generators, noun, action):
    """Raise the first closure axiom the subset breaks, in the caller's words."""
    if base.zero not in elements:
        raise AxiomViolation(f"{noun} must contain 0")
    add = base._add_rows
    for a in elements:
        row = add[a]
        for b in elements:
            if row[b] not in elements:
                raise AxiomViolation(f"{noun} not closed under addition", (a, b))
    for r, row in enumerate(base._act_rows):
        for a in elements:
            if row[a] not in elements:
                raise AxiomViolation(f"{noun} not closed under {action}", (r, a))
    if generators is not None and _span(base, generators) != elements:
        raise AxiomViolation("generators do not generate the element set")


def _span(base, elements, scalars=None):
    """Additive closure of 0 and every r*x, r in scalars (default all of R).

    With every scalar this is the closed subset the elements generate; with
    an ideal I as the scalars it is the product I*elements.
    """
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


def _enumerate_closed(base):
    """Every closed subset by one-element extensions, in canonical order."""
    zero = frozenset((base.zero,))
    known = {zero}
    frontier = [zero]
    while frontier:
        current = frontier.pop()
        for x in base.elements():
            if x in current:
                continue
            grown = _span(base, tuple(current) + (x,))
            if grown not in known:
                known.add(grown)
                frontier.append(grown)
    return sorted(known, key=_canonical_subset_key)


def _colon(base, target, subset):
    """{r : r*k lies in target for every k in subset}."""
    return frozenset(
        r for r, row in enumerate(base._act_rows)
        if all(row[k] in target for k in subset)
    )


def _sum(base, sets):
    """S1 + ... + Sk elementwise."""
    add = base._add_rows
    acc = frozenset((base.zero,))
    for s in sets:
        acc = frozenset(add[a][b] for a in acc for b in s)
    return acc


def _check_in_range(base, elements):
    """Reject element indices from outside that lie beyond 0..size-1."""
    if elements and (min(elements) < 0 or max(elements) >= base.size):
        raise AxiomViolation("element out of range", sorted(
            x for x in elements if not 0 <= x < base.size))


def _canonical_subset_key(elements):
    return (len(elements), tuple(sorted(elements)))


# ---------------------------------------------------------------------------
# ideals


@dataclass(frozen=True)
class Ideal:
    """A subset of a ring closed under addition and all scalar multiples."""

    ring: Ring
    elements: frozenset
    generators: tuple = field(default=None, compare=False)

    def __post_init__(self):
        _check_closed(self.ring, self.elements, self.generators, "ideal",
                      "scalars")

    def members(self):
        return sorted(self.elements)

    def __contains__(self, x):
        return x in self.elements

    def __len__(self):
        return len(self.elements)

    def is_proper(self):
        return len(self.elements) < self.ring.order

    def describe(self):
        return self.ring.set_label(self.elements)


def ideal_closure(ring, generators):
    """Least ideal containing the generators."""
    gens = tuple(sorted(set(generators)))
    _check_in_range(ring, gens)
    return Ideal(ring, _span(ring, gens), generators=gens)


def ideal_from_set(ring, elements):
    elements = frozenset(elements)
    _check_in_range(ring, elements)
    return Ideal(ring, elements)


@lru_cache(maxsize=None)
def enumerate_ideals(ring, cap=DEFAULT_CAP):
    """Every ideal exactly once, sorted by (cardinality, element list)."""
    if ring.order > cap:
        raise SizeCapExceeded("ring", ring.order, cap)
    return tuple(Ideal(ring, els) for els in _enumerate_closed(ring))


@lru_cache(maxsize=None)
def maximal_ideals(ring):
    """Proper ideals maximal under inclusion, in canonical order."""
    proper = [i for i in enumerate_ideals(ring) if i.is_proper()]
    out = []
    for i in proper:
        if not any(i.elements < j.elements for j in proper):
            out.append(i)
    return tuple(out)


@lru_cache(maxsize=None)
def minimal_nonzero_ideals(ring):
    nonzero = [i for i in enumerate_ideals(ring) if len(i) > 1]
    out = []
    for i in nonzero:
        if not any(j.elements < i.elements for j in nonzero):
            out.append(i)
    return tuple(out)


@lru_cache(maxsize=None)
def prime_ideals(ring):
    """Proper ideals I with ab in I implying a in I or b in I."""
    out = []
    for ideal in enumerate_ideals(ring):
        if ideal.is_proper() and is_prime_ideal_set(ring, ideal.elements):
            out.append(ideal)
    return tuple(out)


def is_prime_ideal_set(ring, elements):
    if len(elements) == ring.order:
        return False
    for a in ring.elements():
        if a in elements:
            continue
        for b in ring.elements():
            if b in elements:
                continue
            if ring.mul(a, b) in elements:
                return False
    return True


@lru_cache(maxsize=None)
def jacobson_radical(ring):
    """Intersection of all maximal ideals."""
    els = frozenset(ring.elements())
    for m in maximal_ideals(ring):
        els &= m.elements
    return Ideal(ring, els)


def ideal_sum(i, j):
    return Ideal(i.ring, _sum(i.ring, (i.elements, j.elements)))


def ideal_product(i, j):
    return Ideal(i.ring, _span(i.ring, j.elements, i.elements))


def ideal_intersection(i, j):
    return Ideal(i.ring, i.elements & j.elements)


def ideal_colon(i, j):
    """(I : J) = {x in R : xJ <= I}."""
    return Ideal(i.ring, _colon(i.ring, i.elements, j.elements))


def ideal_annihilator(i):
    """ann(I) = (0 : I)."""
    zero = Ideal(i.ring, frozenset((i.ring.zero,)))
    return ideal_colon(zero, i)


def ideal_ops(ring, i, j):
    """The standard ideal arithmetic bundle for a pair of ideals."""
    return {
        "sum": ideal_sum(i, j),
        "product": ideal_product(i, j),
        "intersection": ideal_intersection(i, j),
        "colon": ideal_colon(i, j),
        "annihilator": ideal_annihilator(i),
    }


@lru_cache(maxsize=None)
def units(ring):
    """u(R) = {x : xy = 1 for some y}."""
    return frozenset(
        x for x in ring.elements()
        if any(ring.mul(x, y) == ring.one for y in ring.elements())
    )


# ---------------------------------------------------------------------------
# multiplicatively closed sets


@dataclass(frozen=True)
class MCS:
    """A validated multiplicatively closed subset: 0 out, 1 in, closed."""

    ring: Ring
    elements: frozenset
    _sorted: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_sorted", tuple(sorted(self.elements)))

    def members(self):
        return list(self._sorted)

    def __iter__(self):
        return iter(self._sorted)

    def __contains__(self, x):
        return x in self.elements

    def __len__(self):
        return len(self.elements)

    def describe(self):
        return self.ring.set_label(self.elements)


def validate_mcs(ring, subset):
    """Return an MCS or raise the specific violated condition."""
    els = frozenset(subset)
    _check_in_range(ring, els)
    if ring.zero in els:
        raise ContainsZero()
    if ring.one not in els:
        raise MissingOne()
    for s in sorted(els):
        for t in sorted(els):
            if ring.mul(s, t) not in els:
                raise NotClosed(s, t)
    return MCS(ring, els)


def is_mcs_set(ring, subset):
    try:
        validate_mcs(ring, subset)
        return True
    except MCSViolation:
        return False


def unit_mcs(ring):
    return MCS(ring, frozenset((ring.one,)))


def saturation(mcs):
    """S* = {x : rx in S for some r}; saturated, contains S (both checked)."""
    ring = mcs.ring
    star = frozenset(
        x for x in ring.elements()
        if any(ring.mul(r, x) in mcs.elements for r in ring.elements())
    )
    out = validate_mcs(ring, star)
    if not mcs.elements <= out.elements:
        raise AxiomViolation("saturation must contain the original set")
    return out


def divides(ring, t, s):
    """t | s, i.e. s lies in the principal ideal tR."""
    return any(ring.mul(t, r) == s for r in ring.elements())


def has_maximal_multiple(mcs):
    """First s in S divisible by every t in S, as a witness, else None."""
    ring = mcs.ring
    for s in mcs.members():
        if all(divides(ring, t, s) for t in mcs.members()):
            return Witness.make("maximal-multiple", mcs=mcs, s=s)
    return None


@revalidator("maximal-multiple")
def _check_maximal_multiple(w):
    mcs = w.get("mcs")
    s = w.get("s")
    return s in mcs.elements and all(divides(mcs.ring, t, s) for t in mcs)


def enumerate_mcs(ring, cap=16):
    """All valid m.c.s. of the ring, sorted by (size, element list)."""
    if ring.order > cap:
        raise SizeCapExceeded("ring (m.c.s. enumeration)", ring.order, cap)
    others = [x for x in ring.elements() if x not in (ring.zero, ring.one)]
    found = []
    for k in range(len(others) + 1):
        for extra in combinations(others, k):
            subset = frozenset((ring.one,) + extra)
            if is_mcs_set(ring, subset):
                found.append(MCS(ring, subset))
    found.sort(key=lambda s: _canonical_subset_key(s.elements))
    return tuple(found)


def cyclic_mcs(ring):
    """The m.c.s. generated by {1, s} for each s, deduplicated and sorted."""
    out = {frozenset((ring.one,))}
    for s in ring.elements():
        if s == ring.zero:
            continue
        closure = {ring.one, s}
        frontier = [s]
        ok = True
        while frontier:
            x = frontier.pop()
            for y in list(closure):
                z = ring.mul(x, y)
                if z == ring.zero:
                    ok = False
                    frontier = []
                    break
                if z not in closure:
                    closure.add(z)
                    frontier.append(z)
        if ok:
            out.add(frozenset(closure))
    ordered = sorted(out, key=_canonical_subset_key)
    return tuple(MCS(ring, els) for els in ordered)


def product_mcs(s1, s2, ring):
    """S1 x S2 inside the given product of the two base rings."""
    order2 = s2.ring.order
    els = frozenset(a * order2 + b for a in s1.elements for b in s2.elements)
    return validate_mcs(ring, els)

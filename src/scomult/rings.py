"""Finite commutative unital rings, their ideals, and multiplicatively closed sets.

A ring is R acting on itself: rings and modules share one table carrier,
whose action rows are a ring's multiplication rows, and one axiom check,
the module axioms, which a ring's tables meet over themselves.  `Ring.ring`
is the ring itself, so a ring serves as a base wherever a module does.  An
ideal is a submodule of R as an R-module: `Submodule(ring, X)`.  Ideals and
submodules share the one closed-subset type and the core below (closure
check, generator closure, enumeration, products, colons and sums), and
direct products of rings and of modules share one table builder.

Every ring is held as a pair of Cayley tables over the element indices
0..order-1.  Products of Z_n are built as tables too: the index of an
element is the mixed-radix encoding of its residue tuple, so index order is
lexicographic on residues, and the moduli stay on the ring as metadata.
That index order is the canonical order of every enumeration in the
library.  The axiom check of ring and module tables and the closure check
of subsets test associativity, the distributive laws and closure under
the action on additive generators, which decides them (README, "Axioms on
generators"); a full scan runs only to name the first violation of a
table or subset that fails.  An m.c.s. S carries e_S, the idempotent
power of the product of its elements: it lies in S and every s of S
divides it, so a question "is there an s in S with ..." whose good s are
closed under multiplication by R is answered by testing e_S alone.
"""

from __future__ import annotations

import operator
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

# Hash-consing pool: one object per distinct stored value, shared by value
# across catalogs.  It holds frozensets of element indices and tuples of
# ints or of int tuples, never a ring, module or submodule.  Table rows
# enter only after `_check_tables` passed on their tables (its pass on
# generators passes exactly the tables that its full scan does), and a
# ring's (add, mul, zero, one) is in it exactly when its tables passed.  A
# ring's additive generators enter when `_ring_generators` first finds them.
_POOL = {}


def _shared(value):
    """The first-seen object equal to `value`, which it becomes if new."""
    return _POOL.setdefault(value, value)


def _check_size(what, size):
    if size > DEFAULT_CAP:
        raise SizeCapExceeded(what, size, DEFAULT_CAP)


class _Table:
    """An abelian group on the indices 0..size-1 with a ring acting by rows.

    Row r of the action rows maps x to r*x.  A Ring is R acting on itself,
    so its action rows are its multiplication rows; a Module's are its
    scalar action.  `carrier` is the element set, shared, so the full
    submodule and every set built from the carrier hold one object.
    Equality and hashing go through the per-class `_key()`.
    """

    __slots__ = ("size", "zero", "name", "carrier", "_labels", "_add_rows",
                 "_act_rows", "_neg", "_hash")

    def __init__(self, add_rows, act_rows, zero, name, labels):
        self.size = len(add_rows)
        self.zero = zero
        self.name = name
        self.carrier = _shared(frozenset(range(self.size)))
        self._labels = labels
        self._add_rows = add_rows
        self._act_rows = act_rows
        self._neg = _shared(tuple(row.index(zero) for row in add_rows))
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
    wraps them.  `_generators` holds the ring's additive generators once
    `_ring_generators` has found them.
    """

    __slots__ = ("one", "moduli", "_generators")

    def __init__(self, add_rows, mul_rows, zero, one, name, labels=None,
                 moduli=None):
        super().__init__(add_rows, mul_rows, zero, name, labels)
        self.one = one
        self.moduli = moduli
        self._generators = None

    @property
    def order(self):
        return self.size

    @property
    def ring(self):
        """The ring of scalars: a ring is R acting on itself."""
        return self

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


def make_ring_zn(moduli):
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
    _check_size("ring", order)
    one = mixed_radix_residues(moduli).index((1,) * len(moduli))
    return Ring(
        componentwise_table(moduli, operator.add),
        componentwise_table(moduli, operator.mul),
        0, one, "x".join(f"Z{n}" for n in moduli),
        labels=residue_labels(moduli), moduli=moduli,
    )


def make_ring_table(add_rows, mul_rows, zero, one, labels=None, name=None):
    """Ring from explicit Cayley tables; all ring axioms checked exhaustively
    the first time equal tables are seen, whose rows are then shared."""
    add_rows = tuple(tuple(row) for row in add_rows)
    mul_rows = tuple(tuple(row) for row in mul_rows)
    order = len(add_rows)
    _check_size("ring", order)
    seen = _POOL.get((add_rows, mul_rows, zero, one))
    if seen is None:
        _check_tables(add_rows, mul_rows, zero, one)
        seen = _shared((tuple(map(_shared, add_rows)), tuple(map(_shared, mul_rows)),
                        zero, one))
    add_rows, mul_rows = seen[:2]
    return Ring(
        add_rows, mul_rows, zero, one, name or f"table({order})",
        labels=tuple(labels) if labels is not None else None,
    )


def _check_tables(add, act, zero, one, ring=None):
    """Raise the first axiom of a module over `ring` that the tables break.

    `add` is the carrier's addition table and `act` its multiplication by
    scalars, row r mapping x to r*x.  With `ring` None the tables are a ring
    acting on itself: `act` is its multiplication, `one` its 1, and it must
    also be commutative with 1 != 0; otherwise `ring` is a ring whose own
    tables passed (or, for `make_ring_zn`, are right by construction).

    Shape, range (per row), identities, inverses and commutativity (a < b)
    are scanned in full.  `_axiom_loops` then checks the other laws with b
    of (a+b)+c and x of r(x+y) over additive generators of the carrier and
    the scalar r over those of the ring, which fails exactly when the full
    scan does (README, "Axioms on generators").  Only then does the full
    scan run, to raise its first violation.
    """
    radd, rmul = (add, act) if ring is None else (ring._add_rows, ring._act_rows)
    size, order = len(add), len(radd)
    rng = range(size)
    if any(len(row) != size for row in add):
        raise AxiomViolation("addition table has wrong shape")
    if len(act) != order or any(len(row) != size for row in act):
        raise AxiomViolation("multiplication table has wrong shape")
    carrier = frozenset(rng)
    for table, name in ((add, "addition"), (act, "multiplication")):
        for a, row in enumerate(table):
            if not carrier.issuperset(row):
                b = next(b for b, v in enumerate(row) if v not in carrier)
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
    # the first asymmetric pair in row-major order has a < b
    for a in rng:
        for b in range(a + 1, size):
            if add[a][b] != add[b][a]:
                raise AxiomViolation("addition not commutative", (a, b))
            if ring is None and act[a][b] != act[b][a]:
                raise AxiomViolation("multiplication not commutative", (a, b))
    gens = _additive_generators(add, zero)[0]
    try:
        _axiom_loops(add, act, radd, rmul, gens,
                     gens if ring is None else _ring_generators(ring))
    except AxiomViolation:
        _axiom_loops(add, act, radd, rmul, rng, range(order))
        raise AssertionError("the axioms failed on generators but not in full")


def _axiom_loops(add, act, radd, rmul, mids, scalars):
    """Associativity and the three distributive and associative laws of the
    action, with b of (a+b)+c and x of r(x+y) ranging over `mids` and the
    scalar r over `scalars`; every other variable ranges in full."""
    rng = range(len(add))
    for a in rng:
        row = add[a]
        for b in mids:
            ab, b_plus = add[row[b]], add[b]
            for c in rng:
                if ab[c] != row[b_plus[c]]:
                    raise AxiomViolation("addition not associative", (a, b, c))
    for r in scalars:
        row = act[r]
        for x in mids:
            rx, x_plus = add[row[x]], add[x]
            for y in rng:
                if row[x_plus[y]] != rx[row[y]]:
                    raise AxiomViolation("multiplication not distributive", (r, x, y))
    for r in scalars:
        row = act[r]
        for s in range(len(radd)):
            sum_row, prod_row, s_row = act[radd[r][s]], act[rmul[r][s]], act[s]
            for x in rng:
                if sum_row[x] != add[row[x]][s_row[x]]:
                    raise AxiomViolation(
                        "multiplication not distributive over scalar addition",
                        (r, s, x))
                if prod_row[x] != row[s_row[x]]:
                    raise AxiomViolation("multiplication not associative", (r, s, x))


def _additive_generators(add, zero):
    """Greedy additive generators of a table whose `zero` is an identity.

    Each generator g is the least element not yet reached, and the elements
    reached so far are walked, in order, adding g to each; so every element
    is a left-normed sum ((zero + g1) + g2) + ... of generators, whether or
    not the addition is associative.  Also returns the elements in the
    order reached and, for each but zero, its parent (y, i): it was reached
    as y + gens[i].
    """
    gens, order, parent = [], [zero], {zero: None}
    for g in range(len(add)):
        if g in parent:
            continue
        for x in order:                 # grows while it is walked
            y = add[x][g]
            if y not in parent:
                parent[y] = (x, len(gens))
                order.append(y)
        gens.append(g)
    return gens, order, parent


def _ring_generators(ring):
    """The ring's additive generators, found on first use and kept on it."""
    if ring._generators is None:
        ring._generators = _shared(tuple(_additive_generators(ring._add_rows,
                                                              ring.zero)[0]))
    return ring._generators


def _product_tables(b1, b2, what):
    """Addition rows, action rows and labels of B1 x B2 over R1 x R2.

    B1 and B2 are both rings or both modules.  The pair (a, b) has index
    a*|B2| + b, the scalar (r1, r2) index r1*|R2| + r2, and row (r1, r2)
    maps (a, b) to (r1*a, r2*b).
    """
    _check_size(what, b1.size * b2.size)
    n2 = b2.size
    pairs = [(a, b) for a in b1.elements() for b in b2.elements()]

    def row(row1, row2):
        return tuple(row1[a] * n2 + row2[b] for a, b in pairs)

    add = tuple(row(b1._add_rows[a], b2._add_rows[b]) for a, b in pairs)
    act = tuple(row(b1.act_row(r1), b2.act_row(r2))
                for r1 in b1.ring.elements() for r2 in b2.ring.elements())
    labels = tuple(f"({b1.label(a)},{b2.label(b)})" for a, b in pairs)
    return add, act, labels


def product_ring(r1, r2):
    """Direct product R1 x R2; (a, b) has index a*|R2| + b.

    Z_n products concatenate their moduli, whose mixed-radix index is the same.
    """
    if r1.moduli is not None and r2.moduli is not None:
        return make_ring_zn(r1.moduli + r2.moduli)
    add, mul, labels = _product_tables(r1, r2, "ring")
    return make_ring_table(
        add, mul, r1.zero * r2.order + r2.zero, r1.one * r2.order + r2.one,
        labels=labels, name=f"{r1.name}x{r2.name}",
    )


# ---------------------------------------------------------------------------
# closed subsets: the core shared by ideals and submodules
#
# Each routine takes a base, a Ring or a Module, and reads its zero, its
# addition rows and its action rows, where row r maps x to r*x: a ring acts
# on itself by multiplication, so an ideal is a submodule of R over itself.


def _read_only(self, name, value=None):
    """`__setattr__` and `__delattr__` of the slotted records below."""
    raise AttributeError(f"cannot assign to field {name!r}")


def _slot_filler(cls):
    """Store values into the slots of `cls` in `__slots__` order, past the
    `__setattr__` that refuses assignment.  The fields are plain slots, not
    properties, so reading one costs what a dataclass field did."""
    setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def fill(obj, *values):
        for store, value in zip(setters, values):
            store(obj, value)
    return fill


class Submodule:
    """A subset of a base closed under addition and the full ring action.

    The base is a Module, or a Ring acting on itself, and then the subset
    is an ideal.  A slotted record whose fields cannot be assigned:
    `module` and `elements` make its identity, and its hash is computed
    once; `generators`, when given, must generate the elements.
    """

    __slots__ = ("module", "elements", "generators", "_hash")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, module, elements, generators=None):
        _check_closed(module, elements, generators)
        _fill_submodule(self, module, elements, generators, hash((module, elements)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.elements == other.elements
                and self.module == other.module)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"Submodule(module={self.module!r}, elements={self.elements!r}, "
                f"generators={self.generators!r})")

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


_fill_submodule = _slot_filler(Submodule)


def submodule_closure(base, generators):
    """Least submodule (an ideal, over a ring) containing the generators."""
    gens = tuple(sorted(set(generators)))
    _check_in_range(base, gens)
    return Submodule(base, _span(base, gens), generators=gens)


def submodule_from_set(base, elements):
    elements = frozenset(elements)
    _check_in_range(base, elements)
    return Submodule(base, elements)


def _check_closed(base, elements, generators):
    """Raise the first closure axiom the subset breaks, in its base's words.

    Once the subset holds 0, it is closed under addition iff the walk of
    its greedy additive generators stays inside it (`_sums_stay_inside`),
    and once it is, the scalars r with rX inside X are closed under
    addition, so only the rows of the ring's additive generators are
    applied (README, "Axioms on generators").  Every pair, or every row,
    is tried only after the walk, or one of those rows, fails, to raise
    the first violation in pair or row order.
    """
    noun, action = (("ideal", "scalars") if isinstance(base, Ring)
                    else ("submodule", "action"))
    if base.zero not in elements:
        raise AxiomViolation(f"{noun} must contain 0")
    add = base._add_rows
    if not _sums_stay_inside(add, base.zero, elements):
        for a in elements:
            row = add[a]
            for b in elements:
                if row[b] not in elements:
                    raise AxiomViolation(f"{noun} not closed under addition", (a, b))
        raise AssertionError("addition closure failed on generators but not in full")
    try:
        _action_loops(base, elements, _ring_generators(base.ring), noun, action)
    except AxiomViolation:
        _action_loops(base, elements, range(len(base._act_rows)), noun, action)
        raise AssertionError("closure failed on generators but not in full")
    if generators is not None and _span(base, generators) != elements:
        raise AxiomViolation("generators do not generate the element set")


def _sums_stay_inside(add, zero, elements):
    """Whether the greedy additive generators of X, found inside X, keep
    every sum inside X; X holds `zero`, and the table is an abelian group.

    As in `_additive_generators`, each element of X not yet reached is the
    next generator g, and the elements reached so far are walked, in
    order, adding g to each (g + x, read from g's row).  The reached set
    is then closed under adding each generator so far, so the walk stays
    inside X iff X + X lies inside X (README, "Axioms on generators").
    """
    order, reached = [zero], {zero}
    for g in elements:
        if g in reached:
            continue
        row = add[g]
        for x in order:                 # grows while it is walked
            y = row[x]
            if y not in reached:
                if y not in elements:
                    return False
                reached.add(y)
                order.append(y)
    return True


def _action_loops(base, elements, scalars, noun, action):
    """Closure of the subset under the action rows of the `scalars`."""
    act = base._act_rows
    for r in scalars:
        row = act[r]
        for a in elements:
            if row[a] not in elements:
                raise AxiomViolation(f"{noun} not closed under {action}", (r, a))


def _span(base, elements, scalars=None):
    """The sum of the cyclic pieces {r*x : r in scalars}, x in the elements.

    The scalars are all of R (the default) or an ideal I, so each piece, Rx
    or Ix, is an additive subgroup and their sum is closed: the closed
    subset the elements generate, or the product I*elements.  A piece
    already inside the running sum is skipped.
    """
    rows = base._act_rows if scalars is None else [base._act_rows[a] for a in scalars]
    acc = _shared(frozenset((base.zero,)))
    for piece in (frozenset(row[x] for row in rows) for x in elements):
        if not piece <= acc:
            acc = _sum(base, (acc, piece))
    return acc


def _enumerate_closed(base, what):
    """Every Submodule of the base, in canonical order.  Each is a sum of
    cyclic ones Rx (the columns of the action rows), so from {0} on, each
    subset found is grown by each distinct Rx that it does not contain."""
    _check_size(what, base.size)
    cyclic = dict.fromkeys(map(frozenset, zip(*base._act_rows)))
    found = [_shared(frozenset((base.zero,)))]
    known = set(found)
    for current in found:               # grows while it is walked
        for piece in cyclic:
            if not piece <= current:
                grown = _sum(base, (current, piece))
                if grown not in known:
                    known.add(grown)
                    found.append(grown)
    return tuple(Submodule(base, els)
                 for els in sorted(found, key=_canonical_subset_key))


def _colon(base, target, subset):
    """{r : r*k lies in target for every k in subset}, shared."""
    return _shared(frozenset(
        r for r, row in enumerate(base._act_rows)
        if all(row[k] in target for k in subset)
    ))


def _sum(base, sets):
    """S1 + ... + Sk elementwise, shared."""
    add = base._add_rows
    acc = frozenset((base.zero,))
    for s in sets:
        acc = frozenset(add[a][b] for a in acc for b in s)
    return _shared(acc)


def _check_in_range(base, elements):
    """Reject element indices from outside that lie beyond 0..size-1."""
    if elements and (min(elements) < 0 or max(elements) >= base.size):
        raise AxiomViolation("element out of range", sorted(
            x for x in elements if not 0 <= x < base.size))


def _canonical_subset_key(elements):
    return (len(elements), tuple(sorted(elements)))


# ---------------------------------------------------------------------------
# ideals: submodules of R over itself


@lru_cache(maxsize=None)
def enumerate_ideals(ring):
    """Every ideal exactly once, sorted by (cardinality, element list)."""
    return _enumerate_closed(ring, "ring")


@lru_cache(maxsize=None)
def maximal_ideals(ring):
    """Proper ideals maximal under inclusion, in canonical order."""
    proper = [i for i in enumerate_ideals(ring) if not i.is_full()]
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
        if not ideal.is_full() and is_prime_ideal_set(ring, ideal.elements):
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
    return Submodule(ring, els)


def ideal_sum(i, j):
    return Submodule(i.module, _sum(i.module, (i.elements, j.elements)))


@lru_cache(maxsize=None)
def units(ring):
    """u(R) = {x : xy = 1 for some y}."""
    return frozenset(
        x for x in ring.elements()
        if any(ring.mul(x, y) == ring.one for y in ring.elements())
    )


# ---------------------------------------------------------------------------
# multiplicatively closed sets


class MCS:
    """A validated multiplicatively closed subset: 0 out, 1 in, closed.

    A slotted record like `Submodule`: `ring` and `elements` make its
    identity and its hash; the members are kept sorted for iteration, and
    `idempotent` is e_S, filled at construction (`_idempotent_power`).
    """

    __slots__ = ("ring", "elements", "idempotent", "_sorted", "_hash")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, ring, elements):
        _fill_mcs(self, ring, elements, _idempotent_power(ring, elements),
                  tuple(sorted(elements)), hash((ring, elements)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.elements == other.elements
                and self.ring == other.ring)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"MCS(ring={self.ring!r}, elements={self.elements!r})"

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


_fill_mcs = _slot_filler(MCS)


def _idempotent_power(ring, elements):
    """e_S: the idempotent power of the product p of the elements.

    The powers of p in a finite ring reach an idempotent (Howie,
    *Fundamentals of Semigroup Theory*), so the loop ends.  In a closed S,
    e_S is a power of p, hence in S, and every s of S divides p, hence e_S.
    """
    product = ring.one
    for s in elements:
        product = ring.mul(product, s)
    e = product
    while ring.mul(e, e) != e:
        e = ring.mul(e, product)
    return e


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
    """S* = {x : rx in S for some r}, the divisors of e_S (x | s | e_S, or
    rx = e_S); saturated and containing S (both checked)."""
    ring = mcs.ring
    star = frozenset(x for x in ring.elements()
                     if mcs.idempotent in ring.act_row(x))
    out = validate_mcs(ring, star)
    if not mcs.elements <= out.elements:
        raise AxiomViolation("saturation must contain the original set")
    return out


def divides(ring, t, s):
    """t | s, i.e. s lies in the principal ideal tR."""
    return any(ring.mul(t, r) == s for r in ring.elements())


def has_maximal_multiple(mcs):
    """e_S, which every t in S divides, as a witness: a finite m.c.s. always
    has one."""
    return Witness.make("maximal-multiple", mcs, mcs.idempotent)


@revalidator("maximal-multiple")
def _check_maximal_multiple(mcs, s):
    return all(divides(mcs.ring, t, s) for t in mcs)


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

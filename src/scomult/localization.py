"""Localization of finite rings and modules by explicit pair classes.

S^-1 M is built from pairs (m, s) with m in M, s in S under the relation
(m, s) ~ (m', s') iff u(s'm - sm') = 0 for some u in S, that is, iff
s'm - sm' lies in the S-torsion set K = {m : um = 0 for some u in S}, the
kernel of M -> S^-1 M.  `s_torsion` is the one implementation of K: every
pair's relation row is built from K, and the kernel of the canonical map is
checked against it; K is computed a second time only when an injected
torsion function built the classes.  The u-factor is mandatory: with
K = {0} the relation is not transitive over rings with zero divisors.
S^-1 R is the same construction on R as a module over itself, built once
per (R, S, torsion function): every helper reads the action from its base,
which for a ring is its multiplication.
The relation is checked to be an equivalence in one pass over its classes:
each class's rows must all equal its leader's row, which must contain the
leader, and no pair may fall in two classes; only when that fails are the
rows scanned pair by pair to name the failing axiom.  Sums and actions of
representatives are computed straight from the base's rows and
cross-checked against a second representative of each class, and the
image of every element of S is checked to be a unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import AxiomViolation, SizeCapExceeded
from .modules import (
    Module,
    Submodule,
    colon_set_into_module,
    make_module,
    zero_colon_set,
)
from .rings import DEFAULT_CAP, MCS, make_ring_table, units, validate_mcs


def s_torsion(base, mcs):
    """K = {x : ux = 0 for some u in S}, the kernel of X -> S^-1 X."""
    return frozenset(x for x in base.elements()
                     if any(base.act(u, x) == base.zero for u in mcs))


def _rows(base, mcs, torsion_set):
    """Relation rows: row (x, s) sets bit y·|S| + rank[t] iff tx - sy is in K.

    The pair (x, s) sits at index x·|S| + rank[s].  For each s, the mask of
    {y : v - sy in K} = {y : v in sy + K} is built once per carrier value v,
    at stride |S|; row (x, s) ORs the mask for v = tx, shifted by rank[t],
    over every t.
    """
    width, add, act = len(mcs), base._add_rows, base._act_rows
    masks = {}
    for s in mcs:
        by_value = masks[s] = [0] * base.size
        for y, sy in enumerate(act[s]):
            bit, shifted = 1 << (y * width), add[sy]
            for k in torsion_set:
                by_value[shifted[k]] |= bit
    return [sum(masks[s][act[t][x]] << i for i, t in enumerate(mcs))
            for x in base.elements() for s in mcs]


def _bits(row):
    """Indices of the set bits of row, ascending."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _partition(pairs, rows):
    """Group pairs into classes by their relation rows; verify equivalence.

    Returns pair index -> class index and class index -> pair indices; a
    class is numbered by its least pair, so the class of pair 0 comes first.
    The relation is an equivalence iff, taking as leader each pair not yet
    in a class, the leader's row contains the leader and every member's row
    equals it and is still unassigned; only when that fails does
    `_first_violation` scan the rows to name the axiom and the pairs.
    """
    class_of = [None] * len(pairs)
    classes = []
    for i, row in enumerate(rows):
        if class_of[i] is not None:
            continue
        members = tuple(_bits(row))
        if not row >> i & 1 or any(rows[j] != row or class_of[j] is not None
                                   for j in members):
            _first_violation(pairs, rows)
        for j in members:
            class_of[j] = len(classes)
        classes.append(members)
    return tuple(class_of), tuple(classes)


def _first_violation(pairs, rows):
    """Raise for the first reflexive, symmetric or transitive failure of a
    relation that is not an equivalence."""
    for i, row in enumerate(rows):
        if not row >> i & 1:
            raise AxiomViolation("localization relation not reflexive", (pairs[i],))
        for j in _bits(row):
            if not rows[j] >> i & 1:
                raise AxiomViolation("localization relation not symmetric",
                                     (pairs[i], pairs[j]))
    for i, row in enumerate(rows):
        for j in _bits(row):
            if rows[j] | row != row:
                k = (rows[j] & ~row).bit_length() - 1
                raise AxiomViolation("localization relation not transitive",
                                     (pairs[i], pairs[j], pairs[k]))


@dataclass(frozen=True, eq=False)
class _PairClasses:
    """S^-1 X as classes of pairs (x, s); X is the base ring or module."""

    base: object
    mcs: MCS
    pairs: tuple              # (x, s) pairs; (x, s) sits at x·|S| + rank[s]
    class_of_pair: tuple      # pair index -> class index
    members: tuple            # class index -> its pair indices, ascending
    rank: dict                # s -> position of s in mcs.members()

    def class_of(self, x, s):
        return self.class_of_pair[x * len(self.rank) + self.rank[s]]

    def map_element(self, x):
        """Image of x under the canonical map X -> S^-1 X: the class of (x, 1)."""
        return self.class_of(x, self.mcs.ring.one)

    def kernel(self):
        zero = self.map_element(self.base.zero)
        return frozenset(x for x in self.base.elements()
                         if self.map_element(x) == zero)

    def _labels(self):
        """x/s for the least pair (x, s) of every class."""
        ring = self.mcs.ring
        return tuple(f"{self.base.label(x)}/{ring.label(s)}"
                     for x, s in (self.pairs[m[0]] for m in self.members))


@dataclass(frozen=True, eq=False)
class LocalizedRing(_PairClasses):
    ring: object              # the quotient structure as a table Ring


@dataclass(frozen=True, eq=False)
class LocalizedModule(_PairClasses):
    locring: LocalizedRing
    module: Module


def _pair_classes(base, mcs, torsion, what):
    """Pair classes of S^-1 base, a ring or a module that R acts on, and
    the set K = torsion(base, mcs) they were built from."""
    pairs = tuple((x, s) for x in base.elements() for s in mcs)
    if len(pairs) > DEFAULT_CAP * DEFAULT_CAP:
        raise SizeCapExceeded(f"{what} localization pairs", len(pairs),
                              DEFAULT_CAP * DEFAULT_CAP)
    torsion_set = torsion(base, mcs)
    class_of_pair, members = _partition(pairs, _rows(base, mcs, torsion_set))
    return _PairClasses(base, mcs, pairs, class_of_pair, members,
                        {s: i for i, s in enumerate(mcs)}), torsion_set


def _cross_checked_tables(left, right, act_message):
    """Addition on the right classes and the action of the left ring classes.

    (x, s) + (y, t) = (tx + sy, st) and (r, s)(y, t) = (ry, st), computed on
    the first two pairs of every class straight from the base's rows; each
    choice must give the class of the first.  With left = right = S^-1 R the
    action is the ring's own multiplication.
    """
    add, act = right.base._add_rows, right.base._act_rows
    mul, rank, width = right.mcs.ring._act_rows, right.rank, len(right.rank)
    class_of = right.class_of_pair
    cols = [[right.pairs[b] for b in m[:2]] for m in right.members]
    add_table = []
    for i, row in enumerate(cols):
        out = []
        for j, col in enumerate(cols):
            first = None
            for x, s in row:
                for y, t in col:
                    c = class_of[add[act[t][x]][act[s][y]] * width + rank[mul[s][t]]]
                    if first is None:
                        first = c
                    elif c != first:
                        raise AxiomViolation("localization operation not well defined",
                                             (i, j))
            out.append(first)
        add_table.append(tuple(out))
    act_table = []
    for i, members in enumerate(left.members):
        row = [left.pairs[a] for a in members[:2]]
        out = []
        for j, col in enumerate(cols):
            first = None
            for r, s in row:
                for y, t in col:
                    c = class_of[act[r][y] * width + rank[mul[s][t]]]
                    if first is None:
                        first = c
                    elif c != first:
                        raise AxiomViolation(act_message, (i, j))
            out.append(first)
        act_table.append(tuple(out))
    return tuple(add_table), tuple(act_table)


def _check_kernel(wrapper, torsion, torsion_set, message):
    """The kernel of X -> S^-1 X must be `s_torsion` of the base.  The set
    K that built the classes is that set when `torsion` is `s_torsion`;
    only an injected torsion function makes it be computed again."""
    if torsion is not s_torsion:
        torsion_set = s_torsion(wrapper.base, wrapper.mcs)
    if wrapper.kernel() != torsion_set:
        raise AxiomViolation(message)


def localize_ring(ring, mcs):
    return localize_ring_with(ring, mcs, s_torsion)


@lru_cache(maxsize=None)
def localize_ring_with(ring, mcs, torsion):
    """S^-1 R: R localized as a module over itself; a LocalizedRing wrapper."""
    classes, torsion_set = _pair_classes(ring, mcs, torsion, "ring")
    add_table, mul_table = _cross_checked_tables(
        classes, classes, "localization operation not well defined")
    loc = make_ring_table(add_table, mul_table, classes.map_element(ring.zero),
                          classes.map_element(ring.one),
                          labels=classes._labels(),
                          name=f"({ring.name} loc {mcs.describe()})")
    wrapper = LocalizedRing(**vars(classes), ring=loc)
    _check_localized_ring(wrapper)
    _check_kernel(wrapper, torsion, torsion_set, "canonical map kernel mismatch")
    return wrapper


def _check_localized_ring(wrapper):
    ring, loc, mcs = wrapper.base, wrapper.ring, wrapper.mcs
    phi = [wrapper.map_element(r) for r in ring.elements()]
    for a in ring.elements():
        for b in ring.elements():
            if phi[ring.add(a, b)] != loc.add(phi[a], phi[b]):
                raise AxiomViolation("canonical map is not additive", (a, b))
            if phi[ring.mul(a, b)] != loc.mul(phi[a], phi[b]):
                raise AxiomViolation("canonical map is not multiplicative", (a, b))
    if phi[ring.one] != loc.one:
        raise AxiomViolation("canonical map must send 1 to 1")
    unit_set = units(loc)
    for s in mcs:
        if phi[s] not in unit_set:
            raise AxiomViolation("image of S must consist of units", (s,))


@lru_cache(maxsize=None)
def localize_module(module, mcs):
    return localize_module_with(module, mcs, s_torsion)


def localize_module_with(module, mcs, torsion):
    """S^-1 M as a module over S^-1 R, with the canonical map data; the
    pair relations of M and R read the set K that `torsion(base, mcs)` gives."""
    locring = localize_ring_with(module.ring, mcs, torsion)
    classes, torsion_set = _pair_classes(module, mcs, torsion, "module")
    add_table, act_table = _cross_checked_tables(
        locring, classes, "localized action not well defined")
    loc_module = make_module(
        locring.ring, add_table, act_table, kind="localization",
        name=f"({module.name} loc {mcs.describe()})", labels=classes._labels(),
    )
    wrapper = LocalizedModule(**vars(classes), locring=locring, module=loc_module)
    _check_kernel(wrapper, torsion, torsion_set,
                  "canonical module map kernel mismatch")
    return wrapper


def _localize_set(loc, elements):
    """S^-1 X' = {class(x, s) : x in X', s in S} for a subset X' of the base:
    the union of the slices class_of_pair[x*|S| : (x+1)*|S|], x in X'."""
    w, class_of = len(loc.rank), loc.class_of_pair
    return frozenset().union(*(class_of[x * w:(x + 1) * w] for x in elements))


def localize_submodule(locmod, n):
    """S^-1 N = {class(n, s)} as a submodule of S^-1 M."""
    n_set = n.elements if isinstance(n, Submodule) else frozenset(n)
    return Submodule(locmod.module, _localize_set(locmod, n_set))


def localized_colon_identity_check(module, mcs, ideal):
    """S^-1((0 :_M I)) equals (0 :_{S^-1 M} S^-1 I)."""
    locmod = localize_module(module, mcs)
    left = localize_submodule(locmod, zero_colon_set(module, ideal.elements))
    loc_ideal = _localize_set(locmod.locring, ideal.elements)
    right = colon_set_into_module(locmod.module, frozenset((0,)), loc_ideal)
    return left.elements == right


def complement_mcs(ring, prime_ideal):
    """R minus a prime ideal, validated as an m.c.s. rather than assumed."""
    subset = frozenset(x for x in ring.elements() if x not in prime_ideal.elements)
    return validate_mcs(ring, subset)


def mm_locally_nonzero(module, maximal_ideal):
    """Whether the localization at R minus the maximal ideal is nonzero."""
    if module.is_zero_module:
        return False
    mcs = complement_mcs(module.ring, maximal_ideal)
    return localize_module(module, mcs).module.size > 1

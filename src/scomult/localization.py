"""Localization of finite rings and modules by explicit pair classes.

S^-1 M is built from pairs (m, s) with m in M, s in S under the relation
(m, s) ~ (m', s') iff u(s'm - sm') = 0 for some u in S.  The u-factor is
mandatory: without it the relation is not transitive over rings with zero
divisors.  S^-1 R is the same construction on R as a module over itself,
built once per (R, S, relation): every helper reads the action from its
base, which for a ring is its multiplication.
The relation is checked to be an equivalence by an explicit scan,
arithmetic on representatives is cross-checked against a second
representative of each class, and the image of every element of S is
checked to be a unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import AxiomViolation, SizeCapExceeded
from .modules import (
    Module,
    Submodule,
    colon_set_into_module,
    enumerate_submodules,
    make_module,
    zero_colon_set,
)
from .rings import DEFAULT_CAP, MCS, make_ring_table, units, validate_mcs


def default_relation(add, neg, act, u_candidates, zero):
    """(x, s) ~ (x', s') iff u(s'x - sx') = 0 for some u in S.

    The S-torsion test runs once per difference s'x - sx', an element of the
    carrier, so at most |X| times for the |X|²|S|² pair comparisons.
    """
    torsion = {}

    def related(p, q):
        x, s = p
        y, t = q
        diff = add(act(t, x), neg(act(s, y)))
        killed = torsion.get(diff)
        if killed is None:
            killed = torsion[diff] = any(act(u, diff) == zero for u in u_candidates)
        return killed

    return related


def _bits(row):
    """Indices of the set bits of row, ascending."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _partition(pairs, related):
    """Group pairs into classes via relation rows; verify equivalence.

    Returns pair index -> class index and class index -> pair indices; a
    class is numbered by its least pair, so the class of pair 0 comes first.
    """
    n = len(pairs)
    rows = []
    for i in range(n):
        row = 0
        for j in range(n):
            if related(pairs[i], pairs[j]):
                row |= 1 << j
        rows.append(row)
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
    class_of = [None] * n
    classes = []
    for i in range(n):
        if class_of[i] is not None:
            continue
        members = tuple(_bits(rows[i]))
        for j in members:
            class_of[j] = len(classes)
        classes.append(members)
    return tuple(class_of), tuple(classes)


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


def _pair_classes(base, mcs, relation, what, cap):
    """Pair classes of S^-1 base, a ring or a module that R acts on."""
    pairs = tuple((x, s) for x in base.elements() for s in mcs)
    if len(pairs) > cap * cap:
        raise SizeCapExceeded(f"{what} localization pairs", len(pairs), cap * cap)
    related = relation(base.add, base.neg, base.act, mcs.members(), base.zero)
    class_of_pair, members = _partition(pairs, related)
    return _PairClasses(base, mcs, pairs, class_of_pair, members,
                        {s: i for i, s in enumerate(mcs)})


def _cross_checked_tables(left, right, act_message):
    """Addition on the right classes and the action of the left ring classes.

    (x, s) + (y, t) = (tx + sy, st) and (r, s)(y, t) = (ry, st), computed on
    the first two pairs of every class; each choice must give one class.  With
    left = right = S^-1 R the action is the ring's own multiplication.
    """
    add, act, mul = right.base.add, right.base.act, right.mcs.ring.mul

    def table(rows, numerator, message):
        out = []
        for i, row_pairs in enumerate(rows.members):
            row = []
            for j, col_pairs in enumerate(right.members):
                picks = set()
                for a in row_pairs[:2]:
                    x, s = rows.pairs[a]
                    for b in col_pairs[:2]:
                        y, t = right.pairs[b]
                        picks.add(right.class_of(numerator(x, s, y, t), mul(s, t)))
                if len(picks) != 1:
                    raise AxiomViolation(message, (i, j))
                row.append(picks.pop())
            out.append(tuple(row))
        return tuple(out)

    add_table = table(right, lambda x, s, y, t: add(act(t, x), act(s, y)),
                      "localization operation not well defined")
    act_table = table(left, lambda r, s, y, t: act(r, y), act_message)
    return add_table, act_table


def _check_kernel(wrapper, message):
    """The kernel of X -> S^-1 X must be {x : ux = 0 for some u in S}."""
    base = wrapper.base
    expected = frozenset(x for x in base.elements()
                         if any(base.act(u, x) == base.zero for u in wrapper.mcs))
    if wrapper.kernel() != expected:
        raise AxiomViolation(message)


def localize_ring(ring, mcs, cap=DEFAULT_CAP):
    return localize_ring_with(ring, mcs, default_relation, cap)


@lru_cache(maxsize=None)
def localize_ring_with(ring, mcs, relation, cap=DEFAULT_CAP):
    """S^-1 R: R localized as a module over itself; a LocalizedRing wrapper."""
    classes = _pair_classes(ring, mcs, relation, "ring", cap)
    add_table, mul_table = _cross_checked_tables(
        classes, classes, "localization operation not well defined")
    loc = make_ring_table(add_table, mul_table, classes.map_element(ring.zero),
                          classes.map_element(ring.one), cap=cap,
                          labels=classes._labels(),
                          name=f"({ring.name} loc {mcs.describe()})")
    wrapper = LocalizedRing(**vars(classes), ring=loc)
    _check_localized_ring(wrapper)
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
    _check_kernel(wrapper, "canonical map kernel mismatch")


@lru_cache(maxsize=None)
def localize_module(module, mcs, cap=DEFAULT_CAP):
    return localize_module_with(module, mcs, default_relation, cap=cap)


def localize_module_with(module, mcs, relation, cap=DEFAULT_CAP):
    """S^-1 M as a module over S^-1 R, with the canonical map data."""
    locring = localize_ring_with(module.ring, mcs, relation, cap)
    classes = _pair_classes(module, mcs, relation, "module", cap)
    add_table, act_table = _cross_checked_tables(
        locring, classes, "localized action not well defined")
    loc_module = make_module(
        locring.ring, add_table, act_table, kind="localization",
        name=f"({module.name} loc {mcs.describe()})", labels=classes._labels(), cap=cap,
    )
    wrapper = LocalizedModule(**vars(classes), locring=locring, module=loc_module)
    _check_kernel(wrapper, "canonical module map kernel mismatch")
    return wrapper


def _localize_set(loc, elements):
    """S^-1 X' = {class(x, s) : x in X', s in S} for a subset X' of the base."""
    return frozenset(loc.class_of(x, s) for x in elements for s in loc.mcs)


def localize_submodule(locmod, n):
    """S^-1 N = {class(n, s)} as a submodule of S^-1 M."""
    n_set = n.elements if isinstance(n, Submodule) else frozenset(n)
    return Submodule(locmod.module, _localize_set(locmod, n_set))


def all_submodules_are_localizations(module, mcs):
    """Every submodule of S^-1 M arises as S^-1 N for a submodule N of M."""
    locmod = localize_module(module, mcs)
    images = {localize_submodule(locmod, n).elements
              for n in enumerate_submodules(module)}
    return all(w.elements in images
               for w in enumerate_submodules(locmod.module))


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

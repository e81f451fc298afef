"""Localization of finite rings and modules as cosets of the S-torsion set.

S^-1 M is the set of pairs (m, s), m in M, s in S, under the relation
(m, s) ~ (m', s') iff u(s'm - sm') = 0 for some u in S.  The S-torsion set
K = {m : um = 0 for some u in S} is a submodule, the kernel of
M -> S^-1 M, and (x, s) ~ (y, 1) iff x - sy lies in K; so S^-1 M is M/K,
on which each s in S acts invertibly (Atiyah-Macdonald, ch. 3), and the
class of (x, s) is the coset y + K with sy + K = x + K.  `s_torsion` is
the one implementation of K, read as ann(e_S) from the action row of e_S
(`MCS.idempotent`): ux = 0 gives e_S x = 0, since u divides e_S, and e_S
lies in S.  K is checked once to be a submodule, its
cosets are numbered, and for each s the map y + K -> sy + K is inverted;
an s that does not permute the cosets is refused, since its image would
not be a unit.  Each x keeps its coset, and each s a row from cosets to
classes, numbered by their least pair and labelled x/s after it.  Sums
and actions are read at one representative y/1 of each class straight
from the base's rows, so once K is an ideal and every s permutes its
cosets, the canonical map R -> S^-1 R is a unital ring map sending S to
units by construction; it is not checked again here, and a test checks
it element by element on every catalog localization.  The kernel of the
canonical map is checked against the K that built the classes, and
against a fresh `s_torsion` only when an injected torsion function built
them.  The u-factor is mandatory: with K = {0} a zero divisor in S does
not permute the cosets.  S^-1 R is the same construction on R as a
module over itself, built once per (R, S, torsion function): every helper
reads the action from its base, which for a ring is its multiplication.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import AxiomViolation, SizeCapExceeded
from .modules import (
    Submodule,
    colon_set_into_module,
    coset_index_map,
    make_module,
    zero_colon_set,
)
from .rings import DEFAULT_CAP, _shared, make_ring_table, validate_mcs


def s_torsion(base, mcs):
    """K = {x : ux = 0 for some u in S} = ann(e_S), the kernel of X -> S^-1 X."""
    zero = base.zero
    return frozenset(x for x, ex in enumerate(base.act_row(mcs.idempotent))
                     if ex == zero)


class _PairClasses:
    """S^-1 X as the cosets of K in X; X is the base ring or module."""

    __slots__ = ("base", "mcs",
                 "coset",   # x -> index of x + K, cosets numbered by least member
                 "solve",   # s -> row: coset index of x -> class of (x, s)
                 "reps")    # class index -> least y with (y, 1) in it

    def __init__(self, base, mcs, coset, solve, reps):
        self.base, self.mcs, self.coset = base, mcs, coset
        self.solve, self.reps = solve, reps

    def class_of(self, x, s):
        return self.solve[s][self.coset[x]]

    def map_element(self, x):
        """Image of x under the canonical map X -> S^-1 X: the class of (x, 1)."""
        return self.class_of(x, self.mcs.ring.one)

    def kernel(self):
        zero = self.map_element(self.base.zero)
        return frozenset(x for x in self.base.elements()
                         if self.map_element(x) == zero)


class LocalizedRing(_PairClasses):
    """S^-1 R: its classes, and `ring`, the quotient as a table Ring."""

    __slots__ = ("ring",)


class LocalizedModule(_PairClasses):
    """S^-1 M: its classes, `locring` (S^-1 R) and `module`, the
    quotient as a Module over `locring.ring`."""

    __slots__ = ("locring", "module")


def _pair_classes(base, mcs, torsion, what, cls):
    """S^-1 base, for a ring or a module that R acts on, as a `cls`; the set
    K = torsion(base, mcs) it was built from; and the x/s class labels.

    K must be a submodule, and each s in S must permute the cosets of K;
    the class of (x, s) is then the coset y + K with sy + K = x + K, the
    class of (y, 1).  Classes are numbered, and labelled x/s, by their
    least pair (x, s), x first and then s in S's order.
    """
    # never fires under the default cap, where |X| <= 64 and |S| <= 63
    pair_count = base.size * len(mcs)
    if pair_count > DEFAULT_CAP * DEFAULT_CAP:
        raise SizeCapExceeded(f"{what} localization pairs", pair_count,
                              DEFAULT_CAP * DEFAULT_CAP)
    torsion_set = torsion(base, mcs)
    index = coset_index_map(base, Submodule(base, torsion_set))
    coset = _shared(tuple(map(index.__getitem__, base.elements())))
    least = {}
    for y, c in enumerate(coset):
        least.setdefault(c, y)
    inverses = []
    for s in mcs:
        inverse = [None] * len(least)
        for y, sy in enumerate(base._act_rows[s]):
            inverse[coset[sy]] = coset[y]
        if None in inverse:
            raise AxiomViolation("image of S must consist of units", (s,))
        inverses.append(inverse)
    # the pairs of any x repeat those of the least member of x + K, so the
    # least pair of every class has x least in its coset
    number, labels, ring = {}, [], mcs.ring
    for c, x in least.items():
        for s, inverse in zip(mcs, inverses):
            if number.setdefault(inverse[c], len(number)) == len(labels):
                labels.append(f"{base.label(x)}/{ring.label(s)}")
    solve = {s: _shared(tuple(map(number.__getitem__, inverse)))
             for s, inverse in zip(mcs, inverses)}
    return (cls(base, mcs, coset, solve, tuple(least[c] for c in number)),
            torsion_set, tuple(labels))


def _tables(left, right):
    """Addition on the right classes and the action of the left ring classes.

    Every class holds (y, 1) for its representative y, and y/1 + z/1 =
    (y + z)/1, r/1 · y/1 = ry/1, so both tables are read straight from the
    base's rows.  With left = right = S^-1 R the action is the ring's own
    multiplication.
    """
    add, act = right.base._add_rows, right.base._act_rows
    image = [right.map_element(y) for y in right.base.elements()]
    reps = right.reps
    # tuples of lists, not of generators: on the default catalog the
    # generator form left about 0.2 MB more in the allocator's free lists
    return (tuple([tuple([image[add[a][b]] for b in reps]) for a in reps]),
            tuple([tuple([image[act[r][b]] for b in reps]) for r in left.reps]))


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
    wrapper, torsion_set, labels = _pair_classes(ring, mcs, torsion, "ring",
                                                 LocalizedRing)
    add_table, mul_table = _tables(wrapper, wrapper)
    wrapper.ring = make_ring_table(
        add_table, mul_table, wrapper.map_element(ring.zero),
        wrapper.map_element(ring.one), labels=labels,
        name=f"({ring.name} loc {mcs.describe()})")
    _check_kernel(wrapper, torsion, torsion_set, "canonical map kernel mismatch")
    return wrapper


@lru_cache(maxsize=None)
def localize_module(module, mcs):
    return localize_module_with(module, mcs, s_torsion)


def localize_module_with(module, mcs, torsion):
    """S^-1 M as a module over S^-1 R, with the canonical map data; the
    pair relations of M and R read the set K that `torsion(base, mcs)` gives."""
    locring = localize_ring_with(module.ring, mcs, torsion)
    wrapper, torsion_set, labels = _pair_classes(module, mcs, torsion, "module",
                                                 LocalizedModule)
    add_table, act_table = _tables(locring, wrapper)
    wrapper.locring = locring
    wrapper.module = make_module(
        locring.ring, add_table, act_table, kind="localization",
        name=f"({module.name} loc {mcs.describe()})", labels=labels,
    )
    _check_kernel(wrapper, torsion, torsion_set,
                  "canonical module map kernel mismatch")
    return wrapper


def _localize_set(loc, elements):
    """S^-1 X' = {class(x, s) : x in X', s in S} for a subset X' of the base:
    the union of the S rows at the cosets that X' meets."""
    cosets = {loc.coset[x] for x in elements}
    return frozenset(row[c] for row in loc.solve.values() for c in cosets)


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

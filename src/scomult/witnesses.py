"""Witness objects for existential claims, with definition-level revalidation.

Every predicate that proves "there is an s in S such that ..." returns a
`Witness` recording what was found and against which instance, with the
m.c.s. it searched bound as `mcs` just before `s`.  A `Witness` is an
immutable tuple of its claim and `args`, the bound values in the order of
the claim's revalidator's parameters, built without a per-instance
`__init__`: `Witness.make(claim, *args)` takes them positionally.
`validate()` checks once that s lies in the m.c.s.'s element set, then
calls the claim's revalidator, looked up in `REVALIDATORS` at call time,
with `args` as they are.  The names are the registry's: `@revalidator`
records each claim's parameter names, and `bindings`, `get` and
`describe()` rebuild the named bindings from them.

A revalidator recomputes the defining condition from the module's or the
hom's tables: it reads the action row of each scalar it needs once and
indexes into it, and it re-checks the claim's disjointness precondition.
It may read pure caches that searches also fill: `annihilator_set`,
`zero_colon_set` and `colon_set_into_ring` (keyed by frozensets) and the
homothety families.  A hom claim's revalidator may read the hom's own
kernel tuple and image set, which the `*_with` checks fill from `values`
on first use and no search reads.  It never reads a search's result or a
hom's scalar sets, and never calls `modules.first_multiplier`; its private
helpers keep the same rule.  Revalidators are registered next to the
predicate they certify via the `revalidator` decorator.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable

REVALIDATORS: dict[str, Callable[..., bool]] = {}
PARAMETERS: dict[str, tuple[str, ...]] = {}     # claim -> its bound names
_MCS_AT: dict[str, tuple[int, int]] = {}        # claim -> where mcs and s sit


def revalidator(claim):
    """Register the claim's revalidator and record its parameter names,
    which every witness of the claim binds in order, `mcs` just before `s`."""
    def deco(fn):
        code = fn.__code__
        names = code.co_varnames[:code.co_argcount]
        at = names.index("mcs")
        if names[at + 1:at + 2] != ("s",):
            raise ValueError(f"{claim}: the revalidator must take s just after mcs")
        REVALIDATORS[claim] = fn
        PARAMETERS[claim] = names
        _MCS_AT[claim] = at, at + 1
        return fn

    return deco


_new = tuple.__new__


class Witness(tuple):
    """An immutable record of a claim and its bound values, in the order of
    the claim's revalidator's parameters.

    A witness is the pair (claim, args), so making one copies nothing and
    `validate()` passes args on as is.  Equality and hashing are by the
    claim and the values in order, and a witness equals no plain tuple.
    """

    __slots__ = ()

    def __new__(cls, claim: str, bindings):
        """The witness of (name, value) pairs, whose names must be the
        claim's revalidator's parameters in order; none is reordered."""
        bindings = tuple(bindings)
        names = tuple(name for name, _ in bindings)
        if names != PARAMETERS.get(claim):
            raise ValueError(f"{claim} binds {PARAMETERS.get(claim)}, not {names}")
        return _new(cls, (claim, tuple(value for _, value in bindings)))

    @staticmethod
    def make(claim, *args):
        return _new(Witness, (claim, args))

    claim = property(itemgetter(0))

    @property
    def bindings(self) -> tuple[tuple[str, Any], ...]:
        claim, args = self
        return tuple(zip(PARAMETERS[claim], args))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __repr__(self):
        return f"Witness(claim={self[0]!r}, bindings={self.bindings!r})"

    def get(self, name):
        return dict(self.bindings)[name]

    def validate(self) -> bool:
        """s lies in the m.c.s., and the claim's defining condition re-checks."""
        claim, args = self
        mcs, s = _MCS_AT[claim]
        return args[s] in args[mcs].elements and REVALIDATORS[claim](*args)

    def describe(self) -> str:
        """The claim and every binding; s is written with the label of the
        m.c.s.'s ring, and an element, element sets and tuples with the
        labels of the bound module."""
        named = dict(self.bindings)
        module = named.get("module")
        parts = []
        for key, value in named.items():
            if key == "s":
                value = named["mcs"].ring.label(value)
            elif key == "element":
                value = module.label(value)
            elif hasattr(value, "describe"):
                value = value.describe()
            elif isinstance(value, frozenset):
                value = module.set_label(value)
            elif isinstance(value, tuple):
                value = "(" + ",".join(map(module.label, value)) + ")"
            parts.append(f"{key}={value}")
        return f"{self[0]}({', '.join(parts)})"

"""Witness objects for existential claims, with definition-level revalidation.

Every predicate that proves "there is an s in S such that ..." returns a
`Witness` recording what was found and against which instance, with the
m.c.s. it searched bound as `mcs` just before `s`.  A `Witness` is an
immutable tuple of its claim and the keyword mapping `make` receives, built
without a per-instance `__init__`.
`validate()` checks once that s lies in the m.c.s.'s element set, then
calls the claim's revalidator with that mapping as keyword arguments, so
a revalidator's parameters are its claim's fields.

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


def revalidator(claim):
    def deco(fn):
        REVALIDATORS[claim] = fn
        return fn

    return deco


_new = tuple.__new__


class Witness(tuple):
    """An immutable record of a claim and its named bindings, in make order.

    A witness is the pair (claim, the keyword mapping `make` receives), so
    making one copies nothing and `validate()` passes the mapping on as is.
    Equality and hashing are by the claim and the bindings in order, and a
    witness equals no plain tuple.
    """

    __slots__ = ()

    def __new__(cls, claim: str, bindings: tuple[tuple[str, Any], ...]):
        return _new(cls, (claim, dict(bindings)))

    @staticmethod
    def make(claim, **named):
        return _new(Witness, (claim, named))

    claim = property(itemgetter(0))

    @property
    def bindings(self) -> tuple[tuple[str, Any], ...]:
        return tuple(self[1].items())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return False
        return self[0] == other[0] and self.bindings == other.bindings

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((self[0], self.bindings))

    def __repr__(self):
        return f"Witness(claim={self[0]!r}, bindings={self.bindings!r})"

    def get(self, name):
        return self[1][name]

    def validate(self) -> bool:
        """s lies in the m.c.s., and the claim's defining condition re-checks."""
        claim, named = self
        return named["s"] in named["mcs"].elements and REVALIDATORS[claim](**named)

    def describe(self) -> str:
        """The claim and every binding; s is written with the label of the
        m.c.s.'s ring, and an element, element sets and tuples with the
        labels of the bound module."""
        claim, named = self
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
        return f"{claim}({', '.join(parts)})"

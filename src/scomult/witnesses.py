"""Witness objects for existential claims, with definition-level revalidation.

Every predicate that proves "there is an s in S such that ..." returns a
`Witness` recording what was found and against which instance, with the
m.c.s. it searched bound as `mcs` just before `s`.  A `Witness` is an
immutable slotted record that keeps the keyword mapping `make` receives.
`validate()` checks once that s lies in the m.c.s.'s element set, then
calls the claim's revalidator with that mapping as keyword arguments, so
a revalidator's parameters are its claim's fields.

A revalidator recomputes the defining condition from the module's or the
hom's tables: it reads the action row of each scalar it needs once and
indexes into it, and it re-checks the claim's disjointness precondition.
It may read pure caches that searches also fill: `annihilator_set`,
`zero_colon_set` and `colon_set_into_ring` (keyed by frozensets) and the
homothety families.  It never reads a search's result or a hom's scalar
sets, and never calls `modules.first_multiplier`; its private helpers
keep the same rule.  Revalidators are registered next to the predicate
they certify via the `revalidator` decorator.
"""

from __future__ import annotations

from typing import Any, Callable

REVALIDATORS: dict[str, Callable[..., bool]] = {}


def revalidator(claim):
    def deco(fn):
        REVALIDATORS[claim] = fn
        return fn

    return deco


class Witness:
    """An immutable record of a claim and its named bindings, in make order.

    The bindings are held as the keyword mapping `make` receives, so making
    a witness copies nothing and `validate()` passes the mapping on as is.
    """

    __slots__ = ("claim", "_named")

    def __init__(self, claim: str, bindings: tuple[tuple[str, Any], ...]):
        _set_claim(self, claim)
        _set_named(self, dict(bindings))

    @classmethod
    def make(cls, claim, **named):
        witness = object.__new__(cls)
        _set_claim(witness, claim)
        _set_named(witness, named)
        return witness

    def __setattr__(self, name, value):
        raise AttributeError(f"Witness is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Witness is immutable; cannot delete {name!r}")

    @property
    def bindings(self) -> tuple[tuple[str, Any], ...]:
        return tuple(self._named.items())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.claim == other.claim and self.bindings == other.bindings

    def __hash__(self):
        return hash((self.claim, self.bindings))

    def __repr__(self):
        return f"Witness(claim={self.claim!r}, bindings={self.bindings!r})"

    def get(self, name):
        return self._named[name]

    def validate(self) -> bool:
        """s lies in the m.c.s., and the claim's defining condition re-checks."""
        named = self._named
        return named["s"] in named["mcs"].elements and REVALIDATORS[self.claim](**named)

    def describe(self) -> str:
        """The claim and every binding; s is written with the label of the
        m.c.s.'s ring, and an element, element sets and tuples with the
        labels of the bound module."""
        named = self._named
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
        return f"{self.claim}({', '.join(parts)})"


_set_claim = Witness.claim.__set__
_set_named = Witness._named.__set__

"""Witness objects for existential claims, with definition-level revalidation.

Every predicate that proves "there is an s in S such that ..." returns a
`Witness` recording what was found and against which instance, with the
m.c.s. it searched bound as `mcs` just before `s`.  `validate()` checks
once that s lies in that m.c.s., then calls the claim's revalidator with
the bindings as keyword arguments, so a revalidator's parameters are its
claim's fields.  A revalidator recomputes the defining condition element
by element.  It may read pure caches that searches also fill:
`annihilator_set`, `zero_colon_set` and `colon_set_into_ring` (keyed by
frozensets) and the homothety families.  It never reads a search's result
or a hom's scalar sets, and never calls `modules.first_multiplier`.
Revalidators are registered next to the predicate they certify via the
`revalidator` decorator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

REVALIDATORS: dict[str, Callable[..., bool]] = {}


def revalidator(claim):
    def deco(fn):
        REVALIDATORS[claim] = fn
        return fn

    return deco


@dataclass(frozen=True)
class Witness:
    claim: str
    bindings: tuple[tuple[str, Any], ...]

    @classmethod
    def make(cls, claim, **named):
        return cls(claim, tuple(named.items()))

    def get(self, name):
        for key, value in self.bindings:
            if key == name:
                return value
        raise KeyError(name)

    def validate(self) -> bool:
        """s lies in the m.c.s., and the claim's defining condition re-checks."""
        named = dict(self.bindings)
        return named["s"] in named["mcs"] and REVALIDATORS[self.claim](**named)

    def describe(self) -> str:
        """The claim and every binding; s is written with the label of the
        m.c.s.'s ring, and an element, element sets and tuples with the
        labels of the bound module."""
        named = dict(self.bindings)
        module = named.get("module")
        parts = []
        for key, value in self.bindings:
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

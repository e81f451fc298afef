"""Module homomorphisms, homotheties, and their S-variant classifications.

A homomorphism is a full value table on the source carrier, validated for
additivity and R-linearity, both compared row by row.  Hom enumeration has
two exact stages: the additive maps, which read only the two addition
tables, and among them the R-linear ones, checked once per distinct pair of
action rows.  `generate_catalog` keeps one dict of additive maps per pair
of addition tables for the length of the call; `enumerate_homs` uses a
fresh one.  Each hom f knows, once asked, the scalars that make it S-zero
(ann(Im f)), S-monic (ann(Ker f)) and S-epic ((Im f :_R M')); it reads them
from the library's keyed lattice caches, so homs with the same image or
kernel share one set.  Each set is an ideal, so some s of the m.c.s. lies
in it exactly when e_S (`MCS.idempotent`) does, and the S-variant tests
return e_S when it lies in the hom's set.  The `*_with`
helpers are the definitional checks, each reading s's action row once, and
witness revalidation uses them, never the hom's scalar sets.  They read the
hom's own kernel tuple (the m with f(m) = 0) and image set, which the first
check to need one fills from `values`; no test reads those two, and the
tests derive their kernel and image separately.  The direct side of the
S-monic cross-check is also element-wise: it checks that e_S kills each
element of the kernel, listed once per hom.  The monic/epic bridge computes what
depends on the hom alone (image, kernel list, the scalar sets, z(M) and the
units) once and reuses it for every m.c.s.  That core reads only the hom's
signature (source, target, kernel and image) and each m.c.s.'s e_S.
`monic_epic_bridge` builds its report from the core; the P-HOMS checker
reads the core once per signature class and e_S class of a catalog, for as
long as the catalog lives, and makes, per (hom, m.c.s.) instance, only the
witnesses, which bind that hom and m.c.s.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count, product as iproduct
from operator import attrgetter, itemgetter, not_
from typing import NamedTuple

from .errors import AxiomViolation, SizeCapExceeded
from .modules import (
    Submodule,
    annihilator_set,
    colon_set_into_ring,
    quotient_module,
    coset_index_map,
    submodule_as_module,
    zero_divisors_on,
)
from .rings import _additive_generators, _shared, units
from .witnesses import Witness, revalidator


class ModuleHom:
    """An R-linear map between modules over the same ring: a slotted record
    whose `source`, `target` and `values` are read-only and make its
    identity; the three scalar sets, and the kernel tuple and image set that
    revalidation reads, are filled on first use."""

    __slots__ = ("_source", "_target", "_values", "_s_zero", "_s_monic",
                 "_s_epic", "_kernel", "_image")

    def __init__(self, source, target, values):
        self._source, self._target, self._values = source, target, values
        self._s_zero = self._s_monic = self._s_epic = None
        self._kernel = self._image = None

    source = property(attrgetter("_source"))
    target = property(attrgetter("_target"))
    values = property(attrgetter("_values"))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self._source, self._target, self._values)
                == (other._source, other._target, other._values))

    def __hash__(self):
        return hash((self._source, self._target, self._values))

    def __repr__(self):
        return (f"ModuleHom(source={self._source!r}, target={self._target!r}, "
                f"values={self._values!r})")

    def __call__(self, m):
        return self._values[m]

    def describe(self):
        return f"{self._source.name}->{self._target.name}"

    def s_zero_scalars(self):
        """ann(Im f): the s with s*f(m) = 0 for every m."""
        if self._s_zero is None:
            self._s_zero = annihilator_set(self._target, _shared(_image_set(self)))
        return self._s_zero

    def s_monic_scalars(self):
        """ann(Ker f): the s with sm = 0 whenever f(m) = 0."""
        if self._s_monic is None:
            self._s_monic = annihilator_set(self._source, _shared(_kernel_set(self)))
        return self._s_monic

    def s_epic_scalars(self):
        """(Im f :_R M'): the s with sM' inside Im f."""
        if self._s_epic is None:
            self._s_epic = colon_set_into_ring(
                self._target, _shared(_image_set(self)), self._target.carrier)
        return self._s_epic


def make_hom(source, target, values):
    """Validated hom from a full value table; errors name the first bad pair."""
    if source.ring != target.ring:
        raise AxiomViolation("homomorphism requires a common base ring")
    values = tuple(values)
    if len(values) != source.size:
        raise AxiomViolation("value table must cover the source carrier")
    for v in values:
        if not (0 <= v < target.size):
            raise AxiomViolation("value out of range", (v,))
    getters = [itemgetter(*row) for row in source._add_rows]
    if not _commutes(zip(getters, map(target._add_rows.__getitem__, values)), values):
        for a, b in iproduct(source.elements(), repeat=2):
            if values[source.add(a, b)] != target.add(values[a], values[b]):
                raise AxiomViolation("map is not additive", (a, b))
    if not _commutes(_action_pairs(source, target), values):
        for r, m in iproduct(source.ring.elements(), source.elements()):
            if values[source.act(r, m)] != target.act(r, values[m]):
                raise AxiomViolation("map is not linear", (r, m))
    return ModuleHom(source, target, values)


def _commutes(pairs, values):
    """f(p(m)) = q(f(m)) for all m, per (getter of row p, row q): a + _ and
    f(a) + _ for additivity, r*_ on source and target for linearity."""
    get_values = itemgetter(*values)
    return all(get(values) == get_values(row) for get, row in pairs)


def _action_pairs(source, target):
    """(getter of r's source action row, r's target row), once per distinct pair."""
    return [(itemgetter(*row), target_row) for row, target_row
            in dict.fromkeys(zip(source._act_rows, target._act_rows))]


def identity_hom(module):
    return ModuleHom(module, module, tuple(module.elements()))


def multiplication_hom(module, a):
    """The homothety m -> a*m on the module itself."""
    return ModuleHom(module, module, module.act_row(a))


def inclusion_hom(submodule):
    """N (as a module) -> M."""
    n_mod = submodule_as_module(submodule)
    return ModuleHom(n_mod, submodule.module, tuple(sorted(submodule.elements)))


def projection_hom(module, submodule):
    """M -> M/N, the canonical surjection."""
    q = quotient_module(module, submodule)
    index = coset_index_map(module, submodule)
    return ModuleHom(module, q, tuple(index[m] for m in module.elements()))


def _kernel_list(f):
    return tuple(m for m in f.source.elements() if f.values[m] == 0)


def _kernel_set(f):
    return frozenset(m for m in f.source.elements() if f.values[m] == 0)


def _image_set(f):
    return frozenset(f.values)


def kernel(f):
    return Submodule(f.source, _kernel_set(f))


def image(f):
    return Submodule(f.target, _image_set(f))


def is_monic(f):
    return len(_image_set(f)) == f.source.size


def is_epic(f):
    return len(_image_set(f)) == f.target.size


# ---------------------------------------------------------------------------
# S-variants

def _revalidation_kernel(f):
    """The m with f(m) = 0, in order: filled from `values` on first use and
    read by the `*_with` checks only, never by a search."""
    kernel = f._kernel
    if kernel is None:
        kernel = f._kernel = _shared(tuple(compress(count(), map(not_, f._values))))
    return kernel


def _revalidation_image(f):
    """frozenset(values): filled on first use and read by the `*_with`
    checks only, never by a search."""
    image = f._image
    if image is None:
        image = f._image = _shared(frozenset(f._values))
    return image


def is_s_zero_with(f, s):
    """s*f(m) = 0 for each m, read from s's action row on the target: each
    distinct value f(m) once."""
    return not any(map(f.target.act_row(s).__getitem__, _revalidation_image(f)))


def is_s_monic_with(f, s):
    """s*m = 0 for each m of the kernel, checked one kernel element at a time."""
    return not any(map(f.source.act_row(s).__getitem__, _revalidation_kernel(f)))


def is_s_epic_with(f, s):
    """s*M' inside Im f: every entry of s's action row on the target is a value."""
    return _revalidation_image(f).issuperset(f.target.act_row(s))


def _idempotent_in(scalars, mcs):
    """e_S if it lies in the ideal `scalars`, else None."""
    e = mcs.idempotent
    return e if e in scalars else None


def is_s_zero(f, mcs):
    """e_S when s*f(m) = 0 for every m holds for some s of S."""
    return _hom_witness("s-zero", f, mcs, _idempotent_in(f.s_zero_scalars(), mcs))


def is_s_monic(f, mcs):
    """e_S when f(m) = 0 implies sm = 0 for some s of S; cross-checked via
    s*Ker(f)."""
    return _hom_witness("s-monic", f, mcs, _s_monic_cross_checked(
        f, _kernel_list(f), f.s_monic_scalars(), mcs))


def _s_monic_cross_checked(f, kernel, scalars, mcs):
    """Whether e_S kills each element of the kernel list must agree with
    whether it lies in ann(Ker f); returns e_S if both hold, else None."""
    e = mcs.idempotent
    direct = not any(map(f.source.act_row(e).__getitem__, kernel))
    if direct != (e in scalars):
        raise AxiomViolation("S-monic characterizations disagree")
    return e if direct else None


def is_s_monic_via_kernel(f, mcs):
    """e_S when s*Ker(f) = 0 for some s of S, the equivalent kernel form."""
    return _hom_witness("s-monic", f, mcs, _idempotent_in(f.s_monic_scalars(), mcs))


def is_s_epic(f, mcs):
    """e_S when s*M' lies inside Im(f) for some s of S."""
    return _hom_witness("s-epic", f, mcs, _idempotent_in(f.s_epic_scalars(), mcs))


def _hom_witness(claim, f, mcs, s):
    """The witness of f's claim (S-zero, S-monic or S-epic) for s, or None
    when s is None."""
    return None if s is None else Witness.make(claim, f, mcs, s)


@revalidator("s-zero")
def _check_s_zero(hom, mcs, s):
    return is_s_zero_with(hom, s)


@revalidator("s-monic")
def _check_s_monic(hom, mcs, s):
    """`is_s_monic_with`, inline: the hot loops revalidate this claim."""
    return not any(map(hom.source.act_row(s).__getitem__, _revalidation_kernel(hom)))


@revalidator("s-epic")
def _check_s_epic(hom, mcs, s):
    """`is_s_epic_with`, inline: the hot loops revalidate this claim."""
    return _revalidation_image(hom).issuperset(hom.target.act_row(s))


# ---------------------------------------------------------------------------
# homotheties


# Both families are keyed by the submodule's element set, so a caller that
# holds only the set reaches the cached family without building a Submodule;
# the set is closure-checked once, when its family is built.  A homothety is
# its action row, so a family holds each distinct row's map once (README).


@lru_cache(maxsize=None)
def homothety_family(module, p):
    """Each distinct homothety a. on M/P, in first-a order; P is an element set."""
    q = quotient_module(module, Submodule(module, p))
    return tuple(ModuleHom(q, q, row) for row in dict.fromkeys(q._act_rows))


@lru_cache(maxsize=None)
def homothety_on_family(module, n):
    """Each distinct homothety a. on N as a module, in first-a order; N is a set."""
    n_mod = submodule_as_module(Submodule(module, n))
    return tuple(ModuleHom(n_mod, n_mod, row) for row in dict.fromkeys(n_mod._act_rows))


# ---------------------------------------------------------------------------
# the monic/epic bridge


# how each of the four bridge claims fails, in field order
_BRIDGE_FAILURES = (
    "monic map is not S-monic",
    "S-monic did not force monic despite S avoiding z(M)",
    "epic map is not S-epic",
    "S-epic did not force epic despite S being units",
)


class BridgeReport(NamedTuple):
    monic_forward: bool
    monic_converse: bool | None   # None when the side condition fails
    epic_forward: bool
    epic_converse: bool | None
    s_monic: Witness | None
    s_epic: Witness | None

    def failure(self):
        """How the first false claim fails, or None when every claim holds."""
        return _bridge_failure(self[:4])

    def holds(self):
        return False not in self[:4]


def _bridge_failure(claims):
    """How the first false one of the four bridge claims fails, or None."""
    for claim, detail in zip(claims, _BRIDGE_FAILURES):
        if claim is False:
            return detail
    return None


def monic_epic_bridge(f, mcs):
    """Forward claims and their side-conditioned converses for one hom;
    each witness binds f itself."""
    *claims, s_monic, s_epic = _bridge_core(f, (mcs,))[0]
    return BridgeReport(*claims, _hom_witness("s-monic", f, mcs, s_monic),
                        _hom_witness("s-epic", f, mcs, s_epic))


def _signature(f):
    """All that `_bridge_core` and the transfer core read of a hom: its
    source, its target, its kernel (as the bytes f(m) == 0 over the source)
    and its image."""
    return f.source, f.target, bytes(map(not_, f.values)), frozenset(f.values)


def _bridge_core(f, mcs_list):
    """For each m.c.s. in turn: the four bridge claims and the s of the
    S-monic and S-epic witnesses (None where there is none).

    It reads only `_signature(f)` and each m.c.s.'s e_S, so every hom with
    that signature has the same core, and every m.c.s. with that e_S the
    same entry; what does not depend on the m.c.s. is computed once.  Both
    side conditions are read at e_S: S avoids z(M) iff e_S does, and S lies
    in the units iff e_S, an idempotent, is a unit, that is e_S = 1.
    """
    image = _image_set(f)
    monic, epic = len(image) == f.source.size, len(image) == f.target.size
    kernel, monic_scalars = _kernel_list(f), f.s_monic_scalars()
    epic_scalars = f.s_epic_scalars()
    zero_divisors, unit_set = zero_divisors_on(f.source), units(f.source.ring)
    core = []
    for mcs in mcs_list:
        s_monic = _s_monic_cross_checked(f, kernel, monic_scalars, mcs)
        s_epic = _idempotent_in(epic_scalars, mcs)
        monic_converse = None
        if mcs.idempotent not in zero_divisors:
            monic_converse = s_monic is None or monic
        epic_converse = None
        if mcs.idempotent in unit_set:
            epic_converse = s_epic is None or epic
        core.append((not monic or s_monic is not None, monic_converse,
                     not epic or s_epic is not None, epic_converse,
                     s_monic, s_epic))
    return tuple(core)


# ---------------------------------------------------------------------------
# hom enumeration


def _additive_order(module, m):
    k, acc = 1, m
    while acc != 0:
        acc, k = module.add(acc, m), k + 1
    return k


def _additive_maps(source, target):
    """The additive value tables source -> target, in enumeration order:
    each additive generator goes to a target element whose order divides its
    own, extended along the BFS parents.  Reads only the addition tables."""
    gens, order, parent = _additive_generators(source._add_rows, 0)
    if not gens:
        return ((0,),)
    orders = [_additive_order(target, y) for y in target.elements()]
    candidate_images = [[y for y, o in enumerate(orders) if k % o == 0]
                        for k in (_additive_order(source, g) for g in gens)]
    getters = [itemgetter(*row) for row in source._add_rows]
    out = []
    for combo in iproduct(*candidate_images):
        values = [0] * source.size
        for m in order[1:]:
            x, gi = parent[m]
            values[m] = target.add(values[x], combo[gi])
        values = tuple(values)
        if _commutes(zip(getters, map(target._add_rows.__getitem__, values)),
                     values):
            out.append(values)
    return tuple(out)


def _linear_homs(source, target, additive):
    """The homs source -> target: the R-linear tables, in order, among the
    additive maps, read from `additive` by both addition tables or put there."""
    if source.ring != target.ring:
        return ()
    key = source._add_rows, target._add_rows
    if key not in additive:
        additive[key] = _additive_maps(source, target)
    pairs = _action_pairs(source, target)
    return tuple(ModuleHom(source, target, values) for values in additive[key]
                 if _commutes(pairs, values))


def enumerate_homs(source, target, cap=8):
    """All homs source -> target, for small carriers."""
    if source.size > cap or target.size > cap:
        raise SizeCapExceeded("hom enumeration carrier", max(source.size, target.size), cap)
    return _linear_homs(source, target, {})

"""Homomorphisms, homotheties, S-classifications, and the transfer check."""

import pytest

from scomult.errors import AxiomViolation, PreconditionUnmet
from scomult.modules import (
    full_submodule,
    quotient_module,
    self_module,
    submodule_as_module,
    submodule_from_set,
)
from scomult.morphisms import (
    enumerate_homs,
    homothety_family,
    homothety_on_family,
    identity_hom,
    image,
    inclusion_hom,
    is_epic,
    is_monic,
    is_s_epic,
    is_s_monic,
    is_s_monic_via_kernel,
    is_s_zero,
    kernel,
    make_hom,
    monic_epic_bridge,
    multiplication_hom,
    projection_hom,
)
from scomult.rings import make_ring_zn, unit_mcs, validate_mcs
from scomult.s_theory import transfer_theorem_check


def test_make_hom_pins(m6):
    ident = identity_hom(m6)
    assert kernel(ident).members() == [0]
    assert image(ident).members() == [0, 1, 2, 3, 4, 5]
    double = multiplication_hom(m6, 2)
    assert kernel(double).members() == [0, 3]
    assert image(double).members() == [0, 2, 4]
    with pytest.raises(AxiomViolation):
        make_hom(m6, m6, (0, 1, 1, 1, 1, 1))


def test_s_zero_pins(m6, s13):
    triple = multiplication_hom(m6, 3)
    assert is_s_zero(triple, s13) is None       # 3*3 = 3 stays nonzero
    double = multiplication_hom(m6, 2)
    w = is_s_zero(double, s13)
    assert w is not None and w.get("s") == 3 and w.validate()


def test_s_monic_epic_pins(m6, s1, s13):
    ident = identity_hom(m6)
    assert is_s_monic(ident, s13).get("s") == 1
    assert is_s_epic(ident, s13).get("s") == 1
    double = multiplication_hom(m6, 2)
    assert is_s_monic(double, s13) is None
    assert is_s_monic(double, s13) == is_s_monic_via_kernel(double, s13)
    w = is_s_monic(double, validate_mcs(m6.ring, {1, 4}))
    assert w is not None and w.get("s") == 4    # 4 kills the kernel {0, 3}


def test_trivial_mcs_reduces_to_classical(m6, s1):
    for f in enumerate_homs(m6, m6):
        assert (is_s_zero(f, s1) is not None) == all(v == 0 for v in f.values)
        assert (is_s_monic(f, s1) is not None) == is_monic(f)
        assert (is_s_epic(f, s1) is not None) == is_epic(f)


def test_bridge_claims(m6, s13):
    for f in enumerate_homs(m6, m6):
        report = monic_epic_bridge(f, s13)
        assert report.holds()
    s15 = validate_mcs(m6.ring, {1, 5})
    for f in enumerate_homs(m6, m6):
        assert monic_epic_bridge(f, s15).holds()


def test_homothety_pins(m4, m6):
    half = submodule_from_set(m4, {0, 2})
    squash = homothety_family(m4, half)[2]
    assert all(squash(x) == 0 for x in squash.source.elements())
    ident = homothety_family(m4, half)[1]
    assert list(ident.values) == list(ident.source.elements())
    evens = submodule_from_set(m6, {0, 2, 4})
    double_on = homothety_on_family(evens)[2]
    assert set(double_on.values) == set(double_on.source.elements())


def test_homothety_composition(m4):
    half = submodule_from_set(m4, {0, 2})
    ring = m4.ring
    for a in ring.elements():
        for b in ring.elements():
            left = homothety_family(m4, half)[a]
            right = homothety_family(m4, half)[b]
            composed = tuple(left(right(x)) for x in left.source.elements())
            assert composed == homothety_family(m4, half)[ring.mul(a, b)].values


def test_transfer_inclusion(m6, s1):
    evens = submodule_from_set(m6, {0, 2, 4})
    report = transfer_theorem_check(inclusion_hom(evens), s1)
    assert report.kernel_witness.get("s") == 1
    assert report.downward_applicable and report.downward_holds
    assert report.holds()


def test_transfer_precondition_unmet(m4, s1):
    half = submodule_from_set(m4, {0, 2})
    surjection = projection_hom(m4, half)
    with pytest.raises(PreconditionUnmet):
        transfer_theorem_check(surjection, unit_mcs(m4.ring))


def test_transfer_upward(m6):
    s13 = validate_mcs(m6.ring, {1, 3})
    evens = submodule_from_set(m6, {0, 2, 4})
    surjection = projection_hom(m6, evens)
    # kernel {0,2,4} is killed by 3, so the check applies both ways
    report = transfer_theorem_check(surjection, s13)
    assert report.kernel_witness.get("s") == 3
    assert report.holds()


def test_enumerate_homs_counts(m6, v2):
    from scomult.modules import zn_over_zk

    assert len(enumerate_homs(m6, m6)) == 6            # multiplication maps
    assert len(enumerate_homs(v2, v2)) == 16           # 2x2 matrices over F2
    z3 = zn_over_zk(m6.ring, 3)
    assert len(enumerate_homs(m6, z3)) == 3            # reductions mod 3


def test_inclusion_projection_shapes(m6):
    evens = submodule_from_set(m6, {0, 2, 4})
    inc = inclusion_hom(evens)
    assert inc.source.size == 3 and inc.target == m6
    assert is_monic(inc) and not is_epic(inc)
    proj = projection_hom(m6, evens)
    assert proj.target.size == 2
    assert is_epic(proj) and not is_monic(proj)

"""S-theoretic predicates: pins, characterizations, and witness discipline."""

import hashlib

import pytest

from conftest import s_multiplication_general_form
from scomult import s_theory
from scomult.catalog import generate_catalog
from scomult.errors import DisjointnessFailure, PreconditionUnmet
from scomult.modules import (
    enumerate_submodules,
    full_submodule,
    scalar_times_set,
    self_module,
    submodule_from_set,
    zn_over_zk,
)
from scomult.mutations import (
    lemma_pair_direction_flip,
    mutation_catalog_params,
    s_prime_quantifier_swap,
    s_second_drop_disjointness,
)
from scomult.rings import make_ring_zn, unit_mcs, validate_mcs
from scomult.s_theory import (
    comultiplication_result,
    is_comultiplication,
    is_cyclic,
    is_multiplication,
    is_prime_module,
    is_s_comultiplication,
    is_s_cyclic,
    is_s_finite,
    is_s_minimal,
    is_s_multiplication,
    is_s_prime_ideal,
    is_s_prime_submodule,
    is_s_second,
    is_s_torsion_free,
    lemma_definitional_form,
    lemma_equivalence_bundle,
    lemma_pair_form,
    s_prime_characterizations,
    s_second_characterizations,
    uniform_multiple,
)


def test_s_prime_pins(m6, s1, s13):
    evens = submodule_from_set(m6, {0, 2, 4})
    w = is_s_prime_submodule(m6, evens, s1)
    assert w.get("s") == 1 and w.validate()
    assert is_s_prime_submodule(m6, evens, s13) is not None
    with pytest.raises(DisjointnessFailure):
        is_s_prime_submodule(m6, full_submodule(m6), s1)


def test_s_prime_ideal_pins(z6, s1):
    from scomult.rings import submodule_from_set

    assert is_s_prime_ideal(z6, submodule_from_set(z6, {0, 3}), s1) is not None
    assert is_s_prime_ideal(z6, submodule_from_set(z6, {0}), s1) is None
    z5 = make_ring_zn([5])
    from scomult.rings import submodule_from_set as ideal
    assert is_s_prime_ideal(z5, ideal(z5, {0}), unit_mcs(z5)) is not None


def test_quantifier_order_regression(m6, s124):
    """Swapping the quantifiers cannot flip the boolean over a finite ring
    (resolver sets absorb products from S), but it does corrupt the witness."""
    zero = submodule_from_set(m6, {0})
    real = is_s_prime_submodule(m6, zero, s124)
    swapped = s_prime_quantifier_swap(m6, zero, s124)
    assert real is not None and swapped is not None       # booleans agree
    assert real.get("s") == 4 and real.validate()       # e_S of {1, 2, 4}
    assert swapped.get("s") == 1 and not swapped.validate()


def test_s_prime_characterizations_agree(m6, s13, s124, m4):
    for module, mcs, p_set in (
        (m6, s13, {0, 2, 4}),
        (m6, s124, {0}),
        (m6, s124, {0, 3}),
        (m4, unit_mcs(m4.ring), {0}),
    ):
        forms = s_prime_characterizations(module, submodule_from_set(module, p_set), mcs)
        assert forms.agree()
        for w in (forms.direct, forms.colon_prime, forms.homothety):
            assert w is None or w.validate()


def test_forms_iterate_their_fields_in_order(m6, s13, s124):
    """Each forms record iterates as the fields it declares."""
    evens = submodule_from_set(m6, {0, 2, 4})
    for forms in (s_prime_characterizations(m6, evens, s13),
                  s_second_characterizations(m6, evens, s124),
                  lemma_equivalence_bundle(m6, s13)):
        values = tuple(getattr(forms, name) for name in type(forms)._fields)
        assert len(values) == 3 and tuple(forms) == values
        assert forms.verdicts == tuple(map(bool, values))


def test_s_second_pins(m6, m4, s1, s13):
    evens = submodule_from_set(m6, {0, 2, 4})
    w = is_s_second(m6, evens, s1)
    assert w.get("s") == 1 and w.validate()
    two = submodule_from_set(m4, {0, 2})
    assert is_s_second(m4, two, unit_mcs(m4.ring)).get("s") == 1
    with pytest.raises(DisjointnessFailure):
        is_s_second(m6, evens, s13)
    with pytest.raises(PreconditionUnmet):
        is_s_second(m6, submodule_from_set(m6, {0}), s1)


def test_s_second_characterizations_agree(m6, s1, s124):
    for mcs in (s1, s124):
        for n_set in ({0, 2, 4}, {0, 3}, {0, 1, 2, 3, 4, 5}):
            n = submodule_from_set(m6, n_set)
            try:
                forms = s_second_characterizations(m6, n, mcs)
            except DisjointnessFailure:
                continue
            assert forms.agree()


def test_s_second_bundle_runs_a_direct_form_that_skips_its_precondition(m6, s13):
    """A direct form without the disjointness check must be evaluated, not
    skipped, so that the statement suite can kill it."""
    evens = submodule_from_set(m6, {0, 2, 4})
    with pytest.raises(DisjointnessFailure):
        s_second_characterizations(m6, evens, s13)
    forms = s_second_characterizations(m6, evens, s13,
                                       direct_fn=s_second_drop_disjointness)
    assert forms.verdicts == (True, False, False)
    assert not forms.agree()


def test_s_comultiplication_pins(m6, v2, s1, z2):
    assert is_s_comultiplication(m6, s1).holds
    result = is_s_comultiplication(v2, validate_mcs(z2, {1}))
    assert not result.holds
    assert len(result.failing) == 2          # a line of the plane
    for _, w in is_s_comultiplication(m6, s1).witnesses:
        assert w.validate()


def test_trivial_s_comultiplication(z6, z2_over_z6):
    # ann(M) meets S, so the property holds outright
    s14 = validate_mcs(z6, {1, 4})
    from scomult.modules import annihilator_set

    assert annihilator_set(z2_over_z6, frozenset({0, 1})) & s14.elements
    assert is_s_comultiplication(z2_over_z6, s14).holds


def test_lemma_bundle_pins(m6, v2, s1, s13, z2, m4):
    assert lemma_equivalence_bundle(m6, s1).verdicts == (True, True, True)
    assert lemma_equivalence_bundle(v2, validate_mcs(z2, {1})).verdicts == \
        (False, False, False)
    bundle = lemma_equivalence_bundle(m4, validate_mcs(m4.ring, {1, 3}))
    assert bundle.agree()


def test_comultiplication_and_multiplication_pins(m6, v2):
    assert is_comultiplication(m6)
    assert not is_comultiplication(v2)
    assert not is_multiplication(v2)       # lines are not ideal multiples
    assert is_multiplication(self_module(make_ring_zn([5])))


def test_comultiplication_result_names_the_first_failing_submodule(m6, v2):
    from scomult.modules import annihilator_set, enumerate_submodules, zero_colon_set

    held = comultiplication_result(m6)
    assert held.holds and held.witnesses == () and held.failing is None
    result = comultiplication_result(v2)
    assert not result.holds and result.witnesses == ()
    failing = [n for n in enumerate_submodules(v2)
               if zero_colon_set(v2, annihilator_set(v2, n.elements)) != n.elements]
    assert result.failing == failing[0]


def test_comultiplication_implies_s_comultiplication(m6):
    from scomult.rings import enumerate_mcs

    assert is_comultiplication(m6)
    for mcs in enumerate_mcs(m6.ring):
        assert is_s_comultiplication(m6, mcs).holds


def test_s_multiplication_reduction_matches_general_form(m6, v2, s1, s13, z2):
    for module, mcs in ((m6, s1), (m6, s13), (v2, validate_mcs(z2, {1}))):
        assert is_s_multiplication(module, mcs).holds == \
            s_multiplication_general_form(module, mcs)


def test_s_cyclic_pins(m6, v2, s1, z2):
    w = is_s_cyclic(m6, s1)
    assert (w.get("s"), w.get("element")) == (1, 1) and w.validate()
    assert is_s_cyclic(v2, validate_mcs(z2, {1})) is None
    z22 = make_ring_zn([2, 2])
    w = is_s_cyclic(self_module(z22), unit_mcs(z22))
    assert (w.get("s"), w.get("element")) == (z22.one, z22.one)


def test_s_finite_pins(m6, s1):
    w = is_s_finite(m6, full_submodule(m6), s1)
    assert w.get("generators") == (1,) and w.validate()
    w = is_s_finite(m6, submodule_from_set(m6, {0}), s1)
    assert w.get("generators") == ()


def test_s_torsion_free_pins(m6, s1, s13):
    z5 = make_ring_zn([5])
    assert is_s_torsion_free(self_module(z5), unit_mcs(z5)).get("s") == 1
    assert is_s_torsion_free(m6, s1) is None
    w = is_s_torsion_free(m6, s13)
    assert w is not None and w.validate()


def test_s_minimal_pins(m4, s1):
    z5 = make_ring_zn([5])
    m5 = self_module(z5)
    steps = is_s_minimal(m5, full_submodule(m5), unit_mcs(z5))
    assert steps.holds and all(w.validate() for _, w in steps.witnesses)
    assert not is_s_minimal(m5, full_submodule(m5), unit_mcs(z5),
                            include_zero=True).holds
    failed = is_s_minimal(m4, full_submodule(m4), unit_mcs(m4.ring))
    assert not failed.holds and failed.failing.members() == [0, 2]


def test_prime_module_pins(m6, v2):
    assert is_prime_module(v2)
    assert not is_prime_module(m6)


def test_uniform_multiple_always_found(m6, s13, s124):
    for mcs in (s13, s124):
        for n_set in ({0, 3}, {0, 2, 4}, {0, 1, 2, 3, 4, 5}):
            w = uniform_multiple(m6, frozenset(n_set), mcs)
            assert w is not None and w.validate()


def test_reduction_laws_with_trivial_mcs(m6, v2, s1, z2):
    """With S = {1} every S-predicate is its classical counterpart."""
    from scomult.modules import annihilator_set, enumerate_submodules
    from scomult.rings import is_prime_ideal_set
    from scomult.s_theory import is_prime_submodule_set, is_second_submodule_set

    one_v2 = validate_mcs(z2, {1})
    assert is_s_comultiplication(m6, s1).holds == is_comultiplication(m6)
    assert is_s_comultiplication(v2, one_v2).holds == is_comultiplication(v2)
    assert (is_s_cyclic(m6, s1) is not None) == is_cyclic(m6)
    assert (is_s_cyclic(v2, one_v2) is not None) == is_cyclic(v2)
    for module, mcs in ((m6, s1), (v2, one_v2)):
        for p in enumerate_submodules(module):
            try:
                s_verdict = is_s_prime_submodule(module, p, mcs) is not None
            except DisjointnessFailure:
                assert p.is_full()
                continue
            assert s_verdict == is_prime_submodule_set(module, p.elements)
        for n in enumerate_submodules(module):
            if n.is_zero():
                continue
            try:
                s_verdict = is_s_second(module, n, mcs) is not None
            except DisjointnessFailure:
                continue
            assert s_verdict == is_second_submodule_set(module, n.elements)


def test_unit_mcs_collapse(m6):
    """S inside the units reduces every S-notion to the classical one."""
    from scomult.modules import enumerate_submodules
    from scomult.rings import validate_mcs as v
    from scomult.s_theory import is_prime_submodule_set, is_second_submodule_set

    s15 = v(m6.ring, {1, 5})
    assert is_s_comultiplication(m6, s15).holds == is_comultiplication(m6)
    for p in enumerate_submodules(m6):
        try:
            s_verdict = is_s_prime_submodule(m6, p, s15) is not None
        except DisjointnessFailure:
            continue
        assert s_verdict == is_prime_submodule_set(m6, p.elements)
    for n in enumerate_submodules(m6):
        if n.is_zero():
            continue
        try:
            s_verdict = is_s_second(m6, n, s15) is not None
        except DisjointnessFailure:
            continue
        assert s_verdict == is_second_submodule_set(m6, n.elements)


def test_finite_analog_of_the_divisible_example():
    """Z_{p^t} towers over Z_{p^k}: the finite stand-ins for the divisible
    example are comultiplication outright, so nothing qualitative survives
    the truncation; recorded as a computed fact."""
    z8 = make_ring_zn([8])
    for d in (2, 4, 8):
        module = zn_over_zk(z8, d) if d != 8 else self_module(z8)
        assert is_comultiplication(module)
        assert is_s_comultiplication(module, unit_mcs(z8)).holds


def _outcome(result):
    """The s of a witness (or None); for a ForEachResult, its verdict, the s
    of every witness in order, and the members of the failing item."""
    if result is None:
        return None
    if not hasattr(result, "witnesses"):
        return result.get("s")
    failing = result.failing
    if isinstance(failing, tuple):
        failing = tuple(item.members() for item in failing)
    elif failing is not None:
        failing = failing.members()
    return (result.holds, tuple(w.get("s") for _, w in result.witnesses), failing)


def module_search_digest(catalog):
    """SHA-256 over the module-side S-searches of every (module, m.c.s.).

    Each pair contributes the outcome of the S-comultiplication forms (the
    lemma's three and the flipped pair form), S-multiplication, S-cyclic and
    S-torsion-free, then per nonzero submodule K the S-minimal steps under
    both readings and the uniform multiple.
    """
    digest = hashlib.sha256()
    for module, mcs in catalog.module_mcs_pairs(include_zero=True):
        digest.update(repr((
            module.describe(), mcs.describe(),
            _outcome(is_s_comultiplication(module, mcs)),
            _outcome(lemma_definitional_form(module, mcs)),
            _outcome(lemma_pair_form(module, mcs)),
            _outcome(lemma_pair_direction_flip(module, mcs)),
            _outcome(is_s_multiplication(module, mcs)),
            _outcome(is_s_cyclic(module, mcs)),
            _outcome(is_s_torsion_free(module, mcs)),
        )).encode())
        for k in enumerate_submodules(module):
            if k.is_zero():
                continue
            digest.update(repr((
                k.members(),
                _outcome(is_s_minimal(module, k, mcs, include_zero=False)),
                _outcome(is_s_minimal(module, k, mcs, include_zero=True)),
                _outcome(uniform_multiple(module, k, mcs)),
            )).encode())
    return digest.hexdigest()


# captured once the module-side searches named e_S
REDUCED_MODULE_SEARCH_DIGEST = (
    "668c0a35319c691e62113012f2b407c58a46730588fc7f8894fa72940dd18e1e")


def test_module_search_outcomes_are_pinned():
    catalog = generate_catalog(mutation_catalog_params())
    assert module_search_digest(catalog) == REDUCED_MODULE_SEARCH_DIGEST


def test_scalar_multiples_share_equal_images():
    """Every x*N of a reduced-catalog submodule N, as the unshared images,
    with one frozenset object per distinct image in each tuple."""
    catalog = generate_catalog(mutation_catalog_params())
    tuples = images = distinct = 0
    for module in (m for pool in catalog.modules.values() for m in pool):
        for n in enumerate_submodules(module):
            multiples = s_theory._scalar_multiples(module, n.elements)
            assert multiples == tuple(scalar_times_set(module, x, n.elements)
                                      for x in module.ring.elements())
            assert len(set(map(id, multiples))) == len(set(multiples))
            tuples += 1
            images += len(multiples)
            distinct += len(set(multiples))
    assert (tuples, images, distinct) == (109, 466, 205)

"""The homothety forms of S-prime and S-second (P-SPR, T-SEC).

A homothety is its action row (README, "A homothety is its action row"):
h_a = h_b on M/P, or on N, exactly when a and b act alike there, so
`homothety_family` and `homothety_on_family` hold each distinct map once
and the two revalidators walk only those.  The oracles
`reference_s_prime_homothety` and `reference_s_second_homothety` read the
raw tables and build one map per ring element, with no `ModuleHom` and no
`scomult.morphisms`; the revalidators must give their verdict on every
subject of the reduced catalog and on every homothety witness that a
default run revalidates.
"""

from collections import Counter

import pytest

from conftest import reference_s_prime_homothety, reference_s_second_homothety
from scomult import morphisms, s_theory
from scomult.catalog import generate_catalog
from scomult.errors import AxiomViolation
from scomult.modules import enumerate_submodules
from scomult.mutations import mutation_catalog_params
from scomult.rings import validate_mcs
from scomult.statements import verify_all
from scomult.witnesses import REVALIDATORS, Witness

CLAIMS = {
    "s-prime-homothety": reference_s_prime_homothety,
    "s-second-homothety": reference_s_second_homothety,
}


@pytest.fixture(scope="module")
def default_run():
    """A fresh default catalog's `verify_all`: the homothety witnesses it
    revalidates, by claim, and how often `is_s_zero_with` ran."""
    found, calls = {claim: [] for claim in CLAIMS}, Counter()
    real_validate, real_s_zero = Witness.validate, morphisms.is_s_zero_with

    def recording_validate(self):
        if self.claim in found:
            found[self.claim].append(self)
        return real_validate(self)

    def counting_s_zero(f, s):
        calls["is_s_zero_with"] += 1
        return real_s_zero(f, s)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Witness, "validate", recording_validate)
        for module in (morphisms, s_theory):
            patch.setattr(module, "is_s_zero_with", counting_s_zero)
        catalog = generate_catalog()
        verify_all(catalog)
    return catalog, found, calls


def test_the_revalidators_equal_their_reference_on_every_subject():
    """Every (module, submodule, m.c.s., s) of the reduced catalog, the
    submodule as P for S-prime and as N for S-second."""
    catalog = generate_catalog(mutation_catalog_params())
    verdicts = Counter()
    for ring in catalog.rings:
        for module in catalog.modules[ring]:
            for sub in enumerate_submodules(module):
                for mcs in catalog.mcs[ring]:
                    for s in ring.elements():
                        for claim, reference in CLAIMS.items():
                            expected = reference(module, sub.elements, mcs, s)
                            fast = REVALIDATORS[claim](module, sub.elements, mcs, s)
                            assert fast == expected, (claim, sub.describe(), mcs, s)
                            verdicts[claim, expected] += 1
    assert verdicts == {
        ("s-prime-homothety", True): 1058, ("s-prime-homothety", False): 1031,
        ("s-second-homothety", True): 1058, ("s-second-homothety", False): 1031}


def test_the_revalidators_equal_their_reference_on_the_default_witnesses(
        default_run):
    """Each homothety witness that a default run revalidates holds by the
    reference at its s, and the revalidator agrees with the reference at
    every element of the ring in place of s."""
    _, found, _ = default_run
    subjects = Counter()
    for claim, reference in CLAIMS.items():
        assert found[claim]
        for witness in found[claim]:
            _, (module, sub, mcs, s) = witness
            assert reference(module, sub, mcs, s), witness.describe()
            for t in module.ring.elements():
                assert REVALIDATORS[claim](module, sub, mcs, t) \
                    == reference(module, sub, mcs, t), (witness.describe(), t)
            subjects[claim] += 1
    assert subjects == {"s-prime-homothety": 923, "s-second-homothety": 923}


def test_a_default_run_walks_each_distinct_homothety_once_per_witness(default_run):
    """A fresh default `verify_all` calls `is_s_zero_with` only from the two
    homothety revalidators, once per distinct homothety of each witness's
    family (15,122 when the families held one map per ring element), and
    the families of every (nonzero module, N) hold 1,608 homotheties
    (4,274 per ring element)."""
    catalog, found, calls = default_run
    families = {"s-prime-homothety": morphisms.homothety_family,
                "s-second-homothety": morphisms.homothety_on_family}
    walked = sum(len(families[claim](*witness[1][:2]))
                 for claim in CLAIMS for witness in found[claim])
    assert calls["is_s_zero_with"] == walked == 5258
    held = sum(len(morphisms.homothety_family(module, n.elements))
               + len(morphisms.homothety_on_family(module, n.elements))
               for module in catalog.nonzero_modules()
               for n in enumerate_submodules(module))
    assert held == 1608


# Over Z6 acting on itself: P = 0 is S-prime for S = {1,2,4} with s = 4 but
# not with s = 1 (2. is neither 1-zero nor 1-injective on Z6), and N = Z6 is
# S-second for S = {1,3} with s = 3 but not with s = 1 (2. is neither 1-zero
# nor 1-surjective); {0,1} is not a submodule.
TAMPERS = [
    ("s-prime-homothety", {0}, {1, 2, 4}, 4, 1),
    ("s-second-homothety", {0, 1, 2, 3, 4, 5}, {1, 3}, 3, 1),
]


@pytest.mark.parametrize("claim, subset, mcs, s, wrong", TAMPERS)
def test_a_tampered_homothety_witness_is_rejected(z6, m6, claim, subset, mcs, s,
                                                  wrong):
    """The witness holds; with s replaced by another element of S, or the
    submodule by a set that is not one, the reference and the revalidator
    both reject it (the revalidator by raising, as its family is built
    through a closure check)."""
    reference, mcs = CLAIMS[claim], validate_mcs(z6, mcs)
    assert wrong in mcs
    witness = Witness.make(claim, m6, frozenset(subset), mcs, s)
    assert witness.validate() and reference(*witness[1])
    tampered = Witness.make(claim, m6, frozenset(subset), mcs, wrong)
    assert not tampered.validate() and not reference(*tampered[1])
    outside = Witness.make(claim, m6, frozenset({0, 1}), mcs, s)
    assert not reference(*outside[1])
    with pytest.raises(AxiomViolation, match="submodule not closed under addition"):
        outside.validate()

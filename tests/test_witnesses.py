"""The witness registry: every claim made has a revalidator and vice versa,
every witness binds its m.c.s. and s, and no witness passes with s outside S."""

import ast
import inspect
from pathlib import Path

import pytest

import scomult  # noqa: F401  registers the library's claims
import scomult.localization  # noqa: F401
import scomult.mutations  # noqa: F401
from scomult.catalog import generate_catalog
from scomult.modules import self_module
from scomult.morphisms import is_s_zero
from scomult.rings import make_ring_zn, unit_mcs, validate_mcs
from scomult.s_theory import is_s_finite, is_s_multiplication
from scomult.statements import verify_all
from scomult.witnesses import REVALIDATORS, Witness

SRC = Path(scomult.__file__).parent


def witness_makes():
    """(file, line, claim, keyword names) for every `Witness.make` call."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "make"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "Witness"):
                claim = node.args[0]
                assert isinstance(claim, ast.Constant), (
                    f"{path.name}:{node.lineno} makes a non-literal claim")
                names = [k.arg for k in node.keywords]
                assert None not in names, (
                    f"{path.name}:{node.lineno} unpacks its bindings")
                out.append((path.name, node.lineno, claim.value, names))
    return out


def made_claims():
    """(file, claim) for every literal claim passed to `Witness.make`."""
    return [(name, claim) for name, _, claim, _ in witness_makes()]


def test_every_made_claim_has_a_revalidator():
    claims = made_claims()
    assert claims
    missing = [(name, claim) for name, claim in claims if claim not in REVALIDATORS]
    assert missing == []


def test_every_revalidator_claim_is_made():
    made = {claim for _, claim in made_claims()}
    assert sorted(set(REVALIDATORS) - made) == []


def test_every_witness_binds_its_claims_revalidator_parameters():
    """Each `Witness.make` binds `mcs` just before `s`, and its names are
    its revalidator's parameters, in order."""
    wrong = []
    for name, line, claim, names in witness_makes():
        params = list(inspect.signature(REVALIDATORS[claim]).parameters)
        if names != params or ("mcs", "s") not in zip(names, names[1:]):
            wrong.append((name, line, claim, names, params))
    assert wrong == []


@pytest.fixture(scope="module")
def real_witnesses():
    """One witness per claim from the reduced catalog: the first that the
    statement suite revalidates, then S-zero and S-multiplication, which no
    statement makes."""
    catalog = generate_catalog(scomult.mutations.mutation_catalog_params())
    found = {}
    real_validate = Witness.validate

    def recording_validate(self):
        found.setdefault(self.claim, self)
        return real_validate(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Witness, "validate", recording_validate)
        verify_all(catalog)
    s_zero = (is_s_zero(f, mcs) for ring in catalog.rings
              for f in catalog.homs[ring] for mcs in catalog.mcs[ring])
    found["s-zero"] = next(w for w in s_zero if w is not None)
    found["s-multiplication"] = next(
        w for module, mcs in catalog.module_mcs_pairs()
        for _, w in is_s_multiplication(module, mcs).witnesses)
    return found


@pytest.mark.parametrize("claim", sorted(REVALIDATORS))
def test_a_witness_with_s_outside_s_fails_validation(real_witnesses, claim):
    witness = real_witnesses[claim]
    assert witness is not None and witness.validate()
    zero = witness.get("mcs").ring.zero
    assert zero not in witness.get("mcs")
    moved = Witness(witness.claim, tuple(
        (key, zero if key == "s" else value) for key, value in witness.bindings))
    assert not moved.validate(), moved.describe()


@pytest.mark.parametrize("claim, subset, mcs, s", [
    ("s-prime-colon", {0, 3}, {1, 3}, 1),
    ("s-prime-homothety", {0, 3}, {1, 3}, 1),
    ("s-second-homothety", {0, 3}, {1, 2, 4}, 2),
    ("s-second-containment", {0, 3}, {1, 2, 4}, 2),
])
def test_a_derived_form_witness_fails_when_its_precondition_fails(
        z6, m6, claim, subset, mcs, s):
    """Over Z6 acting on itself, (P:M) = {0,3} meets {1,3} and ann(N) = {0,2,4}
    meets {1,2,4}; the search raises DisjointnessFailure on these instances,
    so a witness built for them by hand must not validate."""
    key = "p" if claim.startswith("s-prime") else "n"
    witness = Witness.make(claim, module=m6, **{key: frozenset(subset)},
                           mcs=validate_mcs(z6, mcs), s=s)
    assert not witness.validate(), witness.describe()


def test_describe_names_set_and_tuple_bindings_by_label():
    ring = make_ring_zn([2, 3])
    module = self_module(ring)
    witness = is_s_finite(module, frozenset(module.elements()), unit_mcs(ring))
    assert witness.describe() == (
        "s-finite(module=Z2xZ3 over Z2xZ3, n={(0,0),(0,1),(0,2),(1,0),(1,1),(1,2)},"
        " mcs={(1,1)}, s=(1,1), generators=((0,1),(1,0)))")

"""The witness registry: every claim made has a revalidator and vice versa."""

import ast
from pathlib import Path

import scomult  # noqa: F401  registers the library's claims
import scomult.localization  # noqa: F401
import scomult.mutations  # noqa: F401
from scomult.witnesses import REVALIDATORS

SRC = Path(scomult.__file__).parent


def made_claims():
    """(file, claim) for every literal claim passed to `Witness.make`."""
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
                out.append((path.name, claim.value))
    return out


def test_every_made_claim_has_a_revalidator():
    claims = made_claims()
    assert claims
    missing = [(name, claim) for name, claim in claims if claim not in REVALIDATORS]
    assert missing == []


def test_every_revalidator_claim_is_made():
    made = {claim for _, claim in made_claims()}
    assert sorted(set(REVALIDATORS) - made) == []

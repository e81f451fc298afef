"""The witness registry: every claim kind has a revalidator and vice versa."""

import scomult  # noqa: F401  registers the library's claims
import scomult.localization  # noqa: F401
import scomult.mutations  # noqa: F401
from scomult.witnesses import KINDS, REVALIDATORS


def test_every_kind_has_a_revalidator():
    assert sorted(KINDS) == sorted(REVALIDATORS)

"""Finite computational algebra for S-comultiplication module theory.

The library builds finite commutative rings, finite modules over them,
multiplicatively closed sets, and module homomorphisms, evaluates the
S-theoretic predicates (S-prime, S-second, S-comultiplication, S-cyclic,
and friends) with deterministic witnesses, constructs localizations by
explicit pair classes, and exhaustively verifies a suite of 26 statements
about S-comultiplication modules over generated catalogs.
"""

from .catalog import Catalog, CatalogParams, generate_catalog
from .errors import (
    AxiomViolation,
    ContainsZero,
    DisjointnessFailure,
    InstanceParseError,
    MCSViolation,
    MissingOne,
    NotClosed,
    PreconditionUnmet,
    ScomultError,
    SizeCapExceeded,
    UnknownStatement,
)
from .localization import (
    complement_mcs,
    localize_module,
    localize_ring,
    localize_submodule,
    localized_colon_identity_check,
    mm_locally_nonzero,
)
from .modules import (
    Module,
    Submodule,
    annihilator,
    direct_sum_module,
    enumerate_submodules,
    is_torsion,
    make_module,
    product_module,
    quotient_module,
    self_module,
    submodule_as_module,
    submodule_closure,
    submodule_from_set,
    torsion_set,
    zero_divisors_on,
    zero_module,
    zn_over_zk,
)
from .morphisms import (
    ModuleHom,
    enumerate_homs,
    image,
    is_s_epic,
    is_s_monic,
    is_s_zero,
    kernel,
    make_hom,
    monic_epic_bridge,
)
from .rings import (
    MCS,
    Ring,
    divides,
    enumerate_ideals,
    enumerate_mcs,
    has_maximal_multiple,
    jacobson_radical,
    make_ring_table,
    make_ring_zn,
    maximal_ideals,
    prime_ideals,
    product_ring,
    saturation,
    units,
    validate_mcs,
)
from .s_theory import (
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
    lemma_equivalence_bundle,
    s_prime_characterizations,
    s_second_characterizations,
    transfer_theorem_check,
    uniform_multiple,
)
from .statements import STATEMENTS, StatementReport, Toolbox, verify, verify_all
from .witnesses import Witness

__version__ = "0.1.0"

"""Exact colored Kauffman polynomials of torus links, the orthogonal
Chern-Simons free energy, and the associated integrality checks.

All arithmetic is exact (arbitrary-precision rationals); there is no
floating point anywhere in the package.
"""

from .laurent import (
    RationalQT,
    ZTPoly,
    parse_qt,
    to_z_basis,
    valuation_at_q1,
)
from .lmov import (
    NTable,
    UnlinkSpec,
    column_integrality_check,
    conjecture_lhs,
    degree_check,
    extract_n_table,
    free_energy,
    lickorish_millett_check,
    reformulated_g,
    z_coefficient,
)
from .partitions import (
    common_divisors,
    kappa,
    lemma72_sum,
    mobius,
    parse_multipartition,
    parse_partition,
    partitions_of,
    splittings,
    updown_dimension,
    z_stat,
)
from .characters import (
    brauer_character,
    brauer_labels,
    lr_coefficient,
    multi_character,
    sn_character,
)
from .schur import (
    PbElement,
    SbElement,
    evaluate_sb_element,
    pb_in_sb,
    sb_closed_form,
    sb_in_pb,
    unknot_identity_check,
)
from .torus import (
    TorusLinkSpec,
    bracket_coefficients,
    ctilde,
    kauffman_bracket,
    torus_invariant,
    unlink_invariant,
)

__version__ = "0.1.0"

__all__ = [
    "RationalQT",
    "ZTPoly",
    "NTable",
    "PbElement",
    "SbElement",
    "TorusLinkSpec",
    "UnlinkSpec",
    "__version__",
    "bracket_coefficients",
    "brauer_character",
    "brauer_labels",
    "column_integrality_check",
    "common_divisors",
    "conjecture_lhs",
    "ctilde",
    "degree_check",
    "evaluate_sb_element",
    "extract_n_table",
    "free_energy",
    "kappa",
    "kauffman_bracket",
    "lemma72_sum",
    "lickorish_millett_check",
    "lr_coefficient",
    "mobius",
    "multi_character",
    "parse_multipartition",
    "parse_partition",
    "parse_qt",
    "partitions_of",
    "pb_in_sb",
    "reformulated_g",
    "sb_closed_form",
    "sb_in_pb",
    "sn_character",
    "splittings",
    "to_z_basis",
    "torus_invariant",
    "unknot_identity_check",
    "unlink_invariant",
    "updown_dimension",
    "valuation_at_q1",
    "z_coefficient",
    "z_stat",
]

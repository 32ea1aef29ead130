"""Exact colored Kauffman polynomials of torus links, the orthogonal
Chern-Simons free energy, and the associated integrality checks.

All arithmetic is exact (arbitrary-precision rationals); there is no
floating point anywhere in the package.

The public names are imported from their modules on first access (PEP 562),
so ``import klmov`` compiles none of the layers.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "laurent": ("RationalQT", "to_z_basis", "valuation_at_q1"),
    "lmov": (
        "UnlinkSpec", "column_integrality_check", "conjecture_lhs", "degree_check",
        "extract_n_table", "free_energy", "lickorish_millett_check", "reformulated_g",
        "z_coefficient",
    ),
    "partitions": (
        "common_divisors", "kappa", "lemma72_sum", "mobius", "parse_multipartition",
        "parse_partition", "partitions_of", "splittings", "updown_dimension", "z_stat",
    ),
    "characters": (
        "brauer_character", "brauer_column", "brauer_labels", "lr_coefficient",
        "sn_character", "sn_column",
    ),
    "schur": (
        "evaluate_sb_element", "pb_in_sb", "sb_closed_form", "sb_in_pb",
        "unknot_identity_check",
    ),
    "torus": (
        "TorusLinkSpec", "bracket_coefficients", "ctilde", "kauffman_bracket",
        "torus_invariant", "unlink_invariant",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_HOME})

"""Workbench for substitutive dynamical systems.

Spectral classification of substitutions (primitivity, irreducibility,
Pisot verdicts with certified root bounds), occurrence and proximality
scans on fixed points, strong-coincidence checking, the Dumont-Thomas
prefix-automaton numeration, finite-sums (IP) witnesses for occurrence
sets, and exact lattice strand geometry under inflation.

The names below are loaded on first use (PEP 562): ``import substrand``
imports no submodule, so a command pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "words": (
        "Alphabet", "Word", "Substitution", "FixedPointStream",
        "abelianize", "apply_substitution", "list_periodic_seeds", "parse_substitution_spec",
    ),
    "spectral": (
        "abelianization_matrix", "is_primitive", "characteristic_polynomial",
        "is_irreducible", "perron_data", "classify",
        "IntPolynomial", "ClassificationReport", "RootBound",
        "PISOT_YES", "PISOT_NO", "PISOT_INDETERMINATE",
    ),
    "points": (
        "OccurrenceSet", "ProximalityEvidence", "occurrences", "max_return_gap",
        "proximality_scan", "EVIDENCE_FOR", "NONE_FOUND",
    ),
    "coincidence": (
        "CoincidenceWitness", "CoincidenceVerdict",
        "delta_sequence", "find_strong_coincidence", "validate_witness",
        "delta_value_set", "BalancedPairClosure", "balanced_pair_closure",
    ),
    "numeration": (
        "PathRepresentation", "DecodedValue", "SynchronizingScan", "prefix_automaton",
        "decode_path", "encode_integer", "enumerate_paths", "letter_at",
        "synchronizing_scan", "format_path", "parse_path",
    ),
    "ipsets": (
        "FsFamily", "FsProvenance", "FsVerification", "build_fs_family",
        "verify_finite_sums", "search_ip_witness",
    ),
    "strand": (
        "Strand", "InvariantSplitting", "StabilityScan",
        "build_strand", "substitute_strand", "invariant_splitting",
        "stability_scan", "max_stable_delta_norm",
        "write_scan_csv", "write_stable_scatter_svg",
    ),
    "errors": ("SubstrandError", "InputError", "UnsupportedInputError"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

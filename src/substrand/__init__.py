"""Workbench for substitutive dynamical systems.

Spectral classification of substitutions (primitivity, irreducibility,
Pisot verdicts with certified root bounds), occurrence and proximality
scans on fixed points, strong-coincidence checking, the Dumont-Thomas
prefix-automaton numeration, finite-sums (IP) witnesses for occurrence
sets, and exact lattice strand geometry under inflation.
"""

from .coincidence import (
    BalancedPairClosure,
    CoincidenceVerdict,
    CoincidenceWitness,
    DeltaSequence,
    balanced_pair_closure,
    delta_sequence,
    delta_value_set,
    find_strong_coincidence,
    validate_witness,
)
from .errors import InputError, SubstrandError, UnsupportedInputError
from .ipsets import (
    FsFamily,
    FsProvenance,
    FsVerification,
    build_fs_family,
    search_ip_witness,
    verify_finite_sums,
)
from .numeration import (
    DecodedValue,
    PathRepresentation,
    PrefixEdge,
    PrefixGraph,
    SynchronizingScan,
    build_prefix_graph,
    decode_path,
    encode_integer,
    enumerate_paths,
    format_path,
    letter_at,
    parse_path,
    synchronizing_scan,
)
from .points import (
    EVIDENCE_FOR,
    NONE_FOUND,
    OccurrenceSet,
    ProximalityEvidence,
    max_return_gap,
    occurrences,
    proximality_scan,
)
from .spectral import (
    PISOT_INDETERMINATE,
    PISOT_NO,
    PISOT_YES,
    ClassificationReport,
    IntPolynomial,
    RootBound,
    abelianization_matrix,
    characteristic_polynomial,
    classify,
    is_irreducible,
    is_primitive,
    perron_data,
)
from .strand import (
    InvariantSplitting,
    StabilityScan,
    Strand,
    build_strand,
    invariant_splitting,
    max_stable_delta_norm,
    stability_scan,
    substitute_strand,
    write_scan_csv,
    write_stable_scatter_svg,
)
from .words import (
    Alphabet,
    FixedPointStream,
    Substitution,
    SubstitutionSpec,
    Word,
    abelianize,
    apply_substitution,
    expand,
    list_periodic_seeds,
    parse_substitution_spec,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "Word", "Substitution", "FixedPointStream",
    "abelianize", "apply_substitution", "expand", "list_periodic_seeds",
    "abelianization_matrix", "is_primitive", "characteristic_polynomial",
    "is_irreducible", "perron_data", "classify",
    "IntPolynomial", "ClassificationReport", "RootBound",
    "PISOT_YES", "PISOT_NO", "PISOT_INDETERMINATE",
    "OccurrenceSet", "ProximalityEvidence", "occurrences", "max_return_gap",
    "proximality_scan", "EVIDENCE_FOR", "NONE_FOUND",
    "DeltaSequence", "CoincidenceWitness", "CoincidenceVerdict",
    "delta_sequence", "find_strong_coincidence", "validate_witness",
    "delta_value_set", "BalancedPairClosure", "balanced_pair_closure",
    "PrefixGraph", "PrefixEdge", "PathRepresentation", "DecodedValue",
    "SynchronizingScan", "build_prefix_graph", "decode_path", "encode_integer",
    "enumerate_paths", "letter_at", "synchronizing_scan", "format_path", "parse_path",
    "FsFamily", "FsProvenance", "FsVerification", "build_fs_family",
    "verify_finite_sums", "search_ip_witness",
    "Strand", "InvariantSplitting", "StabilityScan",
    "build_strand", "substitute_strand", "invariant_splitting",
    "stability_scan", "max_stable_delta_norm",
    "write_scan_csv", "write_stable_scatter_svg",
    "SubstitutionSpec", "parse_substitution_spec",
    "SubstrandError", "InputError", "UnsupportedInputError",
]

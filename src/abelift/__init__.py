"""Abelian lifts of regular graphs: spectra, signings, hikes, and codes."""
from __future__ import annotations

__version__ = "0.1.0"

from .groups import AbelianGroup
from .graphs import (RegularGraph, Signing, bicycle_free_radius,
                     complete_graph, cycle_graph, girth, lift,
                     nonbacktracking, petersen_graph, random_regular,
                     signed_adjacency, signed_nonbacktracking)
from .spectral import (adjacency_spectrum, boolean_rayleigh_max,
                       decomposition_probe, ihara_check, lambda2, lift_lambda,
                       mixing_check, multiset_max_distance,
                       nb_eigenvector_transport, spectrum_union_check)
from .hikes import (EdgeSubgraph, GraphEncoding, count_bounds, decode_graph,
                    dfs, encode_graph, enumerate_hikes, hike_encoding,
                    hike_encoding_count, hike_graph, is_hike,
                    mop_excess_check, singleton_free)
from .pseudorandom import (AuxExpander, BiasedSet, auxiliary_expander,
                           bias_exact, bias_sampled, biased_set_search,
                           expander_walk_signing, hoeffding_tail_check)
from .search import (derandomized_lift_search, exponential_regime_build,
                     markov_bound_report, verify_certificate)
from .codes import (BudgetError, CSSCode, GroupAlgebraMatrix, LinearCodeF2,
                    circulant_structure_check, css_valid, free_action_check,
                    group_algebra_from_blocks, lifted_product,
                    local_code_search, min_distance, tanner_code, tanner_from_certificate, toric_code,
                    write_alist)

__all__ = [
    "__version__",
    "AbelianGroup", "RegularGraph", "Signing",
    "bicycle_free_radius", "complete_graph", "cycle_graph", "girth", "lift",
    "nonbacktracking", "petersen_graph", "random_regular",
    "signed_adjacency", "signed_nonbacktracking",
    "adjacency_spectrum", "boolean_rayleigh_max", "decomposition_probe",
    "ihara_check", "lambda2",
    "lift_lambda", "mixing_check", "multiset_max_distance",
    "nb_eigenvector_transport", "spectrum_union_check",
    "EdgeSubgraph", "GraphEncoding", "count_bounds", "decode_graph", "dfs",
    "encode_graph", "enumerate_hikes", "hike_encoding",
    "hike_encoding_count", "hike_graph", "is_hike", "mop_excess_check",
    "singleton_free",
    "AuxExpander", "BiasedSet", "auxiliary_expander", "bias_exact",
    "bias_sampled", "biased_set_search", "expander_walk_signing",
    "hoeffding_tail_check",
    "derandomized_lift_search", "exponential_regime_build",
    "markov_bound_report", "verify_certificate",
    "BudgetError", "CSSCode", "GroupAlgebraMatrix", "LinearCodeF2",
    "circulant_structure_check", "css_valid", "free_action_check",
    "group_algebra_from_blocks",
    "lifted_product", "local_code_search", "min_distance", "tanner_code",
    "tanner_from_certificate", "toric_code", "write_alist",
]

"""Ramsey properties of randomly perturbed dense graphs.

Exact small-case Ramsey search with certificates, the 2-density
calculus behind random Ramsey thresholds, a threshold-exponent oracle,
verified adversarial constructions, and reproducible Monte Carlo
threshold scans.
"""

from .coloring import (EdgeColoring, INCONCLUSIVE, NOT_RAMSEY, RAMSEY,
                       RamseyQuery, RamseyVerdict, decide_globally_ramsey,
                       decide_ramsey, export_cnf, ramsey_query,
                       targets_ramsey_number, verify_coloring)
from .constructions import (ConstructionError, bipartite_decomposition,
                            clique_split_coloring, lift_coloring,
                            odd_cycle_free_multicoloring, turan_blue_composite)
from .densities import (covariance_bound, d2, is_strictly_2_balanced,
                        is_strictly_balanced_wrt, janson_bound, m2, m2_asym,
                        mu0, mu1, rho, rho_bound_hm, rho_k,
                        rho_k_with_partition)
from .experiments import PACKAGE_VERSION, replay, run_experiment
from .facts import FactReport, default_fact_suite
from .graph6 import decode as graph6_decode
from .graph6 import encode as graph6_encode
from .graphs import (Graph, Pattern, arbitrary, blowup, build_family, clique,
                     clique_graph, complete_multipartite, contains_pattern,
                     cycle, cycle_graph, empty_graph, enumerate_copies,
                     find_pattern, find_pattern_through_edge, hm_graph,
                     hmr_graph, path, path_graph, turan_graph, with_labels)
from .perturb import (DrcReport, MonteCarloRow, ScanResult, drc_select,
                      edge_variate, log_spaced_grid, monte_carlo_ramsey,
                      perturb, sample_gnp, threshold_scan, wilson_interval)
from .thresholds import ThresholdAnswer, threshold_oracle

__version__ = PACKAGE_VERSION

__all__ = [
    "EdgeColoring", "INCONCLUSIVE", "NOT_RAMSEY", "RAMSEY", "RamseyQuery",
    "RamseyVerdict", "decide_globally_ramsey", "decide_ramsey", "export_cnf",
    "ramsey_query", "targets_ramsey_number", "verify_coloring",
    "ConstructionError", "bipartite_decomposition", "clique_split_coloring",
    "lift_coloring", "odd_cycle_free_multicoloring", "turan_blue_composite",
    "covariance_bound", "d2", "is_strictly_2_balanced",
    "is_strictly_balanced_wrt", "janson_bound", "m2", "m2_asym", "mu0", "mu1",
    "rho", "rho_bound_hm", "rho_k", "rho_k_with_partition",
    "PACKAGE_VERSION", "replay", "run_experiment",
    "FactReport", "default_fact_suite",
    "graph6_decode", "graph6_encode",
    "Graph", "Pattern", "arbitrary", "blowup", "build_family", "clique",
    "clique_graph", "complete_multipartite", "contains_pattern", "cycle",
    "cycle_graph", "empty_graph", "enumerate_copies", "find_pattern",
    "find_pattern_through_edge", "hm_graph", "hmr_graph", "path", "path_graph",
    "turan_graph", "with_labels",
    "DrcReport", "MonteCarloRow", "ScanResult", "drc_select", "edge_variate",
    "log_spaced_grid", "monte_carlo_ramsey", "perturb", "sample_gnp",
    "threshold_scan", "wilson_interval",
    "ThresholdAnswer", "threshold_oracle",
    "__version__",
]

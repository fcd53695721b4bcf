"""Diversity-aware nearest-neighbor search with welfare objectives.

Selection of k neighbors is framed as welfare maximization over per-attribute
utilities: the Nash (geometric-mean) objective balances relevance against
attribute diversity query by query, and the generalized p-mean family
interpolates from plain similarity search (p = 1) to egalitarian spreading
(p -> -inf). The package ships exact single-attribute solvers, a submodular
greedy for the multi-attribute case, hard-cap and fetch-then-select
baselines, brute-force reference oracles, relevance/diversity metrics,
dataset ingestion, and a benchmark CLI.
"""

from .core import (AttributeTable, Selection, SimilarityFn, VectorSet,
                   WelfareParams, log_nsw, utilities, welfare)
from .oracle import (AlphaOracleConfig, RankedList, alpha_topk,
                     block_pools, exact_topk, full_scan_pool)
from .solvers import GreedyStats, nash_ann, p_mean_ann
from .multi import multi_div_ann, multi_nash_ann, multi_p_mean_ann
from .baselines import div_ann, fetch_union, top_k
from .reference import (ErspInstance, brute_force_opt, ersp_reduction,
                        log_ineq_check, packing_exists, random_ersp)
from .metrics import (MetricsReport, approx_ratio, attribute_counts,
                      compute_report, distinct_count, entropy,
                      inverse_simpson, recall)
from .data import (PRESETS, Preset, cluster_attrs, prob_attrs, read_attrs,
                   read_bvecs, read_fvecs, read_vectors, write_attrs,
                   write_bvecs, write_fvecs)

__version__ = "0.1.0"

__all__ = [
    "AttributeTable", "Selection", "SimilarityFn", "VectorSet",
    "WelfareParams", "log_nsw", "utilities", "welfare",
    "AlphaOracleConfig", "RankedList", "alpha_topk", "block_pools",
    "exact_topk", "full_scan_pool",
    "GreedyStats", "nash_ann", "p_mean_ann",
    "multi_div_ann", "multi_nash_ann", "multi_p_mean_ann",
    "div_ann", "fetch_union", "top_k",
    "ErspInstance", "brute_force_opt", "ersp_reduction", "log_ineq_check",
    "packing_exists", "random_ersp",
    "MetricsReport", "approx_ratio", "attribute_counts", "compute_report",
    "distinct_count", "entropy", "inverse_simpson", "recall",
    "PRESETS", "Preset", "cluster_attrs", "prob_attrs",
    "read_attrs", "read_bvecs", "read_fvecs", "read_vectors",
    "write_attrs", "write_bvecs", "write_fvecs",
    "__version__",
]

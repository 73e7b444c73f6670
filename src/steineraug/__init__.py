"""Steiner connectivity augmentation and splitting-off toolkit.

The package computes, for a weighted undirected graph with a terminal set:

- the laminar forest of supreme sets (maximal extreme sets per terminal
  projection), via randomized perturbation, divide and conquer over
  terminal bipartitions, and post-order clean-up traversals;
- a minimum-weight augmentation raising Steiner connectivity to a target
  tau (external star, augmentation chains, random matchings);
- a complete splitting-off of an external vertex under per-vertex degree
  budgets (heavy-path flow networks, the same chain scheduler over the
  external phase's ledger, surrogate matchings);
- exponential-time oracles that certify all of the above on small graphs.
"""

from .graph import Graph, EdgeAdditions, cut_value, projection, is_steiner_cut, \
    contract, add_edges, steiner_connectivity
from .flow import FlowNetwork, FlowResult, max_flow, earliest_min_cut, \
    isolating_cuts, flow_backend_name, max_flow_call_count, \
    reset_max_flow_call_count
from .forest import LaminarForest, ForestNode, PathSumTree, HeavyPathDecomposition
from .supreme import supreme_forest, perturb, find_supreme_candidates, postprocess
from .external import ExternalSolution, external_augment, make_even, \
    augmentation_lower_bound
from .chains import ChainScheduler, Slot, run_chains
from .matching import build_K, augment_by_one, is_feasible_partial
from .deg_external import check_feasibility, deg_external_augment
from .deg_chains import split_off_chains
from .deg_matching import find_surrogates, deg_augment_by_one
from .pipeline import RejectedInstanceError, augment_pipeline, splitoff_pipeline

__version__ = "0.1.0"

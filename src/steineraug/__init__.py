"""Steiner connectivity augmentation and splitting-off toolkit.

The package computes, for a weighted undirected graph with a terminal set:

- the laminar forest of supreme sets (maximal extreme sets per terminal
  projection), via a deterministic perturbation, divide and conquer over
  terminal bipartitions, and post-order clean-up traversals;
- a minimum-weight augmentation raising Steiner connectivity to a target
  tau, and a complete splitting-off of an external vertex under
  per-vertex degree budgets: each places its budget in its own external
  phase (an even optimal star; heavy-path flow networks), and both split
  it off in one step, by augmentation chains over the endpoint slots
  that phase emits (c values on the forest nodes) and surrogate matchings;
- exponential-time oracles that certify all of the above on small graphs.
"""

from .graph import Graph, EdgeAdditions, cut_value, projection, is_steiner_cut, \
    add_edges, steiner_connectivity
from .flow import FlowNetwork, FlowResult, max_flow, isolating_cuts, \
    flow_backend_name, max_flow_call_count
from .forest import LaminarForest, ForestNode, HeavyPathDecomposition
from .supreme import supreme_forest, perturb, find_supreme_candidates, postprocess
from .external import ExternalSolution, external_augment, make_even, \
    augmentation_lower_bound
from .chains import ChainScheduler, Slot, run_chains
from .matching import build_K, is_feasible_partial
from .deg_external import check_feasibility, deg_external_augment
from .deg_chains import split_off
from .deg_matching import find_surrogates, deg_augment_by_one
from .pipeline import RejectedInstanceError, augment_pipeline, splitoff_pipeline

__version__ = "0.1.0"

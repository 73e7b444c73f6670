"""Regenerate the stored splitoff instances in perfbench/splitoff/.

Each instance is test_04's construction on a sparse graph: a random
spanning tree plus n extra edges (weights 1..3, n/3 terminals, n = 48),
a target tau = connectivity + 3, and an external vertex x (the last id)
whose star is the even optimal external solution that the package's
supreme forest yields for tau.  The star depends on the package's
randomized code, so the files are generated once and the benchmark only
reads them; rerunning this script on a changed package may change them.

The pool is every generator seed in workloads.SPLITOFF_POOL, unfiltered:
some of them hit the pipeline's known "budget exhausted inside supreme
set" failure, and the benchmark counts those as failed operations.

    PYTHONPATH=src python3 perfbench/make_splitoff.py
"""

from __future__ import annotations

import random

from steineraug.external import external_augment, make_even
from steineraug.graph import Graph, star_graph, steiner_connectivity
from steineraug.supreme import supreme_forest

from workloads import POOL_DIR, SPLITOFF_N, SPLITOFF_POOL, tree_plus_edges


def star_instance(seed: int, n: int, offset: int) -> tuple[Graph, int]:
    edges, terminals = tree_plus_edges(random.Random(seed), n, n, 3, n // 3)
    g = Graph.build(n, edges, terminals)
    tau = steiner_connectivity(g) + offset
    forest = supreme_forest(g, seed=seed)
    forest.compute_rdem(tau)
    gx, _ = star_graph(g, make_even(external_augment(forest, tau)).beta)
    return gx, tau


def write(path, gx: Graph, header: str) -> None:
    lines = [f"# {header}",
             f"{gx.n} {len(gx.edges)} {len(gx.terminals)}"]
    lines += [f"{u} {v} {w}" for u, v, w in gx.edges]
    lines.append(" ".join(str(t) for t in sorted(gx.terminals)))
    path.write_text("\n".join(lines) + "\n")


def main() -> None:
    POOL_DIR.mkdir(exist_ok=True)
    for seed in SPLITOFF_POOL:
        gx, tau = star_instance(seed, SPLITOFF_N, 3)
        write(POOL_DIR / f"seed-{seed:02d}.txt", gx,
              f"splitoff n={SPLITOFF_N} seed={seed} tau=conn+3={tau}; "
              f"x={gx.n - 1}")
    # Warm-up: a small instance solved once before timing starts.
    gx, tau = star_instance(0, 24, 1)
    write(POOL_DIR / "warmup.txt", gx,
          f"splitoff warm-up n=24 seed=0 tau=conn+1={tau}; x={gx.n - 1}")


if __name__ == "__main__":
    main()

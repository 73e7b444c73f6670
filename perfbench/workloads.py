"""The benchmark's workloads: input generators, the solve call and its check.

Each workload is a fixed pool of instances, built here from fixed
generator seeds and never from the package's randomized code
(`supreme_forest`, the pipelines), so a change that draws random numbers
differently still gets the same inputs.  The only package-dependent
inputs, the splitoff stars, were generated once by `make_splitoff.py`
and are read from `splitoff/`.  The benchmark seed only sets the order
in which a run solves the pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from steineraug import EdgeAdditions, Graph, oracle, pipeline

import checks

POOL_DIR = Path(__file__).resolve().parent / "splitoff"
#: Generator seeds of the stored splitoff instances; each is also the
#: pipeline seed the instance is solved with.
SPLITOFF_POOL = tuple(range(1, 7))
#: Vertices of the stored splitoff graphs, x not counted.
SPLITOFF_N = 48


@dataclass(frozen=True)
class Instance:
    label: str
    graph: Graph                 # what the pipeline receives
    seed: int                    # pipeline seed
    lam: int                     # Steiner connectivity of the input
    tau: int = 0                 # augment target
    x: int = -1                  # splitoff: the external vertex (last id)
    beta: dict = field(default_factory=dict)   # splitoff: star of x
    verify_graph: Optional[Graph] = None        # splitoff: graph without x

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def edges(self):
        return self.graph.edges

    @property
    def terminals(self):
        return self.graph.terminals

    @property
    def dx(self) -> int:
        return sum(self.beta.values())


def tree_plus_edges(rng: random.Random, n: int, extra: int, max_w: int,
                    n_terminals: int):
    """test_08's generator: a random spanning tree plus `extra` random
    edges, weights uniform in 1..max_w, a random terminal sample."""
    edges = [(rng.randrange(v), v, rng.randint(1, max_w))
             for v in range(1, n)]
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edges.append((min(u, v), max(u, v), rng.randint(1, max_w)))
    terminals = rng.sample(range(n), n_terminals)
    return edges, terminals


def read_graph(path: Path):
    """A graph file in the package README's format: `n m |T| [tau]`,
    m lines `u v w`, one line of terminals; `#` starts a comment."""
    rows = []
    for raw in path.read_text().splitlines():
        toks = raw.split("#", 1)[0].split()
        if toks:
            rows.append([int(t) for t in toks])
    n, m, k = rows[0][:3]
    edges = [tuple(r) for r in rows[1:1 + m]]
    terminals = rows[1 + m] if len(rows) > 1 + m else []
    if len(rows) != m + 2 or len(terminals) != k \
            or any(len(e) != 3 for e in edges):
        raise ValueError(f"{path.name}: malformed graph file")
    return n, edges, terminals


def _augment_instance(label: str, rng: random.Random, n: int,
                      n_terminals: int, offset: int) -> Instance:
    edges, terminals = tree_plus_edges(rng, n, 2 * n, 5, n_terminals)
    lam = checks.steiner_connectivity(n, edges, terminals)
    return Instance(label, Graph.build(n, edges, terminals),
                    seed=rng.randrange(1 << 30), lam=lam, tau=lam + offset)


def _splitoff_instance(label: str, path: Path, seed: int) -> Instance:
    n, edges, terminals = read_graph(path)
    x = n - 1
    beta: dict[int, int] = {}
    rest = []
    for u, v, w in edges:
        if x in (u, v):
            other = v if u == x else u
            beta[other] = beta.get(other, 0) + w
        else:
            rest.append((u, v, w))
    lam = checks.steiner_connectivity(n, edges, terminals)
    return Instance(label, Graph.build(n, edges, terminals), seed=seed,
                    lam=lam, x=x, beta=beta,
                    verify_graph=Graph.build(n - 1, rest, terminals))


def _entries(adds: EdgeAdditions):
    return sorted(adds.merged().entries)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                                # "augment" or "splitoff"
    size: int                                # pool entries
    entry: Callable[[int], Instance]         # pool index -> input
    warmup: Callable[[], Instance]

    def pool(self, seed: int) -> list[Instance]:
        """The whole pool, in the order the seed gives."""
        order = list(range(self.size))
        random.Random(f"{self.name}/{seed}").shuffle(order)
        return [self.entry(j) for j in order]

    def solve(self, inst: Instance):
        """One pipeline call; returns (sorted merged entries, report)."""
        if self.kind == "augment":
            adds, report = pipeline.augment_pipeline(inst.graph, inst.tau,
                                                     seed=inst.seed)
        else:
            adds, report = pipeline.splitoff_pipeline(inst.graph, inst.x,
                                                      seed=inst.seed)
        return _entries(adds), report

    def check(self, inst: Instance, entries, report) -> list[str]:
        if self.kind == "augment":
            return checks.check_augment(inst, entries, report)
        return checks.check_splitoff(inst, entries)

    def package_verify(self, inst: Instance, entries) -> bool:
        """The package's own verification layer (traced runs only)."""
        F = EdgeAdditions(tuple(entries))
        if self.kind == "augment":
            ok, _ = oracle.verify_solution(inst.graph, inst.tau, F)
        else:
            ok, _ = oracle.verify_solution(inst.verify_graph, inst.lam, F,
                                           beta=inst.beta)
        return ok


def _augment(name: str, size: int, n: int, n_terminals: int,
             offsets: tuple[int, ...]) -> Workload:
    def entry(j: int) -> Instance:
        return _augment_instance(f"{name}/{j}", random.Random(f"{name}/{j}"),
                                 n, n_terminals, offsets[j % len(offsets)])

    def warmup() -> Instance:
        return _augment_instance("warmup", random.Random(f"{name}/warmup"),
                                 30, 4, offsets[0])

    return Workload(name, "augment", size, entry, warmup)


def _splitoff() -> Workload:
    def entry(j: int) -> Instance:
        s = SPLITOFF_POOL[j]
        return _splitoff_instance(f"splitoff/seed-{s:02d}",
                                  POOL_DIR / f"seed-{s:02d}.txt", s)

    def warmup() -> Instance:
        return _splitoff_instance("warmup", POOL_DIR / "warmup.txt", 0)

    return Workload("splitoff", "splitoff", len(SPLITOFF_POOL), entry, warmup)


WORKLOADS = {
    w.name: w for w in (
        # Many terminals: supreme recursion, hundreds of small flows per
        # solve and the quadratic crossing repair; +3/+10 also run chains
        # and matching.
        _augment("augment-wide", 6, 48, 48 // 3, (1, 3, 10)),
        # Six terminals on a large graph: 62 base-case bipartitions on the
        # full graph, so the flow kernel and network build dominate.
        _augment("augment-few-terminals", 6, 400, 6, (3,)),
        # Degree-constrained splitting-off of a tight optimal star.
        _splitoff(),
    )
}

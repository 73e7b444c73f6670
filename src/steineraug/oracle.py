"""Exponential-time oracles: exact extreme/supreme families, the exact
external augmentation optimum, and solution verification.

Everything here enumerates vertex subsets as machine words and is meant
for graphs of at most ~12 vertices (hard cap 16); the fast algorithms are
tested against these answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import flow
from .forest import LaminarForest
from .graph import EdgeAdditions, Graph, add_edges

HARD_CAP = 16
DEFAULT_LIMIT = 12


class OracleSizeError(ValueError):
    """The graph has more vertices than the oracle's size limit."""


def _check_size(g: Graph, limit: int) -> None:
    if g.n > min(limit, HARD_CAP):
        raise OracleSizeError(
            f"oracle size limit exceeded: n={g.n} > {min(limit, HARD_CAP)}")


def _all_cut_values(g: Graph) -> list[int]:
    """d(mask) for every vertex subset encoded as a bitmask."""
    vals = [0] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        d = 0
        for (u, v, w) in g.edges:
            if ((mask >> u) & 1) != ((mask >> v) & 1):
                d += w
        vals[mask] = d
    return vals


def _terminal_mask(g: Graph) -> int:
    tm = 0
    for t in g.terminals:
        tm |= 1 << t
    return tm


def _is_steiner(mask: int, tmask: int) -> bool:
    p = mask & tmask
    return p != 0 and p != tmask


@dataclass(frozen=True)
class ExtremeFamily:
    sets: tuple[tuple[frozenset[int], int], ...]  # (vertex set, cut value)

    def vertex_sets(self) -> list[frozenset[int]]:
        return [s for (s, _) in self.sets]


def extreme_sets_bruteforce(g: Graph, limit: int = DEFAULT_LIMIT) -> ExtremeFamily:
    """All extreme sets: Steiner cuts whose proper Steiner subsets all
    have strictly larger cut value."""
    _check_size(g, limit)
    vals = _all_cut_values(g)
    tmask = _terminal_mask(g)
    out = []
    for mask in range(1, 1 << g.n):
        if not _is_steiner(mask, tmask):
            continue
        d = vals[mask]
        ok = True
        sub = (mask - 1) & mask
        while sub:
            if _is_steiner(sub, tmask) and vals[sub] <= d:
                ok = False
                break
            sub = (sub - 1) & mask
        if ok:
            members = frozenset(u for u in range(g.n) if (mask >> u) & 1)
            out.append((members, d))
    out.sort(key=lambda e: (len(e[0]), sorted(e[0])))
    return ExtremeFamily(tuple(out))


def supreme_sets_bruteforce(g: Graph, limit: int = DEFAULT_LIMIT) -> LaminarForest:
    """Supreme sets mu(R): union of extreme sets per terminal projection.

    Returns a laminar forest whose nodes carry the terminal set R, the
    vertex set mu(R) (stored as mu_tilde), and c(R) = d(mu(R)).
    """
    _check_size(g, limit)
    fam = extreme_sets_bruteforce(g, limit)
    by_proj: dict[frozenset[int], set[int]] = {}
    for (members, _) in fam.sets:
        r = frozenset(members & g.terminals)
        by_proj.setdefault(r, set()).update(members)
    entries = []
    for r, mu in by_proj.items():
        entries.append((r, flow_free_cut_value(g, mu), frozenset(mu)))
    return LaminarForest.from_family(entries)


def flow_free_cut_value(g: Graph, X) -> int:
    """Plain d(X) by edge scan (kept flow-engine-free for independence)."""
    side = set(X)
    return sum(w for (u, v, w) in g.edges if (u in side) != (v in side))


def _forest_rdem_sum(forest: LaminarForest, tau: int) -> int:
    """Sum of root rdem values under the Algorithm-2 recurrence."""
    rdem: dict[int, int] = {}
    for i in forest.postorder():
        nd = forest.nodes[i]
        child_sum = sum(rdem[ch] for ch in nd.children)
        rdem[i] = max(tau - nd.c, child_sum, 0)
    return sum(rdem[r] for r in forest.roots())


def optimal_external_value(g: Graph, tau: int, limit: int = DEFAULT_LIMIT) -> int:
    """Optimal total weight of an external augmentation to connectivity tau."""
    _check_size(g, limit)
    forest = supreme_sets_bruteforce(g, limit)
    return _forest_rdem_sum(forest, tau)


def verify_solution(g: Graph, tau: int, F: EdgeAdditions,
                    beta: Optional[dict[int, int]] = None
                    ) -> tuple[bool, Optional[object]]:
    """Check connectivity(g+F) >= tau and optional per-vertex budgets.

    Returns (ok, witness); the witness is an offending vertex id for a
    budget violation, or a violated cut (vertex frozenset) otherwise.
    Each flow stops at tau: only a failing one needs its cut.
    """
    if beta is not None:
        for u in range(g.n):
            if F.degree(u) > beta.get(u, 0):
                return False, u
    net = flow.FlowNetwork.undirected(add_edges(g, F))
    ts = sorted(g.terminals)
    for t in ts[1:]:
        res = flow.max_flow(net, ts[:1], (t,), tau)
        if res.value < tau:
            return False, res.source_side
    return True, None

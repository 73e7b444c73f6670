"""Unconstrained external augmentation over the supreme forest.

A post-order traversal adds, for each node R, external weight
excess(R) = rdem(R) - sum of children's rdem to one terminal of R; the
result is a feasible external solution of optimal total value (sum of
root rdem).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .forest import LaminarForest


@dataclass
class ExternalSolution:
    """Vertex -> weight toward the external vertex x; doubles as the
    degree budget beta for the splitting phases."""

    beta: dict[int, int] = field(default_factory=dict)

    @property
    def total_weight(self) -> int:
        return sum(self.beta.values())


def external_augment(f: LaminarForest, tau: int) -> ExternalSolution:
    """Algorithm-2 traversal; requires compute_rdem(tau) done on f.

    The weight for each node goes to its lowest-id terminal, making the
    budget (and the chain scheduler's vacancy bookkeeping) reproducible.
    """
    beta: dict[int, int] = {}
    for i in f.postorder():
        nd = f.nodes[i]
        w = f.excess(i)
        if w < 0:
            raise RuntimeError(f"node {i}: rdem recurrence violated")
        if w > 0:
            u = min(nd.terminals)
            beta[u] = beta.get(u, 0) + w
        # After visiting R, the weight inside R must total rdem(R).
        inside = sum(v for t, v in beta.items() if t in nd.terminals)
        if inside != nd.rdem:
            raise RuntimeError(f"node {i}: weight {inside} != rdem {nd.rdem}")
    return ExternalSolution(beta)


def make_even(sol: ExternalSolution) -> ExternalSolution:
    """Round the total up to even by +1 at the lowest-id supported vertex."""
    beta = dict(sol.beta)
    if sol.total_weight % 2 == 1:
        if not beta:
            raise ValueError("odd total with empty support")
        beta[min(u for u, w in beta.items() if w > 0)] += 1
    return ExternalSolution(beta)


def augmentation_lower_bound(sol: ExternalSolution) -> int:
    """ceil(k/2) for the pre-make_even total k."""
    return (sol.total_weight + 1) // 2

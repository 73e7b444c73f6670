"""Independent output checks, on scipy's max flow rather than the package's.

`scipy.sparse.csgraph.maximum_flow` works on int32 capacities and
truncates wider values without an error (a capacity of 3e9 comes back as
a flow of 0), so every network is range-checked before it is built: the
total capacity bounds every flow value, and it must fit in int32.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

INT32_MAX = 2**31 - 1


class CheckRangeError(ValueError):
    """A network is too heavy for scipy's int32 max flow."""


def capacity_matrix(n: int, edges) -> csr_matrix:
    """Symmetric int32 capacity matrix of an undirected multigraph."""
    acc: dict[tuple[int, int], int] = {}
    for u, v, w in edges:
        key = (u, v) if u < v else (v, u)
        acc[key] = acc.get(key, 0) + w
    total = sum(acc.values())
    if total > INT32_MAX:
        raise CheckRangeError(f"total capacity {total} exceeds int32")
    rows, cols, data = [], [], []
    for (u, v), w in acc.items():
        rows += (u, v)
        cols += (v, u)
        data += (w, w)
    return csr_matrix((np.array(data, dtype=np.int32),
                       (np.array(rows, dtype=np.int32),
                        np.array(cols, dtype=np.int32))), shape=(n, n))


def steiner_connectivity(n: int, edges, terminals) -> int:
    """min over t of lambda(s, t) for the smallest terminal s."""
    ts = sorted(set(terminals))
    if len(ts) < 2:
        raise ValueError("need at least 2 terminals")
    cap = capacity_matrix(n, edges)
    best = None
    for t in ts[1:]:
        lam = int(maximum_flow(cap, ts[0], t).flow_value)
        if best is None or lam < best:
            best = lam
            if best == 0:
                break
    return best


def _entry_problems(n: int, entries) -> list[str]:
    bad = [e for e in entries
           if not (0 <= e[0] < n and 0 <= e[1] < n) or e[0] == e[1] or e[2] <= 0]
    return [f"malformed added edges {bad[:3]}"] if bad else []


def check_augment(inst, entries, report: dict) -> list[str]:
    """Problems with an augmentation output; empty when it is correct."""
    problems = _entry_problems(inst.n, entries)
    if problems:
        return problems
    weight = sum(w for _, _, w in entries)
    if weight != report.get("optimum"):
        problems.append(f"weight {weight} != reported optimum "
                        f"{report.get('optimum')}")
    lam = steiner_connectivity(inst.n, list(inst.edges) + list(entries),
                               inst.terminals)
    if lam < inst.tau:
        problems.append(f"connectivity {lam} < tau {inst.tau}")
    return problems


def check_splitoff(inst, entries) -> list[str]:
    """Weight d(x)/2, per-vertex budgets and preserved connectivity."""
    n = inst.n - 1
    problems = _entry_problems(n, entries)
    if problems:
        return problems
    weight = sum(w for _, _, w in entries)
    if weight != inst.dx // 2:
        problems.append(f"weight {weight} != d(x)/2 = {inst.dx // 2}")
    deg: dict[int, int] = {}
    for u, v, w in entries:
        deg[u] = deg.get(u, 0) + w
        deg[v] = deg.get(v, 0) + w
    over = sorted(u for u, d in deg.items() if d > inst.beta.get(u, 0))
    if over:
        problems.append(f"budget exceeded at {over[:5]}")
    rest = [e for e in inst.edges if inst.x not in (e[0], e[1])]
    lam = steiner_connectivity(n, rest + list(entries), inst.terminals)
    if lam < inst.lam:
        problems.append(f"connectivity {lam} < {inst.lam} before splitting")
    return problems

"""Pure-Python Dinic max-flow kernel, the package's only flow kernel.

Capacities are unbounded Python integers.  The arc order and the DFS
order fix which max flow is returned; the degree-constrained external
phase reads per-arc flows, so changing either can change outputs.
"""

from __future__ import annotations

from collections import deque


def max_flow_kernel(n: int, src: list[int], dst: list[int], cap: list[int],
                    s: int, t: int) -> tuple[int, list[int], set[int]]:
    """Blocking-flow max flow on a directed arc list.

    Returns (value, per-input-arc flow, source-side residual-reachable set).
    """
    m = len(src)
    head: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    capacity: list[int] = []
    for i in range(m):
        head[src[i]].append(2 * i)
        to.append(dst[i])
        capacity.append(cap[i])
        head[dst[i]].append(2 * i + 1)
        to.append(src[i])
        capacity.append(0)

    total = 0
    level = [0] * n
    iter_idx = [0] * n
    while True:
        for i in range(n):
            level[i] = -1
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for a in head[u]:
                v = to[a]
                if capacity[a] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            break
        for i in range(n):
            iter_idx[i] = 0
        while True:
            # One augmenting path per iteration, found by an iterative DFS
            # over admissible arcs (level increases by one, positive residual).
            path: list[int] = []
            u = s
            pushed = 0
            while True:
                if u == t:
                    pushed = min(capacity[a] for a in path)
                    for a in path:
                        capacity[a] -= pushed
                        capacity[a ^ 1] += pushed
                    break
                advanced = False
                while iter_idx[u] < len(head[u]):
                    a = head[u][iter_idx[u]]
                    v = to[a]
                    if capacity[a] > 0 and level[v] == level[u] + 1:
                        path.append(a)
                        u = v
                        advanced = True
                        break
                    iter_idx[u] += 1
                if advanced:
                    continue
                # Dead end: retreat, and never try this vertex again this phase.
                level[u] = -1
                if not path:
                    break
                a = path.pop()
                u = to[a ^ 1]
                iter_idx[u] += 1
            if pushed == 0:
                break
            total += pushed

    reachable: set[int] = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for a in head[u]:
            v = to[a]
            if capacity[a] > 0 and v not in reachable:
                reachable.add(v)
                queue.append(v)

    flows = [cap[i] - capacity[2 * i] for i in range(m)]
    return total, flows, reachable

"""Pure-Python Dinic max-flow kernel, the package's only flow kernel.

It runs on a prepared residual graph (`flow.FlowNetwork`): adjacency
lists of arc ids, arc heads, and residual capacities that the solve
updates in place, arc a ^ 1 being the reverse of arc a.  Sources and
sinks are given per solve, so one graph serves many cuts.  Capacities
are unbounded Python integers.

The arc order and the DFS order fix which max flow is returned; the
degree-constrained external phase reads per-arc flows, so changing
either can change outputs.  The sources are tried in the given order,
each until it is blocked, which finds the same augmenting paths as a
super source joined to them in that order.

The last BFS of the loop gives the minimal source side for free; the
minimal sink side needs a reverse search of the residual graph, which
`flow.FlowResult.sink_side` runs only when a caller reads it.

A solve given a `limit` stops at the first push that brings its flow to
the limit.  Up to that push it is the uncapped solve step for step, so
a solve whose max flow is below the limit is unchanged, and one that
stops leaves a valid residual graph that a later call can go on from.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional


def max_flow_kernel(head: list[list[int]], to: list[int], cap: list[int],
                    sources: list[int], sinks: list[int],
                    limit: Optional[int] = None
                    ) -> tuple[int, Optional[frozenset[int]]]:
    """Blocking-flow max flow from `sources` to `sinks` over `cap`.

    Returns (value, source side): the source side is the vertices the
    final residual graph reaches from the sources.  With `limit`, a flow
    that reaches it returns at once, with a value >= limit and no source
    side; a limit of 0 or less is reached before any work.
    """
    stop = math.inf if limit is None else limit
    if stop <= 0:
        return 0, None
    n = len(head)
    is_sink = [False] * n
    for t in sinks:
        is_sink[t] = True
    total = 0
    while True:
        # Levels by BFS, not expanded past the nearest sinks' level.
        level = [-1] * n
        for r in sources:
            level[r] = 0
        queue = deque(sources)
        depth = n
        while queue:
            u = queue.popleft()
            d = level[u] + 1
            if d > depth:
                break
            for a in head[u]:
                v = to[a]
                if cap[a] and level[v] < 0:
                    level[v] = d
                    if is_sink[v]:
                        depth = d
                    queue.append(v)
        if depth == n:
            break
        it = [0] * n
        for r in sources:
            # Augmenting paths by an iterative DFS over admissible arcs
            # (level up by one, positive residual).  After a push the walk
            # resumes at the first saturated arc: a restart from r would
            # retrace the same arcs up to it.
            path: list[int] = []
            u = r
            while True:
                if is_sink[u]:
                    pushed = min(map(cap.__getitem__, path))
                    for a in path:
                        cap[a] -= pushed
                        cap[a ^ 1] += pushed
                    total += pushed
                    if total >= stop:
                        return total, None
                    for j, a in enumerate(path):
                        if not cap[a]:
                            break
                    del path[j:]
                    u = to[a ^ 1]
                    continue
                arcs = head[u]
                i = it[u]
                na = len(arcs)
                nxt = level[u] + 1
                while i < na:
                    a = arcs[i]
                    if cap[a] and level[to[a]] == nxt:
                        break
                    i += 1
                it[u] = i
                if i < na:
                    path.append(a)
                    u = to[a]
                    continue
                # Dead end: never try this vertex again this phase.
                level[u] = -1
                if not path:
                    break
                a = path.pop()
                u = to[a ^ 1]
                it[u] += 1

    return total, frozenset(v for v in range(n) if level[v] >= 0)

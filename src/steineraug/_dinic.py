"""Pure-Python Dinic max-flow kernel, the package's only flow kernel.

It runs on a prepared residual graph (`flow.FlowNetwork`): adjacency
lists of arc ids, arc heads, and residual capacities that the solve
updates in place, arc a ^ 1 being the reverse of arc a.  Sources and
sinks are given per solve, so one graph serves many cuts.  Capacities
are unbounded Python integers.

The arc order and the DFS order fix which max flow is returned; the
degree-constrained external phase reads per-arc flows off the residual
capacities, so changing either can change outputs.  The sources are
tried in the given order, each until it is blocked, which finds the
same augmenting paths as a super source joined to them in that order.

Each phase labels from both ends (Pohl, "Bi-directional search",
Machine Intelligence 6, 1971): forward levels 0, 1, .. from the sources
over residual arcs, and backward levels 0, 1, .. from the sinks over
reverse residual arcs, one whole layer at a time, always the smaller
frontier next.  While no vertex holds both labels, with forward layers
0..i and backward layers 0..j complete, the sinks are more than i + j
arcs away (a shortest path would put a vertex of forward level <= i
and backward level <= j on it).  So the first search to touch a vertex
the other has labelled meets it across one arc from forward level i to
backward level j, and the phase's paths have length d = i + j + 1.  The
DFS follows forward levels 0..i, then backward levels j..0; a vertex is
a sink exactly when its backward level is 0.  The labels the meeting
layer had given so far (forward i + 1 or backward j + 1) are never
admissible.

These are the augmenting paths of the phase that labels by forward
distance alone, push for push, as in Dinitz (Soviet Math. Doklady 11,
1970).  A vertex on backward level k was entered from forward distance
d - k - 1, so it is at forward distance d - k, and the arcs of the DFS
are arcs of the forward level graph.  The forward level graph's other
vertices beyond level i cannot reach a sink in time, and its arcs only
lose capacity within a phase, so they are dead ends from the start and
push nothing: the arcs skipped are exactly the walks into them.

The phase that finds no path runs the forward search to exhaustion,
also after the backward search ran out first, and returns its labels as
the minimal source side.  The minimal sink side, which would need a
reverse search of the final residual graph, is on an undirected
network the minimal source side of the solve from the sinks to the
sources, which the oracle's witness makes; on a perturbed network it is
the rest of the vertices less those of no terminal's component, which
`supreme._sink_side` reads with no search.

A solve given a `limit` stops at the first push that brings its flow to
the limit.  Up to that push it is the uncapped solve step for step, so
a solve whose max flow is below the limit is unchanged, and one that
stops tells only that its max flow is at least the limit.
"""

from __future__ import annotations

import math
from typing import Optional


def max_flow_kernel(head: list[list[int]], to: list[int], cap: list[int],
                    sources: list[int], sinks: list[int],
                    limit: Optional[int] = None
                    ) -> tuple[int, Optional[frozenset[int]]]:
    """Blocking-flow max flow from `sources` to `sinks` over `cap`.

    Returns (value, source side): the source side is the vertices the
    final residual graph reaches from the sources.  With `limit`, a flow
    that reaches it returns at once, with a value >= limit and no source
    side.
    """
    stop = math.inf if limit is None else limit
    n = len(head)
    total = 0
    while True:
        # Levels from both ends, a whole layer at a time, the smaller
        # frontier first: forward k >= 0 from the sources, backward
        # -2 - k into the sinks (a sink is -2; -1 is unlabelled).  Once
        # the backward search has run out (nb = 0) no path is left, and
        # the forward search runs to the end.
        level = [-1] * n
        for t in sinks:
            level[t] = -2
        for r in sources:
            level[r] = 0
        fwd, bwd = list(sources), list(sinks)
        f0 = b0 = 0
        last, bridge = 0, -2            # the two frontiers' labels
        while True:
            nf, nb = len(fwd) - f0, len(bwd) - b0
            if nf <= nb or not nb:
                if not nf:
                    return total, frozenset(fwd)    # minimal source side
                f0 += nf
                d = last + 1
                for u in fwd[-nf:]:
                    for a in head[u]:
                        if cap[a]:
                            v = to[a]
                            lv = level[v]
                            if lv < 0:
                                if lv < -1:
                                    break
                                level[v] = d
                                fwd.append(v)
                    else:
                        continue
                    break
                else:
                    last = d
                    continue
                break       # met: level last reaches level bridge; the
                            # partial labels last + 1 are never admissible
            b0 += nb
            d = bridge - 1
            for v in bwd[-nb:]:
                for a in head[v]:
                    if cap[a ^ 1]:
                        u = to[a]
                        lu = level[u]
                        if lu == -1:
                            level[u] = d
                            bwd.append(u)
                        elif lu >= 0:
                            break
                else:
                    continue
                break
            else:
                bridge = d
                continue
            break           # met, as above; bridge - 1 is never admissible
        it = [0] * n
        for r in sources:
            # Augmenting paths by an iterative DFS over admissible arcs
            # (positive residual, one label on: forward level up by one,
            # from level last into level bridge, backward level down by
            # one to a sink).  After a push the walk resumes at the first
            # saturated arc: a restart from r would retrace the same arcs
            # up to it.
            path: list[int] = []
            u = r
            while True:
                lu = level[u]
                if lu == -2:
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
                nxt = bridge if lu == last else lu + 1
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

"""How fast the host runs Python right now, from a fixed reference loop.

On a shared host, co-tenants slow a core down for a minute or more at a
time, by up to 1.5x, and every pipeline call slows with it.  The
benchmark times this loop between its calls and scales its times by
REFERENCE_S / (median loop time in the run), so that runs made in a slow
and in a fast phase of the host agree.  The loop uses none of the
package's code, so a change to the package leaves it as it is.
"""

from __future__ import annotations

import random
import time

#: The time the scaled figures assume for one reference loop: about its
#: time on an unloaded core of the 2-core VM the benchmark was written on.
REFERENCE_S = 0.010
#: Loops timed before each pipeline call.
REPS = 3

_N = 400


def _graph() -> list[list[int]]:
    rng = random.Random(7)
    adj: list[list[int]] = [[] for _ in range(_N)]
    for _ in range(4 * _N):
        u, v = rng.randrange(_N), rng.randrange(_N)
        adj[u].append(v)
        adj[v].append(u)
    return adj


_ADJ = _graph()


def reference_loop() -> int:
    """Breadth-first search from 50 sources of a fixed random graph: the
    dict, list and small-int work that the Python flow kernel does."""
    total = 0
    for s in range(0, _N, 8):
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for v in _ADJ[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += sum(dist.values())
    return total


def sample(samples: list[float]) -> None:
    """Time REPS reference loops and append their times to `samples`."""
    for _ in range(REPS):
        t0 = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - t0)

"""Per-layer tracing of the package, from outside it.

While a `Tracer` is installed, the public functions of the package's
modules are replaced by wrappers that record one span per call: name,
start, end, parent span and the request (instance index) it belongs to.
Every module binding that refers to a wrapped function is replaced, not
only the defining one: pipeline.py's `from .supreme import
supreme_forest` and matching.py's `steiner_connectivity` are traced as
well.  The kernel that `flow._kernel_for` picks is wrapped too, so the
per-call kernel shows, including the fallback to the Python kernel for
capacities above 2**62.  Spans stay in memory until the run writes them.

A span's self time is its duration minus the durations of its child
spans, so the self times of all spans under one pipeline call add up to
that call's duration.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from steineraug import flow
from steineraug.graph import Graph

#: Public functions wrapped, by module of definition.  One that a module
#: no longer has is skipped, and the metrics read from it stay 0.
TARGETS = {
    "flow": ("max_flow", "min_cut_value", "earliest_min_cut",
             "isolating_cuts"),
    "graph": ("steiner_connectivity", "contract"),
    "supreme": ("supreme_forest", "perturb", "find_supreme_candidates",
                "postprocess"),
    "external": ("external_augment", "make_even"),
    "chains": ("run_chains",),
    "matching": ("build_K", "augment_by_one", "is_feasible_partial"),
    "deg_external": ("check_feasibility", "deg_external_augment",
                     "process_path", "build_H"),
    "deg_chains": ("split_off_chains",),
    "deg_matching": ("deg_augment_by_one", "find_surrogates"),
    "pipeline": ("augment_pipeline", "splitoff_pipeline"),
    "oracle": ("verify_solution",),
}
MODULES = tuple(m for m in TARGETS if m != "oracle")

#: Where a flow is called from: the nearest wrapped caller outside the
#: flow and graph layers.  steiner_connectivity is a graph helper and
#: takes its caller's site, except under the pipeline, where it is the
#: "connectivity" site; a flow the pipeline calls directly is splitoff's
#: per-neighbour cut-edge precheck.
SITES = ("supreme", "connectivity", "matching", "deg_external",
         "deg_matching", "precheck", "verify")
CALLERS = ("pipeline", "matching", "deg_external")
BUILD = ("flow.min_cut_value", "flow.earliest_min_cut", "flow.isolating_cuts")


def _sched_counts(result):
    sched = result[1]
    return (getattr(sched, "edge_update_count", 0),
            sum(getattr(sched, "event_counts", {}).values()))


def _candidates(args, kwargs, result):
    stats = kwargs.get("stats") or {}
    return (stats.get("max_depth", 0), len(result))


#: name -> (attributes read before the call, attributes read after it)
HOOKS = {
    "flow.max_flow": (lambda a, kw: len((a[0] if a else kw["net"]).arcs),
                      None),
    "supreme.find_supreme_candidates": (None, _candidates),
    "chains.run_chains": (None, lambda a, kw, r: _sched_counts(r)),
    "deg_chains.split_off_chains": (None, lambda a, kw, r: _sched_counts(r)),
    "matching.is_feasible_partial": (None, lambda a, kw, r: bool(r)),
}


class Tracer:
    """Span recorder; `install` patches the package, `uninstall` undoes it."""

    def __init__(self) -> None:
        # [name, start, end, parent index, request, attributes]
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        before, after = HOOKS.get(name, (None, None))
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(args, kwargs) if before else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.request, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                span[5] = after(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for mod, names in TARGETS.items():
            m = sys.modules[f"steineraug.{mod}"]
            for fname in names:
                orig = getattr(m, fname, None)
                if orig is not None:
                    wrapped[id(orig)] = (orig,
                                         self._wrap(f"{mod}.{fname}", orig))

        kernels = {True: self._wrap("flow.kernel.py",
                                    flow._dinic.max_flow_kernel)}
        if flow._dinic_cy is not None:
            kernels[False] = self._wrap("flow.kernel.c",
                                        flow._dinic_cy.max_flow_kernel)
        kernel_for = flow._kernel_for

        def traced_kernel_for(total_cap):
            k = kernel_for(total_cap)
            return kernels[k is flow._dinic.max_flow_kernel]
        wrapped[id(kernel_for)] = (kernel_for, traced_kernel_for)

        for name, m in list(sys.modules.items()):
            if m is None or not (name == "steineraug"
                                 or name.startswith("steineraug.")):
                continue
            for attr, val in list(vars(m).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(m, attr, hit[1])
        self._patch(Graph, "coalesced",
                    self._wrap("graph.coalesced", Graph.coalesced))

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def _flow_site(spans, i: int) -> str:
    via_connectivity = False
    p = spans[i][3]
    while p >= 0:
        name = spans[p][0]
        mod = _module(name)
        if name == "graph.steiner_connectivity":
            via_connectivity = True
        elif mod == "pipeline":
            return "connectivity" if via_connectivity else "precheck"
        elif mod == "oracle":
            return "verify"
        elif mod not in ("flow", "graph"):
            return mod
        p = spans[p][3]
    return "other"


def _caller(spans, i: int) -> str:
    p = spans[i][3]
    while p >= 0 and _module(spans[p][0]) in ("flow", "graph"):
        p = spans[p][3]
    return _module(spans[p][0]) if p >= 0 else "other"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric `summarize` reports, with its unit."""
    units = {
        "supreme.find_supreme_candidates.self_s": "s",
        "supreme.postprocess.s": "s",
        "supreme.perturb.s": "s",
        "supreme.max_depth": "count",
        "supreme.candidates": "count",
    }
    for site in SITES:
        units[f"flow.max_flow.calls.{site}"] = "count"
        units[f"flow.max_flow.s.{site}"] = "s"
    units.update({
        "flow.kernel.s": "s", "flow.kernel.calls.py": "count",
        "flow.kernel.calls.c": "count", "flow.wrapper.self_s": "s",
        "flow.build.self_s": "s", "flow.arcs.mean": "count",
    })
    for caller in CALLERS:
        units[f"graph.steiner_connectivity.calls.{caller}"] = "count"
        units[f"graph.steiner_connectivity.s.{caller}"] = "s"
    units.update({
        "graph.coalesced.calls": "count", "graph.coalesced.s": "s",
        "graph.contract.calls": "count", "graph.contract.s": "s",
        "chains.run_chains.s": "s", "chains.edge_updates": "count",
        "chains.events": "count",
        "matching.augment_by_one.s": "s", "matching.attempts": "count",
        "matching.accept_ratio": "ratio",
        "deg_external.deg_external_augment.s": "s",
        "deg_external.h_networks": "count",
        "deg_chains.split_off_chains.s": "s", "deg_chains.events": "count",
        "deg_matching.deg_augment_by_one.s": "s",
        "deg_matching.find_surrogates.s": "s",
        "pipeline.precheck.s": "s",
        "oracle.verify_solution.s": "s",
    })
    for mod in MODULES:
        units[f"{mod}.self_s"] = "s"
    units.update({"trace.solve_s": "s", "trace.untraced_solve_s": "s",
                  "trace.overhead_s": "s", "trace.spans": "count"})
    return units


def summarize(spans, solves: int, traced_s: float, untraced_s: float
              ) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics, per solve unless the name says otherwise, and
    the total flow calls of every call site seen, named or not.

    `traced_s` and `untraced_s` are the summed pipeline-call times of the
    same instances with and without the tracer.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    root = list(range(n))
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
            root[i] = root[s[3]]
    self_t = [dur[i] - child[i] for i in range(n)]
    in_solve = [_module(spans[root[i]][0]) == "pipeline" for i in range(n)]

    tot = defaultdict(float)
    count = defaultdict(int)

    def add(key, value=1.0):
        tot[key] += value
        count[key] += 1

    arcs = depth = 0
    for i, (name, start, _, _, _, attrs) in enumerate(spans):
        if name == "oracle.verify_solution":
            add("oracle.verify_solution.s", dur[i])
        if name == "flow.max_flow":
            site = _flow_site(spans, i)
            add(f"flow.max_flow.s.{site}", dur[i])
            add(f"flow.max_flow.calls.{site}")
        if not in_solve[i]:
            continue
        add(f"{_module(name)}.self_s", self_t[i])
        if name == "flow.max_flow":
            arcs += attrs
            add("flow.wrapper.self_s", self_t[i])
        elif name in BUILD:
            add("flow.build.self_s", self_t[i])
        elif name.startswith("flow.kernel."):
            add("flow.kernel.s", dur[i])
            add(f"flow.kernel.calls.{name.rsplit('.', 1)[1]}")
        elif name == "graph.steiner_connectivity":
            caller = _caller(spans, i)
            add(f"graph.steiner_connectivity.s.{caller}", dur[i])
            add(f"graph.steiner_connectivity.calls.{caller}")
        elif name in ("graph.coalesced", "graph.contract"):
            add(f"{name}.s", dur[i])
            add(f"{name}.calls")
        elif name == "supreme.find_supreme_candidates":
            add(f"{name}.self_s", self_t[i])
            depth = max(depth, attrs[0])
            add("supreme.candidates", attrs[1])
        elif name in ("supreme.postprocess", "supreme.perturb",
                      "chains.run_chains", "matching.augment_by_one",
                      "deg_external.deg_external_augment",
                      "deg_chains.split_off_chains",
                      "deg_matching.deg_augment_by_one",
                      "deg_matching.find_surrogates"):
            add(f"{name}.s", dur[i])
        elif name == "deg_external.process_path":
            add("deg_external.h_networks")
        elif name == "matching.is_feasible_partial":
            add("matching.attempts")
            add("matching.accepted", float(attrs))
        elif name == "pipeline.splitoff_pipeline":
            first = next((spans[j][1] for j in range(i + 1, n)
                          if spans[j][3] == i
                          and spans[j][0] == "graph.steiner_connectivity"),
                         spans[i][2])
            add("pipeline.precheck.s", first - start)
        if name in ("chains.run_chains", "deg_chains.split_off_chains"):
            add(f"{_module(name)}.events", attrs[1])
            if name == "chains.run_chains":
                add("chains.edge_updates", attrs[0])

    per_solve = max(solves, 1)
    out = {}
    for key in per_layer_units():
        out[key] = tot.get(key, 0.0) / per_solve
    out["supreme.max_depth"] = float(depth)
    out["supreme.candidates"] = (tot["supreme.candidates"]
                                 / max(count["supreme.candidates"], 1))
    out["flow.arcs.mean"] = arcs / max(count["flow.wrapper.self_s"], 1)
    out["matching.accept_ratio"] = (tot["matching.accepted"]
                                    / max(tot["matching.attempts"], 1))
    out["trace.solve_s"] = traced_s / per_solve
    out["trace.untraced_solve_s"] = untraced_s / per_solve
    out["trace.overhead_s"] = (traced_s - untraced_s) / per_solve
    out["trace.spans"] = n / per_solve
    prefix = "flow.max_flow.calls."
    sites = {k[len(prefix):]: count[k] for k in count if k.startswith(prefix)}
    return out, sites

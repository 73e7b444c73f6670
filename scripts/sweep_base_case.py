"""Sweep the supreme recursion's base case over the benchmark pools.

Solves every entry of each perfbench workload pool (pool order of seed 1)
at each base case, for a number of passes; the order of the base cases
alternates from pass to pass, so a slow phase of the host falls on all
of them alike.  Every output is checked as perfbench/run.py checks it.
Prints one JSON object: per workload and base case, the flow calls per
pass (machine-independent), the sum over the entries of each entry's
median solve time (unscaled wall seconds), what the recursion did, and
whether every entry's output digest equals the one at the first base
case.

    python3 scripts/sweep_base_case.py --passes 5 --base-cases 3 4 5 10
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py)

run.load_package()

from steineraug import pipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def solve(workload, inst, base_case: int):
    if workload.kind == "augment":
        adds, report = pipeline.augment_pipeline(
            inst.graph, inst.tau, seed=inst.seed, base_case=base_case)
    else:
        adds, report = pipeline.splitoff_pipeline(
            inst.graph, inst.x, seed=inst.seed, base_case=base_case)
    return sorted(adds.merged().entries), report


def sweep(name: str, base_cases: list[int], passes: int) -> dict:
    workload = WORKLOADS[name]
    pool = workload.pool(1)
    times = {bc: {i.label: [] for i in pool} for bc in base_cases}
    seen: dict[int, dict] = {}
    for p in range(passes):
        for bc in (base_cases if p % 2 == 0 else base_cases[::-1]):
            flows = depth = 0
            base = {}
            digests, problems = {}, []
            for inst in pool:
                t0 = time.perf_counter()
                entries, report = solve(workload, inst, bc)
                times[bc][inst.label].append(time.perf_counter() - t0)
                flows += report["max_flow_calls"]
                rec = report.get("supreme")
                if rec:
                    depth = max(depth, rec["max_depth"])
                    for k, c in rec["base_cases"].items():
                        base[k] = base.get(k, 0) + c
                digests[inst.label] = run.digest(entries)
                problems += workload.check(inst, entries, report)
            this = {"flows_per_pass": flows, "max_depth": depth,
                    "base_cases": dict(sorted(base.items(), key=lambda kv:
                                              int(kv[0]))),
                    "digests": digests,
                    "problems": problems}
            if seen.setdefault(bc, this) != this:
                raise RuntimeError(f"{name} bc={bc}: pass {p} differs")
    out = {}
    first = seen[base_cases[0]]["digests"]
    for bc in base_cases:
        rec = dict(seen[bc])
        rec["solve_s"] = sum(statistics.median(v)
                             for v in times[bc].values())
        rec["digests_equal_first"] = rec.pop("digests") == first
        out[str(bc)] = rec
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--base-cases", type=int, nargs="+",
                    default=[3, 4, 5, 10])
    ap.add_argument("--workload", nargs="+", default=list(WORKLOADS))
    args = ap.parse_args(argv)
    result = {"command": "python3 scripts/sweep_base_case.py "
                         + " ".join(sys.argv[1:] if argv is None else argv),
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "passes": args.passes,
              "workloads": {w: sweep(w, args.base_cases, args.passes)
                            for w in args.workload}}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that benchmark runs computed the same things.

Every run solves the whole pool of its workload, so two runs of the same
code must agree on each pool entry's output digest, flow-call count and
failure, whatever their seeds; traced runs must also agree on the flow
calls per call site per pass.  Timings are not compared.

    python3 perfbench/compare.py perfbench/out/result-splitoff-seed*-trace*.json

Exits 1 and names the differences when the runs disagree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def fingerprint(path: Path) -> dict:
    result = json.loads(path.read_text())
    entries = {}
    for r in result["records"]:
        entries.setdefault(r["label"], set()).add(
            (r.get("digest"), r.get("flow_calls"), r.get("error")))
    fp = {"workload": result["workload"],
          "entries": {k: sorted(v, key=str) for k, v in entries.items()}}
    if "flow_calls_by_site" in result:
        fp["sites_per_pass"] = {k: v / result["passes"] for k, v
                                in sorted(result["flow_calls_by_site"].items())}
    return fp


def main(paths: list[str]) -> int:
    if len(paths) < 2:
        print(__doc__)
        return 2
    prints = {p: fingerprint(Path(p)) for p in paths}
    base_path, base = next(iter(prints.items()))
    bad = 0
    for p, fp in prints.items():
        for key in ("workload", "entries"):
            if fp[key] != base[key]:
                bad += 1
                print(f"{p}: {key} differs from {base_path}")
        if "sites_per_pass" in fp and "sites_per_pass" in base \
                and fp["sites_per_pass"] != base["sites_per_pass"]:
            bad += 1
            print(f"{p}: flow calls per site differ from {base_path}")
    for label, outs in base["entries"].items():
        if len(outs) > 1:
            bad += 1
            print(f"{base_path}: {label} gave different outputs in one run")
    print(f"{len(paths)} runs of {base['workload']}: "
          + ("identical outputs and flow counts" if not bad
             else f"{bad} differences"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

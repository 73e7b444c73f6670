"""steineraug benchmark: a closed loop of pipeline calls on one workload.

One process, one client: the instances of the workload's fixed pool
(workloads.py) are solved back to back, each one only after the previous
call returned, in the order the seed gives, until --seconds have passed;
the first pass over the pool always completes.  Every output is checked
with an independent max flow (checks.py).  The last line of standard
output is one JSON object with the run's result; the lines before it are
for people.

    python3 perfbench/run.py --workload augment-wide --seed 1 --seconds 35 --trace 0

Each pool entry is one operation: `attempted` and `failed` in the result
count entries, not calls, and an entry's time is the median of its calls
in the run.  Times are scaled to a fixed host speed (hostspeed.py).

--trace 0 reports the end-to-end metrics.  --trace 1 solves each
instance twice, untraced and traced (layers.py), and reports the
per-layer metrics and the tracing overhead.  Set-up time is measured in
separate processes, from process start to the first instance ready
(imports, generating the pool, one warm-up solve), reported as a median.

The package is run from the checkout's src/ directory as it is, with
whichever flow kernel it picks there.  Per-instance records, and the
spans of a traced run, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
END_TO_END = {"instances_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
# Printed and recorded, but not in the result line: each rests on one or
# two pool entries, and over ten runs made while the host changed phase
# their quartile spread reached 0.17 and 0.19 of the median.
ALSO_SHOWN = {"solve_s.p50": "s", "solve_s.max": "s"}


def die(msg: str) -> NoReturn:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import steineraug from this checkout's src/, and nothing else."""
    init = SRC / "steineraug" / "__init__.py"
    if not init.is_file():
        die(f"package source not found at {init}")
    sys.path.insert(0, str(SRC))
    import steineraug
    import steineraug.oracle  # noqa: F401  (not imported by the package)
    if Path(steineraug.__file__).resolve() != init.resolve():
        die(f"imported steineraug from {steineraug.__file__}, not {init}")
    return steineraug


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(workload, seed: int):
    """The pool generated in the seed's order and one warm-up solve done."""
    pool = workload.pool(seed)
    warm = workload.warmup()
    entries, report = workload.solve(warm)
    problems = workload.check(warm, entries, report)
    if problems:
        die(f"warm-up output is wrong: {problems}")
    return pool


def measure_setup(args) -> list[float]:
    """Process start to first instance ready, in fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, cwd=HERE.parent)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
            die(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(lines[1]) - t0)
    return samples


def digest(entries) -> str:
    return hashlib.sha256(json.dumps(entries).encode()).hexdigest()[:16]


def solve_once(workload, inst) -> tuple[dict, list]:
    """One timed pipeline call and its record; exceptions are failed
    operations.  Also returns the added edges (empty on an exception)."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        entries, report = workload.solve(inst)
    except Exception as exc:  # noqa: BLE001  (counted, the loop goes on)
        return {"solve_s": time.perf_counter() - t0,
                "cpu_s": time.process_time() - c0, "status": "error",
                "error": f"{type(exc).__name__}: {exc}"}, []
    rec = {"solve_s": time.perf_counter() - t0,
           "cpu_s": time.process_time() - c0, "status": "ok",
           "digest": digest(entries),
           "weight": sum(w for _, _, w in entries),
           "flow_calls": report.get("max_flow_calls")}
    problems = workload.check(inst, entries, report)
    if problems:
        rec.update(status="wrong", problems=problems)
    return rec, entries


def traced_solve(workload, inst, tracer) -> tuple[dict, object]:
    """Solve under the tracer, then run the package's own verification."""
    tracer.install()
    try:
        traced, entries = solve_once(workload, inst)
        verified = None
        if traced["status"] != "error":
            verified = workload.package_verify(inst, entries)
    finally:
        tracer.uninstall()
    return traced, verified


def reconcile(rec: dict, traced: dict, verified) -> None:
    """The traced outcome must match the untraced one, and the package's
    verification must agree with the independent check."""
    if any(traced.get(k) != rec.get(k) for k in ("status", "digest", "error")):
        rec.setdefault("problems", []).append("traced solve differs")
    if verified is not None and verified != (rec["status"] == "ok"):
        rec.setdefault("problems", []).append("package verification disagrees")
    if rec.get("problems"):
        rec["status"] = "wrong"
    rec["traced_solve_s"] = traced["solve_s"]


def environment(pkg) -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "flow_backend": pkg.flow_backend_name(),
            "platform": platform.platform()}


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = load_package()
    sys.path.insert(0, str(HERE))
    import hostspeed
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        set_up(workload, args.seed)
        print("ready", repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return 0

    setup_samples = measure_setup(args)
    pool = set_up(workload, args.seed)
    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()

    records = []
    ref_samples: list[float] = []
    traced_total = untraced_total = 0.0
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        i = len(records)
        inst = pool[i % len(pool)]
        if tracer is None:
            hostspeed.sample(ref_samples)
            rec, _ = solve_once(workload, inst)
        else:
            # Alternate which of the two solves runs first, so that the
            # overhead estimate is not biased by running second.
            tracer.request = i
            if i % 2:
                traced, verified = traced_solve(workload, inst, tracer)
                rec, _ = solve_once(workload, inst)
            else:
                rec, _ = solve_once(workload, inst)
                traced, verified = traced_solve(workload, inst, tracer)
            reconcile(rec, traced, verified)
            traced_total += traced["solve_s"]
            untraced_total += rec["solve_s"]
        rec.update(i=i, label=inst.label, n=inst.n, tau=inst.tau)
        records.append(rec)
        # The first pass always completes.  An untraced run then stops at
        # the deadline; a traced run stops between passes, after as many
        # as come closest to --seconds, so its per-solve counts cover
        # whole passes.
        done, now = len(records), time.perf_counter()
        if done < len(pool):
            continue
        if tracer is None:
            if now >= deadline:
                break
        elif done % len(pool) == 0:
            per_pass = (now - start) * len(pool) / done
            if now + per_pass / 2 >= deadline:
                break
    passes = len(records) / len(pool)

    calls = len(records)
    wrong = [r for r in records if r["status"] == "wrong"]
    errors = [r for r in records if r["status"] == "error"]
    times = [r["solve_s"] for r in records]
    by_entry: dict[str, list[dict]] = {}
    for r in records:
        by_entry.setdefault(r["label"], []).append(r)
    # Each pool entry is one operation, attempted once per run however
    # often it was repeated, and failed if any of its calls failed; so
    # the counts do not depend on how many calls fit in --seconds.
    entry_s = {e: statistics.median(r["solve_s"] for r in rs)
               for e, rs in by_entry.items()}
    entry_ok = {e: all(r["status"] == "ok" for r in rs)
                for e, rs in by_entry.items()}
    attempted = len(entry_ok)
    verified = sum(entry_ok.values())
    env = environment(pkg)

    print(f"steineraug benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"environment: python {env['python']}, nproc {env['nproc']}, "
          f"flow backend {env['flow_backend']}")
    print(f"closed loop, 1 client, {passes:.2f} passes, {calls} calls: "
          f"{len(errors)} raised, {len(wrong)} wrong output; pool entries "
          f"{attempted} attempted, {verified} verified "
          f"(failed_frac {(attempted - verified) / attempted:.4f})")
    for e, rs in by_entry.items():
        bad = [r for r in rs if r["status"] != "ok"]
        if bad:
            print(f"  failed {e}, {len(bad)} of {len(rs)} calls: "
                  f"{bad[0].get('error') or bad[0].get('problems')}")
    cpu = sum(r["cpu_s"] for r in records)
    print(f"cpu/wall over solves: {cpu / sum(times):.3f}")
    print("pool entry, calls, median solve s, flow calls, output digest:")
    for e, rs in by_entry.items():
        print(f"  {e} {len(rs)} {entry_s[e]:.4f} {rs[0].get('flow_calls')} "
              f"{rs[0].get('digest') or rs[0].get('error')}")

    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "passes": passes,
              "setup_samples_s": setup_samples, "records": records}
    if tracer is None:
        raw = {
            "instances_per_s": verified / sum(entry_s.values()),
            "solve_s.p50": statistics.median(entry_s.values()),
            "solve_s.max": max(entry_s.values()),
        }
        # Solve times as on a host that runs the reference loop in
        # REFERENCE_S.  Set-up time is not scaled: it is mostly imports,
        # and it hardly moves with the host's slow phases.
        ref_s = statistics.median(ref_samples)
        scale = hostspeed.REFERENCE_S / ref_s
        values = {k: v / scale if k == "instances_per_s" else v * scale
                  for k, v in raw.items()}
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["setup_s"] = statistics.median(setup_samples)
        result.update(reference_loop_s=ref_s, unscaled=raw)
        print(f"reference loop: median {ref_s * 1000:.3f} ms over "
              f"{len(ref_samples)} loops, times scaled by {scale:.4f}; "
              "unscaled: " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
        units = END_TO_END
        shown = {**END_TO_END, **ALSO_SHOWN}
    else:
        values, sites = layers.summarize(tracer.spans, calls,
                                         traced_total, untraced_total)
        units = shown = layers.per_layer_units()
        result["flow_calls_by_site"] = sites
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        with gzip.open(spans_path, "wt") as fh:
            for k, (name, t0, t1, parent, req, _) in enumerate(tracer.spans):
                fh.write(json.dumps({"id": k, "parent": parent, "request": req,
                                     "name": name, "start": t0, "end": t1})
                         + "\n")
        self_sum = sum(values[f"{m}.self_s"] for m in layers.MODULES)
        print(f"flow calls by site (all calls): {sites}")
        print(f"per solve: layer self times sum to {self_sum:.4f} s, traced "
              f"solve {values['trace.solve_s']:.4f} s, untraced "
              f"{values['trace.untraced_solve_s']:.4f} s")
        print(f"spans written to {spans_path.relative_to(HERE.parent)}")
    for name, unit in shown.items():
        print(f"{name} {values[name]:.6g} {unit}")

    result["metrics"] = values
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1))
    print(json.dumps({
        "correct": not wrong, "attempted": attempted,
        "failed": attempted - verified,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface.

Graph text format: first line ``n m |T| [tau]``, then m lines ``u v w``,
then one line with the terminal ids; ``#`` starts a comment.  Solutions
are JSON arrays of ``{"u":..,"v":..,"w":..}``.  Exit codes: 0 success,
2 infeasible/rejected/failed verification, 1 I/O or format error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import oracle
from .deg_external import InfeasibleBudgetError
from .graph import EdgeAdditions, Graph
from .matching import MatchingRetryError
from .pipeline import RejectedInstanceError, augment_pipeline, splitoff_pipeline
from .supreme import supreme_forest


class InputError(ValueError):
    pass


def _ints(line: str) -> list[int]:
    try:
        return [int(p) for p in line.split()]
    except ValueError as exc:
        raise InputError(f"non-integer field in {line!r}") from exc


def parse_graph_text(text: str) -> tuple[Graph, Optional[int]]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise InputError("empty graph file")
    head = _ints(lines[0])
    if len(head) not in (3, 4):
        raise InputError("header must be 'n m |T| [tau]'")
    n, m, nt = head[:3]
    tau = head[3] if len(head) == 4 else None
    if len(lines) != 2 + m:
        raise InputError(f"expected {m} edge lines plus a terminal line")
    edges = []
    for line in lines[1:1 + m]:
        parts = _ints(line)
        if len(parts) != 3:
            raise InputError(f"bad edge line: {line!r}")
        edges.append(tuple(parts))
    terminals = _ints(lines[1 + m])
    if len(terminals) != nt:
        raise InputError(f"expected {nt} terminals, got {len(terminals)}")
    if len(set(terminals)) < 2:
        raise InputError("need at least 2 distinct terminals")
    try:
        return Graph.build(n, edges, terminals), tau
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def load_graph(path: str) -> tuple[Graph, Optional[int]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph_text(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def load_solution(path: str) -> EdgeAdditions:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read solution {path}: {exc}") from exc
    try:
        entries = tuple((int(e["u"]), int(e["v"]), int(e["w"])) for e in data)
    except (TypeError, KeyError, ValueError) as exc:
        raise InputError(f"bad solution entries: {exc}") from exc
    return EdgeAdditions(entries)


def edges_json(adds: EdgeAdditions) -> list[dict]:
    return [{"u": u, "v": v, "w": w} for (u, v, w) in adds.entries]


def _emit_edges(adds: EdgeAdditions, report: dict, fmt: str) -> None:
    if fmt == "text":
        for (u, v, w) in adds.entries:
            print(u, v, w)
    elif fmt == "dot":
        print("graph additions {")
        for (u, v, w) in adds.entries:
            print(f'  {u} -- {v} [label="{w}"];')
        print("}")
    else:
        print(json.dumps({"edges": edges_json(adds), "report": report},
                         indent=2, sort_keys=True))


def _default_seed() -> int:
    return int(os.environ.get("STEINERAUG_SEED", "0"))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: $STEINERAUG_SEED or 0)")
    p.add_argument("--format", choices=["json", "dot", "text"],
                   default="json")
    p.add_argument("--base-case", type=int, default=10,
                   help="terminal count below which the supreme-set "
                        "search enumerates directly")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="steineraug",
        description="Steiner connectivity augmentation and splitting-off")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment", help="raise Steiner connectivity to tau")
    p.add_argument("graph")
    p.add_argument("--tau", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("splitoff", help="split off the external vertex n-1")
    p.add_argument("graph")
    _add_common(p)

    p = sub.add_parser("supreme", help="print the supreme-set forest")
    p.add_argument("graph")
    _add_common(p)

    p = sub.add_parser("verify", help="check a solution file")
    p.add_argument("graph")
    p.add_argument("solution")
    p.add_argument("--tau", type=int, default=None)

    p = sub.add_parser("oracle", help="brute-force reference values")
    p.add_argument("graph")
    p.add_argument("--tau", type=int, default=None)
    p.add_argument("--oracle-limit", type=int, default=oracle.DEFAULT_LIMIT)
    return ap


def _resolve_tau(arg_tau: Optional[int], file_tau: Optional[int]) -> int:
    tau = arg_tau if arg_tau is not None else file_tau
    if tau is None:
        raise InputError("no tau given (flag --tau or graph header)")
    return tau


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RejectedInstanceError, InfeasibleBudgetError,
            MatchingRetryError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = _default_seed()

    if args.command == "augment":
        g, file_tau = load_graph(args.graph)
        tau = _resolve_tau(args.tau, file_tau)
        adds, report = augment_pipeline(g, tau, seed=seed,
                                        base_case=args.base_case)
        _emit_edges(adds, report, args.format)
        return 0

    if args.command == "splitoff":
        g, _ = load_graph(args.graph)
        adds, report = splitoff_pipeline(g, g.n - 1, seed=seed,
                                         base_case=args.base_case)
        _emit_edges(adds, report, args.format)
        return 0

    if args.command == "supreme":
        g, _ = load_graph(args.graph)
        forest = supreme_forest(g, seed=seed, base_case=args.base_case)
        if args.format == "dot":
            print(forest.to_dot())
        elif args.format == "text":
            for i in forest.live():
                nd = forest.nodes[i]
                print(" ".join(map(str, sorted(nd.terminals))), "|",
                      nd.c, "|", " ".join(map(str, sorted(nd.mu_tilde))))
        else:
            print(forest.to_json())
        return 0

    if args.command == "verify":
        g, file_tau = load_graph(args.graph)
        tau = _resolve_tau(args.tau, file_tau)
        adds = load_solution(args.solution)
        ok, witness = oracle.verify_solution(g, tau, adds)
        if ok:
            print("PASS")
            return 0
        if isinstance(witness, frozenset):
            print(f"FAIL: cut {sorted(witness)} below {tau}")
        else:
            print(f"FAIL: witness {witness}")
        return 2

    if args.command == "oracle":
        g, file_tau = load_graph(args.graph)
        tau = args.tau if args.tau is not None else file_tau
        try:
            fam = oracle.extreme_sets_bruteforce(g, limit=args.oracle_limit)
        except oracle.OracleSizeError as exc:
            raise InputError(str(exc)) from exc
        out: dict = {"extreme_sets": [{"members": sorted(m), "cut": d}
                                      for (m, d) in fam.sets]}
        if tau is not None and tau >= 2:
            out["optimal_external"] = oracle.optimal_external_value(
                g, tau, limit=args.oracle_limit)
            out["optimal_augmentation"] = (out["optimal_external"] + 1) // 2
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0

    raise InputError(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from steineraug import cli

CYC4 = """# unit 4-cycle, all terminals
4 4 4 3
0 1 1
1 2 1
2 3 1
3 0 1
0 1 2 3
"""

SPLIT = """5 5 2
0 1 1
0 2 1
0 3 3
1 4 1
3 4 1
0 3
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_graph_text():
    g, tau = cli.parse_graph_text(CYC4)
    assert g.n == 4 and tau == 3 and len(g.edges) == 4
    g2, tau2 = cli.parse_graph_text("2 1 2\n0 1 5\n0 1\n")
    assert tau2 is None and g2.edges == ((0, 1, 5),)


@pytest.mark.parametrize("text", [
    "",                              # empty
    "1 2\n",                         # short header
    "2 1 2\n0 1 1\n",                # missing terminal line
    "2 1 2\n0 1\n0 1\n",             # bad edge line
    "2 1 1\n0 1 1\n0 1\n",           # terminal count mismatch
    "2 1 2\n0 3 1\n0 1\n",           # endpoint out of range
])
def test_parse_errors(text):
    with pytest.raises(cli.InputError):
        cli.parse_graph_text(text)


@pytest.mark.parametrize("text,field", [
    ("3 -1 3\n", "m"),        # 2 + m = 1 line: the header alone
    ("-2 1 2\n0 1 1\n0 1\n", "n"),
    ("2 1 -2\n0 1 1\n0 1\n", "|T|"),
], ids=["m", "n", "T"])
def test_negative_header_count_is_input_error(tmp_path, capsys, text, field):
    """A negative count is named, never read as a line count that takes
    the header for the terminal line."""
    with pytest.raises(cli.InputError, match=f"field {re.escape(field)} "):
        cli.parse_graph_text(text)
    path = write(tmp_path, "g.txt", text)
    assert cli.main(["augment", path, "--tau", "3"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: header field {field} is negative")


def test_augment_command(tmp_path, capsys):
    path = write(tmp_path, "g.txt", CYC4)
    assert cli.main(["augment", path, "--seed", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sum(e["w"] for e in out["edges"]) == 2
    assert out["report"]["optimum"] == 2


def test_augment_determinism(tmp_path, capsys):
    path = write(tmp_path, "g.txt", CYC4)
    outs = []
    for _ in range(2):
        assert cli.main(["augment", path, "--tau", "4", "--seed", "3"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_output_formats(tmp_path, capsys):
    path = write(tmp_path, "g.txt", CYC4)
    assert cli.main(["augment", path, "--format", "text", "--seed", "0"]) == 0
    text = capsys.readouterr().out
    assert all(len(line.split()) == 3 for line in text.strip().splitlines())
    assert cli.main(["augment", path, "--format", "dot", "--seed", "0"]) == 0
    assert "graph additions {" in capsys.readouterr().out


def test_verify_command(tmp_path, capsys):
    gpath = write(tmp_path, "g.txt", CYC4)
    good = write(tmp_path, "good.json",
                 json.dumps([{"u": 0, "v": 2, "w": 1}, {"u": 1, "v": 3, "w": 1}]))
    bad = write(tmp_path, "bad.json", json.dumps([]))
    assert cli.main(["verify", gpath, good]) == 0
    assert "PASS" in capsys.readouterr().out
    assert cli.main(["verify", gpath, bad]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_limit_at_most_zero_runs_no_kernel(tmp_path, capsys, monkeypatch):
    """A limit <= 0 is answered with no kernel run: steiner_connectivity
    gives 0, each of its solves counted but none begun, and `verify
    --tau 0` passes with no edges added, also terminals in two
    components."""
    from steineraug import flow
    from steineraug.graph import steiner_connectivity

    runs = []
    kernel_for = flow._kernel_for
    monkeypatch.setattr(flow, "_kernel_for",
                        lambda total_cap: runs.append(total_cap)
                        or kernel_for(total_cap))
    apart = "4 2 2\n0 1 3\n2 3 3\n0 3\n"
    none = write(tmp_path, "none.json", "[]")
    for text in (CYC4, SPLIT, apart):
        g, _ = cli.parse_graph_text(text)
        for limit in (0, -1):
            before = flow.max_flow_call_count()
            assert steiner_connectivity(g, limit=limit) == 0
            assert flow.max_flow_call_count() - before == \
                len(g.terminals) - 1
        assert cli.main(["verify", "--tau", "0",
                         write(tmp_path, "g.txt", text), none]) == 0
        assert capsys.readouterr().out == "PASS\n"
    assert runs == []


def test_supreme_command(tmp_path, capsys):
    path = write(tmp_path, "g.txt", CYC4)
    assert cli.main(["supreme", path, "--format", "dot"]) == 0
    assert "digraph" in capsys.readouterr().out
    assert cli.main(["supreme", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 4 and all(nd["c"] == 2 for nd in data)


def test_oracle_command(tmp_path, capsys):
    path = write(tmp_path, "g.txt", CYC4)
    assert cli.main(["oracle", path, "--tau", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["optimal_external"] == 8
    assert data["optimal_augmentation"] == 4


def test_splitoff_command(tmp_path, capsys):
    path = write(tmp_path, "g.txt", SPLIT)
    assert cli.main(["splitoff", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["edges"] == [{"u": 1, "v": 3, "w": 1}]


def test_splitoff_infeasible_exit_code(tmp_path, capsys):
    odd = write(tmp_path, "g.txt",
                "5 5 4\n0 1 1\n1 2 1\n2 3 1\n3 0 1\n0 4 1\n0 1 2 3\n")
    assert cli.main(["splitoff", odd]) == 2


def test_splitoff_joins_four_terminal_components(tmp_path, capsys):
    """x (vertex 12) joined to 3c and 3c+1 of four unit paths of
    terminals: at tau = 1 the four split edges join the components."""
    paths = [f"{3 * c + i} {3 * c + i + 1} 1" for c in range(4) for i in (0, 1)]
    star = [f"{u} 12 1" for i in (0, 1) for u in range(i, 12, 3)]
    terminals = " ".join(map(str, range(12)))
    path = write(tmp_path, "g.txt", "\n".join(
        ["13 16 12", *paths, *star, terminals]) + "\n")
    assert cli.main(["splitoff", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["tau"] == 1 and out["report"]["total_weight"] == 4
    g = write(tmp_path, "g-x.txt",
              "\n".join(["12 8 12", *paths, terminals]) + "\n")
    edges = write(tmp_path, "edges.json", json.dumps(out["edges"]))
    assert cli.main(["verify", "--tau", "1", g, edges]) == 0
    assert capsys.readouterr().out == "PASS\n"


@pytest.mark.parametrize("command", ["augment", "supreme"])
def test_terminals_in_13_components_are_solved(tmp_path, capsys, command):
    """14 terminals, one edge: after the root's split a node has 13
    terminals in 13 components, and it splits on zero flow-tree edges
    like any other node."""
    terminals = " ".join(map(str, range(14)))
    path = write(tmp_path, "g.txt", f"14 1 14 2\n0 1 1\n{terminals}\n")
    if command == "supreme":
        assert cli.main(["supreme", path]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 15
        return
    assert cli.main(["augment", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert cli.main(["oracle", path, "--oracle-limit", "14"]) == 0
    best = json.loads(capsys.readouterr().out)["optimal_augmentation"]
    assert out["report"]["total_weight"] == best == 13
    edges = write(tmp_path, "edges.json", json.dumps(out["edges"]))
    assert cli.main(["verify", path, edges]) == 0
    assert capsys.readouterr().out == "PASS\n"


def test_closed_stdout_pipe_exits_1(tmp_path):
    """A reader that has gone gives exit 1 and no traceback."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for command, text in (("supreme", CYCLE8), ("augment", CYCLE8),
                          ("splitoff", SPLIT)):
        path = write(tmp_path, "g.txt", text)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "steineraug.cli", command, path],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1, (command, proc.stderr)
        assert proc.stderr == b"", (command, proc.stderr)


def test_io_error_exit_code(tmp_path, capsys):
    assert cli.main(["augment", str(tmp_path / "missing.txt"),
                     "--tau", "3"]) == 1
    bad = write(tmp_path, "bad.txt", "nonsense\n")
    assert cli.main(["augment", bad, "--tau", "3"]) == 1
    # A byte that is not UTF-8 at the end of the terminal line.
    raw = tmp_path / "raw.txt"
    raw.write_bytes(CYC4.encode().rstrip(b"\n") + b"\xff\n")
    capsys.readouterr()
    assert cli.main(["augment", str(raw)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read ")


def test_total_weight_above_bound_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "g.txt", f"3 2 2 3\n0 1 {2**40}\n1 2 1\n0 2\n")
    assert cli.main(["augment", path]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_missing_tau_is_input_error(tmp_path):
    path = write(tmp_path, "g.txt", "2 1 2\n0 1 5\n0 1\n")
    assert cli.main(["augment", path]) == 1


def test_env_seed(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "g.txt", CYC4)
    monkeypatch.setenv("STEINERAUG_SEED", "7")
    assert cli.main(["augment", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["seed"] == 7


def test_env_seed_not_an_integer_is_input_error(tmp_path, capsys,
                                                monkeypatch):
    path = write(tmp_path, "g.txt", CYC4)
    monkeypatch.setenv("STEINERAUG_SEED", "abc")
    assert cli.main(["augment", path]) == 1
    assert capsys.readouterr().err.startswith("error: STEINERAUG_SEED")
    # Only augment and splitoff read the seed.
    assert cli.main(["supreme", path]) == 0


@pytest.mark.parametrize("args", [
    ["augment", "{path}", "--bogus"],
    ["augment", "{path}", "--seed", "x"],
    ["supreme", "{path}", "--seed", "1"],   # the forest takes no seed
    ["frobnicate"],
    [],
], ids=["unknown-flag", "non-integer-seed", "supreme-seed", "unknown-command",
        "no-command"])
def test_usage_error_exits_1(tmp_path, capsys, args):
    path = write(tmp_path, "g.txt", CYC4)
    assert cli.main([a.format(path=path) for a in args]) == 1
    assert capsys.readouterr().err.startswith("error: ")


CYCLE14 = ("14 14 2 3\n"
           + "".join(f"{i} {(i + 1) % 14} 1\n" for i in range(14))
           + "0 7\n")


@pytest.mark.parametrize("text,args", [
    (CYC4, ["--oracle-limit", "-1"]),   # every graph exceeds a negative limit
    (CYCLE14, []),                      # 14 vertices, default limit 12
], ids=["negative-limit", "cycle14"])
def test_oracle_size_limit_is_input_error(tmp_path, capsys, text, args):
    path = write(tmp_path, "g.txt", text)
    assert cli.main(["oracle", path] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: oracle size limit exceeded")


@pytest.mark.parametrize("text", [
    "2 1 2\n0 1 x\n0 1\n",           # non-integer edge field
    "2 1 2\n0 1 1\n0 y\n",           # non-integer terminal
    "2 1 2\n0 1 1\n0 0\n",           # repeated terminal, one distinct
])
def test_malformed_fields_exit_with_error(tmp_path, capsys, text):
    with pytest.raises(cli.InputError):
        cli.parse_graph_text(text)
    path = write(tmp_path, "g.txt", text)
    assert cli.main(["augment", path, "--tau", "3"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


CYCLE8 = ("8 8 8 3\n"
          + "".join(f"{i} {(i + 1) % 8} 1\n" for i in range(8))
          + "0 1 2 3 4 5 6 7\n")


@pytest.mark.parametrize("command", ["augment", "splitoff", "supreme"])
@pytest.mark.parametrize("base_case", ["1", "13"])
def test_base_case_out_of_range_is_input_error(tmp_path, capsys, command,
                                               base_case):
    """The CLI has no --base-case flag: any value is an unknown option,
    reported as an input error (exit 1)."""
    path = write(tmp_path, "g.txt", CYCLE8)
    assert cli.main([command, path, "--base-case", base_case]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"unrecognized arguments: --base-case {base_case}" in err


def test_augment_cycle8_reaches_the_recursion(tmp_path, capsys):
    path = write(tmp_path, "g.txt", CYCLE8)
    assert cli.main(["augment", path]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["supreme"]["max_depth"] >= 1
    assert report["total_weight"] == 4


@pytest.mark.parametrize("entry", [
    {"u": 0, "v": 9, "w": 1},        # endpoint outside 0..n-1
    {"u": 0, "v": 1, "w": 0},        # non-positive weight
    {"u": 1, "v": 1, "w": 1},        # self-loop
    {"u": 0, "v": 2, "w": 2 * 10 ** 12},  # total weight over 2^40
    {"u": 0, "v": 2, "w": 1.5},      # not an integer
    {"u": True, "v": 2, "w": 1},     # a JSON boolean, not an integer
    {"u": 0, "v": 2, "w": "2"},      # a JSON string, not an integer
], ids=["out-of-range", "zero-weight", "self-loop", "over-bound",
        "float-weight", "bool-endpoint", "string-weight"])
def test_verify_bad_solution_entry_is_input_error(tmp_path, capsys, entry):
    gpath = write(tmp_path, "g.txt", CYC4)
    spath = write(tmp_path, "sol.json", json.dumps([entry]))
    assert cli.main(["verify", gpath, spath]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_undecodable_solution_is_input_error(tmp_path, capsys):
    gpath = write(tmp_path, "g.txt", CYC4)
    spath = tmp_path / "sol.json"
    spath.write_bytes(b"\xff[]")
    assert cli.main(["verify", gpath, str(spath)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read solution ")


def test_augment_over_the_weight_bound_is_input_error(tmp_path, capsys):
    # The graph is under 2^40, but the edges that reach tau are not.
    path = write(tmp_path, "g.txt", "2 1 2\n0 1 1099511627000\n0 1\n")
    assert cli.main(["augment", "--tau", "1099511627900", path]) == 1
    assert capsys.readouterr().err == \
        "error: total edge weight exceeds the perturbation-safe bound\n"


# Fuzzing: any text gets a clean answer.  Numbers stay small, so that a
# well-formed input is a small graph and every run stays cheap.
_TOKEN = st.one_of(st.integers(-2, 9).map(str),
                   st.sampled_from(["x", "1.5", "#", "0x1", "-", "1e3",
                                    "\u0663", "\t", "{}"]))
_LINE = st.lists(_TOKEN, max_size=5).map(" ".join)
_TEXT = st.lists(_LINE, max_size=9).map("\n".join)


@st.composite
def _graph_shaped_text(draw):
    """A valid small graph file, often with one token or line spoiled."""
    n = draw(st.integers(2, 6))
    lines = []
    for _ in range(draw(st.integers(0, 9))):
        u, d = draw(st.integers(0, n - 1)), draw(st.integers(1, n - 1))
        lines.append(f"{u} {(u + d) % n} {draw(st.integers(1, 3))}")
    terminals = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=5,
                              unique=True))
    tau = draw(st.sampled_from(["", " 0", " 1", " 2", " 3", " 4"]))
    lines = [f"{n} {len(lines)} {len(terminals)}{tau}", *lines,
             " ".join(map(str, terminals))]
    spoil = draw(st.integers(0, 2))
    if spoil == 1:                      # one token replaced
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        j = draw(st.integers(0, len(tokens) - 1))
        tokens[j] = draw(_TOKEN)
        lines[i] = " ".join(tokens)
    elif spoil == 2:                    # one line dropped or doubled
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [lines[i]] * draw(st.integers(0, 2))
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_TEXT, _graph_shaped_text()))
def test_parse_graph_text_answers_any_text(text):
    try:
        g, tau = cli.parse_graph_text(text)
    except cli.InputError:
        return
    assert g.n >= 1 and len(g.terminals) >= 2


@settings(max_examples=60, deadline=None)
@given(st.one_of(_TEXT, _graph_shaped_text()),
       st.sampled_from([["augment"], ["augment", "--tau", "3"],
                        ["splitoff"], ["supreme"], ["verify"],
                        ["oracle", "--tau", "3"]]))
def test_cli_answers_any_text_without_traceback(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "g.txt"
        graph.write_text(text)
        argv = [command[0], str(graph)]
        if command[0] == "verify":
            solution = Path(tmp) / "sol.json"
            solution.write_text("[]")
            argv.append(str(solution))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv + command[1:])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ")


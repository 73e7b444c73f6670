import json

import pytest

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


def test_io_error_exit_code(tmp_path, capsys):
    assert cli.main(["augment", str(tmp_path / "missing.txt"),
                     "--tau", "3"]) == 1
    bad = write(tmp_path, "bad.txt", "nonsense\n")
    assert cli.main(["augment", bad, "--tau", "3"]) == 1


def test_missing_tau_is_input_error(tmp_path):
    path = write(tmp_path, "g.txt", "2 1 2\n0 1 5\n0 1\n")
    assert cli.main(["augment", path]) == 1


def test_env_seed(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "g.txt", CYC4)
    monkeypatch.setenv("STEINERAUG_SEED", "7")
    assert cli.main(["augment", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["seed"] == 7


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

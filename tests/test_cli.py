import json

import pytest

import qblock.cli
from qblock.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_REFUSED,
    main,
)
from qblock.graph import render_graph
from qblock.qexpr import FreeWreath, SymQ, from_json

from helpers import C4, W5, complete_graph, path_graph


@pytest.fixture()
def c4_file(tmp_path):
    p = tmp_path / "c4.txt"
    p.write_text(render_graph(C4))
    return str(p)


@pytest.fixture()
def w5_file(tmp_path):
    p = tmp_path / "w5.txt"
    p.write_text(render_graph(W5))
    return str(p)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_qut_text_output(c4_file, capsys):
    assert main(["qut", c4_file]) == EXIT_OK
    out = capsys.readouterr()
    assert out.out.strip() == "S^+(2) wr* S^+(2)"
    assert "class: Outerplanar" in out.err


def test_qut_json_output(c4_file, capsys):
    assert main(["qut", c4_file, "--json"]) == EXIT_OK
    payload = capsys.readouterr().out.strip()
    obj = json.loads(payload)
    assert obj["t"] == "freewreath"
    assert from_json(payload) == FreeWreath(SymQ(2), SymQ(2))


def test_qut_latex_output(c4_file, capsys):
    assert main(["qut", c4_file, "--latex"]) == EXIT_OK
    assert "\\wr_\\ast" in capsys.readouterr().out


def test_qut_json_latex_mutually_exclusive(c4_file, capsys):
    with pytest.raises(SystemExit):
        main(["qut", c4_file, "--json", "--latex"])


def test_qut_check_aut(c4_file, capsys):
    assert main(["qut", c4_file, "--check-aut"]) == EXIT_OK
    assert "shadow check ok" in capsys.readouterr().err


def test_qut_check_aut_size_guard(tmp_path, capsys):
    big = _write(tmp_path, "p13.txt", render_graph(path_graph(13)))
    assert main(["qut", big, "--check-aut"]) == EXIT_INPUT
    assert "limited" in capsys.readouterr().err


def test_qut_output_is_deterministic(c4_file, capsys):
    main(["qut", c4_file])
    first = capsys.readouterr().out
    main(["qut", c4_file])
    assert capsys.readouterr().out == first


def test_qut_refuses_unsupported(w5_file, capsys):
    assert main(["qut", w5_file]) == EXIT_REFUSED
    assert "refused" in capsys.readouterr().err


def test_qut_force_on_wheel_still_refused(w5_file, capsys):
    # no atom exists for the wheel's block even under --force
    assert main(["qut", w5_file, "--force"]) == EXIT_REFUSED


def test_qut_force_mixed_classes(tmp_path, capsys):
    text = "7 10\n" + "\n".join(
        f"{u} {v}"
        for u, v in [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (3, 4), (4, 5), (5, 6), (6, 3),
        ]
    )
    path = _write(tmp_path, "k4c4.txt", text + "\n")
    assert main(["qut", path]) == EXIT_REFUSED
    capsys.readouterr()
    assert main(["qut", path, "--force"]) == EXIT_OK
    out = capsys.readouterr()
    assert "note:" in out.err
    assert out.out.strip() == "S^+(2) * S^+(3)"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = _write(tmp_path, "bad.txt", "2 1\n0 0\n")
    assert main(["qut", bad]) == EXIT_INPUT
    assert "parse error" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["qut", "/nonexistent/file.txt"]) == EXIT_INPUT


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(render_graph(C4)))
    assert main(["qut", "-"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "S^+(2) wr* S^+(2)"


def test_graph6_file(tmp_path, capsys):
    g6 = _write(tmp_path, "k4.g6", "C~\n")
    assert main(["qut", g6]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "S^+(4)"


def test_classify_command(c4_file, w5_file, capsys):
    assert main(["classify", c4_file]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "Outerplanar"
    assert main(["classify", w5_file]) == EXIT_REFUSED
    assert capsys.readouterr().out.strip() == "Unsupported"


def test_blocktree_command(tmp_path, capsys):
    p5 = _write(tmp_path, "p5.txt", render_graph(path_graph(5)))
    assert main(["blocktree", p5]) == EXIT_OK
    out = capsys.readouterr().out
    assert "blocks: 4  cuts: 3  center: c2" in out
    assert "c2 level=3 parent=-" in out


def test_blocktree_dot(tmp_path, capsys):
    p3 = _write(tmp_path, "p3.txt", render_graph(path_graph(3)))
    assert main(["blocktree", p3, "--dot"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("graph blocktree {")
    assert "b0 -- c1;" in out
    assert "peripheries=2" in out
    assert out.rstrip().endswith("}")


def test_wl_command(c4_file, capsys):
    assert main(["wl", c4_file]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "3"
    assert len(lines) == 1 + 4
    matrix = [[int(x) for x in row.split(",")] for row in lines[1:]]
    assert len({matrix[i][i] for i in range(4)}) == 1


def test_selftest_command(capsys):
    assert main(["selftest"]) == EXIT_OK
    assert "selftest ok (48 trees, n <= 8)" in capsys.readouterr().out


def test_complete_graph_roundtrip_through_cli_json(tmp_path, capsys):
    k3 = _write(tmp_path, "k3.txt", render_graph(complete_graph(3)))
    assert main(["qut", k3, "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"t": "symq", "n": 3}


def test_internal_error_is_one_line(c4_file, capsys, monkeypatch):
    def deep(g, force=False):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(qblock.cli, "qut", deep)
    assert main(["qut", c4_file]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"

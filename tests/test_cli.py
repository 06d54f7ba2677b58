import json

import pytest

from isk4color import cli, colorers
from isk4color.cli import cli_main
from isk4color.families import path_graph
from isk4color.formats import write_graph
from isk4color.graph import Coloring

from builders import complete_graph, complete_multipartite, cycle_graph, petersen


@pytest.fixture()
def files(tmp_path):
    out = {}
    for name, g, fmt in [
        ("c5.col", cycle_graph(5), "dimacs-col"),
        ("k33.col", complete_multipartite(3, 3), "dimacs-col"),
        ("k222.el", complete_multipartite(2, 2, 2), "edge-list"),
        ("petersen.g6", petersen(), "graph6"),
        ("k5.col", complete_graph(5), "dimacs-col"),
    ]:
        p = tmp_path / name
        p.write_text(write_graph(g, fmt))
        out[name] = str(p)
    return out


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_color_auto_json(files, capsys):
    code, out = run(capsys, "color", files["c5.col"], "--algorithm", "auto", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["algorithm"] == "triangle-free"
    assert payload["result"]["palette_size"] == 3
    assert payload["violations"] == []


def test_detect_pattern_exit_codes(files, capsys):
    code, out = run(capsys, "detect", "--pattern", "k33", files["k33.col"])
    assert code == 0 and "k33" in out
    code, _ = run(capsys, "detect", "--pattern", "triangle", files["c5.col"])
    assert code == 1
    code, _ = run(capsys, "detect", "--pattern", "c4", files["k33.col"])
    assert code == 0


def test_oracle_commands(files, capsys):
    code, out = run(capsys, "oracle", "isk4", files["petersen.g6"])
    assert code == 0 and out.startswith("isk4: vertices")
    code, out = run(capsys, "oracle", "isk4", files["c5.col"])
    assert code == 1
    code, out = run(capsys, "oracle", "chi", files["k222.el"])
    assert code == 0 and "chi=3" in out


def test_color_strict_violation_exit(files, capsys):
    code, out = run(capsys, "color", files["petersen.g6"], "--algorithm", "triangle-free", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["result"] is None
    assert payload["violations"][0]["kind"] == "cycle_in_layer"


def test_color_tolerant_completes(files, capsys):
    code, out = run(capsys, "color", files["k5.col"], "--algorithm", "general",
                    "--tolerant", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] and payload["result"]["palette_size"] == 5


def test_color_verify_input(files, capsys):
    code, out = run(capsys, "color", files["petersen.g6"], "--algorithm", "general",
                    "--verify-input", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["violations"][0]["kind"] == "isk4"


def test_usage_errors(files, capsys):
    assert cli_main(["nonsense"]) == 2
    capsys.readouterr()
    assert cli_main(["detect", "--pattern", "blorp", files["c5.col"]]) == 2
    capsys.readouterr()
    assert cli_main(["color", "/nonexistent/file.col"]) == 2
    capsys.readouterr()
    assert cli_main(["enumerate", "--n", "3", "--check", "bogus"]) == 2
    capsys.readouterr()


def test_unreadable_input_is_a_usage_error(tmp_path, capsys):
    # a file name too long to open raises an OSError that is neither
    # FileNotFoundError nor IsADirectoryError
    assert cli_main(["color", str(tmp_path / ("x" * 5000))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_internal_failure_exit(tmp_path, capsys, monkeypatch):
    # a failed certificate check is neither a usage error nor a class violation
    monkeypatch.setattr(colorers, "_GENERAL",
                        ((None, lambda g, ids, run, witness, rules: Coloring((0,) * g.n, 1)),))
    k2 = tmp_path / "k2.col"
    k2.write_text(write_graph(complete_graph(2), "dimacs-col"))
    assert cli_main(["color", "--algorithm", "general", str(k2)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal: ")
    assert "improper coloring" in captured.err


def test_greedy_improper_coloring_exits_internal(tmp_path, capsys, monkeypatch):
    # the greedy algorithm gets the same certificate check as the colorers
    monkeypatch.setattr(cli, "greedy_fallback", lambda g: Coloring((0,) * g.n, 1))
    p4 = tmp_path / "p4.col"
    p4.write_text(write_graph(path_graph(4), "dimacs-col"))
    assert cli_main(["color", "--algorithm", "greedy", "--json", str(p4)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal: ")


def test_internal_value_error_exits_internal(tmp_path, capsys, monkeypatch):
    # once the graph is parsed, a ValueError inside the colorer is not a usage error
    def broken_merge(*args):
        raise ValueError("merged coloring is not proper")

    monkeypatch.setattr(colorers, "_merge_blocks", broken_merge)
    p4 = tmp_path / "p4.col"
    p4.write_text(write_graph(path_graph(4), "dimacs-col"))
    assert cli_main(["color", "--algorithm", "general", str(p4)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: merged coloring is not proper\n"


def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 5\n")
    assert cli_main(["color", str(bad)]) == 2
    capsys.readouterr()


def test_enumerate_suite_json(capsys):
    code, out = run(capsys, "enumerate", "--n", "5", "--check", "layer-forests", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["suite"] == "layer-forests"
    assert payload["result"]["violations"] == []
    # the generator streams triangle-free graphs directly for this suite
    assert payload["result"]["counts"]["total"]["enumerated"] == 12
    assert "wall_time_s" not in payload["result"]


def test_enumerate_alias_and_filter(capsys):
    code, out = run(capsys, "enumerate", "--n", "4", "--check", "lemma8", "--json",
                    "--filter", "k222-free")
    assert code == 0
    assert json.loads(out)["result"]["suite"] == "layer-forests"


def test_cli_json_byte_determinism(files, capsys):
    outs = []
    for _ in range(2):
        code, out = run(capsys, "color", files["k222.el"], "--algorithm", "general",
                        "--json", "--seed", "7")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]

    outs = []
    for _ in range(2):
        code, out = run(capsys, "enumerate", "--n", "4", "--check", "max-chi-general",
                        "--json", "--seed", "3")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_version_flag(capsys):
    assert cli_main(["--version"]) == 0
    capsys.readouterr()

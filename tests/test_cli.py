import json
import pathlib
import subprocess
import sys

import pytest

from isk4color import cli, colorers, suites
from isk4color.cli import cli_main
from isk4color.colorers import ClassViolationError, Violation
from isk4color.families import path_graph
from isk4color.formats import parse_graph6_line, write_graph
from isk4color.graph import Coloring
from isk4color.oracle import ENUMERATION_CAP, contains_isk4, enumerate_graphs

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
    for seed in ("-1", str(2**64)):
        assert cli_main(["enumerate", "--n", "3", "--check", "general-bound", "--seed", seed]) == 2
        assert "unsigned 64-bit" in capsys.readouterr().err


def test_color_takes_no_seed(files, capsys):
    # the colorers draw no random numbers, so a seed would change nothing
    assert cli_main(["color", files["c5.col"], "--seed", "1"]) == 2
    capsys.readouterr()
    code, out = run(capsys, "color", files["c5.col"], "--json")
    assert code == 0 and "seed" not in json.loads(out)["result"]


def test_enumerate_order_out_of_range(capsys):
    # a suite needs an order in 1..ENUMERATION_CAP; the enumeration itself
    # still yields nothing for n = 0
    for n in ("0", "-3"):
        assert cli_main(["enumerate", "--n", n, "--check", "general-bound"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"1..{ENUMERATION_CAP}" in captured.err
    assert list(enumerate_graphs(0)) == []


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


@pytest.mark.parametrize("flags, enumerated, kept, connected", [
    ((), 31, 25, True),
    (("--all-graphs",), 52, 45, False),
])
def test_enumerate_all_graphs(capsys, flags, enumerated, kept, connected):
    code, out = run(capsys, "enumerate", "--n", "5", "--check", "general-bound", "--json", *flags)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["counts"]["total"]["enumerated"] == enumerated
    assert result["counts"]["total"]["passed_filters"] == kept
    assert result["parameters"]["connected"] is connected


@pytest.mark.parametrize("algorithm", cli._ALGORITHMS)
def test_color_empty_graph(tmp_path, capsys, algorithm):
    path = tmp_path / "empty.col"
    path.write_text("p edge 0 0\n")
    code, out = run(capsys, "color", str(path), "--algorithm", algorithm, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["palette_size"] == 0 and payload["result"]["assignment"] == []
    assert payload["violations"] == []
    # greedy records its one rule; the structural colorers have no block to trace
    assert payload["trace"] == ([{"rule": "greedy"}] if algorithm == "greedy" else [])


def test_oracle_chi_force_on_a_long_path(tmp_path, capsys):
    path = tmp_path / "p3000.col"
    path.write_text(write_graph(path_graph(3000), "dimacs-col"))
    code, out = run(capsys, "oracle", "chi", "--force", str(path))
    assert code == 0 and out == "chi=2\n"


def test_enumerate_alias_and_filter(capsys):
    code, out = run(capsys, "enumerate", "--n", "4", "--check", "lemma8", "--json",
                    "--filter", "k222-free")
    assert code == 0
    assert json.loads(out)["result"]["suite"] == "layer-forests"


def test_cli_json_byte_determinism(files, capsys):
    outs = []
    for _ in range(2):
        code, out = run(capsys, "color", files["k222.el"], "--algorithm", "general", "--json")
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


def test_startup_imports_no_pool_and_no_dataclasses():
    # every color call is a fresh process, so it pays for each module the
    # CLI imports; the process pool (enumerate --jobs k > 1 only) and the
    # dataclass machinery serve no call.  Modules that a bare interpreter
    # already holds, such as those a site .pth file loads, are not counted
    show = "import sys; print(' '.join(sorted(sys.modules)))"
    probe = ("import sys; sys.path.insert(0, sys.argv[1])\n"
             "from isk4color.cli import cli_main\n"
             "assert cli_main(['--version']) == 0\n" + show)
    src = str(pathlib.Path(cli.__file__).parents[1])

    def loaded(*argv):
        done = subprocess.run([sys.executable, "-I", *argv], capture_output=True, text=True, check=True)
        return set(done.stdout.splitlines()[-1].split())

    new = loaded("-c", probe, src) - loaded("-c", show)
    assert "isk4color.cli" in new
    assert new & {"concurrent.futures", "multiprocessing", "dataclasses", "inspect"} == set()


def test_parser_is_built_once_and_reused(files, capsys):
    # one process: a usage error, a normal run and --version share one parser
    assert cli_main(["color", files["c5.col"], "--algorithm", "bogus"]) == 2
    capsys.readouterr()
    code, out = run(capsys, "color", files["c5.col"], "--json")
    assert code == 0 and json.loads(out)["result"]["palette_size"] == 3
    assert cli_main(["--version"]) == 0
    capsys.readouterr()
    assert cli._build_parser() is cli._build_parser()


def test_negative_random_graphs_is_a_usage_error(capsys):
    assert cli_main(["enumerate", "--n", "3", "--check", "upstairs", "--random-graphs", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "random_graphs=-3" in captured.err


def test_suites_command_lists_every_suite(capsys):
    code, out = run(capsys, "suites")
    assert code == 0
    for name, spec in suites.SUITES.items():
        assert f"{name} (alias: {spec.alias})" in out
    assert "  filters: none" in out  # upstairs has no filter


def test_enumerate_text_output(capsys):
    code, out = run(capsys, "enumerate", "--n", "4", "--check", "max-chi-general")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite=max-chi-general graphs=9/10 checks=9 violations=0 max_chi=3"
    assert lines[1].startswith("  extremal: {") and '"chi": 3' in lines[1]


def test_suite_violations_are_reported(capsys, monkeypatch):
    # a colorer that aborts on every graph makes general-bound report one
    # violation per kept graph, each naming that graph in graph6
    def aborting(g, mode):
        raise ClassViolationError(Violation("k4", "stub abort"))

    monkeypatch.setattr(suites, "color_general", aborting)
    report = suites.run_suite("general-bound", 4)
    kept = [g for n in range(1, 5) for g in enumerate_graphs(n, connected=True)
            if contains_isk4(g) is None]
    assert len(report.violations) == report.counts["total"]["passed_filters"] == len(kept)
    for v, g in zip(report.violations, kept):
        assert parse_graph6_line(v["graph6"]) == g and v["n"] == g.n
        assert v["detail"] == "strict colorer aborted: k4: stub abort"
    code, out = run(capsys, "enumerate", "--n", "4", "--check", "general-bound")
    assert code == 1
    lines = out.splitlines()
    assert "violations=9" in lines[0]
    assert len(lines) == 10 and all(l.startswith("  violation: {") for l in lines[1:])


@pytest.mark.parametrize("algorithm, bound", [("c1", 6), ("c2", 12), ("c3", 24)])
def test_color_layered_algorithms(files, capsys, algorithm, bound):
    code, out = run(capsys, "color", files["c5.col"], "--algorithm", algorithm, "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["algorithm"] == algorithm and result["bound_claimed"] == bound
    assert result["palette_size"] == 3 and result["proper"]


def test_color_tolerant_verify_input_puts_the_input_violation_first(files, capsys):
    code, out = run(capsys, "color", files["k5.col"], "--algorithm", "general",
                    "--tolerant", "--verify-input", "--json")
    assert code == 0
    assert [v["kind"] for v in json.loads(out)["violations"]] == ["isk4", "k4"]


def test_violation_text_output(files, capsys):
    code, out = run(capsys, "color", files["petersen.g6"], "--algorithm", "general", "--verify-input")
    assert code == 1
    assert out.startswith("violation isk4: input contains an induced K4 subdivision (vertices [")


def test_oracle_isk4_json(files, capsys):
    code, out = run(capsys, "oracle", "isk4", files["petersen.g6"], "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result["branch"]) == 4 and len(result["paths"]) == 6
    assert set(result["branch"]) <= set(result["vertices"])
    code, out = run(capsys, "oracle", "isk4", files["c5.col"], "--json")
    assert code == 1 and json.loads(out)["result"] is None

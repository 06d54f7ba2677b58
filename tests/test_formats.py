import pytest

from isk4color.graph import Graph
from isk4color.formats import (
    FORMATS,
    GraphParseError,
    detect_format,
    parse_graph,
    parse_graph6_line,
    serialize_coloring,
    write_graph,
    write_graph6_line,
)
from isk4color.colorers import ColoringResult, Violation
from isk4color.graph import Coloring

from builders import complete_graph, cycle_graph, petersen


def test_parse_dimacs_triangle():
    g = parse_graph("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n", fmt="dimacs-col")
    assert g == complete_graph(3)


def test_parse_dimacs_with_comments():
    g = parse_graph("c a triangle\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g.m == 2


def test_parse_edge_list():
    g = parse_graph("2 0\n", fmt="edge-list")
    assert g.n == 2 and g.m == 0
    g = parse_graph("4 2\n0 1\n2 3\n# trailing comment\n")
    assert g.m == 2


def test_parse_errors_carry_line_numbers():
    cases = [
        ("p edge 3 1\ne 1 4\n", 2),        # vertex out of range
        ("p edge 3 1\ne 2 2\n", 2),        # loop
        ("p edge 3 2\ne 1 2\ne 2 1\n", 3), # duplicate edge
        ("p edgy 3 1\n", 1),               # malformed header
        ("e 1 2\n", 1),                    # edge before header
        ("p edge 2 2\ne 1 2\n", 1),        # count mismatch
    ]
    for text, line in cases:
        with pytest.raises(GraphParseError) as exc:
            parse_graph(text, fmt="dimacs-col")
        assert exc.value.line == line
    with pytest.raises(GraphParseError):
        parse_graph("3 1\n0 0\n", fmt="edge-list")
    with pytest.raises(GraphParseError):
        parse_graph("", fmt="edge-list")


def test_graph6_roundtrip_examples():
    c5 = cycle_graph(5)
    line = write_graph6_line(c5)
    assert parse_graph6_line(line) == c5
    assert parse_graph(">>graph6<<" + line + "\n", fmt="graph6") == c5
    with pytest.raises(GraphParseError):
        parse_graph(line + "\n" + line + "\n", fmt="graph6")
    with pytest.raises(GraphParseError):
        parse_graph6_line("C\x01")


def test_graph6_large_n_header():
    g = Graph(70, [(0, 69)])
    assert parse_graph6_line(write_graph6_line(g)) == g


def test_format_detection():
    assert detect_format("p edge 1 0\n") == "dimacs-col"
    assert detect_format("c hi\np edge 1 0\n") == "dimacs-col"
    assert detect_format("3 0\n") == "edge-list"
    assert detect_format(write_graph6_line(petersen())) == "graph6"
    assert detect_format("", "x.col") == "dimacs-col"
    assert detect_format("", "x.g6") == "graph6"
    assert detect_format("", "x.el") == "edge-list"


def test_roundtrip_all_formats_small_corpus(all_graphs_7):
    for n in range(1, 8):
        for g in all_graphs_7[n]:
            for fmt in FORMATS:
                assert parse_graph(write_graph(g, fmt), fmt=fmt) == g


def test_serialize_coloring_text():
    res = ColoringResult(Coloring((0, 1, 0, 1), 2), 4, [], [])
    text = serialize_coloring(res)
    lines = text.strip().splitlines()
    assert lines[:4] == ["v 0 0", "v 1 1", "v 2 0", "v 3 1"]
    assert lines[-1] == "colors=2"

    empty = ColoringResult(Coloring((), 0), 4, [], [])
    assert "colors=0" in serialize_coloring(empty)

    flagged = ColoringResult(Coloring((0,), 1), 4, [], [Violation("k4", "boom", (0,))])
    assert "violations=1" in serialize_coloring(flagged)


def test_serialize_coloring_json_deterministic():
    res = ColoringResult(Coloring((0, 1), 2), 4, [{"rule": "x"}], [])
    a = serialize_coloring(res, as_json=True, command=["color", "f"], input_sha256="00")
    res2 = ColoringResult(Coloring((0, 1), 2), 4, [{"rule": "x"}], [])
    b = serialize_coloring(res2, as_json=True, command=["color", "f"], input_sha256="00")
    assert a == b
    assert '"version"' in a and '"input_sha256"' in a

import math
import random

import pytest

from isk4color.cli import cli_main
from isk4color.graph import Graph
from isk4color.formats import (
    FORMATS,
    GraphParseError,
    detect_format,
    json_report,
    parse_graph,
    parse_graph6_line,
    serialize_coloring,
    write_graph,
    write_graph6_line,
)
from isk4color.colorers import ColoringResult, Violation
from isk4color.graph import Coloring
from isk4color.suites import SUITES, run_suite

from builders import complete_graph, cycle_graph, petersen, random_graph, random_recursive_tree
from reference import ref_json_report, ref_parse_graph6_line, ref_write_graph6_line


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


def test_graph6_roundtrip_every_order_to_70():
    # the payload fills its last character with 0 to 5 zero bits, by n
    rng = random.Random(6)
    for n in range(71):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        for g in (Graph(n, pairs), Graph(n, [p for p in pairs if rng.random() < 0.3])):
            assert parse_graph6_line(write_graph6_line(g)) == g
    assert parse_graph6_line("Bw") == complete_graph(3)


def _parsed_or_error(parse, line):
    try:
        return parse(line)
    except GraphParseError as exc:
        return str(exc)


def test_graph6_writer_agrees_with_reference():
    # the same line as one adjacency test per pair, around the '~' header
    rng = random.Random(9)
    graphs = [random_graph(rng, n, p) for n in (0, 1, 62, 63, 64, 300) for p in (0.0, 0.05, 0.5, 1.0)]
    graphs.append(random_recursive_tree(rng, 300))
    for g in graphs:
        line = write_graph6_line(g)
        assert line == ref_write_graph6_line(g), g
        assert parse_graph6_line(line) == g


def test_graph6_parser_agrees_with_reference():
    # the '~' size header starts at n = 63
    rng = random.Random(5)
    lines = []
    for n in (0, 1, 62, 63, 64, 300):
        for p in (0.0, 0.05, 0.5, 1.0):
            lines.append(write_graph6_line(random_graph(rng, n, p)))
    lines.append(write_graph6_line(random_recursive_tree(rng, 300)))
    for line in lines:
        g = parse_graph6_line(line)
        assert g == ref_parse_graph6_line(line)
        assert write_graph6_line(g) == line
    # seeded corruptions: the same error for the same input
    alphabet = "?@~_w\x01 >\u00e9\x7f"
    for _ in range(2000):
        line = list(rng.choice(lines[:12]))
        k = rng.randrange(len(line) + 1)
        op = rng.randrange(3)
        if op == 0 and k < len(line):
            line[k] = rng.choice(alphabet)
        elif op == 1:
            line.insert(k, rng.choice(alphabet))
        else:
            del line[k:k + rng.randint(1, 3)]
        line = "".join(line)
        assert _parsed_or_error(parse_graph6_line, line) == _parsed_or_error(ref_parse_graph6_line, line), line


@pytest.mark.parametrize("line, message", [
    ("Bg~~~", "graph6 payload has 4 characters; n=3 needs 1"),  # trailing characters
    ("B", "graph6 payload has 0 characters; n=3 needs 1"),
    ("Bx", "graph6 padding bits are not zero"),  # "Bw" with the last padding bit set
    ("~~?????????", "graph6 size header '~~' (n >= 258048) is not supported"),
    ("~??", "truncated graph6 size"),
])
def test_graph6_rejects_malformed_lines(tmp_path, capsys, line, message):
    with pytest.raises(GraphParseError) as exc:
        parse_graph("\n" + line + "\n", fmt="graph6")
    assert str(exc.value) == f"line 2: {message}" and exc.value.line == 2
    bad = tmp_path / "bad.g6"
    bad.write_text(line + "\n")
    assert cli_main(["color", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: line 1: {message}\n"


# every GraphParseError of the DIMACS and edge-list parsers: (format, text,
# line, message)
PARSE_ERRORS = [
    ("dimacs-col", "p edge 3 0\np edge 3 0\n", 2, "duplicate problem line"),
    ("dimacs-col", "p edgy 3 1\n", 1, "malformed problem line (want 'p edge <n> <m>')"),
    ("dimacs-col", "p edge x 1\n", 1, "non-integer counts in problem line"),
    ("dimacs-col", "p edge 3 -1\n", 1, "negative counts in problem line"),
    ("dimacs-col", "e 1 2\n", 1, "edge before problem line"),
    ("dimacs-col", "p edge 3 1\ne 1 2 3\n", 2, "malformed edge line (want 'e <u> <v>')"),
    ("dimacs-col", "p edge 3 1\ne 1 b\n", 2, "non-integer vertex id"),
    ("dimacs-col", "p edge 3 1\ne 1 4\n", 2, "vertex out of range 1..3"),
    ("dimacs-col", "p edge 3 1\ne 2 2\n", 2, "self-loop"),
    ("dimacs-col", "p edge 3 2\ne 1 2\ne 2 1\n", 3, "duplicate edge 2 1"),
    ("dimacs-col", "p edge 3 0\nx 1 2\n", 2, "unknown line type 'x'"),
    ("dimacs-col", "c only a comment\n", 1, "missing problem line"),
    ("dimacs-col", "p edge 2 2\ne 1 2\n", 1, "header declares 2 edges, found 1"),
    ("edge-list", "3 1\n0 1 2\n", 2, "expected two integers per line"),
    ("edge-list", "3 1\n0 z\n", 2, "non-integer token"),
    ("edge-list", "-3 1\n", 1, "negative counts in header"),
    ("edge-list", "3 1\n# comment\n0 3\n", 3, "vertex out of range 0..2"),
    ("edge-list", "3 1\n0 0\n", 2, "self-loop"),
    ("edge-list", "3 2\n0 1\n1 0\n", 3, "duplicate edge 1 0"),
    ("edge-list", "# nothing\n", 1, "empty input"),
    ("edge-list", "", 1, "empty input"),
    ("edge-list", "3 2\n0 1\n", 1, "header declares 2 edges, found 1"),
]


def test_parse_errors_carry_line_numbers():
    for fmt, text, line, message in PARSE_ERRORS:
        with pytest.raises(GraphParseError) as exc:
            parse_graph(text, fmt=fmt)
        assert str(exc.value) == f"line {line}: {message}" and exc.value.line == line, text


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


class _Int(int):
    pass


class _Str(str):
    pass


class _Float(float):
    pass


# characters json escapes or writes as \u escapes: quotes, backslashes,
# control characters, non-ASCII, astral (a surrogate pair) and a lone surrogate
_CHARS = 'ab {}[],:"\\/\n\t\x00\x1f\x7f\xe9\u2028\U0001f600\ud800'
_FLOATS = (0.5, -0.0, 0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324, 0.1 + 0.2)


def _random_text(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(5)))


def _random_int(rng):
    return rng.choice((0, 1, -1, 7, -300, 2**63, -(2**64) - 1, 10**40, rng.randint(-(10**6), 10**6)))


def _random_scalar(rng):
    return rng.choice((
        _random_int(rng), _random_text(rng), rng.choice(_FLOATS), rng.random(), True, False, None,
        _Int(rng.randrange(-5, 5)), _Str(_random_text(rng)), _Float(rng.random()),
    ))


def _random_key(rng, kind):
    if kind == "str":
        return _random_text(rng)
    return rng.choice((_random_int(rng), rng.choice(_FLOATS), True, False))


def _random_json(rng, depth):
    """A random JSON value, nested up to ``depth`` containers deep: big and
    negative ints, floats with -0.0, nan and infinities, awkward strings,
    subclasses of int, str and float, empty and int-only lists and tuples
    (sometimes with a bool among the ints), and dicts with str, number, bool
    or None keys."""
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return _random_scalar(rng)
    if roll < 0.6:
        items = [_random_int(rng) for _ in range(rng.randrange(6))]
        if items and rng.random() < 0.3:
            items[rng.randrange(len(items))] = rng.choice((True, False, 2.0, None, _Int(1)))
    else:
        items = [_random_json(rng, depth - 1) for _ in range(rng.randrange(5))]
    if roll < 0.8:
        return items if rng.random() < 0.8 else tuple(items)
    if rng.random() < 0.1:
        return {None: items}
    kind = "str" if rng.random() < 0.7 else "number"
    return {_random_key(rng, kind): value for value in items}


def test_json_report_agrees_with_the_standard_library():
    rng = random.Random(5)
    for _ in range(3000):
        fields = {"result": _random_json(rng, 4)}
        if rng.random() < 0.3:
            fields["trace"] = [_random_json(rng, 2) for _ in range(rng.randrange(3))]
        if rng.random() < 0.3:
            fields["command"] = [_random_text(rng) for _ in range(rng.randrange(1, 4))]
        assert json_report(**fields) == ref_json_report(**fields)


def test_json_report_agrees_on_every_suite_report():
    for name in sorted(SUITES):
        fields = {
            "command": ["enumerate", "--n", "6", "--check", name, "--json"],
            "input_sha256": "0" * 64,
            "result": run_suite(name, 6).to_dict(),
        }
        assert json_report(**fields) == ref_json_report(**fields)


def _inside_itself():
    loop = [1, "a"]
    loop.append({"loop": loop})
    return loop


@pytest.mark.parametrize("value, error", [
    (object(), TypeError),
    ([1, {2, 3}], TypeError),
    ({"bytes": b"x"}, TypeError),
    ({(0, 1): 2}, TypeError),
    ({1: "int", "a": "str"}, TypeError),
    (_inside_itself(), ValueError),
])
def test_json_report_rejects_what_json_rejects(value, error):
    with pytest.raises(error) as expected:
        ref_json_report(result=value)
    with pytest.raises(error) as raised:
        json_report(result=value)
    assert str(raised.value) == str(expected.value)

"""Graph file formats (DIMACS .col, plain edge lists, graph6) and the
machine-readable report serialization.

All parsers normalize vertex ids to 0..n-1 and reject loops and duplicate
edges with a line number.  A JSON report is the text of
``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline, written
by ``_json_text`` instead of json's pure-Python indenting encoder; it has no
volatile fields, so identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _quote

from .graph import Graph, bits

FORMATS = ("dimacs-col", "edge-list", "graph6")


class GraphParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# graph6

# a graph6 character is 63 plus six payload bits, written high bit first
_NOT_GRAPH6 = re.compile(r"[^?-~]")
_SIX_BITS = {63 + v: format(v, "06b") for v in range(64)}
_CHAR_OF_SIX_BITS = {six: chr(c) for c, six in _SIX_BITS.items()}


def write_graph6_line(g: Graph) -> str:
    n = g.n
    if n > 258047:
        raise ValueError("graph too large for this graph6 writer")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    # column j is j's neighbours below j, lowest first: the parser's reading
    stream = "".join(format(g.mask(j) & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    stream += "0" * (-len(stream) % 6)
    return head + "".join(_CHAR_OF_SIX_BITS[stream[k : k + 6]] for k in range(0, len(stream), 6))


def parse_graph6_line(line: str, lineno: int = 1) -> Graph:
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise GraphParseError("empty graph6 line", lineno)
    bad = _NOT_GRAPH6.search(s)
    if bad:
        raise GraphParseError(f"invalid graph6 character {bad.group()!r}", lineno)
    if s[0] == "~":
        if s[1:2] == "~":
            raise GraphParseError("graph6 size header '~~' (n >= 258048) is not supported", lineno)
        if len(s) < 4:
            raise GraphParseError("truncated graph6 size", lineno)
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | ord(s[3]) - 63
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    need = n * (n - 1) // 2
    pad = -need % 6  # the zero bits that fill the last character
    chars = (need + pad) // 6
    if len(body) != chars:
        raise GraphParseError(f"graph6 payload has {len(body)} characters; n={n} needs {chars}", lineno)
    if body and (ord(body[-1]) - 63) & ((1 << pad) - 1):
        raise GraphParseError("graph6 padding bits are not zero", lineno)
    # column j of the upper triangle is the j bits from j(j - 1)/2, one per
    # i < j; reversed, they read as j's neighbours below j
    stream = body.translate(_SIX_BITS)
    adj = [0] * n
    for j in range(1, n):
        start = j * (j - 1) // 2
        column = stream[start : start + j]
        if "1" in column:
            adj[j] = below = int(column[::-1], 2)
            for i in bits(below):
                adj[i] |= 1 << j
    return Graph.from_masks(adj)


# ---------------------------------------------------------------------------
# DIMACS and edge lists


def _checked_edge(u: int, v: int, n: int, base: int, seen: set, lineno: int) -> tuple[int, int]:
    """Check the edge uv of a file whose ids start at ``base`` (1 or 0): in
    range, no loop, not already in ``seen``.  Add it to ``seen`` and return
    it with 0-based ids."""
    if not (base <= u < n + base and base <= v < n + base):
        raise GraphParseError(f"vertex out of range {base}..{n + base - 1}", lineno)
    if u == v:
        raise GraphParseError("self-loop", lineno)
    key = (min(u, v), max(u, v))
    if key in seen:
        raise GraphParseError(f"duplicate edge {u} {v}", lineno)
    seen.add(key)
    return u - base, v - base


def _parse_dimacs(text: str) -> Graph:
    n = m = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphParseError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphParseError("malformed problem line (want 'p edge <n> <m>')", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphParseError("non-integer counts in problem line", lineno)
            if n < 0 or m < 0:
                raise GraphParseError("negative counts in problem line", lineno)
        elif parts[0] == "e":
            if n is None:
                raise GraphParseError("edge before problem line", lineno)
            if len(parts) != 3:
                raise GraphParseError("malformed edge line (want 'e <u> <v>')", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError("non-integer vertex id", lineno)
            edges.append(_checked_edge(u, v, n, 1, seen, lineno))
        else:
            raise GraphParseError(f"unknown line type {parts[0]!r}", lineno)
    if n is None:
        raise GraphParseError("missing problem line", 1)
    if m is not None and len(edges) != m:
        raise GraphParseError(f"header declares {m} edges, found {len(edges)}", 1)
    return Graph(n, edges)


def _parse_edge_list(text: str) -> Graph:
    n = m = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError("expected two integers per line", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("non-integer token", lineno)
        if n is None:
            n, m = a, b
            if n < 0 or m < 0:
                raise GraphParseError("negative counts in header", lineno)
            continue
        edges.append(_checked_edge(a, b, n, 0, seen, lineno))
    if n is None:
        raise GraphParseError("empty input", 1)
    if m is not None and len(edges) != m:
        raise GraphParseError(f"header declares {m} edges, found {len(edges)}", 1)
    return Graph(n, edges)


def _parse_graph6_text(text: str) -> Graph:
    lines = [(i, l) for i, l in enumerate(text.splitlines(), start=1) if l.strip()]
    if not lines:
        raise GraphParseError("empty input", 1)
    if len(lines) > 1:
        raise GraphParseError("multiple graph6 lines; this tool works on a single graph", lines[1][0])
    lineno, line = lines[0]
    return parse_graph6_line(line, lineno)


def detect_format(text: str, filename: str | None = None) -> str:
    if filename:
        low = filename.lower()
        if low.endswith(".col"):
            return "dimacs-col"
        if low.endswith(".g6"):
            return "graph6"
        if low.endswith((".el", ".edges", ".txt")):
            return "edge-list"
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line[0] in "cp" and (len(line) == 1 or line[1] in " \t"):
            return "dimacs-col"
        head = line.split()[0]
        if head.lstrip("-").isdigit():
            return "edge-list"
        return "graph6"
    raise GraphParseError("empty input", 1)


def parse_graph(text: str, fmt: str | None = None, filename: str | None = None) -> Graph:
    """Parse one graph; the format is detected from the filename/content when
    not given explicitly."""
    if fmt is None:
        fmt = detect_format(text, filename)
    if fmt == "dimacs-col":
        return _parse_dimacs(text)
    if fmt == "edge-list":
        return _parse_edge_list(text)
    if fmt == "graph6":
        return _parse_graph6_text(text)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def write_graph(g: Graph, fmt: str) -> str:
    if fmt == "dimacs-col":
        lines = [f"p edge {g.n} {g.m}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
        return "\n".join(lines) + "\n"
    if fmt == "edge-list":
        lines = [f"{g.n} {g.m}"]
        lines += [f"{u} {v}" for u, v in g.edges()]
        return "\n".join(lines) + "\n"
    if fmt == "graph6":
        return write_graph6_line(g) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


# ---------------------------------------------------------------------------
# reports


def serialize_coloring(result, as_json: bool = False, *, command=None, input_sha256=None, extra=None) -> str:
    """Render a ColoringResult as `v <vertex> <color>` lines plus a summary,
    or as a deterministic JSON report."""
    if as_json:
        body = result.to_dict()
        trace = body.pop("trace")
        violations = body.pop("violations")
        if extra:
            body.update(extra)
        return json_report(
            command=command, input_sha256=input_sha256, result=body,
            trace=trace, violations=violations,
        )
    lines = [f"v {v} {c}" for v, c in enumerate(result.coloring.assignment)]
    lines.append(f"colors={result.coloring.palette_size}")
    if result.violations:
        lines.append(f"violations={len(result.violations)}")
    return "\n".join(lines) + "\n"


def json_report(*, command=None, input_sha256=None, result=None, trace=None, violations=None) -> str:
    """The JSON report of a command: its arguments, the input's SHA-256,
    the result, the decomposition trace, the violations and the package
    version, as ``json.dumps(payload, sort_keys=True, indent=2)`` writes them,
    plus a newline."""
    from . import __version__

    payload = {
        "command": list(command) if command else [],
        "input_sha256": input_sha256,
        "result": result,
        "trace": trace if trace is not None else [],
        "violations": violations if violations is not None else [],
        "version": __version__,
    }
    return _json_text(payload) + "\n"


_ONLY_INT = frozenset((int,))


def _key_text(key) -> str:
    """A dict key as json writes it: a string, or the quoted JSON text of a
    number, bool or None."""
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return _quote(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    json writes indented text with its pure-Python encoder, a generator per
    container and a chunk per item.  This writes exact strs, ints, None and
    bools itself, a list or tuple of exact ints (never bools) with one
    ``join``, and hands every other scalar (floats, subclasses, objects json
    rejects) to ``json.dumps``, whose text for a scalar does not depend on
    the indent.  It walks containers with a stack instead of recursion, and
    raises ValueError on a container inside itself, as json does.
    """
    chunks = []
    emit = chunks.append
    # per depth d: the line break and indent of d, the same after a comma,
    # and the opening, separator and closing text of an int list at d
    depths = []
    stack = []  # the enclosing containers, innermost last
    open_ids = set()
    # the container being written: its items left, whether they are (key,
    # value) pairs, its items' depth, and the text before its next item.
    # The outermost one holds ``value`` alone.
    items, pairs, depth, sep = iter((value,)), False, 0, ""
    while True:
        if depth == len(depths):
            indent = "\n" + "  " * depth
            depths.append((indent, "," + indent, "[" + indent + "  ", "," + indent + "  ", indent + "]"))
        indent, comma, int_open, int_sep, int_close = depths[depth]
        for item in items:
            if pairs:
                key, value = item
                head = sep + (_quote(key) if type(key) is str else _key_text(key)) + ": "
            else:
                value, head = item, sep
            sep = comma
            kind = type(value)
            if kind is int:
                emit(head + repr(value))
            elif kind is str:
                emit(head + _quote(value))
            elif (kind is list or kind is tuple) and value and _ONLY_INT.issuperset(map(type, value)):
                emit(head + int_open + int_sep.join(map(repr, value)) + int_close)
            elif value is None:
                emit(head + "null")
            elif value is True:
                emit(head + "true")
            elif value is False:
                emit(head + "false")
            elif not isinstance(value, (list, tuple, dict)):
                emit(head + json.dumps(value))
            elif not value:
                emit(head + ("{}" if isinstance(value, dict) else "[]"))
            else:
                mark = id(value)
                if mark in open_ids:
                    raise ValueError("Circular reference detected")
                open_ids.add(mark)
                stack.append((items, pairs, mark))
                pairs = isinstance(value, dict)
                emit(head + ("{" if pairs else "["))
                items = iter(sorted(value.items()) if pairs else value)
                depth += 1
                sep = indent + "  "
                break
        else:
            if not stack:
                return "".join(chunks)
            depth -= 1
            emit(depths[depth][0] + ("}" if pairs else "]"))
            items, pairs, mark = stack.pop()
            open_ids.remove(mark)
            sep = depths[depth][1]

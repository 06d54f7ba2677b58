"""Command-line surface.

Subcommands: ``detect`` (pattern witnesses), ``color`` (bounded colorers),
``oracle`` (exact chromatic number / induced-K4-subdivision search), and
``enumerate`` (verification suites over exhaustively enumerated graphs).

Exit codes: 0 success; 1 pattern not found or class violation in strict mode;
2 usage, unreadable input or parse errors; 3 internal invariant failure, such as a failed
certificate check or a ``ValueError`` raised inside a colorer (stderr reads
``error: internal: ...``).  JSON output is
byte-identical for identical inputs and seeds; wall-clock timings go to
stderr only.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

from . import __version__
from .colorers import (
    ClassViolationError,
    color_auto,
    color_c1,
    color_c2,
    color_c3,
    color_general,
    color_triangle_free,
    greedy_fallback,
    ColoringResult,
    Violation,
)
from .formats import FORMATS, json_report, parse_graph, serialize_coloring
from .graph import Graph, is_proper_coloring
from .oracle import SUBSET_SWEEP_CAP, chromatic_number_exact, contains_isk4
from .patterns import (
    find_boat,
    find_four_wheel,
    find_hole,
    find_k222,
    find_k33,
    find_prism,
    find_rich_square,
    find_triangle,
    find_wheel,
)
from .suites import FILTERS, SUITES, run_suite

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_DETECTORS = {
    "triangle": find_triangle,
    "c4": lambda g: find_hole(g, 4, 4),
    "hole": find_hole,
    "k33": find_k33,
    "k222": find_k222,
    "prism": find_prism,
    "boat": find_boat,
    "four_wheel": find_four_wheel,
    "wheel": find_wheel,
    "rich_square": find_rich_square,
}

_ALGORITHMS = ("auto", "triangle-free", "general", "c1", "c2", "c3", "greedy")


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isk4color",
        description="Bounded coloring and structure detection for graphs free "
        "of induced K4 subdivisions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="find an induced pattern and print its witness")
    p_detect.add_argument("--pattern", required=True, choices=sorted(_DETECTORS))
    p_detect.add_argument("file")
    p_detect.add_argument("--format", choices=FORMATS)
    p_detect.add_argument("--json", action="store_true")

    p_color = sub.add_parser("color", help="color a graph with a claimed palette bound")
    p_color.add_argument("file")
    p_color.add_argument("--algorithm", default="auto", choices=_ALGORITHMS)
    mode = p_color.add_mutually_exclusive_group()
    mode.add_argument("--strict", dest="mode", action="store_const", const="strict")
    mode.add_argument("--tolerant", dest="mode", action="store_const", const="tolerant")
    p_color.set_defaults(mode="strict")
    p_color.add_argument("--verify-input", action="store_true",
                         help="run the induced-K4-subdivision oracle on the input first")
    p_color.add_argument("--json", action="store_true")
    p_color.add_argument("--format", choices=FORMATS)

    p_oracle = sub.add_parser("oracle", help="exact brute-force checks")
    p_oracle.add_argument("question", choices=("chi", "isk4"))
    p_oracle.add_argument("file")
    p_oracle.add_argument("--format", choices=FORMATS)
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.add_argument("--force", action="store_true",
                          help="lift the size cap on the exact searches")

    p_enum = sub.add_parser(
        "enumerate",
        help="run a verification suite over all graphs with up to N vertices",
    )
    p_enum.add_argument("--n", type=int, required=True, metavar="N")
    p_enum.add_argument("--all-graphs", dest="connected", action="store_false",
                        help="include disconnected graphs (default: connected graphs only)")
    p_enum.add_argument("--filter", default="",
                        help=f"comma-separated extra filters: {', '.join(FILTERS)}")
    p_enum.add_argument("--check", required=True,
                        help="suite name (canonical or short alias); see --list-suites")
    p_enum.add_argument("--jobs", type=int, default=1)
    p_enum.add_argument("--json", action="store_true")
    p_enum.add_argument("--seed", type=_seed_type, default=0)
    p_enum.add_argument("--random-graphs", type=int, default=1000,
                        help="sample count for the randomized part of 'upstairs'")

    sub.add_parser("suites", help="list the known verification suites")
    return parser


def _load_graph(path: str, fmt: str | None) -> tuple[Graph, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    graph = parse_graph(data.decode("utf-8"), fmt=fmt, filename=path)
    return graph, digest


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _cmd_detect(args, argv) -> int:
    g, digest = _load_graph(args.file, args.format)
    witness = _DETECTORS[args.pattern](g)
    if args.json:
        result = witness.to_dict() if witness is not None else None
        _emit(json_report(command=argv, input_sha256=digest, result=result))
    elif witness is None:
        _emit(f"{args.pattern}: not found")
    else:
        _emit(f"{args.pattern}: vertices {sorted(witness.vertices)}")
        for key, value in sorted(witness.extra.items()):
            _emit(f"  {key}: {value}")
    return EXIT_OK if witness is not None else EXIT_NOT_FOUND


def _cmd_color(args, argv) -> int:
    g, digest = _load_graph(args.file, args.format)
    pre_violations: list[Violation] = []
    if args.verify_input:
        w = contains_isk4(g)  # SizeLimitError propagates to exit 2
        if w is not None:
            violation = Violation(
                "isk4",
                "input contains an induced K4 subdivision",
                tuple(sorted(w.vertices)),
            )
            if args.mode == "strict":
                return _emit_violation(args, argv, digest, violation)
            pre_violations.append(violation)

    algorithm = args.algorithm
    try:
        if algorithm == "auto":
            algorithm, result = color_auto(g, args.mode)
        elif algorithm == "triangle-free":
            result = color_triangle_free(g, args.mode)
        elif algorithm == "general":
            result = color_general(g, args.mode)
        elif algorithm == "c1":
            result = color_c1(g, args.mode)
        elif algorithm == "c2":
            result = color_c2(g, args.mode)
        elif algorithm == "c3":
            result = color_c3(g, args.mode)
        else:
            coloring = greedy_fallback(g)
            result = ColoringResult(coloring, coloring.palette_size, [{"rule": "greedy"}], [])
        proper = is_proper_coloring(g, result.coloring)
    except ClassViolationError as exc:
        return _emit_violation(args, argv, digest, exc.violation)
    except ValueError as exc:
        # the graph is parsed, so this is a broken internal invariant
        raise AssertionError(str(exc)) from exc
    if not proper:
        raise AssertionError(f"algorithm {algorithm} produced an improper coloring")
    result.violations = pre_violations + result.violations
    extra = {"algorithm": algorithm, "mode": args.mode, "proper": proper}
    text = serialize_coloring(result, as_json=args.json, command=argv,
                              input_sha256=digest, extra=extra)
    _emit(text)
    return EXIT_OK


def _emit_violation(args, argv, digest, violation) -> int:
    if args.json:
        _emit(json_report(
            command=argv, input_sha256=digest, result=None,
            violations=[violation.to_dict()],
        ))
    else:
        _emit(f"violation {violation.kind}: {violation.message} "
              f"(vertices {list(violation.vertices)})")
    return EXIT_NOT_FOUND


def _cmd_oracle(args, argv) -> int:
    g, digest = _load_graph(args.file, args.format)
    limit = None if args.force else SUBSET_SWEEP_CAP
    if args.question == "chi":
        chi = chromatic_number_exact(g, limit=limit)
        if args.json:
            _emit(json_report(command=argv, input_sha256=digest,
                              result={"chromatic_number": chi}))
        else:
            _emit(f"chi={chi}")
        return EXIT_OK
    witness = contains_isk4(g, limit=limit)
    if args.json:
        result = witness.to_dict() if witness is not None else None
        _emit(json_report(command=argv, input_sha256=digest, result=result))
    elif witness is None:
        _emit("isk4: not found")
    else:
        _emit(f"isk4: vertices {sorted(witness.vertices)} branch {list(witness.branch)}")
    return EXIT_OK if witness is not None else EXIT_NOT_FOUND


def _cmd_enumerate(args, argv) -> int:
    extra = tuple(f for f in args.filter.split(",") if f)
    report = run_suite(
        args.check,
        args.n,
        connected=args.connected,
        extra_filters=extra,
        jobs=max(1, args.jobs),
        seed=args.seed,
        random_graphs=args.random_graphs,
    )
    sys.stderr.write(f"wall time: {report.wall_time_s:.2f}s\n")
    if args.json:
        _emit(json_report(
            command=argv,
            input_sha256=hashlib.sha256(" ".join(argv).encode()).hexdigest(),
            result=report.to_dict(),
        ))
    else:
        _emit(_color_text(report.summary(), ok=not report.violations))
        for v in report.violations[:20]:
            _emit(f"  violation: {json.dumps(v, sort_keys=True)}")
        for e in report.extremal[:10]:
            _emit(f"  extremal: {json.dumps(e, sort_keys=True)}")
    return EXIT_OK if not report.violations else EXIT_NOT_FOUND


def _color_text(text: str, ok: bool) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    code = "32" if ok else "31"
    return f"\x1b[{code}m{text}\x1b[0m"


def _cmd_suites() -> int:
    for name, spec in sorted(SUITES.items()):
        _emit(f"{name} (alias: {spec.alias})")
        _emit(f"  filters: {', '.join(spec.filters) or 'none'}")
        _emit(f"  {spec.description}")
    return EXIT_OK


def cli_main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        if args.command == "detect":
            return _cmd_detect(args, argv)
        if args.command == "color":
            return _cmd_color(args, argv)
        if args.command == "oracle":
            return _cmd_oracle(args, argv)
        if args.command == "enumerate":
            return _cmd_enumerate(args, argv)
        return _cmd_suites()
    except (OSError, ValueError) as exc:  # unreadable input, parse error, size cap
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except AssertionError as exc:
        sys.stderr.write(f"error: internal: {exc}\n")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

"""Independent checks of the CLI's outputs.

Nothing here imports the package: a coloring is re-checked edge by edge
from the emitted JSON, because the CLI writes ``"proper": true`` as a
literal and the program's own claim is not evidence.
"""

from __future__ import annotations

import json

BOUNDS = {"triangle-free": 4, "general": 24}


def check_coloring(graph, algorithm, expected_algorithm, exit_code, stdout):
    """Return ``(palette, None)`` for a correct ``color --json`` output, or
    ``(None, reason)`` when the output is wrong."""
    if exit_code != 0:
        return None, f"exit code {exit_code}"
    try:
        payload = json.loads(stdout)
        result = payload["result"]
        assignment = result["assignment"]
        palette = result["palette_size"]
        used = result["algorithm"]
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"unreadable report: {exc!r}"
    if payload.get("violations"):
        return None, f"violations reported: {payload['violations']}"
    if used != expected_algorithm:
        return None, f"algorithm {used!r} ran, expected {expected_algorithm!r} for --algorithm {algorithm}"
    n, edges = graph
    if len(assignment) != n or not all(type(c) is int for c in assignment):
        return None, "assignment does not give one integer color per vertex"
    if not all(0 <= c < palette for c in assignment) or (n and palette < 1):
        return None, f"a color lies outside the reported palette of {palette}"
    if palette > BOUNDS[used]:
        return None, f"palette {palette} exceeds the {used} bound {BOUNDS[used]}"
    for u, v in edges:
        if assignment[u] == assignment[v]:
            return None, f"edge ({u}, {v}) has both ends colored {assignment[u]}"
    return palette, None


def check_suite(exit_code, stdout, expected_counts):
    """Return ``(max_palette, None)`` for a correct ``enumerate --json``
    report with the known totals, or ``(None, reason)``."""
    if exit_code != 0:
        return None, f"exit code {exit_code}"
    try:
        result = json.loads(stdout)["result"]
        total = result["counts"]["total"]
        violations = result["violations"]
        palette = result["max_observed"]["palette"]
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"unreadable report: {exc!r}"
    if violations:
        return None, f"{len(violations)} violations reported"
    for key, want in expected_counts.items():
        if total.get(key) != want:
            return None, f"counts.total.{key} is {total.get(key)}, expected {want}"
    return palette, None

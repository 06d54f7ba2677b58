"""Shared validators used by layering and acceptance tests; written directly
against the contracts rather than reusing the library's own validator."""

from isk4color.graph import bits


def validate_upstairs(g, layers, i, x, y, path):
    """None when the path satisfies every upstairs-path requirement, else a
    short description of the first failure."""
    if not path or path[0] != x or path[-1] != y:
        return "wrong endpoints"
    if len(set(path)) != len(path):
        return "vertex repeated"
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            return f"missing edge {a}-{b}"
    for k in range(len(path)):
        for j in range(k + 2, len(path)):
            if g.has_edge(path[k], path[j]):
                return f"chord {path[k]}-{path[j]}"
    index = {v: k for k, layer in enumerate(layers) for v in bits(layer)}
    counts = {}
    for v in path:
        lv = index[v]
        if lv > i:
            return f"vertex {v} in layer {lv} > {i}"
        counts[lv] = counts.get(lv, 0) + 1
    for lv, c in counts.items():
        if lv >= 1 and c > 2:
            return f"{c} vertices in layer {lv}"
    return None

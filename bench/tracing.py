"""Per-layer spans recorded from outside the package.

``Tracer.install`` rebinds each traced public function, in every package
module that holds a reference to it, to a wrapper that records a span: its
qualified name, start, end and the span open when it started.  A layer's
self time is its duration minus the time covered by its child spans.  The
package itself is not modified; ``Tracer.uninstall`` restores every binding.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns

# (module, function, may return None).  For a function that may return None,
# ``hit_ratio`` is the share of calls that returned something; for
# ``contains_isk4`` a hit is a rejected graph.
TRACED = (
    ("oracle", "enumerate_graphs", False),
    ("oracle", "contains_isk4", True),
    ("decompose", "find_clique_cutset", True),
    ("decompose", "find_proper_2cutset", True),
    ("decompose", "build_2cutset_blocks", False),
    ("decompose", "merge_colorings", False),
    ("patterns", "find_k4", True),
    ("patterns", "find_triangle", True),
    ("patterns", "find_k33", True),
    ("patterns", "find_k222", True),
    ("patterns", "find_prism", True),
    ("patterns", "recognize_thick_multipartite", True),
    ("patterns", "recognize_line_graph_subcubic", True),
    ("patterns", "find_rich_square", True),
    ("layering", "combine_layer_colorings", False),
    ("graph", "induced_subgraph", False),
    ("graph", "connected_components", False),
    ("graph", "bfs_layering", False),
    ("graph", "is_proper_coloring", False),
    ("colorers", "color_auto", False),
    ("colorers", "color_general", False),
    ("colorers", "color_triangle_free", False),
    ("colorers", "color_forest", False),
    ("colorers", "color_girth5", False),
    ("colorers", "color_thick_multipartite", False),
    ("colorers", "color_line_graph", False),
    ("colorers", "color_rich_square", False),
    ("colorers", "greedy_fallback", False),
    ("formats", "parse_graph", False),
    ("formats", "serialize_coloring", False),
    ("formats", "json_report", False),
    ("cli", "cli_main", False),
    ("suites", "run_suite", False),
)

MODULES = ("graph", "patterns", "decompose", "layering", "colorers", "oracle",
           "families", "formats", "suites", "cli")

# The colorers recurse through this private helper once per clique cutset;
# counting its frames gives the nesting depth of the clique-cutset
# decomposition without wrapping (and deepening) the recursion itself.
_CUT_FRAME = "_recurse_clique_cutset"


class Stat:
    __slots__ = ("calls", "self_ns", "hits", "yielded", "out_bytes")

    def __init__(self):
        self.calls = self.self_ns = self.hits = self.yielded = self.out_bytes = 0


class Tracer:
    def __init__(self):
        self.stats = {f"{m}.{f}": Stat() for m, f, _ in TRACED}
        self.stack: list[list] = []  # open spans: [name, start_ns, child_ns]
        self.slice = ""  # label the harness sets per input (family, suite)
        self.slices: dict[str, dict[str, int]] = {}
        self.failed_in: str | None = None  # innermost span an exception left
        self.max_cut_depth = 0
        self.call_s = 0.0  # wall time of the traced CLI calls, kept by the harness
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        rec = [name, 0, 0]
        self.stack.append(rec)
        rec[1] = perf_counter_ns()
        return rec

    def _close(self, rec):
        end = perf_counter_ns()
        if self.stack and self.stack[-1] is rec:
            self.stack.pop()
        duration = end - rec[1]
        if self.stack:
            self.stack[-1][2] += duration
        own = duration - rec[2]
        self.stats[rec[0]].self_ns += own
        per_slice = self.slices.setdefault(self.slice, {})
        per_slice[rec[0]] = per_slice.get(rec[0], 0) + own

    def _fail(self, name):
        if self.failed_in is None:
            self.failed_in = name

    def reset_call(self):
        """Forget spans a timeout or crash left open, before the next call."""
        self.stack.clear()
        self.failed_in = None

    def _wrap(self, name, fn, nullable):
        stat = self.stats[name]

        def traced(*args, **kwargs):
            stat.calls += 1
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._fail(name)
                raise
            finally:
                self._close(rec)
            if nullable and out is not None:
                stat.hits += 1
            if isinstance(out, str):
                stat.out_bytes += len(out)
            return out

        if name == "decompose.find_clique_cutset":
            def traced_cut(*args, **kwargs):
                depth = 0
                frame = sys._getframe(1)
                while frame is not None:
                    depth += frame.f_code.co_name == _CUT_FRAME
                    frame = frame.f_back
                self.max_cut_depth = max(self.max_cut_depth, depth)
                return traced(*args, **kwargs)
            return traced_cut
        return traced

    def _wrap_generator(self, name, fn):
        """Time each step of the iteration, not the consumer's work between."""
        stat = self.stats[name]

        def traced(*args, **kwargs):
            stat.calls += 1
            it = fn(*args, **kwargs)
            while True:
                rec = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                except BaseException:
                    self._fail(name)
                    raise
                finally:
                    self._close(rec)
                stat.yielded += 1
                yield item

        return traced

    # -- rebinding -----------------------------------------------------------

    def install(self):
        mods = [importlib.import_module(f"isk4color.{m}") for m in MODULES]
        mods.append(importlib.import_module("isk4color"))
        for mod_name, fn_name, nullable in TRACED:
            name = f"{mod_name}.{fn_name}"
            original = getattr(importlib.import_module(f"isk4color.{mod_name}"), fn_name)
            if name == "oracle.enumerate_graphs":
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap(name, original, nullable)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def metrics(self):
        out = {}
        for mod_name, fn_name, nullable in TRACED:
            name = f"{mod_name}.{fn_name}"
            st = self.stats[name]
            out[f"{name}.calls"] = (st.calls, "count")
            out[f"{name}.self_s"] = (st.self_ns / 1e9, "s")
            if nullable:
                out[f"{name}.hit_ratio"] = (st.hits / st.calls if st.calls else 0.0, "ratio")
        enum = self.stats["oracle.enumerate_graphs"]
        out["oracle.enumerate_graphs.yielded"] = (enum.yielded, "count")
        rep = self.stats["formats.json_report"]
        out["formats.json_report.kb_mean"] = (rep.out_bytes / 1024 / rep.calls if rep.calls else 0.0, "KB")
        out["decompose.clique_cutset.max_depth"] = (self.max_cut_depth, "count")
        return out

    def total_self_ns(self):
        return sum(st.self_ns for st in self.stats.values())

    def top(self, k, label=None):
        """The ``k`` largest self times, overall or within one slice."""
        if label is None:
            table = {n: st.self_ns for n, st in self.stats.items()}
        else:
            table = self.slices.get(label, {})
        return sorted(((ns, n) for n, ns in table.items() if ns), reverse=True)[:k]

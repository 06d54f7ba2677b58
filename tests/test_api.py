"""The public names of the package and of the modules whose API shrinks, pinned
so that every addition or removal shows up as a diff here."""

import types

import isk4color
from isk4color import decompose, families


def _public(module, own_only):
    """Names without a leading underscore, modules left out; with
    ``own_only``, only the functions and classes the module defines."""
    return sorted(
        name for name, value in vars(module).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
        and (not own_only or getattr(value, "__module__", None) == module.__name__)
    )


def test_package_public_names():
    assert _public(isk4color, own_only=False) == [
        "ClassViolationError", "CliqueCutset", "Coloring", "ColoringResult", "Confluence",
        "EdgeColoring", "Graph", "HoleAttachmentClassification", "INFINITE_GIRTH",
        "Isk4Witness", "KrauszPartition", "Layering", "MultipartiteShape",
        "NotAForestError", "PatternWitness", "Proper2Cutset", "SuiteReport", "Violation",
        "are_isomorphic", "bfs_layering", "build_2cutset_blocks", "canonical_form",
        "chromatic_number_exact", "classify_confluence", "classify_hole_attachment",
        "color_auto", "color_c1", "color_c2", "color_c3", "color_forest", "color_general",
        "color_girth5", "color_line_graph", "color_rich_square", "color_thick_multipartite",
        "color_triangle_free", "combine_layer_colorings", "connected_components",
        "contains_isk4", "degeneracy_order", "edge_color_subcubic", "enumerate_graphs",
        "enumerate_holes", "find_boat", "find_clique_cutset", "find_confluence",
        "find_four_wheel", "find_hole", "find_k222", "find_k33", "find_prism",
        "find_proper_2cutset", "find_rich_square", "find_triangle", "find_wheel", "girth",
        "greedy_coloring", "greedy_fallback", "induced_subgraph", "is_proper_coloring",
        "merge_colorings", "parse_graph", "recognize_line_graph_subcubic",
        "recognize_thick_multipartite", "run_suite", "serialize_coloring", "upstairs_path",
        "verify_layer_forests", "verify_witness", "write_graph",
    ]


def test_decompose_public_names():
    assert _public(decompose, own_only=True) == [
        "CliqueCutset", "Proper2Cutset", "build_2cutset_blocks", "find_clique_cutset",
        "find_proper_2cutset", "merge_colorings",
    ]


def test_families_public_names():
    assert _public(families, own_only=True) == ["path_graph"]

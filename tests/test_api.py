"""The public names of the package and of the modules whose API shrinks, pinned
so that every addition or removal shows up as a diff here."""

import ast
import pathlib
import types

import pytest

import isk4color
from isk4color import decompose, families, graph, oracle
from isk4color.colorers import Violation, color_general
from isk4color.families import path_graph
from isk4color.patterns import find_triangle

from builders import complete_graph


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
        "Isk4Witness", "KrauszPartition", "MultipartiteShape",
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


def test_graph_public_names():
    assert _public(graph, own_only=True) == [
        "Coloring", "Graph", "bfs_layering", "bfs_path", "bits", "chordless_order",
        "component_masks", "connected_components", "degeneracy_order", "find_cycle",
        "girth", "greedy_coloring", "grow_induced_paths", "induced_plus_edge", "induced_subgraph",
        "is_connected", "is_proper_coloring", "k_core", "mask_of", "shortest_cycle",
        "suppress_chains", "triangles",
    ]


def test_families_public_names():
    assert _public(families, own_only=True) == ["path_graph"]


def test_oracle_public_names():
    assert _public(oracle, own_only=True) == [
        "HoleAttachmentClassification", "Isk4Witness", "LayerCycleWitness", "SizeLimitError",
        "are_isomorphic", "canonical_form", "chromatic_number_exact", "classify_hole_attachment",
        "contains_isk4", "enumerate_graphs", "verify_layer_forests",
    ]


def test_no_module_imports_a_name_it_never_reads():
    # a deletion must not leave its imports behind.  A name is read where it
    # appears as a name or as a string constant: the rule tables of the
    # colorers name their detectors, which are looked up at call time.  The
    # package's __init__.py imports only to re-export, and is exempt.
    unread = []
    for path in sorted(pathlib.Path(isk4color.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        imported, read = {}, set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
        unread += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert unread == []


def test_no_function_calls_itself_by_name():
    # the package keeps its own stacks, so no input reaches the recursion
    # limit: a function, nested ones included, never calls its own name
    recursive = []
    for path in sorted(pathlib.Path(isk4color.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                recursive += [
                    f"{path.name}:{call.lineno} {node.name}" for call in ast.walk(node)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == node.name
                ]
    assert recursive == []


def test_records_are_immutable_tuples():
    # a record is changed through _replace; to_dict reads as before
    result = color_general(path_graph(3))
    violation = Violation("k33", "stub", (0, 1))
    for record, name in ((result, "violations"), (violation, "kind"), (result.coloring, "palette_size")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    assert result.to_dict() == {
        "palette_size": 2, "assignment": [1, 0, 1], "bound_claimed": 24,
        "trace": [
            {"rule": "cut_vertices", "cuts": [1], "blocks": 2, "size": 3, "parent": None},
            {"rule": "layering_4wheel_free", "root": 0, "layer_sizes": [1, 1], "size": 2,
             "parent": 0, "layer_palettes": [1, 1], "palette": 2},
            {"rule": "layering_4wheel_free", "root": 1, "layer_sizes": [1, 1], "size": 2,
             "parent": 0, "layer_palettes": [1, 1], "palette": 2},
        ],
        "violations": [],
    }
    assert violation.to_dict() == {"kind": "k33", "message": "stub", "vertices": [0, 1]}
    with pytest.raises(ValueError):
        result.coloring._replace(palette_size=1)
    assert result._replace(violations=[violation]).to_dict()["violations"] == [violation.to_dict()]
    triangle = find_triangle(complete_graph(3))
    assert triangle.extra == {} and triangle.to_dict() == {"kind": "triangle", "vertices": [0, 1, 2]}
    with pytest.raises(TypeError):
        triangle.extra["order"] = (0, 1, 2)


def test_no_module_dumps_indented_json():
    # json's indenting encoder is pure Python; reports go through the
    # package's own writer, formats._json_text, which writes the same bytes
    indented = []
    for path in sorted(pathlib.Path(isk4color.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                    and node.func.attr in ("dump", "dumps")
                    and any(k.arg in ("indent", None) for k in node.keywords)):
                indented.append(f"{path.name}:{node.lineno}")
    assert indented == []

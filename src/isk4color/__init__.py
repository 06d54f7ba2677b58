"""Constructive bounded coloring of graphs with no induced subdivision of K4,
plus the structure detectors, decompositions, and brute-force verification
suites behind the bounds (4 colors triangle-free, 24 in general)."""

__version__ = "0.1.0"

from .graph import (
    Graph,
    Coloring,
    bfs_layering,
    connected_components,
    degeneracy_order,
    girth,
    greedy_coloring,
    induced_subgraph,
    is_proper_coloring,
    INFINITE_GIRTH,
)
from .patterns import (
    KrauszPartition,
    MultipartiteShape,
    PatternWitness,
    enumerate_holes,
    find_boat,
    find_four_wheel,
    find_hole,
    find_k33,
    find_k222,
    find_prism,
    find_rich_square,
    find_triangle,
    find_wheel,
    recognize_line_graph_subcubic,
    recognize_thick_multipartite,
    verify_witness,
)
from .decompose import (
    CliqueCutset,
    Proper2Cutset,
    build_2cutset_blocks,
    find_clique_cutset,
    find_proper_2cutset,
    merge_colorings,
)
from .layering import (
    Confluence,
    classify_confluence,
    combine_layer_colorings,
    find_confluence,
    upstairs_path,
)
from .colorers import (
    ClassViolationError,
    ColoringResult,
    EdgeColoring,
    NotAForestError,
    Violation,
    color_auto,
    color_c1,
    color_c2,
    color_c3,
    color_forest,
    color_general,
    color_girth5,
    color_line_graph,
    color_rich_square,
    color_thick_multipartite,
    color_triangle_free,
    edge_color_subcubic,
    greedy_fallback,
)
from .oracle import (
    Isk4Witness,
    HoleAttachmentClassification,
    are_isomorphic,
    canonical_form,
    chromatic_number_exact,
    classify_hole_attachment,
    contains_isk4,
    enumerate_graphs,
    verify_layer_forests,
)
from .suites import SuiteReport, run_suite
from .formats import parse_graph, serialize_coloring, write_graph

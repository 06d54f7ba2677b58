import pytest

from isk4color.oracle import _levels, contains_isk4, enumerate_graphs
from isk4color.patterns import find_k33, find_triangle


@pytest.fixture(scope="session")
def all_levels_7():
    """Every graph up to isomorphism with 1..7 vertices (connected or not),
    each paired with the ISK4 verdict the enumeration inherits."""
    return {n: list(pairs) for n, pairs in enumerate(_levels(7, isk4=True), 1)}


@pytest.fixture(scope="session")
def all_graphs_7(all_levels_7):
    """Every graph up to isomorphism with 1..7 vertices (connected or not)."""
    return {n: [g for g, _ in pairs] for n, pairs in all_levels_7.items()}


@pytest.fixture(scope="session")
def isk4_free_7(all_graphs_7):
    """The graphs of ``all_graphs_7`` that the ISK4 search finds ISK4-free."""
    return {
        n: [g for g in graphs if contains_isk4(g) is None]
        for n, graphs in all_graphs_7.items()
    }


@pytest.fixture(scope="session")
def all_graphs_of_order_8():
    """Every graph up to isomorphism with exactly 8 vertices (connected or not)."""
    return list(enumerate_graphs(8))


@pytest.fixture(scope="session")
def connected_levels_8():
    """Every connected graph up to isomorphism with 1..8 vertices, from one
    pass of the enumeration, each paired with its inherited ISK4 verdict."""
    levels = _levels(8, connected=True, isk4=True)
    return {n: list(pairs) for n, pairs in enumerate(levels, 1)}


@pytest.fixture(scope="session")
def connected_corpus_8(connected_levels_8):
    """Every connected graph up to isomorphism with 1..8 vertices."""
    return {n: [g for g, _ in pairs] for n, pairs in connected_levels_8.items()}


@pytest.fixture(scope="session")
def isk4_free_connected_8(connected_corpus_8):
    return {
        n: [g for g in graphs if contains_isk4(g) is None]
        for n, graphs in connected_corpus_8.items()
    }


@pytest.fixture(scope="session")
def tf_isk4_free_connected_8(isk4_free_connected_8):
    return {
        n: [g for g in graphs if find_triangle(g) is None]
        for n, graphs in isk4_free_connected_8.items()
    }


@pytest.fixture(scope="session")
def lemma_class_connected_8(tf_isk4_free_connected_8):
    """{K4-subdivision, triangle, K33}-free connected graphs up to n=8."""
    return {
        n: [g for g in graphs if find_k33(g) is None]
        for n, graphs in tf_isk4_free_connected_8.items()
    }

"""The path builder.

The other named graphs and generators live with the tests
(``tests/builders.py``), and the random connected graphs of the ``upstairs``
suite in ``suites.py``.  This module stays until a change to the benchmark:
``bench/test_bench.py`` imports ``path_graph``, and ``bench/tracing.py``
imports the module.
"""

from __future__ import annotations

from .graph import Graph


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])

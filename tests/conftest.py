from __future__ import annotations

import pytest

from helpers import graphs_with_at_most_edges


@pytest.fixture(scope="session")
def edge_corpus():
    """All isomorphism classes with at most 7 edges and no isolated
    vertices, keyed by edge count."""
    return graphs_with_at_most_edges(7)

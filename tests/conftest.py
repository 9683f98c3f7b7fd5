from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dieout.graphs import (EpidemicModel, LocalityGraph, load_edge_list_file,
                           normalize_mean_column_weight,
                           top_nodes_by_total_weight)
from dieout.rates import Constant

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def complete_graph(n: int) -> LocalityGraph:
    w = np.ones((n, n)) - np.eye(n)
    return LocalityGraph(tuple(f"n{i}" for i in range(n)), w)


def star_graph(leaves: int) -> LocalityGraph:
    n = leaves + 1
    w = np.zeros((n, n))
    w[0, 1:] = 1.0
    w[1:, 0] = 1.0
    return LocalityGraph(("hub", *(f"leaf{i}" for i in range(leaves))), w)


def const_model(beta, beta_int, delta, modulation=None) -> EpidemicModel:
    """Model with constant profiles at exactly the given (float) rates."""
    return EpidemicModel(Constant(Fraction(beta)), Constant(Fraction(beta_int)),
                         delta, modulation)


def random_strong_digraph(seed: int, n: int = 10,
                          symmetric: bool = False) -> LocalityGraph:
    """Random weighted digraph made strongly connected by a two-way ring."""
    rng = np.random.default_rng(seed)
    w = np.where(rng.random((n, n)) < 0.3, rng.lognormal(0.0, 0.7, (n, n)), 0.0)
    for i in range(n):
        w[i, (i + 1) % n] = max(w[i, (i + 1) % n], 0.5)
        w[(i + 1) % n, i] = max(w[(i + 1) % n, i], 0.5)
    np.fill_diagonal(w, 0.0)
    if symmetric:
        w = (w + w.T) / 2
    return LocalityGraph(tuple(f"n{i:02d}" for i in range(n)), w)


@pytest.fixture(scope="session")
def k3() -> LocalityGraph:
    return complete_graph(3)


@pytest.fixture(scope="session")
def star4() -> LocalityGraph:
    return star_graph(4)


@pytest.fixture(scope="session")
def fixture20() -> LocalityGraph:
    """Seeded 20-node strongly connected symmetric graph, normalized."""
    return normalize_mean_column_weight(
        random_strong_digraph(2026, n=20, symmetric=True))


@pytest.fixture(scope="session")
def airports() -> LocalityGraph:
    """Shipped synthetic air-traffic fixture: top 100 nodes, normalized."""
    g = load_edge_list_file(DATA_DIR / "synthetic_airports.edges")
    return normalize_mean_column_weight(
        g.subgraph(top_nodes_by_total_weight(g, 100)))

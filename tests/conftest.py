from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dieout.graphs import (DiagonalModulation, EpidemicModel, LocalityGraph,
                           load_edge_list_file, normalize_mean_column_weight,
                           top_nodes_by_total_weight)
from dieout.rates import Constant
from dieout.regime import classify_decoupled

from oracles import geometric_lower, symmetrized_upper

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


def random_strong_digraph(seed: int, n: int = 10, symmetric: bool = False,
                          ring: bool = True) -> LocalityGraph:
    """Random weighted digraph made strongly connected by a two-way ring;
    with ``ring=False`` the ring is dropped and the graph is mostly
    reducible."""
    rng = np.random.default_rng(seed)
    w = np.where(rng.random((n, n)) < 0.3, rng.lognormal(0.0, 0.7, (n, n)), 0.0)
    for i in range(n if ring else 0):
        w[i, (i + 1) % n] = max(w[i, (i + 1) % n], 0.5)
        w[(i + 1) % n, i] = max(w[(i + 1) % n, i], 0.5)
    np.fill_diagonal(w, 0.0)
    if symmetric:
        w = (w + w.T) / 2
    return LocalityGraph(tuple(f"n{i:02d}" for i in range(n)), w)


def check_decoupled_bracket(g: LocalityGraph, d: DiagonalModulation,
                            beta_inf: float, betaint_inf: float,
                            eta: float) -> float:
    """The decoupled bracket on ``g`` with modulation ``d`` holds rho(A)
    from ``np.linalg.eigvals`` and lies inside the former Weyl bracket
    built from the symmetrizations, each within 1e-9 relative; with
    D = eta*I it is one point, beta_inf*rho(W) + betaint_inf*eta from
    ``np.linalg.eigvals``, within 1e-9 relative.  Returns that rho(A)."""
    dec = classify_decoupled(g, const_model(beta_inf, betaint_inf, 1.0, d))
    lo, hi = dec.lower_threshold, dec.upper_threshold
    a = beta_inf * g.weights.toarray() + betaint_inf * np.diag(d.values)
    rho_a = float(np.abs(np.linalg.eigvals(a)).max())
    weyl = [beta_inf * float(np.linalg.eigvalsh(sym(g).toarray()).max())
            + betaint_inf * end
            for sym, end in ((geometric_lower, d.values.min()),
                             (symmetrized_upper, d.values.max()))]
    slack = 1e-9 * max(1.0, weyl[1])
    assert lo - slack <= rho_a <= hi + slack
    assert weyl[0] - slack <= lo <= hi <= weyl[1] + slack

    uniform = DiagonalModulation.uniform(g.node_count, eta)
    dec = classify_decoupled(g, const_model(beta_inf, betaint_inf, 1.0,
                                            uniform))
    rho_w = float(np.abs(np.linalg.eigvals(g.weights.toarray())).max())
    point = beta_inf * rho_w + betaint_inf * eta
    assert dec.lower_threshold == dec.upper_threshold
    assert dec.upper_threshold == pytest.approx(point, rel=1e-9, abs=1e-12)
    return rho_a


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

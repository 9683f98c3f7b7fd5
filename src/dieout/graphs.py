"""Locality networks: ingestion, normalization, the epidemic model on
them, and Perron-Frobenius spectral computations.

A locality graph is a weighted directed network over population centers.
Row u of the weight matrix lists the infection pressure *received* by u:
entry (u, v) multiplies the contribution of active cases at v to the
growth rate at u.  The diagonal is identically zero; within-locality
growth is carried by a separate per-node modulation vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .rates import RateProfile, coerce_coefficient


class EdgeListError(ValueError):
    """Malformed or invalid edge-list input."""


class SpectralError(RuntimeError):
    """Power iteration failed to reach the requested residual.

    Attributes:
        residual: infinity-norm residual at the final iterate.
        iterations: number of iterations performed.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class LocalityGraph:
    """Immutable weighted directed graph over localities.

    Attributes:
        labels: node identifiers in first-appearance order.
        weights: W, always in canonical CSR: float data, sorted indices,
            no duplicates and no stored zeros, with its arrays
            write-protected.  The constructor accepts a dense array or
            any sparse matrix and stores a copy, so the caller's matrix
            is never changed.
    """

    labels: tuple[str, ...]
    weights: sp.csr_matrix

    def __post_init__(self):
        n = len(self.labels)
        if n < 1:
            raise ValueError("graph needs at least one node")
        if len(set(self.labels)) != n:
            raise ValueError("node labels must be unique")
        if self.weights.shape != (n, n):
            raise ValueError(
                f"weight matrix shape {self.weights.shape} != ({n}, {n})")
        w = sp.csr_matrix(self.weights, dtype=float, copy=True)
        w.sum_duplicates()
        w.eliminate_zeros()
        if not np.isfinite(w.data).all():
            raise ValueError("edge weights must be finite")
        if (w.data < 0).any():
            raise ValueError("negative edge weight")
        if w.diagonal().any():
            raise ValueError("diagonal weights must be zero")
        for arr in (w.data, w.indices, w.indptr):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise KeyError(f"unknown node label {label!r}") from None

    def dense_weights(self) -> np.ndarray:
        """W as a new dense ndarray, O(N^2) memory."""
        return self.weights.toarray()

    def with_weights(self, weights) -> "LocalityGraph":
        return LocalityGraph(self.labels, weights)

    def subgraph(self, labels: Sequence[str]) -> "LocalityGraph":
        """Induced subgraph on the given labels, preserving their order."""
        idx = [self.index(lab) for lab in labels]
        return LocalityGraph(tuple(labels), self.weights[idx, :][:, idx])


@dataclass(frozen=True)
class DiagonalModulation:
    """Strictly positive per-node multipliers for within-locality growth."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("modulation must be a nonempty vector")
        if not (np.isfinite(v) & (v > 0)).all():
            raise ValueError("modulation entries must be finite and positive")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def uniform(cls, node_count: int, eta: float = 1.0) -> "DiagonalModulation":
        return cls(np.full(node_count, float(eta)))

    @property
    def is_scalar(self) -> bool:
        return bool(np.all(self.values == self.values[0]))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class EpidemicModel:
    """The epidemic's rates, stated once for every engine.

    Node u gains a case at rate ``[(beta(n) W + beta_int(n) D) X]_u``
    and loses one at rate ``delta * X_u``, n being the total.  W is the
    locality graph, passed alongside; D is ``modulation`` (the identity
    when None).  ``delta`` is stored exactly, as a Fraction.
    """

    beta: RateProfile
    beta_int: RateProfile
    delta: Fraction
    modulation: DiagonalModulation | None = None

    def __post_init__(self):
        delta = coerce_coefficient(self.delta)
        if delta <= 0:
            raise ValueError("curing rate delta must be positive")
        object.__setattr__(self, "delta", delta)

    def d(self, node_count: int) -> np.ndarray:
        """D's diagonal on a graph of ``node_count`` nodes."""
        if self.modulation is None:
            return np.ones(node_count)
        if len(self.modulation) != node_count:
            raise ValueError(f"modulation length {len(self.modulation)} "
                             f"!= {node_count} nodes")
        return self.modulation.values

    def growth_matrix(self, g: LocalityGraph, b: float, bi: float):
        """Birth-rate matrix ``b * W + bi * diag(D)`` at profile values
        b = beta(n), bi = beta_int(n), in CSR."""
        d = self.d(g.node_count)
        return (b * g.weights + sp.diags(bi * d)).tocsr()

    def asymptotic_matrix(self, g: LocalityGraph):
        """The growth matrix at the profiles' limits.  Its Perron root is
        the sharp curing-rate threshold for the weighted directed model."""
        return self.growth_matrix(g, self.beta.limit, self.beta_int.limit)


@dataclass(frozen=True)
class SpectralInfo:
    """Perron root estimate with its positive eigenvector.

    eigvec is normalized to unit sum; residual is the infinity norm of
    M @ eigvec - radius * eigvec at the final iterate.
    """

    radius: float
    eigvec: np.ndarray
    residual: float
    iterations: int


def load_edge_list(source: str | Iterable[str]) -> LocalityGraph:
    """Parse a whitespace-separated edge list into a locality graph.

    Each nonempty line is ``src dst weight``; ``#`` starts a comment.
    The weight on line ``src dst w`` is the pressure received by ``src``
    from ``dst``.  Labels are collected in first-appearance order and
    absent pairs default to weight zero.

    Args:
        source: text content (a string with newlines) or an iterable of
            lines, e.g. an open text file.

    Raises:
        EdgeListError: malformed line, negative weight, nonzero
            self-loop, or duplicate (src, dst) pair; messages carry the
            one-based line number.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    order: dict[str, int] = {}
    edges: dict[tuple[str, str], float] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise EdgeListError(
                f"line {lineno}: expected 'src dst weight', got {raw!r}")
        src, dst, wtext = fields
        try:
            weight = float(wtext)
        except ValueError:
            raise EdgeListError(
                f"line {lineno}: weight {wtext!r} is not a number") from None
        if not np.isfinite(weight):
            raise EdgeListError(f"line {lineno}: weight must be finite")
        if weight < 0:
            raise EdgeListError(f"line {lineno}: negative weight {weight}")
        if src == dst and weight != 0:
            raise EdgeListError(
                f"line {lineno}: self-loop {src!r} must have weight 0")
        if (src, dst) in edges:
            raise EdgeListError(f"line {lineno}: duplicate edge {src}->{dst}")
        for lab in (src, dst):
            order.setdefault(lab, len(order))
        edges[(src, dst)] = weight

    if not order:
        raise EdgeListError("edge list is empty")
    n = len(order)
    # assembled from the triplets: memory O(edges), never O(n^2); the
    # graph drops zero weights, so zero-weight self-loops vanish
    rows = np.array([order[src] for src, _ in edges], dtype=np.intp)
    cols = np.array([order[dst] for _, dst in edges], dtype=np.intp)
    data = np.array(list(edges.values()), dtype=float)
    return LocalityGraph(tuple(order),
                         sp.csr_matrix((data, (rows, cols)), shape=(n, n)))


def load_edge_list_file(path) -> LocalityGraph:
    """:func:`load_edge_list` on a file; errors start with its path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return load_edge_list(fh)
        except EdgeListError as exc:
            raise EdgeListError(f"{path}: {exc}") from None


def total_weight(g: LocalityGraph) -> float:
    return float(g.weights.sum())


def normalize_mean_column_weight(g: LocalityGraph) -> LocalityGraph:
    """Rescale all weights so the average column sum becomes one.

    Divides every entry by (total weight / node count).  Idempotent up
    to floating point; relative weight structure is preserved.

    Raises:
        ValueError: if the graph has no nonzero weight.
    """
    total = total_weight(g)
    if total == 0:
        raise ValueError("cannot normalize an all-zero graph")
    scale = total / g.node_count
    return g.with_weights(g.weights / scale)


def is_strongly_connected(g: LocalityGraph) -> bool:
    """True iff every node reaches every other along positive-weight edges."""
    # W stores no zeros, so its pattern is the positive-weight edges
    n_comp, _ = connected_components(g.weights, directed=True,
                                     connection="strong")
    return n_comp == 1


def is_symmetric(g: LocalityGraph) -> bool:
    """W == W^T within ``np.allclose``'s default tolerances, tested on
    the CSR entries (never densified)."""
    w = g.weights
    # |W - W^T| <= atol + rtol |W^T| on the union pattern; both sides
    # vanish off it
    excess = abs(w - w.T) - 1e-05 * abs(w.T)
    return bool(excess.data.size == 0 or excess.data.max() <= 1e-08)


def symmetrized_upper(g: LocalityGraph):
    """Arithmetic-mean symmetrization (W + W^T) / 2."""
    w = g.weights
    return (w + w.T) / 2


def geometric_lower(g: LocalityGraph):
    """Entrywise geometric-mean symmetrization sqrt(W o W^T)."""
    w = g.weights
    return w.multiply(w.T).sqrt().tocsr()


def spectral_radius(matrix, tol: float = 1e-12,
                    max_iterations: int = 1_000_000) -> SpectralInfo:
    """Perron root and eigenvector of a nonnegative square matrix.

    Power iteration on the shifted matrix M + cI with c = (max row
    sum)/2, which is aperiodic whenever M is irreducible, so the
    iteration converges even for periodic structures (e.g. bipartite
    graphs).  The reported radius and residual refer to M itself.

    Convergence is declared when the infinity-norm residual drops below
    ``tol * max(1, radius)``; the residual achieved is reported in the
    result.  For an irreducible M the eigenvector is strictly positive
    (unit sum).

    Args:
        matrix: nonnegative square matrix, dense or sparse; iterated
            in CSR.
        tol: residual tolerance, scaled by max(1, radius).
        max_iterations: iteration cap.

    Raises:
        ValueError: non-square input, negative entries, or a ``tol``
            that is not finite and positive.
        SpectralError: cap reached before the residual target.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    m = sp.csr_matrix(matrix, dtype=float)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if (m.data < 0).any():
        raise ValueError("matrix entries must be nonnegative")
    n = m.shape[0]

    row_max = float(np.asarray(m.sum(axis=1)).max()) if n else 0.0
    x = np.full(n, 1.0 / n)
    if row_max == 0.0:
        return SpectralInfo(0.0, x, 0.0, 0)

    shift = row_max / 2.0
    z = np.asarray(m @ x).ravel()
    radius = float(z.sum())  # Collatz-Wielandt average at the uniform start
    residual = float(np.abs(z - radius * x).max())
    iterations = 0
    while residual > tol * max(1.0, abs(radius)):
        if iterations >= max_iterations:
            raise SpectralError(
                f"power iteration did not converge in {max_iterations} "
                f"iterations (residual {residual:.3e})",
                residual=residual, iterations=iterations)
        iterations += 1
        y = z + shift * x
        x = y / y.sum()
        z = np.asarray(m @ x).ravel()
        radius = float(z.sum())  # sum(x) == 1, so this is x-weighted mean growth
        residual = float(np.abs(z - radius * x).max())
    return SpectralInfo(radius=radius, eigvec=x, residual=residual,
                        iterations=iterations)


def top_nodes_by_total_weight(g: LocalityGraph, k: int) -> list[str]:
    """Labels of the k nodes ranked by total incident weight (in + out).

    Ties break by first appearance.  This is the ranking assumed when a
    dataset is reduced to its "top k" busiest nodes.
    """
    if not 1 <= k <= g.node_count:
        raise ValueError(f"k must be in 1..{g.node_count}")
    in_sums = np.asarray(g.weights.sum(axis=1)).ravel()
    out_sums = np.asarray(g.weights.sum(axis=0)).ravel()
    score = in_sums + out_sums
    ranked = sorted(range(g.node_count), key=lambda i: (-score[i], i))
    return [g.labels[i] for i in ranked[:k]]

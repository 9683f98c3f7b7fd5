"""Locality networks: ingestion, normalization, the epidemic model on
them, and Perron-Frobenius spectral computations.

A locality graph is a weighted directed network over population centers.
Row u of the weight matrix lists the infection pressure *received* by u:
entry (u, v) multiplies the contribution of active cases at v to the
growth rate at u.  The diagonal is identically zero; within-locality
growth is carried by a separate per-node modulation vector.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import filterfalse
from operator import methodcaller
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

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
        # nonnegative weights: a finite total bounds every row and column sum
        with np.errstate(over="ignore"):
            if not math.isfinite(w.data.sum()):
                raise ValueError("edge weights sum past the float64 range; "
                                 "scale the weights down")
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


#: _SPACE[c] is whether ``str.split()`` splits at code point c; no such
#: code point lies above U+3000, and the last entry stands for them all
_SPACE = np.zeros(0x3002, dtype=bool)
_SPACE[[c for c in range(0x3001) if chr(c).isspace()]] = True

#: Characters per chunk of :func:`parse_columns`.  Only one chunk's
#: field strings are alive at a time, so a parse no longer scatters a
#: file's worth of them over the heap.  On a 20k-node, 140k-edge list
#: (2.2 MB), the traced peak of :func:`load_edge_list_file` was 10.1 MB
#: for 2**12 to 2**16 characters, 12.8 MB at 2**18, 27.9 MB at 2**20
#: and 32.6 MB in one piece; below 2**12 the parse slows down.
CHUNK_CHARS = 2 ** 16


def split_fields(text: str, width: int) -> list[str] | None:
    """The whitespace-separated fields of ``text``'s lines, separated by
    ``\\n``, with ``#`` comments dropped, as one flat list; None unless
    every nonblank line has exactly ``width`` fields.

    One ``str.split()`` gives the fields.  The count per line comes from
    array operations on the code points, with the whitespace of
    ``str.split()``, so a field ends where ``line.split()`` ends it.
    :func:`parse_columns` calls it once per chunk of a file.
    """
    if "#" in text:
        text = re.sub("#[^\n]*", "", text)
    codes = (np.frombuffer(text.encode("ascii"), np.uint8) if text.isascii()
             else np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                                np.uint32).clip(max=_SPACE.size - 1))
    space = _SPACE.take(codes)
    starts = ~space
    starts[1:] &= space[:-1]
    # fields before each \n, then per line: those before its end minus
    # those before its start
    before = np.searchsorted(np.flatnonzero(starts),
                             np.flatnonzero(codes == ord("\n")))
    counts = np.diff(before, prepend=0, append=np.count_nonzero(starts))
    if not ((counts == 0) | (counts == width)).all():
        return None
    return text.split()


def line_chunks(text: str) -> Iterator[str]:
    """``text`` in consecutive pieces of at least :data:`CHUNK_CHARS`
    characters, each but the last ending in a ``\\n``."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + CHUNK_CHARS - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def parse_columns(text: str, width: int, convert=None):
    """The fields of ``text``'s lines, separated by ``\\n`` (``#``
    comments dropped), parsed one :func:`line_chunks` chunk at a time.

    Each chunk gets one :func:`split_fields`.  Without ``convert`` every
    field is a label; with it, the last field of each line is a value,
    and ``convert`` maps a chunk's list of value fields to its values.
    A chunk's field strings are dropped once its arrays are built.

    Returns:
        None unless every nonblank line has exactly ``width`` fields and
        ``convert`` raises no ValueError; else ``(index, ends, values)``:
        ``index`` maps each label to its position in first-appearance
        order, ``ends`` is the intp array of those positions field by
        field in text order, and ``values`` lists ``convert``'s result
        for each chunk (empty without ``convert``).
    """
    index: dict[str, int] = {}
    ends, values = [np.empty(0, np.intp)], []
    for chunk in line_chunks(text):
        fields = split_fields(chunk, width)
        if fields is None:
            return None
        if convert is not None:
            try:
                values.append(convert(fields[width - 1::width]))
            except ValueError:
                return None
            del fields[width - 1::width]
        new = list(filterfalse(index.__contains__, dict.fromkeys(fields)))
        index.update(zip(new, range(len(index), len(index) + len(new))))
        ends.append(np.fromiter(map(index.__getitem__, fields), np.intp,
                                len(fields)))
    return index, np.concatenate(ends), values


def file_lines(text: str) -> Iterator[str]:
    """The lines a text file read in universal-newline mode yields, each
    ending in its ``\\n``, from its text; built only when iterated."""
    yield from io.StringIO(text, newline="\n")


def read_text(path, fault: Callable[[int, str], Exception]) -> str:
    """The text of the UTF-8 file at ``path``, read in one piece in
    universal-newline mode.

    Raises:
        ``fault(lineno, reason)``: for the first line (one-based, lines
            as universal-newline mode splits them) that holds a byte
            sequence that is not UTF-8, found by a per-line pass over
            the file's bytes only when the whole file fails to decode.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        pass
    with open(path, "rb") as fh:
        data = fh.read()
    # bytes.splitlines splits at \n, \r\n and \r only, as the text mode
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise fault(lineno, f"byte 0x{raw[exc.start]:02x} at position "
                        f"{exc.start + 1} is not UTF-8 ({exc.reason})"
                        ) from None
    raise AssertionError("every line decodes but the whole file does not")


def load_edge_list(source: str | Iterable[str]) -> LocalityGraph:
    """Parse a whitespace-separated edge list into a locality graph.

    Each nonempty line is ``src dst weight``; ``#`` starts a comment.
    The weight on line ``src dst w`` is the pressure received by ``src``
    from ``dst``.  Labels are collected in first-appearance order and
    absent pairs default to weight zero.

    The input is parsed by :func:`parse_columns`, one line-aligned chunk
    at a time: fields, ``float`` over the weights, label positions.
    Then array checks for sign, finiteness, self-loops and duplicates
    run once over the whole edge list.  Only when a check fails does a
    per-line pass run over all the lines, to raise the error for the
    first bad line.

    Args:
        source: text content (a string, split by ``str.splitlines``) or
            an iterable of lines, e.g. an open text file.

    Raises:
        EdgeListError: malformed line, negative weight, nonzero
            self-loop, or duplicate (src, dst) pair; messages carry the
            one-based line number.
    """
    lines = source.splitlines() if isinstance(source, str) else list(source)
    # a newline inside a listed line is whitespace to line.split()
    return _parse_edge_text(
        "\n".join(map(methodcaller("replace", "\n", " "), lines)), lines)


def _weights(fields: list[str]) -> np.ndarray:
    return np.fromiter(map(float, fields), float, len(fields))


def _parse_edge_text(text: str, lines: Iterable[str]) -> LocalityGraph:
    """:func:`load_edge_list` on ``text``, whose lines, split at ``\\n``,
    are ``lines``; the per-line pass reads ``lines`` only on a fault."""
    parsed = parse_columns(text, 3, _weights)
    if parsed is None:
        _raise_first_bad_line(lines)
    index, ends, weights = parsed
    if not index:
        raise EdgeListError("edge list is empty")
    labels, n, data = tuple(index), len(index), np.concatenate(weights)
    del parsed, index, weights  # freed before the checks allocate
    rows, cols = ends[0::2], ends[1::2]
    # sorted (src, dst) keys differ from their neighbours: no duplicates
    if not (np.isfinite(data).all() and (data >= 0).all()
            and (data[rows == cols] == 0).all()
            and np.diff(np.sort(rows * n + cols)).all()):
        _raise_first_bad_line(lines)
    # assembled from the triplets: memory O(edges), never O(n^2); the
    # graph drops zero weights, so zero-weight self-loops vanish
    w = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    del data, ends, rows, cols  # before the graph copies W
    return LocalityGraph(labels, w)


def _raise_first_bad_line(lines: Iterable[str]) -> NoReturn:
    """The per-line pass: EdgeListError for the first line that breaks a
    rule :func:`load_edge_list` checks in bulk."""
    seen = set()
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
        if not math.isfinite(weight):
            raise EdgeListError(f"line {lineno}: weight must be finite")
        if weight < 0:
            raise EdgeListError(f"line {lineno}: negative weight {weight}")
        if src == dst and weight != 0:
            raise EdgeListError(
                f"line {lineno}: self-loop {src!r} must have weight 0")
        if (src, dst) in seen:
            raise EdgeListError(f"line {lineno}: duplicate edge {src}->{dst}")
        seen.add((src, dst))
    raise AssertionError("the bulk checks rejected lines the per-line "
                         "pass accepts")


def load_edge_list_file(path) -> LocalityGraph:
    """:func:`load_edge_list` on a UTF-8 file, read in one piece and
    parsed in chunks; errors start with its path, and a byte that is not
    UTF-8 is an error naming its line."""
    text = read_text(path, lambda lineno, reason: EdgeListError(
        f"{path}: line {lineno}: {reason}"))
    try:
        return _parse_edge_text(text, file_lines(text))
    except EdgeListError as exc:
        raise EdgeListError(f"{path}: {exc}") from None


def normalize_mean_column_weight(g: LocalityGraph) -> LocalityGraph:
    """Rescale all weights so the average column sum becomes one.

    Divides every entry by (total weight / node count).  Idempotent up
    to floating point; relative weight structure is preserved.

    Raises:
        ValueError: if the graph has no nonzero weight.
    """
    total = float(g.weights.sum())
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

    Each pass evaluates z = M x, the radius sum(z) (a Collatz-Wielandt
    average, as sum(x) = 1) and the infinity-norm residual; it stops
    unless the residual exceeds ``tol * max(1, |radius|)``, else takes
    one shifted step.  The residual achieved is reported in the result.
    For an irreducible M the eigenvector is strictly positive (unit sum).

    Args:
        matrix: nonnegative square matrix, dense or sparse; iterated
            in CSR.
        tol: residual tolerance, scaled by max(1, radius).
        max_iterations: iteration cap.

    Raises:
        ValueError: empty or non-square input, non-finite or negative
            entries, entries whose sum (plus ``c``) overflows float64, or
            a ``tol`` that is not finite and positive.
        SpectralError: cap reached before the residual target.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    m = sp.csr_matrix(matrix, dtype=float)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("matrix must not be empty")
    if not np.isfinite(m.data).all():
        raise ValueError("matrix entries must be finite")
    if (m.data < 0).any():
        raise ValueError("matrix entries must be nonnegative")
    n = m.shape[0]

    with np.errstate(over="ignore"):
        row_sums = np.asarray(m.sum(axis=1)).ravel()
        row_max, total = float(row_sums.max()), float(row_sums.sum())
    # no iterate exceeds sum(M) + c, as sum(M x) <= sum(M) when sum(x) = 1
    if not math.isfinite(total + row_max / 2):
        raise ValueError("matrix entries sum past the float64 range; "
                         "scale the matrix down")
    x = np.full(n, 1.0 / n)
    if row_max == 0.0:
        return SpectralInfo(0.0, x, 0.0, 0)

    shift = row_max / 2.0
    iterations = 0
    while True:
        z = np.asarray(m @ x).ravel()
        radius = float(z.sum())
        residual = float(np.abs(z - radius * x).max())
        if not residual > tol * max(1.0, abs(radius)):
            break
        if iterations >= max_iterations:
            raise SpectralError(
                f"power iteration did not converge in {max_iterations} "
                f"iterations (residual {residual:.3e})",
                residual=residual, iterations=iterations)
        iterations += 1
        y = z + shift * x
        x = y / y.sum()
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

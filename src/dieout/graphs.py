"""Locality networks: ingestion, normalization, the epidemic model on
them, strong components (found once per graph) and power iteration.

W is held in :class:`CSR`, a small compressed-sparse-row type whose
every sum adds in the order scipy.sparse's CSR routines add, so it
computes what scipy would, bit for bit, without importing it.

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
from typing import Callable, Iterable, Iterator, NoReturn, Sequence, TextIO

import numpy as np

from .rates import FLOAT, RateProfile, coerce_coefficient


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
class CSR:
    """A float matrix in compressed sparse row form.

    Row i stores ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``, in that order; ``indptr`` and
    ``indices`` are intp arrays.  Duplicates and stored zeros are
    allowed until :meth:`canonical`.  Each sum adds its terms in the
    order scipy.sparse's CSR routines add them (scipy 1.17), so every
    result is scipy's to the last bit.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    # numpy scalars and arrays defer to this class's operators
    __array_ufunc__ = None

    @classmethod
    def from_triplets(cls, data, rows, cols, shape) -> "CSR":
        """Entry k at (rows[k], cols[k]) with value data[k]; each row
        keeps its entries in the given order, duplicates included."""
        rows = np.asarray(rows, dtype=np.intp)
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(shape[0] + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(indptr, np.asarray(cols, dtype=np.intp)[order],
                   np.asarray(data, dtype=float)[order], tuple(shape))

    @classmethod
    def from_keys(cls, keys: np.ndarray, data, shape) -> "CSR":
        """Entry k at (row, column) = divmod(keys[k], shape[1]), the
        keys increasing: canonical unless ``data`` holds zeros."""
        indptr = np.zeros(shape[0] + 1, dtype=np.intp)
        np.cumsum(np.bincount(keys // shape[1], minlength=shape[0]),
                  out=indptr[1:])
        return cls(indptr, keys % shape[1], np.asarray(data, dtype=float),
                   tuple(shape))

    @classmethod
    def of(cls, matrix) -> "CSR":
        """``matrix`` itself if a CSR; for any object with ``tocsr()``
        (scipy's sparse types), that CSR's arrays as stored; else the
        nonzeros of a 2-D array, row by row."""
        if isinstance(matrix, CSR):
            return matrix
        if hasattr(matrix, "tocsr"):
            m = matrix.tocsr()
            return cls(np.asarray(m.indptr, dtype=np.intp),
                       np.asarray(m.indices, dtype=np.intp),
                       np.asarray(m.data, dtype=float), tuple(m.shape))
        dense = np.asarray(matrix, dtype=float)
        if dense.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {dense.shape}")
        rows, cols = np.nonzero(dense)
        return cls.from_triplets(dense[rows, cols], rows, cols, dense.shape)

    @property
    def nnz(self) -> int:
        return self.data.size

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __reduce__(self):
        # pickled without the cached rows, which cost as much as indices
        return CSR, (self.indptr, self.indices, self.data, self.shape)

    def canonical(self) -> "CSR":
        """New arrays with each row's entries sorted by column, its
        duplicates added in stored order and its zeros dropped, as
        scipy's ``sum_duplicates`` then ``eliminate_zeros``."""
        increasing = self.indices[1:] > self.indices[:-1]
        # a row's first entry need not pass the last of the row before
        starts = self.indptr[1:-1]
        increasing[starts[(starts > 0) & (starts < self.nnz)] - 1] = True
        if increasing.all() and self.data.all():
            return CSR(self.indptr.copy(), self.indices.copy(),
                       self.data.astype(float), self.shape)
        keys = self.rows * self.shape[1] + self.indices
        order = np.argsort(keys, kind="stable")
        keys, data = keys[order], self.data[order]
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        if not first.all():
            data = np.bincount(np.cumsum(first) - 1, weights=data)
            keys = keys[first]
        keep = data != 0
        return CSR.from_keys(keys[keep], data[keep], self.shape)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, (self.rows, self.indices), self.data)
        return out

    def __matmul__(self, x) -> np.ndarray:
        """The product with a vector, each row added in stored order
        from 0, as scipy's ``csr_matvec``."""
        x = np.asarray(x)
        if x.shape != (self.shape[1],):
            raise ValueError(f"cannot multiply a {self.shape} matrix by a "
                             f"vector of shape {x.shape}")
        return np.bincount(self.rows, weights=self.data * x[self.indices],
                           minlength=self.shape[0])

    def sum(self, axis: int | None = None):
        """The total (numpy's sum of ``data``), the column sums
        (``axis=0``, each added in stored order) or the row sums
        (``axis=1``, numpy's ``add.reduceat`` over the nonempty rows):
        the calls and orders scipy uses."""
        if axis is None:
            return self.data.sum()
        if axis == 0:
            return np.bincount(self.indices, weights=self.data,
                               minlength=self.shape[1])
        out = np.zeros(self.shape[0])
        nonempty = np.flatnonzero(np.diff(self.indptr))
        if nonempty.size:
            out[nonempty] = np.add.reduceat(self.data,
                                            self.indptr[nonempty])
        return out

    def diagonal(self) -> np.ndarray:
        out = np.zeros(min(self.shape))
        on = self.rows == self.indices
        np.add.at(out, self.indices[on], self.data[on])
        return out

    def __mul__(self, c) -> "CSR":
        return CSR(self.indptr, self.indices, self.data * c, self.shape)

    __rmul__ = __mul__

    def __truediv__(self, c) -> "CSR":
        # scipy divides a float matrix by multiplying with 1 / c
        return self * (1 / c)

    def select(self, rows, cols) -> "CSR":
        """The submatrix on ``rows`` and the distinct ``cols``, in their
        order; each row keeps its stored entry order, as scipy's
        ``m[rows][:, cols]`` and ``m[a:b, a:b]`` do."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        position = np.full(self.shape[1], -1, dtype=np.intp)
        position[cols] = np.arange(cols.size)
        counts = np.diff(self.indptr)[rows]
        # the stored positions of the chosen rows' entries, row by row:
        # each row's start, less where it starts among them, plus each
        # entry's place among them
        taken = np.repeat(self.indptr[rows] - np.cumsum(counts) + counts,
                          counts)
        taken += np.arange(taken.size)
        new_cols = position[self.indices[taken]]
        keep = new_cols >= 0
        return CSR.from_triplets(
            self.data[taken[keep]],
            np.repeat(np.arange(rows.size), counts)[keep], new_cols[keep],
            (rows.size, cols.size))


def strong_components(m: CSR) -> tuple[int, np.ndarray]:
    """The strong components of the digraph with an edge i -> j for each
    stored entry (i, j) of ``m``: their count and each node's component.

    Tarjan's algorithm (SIAM J. Comput. 1(2), 1972), iterative: ``path``
    stands in for the recursion, each node keeping its next unread edge
    in ``cursor``; a node is on Tarjan's stack while it is visited and
    not yet labelled.
    """
    n = m.shape[0]
    indptr, targets = m.indptr.tolist(), m.indices.tolist()
    cursor = indptr[:-1]
    order, low, label = [-1] * n, [0] * n, [-1] * n
    stack, count, visited = [], 0, 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = visited
        visited += 1
        stack.append(root)
        path = [root]
        while path:
            v = path[-1]
            i, end = cursor[v], indptr[v + 1]
            while i < end:
                w = targets[i]
                i += 1
                if order[w] < 0:  # a tree edge: descend into w
                    order[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    path.append(w)
                    break
                if label[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            cursor[v] = i
            if path[-1] != v:
                continue
            path.pop()
            if low[v] == order[v]:  # v roots a component
                while True:
                    w = stack.pop()
                    label[w] = count
                    if w == v:
                        break
                count += 1
            if path and low[v] < low[path[-1]]:
                low[path[-1]] = low[v]
    return count, np.array(label, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class LocalityGraph:
    """Immutable weighted directed graph over localities.

    Attributes:
        labels: node identifiers in first-appearance order.
        weights: W as a :class:`CSR` in canonical form: sorted indices,
            no duplicates and no stored zeros, with its arrays
            write-protected.  The constructor accepts a CSR, a dense
            array or any object with ``tocsr()`` (scipy's sparse types)
            and stores new arrays, so the caller's matrix is never
            changed.
    """

    labels: tuple[str, ...]
    weights: CSR

    def __post_init__(self):
        n = len(self.labels)
        if n < 1:
            raise ValueError("graph needs at least one node")
        if len(set(self.labels)) != n:
            raise ValueError("node labels must be unique")
        w = CSR.of(self.weights)
        if w.shape != (n, n):
            raise ValueError(f"weight matrix shape {w.shape} != ({n}, {n})")
        w = w.canonical()
        if not np.isfinite(w.data).all():
            raise ValueError("edge weights must be finite")
        if (w.data < 0).any():
            raise ValueError("negative edge weight")
        # nonnegative weights: a finite total bounds every row and column sum
        with np.errstate(over="ignore"):
            if not math.isfinite(w.sum()):
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

    @cached_property
    def _components(self) -> tuple[int, np.ndarray]:
        """W's strong components, their count and each node's component;
        W stores no zeros, so they follow the positive-weight edges."""
        return strong_components(self.weights)

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
        return LocalityGraph(tuple(labels), self.weights.select(idx, idx))


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

    def d_on(self, g: LocalityGraph) -> np.ndarray:
        """D's diagonal on ``g``; ValueError unless (sup beta * c_max +
        sup beta_int * max(D) + delta) * (2^63 - 1) is finite, c_max being
        W's largest column sum.  Counts are int64, so then no simulator
        rate and no entry sum of :meth:`growth_matrix` overflows."""
        d = self.d(g.node_count)
        c_max = float(g.weights.sum(axis=0).max())
        if not math.isfinite(
                (self.beta.sup(1, FLOAT) * c_max
                 + self.beta_int.sup(1, FLOAT) * float(d.max())
                 + float(self.delta)) * (2 ** 63 - 1)):
            raise ValueError("rates on this graph can pass the float64 range "
                             "at 2^63 - 1 cases; scale beta, beta_int, "
                             "delta or the weights down")
        return d

    def growth_matrix(self, g: LocalityGraph, b: float, bi: float) -> CSR:
        """Birth-rate matrix ``b * W + bi * diag(D)`` at profile values
        b = beta(n), bi = beta_int(n), in canonical CSR: the entries
        ``b * w`` and ``bi * d`` that are nonzero, as scipy's sum of
        ``b * W`` and ``diags(bi * d)`` gives them."""
        d = self.d_on(g)  # before b * W can overflow
        w, n = g.weights, g.node_count
        diag = np.arange(n)
        # W's diagonal is empty, so no entry of the sum has two terms
        return CSR.from_triplets(
            np.concatenate((w.data * b, bi * d)),
            np.concatenate((w.rows, diag)), np.concatenate((w.indices, diag)),
            w.shape).canonical()

    def asymptotic_matrix(self, g: LocalityGraph) -> CSR:
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


#: Characters per edge-list chunk of :func:`parse_columns`.  Only one
#: chunk's field strings are alive at a time, so a parse no longer
#: scatters a file's worth of them over the heap.  On a 20k-node,
#: 140k-edge list (2.2 MB), the traced peak of :func:`load_edge_list_file`
#: is 10.0 MB for 2**12 to 2**16 characters, 12.9 MB at 2**18, 28.3 MB
#: at 2**20 and 33.4 MB in one piece; below 2**12 the parse slows down.
CHUNK_CHARS = 2 ** 16


def split_fields(text: str, width: int) -> list[str] | None:
    """The whitespace-separated fields of ``text``'s lines, separated by
    ``\\n``, with ``#`` comments dropped, as one flat list; None unless
    every nonblank line has exactly ``width`` fields."""
    if "#" in text:
        text = re.sub("#[^\n]*", "", text)
    fields = []
    for row in map(str.split, text.split("\n")):
        if len(row) == width:
            fields += row
        elif row:
            return None
    return fields


def line_chunks(text: str) -> Iterator[str]:
    """``text`` in consecutive pieces of at least :data:`CHUNK_CHARS`
    characters, each but the last ending in a ``\\n``."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + CHUNK_CHARS - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def parse_columns(text: str, width: int, convert):
    """The fields of an edge list's lines, separated by ``\\n`` (``#``
    comments dropped), parsed one :func:`line_chunks` chunk at a time.

    Each chunk gets one :func:`split_fields`.  The last field of each
    line is a value, and ``convert`` maps a chunk's list of value fields
    to its values; the other fields are labels.  A chunk's field strings
    are dropped once its arrays are built.

    Returns:
        None unless every nonblank line has exactly ``width`` fields and
        ``convert`` raises no ValueError; else ``(index, ends, values)``:
        ``index`` maps each label to its position in first-appearance
        order, ``ends`` is the intp array of those positions field by
        field in text order, and ``values`` lists ``convert``'s result
        for each chunk.
    """
    index: dict[str, int] = {}
    ends, values = [np.empty(0, np.intp)], []
    for chunk in line_chunks(text):
        fields = split_fields(chunk, width)
        if fields is None:
            return None
        try:
            values.append(convert(fields[width - 1::width]))
        except ValueError:
            return None
        del fields[width - 1::width]
        ends.append(np.fromiter((index.setdefault(f, len(index))
                                 for f in fields), np.intp, len(fields)))
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
        OSError: the file cannot be read (missing, a directory); its
            ``filename`` and ``strerror`` name the path and the reason.
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


def load_edge_list(source: str | TextIO) -> LocalityGraph:
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
        source: the text, or a text stream read in one piece; lines end
            at ``\\n``, ``\\r\\n`` and ``\\r`` only, as in a file.

    Raises:
        EdgeListError: malformed line, negative weight, nonzero
            self-loop, or duplicate (src, dst) pair; messages carry the
            one-based line number.
    """
    text = source if isinstance(source, str) else source.read()
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    parsed = parse_columns(text, 3, _weights)
    if parsed is None:
        _raise_first_bad_line(file_lines(text))
    index, ends, weights = parsed
    if not index:
        raise EdgeListError("edge list is empty")
    labels, n, data = tuple(index), len(index), np.concatenate(weights)
    del parsed, index, weights  # freed before the checks allocate
    rows, cols = ends[0::2], ends[1::2]
    if not (np.isfinite(data).all() and (data >= 0).all()
            and (data[rows == cols] == 0).all()):
        _raise_first_bad_line(file_lines(text))
    # W's entries in (src, dst) order, assembled from the sorted keys:
    # memory O(edges), never O(n^2)
    keys = rows * n + cols
    del ends, rows, cols  # before the sort allocates
    # distinct keys sort into one order by any sort; duplicates fail
    order = np.argsort(keys)
    keys = keys[order]
    # sorted keys that differ from their neighbours: no duplicates
    if not (keys[1:] != keys[:-1]).all():
        _raise_first_bad_line(file_lines(text))
    w = CSR.from_keys(keys, data[order], (n, n))
    del keys, data, order  # before the graph copies W
    # the graph drops zero weights, so zero-weight self-loops vanish
    return LocalityGraph(labels, w)


def _weights(fields: list[str]) -> np.ndarray:
    return np.fromiter(map(float, fields), float, len(fields))


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
        return load_edge_list(text)
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
    return g._components[0] == 1


def is_symmetric(g: LocalityGraph) -> bool:
    """W == W^T within ``np.allclose``'s default tolerances, tested on
    the CSR entries (never densified)."""
    w, n = g.weights, g.node_count
    if not w.nnz:
        return True
    # |W - W^T| <= atol + rtol |W^T| on the union pattern; both sides
    # vanish off it.  W^T at each entry (i, j) of W is W's entry (j, i),
    # found among W's sorted keys, or 0
    keys = w.rows * n + w.indices
    mirror = w.indices * n + w.rows
    at = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
    found = keys[at] == mirror
    wt = np.where(found, w.data[at], 0.0)
    # an entry (j, i) with no mirror gives W^T an entry where W has none
    alone = w.data[~found]
    excess = np.concatenate((np.abs(w.data - wt) - 1e-05 * wt,
                             alone - 1e-05 * alone))
    return bool(excess.max() <= 1e-08)


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
        matrix: nonnegative square matrix: a :class:`CSR`, iterated
            as stored, or anything :meth:`CSR.of` converts.
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
    m = CSR.of(matrix)
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
        row_sums = m.sum(axis=1)
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
        z = m @ x
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
    score = g.weights.sum(axis=1) + g.weights.sum(axis=0)
    ranked = sorted(range(g.node_count), key=lambda i: (-score[i], i))
    return [g.labels[i] for i in ranked[:k]]

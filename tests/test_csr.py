"""``graphs.CSR`` and the Tarjan split against scipy.sparse as the
oracle: every array dieout computes from W, byte for byte, on drawn
digraphs with duplicates, explicit zeros, empty rows, and dense, COO,
CSC and unsorted CSR inputs; strong components as the same partition."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from dieout.gillespie import _EventTables
from dieout.graphs import (CSR, DiagonalModulation, LocalityGraph,
                           is_symmetric, spectral_radius, strong_components)
from dieout.regime import _perron_root

from conftest import const_model

#: weights: positive floats, exact zeros and a few repeated values
VALUES = st.one_of(st.floats(1e-3, 1e3), st.just(0.0),
                   st.sampled_from([0.1, 1.0, 2.5]))


@st.composite
def stored(draw, max_n: int = 9):
    """A square matrix as scipy CSR with entries in drawn stored order:
    unsorted columns, duplicates and explicit zeros allowed.  A row holds
    at most 16 entries: scipy sorts a row's (column, value) pairs with
    std::sort, which keeps equal columns in stored order only up to 16
    pairs, so longer rows would leave the oracle's duplicate sums in an
    unspecified order."""
    n = draw(st.integers(1, max_n))
    indptr, indices, data = [0], [], []
    for _ in range(n):
        row = draw(st.lists(st.tuples(st.integers(0, n - 1), VALUES),
                            max_size=16))
        indices += [j for j, _ in row]
        data += [v for _, v in row]
        indptr.append(len(indices))
    return sp.csr_matrix((np.array(data, dtype=float),
                          np.array(indices, dtype=np.int32),
                          np.array(indptr, dtype=np.int32)), shape=(n, n))


def canonical_oracle(m) -> sp.csr_matrix:
    """What the parent's ``LocalityGraph`` stored for input ``m``."""
    w = sp.csr_matrix(m, dtype=float, copy=True)
    w.sum_duplicates()
    w.eliminate_zeros()
    return w


def same_arrays(mine: CSR, theirs) -> bool:
    return (mine.shape == theirs.shape
            and np.array_equal(mine.indptr, theirs.indptr)
            and np.array_equal(mine.indices, theirs.indices)
            and mine.data.tobytes() == theirs.data.astype(float).tobytes())


def digraph(m: sp.csr_matrix) -> LocalityGraph:
    """A graph on ``m``'s pattern with its diagonal cleared."""
    w = canonical_oracle(m).tolil()
    w.setdiag(0)
    return LocalityGraph(tuple(f"v{i}" for i in range(m.shape[0])), w.tocsr())


def big_matrix(seed: int = 7, n: int = 300) -> sp.csr_matrix:
    """300 nodes, rows of 0 to 160 entries: past the 8- and 128-term
    blocks of numpy's pairwise sums."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 161, n)
    counts[::17] = 0
    rows = np.repeat(np.arange(n), counts)
    cols = np.concatenate([rng.choice(n, c, replace=False) for c in counts])
    data = rng.lognormal(0.0, 2.0, rows.size)
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


class TestConversion:
    @settings(max_examples=150, deadline=None)
    @given(stored())
    def test_canonical_from_every_input_kind(self, m):
        dense = m.toarray()
        want = canonical_oracle(m)
        for given_m in (m, m.tocoo(), m.tocsc(), sp.csr_array(m), dense,
                        CSR.of(m)):
            assert same_arrays(CSR.of(given_m).canonical(), want)

    def test_triplets_with_duplicates_and_zeros(self):
        data = [1.0, 0.0, 2.0, 0.5, -0.5, 3.0]
        rows, cols = [1, 0, 1, 2, 2, 1], [2, 1, 2, 0, 0, 0]
        want = canonical_oracle(sp.coo_matrix((data, (rows, cols)),
                                              shape=(3, 3)))
        got = CSR.from_triplets(data, rows, cols, (3, 3)).canonical()
        assert same_arrays(got, want)
        assert got.nnz == want.nnz == 2

    @settings(max_examples=100, deadline=None)
    @given(stored())
    def test_stored_order_is_kept(self, m):
        mine = CSR.of(m)
        assert same_arrays(mine, m)
        np.testing.assert_array_equal(mine.toarray(), m.toarray())

    def test_a_vector_is_refused(self):
        with pytest.raises(ValueError, match="2-D"):
            CSR.of(np.ones(3))


class TestArithmetic:
    @settings(max_examples=150, deadline=None)
    @given(stored(), st.integers(0, 2 ** 32 - 1))
    def test_matvec_and_sums_as_stored(self, m, seed):
        mine = CSR.of(m)
        x = np.random.default_rng(seed).lognormal(0.0, 3.0, m.shape[1])
        assert (mine @ x).tobytes() == (m @ x).tobytes()
        for axis in (0, 1):
            want = np.asarray(m.sum(axis=axis), dtype=float).ravel()
            assert mine.sum(axis=axis).tobytes() == want.tobytes()
        assert mine.diagonal().tobytes() == m.diagonal().tobytes()
        # the total of a canonical matrix, as the graph holds W
        canon = CSR.of(m).canonical()
        assert (float(canon.sum()).hex()
                == float(canonical_oracle(m).sum()).hex())

    @pytest.mark.parametrize("seed", [7, 8])
    def test_long_rows(self, seed):
        m = big_matrix(seed)
        mine = CSR.of(m)
        x = np.random.default_rng(seed).random(m.shape[0])
        assert (mine @ x).tobytes() == (m @ x).tobytes()
        for axis in (0, 1):
            want = np.asarray(m.sum(axis=axis)).ravel()
            assert mine.sum(axis=axis).tobytes() == want.tobytes()
        assert float(mine.sum()).hex() == float(m.sum()).hex()

    @settings(max_examples=60, deadline=None)
    @given(stored(), st.floats(1e-3, 1e3))
    def test_scalar_product_and_quotient(self, m, c):
        mine = CSR.of(m)
        assert same_arrays(mine * c, m * c)
        assert same_arrays(c * mine, c * m)
        assert same_arrays(np.float64(c) * mine, m * c)
        assert same_arrays(mine / c, m / c)


class TestSelection:
    @settings(max_examples=150, deadline=None)
    @given(stored(), st.randoms(use_true_random=False))
    def test_permutation_and_blocks(self, m, rnd):
        n = m.shape[0]
        order = np.array(rnd.sample(range(n), n))
        mine, theirs = CSR.of(m).select(order, order), m[order][:, order]
        assert same_arrays(mine, theirs)
        a = rnd.randrange(n)
        b = rnd.randrange(a, n) + 1
        assert same_arrays(mine.select(range(a, b), range(a, b)),
                           theirs[a:b, a:b])

    @settings(max_examples=60, deadline=None)
    @given(stored(), st.randoms(use_true_random=False))
    def test_subgraph(self, m, rnd):
        g = digraph(m)
        n = g.node_count
        labels = rnd.sample(g.labels, rnd.randrange(n) + 1)
        idx = [g.index(lab) for lab in labels]
        want = canonical_oracle(canonical_oracle(g.weights.toarray())
                                [idx, :][:, idx])
        assert same_arrays(g.subgraph(labels).weights, want)


class TestModel:
    @settings(max_examples=100, deadline=None)
    @given(stored(), st.sampled_from([0.0, 0.7, 2.0, 1 / 3]),
           st.sampled_from([0.0, 1.3, 1 / 7]), st.integers(0, 100))
    def test_growth_matrix(self, m, b, bi, seed):
        g = digraph(m)
        d = np.random.default_rng(seed).uniform(0.5, 2.0, g.node_count)
        model = const_model(1, 1, 1, DiagonalModulation(d))
        w = sp.csr_matrix((g.weights.data, g.weights.indices,
                           g.weights.indptr), shape=g.weights.shape)
        want = (b * w + sp.diags(bi * d)).tocsr()
        assert same_arrays(model.growth_matrix(g, b, bi), want)

    @settings(max_examples=150, deadline=None)
    @given(stored(), st.booleans())
    def test_is_symmetric(self, m, mirror):
        g = digraph(m)
        if mirror:
            w = g.weights.toarray()
            g = g.with_weights(np.maximum(w, w.T))
        w = sp.csr_matrix(g.weights.toarray())
        excess = abs(w - w.T) - 1e-05 * abs(w.T)
        want = bool(excess.data.size == 0 or excess.data.max() <= 1e-08)
        assert is_symmetric(g) == want

    def test_near_symmetric_within_tolerance(self):
        w = np.array([[0, 1, 1e-9], [1 + 1e-6, 0, 0], [0, 0, 0]])
        assert is_symmetric(LocalityGraph(("a", "b", "c"), w))
        w[2, 0] = 1e-7
        assert not is_symmetric(LocalityGraph(("a", "b", "c"), w))


def same_partition(count, label, want_count, want_label) -> bool:
    pairs = set(zip(label.tolist(), want_label.tolist()))
    return count == want_count == len(pairs)


class TestStrongComponents:
    @settings(max_examples=200, deadline=None)
    @given(stored(max_n=14))
    def test_partition_matches_scipy(self, m):
        w = canonical_oracle(m)
        got = strong_components(CSR.of(w))
        assert same_partition(*got, *connected_components(
            w, directed=True, connection="strong"))

    @pytest.mark.parametrize("seed", range(4))
    def test_large_sparse_digraphs(self, seed):
        rng = np.random.default_rng(seed)
        n = 3000
        # few out-edges per node: many components, some long paths
        rows = rng.integers(0, n, 3500)
        cols = rng.integers(0, n, 3500)
        w = canonical_oracle(sp.csr_matrix((np.ones(rows.size),
                                            (rows, cols)), shape=(n, n)))
        got = strong_components(CSR.of(w))
        assert got[0] > 3
        assert same_partition(*got, *connected_components(
            w, connection="strong"))

    def test_a_long_cycle_is_one_component(self):
        # far deeper than Python's recursion limit
        n = 50_000
        idx = np.arange(n)
        w = CSR.from_triplets(np.ones(n), idx, (idx + 1) % n, (n, n))
        count, label = strong_components(w)
        assert count == 1 and not label.any()

    @settings(max_examples=100, deadline=None)
    @given(stored(max_n=12))
    def test_perron_root_on_reducible_graphs(self, m):
        # the parent's block split, on scipy's permuted matrix
        g = digraph(m)
        a = const_model(1.5, 0.5, 1).asymptotic_matrix(g)
        s = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
        count, component = connected_components(s, connection="strong")
        order = np.argsort(component, kind="stable")
        p = s[order][:, order]
        ends = np.cumsum(np.bincount(component)).tolist()
        want = max(float(p.diagonal()[lo]) if hi == lo + 1 else
                   spectral_radius(p[lo:hi, lo:hi], tol=1e-12).radius
                   for lo, hi in zip([0, *ends], ends))
        assert _perron_root(g, a, 1e-12) == want


def test_blocked_event_table_matches_scipys_stack():
    rng = np.random.default_rng(3)
    n = 2100
    rows, cols = rng.integers(0, n, 9000), rng.integers(0, n, 9000)
    keep = rows != cols
    w = sp.csr_matrix((rng.lognormal(0.0, 1.0, keep.sum()),
                       (rows[keep], cols[keep])), shape=(n, n))
    g = LocalityGraph(tuple(map(str, range(n))), w)
    d = rng.uniform(0.5, 2.0, n)
    tables = _EventTables.of(g, const_model(1, 1, 1, DiagonalModulation(d)))
    width = tables.width
    w = sp.csr_matrix((g.weights.data, g.weights.indices, g.weights.indptr),
                      shape=(n, n))
    idx = np.arange(n)
    blocks = sp.csr_matrix((np.ones(n), (idx // width, idx)),
                           shape=(-(-n // width), n))
    want = sp.vstack((w, blocks @ w, blocks @ sp.diags(d), blocks),
                     format="csc")
    indptr, indices, data = tables.columns
    assert indptr == want.indptr.tolist()
    np.testing.assert_array_equal(indices, want.indices)
    assert indices.dtype == np.intp
    assert data.tobytes() == want.data.tobytes()
    assert tables.col_sums == np.asarray(w.sum(axis=0)).ravel().tolist()

import io
import pickle
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from dieout.gillespie import DENSE_NODE_LIMIT
from dieout.graphs import (DiagonalModulation, EdgeListError, EpidemicModel, LocalityGraph, SpectralError,
                           is_strongly_connected,
                           is_symmetric, load_edge_list, load_edge_list_file,
                           normalize_mean_column_weight,
                           spectral_radius,
                           top_nodes_by_total_weight)
from dieout.rates import ProfileError, parse_profile

from conftest import const_model, random_strong_digraph
from oracles import geometric_lower, symmetrized_upper


def rho_oracle(matrix) -> float:
    """Independent spectral radius: dense eigenvalue solver."""
    m = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
    return float(np.abs(np.linalg.eigvals(m)).max())


def reachability_oracle(weights: np.ndarray) -> bool:
    """Strong connectivity via boolean closure by repeated products."""
    adj = weights > 0
    reach = adj | np.eye(adj.shape[0], dtype=bool)
    for _ in range(adj.shape[0]):
        reach = reach | (reach @ reach)
    return bool(reach.all())


class TestLoadEdgeList:
    def test_symmetric_pair(self):
        g = load_edge_list("a b 1\nb a 1")
        assert g.labels == ("a", "b")
        np.testing.assert_array_equal(g.weights.toarray(), [[0, 1], [1, 0]])

    def test_asymmetric_and_orientation(self):
        # "a b 2" is pressure received by a from b
        g = load_edge_list("a b 2\nb c 3")
        assert g.labels == ("a", "b", "c")
        assert g.weights[0, 1] == 2
        assert g.weights[1, 2] == 3
        assert g.weights[1, 0] == 0

    def test_negative_weight_rejected(self):
        with pytest.raises(EdgeListError, match="line 1.*negative"):
            load_edge_list("a b -1")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(EdgeListError, match="duplicate"):
            load_edge_list("a b 1\na b 2")

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListError, match="line 2"):
            load_edge_list("a b 1\na b")

    def test_non_numeric_weight(self):
        with pytest.raises(EdgeListError, match="not a number"):
            load_edge_list("a b x")

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeListError, match="self-loop"):
            load_edge_list("a a 2")

    def test_comments_and_blanks_ignored(self):
        g = load_edge_list("# header\n\na b 1  # trailing\nb a 2\n")
        assert g.weights[0, 1] == 1
        assert g.weights[1, 0] == 2

    def test_accepts_stream(self):
        g = load_edge_list(io.StringIO("x y 4\ny x 4\n"))
        assert g.labels == ("x", "y")

    def test_file_errors_name_path_and_line(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a b 1\nb a 1\n# comment\na c x\n")
        with pytest.raises(EdgeListError) as err:
            load_edge_list_file(path)
        assert str(err.value) == f"{path}: line 4: weight 'x' is not a number"


class TestNormalize:
    def test_two_node_example(self):
        g = load_edge_list("a b 2\nb a 2")
        normed = normalize_mean_column_weight(g)
        np.testing.assert_allclose(normed.weights.toarray(), [[0, 1], [1, 0]])

    def test_single_direction_example(self):
        g = load_edge_list("a b 4")
        normed = normalize_mean_column_weight(g)
        np.testing.assert_allclose(normed.weights.toarray(), [[0, 2], [0, 0]])

    def test_airport_fixture_mean_column_sum_is_one(self, airports):
        # independent recomputation of the column sums
        col_sums = np.asarray(airports.weights.sum(axis=0)).ravel()
        assert col_sums.mean() == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self, airports):
        again = normalize_mean_column_weight(airports)
        np.testing.assert_allclose(again.weights.toarray(),
                                   airports.weights.toarray(),
                                   rtol=0, atol=1e-12)

    def test_all_zero_rejected(self):
        g = LocalityGraph(("a", "b"), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="all-zero"):
            normalize_mean_column_weight(g)


class TestStrongConnectivity:
    def test_two_cycle(self):
        assert is_strongly_connected(load_edge_list("a b 1\nb a 1"))

    def test_one_way_edge(self):
        assert not is_strongly_connected(load_edge_list("a b 1"))

    def test_matches_reachability_oracle_on_random_digraphs(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            n = 10
            w = np.where(rng.random((n, n)) < 0.18,
                         rng.random((n, n)), 0.0)
            np.fill_diagonal(w, 0.0)
            g = LocalityGraph(tuple(f"v{i}" for i in range(n)), w)
            assert is_strongly_connected(g) == reachability_oracle(w)

    def test_single_node(self):
        assert is_strongly_connected(LocalityGraph(("a",), np.zeros((1, 1))))


class TestSpectralRadius:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, k3, tol):
        # a NaN tolerance used to stop at iteration 0, a negative one
        # ran to the iteration cap
        with pytest.raises(ValueError, match="finite and positive"):
            spectral_radius(k3.weights, tol=tol, max_iterations=10)

    def test_complete_graph(self, k3):
        info = spectral_radius(k3.weights)
        assert info.radius == pytest.approx(2.0, abs=1e-10)
        np.testing.assert_allclose(info.eigvec, [1 / 3] * 3, atol=1e-10)

    def test_star_is_sqrt_leaves(self, star4):
        info = spectral_radius(star4.weights)
        assert info.radius == pytest.approx(2.0, abs=1e-10)

    def test_random_matrices_match_eig_oracle(self):
        rng = np.random.default_rng(101)
        for trial in range(30):
            m = rng.random((6, 6)) * rng.integers(1, 4)
            info = spectral_radius(m, tol=1e-13)
            assert info.radius == pytest.approx(rho_oracle(m), abs=1e-9)

    def test_eigvec_positive_and_residual(self):
        for seed in range(10):
            g = random_strong_digraph(seed)
            info = spectral_radius(g.weights, tol=1e-13)
            assert (info.eigvec > 0).all()
            assert info.eigvec.sum() == pytest.approx(1.0)
            res = np.abs(g.weights @ info.eigvec
                         - info.radius * info.eigvec).max()
            assert res <= max(info.residual, 1e-15) * 1.01
            assert info.residual <= 1e-13 * max(1.0, info.radius)

    def test_periodic_structure_converges(self):
        # two-cycle has eigenvalues +-1; the shift breaks the period
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        info = spectral_radius(m)
        assert info.radius == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_matrix(self):
        m = np.diag([0.5, 2.0, 1.0])
        info = spectral_radius(m, tol=1e-12)
        assert info.radius == pytest.approx(2.0, abs=1e-9)

    def test_zero_matrix(self):
        info = spectral_radius(np.zeros((3, 3)))
        assert info.radius == 0.0
        assert info.iterations == 0

    def test_scaling_covariance(self):
        rng = np.random.default_rng(5)
        m = rng.random((8, 8))
        base = spectral_radius(m, tol=1e-13).radius
        for s in (0.25, 3.0, 17.5):
            assert spectral_radius(s * m, tol=1e-13).radius == pytest.approx(
                s * base, rel=1e-10)

    def test_rejects_negative_and_nonsquare(self):
        with pytest.raises(ValueError, match="nonnegative"):
            spectral_radius(np.array([[0.0, -1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="square"):
            spectral_radius(np.zeros((2, 3)))

    def test_rejects_empty_matrix(self):
        # 0 x 0 is square; the uniform start 1/n used to divide by zero
        with pytest.raises(ValueError, match="empty"):
            spectral_radius(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_nonfinite_entries(self, bad):
        # a NaN residual fails the convergence test and would read as
        # converged at iteration 0; an infinite entry gives radius inf
        with pytest.raises(ValueError, match="finite"):
            spectral_radius(np.array([[0.0, bad], [1.0, 0.0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("matrix", [
        # the row sum overflows: the radius read NaN
        [[1e308, 1e308], [0.0, 0.0]],
        # the sum is finite, but the shifted step's is not: the radius
        # read 0.0
        [[1.3e308, 0.0], [0.0, 0.0]]])
    def test_rejects_entries_summing_past_float64(self, matrix):
        with pytest.raises(ValueError, match="float64"):
            spectral_radius(matrix)

    def test_nonconvergence_carries_residual(self):
        g = random_strong_digraph(3)
        with pytest.raises(SpectralError) as exc:
            spectral_radius(g.weights, tol=1e-15, max_iterations=2)
        assert exc.value.residual > 0
        assert exc.value.iterations == 2


class TestDegreesAndBounds:
    def test_symmetric_graph_is_fixed_point(self, k3):
        w = k3.weights.toarray()
        np.testing.assert_array_equal(symmetrized_upper(k3).toarray(), w)
        np.testing.assert_allclose(geometric_lower(k3).toarray(), w)

    def test_two_node_asymmetric_example(self):
        g = load_edge_list("a b 4\nb a 1")
        np.testing.assert_allclose(geometric_lower(g).toarray(),
                                   [[0, 2], [2, 0]])
        np.testing.assert_allclose(symmetrized_upper(g).toarray(),
                                   [[0, 2.5], [2.5, 0]])

    def test_schwenk_sandwich_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            w = np.where(rng.random((8, 8)) < 0.5, rng.random((8, 8)), 0.0)
            np.fill_diagonal(w, 0.0)
            g = LocalityGraph(tuple(f"v{i}" for i in range(8)), w)
            rho = spectral_radius(w, tol=1e-13).radius
            lo = spectral_radius(geometric_lower(g), tol=1e-13).radius
            hi = spectral_radius(symmetrized_upper(g), tol=1e-13).radius
            assert lo <= rho + 1e-9
            assert rho <= hi + 1e-9

    def test_diagonal_shift_sandwich_on_random_symmetric(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            p = rng.random((7, 7))
            p = (p + p.T) / 2
            np.fill_diagonal(p, 0.0)
            q = rng.random(7) * 3
            rho_p = spectral_radius(p, tol=1e-13).radius
            rho_pq = spectral_radius(p + np.diag(q), tol=1e-13).radius
            assert rho_p + q.min() <= rho_pq + 1e-9
            assert rho_pq <= rho_p + q.max() + 1e-9


class TestEffectiveMatrix:
    """``EpidemicModel.growth_matrix``: the effective matrix b W + bi D."""

    def test_no_coupling_is_diagonal(self, k3):
        d = DiagonalModulation(np.array([1.0, 2.0, 3.0]))
        m = const_model(1, 1, 1, d).growth_matrix(k3, b=0.0, bi=1.5)
        np.testing.assert_allclose(m.toarray(), np.diag([1.5, 3.0, 4.5]))

    def test_no_modulation_is_scaled_graph(self, k3):
        d = DiagonalModulation.uniform(3)
        m = const_model(1, 1, 1, d).growth_matrix(k3, b=2.0, bi=0.0)
        np.testing.assert_allclose(m.toarray(), 2.0 * k3.dense_weights())

    def test_k3_radius_example(self, k3):
        m = const_model(2, 2, 1, DiagonalModulation.uniform(3)
                        ).asymptotic_matrix(k3)
        assert spectral_radius(m).radius == pytest.approx(6.0, abs=1e-9)

    def test_dimension_mismatch(self, k3):
        with pytest.raises(ValueError, match="length"):
            const_model(1, 1, 1, DiagonalModulation.uniform(4)
                        ).growth_matrix(k3, 1.0, 1.0)


class TestEpidemicModel:
    def test_delta_is_stored_exactly(self):
        assert const_model(1, 1, "0.1").delta == Fraction(1, 10)
        assert float(const_model(1, 1, 8.02).delta) == 8.02

    @pytest.mark.parametrize("delta", [0, -1.0, "0"])
    def test_delta_must_be_positive(self, delta):
        with pytest.raises(ValueError, match="delta"):
            const_model(1, 1, delta)

    @pytest.mark.parametrize("delta", [float("inf"), float("-inf"),
                                       float("nan")])
    def test_delta_must_be_finite(self, delta):
        with pytest.raises(ProfileError, match="not finite"):
            const_model(1, 1, delta)

    def test_d_defaults_to_ones_and_checks_length(self):
        np.testing.assert_array_equal(const_model(1, 1, 1).d(4), np.ones(4))
        d = DiagonalModulation(np.array([0.5, 2.0]))
        np.testing.assert_array_equal(const_model(1, 1, 1, d).d(2), d.values)
        with pytest.raises(ValueError, match="length"):
            const_model(1, 1, 1, d).d(3)

    def test_growth_matrix_keeps_storage(self):
        g = random_strong_digraph(4, n=7)
        d = DiagonalModulation(np.linspace(0.5, 2.0, 7))
        m = const_model(1, 1, 1, d).growth_matrix(g, 0.7, 1.3)
        assert sp.isspmatrix_csr(m)
        np.testing.assert_allclose(
            m.toarray(), 0.7 * g.dense_weights() + 1.3 * np.diag(d.values),
            rtol=1e-15)

    def test_asymptotic_matrix_uses_profile_limits(self, k3):
        model = EpidemicModel(parse_profile("step:9,2,5"),
                              parse_profile("harmonic:4"), 1)
        np.testing.assert_array_equal(model.asymptotic_matrix(k3).toarray(),
                                      2.0 * k3.dense_weights())

    def test_pickles(self):
        model = const_model(1, 2, "3/7",
                            DiagonalModulation(np.array([1.0, 2.0])))
        back = pickle.loads(pickle.dumps(model))
        assert back.delta == Fraction(3, 7)
        np.testing.assert_array_equal(back.d(2), [1.0, 2.0])


class TestSparseStorage:
    def test_large_ring_uses_sparse_and_ops_work(self):
        n = DENSE_NODE_LIMIT + 10
        ring = sp.lil_matrix((n, n))
        for i in range(n):
            ring[i, (i + 1) % n] = 1.0
            ring[(i + 1) % n, i] = 1.0
        g = LocalityGraph(tuple(f"v{i}" for i in range(n)), ring.tocsr())
        assert is_strongly_connected(g)
        np.testing.assert_array_equal(
            np.asarray(g.weights.sum(axis=1)).ravel(), 2.0)
        info = spectral_radius(g.weights, tol=1e-10)
        assert info.radius == pytest.approx(2.0, abs=1e-8)
        normed = normalize_mean_column_weight(g)
        assert float(normed.weights.sum()) == pytest.approx(n, rel=1e-12)

    def test_simulation_on_sparse_graph(self):
        from dieout.gillespie import SimConfig, simulate_run
        n = DENSE_NODE_LIMIT + 10
        ring = sp.lil_matrix((n, n))
        for i in range(n):
            ring[i, (i + 1) % n] = 1.0
            ring[(i + 1) % n, i] = 1.0
        g = LocalityGraph(tuple(f"v{i}" for i in range(n)), ring.tocsr())
        cfg = SimConfig(EpidemicModel(parse_profile("const:0.3"),
                                      parse_profile("const:0.3"), 3.0),
                        t_max=50.0, n0=8, master_seed=6, record_events=True)
        traj = simulate_run(cfg, g, 0)
        assert traj.extinct_at is not None
        counts = traj.initial.copy()
        for _, node, dc in traj.events:
            counts[node] += dc
            assert counts[node] >= 0
        assert counts.sum() == 0

    def test_is_symmetric_matches_allclose_in_both_storages(self):
        # perturbations straddle np.allclose's tolerance |a - b| <= 1e-8
        # + 1e-5 |b|; dense and CSR twins must give allclose's answer
        rng = np.random.default_rng(8)
        base = random_strong_digraph(3, n=12, symmetric=True).dense_weights()
        for scale in (0.0, 1e-9, 5e-6, 2e-5, 1e-3):
            for _ in range(5):
                w = np.array(base)
                i, j = rng.choice(12, 2, replace=False)
                w[i, j] = (w[i, j] * (1 + rng.choice([-1, 1]) * scale)
                           if w[i, j] else scale)
                expected = bool(np.allclose(w, w.T))
                labels = tuple(f"v{k}" for k in range(12))
                assert is_symmetric(LocalityGraph(labels, w)) == expected
                assert is_symmetric(
                    LocalityGraph(labels, sp.csr_matrix(w))) == expected
        n = DENSE_NODE_LIMIT + 1
        idx = np.arange(n)
        ring = sp.csr_matrix((np.ones(n), (idx, (idx + 1) % n)), shape=(n, n))
        g = LocalityGraph(tuple(f"v{k}" for k in idx), ring)
        assert not is_symmetric(g)
        assert is_symmetric(g.with_weights(ring + ring.T))

    def test_large_edge_list_loads_as_csr_without_dense_scratch(self):
        # a directed ring plus chords, with zero-weight edges and a zero
        # self-loop that must not be stored
        n = 5000
        idx = np.arange(n)
        dense = np.zeros((n, n))
        dense[idx, (idx + 1) % n] = 1 + idx % 7
        dense[idx, (idx + 37) % n] = 0.5
        # the ring comes first, so labels appear in index order
        lines = [f"v{i} v{(i + 1) % n} {1 + i % 7}" for i in idx]
        lines += [f"v{i} v{(i + 37) % n} 0.5" for i in idx]
        lines += ["v3 v900 0", "v900 v3 0.0", "v17 v17 0"]
        text = "\n".join(lines)
        tracemalloc.start()
        try:
            g = load_edge_list(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20  # a dense n x n scratch array takes 200 MB
        assert g.labels == tuple(f"v{i}" for i in range(n))
        assert sp.isspmatrix_csr(g.weights) and g.weights.has_canonical_format
        ref = sp.csr_matrix(dense)
        np.testing.assert_array_equal(g.weights.indptr, ref.indptr)
        np.testing.assert_array_equal(g.weights.indices, ref.indices)
        np.testing.assert_array_equal(g.weights.data, ref.data)


class TestLabels:
    def test_subgraph_of_large_ring_looks_labels_up_in_constant_time(self):
        # 10,000 of 20,000 labels: a linear scan per label takes seconds
        n = 20_000
        idx = np.arange(n)
        ring = sp.csr_matrix((np.ones(n), (idx, (idx + 1) % n)), shape=(n, n))
        g = LocalityGraph(tuple(f"v{i}" for i in idx), ring)
        labels = [f"v{i}" for i in range(9_999, -1, -1)]
        start = time.perf_counter()
        sub = g.subgraph(labels)
        assert time.perf_counter() - start < 0.5
        assert sub.labels == tuple(labels)
        assert sub.index("v0") == 9_999
        # v(i) -> v(i+1) lands at (9999 - i, 9998 - i)
        expected = sp.csr_matrix((np.ones(9_999), (idx[1:10_000],
                                                   idx[:9_999])),
                                 shape=(10_000, 10_000))
        assert (sub.weights != expected).nnz == 0


class TestValidation:
    def test_nonzero_diagonal_rejected(self):
        w = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            LocalityGraph(("a", "b"), w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_weight_rejected(self, bad):
        w = np.array([[0.0, bad], [1.0, 0.0]])
        for given in (w, sp.csr_matrix(w)):
            with pytest.raises(ValueError, match="finite"):
                LocalityGraph(("a", "b"), given)

    @pytest.mark.filterwarnings("error")
    def test_weights_summing_past_float64_rejected(self):
        # each weight is finite, but their row sum overflows; the
        # simulator used to hang on such a graph and meanfield to crash
        w = np.array([[0.0, 1e308, 1e308], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="scale the weights down"):
            LocalityGraph(("a", "b", "c"), w)
        with pytest.raises(ValueError, match="scale the weights down"):
            load_edge_list("a b 1e308\na c 1e308\nb a 1\nc a 1")

    def test_weights_are_a_canonical_read_only_copy(self):
        # duplicate entries, an explicit zero and integer data, as COO
        coo = sp.coo_matrix(([1, 2, 0, 3], ([0, 0, 1, 1], [1, 1, 0, 2])),
                            shape=(3, 3))
        w = LocalityGraph(("a", "b", "c"), coo).weights
        assert sp.isspmatrix_csr(w) and w.has_canonical_format
        assert w.dtype == float and w.nnz == 2
        np.testing.assert_array_equal(w.toarray(),
                                      [[0, 3, 0], [0, 0, 3], [0, 0, 0]])
        assert not any(a.flags.writeable for a in (w.data, w.indices, w.indptr))
        given = sp.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        g = LocalityGraph(("a", "b"), given)
        given.data[:] = 9.0
        np.testing.assert_array_equal(g.weights.toarray(), [[0, 1], [2, 0]])
        dense = np.array([[0.0, 1.0], [2.0, 0.0]])
        LocalityGraph(("a", "b"), dense)
        assert dense.flags.writeable

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            LocalityGraph(("a", "a"), np.zeros((2, 2)))

    def test_modulation_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            DiagonalModulation(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_modulation_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DiagonalModulation(np.array([1.0, bad]))

    def test_top_nodes_ranking(self):
        g = load_edge_list("a b 1\nb a 1\na c 10\nc a 10")
        assert top_nodes_by_total_weight(g, 2) == ["a", "c"]

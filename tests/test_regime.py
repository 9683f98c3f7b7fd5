import functools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dieout.graphs import (DiagonalModulation, LocalityGraph, load_edge_list,
                           spectral_radius)
from dieout.regime import (Method, Regime, _decide, classify_decoupled,
                           classify_general, classify_scalar_D,
                           classify_symmetric)

from conftest import const_model, random_strong_digraph
from oracles import single_threshold_regime, weyl_pair_regime

#: curing rates: positive and finite, as the model requires
DELTAS = st.floats(min_value=1e-300, max_value=1e300)
#: thresholds, zero included
THRESHOLDS = st.floats(min_value=0.0, max_value=1e300)
#: relative bands, zero included
TOLS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))
#: (delta, threshold) pairs, with exact ties drawn often
PAIRS = st.one_of(st.tuples(DELTAS, THRESHOLDS), DELTAS.map(lambda d: (d, d)))


class TestDecide:
    """``_decide`` is the one rule every classifier reports through."""

    @given(PAIRS, TOLS)
    @example((2.0, 2.0), 0.0)
    @example((2.0, 0.0), 0.0)
    @example((3.0, 2.0), 1 / 3)  # margin exactly on the band's edge
    @example((2.0, 3.0), 1 / 3)
    def test_one_threshold_matches_the_former_rule(self, pair, tol):
        delta, t = pair
        report = _decide(const_model(1.0, 1.0, delta), t, t, tol,
                         Method.GENERAL_SPECTRAL)
        assert report.regime is single_threshold_regime(delta, t, tol)
        assert (report.threshold, report.delta) == (t, delta)
        assert report.margin == delta - t

    @given(DELTAS, THRESHOLDS, THRESHOLDS, TOLS)
    @example(2.0, 2.0, 2.0, 0.0)
    @example(2.0, 1.0, 3.0, 0.0)
    @example(2.0, 2.0, 3.0, 0.0)
    @example(2.0, 1.0, 2.0, 0.0)
    def test_bracket_matches_the_former_weyl_rule(self, delta, a, b, tol):
        lower, upper = min(a, b), max(a, b)
        report = _decide(const_model(1.0, 1.0, delta), lower, upper, tol,
                         Method.DECOUPLED_WEYL)
        regime, threshold = weyl_pair_regime(delta, lower, upper, tol)
        assert (report.regime, report.threshold) == (regime, threshold)
        assert report.margin == delta - threshold

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_end_raises(self, bad):
        model = const_model(1.0, 1.0, 2.0)
        for lower, upper in ((bad, 1.0), (1.0, bad), (bad, bad)):
            with pytest.raises(ValueError, match="not finite"):
                _decide(model, lower, upper, 0.0, Method.DECOUPLED_WEYL)

    def test_threshold_overflowing_float64_raises(self, k3):
        # rho(W) = 2 is finite, but beta_inf * rho(W) is not; the
        # record used to read long_lasting at threshold inf
        model = const_model(1e308, 0.0, 2.0)
        for classify in (classify_scalar_D, classify_decoupled):
            with pytest.raises(ValueError, match="not finite"):
                classify(k3, model, boundary_tol=0.0)
        with pytest.raises(ValueError, match="not finite"):
            classify_symmetric(2.0, model, boundary_tol=0.0)


class TestBoundaryTolerance:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_rejected_unless_finite_and_nonnegative(self, k3, tol):
        model = const_model(1.0, 1.0, 5.0)
        for classify in (classify_general, classify_scalar_D,
                         classify_decoupled):
            with pytest.raises(ValueError, match="boundary_tol"):
                classify(k3, model, boundary_tol=tol)
        with pytest.raises(ValueError, match="boundary_tol"):
            classify_symmetric(2.0, model, boundary_tol=tol)

    def test_zero_is_accepted(self, k3):
        report = classify_general(k3, const_model(1.0, 1.0, 5.0),
                                  boundary_tol=0.0)
        assert report.regime is Regime.FAST_EXTINCTION


class TestSymmetric:
    def test_above_threshold(self, airports):
        lam = spectral_radius(airports.weights).radius
        threshold = 2 * lam + 2
        report = classify_symmetric(lam, const_model(2.0, 2.0, 1.10 * threshold))
        assert report.regime is Regime.FAST_EXTINCTION
        assert report.margin == pytest.approx(0.10 * threshold)

    def test_below_threshold(self, airports):
        lam = spectral_radius(airports.weights).radius
        threshold = 2 * lam + 2
        report = classify_symmetric(lam, const_model(2.0, 2.0, 0.90 * threshold))
        assert report.regime is Regime.LONG_LASTING

    def test_vanishing_rates_always_fast(self):
        report = classify_symmetric(5.0, const_model(0.0, 0.0, 1e-6))
        assert report.regime is Regime.FAST_EXTINCTION
        assert report.threshold == 0.0

    def test_boundary_is_indeterminate(self):
        report = classify_symmetric(2.0, const_model(1.0, 1.0, 3.0))
        assert report.regime is Regime.INDETERMINATE

    def test_input_validation(self):
        with pytest.raises(ValueError):
            classify_symmetric(1.0, const_model(-1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            classify_symmetric(1.0, const_model(1.0, 0.0, 0.0))


class TestGeneral:
    def test_reduces_to_symmetric_with_identity_modulation(self, k3):
        lam = spectral_radius(k3.weights).radius
        for delta in (1.0, 5.9, 6.1, 9.0):
            sym = classify_symmetric(lam, const_model(2.0, 2.0, delta))
            gen = classify_general(
                k3, const_model(2.0, 2.0, delta, DiagonalModulation.uniform(3)))
            assert gen.regime is sym.regime
            assert gen.threshold == pytest.approx(sym.threshold, abs=1e-10)

    def test_diagonal_only_threshold(self, k3):
        d = DiagonalModulation(np.array([1.0, 3.0, 2.0]))
        report = classify_general(k3, const_model(0.0, 1.5, 10.0, d))
        assert report.threshold == pytest.approx(4.5, abs=1e-9)

    def test_matches_eig_oracle_on_asymmetric_graph(self):
        rng = np.random.default_rng(40)
        w = np.where(rng.random((5, 5)) < 0.6, rng.random((5, 5)) * 2, 0.0)
        np.fill_diagonal(w, 0.0)
        g = LocalityGraph(tuple("abcde"), w)
        d = DiagonalModulation(rng.random(5) + 0.5)
        beta_inf, betaint_inf = 1.3, 0.7
        eff = beta_inf * w + betaint_inf * np.diag(d.values)
        oracle = float(np.abs(np.linalg.eigvals(eff)).max())
        report = classify_general(
            g, const_model(beta_inf, betaint_inf, 2.0, d))
        assert report.threshold == pytest.approx(oracle, abs=1e-9)

    def test_flags_disconnected_graph(self):
        g = load_edge_list("a b 1")
        d = DiagonalModulation(np.array([1.0, 2.0]))
        report = classify_general(g, const_model(1.0, 1.0, 5.0, d))
        assert report.strongly_connected is False
        assert report.threshold == pytest.approx(2.0, abs=1e-9)

    def test_defective_reducible_matrix_propagates_nonconvergence(
            self, monkeypatch):
        # a one-way pair with identical diagonal gives a Jordan block,
        # where the residual decays like 1/k and the iteration cap hits;
        # a lower cap reaches it in a fraction of a second
        from dieout import regime
        from dieout.graphs import SpectralError
        monkeypatch.setattr(regime, "spectral_radius", functools.partial(
            spectral_radius, max_iterations=20_000))
        g = load_edge_list("a b 1")
        with pytest.raises(SpectralError):
            classify_general(
                g, const_model(1.0, 1.0, 5.0, DiagonalModulation.uniform(2)),
                spectral_tol=1e-13)

    def test_record_shape(self, k3):
        rec = classify_general(k3, const_model(
            2.0, 2.0, 7.0, DiagonalModulation.uniform(3))).as_record()
        assert rec["method"] == "general_spectral"
        assert rec["regime"] == "fast_extinction"
        assert set(rec) >= {"threshold", "delta", "margin"}


class TestScalarD:
    def test_eta_one_equals_general_identity(self, k3):
        for delta in (2.0, 6.0, 8.5):
            a = classify_scalar_D(k3, const_model(
                2.0, 2.0, delta, DiagonalModulation.uniform(3, 1.0)))
            b = classify_general(k3, const_model(
                2.0, 2.0, delta, DiagonalModulation.uniform(3)))
            assert a.regime is b.regime
            assert a.threshold == pytest.approx(b.threshold, abs=1e-9)

    def test_k3_arithmetic_example(self, k3):
        report = classify_scalar_D(k3, const_model(2.0, 2.0, 6.6))
        assert report.threshold == pytest.approx(6.0, abs=1e-9)
        assert report.regime is Regime.FAST_EXTINCTION

    def test_exact_boundary_indeterminate(self, k3):
        report = classify_scalar_D(k3, const_model(2.0, 2.0, 6.0))
        assert report.regime is Regime.INDETERMINATE

    def test_nonscalar_modulation_rejected(self, k3):
        d = DiagonalModulation(np.array([1.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="scalar"):
            classify_scalar_D(k3, const_model(2.0, 2.0, 6.0, d))
        with pytest.raises(ValueError, match="scalar"):
            classify_symmetric(2.0, const_model(2.0, 2.0, 6.0, d))


class TestDecoupled:
    def test_symmetric_scalar_modulation_gap_vanishes(self, k3):
        d = DiagonalModulation.uniform(3, 1.5)
        report = classify_decoupled(k3, const_model(2.0, 1.0, 3.0, d))
        assert report.lower_threshold == pytest.approx(
            report.upper_threshold, abs=1e-9)
        assert report.upper_threshold == pytest.approx(2 * 2 + 1.5, abs=1e-9)

    def test_gap_example_indeterminate_but_general_decides(self):
        g = load_edge_list("a b 4\nb a 1")
        d = DiagonalModulation.uniform(2)
        # rho(sqrt(W o W^T)) = 2, rho((W+W^T)/2) = 2.5, rho(W) = 2
        dec = classify_decoupled(g, const_model(1.0, 0.0, 2.2, d))
        assert dec.regime is Regime.INDETERMINATE
        assert dec.lower_threshold == pytest.approx(2.0, abs=1e-9)
        assert dec.upper_threshold == pytest.approx(2.5, abs=1e-9)
        gen = classify_general(g, const_model(1.0, 0.0, 2.2, d))
        assert gen.threshold == pytest.approx(2.0, abs=1e-9)
        assert gen.regime is Regime.FAST_EXTINCTION

    def test_record_carries_both_thresholds(self):
        g = load_edge_list("a b 4\nb a 1")
        rec = classify_decoupled(g, const_model(
            1.0, 0.0, 2.2, DiagonalModulation.uniform(2))).as_record()
        assert rec["lower_threshold"] == pytest.approx(2.0)
        assert rec["upper_threshold"] == pytest.approx(2.5)


class TestCrossMethodProperties:
    def _random_case(self, seed):
        rng = np.random.default_rng(seed)
        g = random_strong_digraph(seed, n=8)
        d = DiagonalModulation(rng.random(8) * 2 + 0.25)
        beta_inf = float(rng.random() * 2)
        betaint_inf = float(rng.random() * 2)
        return g, d, beta_inf, betaint_inf, rng

    def test_decoupled_never_contradicts_general(self):
        decisive = 0
        for seed in range(50):
            g, d, b, bi, rng = self._random_case(seed)
            delta = float(rng.random() * 6 + 1e-3)
            dec = classify_decoupled(g, const_model(b, bi, delta, d))
            gen = classify_general(g, const_model(b, bi, delta, d))
            if dec.regime is not Regime.INDETERMINATE:
                decisive += 1
                assert dec.regime is gen.regime
        assert decisive > 0  # the sweep must actually exercise the claim

    def test_scalar_equals_general_for_uniform_modulation(self):
        for seed in range(50):
            g = random_strong_digraph(seed, n=6, symmetric=True)
            rng = np.random.default_rng(1000 + seed)
            eta = float(rng.random() * 2 + 0.1)
            b, bi = float(rng.random() * 2), float(rng.random() * 2)
            delta = float(rng.random() * 6 + 1e-3)
            d = DiagonalModulation.uniform(6, eta)
            a = classify_scalar_D(g, const_model(b, bi, delta, d))
            c = classify_general(g, const_model(b, bi, delta, d))
            assert a.regime is c.regime
            assert a.threshold == pytest.approx(c.threshold, rel=1e-8,
                                                abs=1e-9)
            s = classify_symmetric(spectral_radius(g.weights).radius,
                                   const_model(b, bi * eta, delta))
            assert s.regime is a.regime

    def test_monotone_in_delta(self, k3):
        order = {Regime.LONG_LASTING: 0, Regime.INDETERMINATE: 1,
                 Regime.FAST_EXTINCTION: 2}
        d = DiagonalModulation.uniform(3)
        last = -1
        for delta in np.linspace(0.5, 12.0, 40):
            r = classify_general(k3, const_model(2.0, 2.0, float(delta), d))
            assert order[r.regime] >= last
            last = order[r.regime]

    def test_scale_covariance(self):
        for seed in range(10):
            g, d, b, bi, rng = self._random_case(100 + seed)
            delta = float(rng.random() * 6 + 1e-2)
            base = classify_general(g, const_model(b, bi, delta, d))
            for s in (0.01, 3.0, 250.0):
                scaled = classify_general(
                    g, const_model(s * b, s * bi, s * delta, d))
                assert scaled.regime is base.regime

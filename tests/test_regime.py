import functools
import itertools
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

from conftest import (check_decoupled_bracket, const_model,
                      random_strong_digraph)
from oracles import single_threshold_regime, weyl_pair_regime

#: curing rates: positive and finite, as the model requires
DELTAS = st.floats(min_value=1e-300, max_value=1e300)
#: thresholds, zero included
THRESHOLDS = st.floats(min_value=0.0, max_value=1e300)
#: relative bands, zero included
TOLS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))
#: (delta, threshold) pairs, with exact ties drawn often
PAIRS = st.one_of(st.tuples(DELTAS, THRESHOLDS), DELTAS.map(lambda d: (d, d)))
#: a two-way pair whose rho(W) the power iteration reads as exactly 2.0
PAIR = load_edge_list("a b 2\nb a 2")


def symmetric(model, g=PAIR, **kwargs):
    """The symmetric record, read from the decoupled report on ``g``."""
    return classify_symmetric(classify_decoupled(g, model, **kwargs), model)


def scalar_d(g, model):
    """The scalar-D record, read from the decoupled report on ``g``."""
    return classify_scalar_D(classify_decoupled(g, model), model)


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
        # record used to read long_lasting at threshold inf.  The
        # scalar-D and symmetric records derive from the decoupled one
        model = const_model(1e308, 0.0, 2.0)
        for g in (k3, PAIR):
            with pytest.raises(ValueError, match="not finite"):
                classify_decoupled(g, model, boundary_tol=0.0)


class TestBoundaryTolerance:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_rejected_unless_finite_and_nonnegative(self, k3, tol):
        model = const_model(1.0, 1.0, 5.0)
        for classify in (classify_general, classify_decoupled):
            with pytest.raises(ValueError, match="boundary_tol"):
                classify(k3, model, boundary_tol=tol)
        # the scalar-D and symmetric records take the decoupled one's band
        with pytest.raises(ValueError, match="boundary_tol"):
            symmetric(model, boundary_tol=tol)

    def test_zero_is_accepted(self, k3):
        report = classify_general(k3, const_model(1.0, 1.0, 5.0),
                                  boundary_tol=0.0)
        assert report.regime is Regime.FAST_EXTINCTION
        # on the pair the threshold is exactly 3.0: a zero band decides
        # just above and just below it
        for delta, regime in ((math.nextafter(3.0, 4.0),
                               Regime.FAST_EXTINCTION),
                              (math.nextafter(3.0, 2.0), Regime.LONG_LASTING),
                              (3.0, Regime.INDETERMINATE)):
            report = symmetric(const_model(1.0, 1.0, delta), boundary_tol=0.0)
            assert (report.threshold, report.regime) == (3.0, regime)


class TestSymmetric:
    # on PAIR, rho(W) = 2, so beta_inf = betaint_inf = 2 puts the
    # threshold at 2 * 2 + 2 = 6 exactly
    def test_above_threshold(self):
        report = symmetric(const_model(2.0, 2.0, 1.10 * 6.0))
        assert report.regime is Regime.FAST_EXTINCTION
        assert report.threshold == 6.0
        assert report.margin == pytest.approx(0.10 * 6.0)

    def test_below_threshold(self):
        report = symmetric(const_model(2.0, 2.0, 0.90 * 6.0))
        assert report.regime is Regime.LONG_LASTING
        assert report.threshold == 6.0

    def test_vanishing_rates_always_fast(self):
        report = symmetric(const_model(0.0, 0.0, 1e-6))
        assert report.regime is Regime.FAST_EXTINCTION
        assert report.threshold == 0.0

    def test_boundary_is_indeterminate(self):
        report = symmetric(const_model(1.0, 1.0, 3.0))
        assert report.regime is Regime.INDETERMINATE

    def test_input_validation(self):
        with pytest.raises(ValueError):
            symmetric(const_model(-1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            symmetric(const_model(1.0, 0.0, 0.0))

    def test_record_drops_bracket_and_connectivity(self):
        rec = symmetric(const_model(2.0, 2.0, 7.0)).as_record()
        assert rec == {"method": "symmetric_spectral",
                       "regime": "fast_extinction", "threshold": 6.0,
                       "delta": 7.0, "margin": 1.0}


class TestGeneral:
    def test_reduces_to_symmetric_with_identity_modulation(self, k3):
        for delta in (1.0, 5.9, 6.1, 9.0):
            sym = symmetric(const_model(2.0, 2.0, delta), g=k3)
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

    def test_nonconvergence_propagates(self, monkeypatch):
        # an irreducible matrix with the iteration cap lowered to two
        # steps: the SpectralError reaches the caller
        from dieout import regime
        from dieout.graphs import SpectralError
        monkeypatch.setattr(regime, "spectral_radius", functools.partial(
            spectral_radius, max_iterations=2))
        g = random_strong_digraph(3)
        with pytest.raises(SpectralError):
            classify_general(
                g, const_model(1.0, 1.0, 5.0,
                               DiagonalModulation.uniform(g.node_count)),
                spectral_tol=1e-13)

    @pytest.mark.parametrize("betaint_inf", [1.0, 0.0])
    def test_one_way_pair_root_is_exact_without_iteration(
            self, monkeypatch, betaint_inf):
        # A = W + betaint_inf*I on c -> a is a Jordan block at
        # betaint_inf: the whole-matrix iteration raised SpectralError
        # (1.0) or crept to 9.99998e-07 (0.0) after seconds; each 1x1
        # block's root is its diagonal entry
        from dieout import regime

        def refuse(*args, **kwargs):
            raise AssertionError("a 1x1 block was iterated")

        monkeypatch.setattr(regime, "spectral_radius", refuse)
        report = classify_general(load_edge_list("c a 1"), const_model(
            1.0, betaint_inf, 2.0, DiagonalModulation.uniform(2)))
        assert report.threshold == betaint_inf
        assert report.strongly_connected is False

    def test_record_shape(self, k3):
        rec = classify_general(k3, const_model(
            2.0, 2.0, 7.0, DiagonalModulation.uniform(3))).as_record()
        assert rec["method"] == "general_spectral"
        assert rec["regime"] == "fast_extinction"
        assert set(rec) >= {"threshold", "delta", "margin"}


class TestScalarD:
    def test_eta_one_equals_general_identity(self, k3):
        for delta in (2.0, 6.0, 8.5):
            a = scalar_d(k3, const_model(
                2.0, 2.0, delta, DiagonalModulation.uniform(3, 1.0)))
            b = classify_general(k3, const_model(
                2.0, 2.0, delta, DiagonalModulation.uniform(3)))
            assert a.regime is b.regime
            assert a.threshold == pytest.approx(b.threshold, abs=1e-9)

    def test_k3_arithmetic_example(self, k3):
        report = scalar_d(k3, const_model(2.0, 2.0, 6.6))
        assert report.threshold == pytest.approx(6.0, abs=1e-9)
        assert report.regime is Regime.FAST_EXTINCTION

    def test_exact_boundary_indeterminate(self, k3):
        report = scalar_d(k3, const_model(2.0, 2.0, 6.0))
        assert report.regime is Regime.INDETERMINATE

    def test_is_the_decoupled_point_without_bracket(self):
        d = DiagonalModulation.uniform(2, 1.5)
        model = const_model(2.0, 2.0, 6.6, d)
        dec = classify_decoupled(PAIR, model)
        rec = classify_scalar_D(dec, model).as_record()
        assert rec == {"method": "scalar_d", "regime": "long_lasting",
                       "threshold": 7.0, "delta": 6.6,
                       "margin": dec.margin, "strongly_connected": True}

    def test_nonscalar_modulation_rejected(self, k3):
        d = DiagonalModulation(np.array([1.0, 2.0, 1.0]))
        model = const_model(2.0, 2.0, 6.0, d)
        dec = classify_decoupled(k3, model)
        for derive in (classify_scalar_D, classify_symmetric):
            with pytest.raises(ValueError, match="scalar"):
                derive(dec, model)


class TestDecoupled:
    def test_symmetric_scalar_modulation_gap_vanishes(self, k3):
        d = DiagonalModulation.uniform(3, 1.5)
        report = classify_decoupled(k3, const_model(2.0, 1.0, 3.0, d))
        assert report.lower_threshold == pytest.approx(
            report.upper_threshold, abs=1e-9)
        assert report.upper_threshold == pytest.approx(2 * 2 + 1.5, abs=1e-9)

    def test_gap_example_indeterminate_but_general_decides(self):
        g = load_edge_list("a b 4\nb a 1")
        d = DiagonalModulation(np.array([1.0, 2.0]))
        # rho(W) = 2, so the bracket is 2 + [1, 2]; rho(A) = (3 + sqrt 17)/2
        dec = classify_decoupled(g, const_model(1.0, 1.0, 3.7, d))
        assert dec.regime is Regime.INDETERMINATE
        assert dec.lower_threshold == pytest.approx(3.0, abs=1e-9)
        assert dec.upper_threshold == pytest.approx(4.0, abs=1e-9)
        gen = classify_general(g, const_model(1.0, 1.0, 3.7, d))
        assert gen.threshold == pytest.approx((3 + math.sqrt(17)) / 2,
                                              abs=1e-9)
        assert gen.regime is Regime.FAST_EXTINCTION

    def test_record_carries_both_thresholds(self):
        g = load_edge_list("a b 4\nb a 1")
        rec = classify_decoupled(g, const_model(
            1.0, 1.0, 3.7, DiagonalModulation(np.array([1.0, 2.0])))
        ).as_record()
        assert rec["lower_threshold"] == pytest.approx(3.0)
        assert rec["upper_threshold"] == pytest.approx(4.0)

    def test_one_way_pair_bracket_is_exact(self):
        # rho(W) = 0 on a b: the bracket is [min D, max D] exactly
        dec = classify_decoupled(load_edge_list("a b 1"), const_model(
            1.0, 1.0, 5.0, DiagonalModulation(np.array([1.0, 2.0]))))
        assert (dec.lower_threshold, dec.upper_threshold) == (1.0, 2.0)


class TestCrossMethodProperties:
    def _random_case(self, seed, ring=True):
        rng = np.random.default_rng(seed)
        g = random_strong_digraph(seed, n=8, ring=ring)
        d = DiagonalModulation(rng.random(8) * 2 + 0.25)
        beta_inf = float(rng.random() * 2)
        betaint_inf = float(rng.random() * 2)
        return g, d, beta_inf, betaint_inf, rng

    def test_decoupled_never_contradicts_general(self):
        # strongly connected and (ring dropped) mostly reducible graphs
        decisive = 0
        for seed, ring in itertools.product(range(50), (True, False)):
            g, d, b, bi, rng = self._random_case(seed, ring)
            delta = float(rng.random() * 6 + 1e-3)
            dec = classify_decoupled(g, const_model(b, bi, delta, d))
            gen = classify_general(g, const_model(b, bi, delta, d))
            if dec.regime is not Regime.INDETERMINATE:
                decisive += 1
                assert dec.regime is gen.regime
        assert decisive > 0  # the sweep must actually exercise the claim

    @pytest.mark.parametrize("ring", [True, False])
    def test_decoupled_bracket_holds_rho_A(self, ring):
        # rho(A) from eigvals lies in the bracket, which lies inside the
        # former Weyl bracket; D = eta*I collapses it to scalar_d's; the
        # general threshold is rho(A)
        reducible = 0
        for seed in range(50):
            g, d, b, bi, rng = self._random_case(seed, ring)
            reducible += g._components[0] > 1
            rho_a = check_decoupled_bracket(g, d, b, bi,
                                            float(rng.random() + 0.1))
            gen = classify_general(g, const_model(b, bi, 1.0, d))
            assert gen.threshold == pytest.approx(rho_a, rel=1e-9, abs=1e-12)
        assert reducible == 0 if ring else reducible > 20

    def test_scalar_equals_general_for_uniform_modulation(self):
        for seed in range(50):
            g = random_strong_digraph(seed, n=6, symmetric=True)
            rng = np.random.default_rng(1000 + seed)
            eta = float(rng.random() * 2 + 0.1)
            b, bi = float(rng.random() * 2), float(rng.random() * 2)
            delta = float(rng.random() * 6 + 1e-3)
            d = DiagonalModulation.uniform(6, eta)
            a = scalar_d(g, const_model(b, bi, delta, d))
            c = classify_general(g, const_model(b, bi, delta, d))
            assert a.regime is c.regime
            assert a.threshold == pytest.approx(c.threshold, rel=1e-8,
                                                abs=1e-9)
            s = symmetric(const_model(b, bi * eta, delta), g=g)
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

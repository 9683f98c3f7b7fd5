import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dieout.chains import (BirthDeathSpec, InfiniteHittingTimeError,
                           PrecisionConfig, asymptote_ratio,
                           bound_chains_from_graph, equilibrium_lower_bound,
                           expected_T1, hitting_table,
                           positive_recurrence_check, s_tail_series,
                           s_values_float)
from dieout.rates import (Constant, ExactnessError, LogOverN, Step,
                          parse_profile)

from dieout.gillespie import SimConfig, simulate_run
from dieout.graphs import DiagonalModulation, EpidemicModel, LocalityGraph

from conftest import random_strong_digraph
from oracles import (EpidemicState, node_rates, s_recursion_step,
                     stationary_distribution)

RATIONAL = PrecisionConfig(mode="rational", series_rel_tol=1e-30)
BF256 = PrecisionConfig(mode="bigfloat", bits=256, series_rel_tol=1e-40)


def harmonic_number(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def spec_of(text: str, delta="1") -> BirthDeathSpec:
    return BirthDeathSpec(parse_profile(text), Fraction(delta))


class TestRecurrenceCheck:
    def test_constant_below_delta_converges(self):
        assert positive_recurrence_check(spec_of("const:0.5"))

    def test_constant_at_delta_diverges_harmonically(self):
        check = positive_recurrence_check(spec_of("const:1"))
        assert not check
        assert "harmonic" in check.reason

    def test_constant_above_delta_diverges(self):
        assert not positive_recurrence_check(spec_of("const:2"))

    def test_harmonic_always_converges(self):
        for delta in ("1", "1/100", "17"):
            assert positive_recurrence_check(spec_of("harmonic:50", delta))

    def test_vanishing_gamma_truncates_series(self):
        # the raised-then-zero coefficient keeps the chain finite even
        # though gamma exceeds delta early on
        assert positive_recurrence_check(spec_of("step:5,0,100"))

    def test_step_with_tail_at_delta_diverges(self):
        assert not positive_recurrence_check(spec_of("step:0.1,1,10"))


class TestExpectedT1:
    def test_pure_death(self):
        r = expected_T1(spec_of("const:0"), RATIONAL)
        assert r.value == Fraction(1)
        assert r.certified

    def test_pure_death_scales_with_delta(self):
        r = expected_T1(spec_of("const:0", delta="5/2"), RATIONAL)
        assert r.value == Fraction(2, 5)

    def test_harmonic_closed_form(self):
        # gamma = k/n at delta = 1 sums to (e^k - 1)/k
        for k in (1, 2, 5):
            r = expected_T1(spec_of(f"harmonic:{k}"), BF256)
            with mpmath.mp.workprec(256):
                closed = (mpmath.e ** k - 1) / k
                assert abs(r.value - closed) / closed < mpmath.mpf(10) ** -50
            assert r.certified

    def test_constant_half_matches_log_series(self):
        # sum (1/i) x^{i-1} = -ln(1-x)/x at x = 1/2 gives 2 ln 2
        r = expected_T1(spec_of("const:1/2"), BF256)
        with mpmath.mp.workprec(256):
            closed = 2 * mpmath.log(2)
            rel = abs(r.value - closed) / closed
            assert rel < 10 * mpmath.mpf(BF256.series_rel_tol)

    def test_divergent_series_raises(self):
        with pytest.raises(InfiniteHittingTimeError,
                           match="infinite expected hitting time"):
            expected_T1(spec_of("const:1"), BF256)

    def test_rational_kernel_rejects_irrational_profile(self):
        spec = BirthDeathSpec(LogOverN(Fraction(1)), Fraction(1))
        with pytest.raises(ExactnessError):
            expected_T1(spec, RATIONAL)

    def test_logn_works_in_bigfloat(self):
        spec = BirthDeathSpec(LogOverN(Fraction(1)), Fraction(1))
        r = expected_T1(spec, BF256)
        assert r.certified
        assert float(r.value) > 1.0


class TestTailSeries:
    def test_pure_death_increment(self):
        for n in (1, 2, 17, 400):
            r = s_tail_series(spec_of("const:0"), n, RATIONAL)
            assert r.value == Fraction(1, n)
            assert r.certified

    def test_constant_increment_bounds(self):
        # 1/(delta n) <= S_n <= 1/((delta - alpha) n)
        for alpha in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            spec = BirthDeathSpec(Constant(alpha), Fraction(1))
            for n in (1, 3, 10, 250):
                r = s_tail_series(spec, n, RATIONAL)
                assert Fraction(1, n) <= r.value <= 1 / ((1 - alpha) * n)

    def test_matches_exact_recursion_oracle(self):
        # forward recursion from the same truncation index agrees exactly
        spec = spec_of("harmonic:5")
        t1 = expected_T1(spec, RATIONAL)
        s = t1.value
        for n in range(1, 31):
            tail = s_tail_series(spec, n, RATIONAL, truncate_at=t1.truncated_at)
            assert tail.value == s
            s = s_recursion_step(spec, s, n)

    def test_recursion_undefined_at_zero_gamma(self):
        spec = spec_of("step:2,0,10")
        with pytest.raises(ZeroDivisionError, match="s_tail_series"):
            s_recursion_step(spec, Fraction(1), 11)

    def test_row_divergence_beyond_zero_region(self):
        # gamma is zero early (finite chain from below) but exceeds
        # delta afterwards: rows past the zero region diverge
        spec = spec_of("step:0,2,5")
        r = s_tail_series(spec, 3, RATIONAL)  # inside the zero region
        assert r.value == Fraction(1, 3)
        with pytest.raises(InfiniteHittingTimeError):
            s_tail_series(spec, 7, RATIONAL)

    def test_forced_truncation_reported(self):
        spec = spec_of("const:1/2")
        r = s_tail_series(spec, 4, RATIONAL, truncate_at=50)
        assert r.truncated_at == 50


class TestHittingTable:
    def test_pure_death_gives_harmonic_numbers(self):
        table = hitting_table(spec_of("const:0"), 50, RATIONAL)
        for n in (1, 2, 10, 50):
            assert table.T[n - 1] == harmonic_number(n)
        assert table.certified

    def test_strictly_increasing_and_positive(self):
        table = hitting_table(spec_of("harmonic:3"), 200, BF256)
        values = [float(t) for t in table.T]
        assert all(s > 0 for s in table.S)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_constant_envelope_rows(self):
        alpha = Fraction(1, 2)
        table = hitting_table(BirthDeathSpec(Constant(alpha), Fraction(1)),
                              500, RATIONAL)
        for n in range(1, 501):
            t = table.T[n - 1]
            assert t >= Fraction(math.floor(math.log(n + 1) * 10**9), 10**9)
            hi = (1 + math.log(n)) / float(1 - alpha)
            assert float(t) <= hi

    def test_monte_carlo_agreement_at_small_n(self):
        # independent one-dimensional chain simulation (direct, not the
        # network simulator)
        spec = spec_of("harmonic:2")
        table = hitting_table(spec, 5, BF256)
        rng = np.random.default_rng(4242)
        gamma = spec.gamma.as_float_fn()
        runs = 4000
        times = np.empty(runs)
        for r in range(runs):
            n, t = 5, 0.0
            while n > 0:
                birth = gamma(n) * n
                total = birth + 1.0 * n
                t += rng.exponential(1.0 / total)
                n += 1 if rng.random() * total < birth else -1
            times[r] = t
        se = times.std(ddof=1) / math.sqrt(runs)
        assert abs(times.mean() - float(table.T[4])) < 3 * se

    def test_sandwich_from_graph_chains(self, star4):
        beta = parse_profile("harmonic:2")
        beta_int = parse_profile("harmonic:1")
        upper, lower = bound_chains_from_graph(
            star4, EpidemicModel(beta, beta_int, "1"))
        t_hi = hitting_table(upper, 60, BF256)
        t_lo = hitting_table(lower, 60, BF256)
        for a, b in zip(t_lo.T, t_hi.T):
            assert a <= b


class TestGraphChains:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    @pytest.mark.parametrize("modulated", [False, True])
    def test_chains_bracket_per_capita_birth_rate(self, seed, modulated):
        # along simulated trajectories on directed graphs, the epidemic's
        # birth rate per case lies between the two chains' coefficients
        g = random_strong_digraph(seed, n=9)
        rng = np.random.default_rng(seed)
        d = (DiagonalModulation(rng.uniform(0.2, 5.0, g.node_count))
             if modulated else None)
        beta = parse_profile("harmonic:6")
        beta_int = parse_profile("step:2,1/2,12")
        model = EpidemicModel(beta, beta_int, "3", d)
        upper, lower = bound_chains_from_graph(g, model)
        cfg = SimConfig(model, t_max=3.0, n0=12, master_seed=seed,
                        record_events=True)
        events = 0
        for run in range(4):
            traj = simulate_run(cfg, g, run)
            counts = traj.initial.copy()
            for _, node, delta_count in traj.events:
                n = int(counts.sum())
                birth, _, _ = node_rates(EpidemicState.from_counts(counts),
                                         g, model)
                per_case = birth.sum() / n
                assert lower.gamma.value(n) * (1 - 1e-12) <= per_case
                assert per_case <= upper.gamma.value(n) * (1 + 1e-12)
                counts[node] += delta_count
                events += 1
        assert events >= 100

    def test_chain_coefficients_on_hub_graph(self):
        # five-node hub that exerts pressure on every leaf and receives
        # none: column sums (4, 0, 0, 0, 0), row sums (0, 1, 1, 1, 1);
        # a case at the hub with D = (5, 1, 1, 1, 1) adds 4 + 5 births
        w = np.zeros((5, 5))
        w[1:, 0] = 1.0
        g = LocalityGraph(tuple("hbcde"), w)
        d = DiagonalModulation(np.array([5.0, 1, 1, 1, 1]))
        upper, lower = bound_chains_from_graph(
            g, EpidemicModel(Constant(Fraction(1)), Constant(Fraction(1)),
                             "1", d))
        assert upper.gamma.value_exact(1) == 4 + 5
        assert lower.gamma.value_exact(1) == 0 + 1


class TestAsymptote:
    def test_pure_death_ratio_is_harmonic_over_log(self):
        spec = spec_of("const:0")
        pts = [10, 100, 10_000, 100_000]
        ratios = dict(asymptote_ratio(spec, pts, BF256))
        for n in pts:
            expected = float(harmonic_number(n)) / math.log(n)
            assert ratios[n] == pytest.approx(expected, rel=1e-9)
        # approach to 1 from above, slowly: ~ euler-gamma / ln n
        assert ratios[100_000] == pytest.approx(
            1 + 0.5772156649 / math.log(100_000), rel=1e-3)

    def test_harmonic_gamma_n_times_s_approaches_one(self):
        spec = spec_of("harmonic:5")
        svals = s_values_float(spec, 5000, BF256)
        ns = np.arange(1, 5001)
        ratio = ns * svals[1:]
        assert (ratio > 0).all()
        assert np.all(np.diff(ratio[1:]) < 0)  # decreasing from n = 2
        assert abs(ratio[-1] - 1) < 0.01

    def test_constant_gamma_ratio_stays_in_envelope(self):
        alpha = 0.5
        spec = spec_of("const:1/2")
        ratios = dict(asymptote_ratio(spec, [10**4, 10**5], BF256))
        for n, r in ratios.items():
            assert 1.0 - 1e-9 <= r <= 1.0 / (1.0 - alpha) + 1.0

    def test_rejects_states_below_two(self):
        with pytest.raises(ValueError):
            asymptote_ratio(spec_of("const:0"), [1, 10], BF256)

    def test_vanishing_gamma_epsilon_bound_is_bounded(self):
        # for vanishing gamma, T_n <= ln(n)/(delta - eps) + h(eps) with
        # h independent of n: the deficit T_n - ln(n)/(delta - eps)
        # peaks at moderate n and decreases from there on, because
        # n*S_n -> 1 < 1/(1 - eps)
        spec = spec_of("harmonic:5")
        n_max = 100_000
        svals = s_values_float(spec, n_max, BF256)
        t_cum = np.cumsum(svals[1:])
        ns = np.arange(1, n_max + 1)
        for eps in (0.1, 0.5):
            deficit = t_cum - np.log(ns) / (1.0 - eps)
            peak = int(deficit.argmax())
            assert peak < 5000
            tail = deficit[peak:]
            assert np.all(np.diff(tail) < 1e-12)
            assert deficit[-1] <= deficit[peak]


class TestStationaryDistribution:
    def test_pure_death_two_states(self):
        spec = spec_of("const:0")
        pi = stationary_distribution(spec, 5, RATIONAL, theta=3)
        assert pi[0] == Fraction(1, 4)  # delta/(delta+theta)
        assert pi[1] == Fraction(3, 4)
        assert all(p == 0 for p in pi[2:])
        t1 = (1 / pi[0] - 1) / 3
        assert t1 == expected_T1(spec, RATIONAL).value

    def test_renewal_identity_recovers_T1(self):
        spec = spec_of("const:1/2")
        pi = stationary_distribution(spec, 300, RATIONAL)
        t1 = 1 / pi[0] - 1  # theta = 1
        series = expected_T1(spec, RATIONAL).value
        assert abs(t1 - series) < Fraction(1, 10**9)

    def test_theta_invariance(self):
        recovered = []
        for theta in ("1/10", "1", "10"):
            spec = spec_of("const:1/2")
            pi = stationary_distribution(spec, 300, RATIONAL, theta=theta)
            recovered.append((1 / pi[0] - 1) / Fraction(theta))
        assert abs(recovered[0] - recovered[1]) < Fraction(1, 10**9)
        assert abs(recovered[1] - recovered[2]) < Fraction(1, 10**9)

    def test_divergent_chain_rejected(self):
        with pytest.raises(InfiniteHittingTimeError):
            stationary_distribution(spec_of("const:2"), 10, RATIONAL)


class TestEquilibriumBound:
    def test_arithmetic_example(self):
        assert equilibrium_lower_bound(1, 1, 10) == Fraction(2047, 11)

    def test_monotone_in_epsilon_and_N(self):
        base = equilibrium_lower_bound(Fraction(1, 2), 1, 20)
        assert equilibrium_lower_bound(Fraction(3, 4), 1, 20) > base
        assert equilibrium_lower_bound(Fraction(1, 2), 1, 30) > base

    def test_T1_dominates_bound(self):
        for eps, N in ((Fraction(1), 10), (Fraction(1, 2), 50)):
            spec = BirthDeathSpec(Step(1 + eps, Fraction(0), N), Fraction(1))
            t1 = expected_T1(spec, RATIONAL)
            assert t1.certified
            assert t1.value >= equilibrium_lower_bound(eps, 1, N)

    def test_exact_finite_sum_for_step_profile(self):
        # gamma = delta + eps up to N, zero beyond: the series is the
        # finite sum (1/delta) * sum_{i=1}^{N+1} (1/i) ((delta+eps)/delta)^{i-1}
        eps, N = Fraction(1), 10
        spec = BirthDeathSpec(Step(1 + eps, Fraction(0), N), Fraction(1))
        t1 = expected_T1(spec, RATIONAL)
        direct = sum(Fraction(1, i) * (1 + eps) ** (i - 1)
                     for i in range(1, N + 2))
        assert t1.value == direct


class TestPrecisionHonesty:
    def test_doubling_precision_changes_less_than_tolerance(self):
        spec = spec_of("harmonic:5")
        tol = 1e-30
        a = expected_T1(spec, PrecisionConfig("bigfloat", 128, tol)).value
        b = expected_T1(spec, PrecisionConfig("bigfloat", 256, tol)).value
        with mpmath.mp.workprec(512):
            assert abs(a - b) / b < 2 * mpmath.mpf(tol)

    def test_forward_recursion_unstable_in_128_bits(self):
        # the tail series stays certified while the forward recursion
        # degrades into noise once gamma(n) is small
        spec = spec_of("harmonic:5")
        prec = PrecisionConfig("bigfloat", 128, 1e-30)
        table = hitting_table(spec, 150, PrecisionConfig("bigfloat", 256,
                                                         1e-40))
        with mpmath.mp.workprec(128):
            s = expected_T1(spec, prec).value
        bad = None
        for n in range(1, 150):
            s = s_recursion_step(spec, s, n, prec)
            rel = abs(float(s - table.S[n])) / float(table.S[n])
            if rel > 0.1:
                bad = n + 1
                break
        assert bad is not None, "128-bit recursion unexpectedly stayed accurate"
        assert bad < 120

    def test_certified_flag_false_when_max_terms_too_small(self):
        spec = spec_of("const:0.9")
        tight = PrecisionConfig("bigfloat", 256, 1e-40, max_terms=20)
        r = s_tail_series(spec, 5, tight)
        assert not r.certified

    def test_rational_and_bigfloat_agree(self):
        spec = spec_of("step:3,1/2,10")
        a = expected_T1(spec, RATIONAL).value
        b = expected_T1(spec, BF256).value
        with mpmath.mp.workprec(300):
            af = mpmath.mpf(a.numerator) / a.denominator
            assert abs(af - b) / af < mpmath.mpf(10) ** -35


class TestRandomizedOracleEquivalence:
    """Exactness of the two hitting-time routes over random parameters."""

    from hypothesis import assume, example, given, settings
    from hypothesis import strategies as st

    # The bounds are the extreme fractions with denominator <= 50 in
    # [1/100, 97/100]; Hypothesis rejects bounds whose denominator
    # exceeds max_denominator.  The examples pin the domain's corners.
    @given(alpha=st.fractions(min_value=Fraction(1, 50),
                              max_value=Fraction(32, 33),
                              max_denominator=50),
           delta=st.fractions(min_value=Fraction(1, 2), max_value=3,
                              max_denominator=20))
    @example(alpha=Fraction(1, 50), delta=Fraction(1, 2))
    @example(alpha=Fraction(1, 50), delta=Fraction(3))
    @example(alpha=Fraction(32, 33), delta=Fraction(1, 2))
    @example(alpha=Fraction(32, 33), delta=Fraction(3))
    @settings(max_examples=30, deadline=None)
    def test_constant_profiles(self, alpha, delta):
        spec = BirthDeathSpec(Constant(alpha * delta), delta)
        t1 = expected_T1(spec, RATIONAL)
        s = t1.value
        for n in range(1, 13):
            tail = s_tail_series(spec, n, RATIONAL,
                                 truncate_at=t1.truncated_at)
            assert tail.value == s
            s = s_recursion_step(spec, s, n)

    @given(k=st.fractions(min_value=Fraction(1, 10), max_value=8,
                          max_denominator=40))
    @settings(max_examples=30, deadline=None)
    def test_harmonic_profiles(self, k):
        spec = BirthDeathSpec(parse_profile(f"harmonic:{k}"), Fraction(1))
        t1 = expected_T1(spec, RATIONAL)
        s = t1.value
        for n in range(1, 13):
            tail = s_tail_series(spec, n, RATIONAL,
                                 truncate_at=t1.truncated_at)
            assert tail.value == s
            s = s_recursion_step(spec, s, n)

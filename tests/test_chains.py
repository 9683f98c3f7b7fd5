import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dieout import chains
from dieout.chains import (BirthDeathSpec, InfiniteHittingTimeError,
                           PrecisionConfig, asymptote_ratio,
                           bound_chains_from_graph, equilibrium_lower_bound,
                           expected_T1, hitting_table, s_tail_series,
                           _BackwardLog)
from dieout.rates import (Combined, Constant, ExactnessError, LogOverN,
                          Scaled, Step, Table, parse_profile)

from dieout.gillespie import SimConfig, simulate_run
from dieout.graphs import DiagonalModulation, EpidemicModel, LocalityGraph

from conftest import random_strong_digraph
from oracles import (EpidemicState, fraction_tail, node_rates,
                     positive_recurrence_check, s_recursion_step,
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

    def test_irrational_profile_rejected_before_any_pass(self, monkeypatch):
        def fail(*args):
            raise AssertionError("kernel work started")
        for name in ("_plan_truncation", "_exact_pass", "_fixed_pass"):
            monkeypatch.setattr(chains, name, fail)
        spec = BirthDeathSpec(parse_profile("logn:1.5"), Fraction(1))
        with pytest.raises(ExactnessError, match="rational"):
            hitting_table(spec, 10, RATIONAL)
        with pytest.raises(ExactnessError, match="rational"):
            asymptote_ratio(spec, [5, 10], RATIONAL)

    @pytest.mark.parametrize("mode", ["rational", "bigfloat"])
    def test_max_terms_below_n_max_rejected_before_any_pass(
            self, mode, monkeypatch):
        def fail(*args):
            raise AssertionError("kernel work started")
        for name in ("_plan_truncation", "_exact_pass", "_fixed_pass"):
            monkeypatch.setattr(chains, name, fail)
        precision = PrecisionConfig(mode, max_terms=30)
        with pytest.raises(ValueError, match=r"max_terms 30 .* state 50"):
            hitting_table(spec_of("harmonic:5"), 50, precision)
        with pytest.raises(ValueError, match=r"max_terms 30 .* state 40"):
            asymptote_ratio(spec_of("harmonic:5"), [10, 40], precision)

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
    def test_S_and_T_are_public_numbers_built_once(self):
        spec = spec_of("harmonic:5", "3/2")
        rational = hitting_table(spec, 30, RATIONAL)
        # per-row tuples and numbers wait for their first reader
        assert not {"s_pairs", "t_pairs", "S", "T"} & vars(rational).keys()
        assert all(type(x) is Fraction for x in rational.S + rational.T)
        values = fraction_tail(spec, 30, RATIONAL).values[1:]
        assert rational.S == tuple(values)
        assert rational.T == tuple(itertools.accumulate(values))
        big = hitting_table(spec, 30, BF256)
        assert all(type(x) is mpmath.mpf for x in big.S + big.T)
        with mpmath.mp.workprec(2048):
            for x, (p, q) in zip(big.S + big.T, big.s_pairs + big.t_pairs):
                assert x == mpmath.mpf(p) / q
            for x, y in zip(big.T, rational.T):  # both certified
                y = mpmath.mpf(y.numerator) / y.denominator
                assert abs(y - x) <= y * mpmath.mpf(2e-30)
        for table in (rational, big):
            assert table.S is table.S and table.T is table.T

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
        ratios = dict(asymptote_ratio(spec, pts, BF256).ratios)
        for n in pts:
            expected = float(harmonic_number(n)) / math.log(n)
            assert ratios[n] == pytest.approx(expected, rel=1e-9)
        # approach to 1 from above, slowly: ~ euler-gamma / ln n
        assert ratios[100_000] == pytest.approx(
            1 + 0.5772156649 / math.log(100_000), rel=1e-3)

    def test_harmonic_gamma_n_times_s_approaches_one(self):
        spec = spec_of("harmonic:5")
        svals = np.array([p / q for p, q in
                          hitting_table(spec, 5000, BF256).s_pairs])
        ns = np.arange(1, 5001)
        ratio = ns * svals
        assert (ratio > 0).all()
        assert np.all(np.diff(ratio[1:]) < 0)  # decreasing from n = 2
        assert abs(ratio[-1] - 1) < 0.01

    def test_constant_gamma_ratio_stays_in_envelope(self):
        alpha = 0.5
        spec = spec_of("const:1/2")
        ratios = dict(asymptote_ratio(spec, [10**4, 10**5], BF256).ratios)
        for n, r in ratios.items():
            assert 1.0 - 1e-9 <= r <= 1.0 / (1.0 - alpha) + 1.0

    @pytest.mark.parametrize("precision", [RATIONAL, BF256],
                             ids=["rational", "bigfloat"])
    def test_ratios_come_from_the_table_prefix_sums(self, precision):
        # the same exact T_n as hitting.csv, rounded once to float64
        spec = BirthDeathSpec(parse_profile("harmonic:2"), Fraction(3, 2))
        states = [2, 7, 40, 300, 1000, 2500]
        t_pairs = hitting_table(spec, max(states), precision).t_pairs
        assert asymptote_ratio(spec, states, precision).ratios == [
            (n, 1.5 * (t_pairs[n - 1][0] / t_pairs[n - 1][1]) / math.log(n))
            for n in states]

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
        svals = np.array([p / q for p, q in
                          hitting_table(spec, n_max, BF256).s_pairs])
        t_cum = np.cumsum(svals)
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


def assert_matches_fraction_oracle(spec, n_hi, precision):
    """The integer pass and its table equal the Fraction loop exactly."""
    want = fraction_tail(spec, n_hi, precision)
    table = hitting_table(spec, n_hi, precision)
    assert table.truncated_at == want.truncated_at
    assert table.extension_passes == want.passes
    assert table.row_certified == tuple(want.certified[1:])
    for j in range(1, n_hi + 1):
        (p, q), bound = table.s_pairs[j - 1], table.bounds[j - 1]
        assert Fraction(p, q) == want.values[j]
        if want.bounds[j] is None:
            assert bound is None
        else:
            assert Fraction(bound, q) == want.bounds[j]
    assert table.S == tuple(want.values[1:])
    assert table.T == tuple(itertools.accumulate(want.values[1:]))
    return want


class TestIntegerRationalPass:
    """The rational kernel's integer pass against the Fraction loop."""

    @pytest.mark.parametrize("text, delta", [
        ("harmonic:5", "1"), ("harmonic:4.5", "1"),
        ("step:3/2,0,12", "1"), ("step:3/2,0,12", "3/2"),
        ("harmonic:5", "3/2"), ("step:3,1/2,10", "3/2")])
    def test_reproduces_fraction_oracle(self, text, delta):
        want = assert_matches_fraction_oracle(spec_of(text, delta), 40,
                                              RATIONAL)
        assert all(want.certified[1:])
        if text.startswith("step:3/2,0"):  # gamma vanishes: exact
            assert all(b == 0 for b in want.bounds[1:])

    @pytest.mark.parametrize("text", ["harmonic:5", "step:2,1/2,50"])
    def test_extension_passes_match(self, text, monkeypatch):
        monkeypatch.setattr(chains, "_plan_truncation",
                            lambda spec, n_hi, precision: n_hi + 1)
        want = assert_matches_fraction_oracle(spec_of(text, "3/2"), 40,
                                              RATIONAL)
        assert want.passes >= 1

    def test_missing_tail_bound_matches(self):
        # capped below n = 50, where gamma/delta = 2 leaves no tail bound
        want = assert_matches_fraction_oracle(
            spec_of("step:2,1/2,50"), 40,
            PrecisionConfig("rational", max_terms=45))
        assert want.truncated_at == 45
        assert all(b is None for b in want.bounds[1:])
        assert not any(want.certified)

    def test_vanished_gamma_without_tail_bound_matches(self):
        # gamma is zero up to 5 and above delta beyond: no tail bound,
        # but the series stops exactly
        want = assert_matches_fraction_oracle(
            spec_of("step:0,2,5"), 5, PrecisionConfig("rational",
                                                      max_terms=100))
        assert want.truncated_at == 5
        assert want.bounds[1:] == [0] * 5
        assert all(want.certified[1:])

    def test_long_table_matches_oracle(self):
        spec = spec_of("harmonic:5", "3/2")
        want = fraction_tail(spec, 300, RATIONAL)
        table = hitting_table(spec, 300, RATIONAL)
        assert table.S == tuple(want.values[1:])
        assert table.T[-1] == sum(want.values[1:])
        assert table.row_certified == tuple(want.certified[1:])


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


def reference_increments(spec: BirthDeathSpec, n_hi: int, terms: int):
    """S_1..S_{n_hi} by the backward recursion in 1024-bit mpmath,
    truncated at ``terms`` (far past where the tail matters)."""
    with mpmath.mp.workprec(1024):
        delta = mpmath.mpf(spec.delta.numerator) / spec.delta.denominator
        s, out = mpmath.mpf(0), {}
        for j in range(terms, 0, -1):
            s = 1 / (delta * j) + spec.gamma.value_mpf(j) / delta * s
            if j <= n_hi:
                out[j] = s
        return out


TABLE = Table(((1, Fraction(3)), (2, Fraction(5, 2)), (4, Fraction(0)),
               (6, Fraction(1, 3))), Fraction(1, 2))


class TestRoundingCertificate:
    """``certified`` covers rounding as well as truncation."""

    def test_64_bit_T1_at_1e_30_is_not_certified(self):
        r = expected_T1(spec_of("harmonic:5"),
                        PrecisionConfig("bigfloat", 64, 1e-30))
        assert not r.certified
        with mpmath.mp.workprec(512):
            closed = (mpmath.e ** 5 - 1) / 5
            err = abs(r.value - closed)
            assert 0 < err <= r.error_bound

    @pytest.mark.parametrize("gamma", [
        parse_profile("harmonic:5"), parse_profile("step:3,1/2,10"),
        parse_profile("const:1/2"), TABLE])
    @pytest.mark.parametrize("bits, tol", [
        (64, 1e-15), (64, 1e-30), (128, 1e-30), (128, 1e-45)])
    def test_rows_against_rational_mode(self, gamma, bits, tol):
        spec = BirthDeathSpec(gamma, Fraction(7, 8))
        precision = PrecisionConfig("bigfloat", bits, tol)
        exact = hitting_table(spec, 60, PrecisionConfig(
            "rational", series_rel_tol=1e-60))
        assert exact.certified
        certified = 0
        for n in (1, 2, 3, 5, 7, 30, 60):
            r = s_tail_series(spec, n, precision)
            # same truncation: the fixed-point value sits below the
            # truncated sum, by less than 2**-bits relative
            trunc = s_tail_series(spec, n, RATIONAL,
                                  truncate_at=r.truncated_at).value
            with mpmath.mp.workprec(1024):
                x = mpmath.mpf(exact.S[n - 1].numerator) / \
                    exact.S[n - 1].denominator
                t = mpmath.mpf(trunc.numerator) / trunc.denominator
                assert 0 <= t - r.value <= t * mpmath.mpf(2) ** -bits
                err = abs(r.value - x)
                assert err <= r.error_bound + x * mpmath.mpf(1e-60)
                if r.certified:
                    certified += 1
                    assert err <= x * mpmath.mpf(tol)
        if (bits, tol) in ((64, 1e-15), (128, 1e-30)):
            assert certified == 7

    @pytest.mark.parametrize("text", ["logn:1.5", "logn:1/3"])
    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_logn_bound_holds_against_1024_bit_reference(self, text, bits):
        gamma = parse_profile(text)
        combined = Combined(Scaled(Fraction(2, 3), gamma),
                            parse_profile("step:1/5,1/9,12"))
        for g in (gamma, combined):
            spec = BirthDeathSpec(g, Fraction(3, 2))
            ref = reference_increments(spec, 40, 400)
            for n in (1, 2, 9, 40):
                r = s_tail_series(spec, n, PrecisionConfig(
                    "bigfloat", bits, 2.0 ** (8 - bits)))
                assert r.certified
                with mpmath.mp.workprec(1024):
                    err = ref[n] - r.value  # the kernel rounds down
                    assert 0 < err <= r.error_bound
                    assert err <= ref[n] * mpmath.mpf(2) ** (8 - bits)

    def test_backward_log_stays_within_its_bound(self):
        log = _BackwardLog(5000, 200)
        with mpmath.mp.workprec(400):
            for n in range(5000, 0, -1):
                value = log(n)
                if n % 97 == 1 or n < 4:
                    exact = mpmath.ldexp(mpmath.log(n + 1), 200)
                    assert value.q == 1 << 200
                    assert exact - 2 * log.err <= value.p <= exact
        assert log.err <= 3 * 5000 + 2
        with pytest.raises(ValueError, match="decreasing"):
            log(2)

    def test_extension_passes_are_reported(self, monkeypatch):
        spec = spec_of("const:1/2")
        precision = PrecisionConfig("bigfloat", 128, 1e-30)
        full = hitting_table(spec, 10, precision)
        assert full.extension_passes == 0
        assert full.truncated_at == full.planned_truncation
        monkeypatch.setattr(chains, "_plan_truncation",
                            lambda spec, n_hi, precision: n_hi + 1)
        short = hitting_table(spec, 10, precision)
        assert short.planned_truncation == 11
        assert short.extension_passes >= 1
        assert short.truncated_at > short.planned_truncation
        assert short.certified
        assert 0 < short.max_rel_error_bound <= 1e-30

    def test_futile_extension_is_not_attempted(self):
        # rounding alone misses 1e-40 at 64 bits: doubling M cannot help
        table = hitting_table(spec_of("harmonic:5"), 50,
                              PrecisionConfig("bigfloat", 64, 1e-40))
        assert not any(table.row_certified)
        assert table.extension_passes == 0

    def test_values_are_exact_dyadics(self):
        # S and T hold the kernel's integers exactly (mpf wider than
        # the working precision), and T is their exact running sum
        table = hitting_table(spec_of("harmonic:5"), 30, BF256)
        with mpmath.mp.workprec(2048):
            total = mpmath.mpf(0)
            for s, t in zip(table.S, table.T):
                total += s
                assert total == t
        assert max(s.bc for s in table.S) > 256

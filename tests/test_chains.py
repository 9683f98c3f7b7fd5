import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp

from dieout import chains
from dieout.chains import (BirthDeathSpec, InfiniteHittingTimeError,
                           PrecisionConfig, asymptote_ratio,
                           bound_chains_from_graph, equilibrium_lower_bound,
                           hitting_table, _LogTable)
from dieout.rates import (EXACT, FLOAT, Aggregate, Constant, ExactnessError,
                          LogOverN, ProfileError, Step, Table, parse_profile)

from dieout.gillespie import (SimConfig, _EventTables, run_ensemble,
                              simulate_run)
from dieout.graphs import (DiagonalModulation, EpidemicModel, LocalityGraph,
                           is_strongly_connected)

from conftest import random_strong_digraph
import oracles
from oracles import (MPF, BackwardLog, EpidemicState, fraction_tail,
                     node_rates, positive_recurrence_check, s_recursion_step,
                     stationary_distribution)

RATIONAL = PrecisionConfig(mode="rational", series_rel_tol=1e-30)
BF256 = PrecisionConfig(mode="bigfloat", bits=256, series_rel_tol=1e-40)


def assert_recursion_reproduces_rows(spec, n_hi):
    """The rows of one rational table share a truncation index, so the
    forward recursion from its first row reproduces every row exactly."""
    table = hitting_table(spec, n_hi, RATIONAL)
    s = table.S[0]
    for n in range(1, n_hi + 1):
        assert table.S[n - 1] == s, f"mismatch at n={n}"
        s = s_recursion_step(spec, s, n)


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
        r = hitting_table(spec_of("const:0"), 1, RATIONAL)
        assert r.T[0] == Fraction(1)
        assert r.row_certified[-1]

    def test_pure_death_scales_with_delta(self):
        r = hitting_table(spec_of("const:0", delta="5/2"), 1, RATIONAL)
        assert r.T[0] == Fraction(2, 5)

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_nonfinite_delta_rejected(self, delta):
        with pytest.raises(ProfileError, match="not finite"):
            BirthDeathSpec(parse_profile("const:0"), delta)

    def test_harmonic_closed_form(self):
        # gamma = k/n at delta = 1 sums to (e^k - 1)/k
        for k in (1, 2, 5):
            r = hitting_table(spec_of(f"harmonic:{k}"), 1, BF256)
            with mpmath.mp.workprec(256):
                closed = (mpmath.e ** k - 1) / k
                assert abs(r.T[0] - closed) / closed < mpmath.mpf(10) ** -50
            assert r.row_certified[-1]

    def test_constant_half_matches_log_series(self):
        # sum (1/i) x^{i-1} = -ln(1-x)/x at x = 1/2 gives 2 ln 2
        r = hitting_table(spec_of("const:1/2"), 1, BF256)
        with mpmath.mp.workprec(256):
            closed = 2 * mpmath.log(2)
            rel = abs(r.T[0] - closed) / closed
            assert rel < 10 * mpmath.mpf(BF256.series_rel_tol)

    def test_divergent_series_raises(self):
        with pytest.raises(InfiniteHittingTimeError,
                           match="infinite expected hitting time"):
            hitting_table(spec_of("const:1"), 1, BF256)

    def test_rational_kernel_rejects_irrational_profile(self):
        spec = BirthDeathSpec(LogOverN(Fraction(1)), Fraction(1))
        with pytest.raises(ExactnessError):
            hitting_table(spec, 1, RATIONAL)

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
        r = hitting_table(spec, 1, BF256)
        assert r.row_certified[-1]
        assert float(r.T[0]) > 1.0


class TestTailSeries:
    def test_pure_death_increment(self):
        for n in (1, 2, 17, 400):
            r = hitting_table(spec_of("const:0"), n, RATIONAL)
            assert r.S[-1] == Fraction(1, n)
            assert r.row_certified[-1]

    def test_constant_increment_bounds(self):
        # 1/(delta n) <= S_n <= 1/((delta - alpha) n)
        for alpha in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            spec = BirthDeathSpec(Constant(alpha), Fraction(1))
            for n in (1, 3, 10, 250):
                r = hitting_table(spec, n, RATIONAL)
                assert Fraction(1, n) <= r.S[-1] <= 1 / ((1 - alpha) * n)

    def test_matches_exact_recursion_oracle(self):
        assert_recursion_reproduces_rows(spec_of("harmonic:5"), 30)

    def test_recursion_undefined_at_zero_gamma(self):
        spec = spec_of("step:2,0,10")
        with pytest.raises(ZeroDivisionError, match="hitting_table"):
            s_recursion_step(spec, Fraction(1), 11)

    def test_row_divergence_beyond_zero_region(self):
        # gamma is zero early (finite chain from below) but exceeds
        # delta afterwards: rows past the zero region diverge
        spec = spec_of("step:0,2,5")
        r = hitting_table(spec, 3, RATIONAL)  # inside the zero region
        assert r.S[-1] == Fraction(1, 3)
        with pytest.raises(InfiniteHittingTimeError):
            hitting_table(spec, 7, RATIONAL)


class TestHittingTable:
    def test_S_and_T_are_public_numbers_built_once(self):
        spec = spec_of("harmonic:5", "3/2")
        rational = hitting_table(spec, 30, RATIONAL)
        # per-row tuples and numbers wait for their first reader
        assert not {"S", "T"} & vars(rational).keys()
        assert all(type(x) is Fraction for x in rational.S + rational.T)
        values = fraction_tail(spec, 30, RATIONAL).values[1:]
        assert rational.S == tuple(values)
        assert rational.T == tuple(itertools.accumulate(values))
        big = hitting_table(spec, 30, BF256)
        assert all(type(x) is mpmath.mpf for x in big.S + big.T)
        with mpmath.mp.workprec(2048):
            # S, the bounds and T are all read over one power of two
            q = big.denominator
            assert q & (q - 1) == 0
            for x, p in zip(big.S + big.T, [
                    *big.numerators, *itertools.accumulate(big.numerators)]):
                assert x == mpmath.mpf(p) / q
            # a rebuilt table reads the same last row, bound and all
            last = hitting_table(spec, 30, BF256)
            assert last.S[-1] == big.S[-1]
            assert mpmath.mpf(last.bounds[-1]) / last.denominator == \
                mpmath.mpf(big.bounds[-1]) / q
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
        gamma = spec.gamma.evaluator(FLOAT)
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
        gamma_hi = upper.gamma.evaluator(FLOAT)
        gamma_lo = lower.gamma.evaluator(FLOAT)
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
                assert gamma_lo(n) * (1 - 1e-12) <= per_case
                assert per_case <= gamma_hi(n) * (1 + 1e-12)
                counts[node] += delta_count
                events += 1
        assert events >= 100

    @staticmethod
    def blocked_ensemble(spread: float, modulated: bool, seed: int = 24):
        """Extinction times of 400 runs on a 2,100-node digraph, past the
        dense limit so the blocked event tables run, with their
        bracketing chains.  Each node presses on 4 random others with
        equal weights summing to 1 +- ``spread``, so with ``spread = 0``
        every column of W sums to exactly 1 while the row sums vary; a
        modulation draws D from [0.8, 1.2].  The 50 initial cases sit on
        50 random nodes."""
        n = 2100
        rng = np.random.default_rng(seed)
        targets = [rng.choice(np.delete(np.arange(n), v), 4, replace=False)
                   for v in range(n)]
        weights = rng.uniform(1 - spread, 1 + spread, n) / 4
        w = sp.csr_matrix((np.repeat(weights, 4),
                           (np.concatenate(targets), np.repeat(range(n), 4))),
                          shape=(n, n))
        g = LocalityGraph(tuple(f"v{i}" for i in range(n)), w)
        d = DiagonalModulation(rng.uniform(0.8, 1.2, n)) if modulated else None
        model = EpidemicModel(parse_profile("harmonic:4"),
                              parse_profile("const:1/2"), "2", d)
        assert _EventTables.of(g, model).blocked
        initial = np.zeros(n, dtype=np.int64)
        initial[rng.choice(n, 50, replace=False)] = 1
        cfg = SimConfig(model, t_max=1000.0, n0=50, master_seed=seed,
                        initial=initial)
        times = run_ensemble(cfg, g, 400, np.array([0.0])).extinction_times
        assert times.size == 400
        upper, lower = bound_chains_from_graph(g, model)
        return times, upper, lower

    def test_simulated_mean_matches_the_exact_chain_on_a_blocked_digraph(
            self):
        # every column sums to 1 and D = I: the total is exactly the
        # chain gamma(n) = 4/n + 1/2, and T_50 = 5.6744
        times, upper, lower = self.blocked_ensemble(0.0, modulated=False)
        assert upper == lower
        t50 = float(hitting_table(upper, 50, BF256).T[49])
        assert t50 == pytest.approx(5.6744, abs=1e-4)
        se = times.std(ddof=1) / math.sqrt(times.size)
        assert abs(times.mean() - t50) < 3 * se, (times.mean(), t50, se)

    def test_simulated_mean_lies_in_the_chain_bracket_on_a_modulated_digraph(
            self):
        # column sums over [0.5, 1.5] and D over [0.8, 1.2]
        times, upper, lower = self.blocked_ensemble(0.5, modulated=True)
        t_lower = float(hitting_table(lower, 50, BF256).T[49])
        t_upper = float(hitting_table(upper, 50, BF256).T[49])
        assert t_lower < times.mean() < t_upper, (t_lower, times.mean(),
                                                  t_upper)

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
        assert upper.gamma.evaluator(EXACT)(1) == 4 + 5
        assert lower.gamma.evaluator(EXACT)(1) == 0 + 1


class TestLumpedChainOracle:
    """With every column sum of W equal to c and D = eta I, the
    epidemic's total is exactly the birth-death chain
    gamma(n) = c beta(n) + eta beta_int(n) (strong lumpability; Kemeny
    and Snell, Finite Markov Chains, 1960, ch. VI).  Both bracketing
    chains are then that chain, and hitting_table gives the network's
    mean extinction time exactly, whatever the graph and the profiles."""

    @staticmethod
    def dyadic_digraph(n: int, seed: int = 36,
                       closed: int = 0) -> LocalityGraph:
        """Each column holds 8 random off-diagonal entries: positive
        integers summing to 64, over 64.  The weights are dyadic, so
        every column sums to exactly 1 in floats.  The first ``closed``
        columns point only inside nodes 0 to closed - 1."""
        rng = np.random.default_rng(seed)
        rows, weights = [], []
        for v in range(n):
            targets = rng.choice((closed if v < closed else n) - 1, 8,
                                 replace=False)
            rows.append(targets + (targets >= v))
            cuts = np.sort(rng.choice(np.arange(1, 64), 7, replace=False))
            weights.append(np.diff(cuts, prepend=0, append=64) / 64)
        w = sp.csr_matrix((np.concatenate(weights),
                           (np.concatenate(rows), np.repeat(range(n), 8))),
                          shape=(n, n))
        return LocalityGraph(tuple(f"v{i}" for i in range(n)), w)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("nodes, eta, t20", [
        (3000, 1, 5.643711), (100, 0.5, 3.837642)],
        ids=["blocked-csr", "lockstep"])
    def test_simulated_mean_is_the_chain_hitting_time(self, nodes, eta,
                                                      t20, seed):
        # blocked CSR tables past 2,048 nodes, a lockstep batch below
        g = self.dyadic_digraph(nodes)
        assert (g.weights.sum(axis=0) == 1).all()
        d = None if eta == 1 else DiagonalModulation.uniform(nodes, eta)
        model = EpidemicModel(parse_profile("harmonic:3"),
                              parse_profile("step:1,1/2,10"), "2", d)
        assert _EventTables.of(g, model).blocked == (nodes > 2048)
        upper, lower = bound_chains_from_graph(g, model)
        assert upper == lower
        t_exact = float(hitting_table(upper, 20, BF256).T[19])
        assert t_exact == pytest.approx(t20, abs=1e-6)
        cfg = SimConfig(model, t_max=200.0, n0=20, master_seed=seed)
        times = run_ensemble(cfg, g, 400, np.array([0.0])).extinction_times
        assert times.size == 400  # every run dies out
        z = (times.mean() - t_exact) / (times.std(ddof=1) / math.sqrt(400))
        assert abs(z) <= 4, z

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("eta, t20", [(1, 1.689709), (0.5, 1.588553)])
    def test_reducible_graph_with_a_table_profile(self, tmp_path, eta, t20,
                                                  seed):
        # nodes 0-39 never infect nodes 40-99, so W is reducible; the
        # lumped chain holds all the same
        g = self.dyadic_digraph(100, closed=40)
        assert (g.weights.sum(axis=0) == 1).all()
        assert g.weights[40:, :40].nnz == 0 < g.weights[:40, 40:].nnz
        assert not is_strongly_connected(g)
        table = tmp_path / "beta_int.table"
        table.write_text("1 1\n5 1/2\ntail=1/4\n")
        model = EpidemicModel(parse_profile("logn:2"),
                              parse_profile(f"table:{table}"), "3",
                              DiagonalModulation.uniform(100, eta))
        upper, lower = bound_chains_from_graph(g, model)
        assert upper == lower
        t_exact = float(hitting_table(upper, 20, BF256).T[19])
        assert t_exact == pytest.approx(t20, abs=1e-6)
        cfg = SimConfig(model, t_max=200.0, n0=20, master_seed=seed)
        times = run_ensemble(cfg, g, 400, np.array([0.0])).extinction_times
        assert times.size == 400  # every run dies out
        z = (times.mean() - t_exact) / (times.std(ddof=1) / math.sqrt(400))
        assert abs(z) <= 4, z


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
        table = hitting_table(spec, 5000, BF256)
        svals = np.array([p / table.denominator for p in table.numerators])
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
        table = hitting_table(spec, max(states), precision)
        sums = list(itertools.accumulate(table.numerators))
        den = table.denominator
        assert asymptote_ratio(spec, states, precision).ratios == [
            (n, 1.5 * (sums[n - 1] / den) / math.log(n)) for n in states]

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
        table = hitting_table(spec, n_max, BF256)
        svals = np.array([p / table.denominator for p in table.numerators])
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
        assert t1 == hitting_table(spec, 1, RATIONAL).T[0]

    def test_renewal_identity_recovers_T1(self):
        spec = spec_of("const:1/2")
        pi = stationary_distribution(spec, 300, RATIONAL)
        t1 = 1 / pi[0] - 1  # theta = 1
        series = hitting_table(spec, 1, RATIONAL).T[0]
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
            t1 = hitting_table(spec, 1, RATIONAL)
            assert t1.row_certified[-1]
            assert t1.T[0] >= equilibrium_lower_bound(eps, 1, N)

    def test_exact_finite_sum_for_step_profile(self):
        # gamma = delta + eps up to N, zero beyond: the series is the
        # finite sum (1/delta) * sum_{i=1}^{N+1} (1/i) ((delta+eps)/delta)^{i-1}
        eps, N = Fraction(1), 10
        spec = BirthDeathSpec(Step(1 + eps, Fraction(0), N), Fraction(1))
        t1 = hitting_table(spec, 1, RATIONAL)
        direct = sum(Fraction(1, i) * (1 + eps) ** (i - 1)
                     for i in range(1, N + 2))
        assert t1.T[0] == direct


class TestPrecisionHonesty:
    def test_doubling_precision_changes_less_than_tolerance(self):
        spec = spec_of("harmonic:5")
        tol = 1e-30
        a = hitting_table(spec, 1, PrecisionConfig("bigfloat", 128, tol))
        b = hitting_table(spec, 1, PrecisionConfig("bigfloat", 256, tol))
        a, b = a.T[0], b.T[0]
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
            s = hitting_table(spec, 1, prec).T[0]
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
        r = hitting_table(spec, 5, tight)
        assert not r.row_certified[-1]

    def test_rational_and_bigfloat_agree(self):
        spec = spec_of("step:3,1/2,10")
        a = hitting_table(spec, 1, RATIONAL).T[0]
        b = hitting_table(spec, 1, BF256).T[0]
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
        p, q = table.numerators[j - 1], table.denominator
        bound = table.bounds[j - 1]
        assert Fraction(p, q) == want.values[j]
        if want.bounds[j] is None:
            assert bound is None
        else:
            assert Fraction(bound, q) == want.bounds[j]
    assert table.S == tuple(want.values[1:])
    assert table.T == tuple(itertools.accumulate(want.values[1:]))
    ratios = [b / v for b, v in zip(want.bounds[1:], want.values[1:])
              if b is not None]
    assert table.max_rel_error_bound == (float(max(ratios)) if ratios
                                         else None)
    return want


def graph_chains_with_a_rational_weight():
    """(name, spec) for the bracketing chains of a 3-node graph whose
    column sums are 3/4 and 3/2, at delta 5/2: each gamma is
    Aggregate(c, harmonic:3/2, d, const:1/4), d the modulation's extreme
    when modulated and 1 otherwise."""
    w = np.array([[0, 0.25, 1], [0.75, 0, 0.5], [0, 0.5, 0]])
    g = LocalityGraph(tuple("abc"), w)
    for tag, d in (("", None),
                   ("-modulated", DiagonalModulation(np.array([1.5, 0.75,
                                                               1.0])))):
        model = EpidemicModel(parse_profile("harmonic:3/2"),
                              parse_profile("const:1/4"), "5/2", d)
        upper, lower = bound_chains_from_graph(g, model)
        for name, spec in (("upper", upper), ("lower", lower)):
            assert isinstance(spec.gamma, Aggregate)
            yield name + tag, spec


class TestIntegerRationalPass:
    """The rational kernel's integer pass against the Fraction loop."""

    @pytest.mark.parametrize("text, delta", [
        ("harmonic:5", "1"), ("harmonic:4.5", "1"),
        ("step:3/2,0,12", "1"), ("step:3/2,0,12", "3/2"),
        ("harmonic:5", "3/2"), ("step:3,1/2,10", "3/2"),
        # delta with dd > 1, and q_j = qn/qd with qd not dividing j dn
        ("const:2/7", "5/3"), ("harmonic:5/7", "5/3"),
        pytest.param(Table(((1, Fraction(3, 4)), (2, Fraction(5, 6)),
                            (3, Fraction(2, 9)), (7, Fraction(7, 10))),
                           Fraction(1, 3)), "5/3", id="table-5/3"),
        *(pytest.param(spec.gamma, "5/2", id=f"graph-{name}")
          for name, spec in graph_chains_with_a_rational_weight())])
    def test_reproduces_fraction_oracle(self, text, delta):
        spec = (spec_of(text, delta) if isinstance(text, str)
                else BirthDeathSpec(text, Fraction(delta)))
        want = assert_matches_fraction_oracle(spec, 40, RATIONAL)
        assert all(want.certified[1:])
        if str(text).startswith("step:3/2,0"):  # gamma vanishes: exact
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

def triple_pass_profiles():
    """(id, gamma) over every family, and Aggregates with one part and
    with a logn beta, whose two logn terms each carry the log table's
    2**G."""
    logn, zero = parse_profile("logn:1.5"), parse_profile("const:0")
    table = Table(((1, Fraction(3, 4)), (2, Fraction(5, 6)),
                   (3, Fraction(2, 9)), (7, Fraction(7, 10))), Fraction(1, 3))
    return [
        ("const", parse_profile("const:2/7")),
        ("step", parse_profile("step:3,1/2,10")),
        ("step-vanishing", parse_profile("step:3/2,0,12")),
        ("harmonic", parse_profile("harmonic:5")),
        ("logn", logn),
        ("table", table),
        ("scaled", Aggregate(Fraction(2, 3), parse_profile("harmonic:9/2"),
                             0, zero)),
        ("scaled-logn", Aggregate(Fraction(5, 7), logn, 0, zero)),
        ("graph-logn", Aggregate(Fraction(3, 4), logn, 1,
                                 parse_profile("logn:1/2"))),
        ("graph-logn-step", Aggregate(Fraction(3, 4), logn, 1,
                                      parse_profile("step:1/5,1/9,12")))]


class TestTriplePassesMatchRatioPasses:
    """The int-triple passes against the former _Ratio passes, kept in
    the oracles verbatim: every integer of every row is the same."""

    TOL = (1e-30).as_integer_ratio()

    @staticmethod
    def geom(spec, M):
        r_ok, r = chains._ratio_bound(spec, M + 1)
        assert r_ok
        return 1 / ((1 - r) * spec.delta * (M + 1))

    @pytest.mark.parametrize("name, gamma", triple_pass_profiles(),
                             ids=[n for n, _ in triple_pass_profiles()])
    @pytest.mark.parametrize("bits", [64, 256, 355])
    @pytest.mark.parametrize("tail", [True, False], ids=["tail", "no-tail"])
    def test_fixed_pass_rows(self, name, gamma, bits, tail):
        spec = BirthDeathSpec(gamma, Fraction(3, 2))
        for M in (45, 160):  # one short of certifying, one long enough
            geom = self.geom(spec, M) if tail else None
            got = chains._fixed_pass(spec, 40, M, bits, geom, self.TOL)
            assert got == oracles.fixed_pass(spec, 40, M, bits, geom,
                                             self.TOL)

    @pytest.mark.parametrize("name, gamma", [
        (n, g) for n, g in triple_pass_profiles() if g.is_rational],
        ids=[n for n, g in triple_pass_profiles() if g.is_rational])
    @pytest.mark.parametrize("tail", [True, False], ids=["tail", "no-tail"])
    def test_exact_pass_rows(self, name, gamma, tail):
        spec = BirthDeathSpec(gamma, Fraction(3, 2))
        for M in (45, 160):
            geom = self.geom(spec, M) if tail else None
            got = chains._exact_pass(spec, 40, M, geom, self.TOL)
            assert got == oracles.exact_pass(spec, 40, M, geom, self.TOL)

    @pytest.mark.parametrize("text, precision", [
        ("logn:1.5", BF256), ("harmonic:5", PrecisionConfig(
            "bigfloat", 355, 1e-40)), ("harmonic:5", RATIONAL)])
    def test_extension_passes_match(self, text, precision, monkeypatch):
        # every pass of a table that doubles M from a short plan
        calls = []

        def checked(new, old):
            def run(*args):
                calls.append(args[2])
                got = new(*args)
                assert got == old(*args)
                return got
            return run

        monkeypatch.setattr(chains, "_fixed_pass", checked(
            chains._fixed_pass, oracles.fixed_pass))
        monkeypatch.setattr(chains, "_exact_pass", checked(
            chains._exact_pass, oracles.exact_pass))
        monkeypatch.setattr(chains, "_plan_truncation",
                            lambda spec, n_hi, precision: n_hi + 1)
        table = hitting_table(spec_of(text, "3/2"), 40, precision)
        assert table.extension_passes >= 1
        assert table.certified
        assert calls[0] == 41 and len(calls) == table.extension_passes + 1


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
        assert_recursion_reproduces_rows(spec, 12)

    @given(k=st.fractions(min_value=Fraction(1, 10), max_value=8,
                          max_denominator=40))
    @settings(max_examples=30, deadline=None)
    def test_harmonic_profiles(self, k):
        spec = BirthDeathSpec(parse_profile(f"harmonic:{k}"), Fraction(1))
        assert_recursion_reproduces_rows(spec, 12)


def reference_increments(spec: BirthDeathSpec, n_hi: int, terms: int):
    """S_1..S_{n_hi} by the backward recursion in 1024-bit mpmath,
    truncated at ``terms`` (far past where the tail matters)."""
    with mpmath.mp.workprec(1024):
        delta = mpmath.mpf(spec.delta.numerator) / spec.delta.denominator
        gamma = spec.gamma.evaluator(MPF)
        s, out = mpmath.mpf(0), {}
        for j in range(terms, 0, -1):
            s = 1 / (delta * j) + gamma(j) / delta * s
            if j <= n_hi:
                out[j] = s
        return out


TABLE = Table(((1, Fraction(3)), (2, Fraction(5, 2)), (4, Fraction(0)),
               (6, Fraction(1, 3))), Fraction(1, 2))


class TestRoundingCertificate:
    """``certified`` covers rounding as well as truncation."""

    def test_64_bit_T1_at_1e_30_is_not_certified(self):
        r = hitting_table(spec_of("harmonic:5"), 1,
                          PrecisionConfig("bigfloat", 64, 1e-30))
        assert not r.row_certified[-1]
        with mpmath.mp.workprec(512):
            closed = (mpmath.e ** 5 - 1) / 5
            err = abs(r.T[0] - closed)
            assert 0 < err <= mpmath.mpf(r.bounds[-1]) / r.denominator

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
            r = hitting_table(spec, n, precision)
            # same truncation: the fixed-point value sits below the
            # truncated sum, by less than 2**-bits relative
            trunc = fraction_tail(spec, n, RATIONAL,
                                  truncate_at=r.truncated_at).values[n]
            with mpmath.mp.workprec(1024):
                x = mpmath.mpf(exact.S[n - 1].numerator) / \
                    exact.S[n - 1].denominator
                t = mpmath.mpf(trunc.numerator) / trunc.denominator
                assert 0 <= t - r.S[-1] <= t * mpmath.mpf(2) ** -bits
                err = abs(r.S[-1] - x)
                bound = mpmath.mpf(r.bounds[-1]) / r.denominator
                assert err <= bound + x * mpmath.mpf(1e-60)
                if r.row_certified[-1]:
                    certified += 1
                    assert err <= x * mpmath.mpf(tol)
        if (bits, tol) in ((64, 1e-15), (128, 1e-30)):
            assert certified == 7

    @pytest.mark.parametrize("text", ["logn:1.5", "logn:1/3"])
    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_logn_bound_holds_against_1024_bit_reference(self, text, bits):
        gamma = parse_profile(text)
        combined = Aggregate(Fraction(2, 3), gamma, 1,
                             parse_profile("step:1/5,1/9,12"))
        # reads log1p(j) twice a row
        twice = Aggregate(2, gamma, 1, parse_profile("logn:1/2"))
        for g in (gamma, combined, twice):
            spec = BirthDeathSpec(g, Fraction(3, 2))
            ref = reference_increments(spec, 40, 400)
            for n in (1, 2, 9, 40):
                r = hitting_table(spec, n, PrecisionConfig(
                    "bigfloat", bits, 2.0 ** (8 - bits)))
                assert r.row_certified[-1]
                with mpmath.mp.workprec(1024):
                    err = ref[n] - r.S[-1]  # the kernel rounds down
                    assert 0 < err <= mpmath.mpf(r.bounds[-1]) / r.denominator
                    assert err <= ref[n] * mpmath.mpf(2) ** (8 - bits)

    def test_backward_log_stays_within_its_bound(self):
        log = _LogTable(5000, 200)
        with mpmath.mp.workprec(400):
            for n in range(5000, 0, -1):
                p, q, g = log(n)
                assert len(log._L) == n + 2  # entries above n + 1 dropped
                if n % 97 == 1 or n < 4:
                    exact = mpmath.ldexp(mpmath.log(n + 1), 200)
                    assert (q, g) == (1, 200)
                    assert exact - 2 * log.err <= p <= exact
                    assert log.err == 3 * (n + 1)
        with pytest.raises(ValueError, match="decreasing"):
            log(2)

    @pytest.mark.parametrize("bits", [64, 200, 355])
    def test_log_table_entries_within_err_m(self, bits):
        # |L[m] - 2**bits ln m| <= 3m - 4 at the seed, odd primes, prime
        # powers, products of two large primes and the top entry
        top = 19_043  # the top entry is m = 19_044 = 2**2 3**2 23**2
        log = _LogTable(top, bits)
        table = list(log._L)
        checked = [2, 3, 4, 5, 8, 9, 27, 243, 2401, 4096, 16_807, 15_625,
                   8633, 131 * 137, 127 * 149, 9973, 19_037, top + 1]
        with mpmath.mp.workprec(400):
            for m in checked:
                exact = mpmath.ldexp(mpmath.log(m), bits)
                err = 3 * m - 4
                assert table[m] - err <= exact <= table[m] + err, m
        assert len(table) == top + 2

    @pytest.mark.parametrize("lo, hi", [(3, 200), (16_387, 16_600),
                                        (999_900, 1_000_100)])
    def test_sieve_chunk_matches_trial_division(self, lo, hi):
        def spf(m):  # 0 at a prime
            return next((d for d in range(2, math.isqrt(m) + 1)
                         if m % d == 0), 0)

        primes = [p for p in range(2, math.isqrt(hi) + 1) if not spf(p)]
        assert chains._smallest_prime_factors(lo, hi, primes) == [
            spf(m) for m in range(lo, hi)]

    def test_log_table_serves_decreasing_n_only(self):
        log = _LogTable(50, 64)
        with pytest.raises(ValueError, match="decreasing"):
            log(51)
        first = log(40)
        assert log(40) == first  # the same n twice in one row
        log(39)
        with pytest.raises(ValueError, match="decreasing"):
            log(40)

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=25, deadline=None)
    @given(top=st.integers(1, 600), bits=st.integers(64, 420))
    def test_log_table_agrees_with_the_series_oracle(self, top, bits):
        # both serve lower bounds within 2 err units of 2**bits ln(1 + n)
        table, oracle = _LogTable(top, bits), BackwardLog(top, bits)
        for n in range(top, 0, -1):
            (a, qa, ga), (b, qb, gb) = table(n), oracle(n)
            assert (qa, ga) == (qb, gb) == (1, bits)
            assert -2 * table.err <= a - b <= 2 * oracle.err

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

    @pytest.mark.parametrize("text, rational", [
        *(pytest.param(text, False, id=text) for text in (
            "harmonic:5", "logn:1.5", "step:3,1/2,10", "step:3/2,0,12")),
        *(pytest.param(text, True, id=f"{text}-rational") for text in (
            "harmonic:5", "step:3,1/2,10", "step:3/2,0,12"))])
    def test_max_rel_error_bound_is_the_largest_row_ratio(self, text,
                                                          rational):
        # the big-float pass keeps the largest bound/value pair and
        # divides once; the rational pass keeps the largest row quotient
        table = hitting_table(spec_of(text), 200,
                              RATIONAL if rational else BF256)
        assert table.max_rel_error_bound == float(max(
            Fraction(b, v) for b, v in zip(table.bounds, table.numerators)))

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

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dieout.gillespie import (SimConfig, _pick, estimate_survival_probability,
                              mean_field_trajectory, run_ensemble, run_rng,
                              simulate_run, trimmed_interval)
from dieout.graphs import (DiagonalModulation, EpidemicModel, LocalityGraph,
                           spectral_radius)
from dieout.rates import Constant, parse_profile

from conftest import const_model, random_strong_digraph
from oracles import EpidemicState, node_rates, step


def modulated_twins(n: int = 60, seed: int = 5):
    """A directed graph in CSR storage (several event-selection blocks),
    its dense twin, and a modulation D != I."""
    dense = random_strong_digraph(seed, n=n)
    csr = LocalityGraph(dense.labels, sp.csr_matrix(dense.weights))
    d = DiagonalModulation(np.random.default_rng(seed).uniform(0.5, 1.5, n))
    return csr, dense, d


def make_cfg(beta=parse_profile("const:0"), beta_int=parse_profile("const:0"),
             delta=1.0, modulation=None, **overrides) -> SimConfig:
    base = dict(t_max=100.0, n0=10, master_seed=77)
    base.update(overrides)
    return SimConfig(EpidemicModel(beta, beta_int, delta, modulation), **base)


class TestNodeRates:
    def test_absorbing_state_has_zero_rates(self, k3):
        state = EpidemicState.from_counts([0, 0, 0])
        birth, death, total = node_rates(state, k3, const_model(2, 2, 1.0))
        assert total == 0.0
        assert not birth.any() and not death.any()

    def test_single_infected_on_k3(self, k3):
        # one case at node 0, beta = beta_int = 2, D = I, delta = 1:
        # birth 2 at the infected node, 2 at each neighbor, death 1
        state = EpidemicState.from_counts([1, 0, 0])
        birth, death, total = node_rates(state, k3, const_model(2, 2, 1.0))
        np.testing.assert_allclose(birth, [2.0, 2.0, 2.0])
        np.testing.assert_allclose(death, [1.0, 0.0, 0.0])
        assert total == pytest.approx(7.0)

    def test_random_state_matches_dense_recompute(self, airports):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 6, airports.node_count)
        state = EpidemicState.from_counts(counts)
        beta, beta_int = parse_profile("harmonic:5"), parse_profile("const:0.5")
        d = DiagonalModulation(rng.random(airports.node_count) + 0.5)
        birth, death, total = node_rates(
            state, airports, EpidemicModel(beta, beta_int, 2.0, d))
        w = airports.dense_weights()
        n = counts.sum()
        expected_birth = (beta.value(n) * (w @ counts)
                          + beta_int.value(n) * d.values * counts)
        np.testing.assert_allclose(birth, expected_birth, rtol=1e-12)
        expected_total = expected_birth.sum() + 2.0 * counts.sum()
        assert total == pytest.approx(expected_total, rel=1e-12)

    def test_rate_bound_along_trajectory(self, fixture20):
        # total rate never exceeds (sup beta * c_max + sup beta_int * max D
        # + delta) * n, c being the column sums of W
        cfg = make_cfg(beta=parse_profile("step:2,0.5,30"),
                       beta_int=parse_profile("harmonic:3"),
                       delta=1.5, n0=25, t_max=3.0)
        model = cfg.model
        c_max = float(np.asarray(fixture20.weights.sum(axis=0)).max())
        cap_coeff = (model.beta.sup_from(1) * c_max
                     + model.beta_int.sup_from(1) + 1.5)
        traj = simulate_run(cfg, fixture20, 0)
        counts = traj.initial.copy()
        state = EpidemicState.from_counts(counts)
        for t, node, delta_count in traj.events or []:
            _, _, total = node_rates(
                EpidemicState.from_counts(counts), fixture20, model)
            n = counts.sum()
            assert total <= cap_coeff * n * (1 + 1e-9)
            counts[node] += delta_count

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
           sparse=st.booleans())
    def test_birth_vector_is_growth_matrix_times_state(self, seed, n, sparse):
        # the simulator's reference rates and the matrix behind the
        # classifiers, the mean-field ODE and the chains are one model
        g = random_strong_digraph(seed % 10_000, n=n)
        if sparse:
            g = LocalityGraph(g.labels, sp.csr_matrix(g.weights))
        rng = np.random.default_rng(seed)
        model = EpidemicModel(parse_profile("harmonic:3"),
                              parse_profile("step:2,1/3,25"), 1.5,
                              DiagonalModulation(rng.uniform(0.1, 4.0, n)))
        counts = rng.integers(0, 8, n)
        counts[rng.integers(n)] += 1
        birth, _, _ = node_rates(EpidemicState.from_counts(counts), g, model)
        total = int(counts.sum())
        m = model.growth_matrix(g, model.beta.value(total),
                                model.beta_int.value(total))
        np.testing.assert_allclose(birth, m @ counts.astype(float),
                                   rtol=1e-12, atol=0)

    def test_rate_bound_uses_column_sums_on_asymmetric_graphs(self):
        # with directed weights the aggregate birth rate is governed by
        # column sums; the row-sum cap applies only to symmetric graphs
        g = random_strong_digraph(17, n=6)
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 5, 6)
        beta = parse_profile("const:1.2")
        state = EpidemicState.from_counts(counts)
        birth, death, total = node_rates(
            state, g, EpidemicModel(beta, parse_profile("const:0"), 0.7))
        col_max = float(np.asarray(g.weights.sum(axis=0)).max())
        n = counts.sum()
        assert total <= (1.2 * col_max + 0.7) * n * (1 + 1e-12)


class TestStep:
    def test_death_only_always_picks_the_infected_node(self, k3):
        state = EpidemicState.from_counts([0, 3, 0])
        rates = node_rates(state, k3, const_model(0, 0, 2.0))
        rng = run_rng(1, 0)
        for _ in range(50):
            dt, node, delta_count = step(state, rates, rng)
            assert (node, delta_count) == (1, -1)
            assert dt > 0

    def test_absorbing_state_rejected(self, k3):
        state = EpidemicState.from_counts([0, 0, 0])
        rates = node_rates(state, k3, const_model(0, 0, 1.0))
        with pytest.raises(ValueError, match="absorbing"):
            step(state, rates, run_rng(1, 0))

    def test_two_equal_rates_split_evenly(self):
        # one infected node, beta_int makes birth rate equal death rate
        g = LocalityGraph(("a",), np.zeros((1, 1)))
        state = EpidemicState.from_counts([1])
        rates = node_rates(state, g, const_model(0, 1, 1.0))
        rng = run_rng(99, 0)
        draws = 100_000
        births = sum(step(state, rates, rng)[2] == +1 for _ in range(draws))
        # binomial(draws, 1/2): three sigma around the mean
        sigma = math.sqrt(draws * 0.25)
        assert abs(births - draws / 2) < 3 * sigma

    def test_waiting_time_is_exponential_with_total_rate(self):
        g = LocalityGraph(("a",), np.zeros((1, 1)))
        state = EpidemicState.from_counts([4])
        rates = node_rates(state, g, const_model(0, 1, 1.5))
        total = rates[2]
        assert total == pytest.approx(4 * (1.0 + 1.5))
        rng = run_rng(7, 0)
        draws = 100_000
        samples = np.array([step(state, rates, rng)[0] for _ in range(draws)])
        se = samples.std(ddof=1) / math.sqrt(draws)
        assert abs(samples.mean() - 1.0 / total) < 3 * se


class TestSimulateRun:
    def test_pure_death_mean_extinction_matches_harmonic_sum(self, k3):
        runs, k, delta = 3000, 12, 2.0
        cfg = make_cfg(n0=k, delta=delta, master_seed=5)
        times = np.array([simulate_run(cfg, k3, i).extinct_at
                          for i in range(runs)])
        assert not np.any(np.isnan(times.astype(float)))
        mean_expected = float(sum(Fraction(1, j) for j in range(1, k + 1))) / delta
        var_expected = sum(1.0 / (delta * j) ** 2 for j in range(1, k + 1))
        se = math.sqrt(var_expected / runs)
        assert abs(times.mean() - mean_expected) < 3 * se

    def test_reproducible_runs_bit_identical(self, fixture20):
        cfg = make_cfg(beta=parse_profile("const:1"),
                       beta_int=parse_profile("const:1"), delta=6.0, n0=30,
                       record_events=True, t_max=20.0)
        a = simulate_run(cfg, fixture20, 3)
        b = simulate_run(cfg, fixture20, 3)
        assert a.events == b.events
        assert a.extinct_at == b.extinct_at
        np.testing.assert_array_equal(a.initial, b.initial)

    def test_distinct_runs_differ(self, fixture20):
        cfg = make_cfg(n0=30, record_events=True)
        a = simulate_run(cfg, fixture20, 0)
        b = simulate_run(cfg, fixture20, 1)
        assert a.events != b.events

    def test_no_events_after_extinction_and_replay_valid(self, fixture20):
        cfg = make_cfg(beta=parse_profile("const:0.5"),
                       beta_int=parse_profile("const:0.5"), delta=4.0,
                       n0=15, record_events=True, t_max=50.0)
        traj = simulate_run(cfg, fixture20, 11)
        assert traj.extinct_at is not None
        counts = traj.initial.astype(np.int64).copy()
        last_t = 0.0
        for t, node, delta_count in traj.events:
            assert t > last_t
            last_t = t
            counts[node] += delta_count
            assert (counts >= 0).all()
        assert counts.sum() == 0
        assert traj.events[-1][0] == traj.extinct_at

    def test_truncation_at_horizon(self, fixture20):
        cfg = make_cfg(beta=parse_profile("const:2"),
                       beta_int=parse_profile("const:2"), delta=0.5,
                       n0=50, t_max=0.5)
        traj = simulate_run(cfg, fixture20, 0)
        assert traj.extinct_at is None
        assert traj.truncated_at == 0.5

    def test_grid_sampling_right_continuous(self, k3):
        cfg = make_cfg(n0=5, delta=1.0, record_events=True)
        grid = np.linspace(0.0, 20.0, 41)
        traj = simulate_run(cfg, k3, 2, grid=grid)
        assert traj.grid_totals[0] == 5  # nothing happens at t = 0
        assert traj.grid_totals[-1] == 0
        # recompute the step function from the event log
        totals = []
        for t in grid:
            n = 5 + sum(dc for et, _, dc in traj.events if et <= t)
            totals.append(n)
        np.testing.assert_array_equal(traj.grid_totals, totals)

    def test_given_initial_vector(self, k3):
        initial = np.array([0, 7, 0])
        cfg = make_cfg(n0=7, initial=initial)
        traj = simulate_run(cfg, k3, 0)
        np.testing.assert_array_equal(traj.initial, initial)

    def test_incremental_rates_match_reference(self, fixture20):
        # replay the event log and verify the cached-rate trajectory
        # visits states whose reference rates are self-consistent, on a
        # dense graph and on a blocked CSR graph with D != I
        csr, _, d = modulated_twins()
        for g, modulation in ((fixture20, None), (csr, d)):
            cfg = make_cfg(beta=parse_profile("harmonic:4"),
                           beta_int=parse_profile("step:2,0.1,12"),
                           delta=2.0, n0=18, record_events=True,
                           t_max=10.0, modulation=modulation)
            traj = simulate_run(cfg, g, 4)
            assert len(traj.events) >= 200
            counts = traj.initial.copy()
            for t, node, delta_count in traj.events[:200]:
                birth, death, total = node_rates(
                    EpidemicState.from_counts(counts), g, cfg.model)
                if delta_count < 0:
                    assert death[node] > 0
                else:
                    assert birth[node] > 0
                counts[node] += delta_count


class TestEventSelection:
    @pytest.mark.parametrize("storage", ["csr", "dense"])
    def test_first_event_frequencies_match_reference_rates(self, storage):
        csr, dense, d = modulated_twins()
        g = csr if storage == "csr" else dense
        initial = np.zeros(g.node_count, dtype=np.int64)
        initial[[0, 7, 19, 33, 50]] = [3, 1, 2, 1, 2]
        beta = parse_profile("harmonic:4")
        beta_int = parse_profile("const:0.5")
        birth, death, total = node_rates(EpidemicState.from_counts(initial),
                                         g, EpidemicModel(beta, beta_int,
                                                          2.0, d))
        expected_p = np.concatenate([birth, death]) / total
        # the first event falls before 3 / total in 95% of the runs
        cfg = make_cfg(beta=beta, beta_int=beta_int, delta=2.0, n0=9,
                       initial=initial, modulation=d, record_events=True,
                       t_max=3.0 / total, master_seed=2024)
        runs = 10_000
        summary = run_ensemble(cfg, g, runs, np.array([cfg.t_max]))
        observed = np.zeros(expected_p.size)
        for events in summary.run_events:
            if events:
                _, node, delta_count = events[0]
                observed[node if delta_count > 0 else g.node_count + node] += 1
        assert observed.sum() > 0.9 * runs
        possible = expected_p > 0
        assert not observed[~possible].any()
        expected = observed.sum() * expected_p[possible]
        assert expected.min() >= 5
        chi2 = float(((observed[possible] - expected) ** 2 / expected).sum())
        assert scipy.stats.chi2.sf(chi2, possible.sum() - 1) > 1e-3

    @pytest.mark.parametrize("storage", ["csr", "dense"])
    def test_every_event_follows_reference_rates(self, storage):
        # randomized probability integral transform of each recorded
        # event under the reference rates of the state it left: uniform
        # on [0, 1] iff events are drawn with the right probabilities,
        # which stale cached sums would break after the first event
        csr, dense, d = modulated_twins()
        g = csr if storage == "csr" else dense
        initial = np.zeros(g.node_count, dtype=np.int64)
        initial[::4] = 2
        cfg = make_cfg(beta=parse_profile("harmonic:4"),
                       beta_int=parse_profile("const:0.5"), delta=2.0,
                       n0=30, initial=initial, modulation=d,
                       record_events=True, t_max=3.0, master_seed=41)
        summary = run_ensemble(cfg, g, 40, np.array([cfg.t_max]))
        rng = np.random.default_rng(0)
        pits = []
        for events in summary.run_events:
            counts = initial.copy()
            for _, node, delta_count in events:
                birth, death, total = node_rates(
                    EpidemicState.from_counts(counts), g, cfg.model)
                cum = np.cumsum(np.concatenate([birth, death])) / total
                c = node if delta_count > 0 else g.node_count + node
                lo = cum[c - 1] if c else 0.0
                pits.append(lo + rng.random() * (cum[c] - lo))
                counts[node] += delta_count
        assert len(pits) > 10_000
        assert scipy.stats.kstest(pits, "uniform").pvalue > 1e-3

    def test_blocked_pick_matches_flat_scan(self):
        # integer entries keep every running sum exact, so the blocked
        # pick must agree with one flat cumulative scan at any target
        rng = np.random.default_rng(8)
        for width in (1, 3, 7, 10):
            values = rng.integers(0, 4, 50).astype(float)
            values[rng.random(50) < 0.3] = 0.0
            block_sums = np.add.reduceat(values, np.arange(0, 50, width))
            for target in rng.random(200) * values.sum():
                flat = int(np.searchsorted(np.cumsum(values), target,
                                           side="right"))
                assert _pick(values, block_sums, width, target) == flat
                assert _pick(values, None, width, target) == flat

    def test_pick_never_returns_a_nonpositive_entry(self):
        # rounding residue: block 0 claims mass but holds none, an entry
        # sits a hair below zero, and the target overshoots the total
        values = np.array([0.0, -1e-17, 0.0, 0.0, 2.0, 0.0, 1.0, 0.0, 0.0])
        block_sums = np.array([1e-15, 2.0, 1.0])
        assert _pick(values, block_sums, 3, 0.0) == 4
        assert block_sums[0] <= 0  # reset from its entries
        assert _pick(values, block_sums, 3, 5.0) == 6
        assert _pick(values, None, 3, 5.0) == 6
        assert _pick(values, None, 3, 0.0) == 4
        empty = np.array([0.0, -1e-17, 0.0, 0.0])
        assert _pick(empty, np.array([1e-15, 0.0]), 2, 0.0) == -1
        assert _pick(empty, None, 2, 0.0) == -1


class TestEnsemble:
    def test_minimum_runs_enforced(self, k3):
        with pytest.raises(ValueError, match="40"):
            run_ensemble(make_cfg(), k3, 39, np.linspace(0, 1, 5))

    def test_trimming_matches_sort_oracle(self, fixture20):
        cfg = make_cfg(beta=parse_profile("const:1"),
                       beta_int=parse_profile("const:1"), delta=5.0, n0=20,
                       t_max=5.0)
        grid = np.linspace(0.0, 5.0, 26)
        summary = run_ensemble(cfg, fixture20, 40, grid, keep_per_run=True)
        trim = 1  # floor(0.025 * 40)
        for j in (0, 5, 10, 25):
            column = np.sort(summary.per_run_totals[:, j])
            assert summary.lower95[j] == column[trim]
            assert summary.upper95[j] == column[-trim - 1]
            assert summary.mean_total[j] == pytest.approx(column.mean())

    def test_survival_fraction_non_increasing(self, fixture20):
        cfg = make_cfg(beta=parse_profile("const:0.5"),
                       beta_int=parse_profile("const:0.5"), delta=4.0,
                       n0=10, t_max=10.0)
        grid = np.linspace(0.0, 10.0, 51)
        summary = run_ensemble(cfg, fixture20, 60, grid)
        assert np.all(np.diff(summary.survival_fraction) <= 1e-12)
        assert summary.extinction_times.size > 0
        assert np.all(np.diff(summary.extinction_times) >= 0)

    def test_trimmed_interval_matches_envelope_rule(self):
        values = np.arange(80, dtype=float)[::-1]  # 79..0 unsorted order
        lo, hi = trimmed_interval(values)          # floor(0.025*80) = 2
        assert (lo, hi) == (2.0, 77.0)
        lo40, hi40 = trimmed_interval(np.arange(40.0))
        assert (lo40, hi40) == (1.0, 38.0)

    def test_extinct_runs_contribute_zero(self, k3):
        cfg = make_cfg(n0=3, t_max=50.0)  # pure death, all extinct early
        grid = np.array([25.0, 50.0])
        summary = run_ensemble(cfg, k3, 50, grid, keep_per_run=True)
        assert (summary.per_run_totals == 0).all()
        assert summary.survival_fraction[0] == 0.0
        assert summary.lower95[0] == summary.upper95[0] == 0.0

    def test_parallel_equals_sequential(self, k3):
        cfg = make_cfg(beta=parse_profile("const:0.8"),
                       beta_int=parse_profile("const:0.8"), delta=3.0,
                       n0=8, t_max=4.0)
        grid = np.linspace(0.0, 4.0, 11)
        seq = run_ensemble(cfg, k3, 44, grid, threads=1, keep_per_run=True)
        par = run_ensemble(cfg, k3, 44, grid, threads=2, keep_per_run=True)
        np.testing.assert_array_equal(seq.per_run_totals, par.per_run_totals)
        assert seq.run_extinctions == par.run_extinctions

    def test_raising_delta_shortens_extinction(self, fixture20):
        # statistical trend: medians of extinction time decrease in delta
        medians = []
        for delta in (3.0, 4.0, 6.0):
            cfg = make_cfg(beta=parse_profile("const:0.4"),
                           beta_int=parse_profile("const:0.4"), delta=delta,
                           n0=5, t_max=400.0, master_seed=123)
            times = [simulate_run(cfg, fixture20, i).extinct_at
                     for i in range(500)]
            assert all(t is not None for t in times)
            medians.append(float(np.median(times)))
        assert medians[0] > medians[1] > medians[2]


class TestSurvivalProbability:
    def test_pure_death_matches_analytic(self, k3):
        # n0 independent unit-rate lifetimes: P(alive at t) = 1-(1-e^-t)^n0
        n0, horizon, runs = 6, 1.5, 3000
        cfg = make_cfg(n0=n0, delta=1.0, t_max=10.0, master_seed=31)
        est = estimate_survival_probability(cfg, k3, runs, horizon)
        p_true = 1.0 - (1.0 - math.exp(-horizon)) ** n0
        se = math.sqrt(p_true * (1 - p_true) / runs)
        assert abs(est.probability - p_true) < 3 * se

    def test_far_above_threshold_survival_is_zero(self, fixture20):
        cfg = make_cfg(beta=parse_profile("const:0.1"),
                       beta_int=parse_profile("const:0.1"), delta=8.0,
                       n0=5, t_max=40.0)
        est = estimate_survival_probability(cfg, fixture20, 300, 40.0)
        assert est.probability == 0.0

    def test_below_threshold_survival_exceeds_half(self, fixture20):
        thr = 2 * spectral_radius(fixture20.weights).radius + 2
        cfg = make_cfg(beta=parse_profile("const:2"),
                       beta_int=parse_profile("const:2"), delta=0.9 * thr,
                       n0=30, t_max=4.0, master_seed=88)
        est = estimate_survival_probability(cfg, fixture20, 200, 4.0)
        assert est.probability > 0.5
        assert est.stderr == pytest.approx(
            math.sqrt(est.probability * (1 - est.probability) / 200))

    def test_horizon_validation(self, k3):
        with pytest.raises(ValueError, match="horizon"):
            estimate_survival_probability(make_cfg(t_max=5.0), k3, 10, 6.0)


class TestMeanField:
    def test_pure_decay_componentwise(self, k3):
        grid = np.linspace(0.0, 3.0, 7)
        x0 = np.array([4.0, 1.0, 0.5])
        series = mean_field_trajectory(k3, const_model(0.0, 0.0, 2.0), x0,
                                       grid)
        for k, t in enumerate(grid):
            np.testing.assert_allclose(series[k], x0 * math.exp(-2.0 * t),
                                       rtol=1e-10)

    def test_projection_matches_scalar_exponential_on_k3(self, k3):
        info = spectral_radius(k3.weights)
        beta, beta_int, delta = 2.0, 2.0, 5.0
        grid = np.linspace(0.0, 10.0, 101)
        x0 = np.array([3.0, 1.0, 2.0])
        series = mean_field_trajectory(
            k3, const_model(beta, beta_int, delta), x0, grid)
        q = info.eigvec
        rate = beta * info.radius + beta_int - delta
        for k, t in enumerate(grid):
            expected = math.exp(rate * t) * float(q @ x0)
            assert float(q @ series[k]) == pytest.approx(expected, rel=1e-6)

    def test_projection_on_random_symmetric_graph(self):
        g = random_strong_digraph(8, n=10, symmetric=True)
        info = spectral_radius(g.weights, tol=1e-13)
        beta, beta_int, delta = 1.0, 0.5, 3.0
        grid = np.linspace(0.0, 10.0, 51)
        rng = np.random.default_rng(2)
        x0 = rng.random(10) * 5
        series = mean_field_trajectory(
            g, const_model(beta, beta_int, delta), x0, grid)
        q = info.eigvec
        rate = beta * info.radius + beta_int - delta
        for k, t in enumerate(grid):
            expected = math.exp(rate * t) * float(q @ x0)
            assert float(q @ series[k]) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_modulation_enters_the_generator(self, sparse):
        csr, dense, d = modulated_twins(n=12, seed=3)
        g = csr if sparse else dense
        beta, beta_int, delta = 0.7, 1.3, 4.0
        grid = np.array([0.0, 0.5, 1.0, 2.5])
        x0 = np.arange(12, dtype=float)
        series = mean_field_trajectory(
            g, const_model(beta, beta_int, delta, d), x0, grid)
        gen = (beta * dense.weights + beta_int * np.diag(d.values)
               - delta * np.eye(12))
        for k, t in enumerate(grid):
            np.testing.assert_allclose(series[k],
                                       scipy.linalg.expm(gen * t) @ x0,
                                       rtol=1e-10)

    def test_constant_profiles_accepted_nonconstant_rejected(self, k3):
        grid = np.array([0.0, 1.0])
        x0 = np.ones(3)
        out = mean_field_trajectory(
            k3, EpidemicModel(Constant(Fraction(1)), Constant(Fraction(2)),
                              4.0), x0, grid)
        assert out.shape == (2, 3)
        with pytest.raises(ValueError, match="constant"):
            mean_field_trajectory(
                k3, EpidemicModel(parse_profile("harmonic:1"),
                                  Constant(Fraction(0)), 1.0), x0, grid)

    def test_ensemble_mean_tracks_ode(self, fixture20):
        # constant rates, decaying regime: ensemble mean within three
        # standard errors of the ODE total over the first half horizon
        beta, beta_int = 1.0, 1.0
        thr = beta * spectral_radius(fixture20.weights).radius + beta_int
        delta = 1.2 * thr
        cfg = make_cfg(beta=parse_profile("const:1"),
                       beta_int=parse_profile("const:1"), delta=delta,
                       n0=40, t_max=2.0, master_seed=9)
        grid = np.linspace(0.0, 2.0, 21)
        runs = 600
        summary = run_ensemble(cfg, fixture20, runs, grid, keep_per_run=True)
        x0 = np.full(fixture20.node_count, 40 / fixture20.node_count)
        ode = mean_field_trajectory(fixture20,
                                    const_model(beta, beta_int, delta), x0,
                                    grid).sum(axis=1)
        half = grid.size // 2
        for j in range(half):
            se = summary.per_run_totals[:, j].std(ddof=1) / math.sqrt(runs)
            assert abs(summary.mean_total[j] - ode[j]) <= 3 * se + 1e-9

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dieout import gillespie
from dieout.gillespie import (SimConfig, _EventTables, _locate, _map_runs,
                              _pick, _pick_rows, mean_field_trajectory,
                              run_ensemble, run_rng, simulate_run,
                              trimmed_interval)
from dieout.graphs import (CSR, DiagonalModulation, EpidemicModel,
                           LocalityGraph, load_edge_list, spectral_radius)
from dieout.rates import FLOAT, Constant, parse_profile

from conftest import const_model, random_strong_digraph
from oracles import (EpidemicState, estimate_survival_probability,
                     node_rates, scipy_weights, step)


def modulated_twins(n: int = 60, seed: int = 5):
    """A directed graph built from a CSR matrix, its twin built from a
    dense array, and a modulation D != I."""
    dense = random_strong_digraph(seed, n=n)
    csr = LocalityGraph(dense.labels, scipy_weights(dense))
    d = DiagonalModulation(np.random.default_rng(seed).uniform(0.5, 1.5, n))
    return csr, dense, d


def force_blocked_tables(monkeypatch, g: LocalityGraph) -> None:
    """Make the simulator draw events on ``g`` through its blocked CSR
    tables (several sqrt(N)-node blocks), which by node count it keeps
    for graphs far larger than a test's."""
    monkeypatch.setattr(gillespie, "DENSE_NODE_LIMIT", 0)
    assert _EventTables.of(g, const_model(1, 1, 1.0)).blocked


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
        expected_birth = (beta.evaluator(FLOAT)(n) * (w @ counts)
                          + beta_int.evaluator(FLOAT)(n) * d.values * counts)
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
        cap_coeff = (model.beta.sup(1, FLOAT) * c_max
                     + model.beta_int.sup(1, FLOAT) + 1.5)
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
            g = LocalityGraph(g.labels, scipy_weights(g))
        rng = np.random.default_rng(seed)
        model = EpidemicModel(parse_profile("harmonic:3"),
                              parse_profile("step:2,1/3,25"), 1.5,
                              DiagonalModulation(rng.uniform(0.1, 4.0, n)))
        counts = rng.integers(0, 8, n)
        counts[rng.integers(n)] += 1
        birth, _, _ = node_rates(EpidemicState.from_counts(counts), g, model)
        total = int(counts.sum())
        m = model.growth_matrix(g, model.beta.evaluator(FLOAT)(total),
                                model.beta_int.evaluator(FLOAT)(total))
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
    @pytest.mark.parametrize("t_max", [math.inf, math.nan, 0.0, -1.0])
    def test_t_max_must_be_finite_and_positive(self, t_max):
        # an infinite horizon ran a supercritical epidemic forever
        with pytest.raises(ValueError,
                           match="t_max must be finite and positive"):
            make_cfg(t_max=t_max)

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

    def test_incremental_rates_match_reference(self, fixture20, monkeypatch):
        # replay the event log and verify the cached-rate trajectory
        # visits states whose reference rates are self-consistent, in
        # the dense tables and in the blocked CSR tables with D != I
        csr, _, d = modulated_twins()
        for g, modulation in ((fixture20, None), (csr, d)):
            if modulation is not None:
                force_blocked_tables(monkeypatch, g)
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
    def test_first_event_frequencies_match_reference_rates(self, storage,
                                                           monkeypatch):
        # storage: the simulator's event tables, blocked CSR or dense
        csr, dense, d = modulated_twins()
        g = csr if storage == "csr" else dense
        if storage == "csr":
            force_blocked_tables(monkeypatch, g)
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
    def test_every_event_follows_reference_rates(self, storage, monkeypatch):
        # randomized probability integral transform of each recorded
        # event under the reference rates of the state it left: uniform
        # on [0, 1] iff events are drawn with the right probabilities,
        # which stale cached sums would break after the first event
        csr, dense, d = modulated_twins()
        g = csr if storage == "csr" else dense
        if storage == "csr":
            force_blocked_tables(monkeypatch, g)
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

    def test_blocked_run_equals_dense_run(self, monkeypatch):
        # integer weights and D in {1, 2} keep every running sum exact,
        # so a run drawn through the blocked tables (one fused column
        # update, two-level picks) must equal the dense run byte for
        # byte, across cache refreshes; delta above rho keeps runs short
        rng = np.random.default_rng(18)
        n = 60
        w = rng.integers(0, 4, (n, n)).astype(float)
        w[np.arange(n), (np.arange(n) + 1) % n] += 1.0
        np.fill_diagonal(w, 0.0)
        g = LocalityGraph(tuple(f"n{i:02d}" for i in range(n)), w)
        d = DiagonalModulation(rng.integers(1, 3, n).astype(float))
        rho = max(np.linalg.eigvals(w + 0.5 * np.diag(d.values)).real)
        cfg = make_cfg(beta=parse_profile("const:1"),
                       beta_int=parse_profile("const:1/2"), delta=1.05 * rho,
                       modulation=d, n0=400, t_max=5.0, record_events=True)
        grid = np.linspace(0.0, 5.0, 51)

        def runs():
            return [simulate_run(cfg, g, i, grid) for i in range(3)]

        dense = runs()
        force_blocked_tables(monkeypatch, g)
        blocked = runs()
        assert max(r.event_count for r in dense) > gillespie._REFRESH_EVERY
        for a, b in zip(dense, blocked):
            assert a.events == b.events
            assert a.grid_totals.tobytes() == b.grid_totals.tobytes()
            assert repr(a.extinct_at) == repr(b.extinct_at)
            assert (a.event_count, a.null_events) == (b.event_count,
                                                      b.null_events)

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

    def test_row_pick_is_locate_on_every_row(self):
        # the lockstep step picks all rows at once, summing row by row
        # below _COLUMN_SUMS rows and node by node from it; residue
        # below the target ([0, -1e-17, 0, 0, 2] at 0 is node 4) needs
        # no fallback, while rows its count would get wrong go through
        # _locate: an empty row, a target past the end ([1, 0, 1] at 5
        # is node 2, not 0), a negative entry whose running sum passes
        # the target and falls back ([2, -2, 1, 1] at 1.5 is node 3 by
        # bisection, not 0) and a landing on a zero entry ([0, 0, 1] at
        # -1 is node 2, not 0)
        rows = np.array([[0.0, -1e-17, 0.0, 0.0, 2.0, 0.0, 1.0],
                         [0.0, -1e-17, 0.0, 0.0, 2.0, 0.0, 1.0],
                         [0.0, -1e-17, 0.0, 0.0, 0.0, 0.0, 0.0],
                         [1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                         [2.0, -2.0, 1.0, 1.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
                         [0.5, 0.0, 3.0, 0.25, 0.0, 1.0, 2.0]])
        targets = np.array([0.0, 5.0, 0.0, 5.0, 1.5, -1.0, 3.6])
        expected = [4, 6, -1, 2, 3, 2, 3]
        assert [_locate(r, t) for r, t in zip(rows, targets)] == expected
        assert _pick_rows(rows, targets).tolist() == expected
        rng = np.random.default_rng(4)
        assert 50 < gillespie._COLUMN_SUMS <= 400
        for live in (50, 400):
            values = rng.integers(0, 3, (live, 9)) * rng.random((live, 9))
            values[rng.random((live, 9)) < 0.05] = -1e-17
            targets = rng.random(live) * values.sum(axis=1) * 1.01
            assert _pick_rows(values, targets).tolist() == [
                _locate(r, t) for r, t in zip(values, targets)]

    def test_row_picks_fit_int16(self):
        # _pick_rows counts in int16; its rows come from dense tables
        assert gillespie.DENSE_NODE_LIMIT < 2 ** 15


class TestLockstepBatch:
    """A dense ensemble advances its runs in lockstep batches; each run
    must come out byte-identical to simulating it alone."""

    RUNS = 23

    @pytest.fixture(scope="class")
    def alone(self):
        # directed, D != I, and most runs pass the profiles' switch at
        # n = 40 while a few die out before t_max
        _, g, d = modulated_twins(n=30, seed=11)
        cfg = make_cfg(beta=parse_profile("step:0.5,0.2,40"),
                       beta_int=parse_profile("step:1,0.1,40"), delta=4.0,
                       n0=2, modulation=d, record_events=True, t_max=2.0,
                       master_seed=5)
        grid = np.linspace(0.0, 2.0, 41)
        runs = [simulate_run(cfg, g, i, grid) for i in range(self.RUNS)]
        peaks = [max(np.cumsum([2] + [dc for _, _, dc in r.events]))
                 for r in runs]
        assert sum(p > 40 for p in peaks) >= 10
        assert 0 < sum(r.extinct_at is not None for r in runs) < self.RUNS
        return g, cfg, grid, runs

    @staticmethod
    def as_bytes(traj):
        return (traj.run_index, repr(traj.extinct_at), repr(traj.truncated_at),
                traj.grid_totals.tobytes(), repr(traj.events),
                traj.event_count, traj.null_events)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("batch, handoff", [
        *(pytest.param(b, None, id=str(b)) for b in (1, 7, None, "blocked")),
        *(pytest.param(b, h, id=f"{b}-handoff{h}")
          for b, h in itertools.product((1, 7, None), (0, 1, 7, RUNS)))])
    def test_every_run_equals_simulate_run(self, alone, monkeypatch, batch,
                                           handoff, threads):
        # "blocked": the blocked CSR tables, run one at a time; at 2
        # threads each worker builds them from the graph it is sent.
        # A batch hands its last ``handoff`` live runs (by default
        # _HANDOFF) to the one-run loop: 0 never, RUNS after its first
        # step
        g, cfg, grid, expected = alone
        if handoff is not None:
            monkeypatch.setattr(gillespie, "_HANDOFF", handoff)
        if batch == "blocked":
            force_blocked_tables(monkeypatch, g)
            expected = [simulate_run(cfg, g, i, grid)
                        for i in range(self.RUNS)]
        elif batch is not None:
            monkeypatch.setattr(gillespie, "_BATCH_ENTRIES",
                                batch * g.node_count)
        got = _map_runs(cfg, g, self.RUNS, grid, threads)
        assert [self.as_bytes(t) for t in got] == [
            self.as_bytes(t) for t in expected]

    def test_drift_residue_reaches_the_row_pick(self, alone, monkeypatch):
        # W X drifts a hair below zero at some nodes; the batch must pick
        # past such entries exactly as _locate does
        g, cfg, grid, expected = alone
        monkeypatch.setattr(gillespie, "_HANDOFF", 0)
        residue = []
        pick_rows = gillespie._pick_rows

        def spy(values, targets, scratch=None):
            residue.append(int((values.min(axis=1) < 0).sum()))
            return pick_rows(values, targets, scratch)

        monkeypatch.setattr(gillespie, "_pick_rows", spy)
        got = _map_runs(cfg, g, self.RUNS, grid, 1)
        assert [self.as_bytes(t) for t in got] == [
            self.as_bytes(t) for t in expected]
        assert sum(residue) > 10

    @pytest.mark.parametrize("handoff", [1, 7, RUNS])
    def test_handoff_resumes_mid_block_and_between_refreshes(
            self, alone, monkeypatch, handoff):
        # a refresh every 3 iterations: the runs handed over at steps 603
        # and 470 (handoff 1 and 7) resume 27 and 22 draws into a block,
        # the latter between two refreshes; at step 1 both hold
        g, cfg, grid, _ = alone
        monkeypatch.setattr(gillespie, "_REFRESH_EVERY", 3)
        expected = [simulate_run(cfg, g, i, grid) for i in range(self.RUNS)]
        monkeypatch.setattr(gillespie, "_HANDOFF", handoff)
        steps = []
        advance = gillespie._advance

        def spy(cfg, tables, run, grid):
            steps.append(run.step)
            advance(cfg, tables, run, grid)

        monkeypatch.setattr(gillespie, "_advance", spy)
        got = _map_runs(cfg, g, self.RUNS, grid, 1)
        assert [self.as_bytes(t) for t in got] == [
            self.as_bytes(t) for t in expected]
        assert len(steps) == handoff and len(set(steps)) == 1
        assert steps[0] % gillespie._DRAW_BLOCK != 0
        if handoff > 1:
            assert steps[0] % 3 != 0

    def test_batch_hands_its_tail_to_the_one_run_loop(self, alone,
                                                      monkeypatch):
        # the default crossover fires on this ensemble: the batch stops
        # stepping long before its longest run ends, and the one-run
        # loop finishes the runs still live
        g, cfg, grid, expected = alone
        handed, picks = [], []
        advance, pick_rows = gillespie._advance, gillespie._pick_rows

        def advance_spy(cfg, tables, run, grid):
            handed.append(run.step)
            advance(cfg, tables, run, grid)

        def pick_spy(values, targets, scratch=None):
            picks.append(values.shape[0])
            return pick_rows(values, targets, scratch)

        monkeypatch.setattr(gillespie, "_advance", advance_spy)
        monkeypatch.setattr(gillespie, "_pick_rows", pick_spy)
        got = _map_runs(cfg, g, self.RUNS, grid, 1)
        assert [self.as_bytes(t) for t in got] == [
            self.as_bytes(t) for t in expected]
        assert len(handed) == gillespie._HANDOFF
        longest = max(t.event_count + t.null_events for t in got)
        assert handed[0] == len(picks) < longest
        assert min(picks) > gillespie._HANDOFF

    @pytest.mark.parametrize("margin", [1, 3])
    def test_rate_window_moves_keep_every_run(self, alone, monkeypatch,
                                              margin):
        # the beta table follows the live totals a few states each way,
        # so the batch moves it many times a run; every value read is
        # still the evaluator's
        g, cfg, grid, expected = alone
        monkeypatch.setattr(gillespie, "_RATE_MARGIN", margin)
        windows = []
        cover = gillespie._RateTable.cover

        def spy(table, low, high):
            cover(table, low, high)
            windows.append((table.lo, table.beta.size))

        monkeypatch.setattr(gillespie._RateTable, "cover", spy)
        got = _map_runs(cfg, g, self.RUNS, grid, 1)
        assert [self.as_bytes(t) for t in got] == [
            self.as_bytes(t) for t in expected]
        assert len(set(windows)) > 10
        assert max(size for _, size in windows) < 100

    def test_rate_table_is_bounded_by_the_live_totals(self):
        # 4,000,000 cases and no event before t_max: the table holds a
        # window around n0, not every n up to it
        w = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        g = LocalityGraph(("a", "b", "c"), w)
        cfg = make_cfg(beta=parse_profile("harmonic:3"),
                       beta_int=parse_profile("const:1/2"), n0=4_000_000,
                       t_max=1e-12)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            summary = run_ensemble(cfg, g, 40, np.array([0.0, 1e-12]))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary.events == 0
        assert (summary.per_run_totals == 4_000_000).all()
        assert elapsed < 0.2
        assert peak < 10 * 2**20

    def test_workers_build_their_own_tables(self, alone, monkeypatch):
        # a pool is sent the graph, never the event tables built from it
        g, cfg, grid, _ = alone
        force_blocked_tables(monkeypatch, g)
        pickled = []

        def spy(tables, protocol):
            pickled.append(tables)
            return object.__reduce_ex__(tables, protocol)

        monkeypatch.setattr(_EventTables, "__reduce_ex__", spy)
        got = _map_runs(cfg, g, self.RUNS, grid, 2)
        assert pickled == []
        assert [t.run_index for t in got] == list(range(self.RUNS))


class TestNullEvents:
    """A draw that lands on the rounding residue of a cached total whose
    vector holds no positive entry changes nothing; the loop iteration
    still counts toward the refresh cadence, in both simulators."""

    @pytest.mark.parametrize("refresh_every, nulls, handoff", [
        pytest.param(3, 1, 0, id="3-1"), pytest.param(8192, 2, 0, id="8192-2"),
        pytest.param(3, 1, 4, id="3-1-handoff4"),
        pytest.param(8192, 2, 4, id="8192-2-handoff4")])
    def test_null_events_count_toward_the_refresh(self, monkeypatch,
                                                  refresh_every, nulls,
                                                  handoff):
        # s1 and s2 press on r1 and r2 only.  The scripted first draws
        # cure s1, then s2, which leaves the cached sum(W X) at
        # 0.1 + 0.2 - 0.1 - 0.2 = 5.55e-17 while every entry of W X is
        # 0: each uniform 0 then picks from an empty vector, until the
        # refresh at iteration 3 (the null event counted) clears the
        # residue and the next uniform 0 cures r1
        w = np.zeros((4, 4))
        w[2, 0], w[3, 1] = 0.1, 0.2
        g = LocalityGraph(("s1", "s2", "r1", "r2"), w)
        cfg = make_cfg(beta=parse_profile("const:1"), n0=3,
                       initial=np.array([1, 1, 1, 0]), record_events=True)
        grid = np.linspace(0.0, 1.0, 11)
        monkeypatch.setattr(gillespie, "_REFRESH_EVERY", refresh_every)
        # 4: the batch hands its runs over after its first step
        monkeypatch.setattr(gillespie, "_HANDOFF", handoff)
        # generators whose first block is still to be drawn; held, not
        # keyed by id(), since ids are reused
        pending = []
        draw_block = gillespie._draw_block

        def tracked_rng(master_seed, run_index):
            rng = run_rng(master_seed, run_index)
            pending.append(rng)
            return rng

        def scripted(rng, exps, unis):
            draw_block(rng, exps, unis)
            if any(rng is p for p in pending):
                pending.remove(rng)
                exps[:] = 0.01
                unis[:4] = 0.2, 0.2, 0.0, 0.0

        monkeypatch.setattr(gillespie, "run_rng", tracked_rng)
        monkeypatch.setattr(gillespie, "_draw_block", scripted)
        alone = [simulate_run(cfg, g, i, grid) for i in range(4)]
        batch = gillespie._simulate_batch(
            cfg, _EventTables.of(g, cfg.model), range(4), grid)
        assert not pending
        for a, b in zip(alone, batch):
            assert a.null_events == b.null_events == nulls
            assert [e[1:] for e in a.events] == [(0, -1), (1, -1), (2, -1)]
            assert a.grid_totals.tolist() == b.grid_totals.tolist()
            assert (a.events, a.event_count, a.extinct_at) == (
                b.events, b.event_count, b.extinct_at)


class TestEnsemble:
    def test_minimum_runs_enforced(self, k3):
        with pytest.raises(ValueError, match="40"):
            run_ensemble(make_cfg(), k3, 39, np.linspace(0, 1, 5))

    def test_negative_thread_count_rejected(self, k3):
        with pytest.raises(ValueError, match="threads"):
            run_ensemble(make_cfg(), k3, 40, np.linspace(0, 1, 5),
                         threads=-3)

    def test_trimming_matches_sort_oracle(self, fixture20):
        cfg = make_cfg(beta=parse_profile("const:1"),
                       beta_int=parse_profile("const:1"), delta=5.0, n0=20,
                       t_max=5.0)
        grid = np.linspace(0.0, 5.0, 26)
        summary = run_ensemble(cfg, fixture20, 40, grid)
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
        summary = run_ensemble(cfg, k3, 50, grid)
        assert (summary.per_run_totals == 0).all()
        assert summary.survival_fraction[0] == 0.0
        assert summary.lower95[0] == summary.upper95[0] == 0.0

    def test_parallel_equals_sequential(self, k3):
        cfg = make_cfg(beta=parse_profile("const:0.8"),
                       beta_int=parse_profile("const:0.8"), delta=3.0,
                       n0=8, t_max=4.0)
        grid = np.linspace(0.0, 4.0, 11)
        seq = run_ensemble(cfg, k3, 44, grid, threads=1)
        par = run_ensemble(cfg, k3, 44, grid, threads=2)
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
        gen = (beta * dense.dense_weights() + beta_int * np.diag(d.values)
               - delta * np.eye(12))
        for k, t in enumerate(grid):
            np.testing.assert_allclose(series[k],
                                       scipy.linalg.expm(gen * t) @ x0,
                                       rtol=1e-10)

    def test_sparse_generator_is_never_densified(self, monkeypatch):
        # a directed circulant above DENSE_NODE_LIMIT where u receives
        # from u+1 and u+7: every column of W sums to c, so with
        # D = eta I the total grows exactly at c beta + eta beta_int - delta
        n, c, eta = 2100, 0.3 + 0.9, 0.8
        rows = np.tile(np.arange(n), 2)
        cols = np.concatenate([(np.arange(n) + 1) % n, (np.arange(n) + 7) % n])
        w = sp.csr_matrix((np.repeat([0.3, 0.9], n), (rows, cols)),
                          shape=(n, n))
        g = LocalityGraph(tuple(f"v{i}" for i in range(n)), w)
        assert n > gillespie.DENSE_NODE_LIMIT

        def refuse(*args, **kwargs):
            raise AssertionError("densified a sparse matrix")

        monkeypatch.setattr(LocalityGraph, "dense_weights", refuse)
        monkeypatch.setattr(CSR, "toarray", refuse)
        for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix,
                    sp.dia_matrix, sp.csr_array, sp.csc_array,
                    sp.coo_array, sp.dia_array):
            monkeypatch.setattr(cls, "toarray", refuse)
            monkeypatch.setattr(cls, "todense", refuse)
        beta, beta_int, delta = 1.5, 0.5, 2.5
        model = const_model(beta, beta_int, delta,
                            DiagonalModulation.uniform(n, eta))
        grid = np.array([0.0, 0.013, 0.2, 0.5, 1.7, 3.0])
        x0 = np.random.default_rng(4).uniform(0.0, 3.0, n)
        totals = mean_field_trajectory(g, model, x0, grid).sum(axis=1)
        rate = c * beta + eta * beta_int - delta
        np.testing.assert_allclose(totals, np.exp(rate * grid) * x0.sum(),
                                   rtol=1e-12, atol=0)

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

    @pytest.mark.parametrize("x0", [[math.nan, -5.0], [1.0, -5.0],
                                    [math.inf, 1.0], [0.0, -1e-300]])
    def test_rejects_nonfinite_or_negative_x0(self, x0):
        g = load_edge_list("a b 1\nb a 1")
        with pytest.raises(ValueError, match="x0 must be finite and "
                                             "nonnegative"):
            mean_field_trajectory(g, const_model(1.0, 0.0, 2.0), x0,
                                  np.array([0.0, 1.0]))

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
        summary = run_ensemble(cfg, fixture20, runs, grid)
        x0 = np.full(fixture20.node_count, 40 / fixture20.node_count)
        ode = mean_field_trajectory(fixture20,
                                    const_model(beta, beta_int, delta), x0,
                                    grid).sum(axis=1)
        half = grid.size // 2
        for j in range(half):
            se = summary.per_run_totals[:, j].std(ddof=1) / math.sqrt(runs)
            assert abs(summary.mean_total[j] - ode[j]) <= 3 * se + 1e-9


class TestGridCheck:
    """Every grid entry point rejects a grid that is not a nonempty,
    finite, nonnegative, strictly increasing 1-D array, before any
    simulation."""

    BAD = [[0.0, np.nan, 1.0], [0.0, np.inf], [-np.inf, 0.0], [],
           [[0.0, 1.0], [2.0, 3.0]], [0.0, 1.0, 1.0], [1.0, 0.5],
           [-3.0, 0.0, 1.0], [-1e-300]]

    @staticmethod
    def path_abc() -> LocalityGraph:
        return load_edge_list("a b 1\nb a 1\nb c 1\nc b 1")

    def test_nan_grid_point_no_longer_corrupts_the_next(self):
        # before the check, [0, nan, 1] read 1.4 at t = 1 here: the NaN
        # point swallowed the events up to it
        g = self.path_abc()
        cfg = make_cfg(beta=parse_profile("const:1"),
                       beta_int=parse_profile("const:0.5"), delta=3.0,
                       n0=5, t_max=10.0, master_seed=1)
        good = run_ensemble(cfg, g, 40, [0.0, 1.0, 5.0])
        assert good.mean_total[1] == pytest.approx(1.725)
        with pytest.raises(ValueError, match="finite"):
            run_ensemble(cfg, g, 40, [0.0, np.nan, 1.0])

    def test_negative_time_is_named(self):
        # before the check, mean_field_trajectory integrated backward
        # here to an expected count of -2.6e4 at t = -3, and
        # run_ensemble reported the initial total there
        g, grid = self.path_abc(), [-3.0, -1.0, 0.0, 1.0]
        cfg = make_cfg(beta=parse_profile("const:1"), n0=5, t_max=10.0)
        named = r"nonnegative, got time -3\.0"
        for call in (lambda: run_ensemble(cfg, g, 40, grid),
                     lambda: simulate_run(cfg, g, 0, grid),
                     lambda: mean_field_trajectory(
                         g, const_model(1, 0.5, 3.0), np.ones(3), grid)):
            with pytest.raises(ValueError, match=named):
                call()

    @pytest.mark.parametrize("grid", BAD)
    def test_run_ensemble_rejects(self, grid):
        cfg = make_cfg(beta=parse_profile("const:1"), n0=5, t_max=10.0)
        with pytest.raises(ValueError, match="grid must be"):
            run_ensemble(cfg, self.path_abc(), 40, grid)

    @pytest.mark.parametrize("grid", BAD)
    def test_simulate_run_rejects(self, grid):
        cfg = make_cfg(beta=parse_profile("const:1"), n0=5, t_max=10.0)
        with pytest.raises(ValueError, match="grid must be"):
            simulate_run(cfg, self.path_abc(), 0, grid)

    @pytest.mark.parametrize("grid", BAD)
    def test_mean_field_rejects(self, grid):
        with pytest.raises(ValueError, match="grid must be"):
            mean_field_trajectory(self.path_abc(), const_model(1, 0.5, 3.0),
                                  np.ones(3), grid)

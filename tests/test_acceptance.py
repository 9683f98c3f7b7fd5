"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them all).

Statistical criteria use fixed seeds; numerical criteria carry their
tolerances inline.  Where a horizon or cut-off is implementation
defined, the chosen value is documented next to the assertion.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dieout.chains import (BirthDeathSpec, PrecisionConfig,
                           equilibrium_lower_bound, hitting_table)
from dieout.gillespie import (SimConfig, mean_field_trajectory, run_ensemble,
                              simulate_run)
from dieout.graphs import (DiagonalModulation, EpidemicModel, LocalityGraph,
                           spectral_radius)
from dieout.rates import Constant, Harmonic, Step, parse_profile
from dieout.regime import Regime, classify_general, classify_scalar_D, \
    classify_decoupled

from conftest import (check_decoupled_bracket, complete_graph, const_model,
                      random_strong_digraph)
from oracles import geometric_lower, s_recursion_step, symmetrized_upper

BF256 = PrecisionConfig(mode="bigfloat", bits=256, series_rel_tol=1e-40)
RATIONAL = PrecisionConfig(mode="rational", series_rel_tol=1e-30)


@contextmanager
def criterion(number: int, title: str, limit_s: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {title}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {number:2d} PASS: {title} ({elapsed:.1f}s)")
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s"


def test_01_closed_form_expected_T1():
    with criterion(1, "E[T1] for gamma=k/n, delta=1 equals (e^k-1)/k "
                      "to 1e-10 relative (256-bit)"):
        for k in (1, 2, 5):
            t0 = time.perf_counter()
            spec = BirthDeathSpec(Harmonic(Fraction(k)), Fraction(1))
            result = hitting_table(spec, 1, BF256)
            elapsed = time.perf_counter() - t0
            with mpmath.mp.workprec(256):
                closed = (mpmath.e ** k - 1) / k
                rel = abs(result.T[0] - closed) / closed
                assert rel < mpmath.mpf(10) ** -10
            assert result.row_certified[-1]
            assert elapsed < 1.0


def test_02_exact_recursion_equals_tail_series():
    with criterion(2, "exact-rational recursion == tail series "
                      "(rational equality, n <= 30)", limit_s=10.0):
        for text in ("const:1/2", "harmonic:5", "step:3,1/2,10"):
            spec = BirthDeathSpec(parse_profile(text), Fraction(1))
            # the rows of one table share one truncation index M
            table = hitting_table(spec, 30, RATIONAL)
            s = table.S[0]
            for n in range(1, 31):
                assert table.S[n - 1] == s, f"{text}: mismatch at n={n}"
                if n < 30:
                    s = s_recursion_step(spec, s, n)


def test_03_constant_gamma_envelope():
    with criterion(3, "ln(n+1)/delta <= T_n <= (1+ln n)/(delta-alpha) "
                      "for alpha in {0.1, 0.5, 0.9}, n <= 1e4",
                   limit_s=30.0):
        n_max = 10_000
        for alpha in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            spec = BirthDeathSpec(Constant(alpha), Fraction(1))
            table = hitting_table(spec, n_max, BF256)
            assert table.certified
            with mpmath.mp.workprec(256):
                slack = 1 / (1 - mpmath.mpf(alpha.numerator)
                             / alpha.denominator)
                for n in range(1, n_max + 1):
                    t = table.T[n - 1]
                    assert t >= mpmath.log(n + 1), (alpha, n)
                    assert t <= (1 + mpmath.log(n)) * slack, (alpha, n)


def test_04_asymptote_diagnostics_and_precision_warning():
    with criterion(4, "n*S_n -> 1 for gamma=5/n (N* reported); 128-bit "
                      "forward recursion provably disagrees"):
        spec = BirthDeathSpec(Harmonic(Fraction(5)), Fraction(1))
        n_max = 20_000
        table = hitting_table(spec, n_max, BF256)
        svals = np.array([p / table.denominator for p in table.numerators])
        ratio = np.arange(1, n_max + 1) * svals
        assert (ratio > 0).all()
        # decreasing toward 1 from n = 2 on, and strictly above 1
        assert np.all(np.diff(ratio[1:]) < 0)
        assert (ratio[1:] > 1.0).all()
        inside = np.abs(ratio - 1.0) < 0.05
        violations = np.where(~inside)[0]
        n_star = int(violations[-1]) + 2 if violations.size else 1
        assert n_star < n_max  # the band is actually reached
        assert np.all(inside[n_star - 1:])
        print(f"    [criterion 4] N* = {n_star}: |n*S_n - 1| < 0.05 "
              f"for every computed n >= N*")

        # 128-bit forward recursion vs certified table
        prec128 = PrecisionConfig(mode="bigfloat", bits=128,
                                  series_rel_tol=1e-30)
        with mpmath.mp.workprec(128):
            s = hitting_table(spec, 1, prec128).T[0]
        diverged_at = None
        for n in range(1, 150):
            s = s_recursion_step(spec, s, n, prec128)
            rel = abs(float(s) - svals[n]) / svals[n]
            if rel > 0.1:
                diverged_at = n + 1
                break
        assert diverged_at is not None, \
            "128-bit recursion stayed accurate unexpectedly"
        print(f"    [criterion 4] 128-bit recursion departs from the "
              f"certified values at n = {diverged_at}")


def test_05_spectral_sandwiches():
    with criterion(5, "Schwenk and diagonal-shift sandwiches on 100 "
                      "seeded random 10x10 matrices (tol 1e-9)",
                   limit_s=5.0):
        rng = np.random.default_rng(20260810)
        for trial in range(100):
            w = np.where(rng.random((10, 10)) < 0.5,
                         rng.random((10, 10)) * 3, 0.0)
            np.fill_diagonal(w, 0.0)
            g = LocalityGraph(tuple(f"v{i}" for i in range(10)), w)
            rho = spectral_radius(w, tol=1e-13).radius
            lo = spectral_radius(geometric_lower(g), tol=1e-13).radius
            hi = spectral_radius(symmetrized_upper(g), tol=1e-13).radius
            assert lo <= rho + 1e-9
            assert rho <= hi + 1e-9

            p = rng.random((10, 10))
            p = (p + p.T) / 2
            np.fill_diagonal(p, 0.0)
            q = rng.random(10) * 2
            rho_p = spectral_radius(p, tol=1e-13).radius
            rho_pq = spectral_radius(p + np.diag(q), tol=1e-13).radius
            assert rho_p + q.min() <= rho_pq + 1e-9
            assert rho_pq <= rho_p + q.max() + 1e-9


def test_06_classifier_consistency():
    with criterion(6, "decoupled never contradicts general on 50 seeded "
                      "strongly connected and 50 reducible graphs; its "
                      "bracket holds rho(A) inside the Weyl bracket; "
                      "scalar-D equals general for D = eta*I",
                   limit_s=10.0):
        for seed, ring in itertools.product(range(50), (True, False)):
            rng = np.random.default_rng(seed)
            g = random_strong_digraph(seed, n=8, ring=ring)
            d = DiagonalModulation(rng.random(8) * 2 + 0.25)
            beta_inf = float(rng.random() * 2)
            betaint_inf = float(rng.random() * 2)
            delta = float(rng.random() * 6 + 1e-3)
            model = const_model(beta_inf, betaint_inf, delta, d)
            dec = classify_decoupled(g, model)
            gen = classify_general(g, model)
            if dec.regime is not Regime.INDETERMINATE:
                assert dec.regime is gen.regime, seed

            eta = float(rng.random() * 2 + 0.1)
            check_decoupled_bracket(g, d, beta_inf, betaint_inf, eta)
            model_eta = const_model(beta_inf, betaint_inf, delta,
                                    DiagonalModulation.uniform(8, eta))
            scalar = classify_scalar_D(g, model_eta)
            gen_eta = classify_general(g, model_eta)
            assert scalar.regime is gen_eta.regime, seed
            assert scalar.threshold == pytest.approx(gen_eta.threshold,
                                                     rel=1e-8, abs=1e-9)


def test_07_pure_death_simulation_vs_harmonic_sum():
    with criterion(7, "pure-death mean extinction (n0=20, 1e4 runs) "
                      "within 3 SE of H_20", limit_s=60.0):
        g = complete_graph(4)
        cfg = SimConfig(EpidemicModel(parse_profile("const:0"),
                                      parse_profile("const:0"), 1.0),
                        t_max=200.0, n0=20, master_seed=20260807)
        runs = 10_000
        times = np.empty(runs)
        for i in range(runs):
            times[i] = simulate_run(cfg, g, i).extinct_at
        h20 = float(sum(Fraction(1, k) for k in range(1, 21)))
        # exact variance of a sum of independent exponential stage times
        var = sum(1.0 / k ** 2 for k in range(1, 21))
        se = math.sqrt(var / runs)
        assert abs(times.mean() - h20) < 3 * se, (times.mean(), h20, se)


def test_08_simulation_vs_chain_solver():
    with criterion(8, "1-d chain gamma=const:0.5 (n0=5, 1e4 runs) within "
                      "3 SE of hitting-table T_5", limit_s=60.0):
        # a single locality with beta_int = 0.5 realizes exactly the
        # birth-death chain with gamma(n) = 0.5
        g = LocalityGraph(("only",), np.zeros((1, 1)))
        cfg = SimConfig(EpidemicModel(parse_profile("const:0"),
                                      parse_profile("const:0.5"), 1.0),
                        t_max=1000.0, n0=5, master_seed=77001)
        runs = 10_000
        times = np.empty(runs)
        for i in range(runs):
            times[i] = simulate_run(cfg, g, i).extinct_at
        spec = BirthDeathSpec(Constant(Fraction(1, 2)), Fraction(1))
        t5 = float(hitting_table(spec, 5, BF256).T[4])
        se = times.std(ddof=1) / math.sqrt(runs)
        assert abs(times.mean() - t5) < 3 * se, (times.mean(), t5, se)


def test_09_regime_reproduction_at_desk_scale(fixture20):
    # Documented horizons: extinction is checked at t = 50, several
    # times the above-threshold extinction scale ln(n0)/(delta - thr)
    # (about 7.7 here); growth at t = 6, by when the Perron projection
    # has amplified by roughly e^3.
    HORIZON_ABOVE = 50.0
    HORIZON_BELOW = 6.0
    with criterion(9, "20-node fixture: ratio 1.10 -> >=99% of 500 runs "
                      "extinct; ratio 0.90 -> >=50% above n0",
                   limit_s=300.0):
        threshold = 2 * spectral_radius(fixture20.weights).radius + 2
        runs, n0 = 500, 50

        cfg_above = SimConfig(EpidemicModel(parse_profile("const:2"),
                                            parse_profile("const:2"),
                                            1.10 * threshold),
                              t_max=HORIZON_ABOVE, n0=n0, master_seed=901)
        # the ensemble's runs are byte-identical to simulate_run's
        above = run_ensemble(cfg_above, fixture20, runs,
                             np.array([0.0, HORIZON_ABOVE]))
        extinct = len(above.run_extinctions)
        assert extinct >= 0.99 * runs, f"only {extinct}/{runs} extinct"

        cfg_below = SimConfig(EpidemicModel(parse_profile("const:2"),
                                            parse_profile("const:2"),
                                            0.90 * threshold),
                              t_max=HORIZON_BELOW, n0=n0, master_seed=902)
        below = run_ensemble(cfg_below, fixture20, runs,
                             np.array([0.0, HORIZON_BELOW]))
        grown = int((below.per_run_totals[:, -1] > n0).sum())
        assert grown >= 0.50 * runs, f"only {grown}/{runs} grew past n0"
        print(f"    [criterion 9] {extinct}/{runs} extinct by "
              f"t={HORIZON_ABOVE}; {grown}/{runs} above n0 at "
              f"t={HORIZON_BELOW}")


def test_10_metastability_and_equilibrium_bound(fixture20):
    with criterion(10, "step profiles plateau near n*=500 beyond 5x the "
                       "post-switch extinction scale; exact exponential "
                       "lower bounds"):
        # simulation part: rates drop to zero above n* = 500
        n_star, delta = 500, 2.5
        post_threshold = 0.0
        scale = math.log(n_star) / (delta - post_threshold)
        t_max = 16.0
        cfg = SimConfig(EpidemicModel(parse_profile(f"step:2,0,{n_star}"),
                                      parse_profile(f"step:2,0,{n_star}"),
                                      delta),
                        t_max=t_max, n0=50, master_seed=1001)
        grid = np.arange(0.0, t_max + 1e-9, 0.05)
        summary = run_ensemble(cfg, fixture20, 40, grid)
        inside = np.abs(summary.mean_total - n_star) <= 0.25 * n_star
        # longest contiguous window with the ensemble mean in the band
        best = cur = 0
        for flag in inside:
            cur = cur + 1 if flag else 0
            best = max(best, cur)
        window = best * 0.05
        assert window > 5 * scale, (window, 5 * scale)
        print(f"    [criterion 10] plateau window {window:.1f} time units "
              f"(needs > {5 * scale:.1f})")

        # exact part: E[T1] dominates the equilibrium-point bound
        for eps, n_eq in ((Fraction(1), 10), (Fraction(1, 2), 50)):
            spec = BirthDeathSpec(Step(1 + eps, Fraction(0), n_eq),
                                  Fraction(1))
            t1 = hitting_table(spec, 1, RATIONAL).T[0]
            bound = equilibrium_lower_bound(eps, 1, n_eq)
            assert t1 >= bound
        assert equilibrium_lower_bound(1, 1, 10) == Fraction(2047, 11)


def test_11_mean_field_projection():
    with criterion(11, "Perron projection of the integrated ODE matches "
                       "the scalar exponential to 1e-6 relative"):
        cases = [
            (complete_graph(3), 2.0, 2.0, 5.0, np.array([3.0, 1.0, 2.0])),
            (random_strong_digraph(8, n=10, symmetric=True), 1.0, 0.5, 3.0,
             np.random.default_rng(5).random(10) * 4 + 0.5),
        ]
        grid = np.linspace(0.0, 10.0, 201)
        for g, beta, beta_int, delta, x0 in cases:
            info = spectral_radius(g.weights, tol=1e-13)
            series = mean_field_trajectory(
                g, const_model(beta, beta_int, delta), x0, grid)
            rate = beta * info.radius + beta_int - delta
            q = info.eigvec
            for k, t in enumerate(grid):
                expected = math.exp(rate * t) * float(q @ x0)
                actual = float(q @ series[k])
                assert abs(actual - expected) <= 1e-6 * abs(expected), t

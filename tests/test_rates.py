import math
import pickle
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dieout.rates import (Combined, Constant, ExactnessError, Harmonic,
                          LogOverN, ProfileError, Scaled, Step, Table,
                          gamma_from_graph, parse_parameter, parse_profile)


def all_families():
    return [
        Constant(Fraction(2)),
        Step(Fraction(3), Fraction(1, 2), 1000),
        Harmonic(Fraction(5)),
        LogOverN(Fraction(3, 2)),
        Table(((1, Fraction(4)), (3, Fraction(1))), tail=Fraction(1, 4)),
        gamma_from_graph(Harmonic(Fraction(2)), Constant(Fraction(1, 3)),
                         Fraction(5, 2)),
    ]


class TestParsing:
    def test_constant(self):
        p = parse_profile("const:2")
        assert isinstance(p, Constant)
        assert p.value(7) == 2.0
        assert p.limit == 2.0
        assert p.sup_from(1) == 2.0

    def test_step(self):
        p = parse_profile("step:3,0.5,1000")
        assert p.value(999) == 3.0
        assert p.value(1000) == 3.0  # boundary belongs to the high side
        assert p.value(1001) == 0.5
        assert p.limit == 0.5
        assert p.sup_from(1) == 3.0

    def test_harmonic(self):
        p = parse_profile("harmonic:5")
        assert p.value(10) == 0.5
        assert p.value(5) == 1.0
        assert p.limit == 0.0
        assert p.sup_from(1) == 5.0

    def test_logn(self):
        p = parse_profile("logn:2")
        assert p.value(3) == pytest.approx(2 * math.log(4) / 3)
        assert p.limit == 0.0
        assert p.sup_from(1) == pytest.approx(2 * math.log(2))

    def test_rational_string_parameters(self):
        assert parse_profile("const:1/2").c == Fraction(1, 2)
        assert parse_profile("const:2.5e-1").c == Fraction(1, 4)

    def test_negative_parameter_rejected(self):
        with pytest.raises(ProfileError):
            parse_profile("const:-1")
        with pytest.raises(ProfileError):
            parse_profile("harmonic:-2")

    @pytest.mark.parametrize("text", ["inf", "-inf", "Infinity", "nan"])
    def test_nonfinite_parameter_rejected(self, text):
        with pytest.raises(ProfileError, match="not finite"):
            parse_parameter(text)
        with pytest.raises(ProfileError, match="not finite"):
            parse_profile(f"const:{text}")

    @pytest.mark.parametrize("text", [
        "1e999999999", "1e-999999999", "1e400", "1e-400", "2e308",
        "1e-330", pytest.param("1" + "0" * 400 + "/3", id="10**400/3")])
    def test_parameter_outside_float64_range_rejected(self, text):
        # the exponent is screened before 10**999999999 is built
        with pytest.raises(ProfileError, match="outside float64's range"):
            parse_parameter(text)

    @pytest.mark.parametrize("text, value", [
        ("1e308", Fraction(10) ** 308), ("5e-324", Fraction(5, 10 ** 324)),
        ("0e999999999", Fraction(0)), ("-2.5e-3", Fraction(-1, 400)),
        ("3/2", Fraction(3, 2)), (".5", Fraction(1, 2))])
    def test_parameter_inside_float64_range_is_exact(self, text, value):
        assert parse_parameter(text) == value

    def test_bad_grammar(self):
        with pytest.raises(ProfileError):
            parse_profile("const")
        with pytest.raises(ProfileError):
            parse_profile("step:1,2")
        with pytest.raises(ProfileError):
            parse_profile("mystery:1")

    def test_table_file(self, tmp_path):
        table = tmp_path / "t.txt"
        table.write_text("1 0.5\n2 0.25\ntail=0.125\n")
        p = parse_profile(f"table:{table}")
        assert p.value_exact(1) == Fraction(1, 2)
        assert p.value_exact(2) == Fraction(1, 4)
        assert p.value_exact(3) == Fraction(1, 8)  # tail
        assert p.limit_exact == Fraction(1, 8)

    def test_table_without_tail_rejected(self, tmp_path):
        table = tmp_path / "t.txt"
        table.write_text("1 0.5\n")
        with pytest.raises(ProfileError, match="tail"):
            parse_profile(f"table:{table}")

    def test_table_spec_tail_overrides_footer(self, tmp_path):
        table = tmp_path / "t.txt"
        table.write_text("1 0.5\ntail=0.125\n")
        p = parse_profile(f"table:{table},tail=0.25")
        assert p.limit_exact == Fraction(1, 4)

    def test_table_rows_must_increase(self, tmp_path):
        table = tmp_path / "t.txt"
        table.write_text("2 0.5\n1 0.25\ntail=0\n")
        with pytest.raises(ProfileError, match="increasing"):
            parse_profile(f"table:{table}")


class TestEvaluation:
    def test_n_zero_rejected(self):
        for p in all_families():
            with pytest.raises(ProfileError):
                p.value_exact(0) if p.is_rational else p.value(0)

    def test_step_boundary_high_side(self):
        # the equilibrium-point construction keeps the raised rate
        # through n = N inclusive
        p = Step(Fraction(3, 2), Fraction(0), 10)
        assert p.value_exact(10) == Fraction(3, 2)
        assert p.value_exact(11) == 0

    def test_exactness_error_for_logn(self):
        with pytest.raises(ExactnessError):
            LogOverN(Fraction(1)).value_exact(3)

    def test_mpf_evaluation_matches_float(self):
        with mpmath.mp.workprec(128):
            for p in all_families():
                for n in (1, 7, 1200):
                    assert float(p.value_mpf(n)) == pytest.approx(
                        p.value(n), rel=1e-12)

    def test_float_fn_matches_value(self):
        for p in all_families():
            f = p.as_float_fn()
            for n in (1, 2, 999, 1000, 1001, 10**6):
                assert f(n) == pytest.approx(p.value(n), rel=1e-12, abs=0)


class TestEvaluator:
    def composites(self):
        logn = LogOverN(Fraction(3, 7))
        step = Step(Fraction(5, 3), Fraction(1, 9), 40)
        table = Table(((2, Fraction(7, 5)), (9, Fraction(0))),
                      tail=Fraction(2, 3))
        return [
            Scaled(Fraction(11, 3), Harmonic(Fraction(1, 3))),
            Combined(Scaled(Fraction(5, 2), step), table),
            Combined(Scaled(Fraction(1, 7), logn), step),
            Scaled(Fraction(2, 3), Combined(logn, Harmonic(Fraction(4)))),
            gamma_from_graph(logn, Constant(Fraction(1, 3)), Fraction(9, 4)),
        ]

    def test_mpf_values_follow_the_working_precision(self):
        p = Harmonic(Fraction(1, 3))
        with mpmath.mp.workprec(64):
            low = p.value_mpf(1)
        with mpmath.mp.workprec(256):
            high = p.value_mpf(1)
            assert high == mpmath.mpf(1) / 3
            assert high != low
        with mpmath.mp.workprec(64):
            assert p.value_mpf(1) == low

    def test_profiles_pickle_after_evaluation(self):
        for p in [*all_families(), *self.composites()]:
            p.value(5)
            with mpmath.mp.workprec(128):
                p.value_mpf(5)
            p.as_float_fn()(5)
            q = pickle.loads(pickle.dumps(p))
            assert q == p
            assert q.value(5) == p.value(5)

    def test_views_agree_on_composites(self):
        for p in self.composites():
            f = p.as_float_fn()
            for n in (1, 2, 9, 40, 41, 1000):
                v = p.value(n)
                assert f(n) == v
                with mpmath.mp.workprec(200):
                    assert float(p.value_mpf(n)) == pytest.approx(
                        v, rel=1e-15)
                if p.is_rational:
                    assert float(p.value_exact(n)) == pytest.approx(
                        v, rel=1e-15)
                    assert p.sup_from_exact(n) >= p.value_exact(n)
                else:
                    with pytest.raises(ExactnessError):
                        p.value_exact(n)
                    with pytest.raises(ExactnessError):
                        p.sup_from_exact(n)
                assert p.sup_from(n) >= v * (1 - 1e-15)
            with pytest.raises(ProfileError):
                p.value(0)


class TestLimitsAndSuprema:
    @pytest.mark.parametrize("text,limit,sup", [
        ("harmonic:5", 0.0, 5.0),
        ("step:3,0.5,1000", 0.5, 3.0),
        ("const:2", 2.0, 2.0),
    ])
    def test_examples(self, text, limit, sup):
        p = parse_profile(text)
        assert p.limit == limit
        assert p.sup_from(1) == sup

    def test_values_never_exceed_supremum(self):
        points = [1, 2, 3, 10, 999, 1000, 1001, 12345, 10**6]
        for p in all_families():
            sup = p.sup_from(1)
            for n in points:
                v = p.value(n)
                assert 0.0 <= v <= sup * (1 + 1e-12)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_values_reach_limit(self, eps):
        # for each family there is a computable N(eps) past which the
        # value sits within eps of the limit
        cases = {
            "const:2": 1,
            "step:3,0.5,1000": 1001,
            "harmonic:5": int(5 / eps) + 1,
            "logn:1.5": None,  # search below
        }
        for text, n_eps in cases.items():
            p = parse_profile(text)
            if n_eps is None:
                n_eps = 2
                while p.value(n_eps) >= eps:
                    n_eps *= 2
            for n in (n_eps, 2 * n_eps, 10 * n_eps):
                assert abs(p.value(n) - p.limit) < eps

    def test_sup_from_bounds_tail_values(self):
        rng_points = [1, 5, 17, 999, 1000, 1001, 4096, 10**5]
        for p in all_families():
            for n0 in (1, 2, 500, 1000, 1500):
                bound = p.sup_from(n0)
                for n in rng_points:
                    if n >= n0:
                        assert p.value(n) <= bound * (1 + 1e-12)


class TestHypothesisInvariants:
    @given(n=st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_bounded(self, n):
        for p in all_families():
            v = p.value(n)
            assert v >= 0.0
            assert v <= p.sup_from(1) * (1 + 1e-12)

    @given(n=st.integers(min_value=1, max_value=10**6),
           d=st.fractions(min_value=0, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_gamma_linearity_exact(self, n, d):
        beta = Harmonic(Fraction(7, 3))
        beta_int = Step(Fraction(2), Fraction(1, 5), 50)
        gamma = gamma_from_graph(beta, beta_int, d)
        assert gamma.value_exact(n) == (
            d * beta.value_exact(n) + beta_int.value_exact(n))


class TestGammaFromGraph:
    def test_constant_pair_collapses(self):
        gamma = gamma_from_graph(Constant(Fraction(2)), Constant(Fraction(2)),
                                 2)
        assert isinstance(gamma, Constant)
        assert gamma.c == 6

    def test_vanishing_pair_has_zero_limit(self):
        gamma = gamma_from_graph(Harmonic(Fraction(3)),
                                 Harmonic(Fraction(2)), Fraction(99))
        assert gamma.limit_exact == 0

    def test_airport_degree_composite_matches_hand_computation(self, airports):
        d_max = float(airports.weights.sum(axis=0).max())  # column sums
        beta = Constant(Fraction(2))
        beta_int = Constant(Fraction(3, 2))
        gamma = gamma_from_graph(beta, beta_int, d_max)
        expected = Fraction(d_max) * 2 + Fraction(3, 2)
        assert gamma.value_exact(123) == expected

    def test_zero_detection_on_composites(self):
        gamma = gamma_from_graph(Step(Fraction(1), Fraction(0), 10),
                                 Constant(Fraction(0)), 1)
        assert gamma.first_zero_at_or_after(1) == 11
        assert gamma.first_zero_at_or_after(15) == 15

    def test_scaled_by_zero_is_zero(self):
        p = Scaled(Fraction(0), Harmonic(Fraction(5)))
        assert p.first_zero_at_or_after(3) == 3
        assert p.value(7) == 0.0

    def test_combined_supremum_is_conservative(self):
        g = Combined(Harmonic(Fraction(4)), Step(Fraction(1), Fraction(2), 3))
        for n in (1, 2, 3, 4, 100):
            assert g.value(n) <= g.sup_from(1) + 1e-12

import math
import pickle
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dieout.rates import (EXACT, FLOAT, Aggregate, Constant, ExactnessError,
                          Harmonic, LogOverN, ProfileError, Step, Table,
                          coerce_coefficient, parse_parameter, parse_profile)

from dieout import chains

from oracles import MPF


def all_families():
    return [
        Constant(Fraction(2)),
        Step(Fraction(3), Fraction(1, 2), 1000),
        Harmonic(Fraction(5)),
        LogOverN(Fraction(3, 2)),
        Table(((1, Fraction(4)), (3, Fraction(1))), tail=Fraction(1, 4)),
        Aggregate(Fraction(5, 2), Harmonic(Fraction(2)), 1,
                  Constant(Fraction(1, 3))),
    ]


class TestParsing:
    def test_constant(self):
        p = parse_profile("const:2")
        assert isinstance(p, Constant)
        assert p.evaluator(FLOAT)(7) == 2.0
        assert p.limit == 2.0
        assert p.sup(1, FLOAT) == 2.0

    def test_step(self):
        p = parse_profile("step:3,0.5,1000")
        assert p.evaluator(FLOAT)(999) == 3.0
        # the boundary belongs to the high side
        assert p.evaluator(FLOAT)(1000) == 3.0
        assert p.evaluator(FLOAT)(1001) == 0.5
        assert p.limit == 0.5
        assert p.sup(1, FLOAT) == 3.0

    def test_harmonic(self):
        p = parse_profile("harmonic:5")
        assert p.evaluator(FLOAT)(10) == 0.5
        assert p.evaluator(FLOAT)(5) == 1.0
        assert p.limit == 0.0
        assert p.sup(1, FLOAT) == 5.0

    def test_logn(self):
        p = parse_profile("logn:2")
        assert p.evaluator(FLOAT)(3) == pytest.approx(2 * math.log(4) / 3)
        assert p.limit == 0.0
        assert p.sup(1, FLOAT) == pytest.approx(2 * math.log(2))

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

    @pytest.mark.parametrize("spec", ["table:", "table:,tail=1"])
    def test_table_without_a_path_names_the_spec(self, spec):
        with pytest.raises(ProfileError) as err:
            parse_profile(spec)
        assert str(err.value) == f"profile spec {spec!r} names no table file"

    def test_table_file(self, tmp_path):
        table = tmp_path / "t.txt"
        table.write_text("1 0.5\n2 0.25\ntail=0.125\n")
        p = parse_profile(f"table:{table}")
        assert p.evaluator(EXACT)(1) == Fraction(1, 2)
        assert p.evaluator(EXACT)(2) == Fraction(1, 4)
        assert p.evaluator(EXACT)(3) == Fraction(1, 8)  # tail
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

    @pytest.mark.parametrize("line, message", [
        ("3 abc", "cannot parse parameter 'abc'"),
        ("3 -0.5", "negative table value at n=3"),
        ("2 0.1", "table rows must have strictly increasing n, got 2 after 2"),
        ("1 0.1", "table rows must have strictly increasing n, got 1 after 2"),
        ("3", "expected 'n value'"),
        ("x 0.1", "n must be an integer"),
        ("tail=abc", "cannot parse parameter 'abc'"),
    ])
    def test_table_errors_name_the_line(self, tmp_path, line, message):
        table = tmp_path / "t.txt"
        table.write_text(f"# header\n1 0.5\n2 0.25\n\n{line}\ntail=0\n")
        with pytest.raises(ProfileError) as err:
            parse_profile(f"table:{table}")
        assert str(err.value).startswith(f"{table}:5: {message}")

    @pytest.mark.parametrize("text, message", [
        ("1 2\ntail=-1\n", "2: tail constant must be nonnegative"),
        ("1 2\ntail=1\n2 1\n", "3: content after the tail= footer on line 2"),
        ("1 2\ntail=1\n2 1\ntail=3\n",
         "3: content after the tail= footer on line 2"),
        ("1 2\ntail=1\n\n# note\ntail=3\n",
         "5: content after the tail= footer on line 2"),
    ])
    def test_footer_errors_name_the_line(self, tmp_path, text, message):
        table = tmp_path / "t.txt"
        table.write_text(text)
        for spec in (f"table:{table}", f"table:{table},tail=2"):
            with pytest.raises(ProfileError) as err:
                parse_profile(spec)
            assert str(err.value) == f"{table}:{message}"

    def test_negative_declared_tail_names_the_spec(self, tmp_path):
        table = tmp_path / "t.txt"
        table.write_text("1 2\ntail=1\n")
        with pytest.raises(ProfileError) as err:
            parse_profile(f"table:{table},tail=-2")
        assert str(err.value) == (f"profile spec 'table:{table},tail=-2': "
                                  "tail constant must be nonnegative")

    def test_footer_may_be_followed_by_blanks_and_comments(self, tmp_path):
        table = tmp_path / "t.txt"
        table.write_text("1 2\ntail=1\n\n# end\n")
        assert parse_profile(f"table:{table}").limit_exact == 1


class TestEvaluation:
    def test_step_boundary_high_side(self):
        # the equilibrium-point construction keeps the raised rate
        # through n = N inclusive
        p = Step(Fraction(3, 2), Fraction(0), 10)
        assert p.evaluator(EXACT)(10) == Fraction(3, 2)
        assert p.evaluator(EXACT)(11) == 0

    def test_exactness_error_for_logn(self):
        with pytest.raises(ExactnessError):
            LogOverN(Fraction(1)).evaluator(EXACT)(3)

    def test_mpf_evaluation_matches_float(self):
        with mpmath.mp.workprec(128):
            for p in all_families():
                for n in (1, 7, 1200):
                    assert float(p.evaluator(MPF)(n)) == pytest.approx(
                        p.evaluator(FLOAT)(n), rel=1e-12)

    def test_float_fn_matches_value(self):
        # one evaluator reused across n, as in the simulator's hot loop,
        # matches a fresh one per n
        for p in all_families():
            f = p.evaluator(FLOAT)
            for n in (1, 2, 999, 1000, 1001, 10**6):
                assert f(n) == p.evaluator(FLOAT)(n)


class TestEvaluator:
    def composites(self):
        logn = LogOverN(Fraction(3, 7))
        step = Step(Fraction(5, 3), Fraction(1, 9), 40)
        table = Table(((2, Fraction(7, 5)), (9, Fraction(0))),
                      tail=Fraction(2, 3))
        zero = Constant(Fraction(0))
        return [
            Aggregate(Fraction(11, 3), Harmonic(Fraction(1, 3)), 0, zero),
            Aggregate(Fraction(5, 2), step, 1, table),
            Aggregate(Fraction(1, 7), logn, 1, step),
            Aggregate(Fraction(2, 3),
                      Aggregate(1, logn, 1, Harmonic(Fraction(4))), 0, zero),
            Aggregate(Fraction(9, 4), logn, 1, Constant(Fraction(1, 3))),
        ]

    def test_mpf_values_follow_the_working_precision(self):
        p = Harmonic(Fraction(1, 3))
        with mpmath.mp.workprec(64):
            low = p.evaluator(MPF)(1)
        with mpmath.mp.workprec(256):
            high = p.evaluator(MPF)(1)
            assert high == mpmath.mpf(1) / 3
            assert high != low
        with mpmath.mp.workprec(64):
            assert p.evaluator(MPF)(1) == low

    def test_profiles_pickle_after_evaluation(self):
        for p in [*all_families(), *self.composites()]:
            p.evaluator(FLOAT)(5)
            with mpmath.mp.workprec(128):
                p.evaluator(MPF)(5)
            q = pickle.loads(pickle.dumps(p))
            assert q == p
            assert q.evaluator(FLOAT)(5) == p.evaluator(FLOAT)(5)

    def test_views_agree_on_composites(self):
        for p in self.composites():
            f = p.evaluator(FLOAT)
            for n in (1, 2, 9, 40, 41, 1000):
                v = p.evaluator(FLOAT)(n)
                assert f(n) == v
                with mpmath.mp.workprec(200):
                    assert float(p.evaluator(MPF)(n)) == pytest.approx(
                        v, rel=1e-15)
                if p.is_rational:
                    assert float(p.evaluator(EXACT)(n)) == pytest.approx(
                        v, rel=1e-15)
                    assert p.sup(n, EXACT) >= p.evaluator(EXACT)(n)
                else:
                    with pytest.raises(ExactnessError):
                        p.evaluator(EXACT)(n)
                    with pytest.raises(ExactnessError):
                        p.sup(n, EXACT)
                assert p.sup(n, FLOAT) >= v * (1 - 1e-15)


fractions = st.fractions(min_value=0, max_value=1000, max_denominator=997)
states = st.integers(1, 10**7)


def rational_profiles():
    """Every rational family, alone and in trees of Aggregates."""
    leaves = st.one_of(
        st.builds(Constant, fractions),
        st.builds(Step, fractions, fractions, st.integers(1, 10**6)),
        st.builds(Harmonic, fractions),
        st.builds(lambda rows, tail: Table(tuple(rows), tail),
                  st.lists(st.tuples(st.integers(1, 50), fractions),
                           max_size=5, unique_by=lambda r: r[0]).map(sorted),
                  fractions))
    return st.recursive(leaves, lambda inner: st.builds(
        Aggregate, fractions, inner, fractions, inner), max_leaves=4)


class TestEvaluatorIdentities:
    """What the families state once is exactly the plain expression in
    each number type: the same floats, bit for bit, and the same
    rationals from the kernel's int triples."""

    @settings(max_examples=200, deadline=None)
    @given(k=fractions, d=fractions, n=states)
    def test_float_values_are_the_literal_expressions(self, k, d, n):
        harmonic, logn = Harmonic(k), LogOverN(k)
        f, g = harmonic.evaluator(FLOAT), logn.evaluator(FLOAT)
        cases = [
            (f(n), float(k) / n),
            (g(n), float(k) * math.log1p(n) / n),
            (Aggregate(d, logn, k, harmonic).evaluator(FLOAT)(n),
             float(d) * g(n) + float(k) * f(n)),
            (Aggregate(d, logn, 0, harmonic).evaluator(FLOAT)(n),
             float(d) * g(n)),
            (Aggregate(1, harmonic, 1, logn).evaluator(FLOAT)(n),
             f(n) + g(n)),
            (Aggregate(d, harmonic, 0, logn).sup(n, FLOAT), float(d) * f(n)),
            (Aggregate(1, logn, 1, harmonic).sup(n, FLOAT), g(n) + f(n))]
        for got, want in cases:
            assert got.hex() == want.hex()

    @settings(max_examples=200, deadline=None)
    @given(profile=rational_profiles(), n=states)
    def test_kernel_triples_are_the_exact_values(self, profile, n):
        p, q, g = profile.evaluator(chains._kernel_arithmetic(None))(n)
        assert g == 0
        assert Fraction(p, q) == profile.evaluator(EXACT)(n)

    @settings(max_examples=200, deadline=None)
    @given(k=fractions, d=fractions, m=st.integers(0, 2**300),
           bits=st.integers(0, 400), n=states)
    def test_kernel_triples_keep_a_logarithm_scale_exact(self, k, d, m,
                                                         bits, n):
        # any served logarithm m / 2**bits, read once or twice a value
        kernel = chains._kernel_arithmetic(lambda n: (m, 1, bits))
        exact = replace(EXACT, log1p=lambda n: Fraction(m, 1 << bits))
        step = Step(d, k, 40)
        for profile in (LogOverN(k), Aggregate(d, LogOverN(k), 1, step),
                        Aggregate(d, LogOverN(k), 1, LogOverN(d))):
            p, q, g = profile.evaluator(kernel)(n)
            assert Fraction(p, q << g) == profile.evaluator(exact)(n)


class TestLimitsAndSuprema:
    @pytest.mark.parametrize("text,limit,sup", [
        ("harmonic:5", 0.0, 5.0),
        ("step:3,0.5,1000", 0.5, 3.0),
        ("const:2", 2.0, 2.0),
    ])
    def test_examples(self, text, limit, sup):
        p = parse_profile(text)
        assert p.limit == limit
        assert p.sup(1, FLOAT) == sup

    def test_values_never_exceed_supremum(self):
        points = [1, 2, 3, 10, 999, 1000, 1001, 12345, 10**6]
        for p in all_families():
            sup = p.sup(1, FLOAT)
            for n in points:
                v = p.evaluator(FLOAT)(n)
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
                while p.evaluator(FLOAT)(n_eps) >= eps:
                    n_eps *= 2
            for n in (n_eps, 2 * n_eps, 10 * n_eps):
                assert abs(p.evaluator(FLOAT)(n) - p.limit) < eps

    def test_sup_from_bounds_tail_values(self):
        rng_points = [1, 5, 17, 999, 1000, 1001, 4096, 10**5]
        for p in all_families():
            for n0 in (1, 2, 500, 1000, 1500):
                bound = p.sup(n0, FLOAT)
                for n in rng_points:
                    if n >= n0:
                        assert p.evaluator(FLOAT)(n) <= bound * (1 + 1e-12)


class TestHypothesisInvariants:
    @given(n=st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_bounded(self, n):
        for p in all_families():
            v = p.evaluator(FLOAT)(n)
            assert v >= 0.0
            assert v <= p.sup(1, FLOAT) * (1 + 1e-12)

    @given(n=st.integers(min_value=1, max_value=10**6),
           c=st.fractions(min_value=0, max_value=100),
           d=st.fractions(min_value=0, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_gamma_linearity_exact(self, n, c, d):
        beta = Harmonic(Fraction(7, 3))
        beta_int = Step(Fraction(2), Fraction(1, 5), 50)
        gamma = Aggregate(c, beta, d, beta_int)
        assert gamma.evaluator(EXACT)(n) == (
            c * beta.evaluator(EXACT)(n) + d * beta_int.evaluator(EXACT)(n))


class TestCoerceCoefficient:
    @pytest.mark.parametrize("d", [math.inf, -math.inf, math.nan])
    def test_nonfinite_float_rejected(self, d):
        with pytest.raises(ProfileError, match="not finite"):
            coerce_coefficient(d)
        one = Constant(Fraction(1))
        for args in ((d, one, 1, one), (1, one, d, one)):
            with pytest.raises(ProfileError, match="not finite"):
                Aggregate(*args)


class TestGammaFromGraph:
    """The rate coefficient c * beta + d * beta_int that a graph's column
    sums and modulation give, as an ``Aggregate``."""

    def test_coefficients_are_exact_and_nonnegative(self):
        one = Constant(Fraction(1))
        gamma = Aggregate("3/4", one, 0.1, one)
        assert (gamma.c, gamma.d) == (Fraction(3, 4), Fraction(0.1))
        assert gamma == Aggregate(Fraction(3, 4), one, Fraction(0.1), one)
        for args in ((-1, one, 1, one), (1, one, Fraction(-1, 3), one)):
            with pytest.raises(ProfileError, match="must be nonnegative"):
                Aggregate(*args)

    def test_vanishing_pair_has_zero_limit(self):
        gamma = Aggregate(Fraction(99), Harmonic(Fraction(3)), 1,
                          Harmonic(Fraction(2)))
        assert gamma.limit_exact == 0

    def test_airport_degree_composite_matches_hand_computation(self, airports):
        d_max = float(airports.weights.sum(axis=0).max())  # column sums
        beta = Constant(Fraction(2))
        beta_int = Constant(Fraction(3, 2))
        gamma = Aggregate(d_max, beta, 1, beta_int)
        expected = Fraction(d_max) * 2 + Fraction(3, 2)
        assert gamma.evaluator(EXACT)(123) == expected

    def test_zero_detection_on_composites(self):
        gamma = Aggregate(1, Step(Fraction(1), Fraction(0), 10), 1,
                          Constant(Fraction(0)))
        assert gamma.first_zero_at_or_after(1) == 11
        assert gamma.first_zero_at_or_after(15) == 15

    @staticmethod
    def table(zeros, last, tail):
        """Rows 1..last, zero at ``zeros`` and 1 elsewhere, then ``tail``."""
        return Table(tuple((n, Fraction(0 if n in zeros else 1))
                           for n in range(1, last + 1)), Fraction(tail))

    @staticmethod
    def first_zero_by_scan(profile, n0, top=40):
        value = profile.evaluator(EXACT)
        return next((n for n in range(n0, top) if value(n) == 0), None)

    @pytest.mark.parametrize("zeros, last, tail", [
        ((), 5, 0), ((2, 4), 6, 0), ((3,), 3, 0), ((1, 2, 3), 3, 0),
        ((), 5, 1), ((2, 4), 6, 1)])
    def test_table_zero_search_matches_a_scan(self, zeros, last, tail):
        # a zero tail with and without listed zeros, and a nonzero tail
        p = self.table(zeros, last, tail)
        for n0 in range(1, last + 3):
            assert p.first_zero_at_or_after(n0) == self.first_zero_by_scan(
                p, n0)

    @pytest.mark.parametrize("first, second, want", [
        (((2, 6, 9), 10, 1), ((3, 7, 9), 10, 1), 9),
        (((2, 6), 10, 1), ((3, 7), 10, 1), None),
        (((2, 6), 8, 0), ((3, 7, 10), 12, 0), 10),
        (((4,), 5, 0), ((3, 6), 7, 1), 6)])
    def test_combined_zero_search_over_interleaved_zeros(self, first, second,
                                                         want):
        # the parts vanish at interleaved n, so the search alternates
        p = Aggregate(1, self.table(*first), 1, self.table(*second))
        assert p.first_zero_at_or_after(1) == want
        for n0 in range(1, 15):
            assert p.first_zero_at_or_after(n0) == self.first_zero_by_scan(
                p, n0)

    def test_scaled_by_zero_is_zero(self):
        p = Aggregate(0, Harmonic(Fraction(5)), 0, Constant(Fraction(2)))
        assert p.first_zero_at_or_after(3) == 3
        assert p.evaluator(FLOAT)(7) == 0.0
        # a part that never vanishes, under a zero coefficient
        q = Aggregate(0, Constant(Fraction(1)), 2,
                      Step(Fraction(1), Fraction(0), 10))
        assert q.first_zero_at_or_after(1) == 11

    def test_combined_supremum_is_conservative(self):
        g = Aggregate(1, Harmonic(Fraction(4)), 1,
                      Step(Fraction(1), Fraction(2), 3))
        for n in (1, 2, 3, 4, 100):
            assert g.evaluator(FLOAT)(n) <= g.sup(1, FLOAT) + 1e-12

"""Reference implementations the library is checked against.

``MPF`` evaluates rate profiles in mpmath floats at the caller's
working precision, for the oracles below and the tests.
``node_rates`` recomputes every rate from scratch and ``step`` draws an
event from a flat cumulative sum over all nodes: the plain O(N) path
that the simulator's incremental caches and blocked event selection
must reproduce.  ``fraction_tail`` is the rational kernel's backward
pass in plain Fraction arithmetic, which the integer pass must
reproduce exactly; with ``truncate_at`` it is one pass from a fixed
truncation index.  ``BackwardLog`` is the one-series-step-per-row
logarithm the fixed-point kernel's ``logn`` table must agree with.
``fixed_pass`` and ``exact_pass`` are the kernel's two backward passes
as they were when profiles evaluated to ``_Ratio`` objects (each
logarithm 2**-G scaled inside the denominator, so a ``logn`` row
divided by a big number): the int-triple passes must reproduce them
row for row.
``s_recursion_step`` (the forward hitting-time
recursion) and ``stationary_distribution`` (the renewal route to
E[T_1]) are independent routes to the certified kernel's values;
``positive_recurrence_check`` decides exactly whether the latter's
normalization series converges.  ``estimate_survival_probability`` is
the binomial survival estimate some simulator tests check against
closed forms.  ``fmt_precise``, ``write_csv`` and the ``write_*``
helpers are the former CSV writer (``csv.writer`` rows of Python
numbers, one decimal conversion per hitting-table cell) that the
streaming writer must reproduce byte for byte.  ``load_edge_list`` and
``read_label_values`` are the former one-line-at-a-time readers of edge
lists and label files, whose graphs, tables and error messages the bulk
readers must reproduce.  ``single_threshold_regime`` and
``weyl_pair_regime`` are the two regime rules the classifiers used
before one bracket rule decided every record.  ``symmetrized_upper``
and ``geometric_lower`` are the symmetrizations (W + W^T)/2 and
sqrt(W o W^T) whose Perron roots sandwich rho(W) (Schwenk); the
decoupled classifier's former bracket was built from them.
"""

import csv
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath
import numpy as np
import scipy.sparse as sp

from dieout import chains
from dieout.chains import (BIGFLOAT, BirthDeathSpec, InfiniteHittingTimeError,
                           PrecisionConfig)
from dieout.config import ConfigError
from dieout.gillespie import SimConfig, run_ensemble
from dieout.graphs import EdgeListError, EpidemicModel, LocalityGraph
from dieout.rates import (EXACT, FLOAT, Arithmetic, ExactnessError,
                          coerce_coefficient)
from dieout.regime import Regime


def _mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


#: mpmath floats; an evaluator rounds its parameters at the working
#: precision in force when it is built
MPF = Arithmetic(_mpf, lambda n: mpmath.log(n + 1))


@dataclass(frozen=True)
class EpidemicState:
    """Per-node infection counts with the system total cached."""

    counts: np.ndarray
    total: int

    @classmethod
    def from_counts(cls, counts) -> "EpidemicState":
        arr = np.asarray(counts, dtype=np.int64)
        if (arr < 0).any():
            raise ValueError("counts must be nonnegative")
        arr = arr.copy()
        arr.setflags(write=False)
        return cls(arr, int(arr.sum()))

    @property
    def extinct(self) -> bool:
        return self.total == 0


def node_rates(state: EpidemicState, g: LocalityGraph, model: EpidemicModel):
    """Instantaneous birth/death rates from scratch (reference path).

    Returns (birth_rates, death_rates, total_rate).  The simulator's
    incremental caches must agree with this to rounding error.
    """
    counts = np.asarray(state.counts, dtype=float)
    n = state.total
    if n == 0:
        zeros = np.zeros(g.node_count)
        return zeros, zeros.copy(), 0.0
    pressure = np.asarray(g.weights @ counts).ravel()
    birth = (model.beta.evaluator(FLOAT)(n) * pressure
             + model.beta_int.evaluator(FLOAT)(n)
             * (model.d(g.node_count) * counts))
    death = float(model.delta) * counts
    return birth, death, float(birth.sum() + death.sum())


def step(state: EpidemicState, rates, rng: np.random.Generator):
    """Draw one exponential waiting time and one event category.

    ``rates`` is the (birth, death, total) triple from
    :func:`node_rates`.  Returns (dt, node, delta_count).
    """
    birth, death, total = rates
    if total <= 0:
        raise ValueError("no transitions available from an absorbing state")
    dt = rng.exponential(1.0 / total)
    u = rng.random() * total
    birth_sum = float(birth.sum())
    if u < birth_sum:
        node = int(np.searchsorted(np.cumsum(birth), u, side="right"))
        node = min(node, birth.size - 1)
        return dt, node, +1
    u -= birth_sum
    node = int(np.searchsorted(np.cumsum(death), u, side="right"))
    node = min(node, death.size - 1)
    return dt, node, -1


@dataclass(frozen=True)
class SurvivalEstimate:
    probability: float
    stderr: float
    runs: int
    horizon: float


def estimate_survival_probability(cfg: SimConfig, g: LocalityGraph,
                                  runs: int, horizon: float,
                                  threads: int = 1) -> SurvivalEstimate:
    """Fraction of runs with active cases at the horizon, with its
    binomial standard error."""
    if not 0 < horizon <= cfg.t_max:
        raise ValueError("horizon must lie in (0, t_max]")
    clipped = replace(cfg, t_max=horizon, record_events=False)
    summary = run_ensemble(clipped, g, runs, np.array([horizon]), threads)
    p = summary.truncated_runs / runs
    return SurvivalEstimate(probability=p,
                            stderr=math.sqrt(p * (1.0 - p) / runs),
                            runs=runs, horizon=horizon)


@dataclass(frozen=True)
class RecurrenceCheck:
    """Outcome of the normalization-series convergence test."""

    positive_recurrent: bool
    reason: str

    def __bool__(self) -> bool:
        return self.positive_recurrent


def positive_recurrence_check(spec: BirthDeathSpec) -> RecurrenceCheck:
    """Decide convergence of the normalization series exactly.

    The series behind the stationary distribution (equivalently the
    E[T_1] series) has term ratio (i/(i+1)) * gamma(i)/delta, so it
    converges when the limit of gamma is below delta and diverges when
    the limit is at or above delta -- unless gamma vanishes at some
    state, which truncates the series to a finite (convergent) sum.
    The comparison is exact: profile limits are rational and delta is
    stored exactly.
    """
    limit = spec.gamma.limit_exact
    if limit < spec.delta:
        return RecurrenceCheck(
            True, f"asymptotic ratio gamma/delta = {limit}/{spec.delta} < 1")
    zero = spec.gamma.first_zero_at_or_after(1)
    if zero is not None:
        return RecurrenceCheck(
            True, f"gamma vanishes at n={zero}; the series is a finite sum")
    if limit == spec.delta:
        return RecurrenceCheck(
            False, "gamma approaches delta; the terms decay harmonically")
    return RecurrenceCheck(
        False, f"asymptotic ratio gamma/delta = {limit}/{spec.delta} > 1")


@dataclass(frozen=True)
class FractionTail:
    """Rows 1..n_hi of :func:`fraction_tail` (index 0 unused)."""

    values: list
    bounds: list
    certified: list
    truncated_at: int
    passes: int


def fraction_tail(spec: BirthDeathSpec, n_hi: int,
                  precision: PrecisionConfig,
                  truncate_at: int | None = None) -> FractionTail:
    """The rational kernel in Fractions: S_j = 1/(j delta) + q_j S_{j+1}
    and P_j = q_j P_{j+1} from S_{M+1} = 0, P_{M+1} = 1, with the tail
    bound P_j * geom (exactly zero once gamma has vanished) and the
    library's truncation plan, certification rule and doubling of M.
    ``truncate_at`` fixes M instead: one pass, whatever it certifies.
    """
    gamma, delta = spec.gamma.evaluator(EXACT), spec.delta
    tol = Fraction(precision.series_rel_tol)
    M = (chains._plan_truncation(spec, n_hi, precision)
         if truncate_at is None else truncate_at)
    passes = 0
    while True:
        r_ok, r = chains._ratio_bound(spec, M + 1)
        geom = 1 / ((1 - r) * delta * (M + 1)) if r_ok else None
        values = [None] * (n_hi + 1)
        bounds = [None] * (n_hi + 1)
        s, p = Fraction(0), Fraction(1)
        for j in range(M, 0, -1):
            q = gamma(j) / delta
            s = 1 / (delta * j) + q * s
            p = q * p
            if j <= n_hi:
                values[j] = s
                if p == 0:
                    bounds[j] = p
                elif geom is not None:
                    bounds[j] = p * geom
        certified = [b is not None and b <= tol * v
                     for b, v in zip(bounds, values)]
        if (truncate_at is not None or all(certified[1:])
                or M >= precision.max_terms):
            return FractionTail(values, bounds, certified, M, passes)
        M = min(max(2 * M, M + 64), precision.max_terms)
        passes += 1


class BackwardLog:
    """Lower bounds on ln(1 + n) for n = top, top - 1, ..., 1 in turn,
    one series step per n: the reference for ``chains._LogTable``.

    Holds L ~ 2**bits * ln(1 + n) with |L - 2**bits ln(1 + n)| <= err
    and serves (L - err) / 2**bits as the kernel triple
    (L - err, 1, bits).  One mpmath logarithm seeds
    n = top; each step down subtracts
    ln(n + 1) - ln(n) = 2 atanh(1/(2n + 1)), summed in integers by
    Horner's rule.  Every floor there loses under one unit, and the
    previous partial sum enters divided by (2n + 1)**2 >= 9, so a step
    is off by less than 3 units once the series is cut where its tail
    drops below one unit.  Only the current value is kept.
    """

    def __init__(self, top: int, bits: int):
        with mpmath.mp.workprec(bits + 32):
            self.L = int(mpmath.floor(mpmath.ldexp(mpmath.log(top + 1), bits)))
        self.n, self.bits, self.err = top, bits, 2
        # floor(2**(bits + 1) / (2i + 1)): the series of 2 atanh
        self._coeffs = [(2 << bits) // (2 * i + 1)
                        for i in range(bits // 2 + 2)]

    def __call__(self, n: int) -> tuple[int, int, int]:
        if n > self.n:
            raise ValueError("logarithms are served for decreasing n only")
        coeffs = self._coeffs
        while self.n > n:
            m = 2 * self.n + 1
            m2 = m * m
            # K terms leave a tail below one unit: m**(2K) >= 2**(bits+1)
            last = (self.bits + 1) // (2 * (m.bit_length() - 1))
            acc = coeffs[last]
            for i in range(last - 1, -1, -1):
                acc = acc // m2 + coeffs[i]
            self.L -= acc // m
            self.err += 3
            self.n -= 1
        return self.L - self.err, 1, self.bits


class _Ratio:
    """p/q left unreduced: a profile builds each value from a few exact
    parameters, so the integers stay small without any gcd work."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        self.p, self.q = p, q

    def __add__(self, other):
        return _Ratio(self.p * other.q + other.p * self.q, self.q * other.q)

    def __mul__(self, other):
        return _Ratio(self.p * other.p, self.q * other.q)

    def __truediv__(self, n: int):
        return _Ratio(self.p, self.q * n)


def _ratio(x: Fraction) -> _Ratio:
    return _Ratio(x.numerator, x.denominator)


class _RatioLog:
    """``chains._LogTable``'s logarithms as :class:`_Ratio` values, as
    the table served them before it served int triples."""

    def __init__(self, top: int, bits: int):
        self._table = chains._LogTable(top, bits)
        self.bits = bits

    @property
    def err(self) -> int:
        return self._table.err

    def __call__(self, n: int) -> _Ratio:
        p, q, g = self._table(n)
        return _Ratio(p, q << g)


def fixed_pass(spec: BirthDeathSpec, n_hi: int, M: int, bits: int,
               geom: Fraction | None, tol: tuple[int, int]):
    """The backward pass in integers scaled by 2**F.

    s_j = floor(2**F/(j delta)) + floor(q_j s_{j+1}) with q = gamma/delta
    exact, so s_j never exceeds 2**F S_j and the loss is carried as
    e_j = 2 + ceil(q_j e_{j+1}) units: each floor drops under one unit
    and the error of s_{j+1} enters scaled by q_j.  For an irrational
    gamma, ln(1 + j) enters as a lower bound from :class:`_LogTable`,
    2 err = 6 (j + 1) units of 2**-G or less below it; every family is
    affine in that logarithm with a nonnegative slope, so the q used is
    at most eta = 2 err / L <= err * 2**(2-G) relative below the true
    one.  That keeps s_j below 2**F S_j and adds
    ceil(eta (q s_{j+1} + q e_{j+1})) to e_j.

    P_j = prod_{i=j}^{M} q_i is carried as a 64-bit mantissa and a
    binary exponent, rounded up at every step (the added unit also
    covers eta <= 2**-64); it is exactly zero once gamma has vanished.

    Each row is checked against tol as it is made, and rows and checks
    come back as from :func:`exact_pass`: s_j, the bound e_j plus the
    tail bound P_j * geom (None without a tail bound) and the one
    denominator 2**F; a row is worth more terms only when its rounding
    bound e_j alone meets the tolerance.
    """
    delta = spec.delta
    F = bits + chains._GUARD + max(0, math.ceil(math.log2(delta * M)))
    dn, dd = delta.numerator, delta.denominator
    unit = (1 << F) * dd  # floor(unit / (j dn)) = floor(2**F / (j delta))
    tn, td = tol
    # the row lists come before the log table, which the pass frees as
    # it goes: in the other order asymptote's peak RSS was 1 MB higher
    values = [0] * n_hi
    bounds = [None] * n_hi
    certified = [False] * n_hi
    log = (None if spec.gamma.is_rational
           else _RatioLog(M, F + 2 * M.bit_length() + chains._GUARD))
    gamma = spec.gamma.evaluator(Arithmetic(_ratio, log))
    if geom is not None:
        gn, gd = geom.numerator, geom.denominator
    helpable = False
    worst_b, worst_v = -1, 1  # the largest bound / value so far
    s = e = 0
    pm, pe = 1 << 63, -63  # P_{M+1} = 1
    for j in range(M, 0, -1):
        g = gamma(j)
        qn, qd = g.p * dd, g.q * dn
        u = qn * s // qd
        c = -(-qn * e // qd)
        s = unit // (j * dn) + u
        e = 2 + c
        if log is not None:
            e += ((log.err * (u + 1 + c)) >> (log.bits - 2)) + 1
        if pm:
            pm = -(-pm * qn // qd)
            if pm:
                shift = pm.bit_length() - 64
                pm = (-(-pm >> shift) if shift > 0 else pm << -shift) + 1
                pe += shift
        if j <= n_hi:
            values[j - 1] = s
            limit = tn * s
            if not pm or geom is not None:
                if not pm:
                    tail = 0  # a vanished gamma truncates exactly
                else:
                    # ceil(P_j * geom * 2**F), 1 when below one unit
                    x, shift = pm * gn, pe + F
                    if x.bit_length() + shift < gd.bit_length():
                        tail = 1
                    elif shift >= 0:
                        tail = -(-(x << shift) // gd)
                    else:
                        tail = -(-x // (gd << -shift))
                b = bounds[j - 1] = e + tail
                certified[j - 1] = b * td <= limit
                if b * worst_v > worst_b * s:
                    worst_b, worst_v = b, s
            # more terms cannot help a row whose rounding alone is too big
            if not certified[j - 1] and e * td <= limit:
                helpable = True
    return (values, bounds, 1 << F, certified, helpable,
            None if worst_b < 0 else worst_b / worst_v)


def exact_pass(spec: BirthDeathSpec, n_hi: int, M: int,
               geom: Fraction | None, tol: tuple[int, int]):
    """The backward pass in exact integers over one denominator Q_1.

    With delta = dn/dd, q_j = gamma(j)/delta = qn/qd left unreduced,
    L_j = lcm(j dn, qd) and geom = gn/gd (1/1 without a tail bound), a
    first loop forms Q_1 = gd prod_{j=1}^{M} L_j.  Row j holds
    S_j = N_j / Q_1 and its tail bound P_j geom = R_j / Q_1, from
    N_{M+1} = 0 and R_{M+1} = gn Q_1 / gd:

        N_j = (Q_1 dd) / (j dn) + qn (N_{j+1} / qd),
        R_j = qn (R_{j+1} / qd).

    Every division is exact: L_j divides Q_1, and with
    Q_j = gd prod_{i>=j} L_i = L_j Q_{j+1}, S_j Q_j and P_j geom Q_j are
    integers by induction, so N_{j+1} and R_{j+1} are multiples of
    Q_1 / Q_{j+1} = prod_{i<=j} L_i, which qd divides.  Each step is one
    big-by-small operation: no gcd and no product of two big numbers.
    R_j is zero once gamma has vanished: the truncation is then exact.

    Rows are checked as they are made against tol = (tn, td), i.e.
    tn/td.  Returns (values, bounds, Q_1, certified, helpable, rel):
    N_j, R_j (None without a tail bound, unless zero) and whether row j
    is certified, at index j - 1 for j = 1..n_hi; whether more terms
    could certify some row; and the largest R_j / N_j as a float (None
    when no row has a bound): the max of each row's correctly rounded
    quotient, which is the rounded max since rounding is monotone
    (cross-multiplying Q_1-sized pairs would be big-by-big).
    """
    delta = spec.delta
    dn, dd = delta.numerator, delta.denominator
    gamma = spec.gamma.evaluator(Arithmetic(_ratio, None))
    q = [(g.p * dd, g.q * dn) for g in map(gamma, range(1, M + 1))]
    gn, gd = (1, 1) if geom is None else (geom.numerator, geom.denominator)
    den = gd * math.prod(math.lcm(j * dn, qd)
                         for j, (_, qd) in enumerate(q, 1))
    unit = den * dd
    tn, td = tol
    values = [0] * n_hi
    bounds = [None] * n_hi
    certified = [False] * n_hi
    rel = -1.0  # the largest bound / value so far
    s, r = 0, gn * (den // gd)
    for j in range(M, 0, -1):
        qn, qd = q[j - 1]
        s = unit // (j * dn) + qn * (s // qd)
        r = qn * (r // qd)
        if j <= n_hi:
            values[j - 1] = s
            if not r or geom is not None:
                bounds[j - 1] = r
                certified[j - 1] = r * td <= tn * s
                rel = max(rel, r / s)
    return (values, bounds, den, certified, not all(certified),
            None if rel < 0 else rel)


def s_recursion_step(spec: BirthDeathSpec, s_n, n: int,
                     precision: PrecisionConfig | None = None):
    """One forward step S_{n+1} = (S_n * delta - 1/n) / gamma(n).

    Exact under the rational kernel (pass ``s_n`` as a Fraction); under
    big floats the subtraction loses relative accuracy at every step
    as gamma(n) shrinks, so long float chains degrade into noise --
    keep this path for verification, not computation.

    Raises:
        ZeroDivisionError: where gamma(n) = 0 the recursion is
            undefined (the chain truncates; use the tail series).
    """
    if isinstance(s_n, Fraction):
        gamma_n = spec.gamma.evaluator(EXACT)(n)
        if gamma_n == 0:
            raise ZeroDivisionError(
                f"gamma({n}) = 0: recursion undefined, use hitting_table")
        return (s_n * spec.delta - Fraction(1, n)) / gamma_n
    bits = precision.bits if precision is not None else mpmath.mp.prec
    with mpmath.mp.workprec(bits):
        gamma_n = spec.gamma.evaluator(MPF)(n)
        if gamma_n == 0:
            raise ZeroDivisionError(
                f"gamma({n}) = 0: recursion undefined, use hitting_table")
        delta = mpmath.mpf(spec.delta.numerator) / spec.delta.denominator
        return (s_n * delta - mpmath.mpf(1) / n) / gamma_n


def stationary_distribution(spec: BirthDeathSpec, trunc: int,
                            precision: PrecisionConfig, theta=1):
    """Truncated, renormalized stationary distribution pi_0..pi_trunc.

    ``theta`` is the birth rate out of state 0 in the positive-recurrent
    modification of the chain.  Local balance gives pi_{n-1} (n-1)
    gamma(n-1) = pi_n n delta, and the renewal identity
    E[T_1] = (1/pi_0 - 1)/theta must reproduce the kernel's E[T_1]
    whatever theta is.

    Raises:
        InfiniteHittingTimeError: normalization series diverges.
    """
    theta = coerce_coefficient(theta)
    if theta <= 0:
        raise ValueError("theta must be positive")
    if trunc < 0:
        raise ValueError("truncation must be nonnegative")
    if not positive_recurrence_check(spec):
        raise InfiniteHittingTimeError(1)
    if precision.mode == BIGFLOAT:
        ar = MPF
    elif spec.gamma.is_rational:
        ar = EXACT
    else:
        raise ExactnessError("rational mode needs a rational gamma")
    with mpmath.mp.workprec(precision.bits):
        gamma = spec.gamma.evaluator(ar)
        delta, theta = ar.num(spec.delta), ar.num(theta)
        one = ar.num(Fraction(1))
        weights = [one]
        prod = one  # prod_{j<n} gamma(j)/delta
        for n in range(1, trunc + 1):
            if n > 1:
                prod = prod * (gamma(n - 1) / delta)
            weights.append(theta * prod * (1 / (delta * n)))
        total = sum(weights[1:], ar.num(Fraction(0))) + one
        return [w / total for w in weights]


def fmt_precise(num: int, den: int, digits: int) -> str:
    """The positive exact value num/den in ``mpmath.nstr(x, digits)``
    layout: ``digits`` significant digits rounded half up, trailing
    zeros stripped, fixed notation for a leading decimal exponent e with
    min(-(digits // 3), -5) < e < digits, else ``d.ddde+N``."""
    e = math.floor((num.bit_length() - den.bit_length() - 1)
                   * math.log10(2))
    low = 10 ** digits
    while True:
        k = digits - e
        q = num * 10 ** k // den if k >= 0 else num // (den * 10 ** -k)
        if q >= low:
            break
        e -= 1
    if q >= 10 * low:
        q //= 10
        e += 1
    r = (q + 5) // 10
    if r == low:
        r //= 10
        e += 1
    text = str(r)
    if min(-(digits // 3), -5) < e < digits:
        text = ("0." + "0" * (-e - 1) + text if e < 0
                else text[:e + 1] + "." + text[e + 1:])
        exponent = ""
    else:
        text = text[0] + "." + text[1:]
        exponent = f"e{e:+d}"
    text = text.rstrip("0")
    if text.endswith("."):
        text += "0"
    return text + exponent


def write_csv(path, header, rows) -> None:
    """Rows of Python numbers and strings through ``csv.writer``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_hitting_csv(path, table, digits: int) -> None:
    """``hitting.csv`` from the table's numerators over its denominator."""
    den = table.denominator
    write_csv(path, ["n", "S_n", "T_n", "certified"],
              ((n, fmt_precise(s, den, digits),
                fmt_precise(t, den, digits), "true" if c else "false")
               for n, s, t, c in zip(
                   itertools.count(1), table.numerators,
                   itertools.accumulate(table.numerators),
                   table.row_certified)))


def write_simulate_csvs(out, summary, grid, labels) -> None:
    """``simulate``'s CSV files for an ensemble ``summary`` on ``grid``."""
    grid_text = [repr(t) for t in grid.tolist()]
    write_csv(out / "trajectories.csv", ["t", "run_id", "total"],
              ((t, run, total)
               for run, totals in enumerate(summary.per_run_totals.tolist())
               for t, total in zip(grid_text, totals)))
    write_csv(out / "summary.csv",
              ["t", "mean", "lower95", "upper95", "survival_fraction"],
              zip(*(a.tolist() for a in (
                  grid, summary.mean_total, summary.lower95,
                  summary.upper95, summary.survival_fraction))))
    write_csv(out / "extinctions.csv", ["run_id", "t_extinct"],
              summary.run_extinctions)
    if summary.run_events is not None:
        (out / "events").mkdir()
        for run, events in enumerate(summary.run_events):
            write_csv(out / "events" / f"run_{run:05d}.csv",
                      ["t", "node_label", "delta"],
                      ((t, labels[node], dc) for t, node, dc in events))


def write_meanfield_csv(path, labels, grid, series) -> None:
    """``meanfield.csv`` for the per-node ``series`` on ``grid``."""
    write_csv(path, ["t", *labels, "total"],
              ([t, *row, total] for t, row, total in zip(
                  grid.tolist(), series.tolist(),
                  series.sum(axis=1).tolist())))


def load_edge_list(source) -> LocalityGraph:
    """Parse a whitespace-separated edge list into a locality graph, one
    line at a time (the reader before the bulk parse, verbatim)."""
    lines = source.splitlines() if isinstance(source, str) else source
    order: dict[str, int] = {}
    edges: dict[tuple[str, str], float] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise EdgeListError(
                f"line {lineno}: expected 'src dst weight', got {raw!r}")
        src, dst, wtext = fields
        try:
            weight = float(wtext)
        except ValueError:
            raise EdgeListError(
                f"line {lineno}: weight {wtext!r} is not a number") from None
        if not math.isfinite(weight):
            raise EdgeListError(f"line {lineno}: weight must be finite")
        if weight < 0:
            raise EdgeListError(f"line {lineno}: negative weight {weight}")
        if src == dst and weight != 0:
            raise EdgeListError(
                f"line {lineno}: self-loop {src!r} must have weight 0")
        if (src, dst) in edges:
            raise EdgeListError(f"line {lineno}: duplicate edge {src}->{dst}")
        for lab in (src, dst):
            order.setdefault(lab, len(order))
        edges[(src, dst)] = weight

    if not order:
        raise EdgeListError("edge list is empty")
    n = len(order)
    # assembled from the triplets: memory O(edges), never O(n^2); the
    # graph drops zero weights, so zero-weight self-loops vanish
    rows = np.array([order[src] for src, _ in edges], dtype=np.intp)
    cols = np.array([order[dst] for _, dst in edges], dtype=np.intp)
    data = np.array(list(edges.values()), dtype=float)
    return LocalityGraph(tuple(order),
                         sp.csr_matrix((data, (rows, cols)), shape=(n, n)))


def read_label_values(path, convert=None, labels=None) -> dict:
    """``label value`` lines (``#`` comments) as a dict in file order,
    one line at a time (the reader before the bulk parse, verbatim)."""
    table = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            where, label = f"{path}:{lineno}", parts[0]
            if len(parts) != (1 if convert is None else 2):
                raise ConfigError(f"{where}: expected " + (
                    "one label" if convert is None else "'label value'"))
            if label in table:
                raise ConfigError(f"{where}: duplicate label {label!r}")
            if labels is not None and label not in labels:
                raise ConfigError(f"{where}: {label!r} is not a graph node")
            try:
                table[label] = None if convert is None else convert(parts[1])
            except ValueError as exc:
                raise ConfigError(
                    f"{where}: bad value {parts[1]!r}: {exc}") from None
    return table


def single_threshold_regime(delta: float, threshold: float,
                            tol: float) -> Regime:
    """The sharp classifiers' former rule: indeterminate within the
    relative band ``tol`` of the one threshold, else the side delta is
    on."""
    margin = delta - threshold
    if abs(margin) <= tol * max(delta, threshold):
        return Regime.INDETERMINATE
    return Regime.FAST_EXTINCTION if margin > 0 else Regime.LONG_LASTING


def weyl_pair_regime(delta: float, lower: float, upper: float,
                     tol: float) -> tuple[Regime, float]:
    """The decoupled classifier's former inline rule: the regime and the
    threshold it is reported at."""
    if delta - upper > tol * max(delta, upper):
        return Regime.FAST_EXTINCTION, upper
    if lower - delta > tol * max(delta, lower):
        return Regime.LONG_LASTING, lower
    return Regime.INDETERMINATE, upper


def symmetrized_upper(g: LocalityGraph):
    """Arithmetic-mean symmetrization (W + W^T) / 2."""
    w = g.weights
    return (w + w.T) / 2


def geometric_lower(g: LocalityGraph):
    """Entrywise geometric-mean symmetrization sqrt(W o W^T)."""
    w = g.weights
    return w.multiply(w.T).sqrt().tocsr()

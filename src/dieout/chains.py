"""Arbitrary-precision mean hitting times for birth-death chains.

The chain of interest has birth rate ``gamma(n) * n`` and death rate
``delta * n`` from state n, absorbing at 0.  Aggregating the locality
epidemic over nodes yields two such chains whose coefficients
``c_max * beta + D_max * beta_int`` and ``c_min * beta + D_min *
beta_int`` (c the column sums of W, D the modulation) bracket the
epidemic's total, so their hitting times bracket the epidemic's
extinction time.

Writing E[T_n] for the mean time from n infections to 0 and
S_n = E[T_n] - E[T_{n-1}], the increments satisfy the recursion

    S_{n+1} * gamma(n) - S_n * delta = -1/n,        S_1 = E[T_1],

whose forward iteration divides a tiny difference by gamma(n) at each
step and is therefore catastrophically unstable in floating point once
gamma(n) is small.  The computational route used here instead unrolls
the recursion toward larger n, which gives the positive-term series

    S_n = (1/delta) * sum_{i >= n} (1/i) * prod_{j=n}^{i-1} gamma(j)/delta

with no subtractive cancellation.  One backward pass from a shared
truncation index M evaluates it for every row; the truncation is
certified against a geometric tail bound, so every returned value
carries a provable relative-error flag.  The forward recursion is kept
only as a verification oracle in the test suite: with a common
truncation index the two routes agree to exact rational equality.

The pass runs in Python integers in one of two arithmetics:

* rational mode (rational gamma and delta required): each row is an
  exact pair N_j / Q_j over a denominator that grows by one small lcm
  per row, so no gcd of big numbers is taken; the only error is the
  truncation;
* big-float mode: integers scaled by 2**F with
  F = bits + 24 + max(0, ceil(log2(delta * M))).  Every term is
  positive, so floor division only ever rounds down, and the pass
  carries an integer bound on the accumulated loss beside each value
  (ln(1 + n) for ``logn`` profiles comes from an integer series with
  its own bound).  A row is certified when truncation plus rounding
  bound is within the tolerance; the rounding bound alone stays below
  2**-bits relative.

Every entry point reads the one :class:`HittingTable` that pass
builds.  It keeps the kernel's integers; the (numerator, denominator)
pairs and the public numbers (Fractions, or mpf numbers holding the
exact dyadic kernel values) are built only when a caller reads them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np
from mpmath.libmp import MPZ

from .graphs import EpidemicModel, LocalityGraph
from .rates import (Arithmetic, ExactnessError, RateProfile, Scaled,
                    coerce_coefficient, gamma_from_graph)

RATIONAL = "rational"
BIGFLOAT = "bigfloat"


class InfiniteHittingTimeError(ArithmeticError):
    """The requested mean hitting time diverges.

    Attributes:
        state: smallest requested chain state whose series diverges.
    """

    def __init__(self, state: int):
        super().__init__(
            f"infinite expected hitting time: the increment series for "
            f"state {state} diverges (growth coefficient does not drop "
            f"below the curing rate)")
        self.state = state


@dataclass(frozen=True)
class PrecisionConfig:
    """Arithmetic kernel selection and truncation contract.

    Attributes:
        mode: ``"rational"`` for exact fractions, ``"bigfloat"`` for
            the fixed-point kernel with mpf results.
        bits: big-float precision (>= 64): the carried rounding bound
            of every row stays below 2**-bits relative.
        series_rel_tol: certified relative error tolerance (truncation
            plus rounding).
        max_terms: cap on the absolute series truncation index.
    """

    mode: str = BIGFLOAT
    bits: int = 256
    series_rel_tol: float = 1e-30
    max_terms: int = 2_000_000

    def __post_init__(self):
        if self.mode not in (RATIONAL, BIGFLOAT):
            raise ValueError(f"unknown precision mode {self.mode!r}")
        if self.mode == BIGFLOAT and self.bits < 64:
            raise ValueError("big-float kernel needs at least 64 bits")
        if not self.series_rel_tol > 0:
            raise ValueError("series_rel_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be positive")

    @property
    def decimal_digits(self) -> int:
        """Significant decimal digits matching the kernel precision."""
        if self.mode == RATIONAL:
            return 50
        return int(self.bits * math.log10(2.0)) + 1


@dataclass(frozen=True)
class BirthDeathSpec:
    """Birth-death chain with per-person birth coefficient gamma(n)."""

    gamma: RateProfile
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "delta", coerce_coefficient(self.delta))
        if self.delta <= 0:
            raise ValueError("curing rate delta must be positive")


@dataclass(frozen=True)
class SeriesValue:
    """A certified series evaluation.

    ``value`` is a Fraction (rational mode) or an mpf holding the
    kernel's exact dyadic value (big-float mode); ``truncated_at`` is
    the absolute last index included; ``error_bound`` bounds
    |value - S_n|: the neglected tail plus, in big-float mode, the
    carried rounding error (None when no tail bound was available).
    """

    value: object
    certified: bool
    truncated_at: int
    error_bound: object | None = None


@dataclass(frozen=True)
class HittingTable:
    """Increments S_1..S_n_max and accumulated mean hitting times.

    T_n = sum_{i<=n} S_i is strictly increasing; ``certified`` is True
    only when every row met the relative tolerance.  Row n holds the
    kernel's integers: S_n is exactly ``numerators[n-1] /
    denominators[n-1]``, and ``bounds[n-1]`` over the same denominator
    bounds its error (the neglected tail plus, in big-float mode, the
    carried rounding; None when no tail bound was available).  Built
    only on first access: ``s_pairs`` and ``t_pairs``, each S_n and T_n
    as a (numerator, denominator) pair, and ``S`` and ``T``, the same
    values as Fractions (rational mode) or mpf numbers holding the
    exact dyadic (big-float mode).  The run report:
    ``planned_truncation`` is the first truncation index tried,
    ``extension_passes`` counts the doublings needed to certify, and
    ``max_rel_error_bound`` is the largest relative error bound
    (truncation plus rounding) over the rows that have one.
    """

    n_max: int
    precision: PrecisionConfig
    certified: bool
    row_certified: tuple
    truncated_at: int
    planned_truncation: int
    extension_passes: int
    max_rel_error_bound: float | None
    numerators: list = field(repr=False)
    bounds: list = field(repr=False)
    denominators: list = field(repr=False)
    #: rational mode: denominators[n-1] = denominators[n] * _steps[n-1];
    #: None in big-float mode, where every denominator is the same 2**F
    _steps: list | None = field(repr=False)

    @functools.cached_property
    def _t_numerators(self) -> list:
        """Numerators of T_1..T_n_max over denominators[0], where S_k
        has the numerator numerators[k-1] * _steps[0] * ... * _steps[k-2].
        """
        if self._steps is None:
            return list(itertools.accumulate(self.numerators))
        scales = itertools.accumulate(self._steps, operator.mul, initial=1)
        return list(itertools.accumulate(
            map(operator.mul, self.numerators, scales)))

    @functools.cached_property
    def s_pairs(self) -> tuple:
        return tuple(zip(self.numerators, self.denominators))

    @functools.cached_property
    def t_pairs(self) -> tuple:
        return tuple(zip(self._t_numerators,
                         itertools.repeat(self.denominators[0])))

    @functools.cached_property
    def S(self) -> tuple:
        return self._numbers(self.s_pairs)

    @functools.cached_property
    def T(self) -> tuple:
        return self._numbers(self.t_pairs)

    def _numbers(self, pairs) -> tuple:
        rational = self.precision.mode == RATIONAL
        return tuple(_number(p, q, rational) for p, q in pairs)


#: the run report of a kernel pass, in HittingTable and AsymptoteRatios
RUN_REPORT = ("truncated_at", "planned_truncation", "extension_passes",
              "max_rel_error_bound")


@dataclass(frozen=True)
class AsymptoteRatios:
    """Ratios delta * E[T_n] / ln(n) as (n, ratio) pairs, with the run
    report of the kernel pass behind them (as in HittingTable)."""

    ratios: list
    truncated_at: int
    planned_truncation: int
    extension_passes: int
    max_rel_error_bound: float | None


def _number(p: int, q: int, rational: bool):
    """The exact p/q as the public number type: a Fraction, or (p > 0,
    q a power of two) a normalized mpf holding the dyadic."""
    if rational:
        return Fraction(p, q)
    zeros = (p & -p).bit_length() - 1
    man = p >> zeros
    return mpmath.mp.make_mpf(
        (0, MPZ(man), zeros - q.bit_length() + 1, man.bit_length()))


# ---------------------------------------------------------------------------
# the kernel

#: rounding slack applied to certified upper bounds computed in floats
_SAFETY = 1 + 2.0 ** -24

#: fractional bits kept beyond ``bits + ceil(log2(delta * M))``: they
#: hold the carried rounding bound below 2**-(bits + 20) relative, far
#: under the last printed digit, so written decimals are correctly
#: rounded
_GUARD = 24


def _ratio_bound(spec: BirthDeathSpec, n0: int) -> tuple[bool, Fraction]:
    """(r < 1, r) for an exact upper bound r on gamma(n)/delta over n >= n0.

    r is exact for a rational gamma; otherwise it is the float
    supremum times _SAFETY.
    """
    gamma = spec.gamma
    sup = (gamma.sup_from_exact(n0) if gamma.is_rational
           else Fraction(gamma.sup_from(n0) * _SAFETY))
    r = sup / spec.delta
    return r < 1, r


def _plan_truncation(spec: BirthDeathSpec, n_hi: int,
                     precision: PrecisionConfig) -> int:
    """Pick a first candidate truncation index M for rows 1..n_hi.

    Divergent rows raise immediately.  When gamma vanishes at some
    j0 >= n_hi the series terminates there and M = j0 is exact.  The
    returned M is a starting point; the caller still verifies the
    per-row tail bounds and extends when needed.
    """
    limit = spec.gamma.limit_exact
    zero_after = spec.gamma.first_zero_at_or_after(n_hi)
    if limit >= spec.delta:
        if zero_after is None:
            raise InfiniteHittingTimeError(n_hi)
        return zero_after

    # Find a point past which the term ratio is certifiably below one.
    start = n_hi + 1
    while not _ratio_bound(spec, start)[0]:
        start *= 2
        if start > precision.max_terms:
            ratio_based = precision.max_terms
            break
    else:
        r = spec.gamma.sup_from(start) / float(spec.delta)
        log_r = math.log(r) if r > 0 else None
        if log_r is None or log_r >= 0:
            extension = 64
        else:
            # aim for r^extension below tol with generous headroom
            target = math.log(precision.series_rel_tol / (10.0 * n_hi))
            extension = max(64, int(target / log_r) + 8)
        ratio_based = min(start + extension, precision.max_terms)
    if zero_after is not None:
        # the series terminates at the zero exactly; use it if nearer
        return min(zero_after, ratio_based)
    return ratio_based


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


class _BackwardLog:
    """Lower bounds on ln(1 + n) for n = top, top - 1, ..., 1 in turn.

    Holds L ~ 2**bits * ln(1 + n) with |L - 2**bits ln(1 + n)| <= err
    and serves (L - err) / 2**bits.  One mpmath logarithm seeds
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

    def __call__(self, n: int) -> _Ratio:
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
        return _Ratio(self.L - self.err, 1 << self.bits)


def _fixed_pass(spec: BirthDeathSpec, n_hi: int, M: int, bits: int,
                geom: Fraction | None):
    """The backward pass in integers scaled by 2**F.

    s_j = floor(2**F/(j delta)) + floor(q_j s_{j+1}) with q = gamma/delta
    exact, so s_j never exceeds 2**F S_j and the loss is carried as
    e_j = 2 + ceil(q_j e_{j+1}) units: each floor drops under one unit
    and the error of s_{j+1} enters scaled by q_j.  For an irrational
    gamma, ln(1 + j) enters as a lower bound from :class:`_BackwardLog`,
    2 err units of 2**-G or less below it; every family is affine in
    that logarithm with a nonnegative slope, so the q used is at most
    eta = 2 err / L <= err * 2**(2-G) relative below the true one.  That
    keeps s_j below 2**F S_j and adds ceil(eta (q s_{j+1} + q e_{j+1}))
    to e_j.

    P_j = prod_{i=j}^{M} q_i is carried as a 64-bit mantissa and a
    binary exponent, rounded up at every step (the added unit also
    covers eta <= 2**-64); it is exactly zero once gamma has vanished.

    Returns (values, bounds, rounding, F): s_j, the bound e_j plus the
    tail bound P_j * geom in units of 2**-F (None without a tail
    bound), and e_j alone, for j = 1..n_hi at index j - 1.
    """
    delta = spec.delta
    F = bits + _GUARD + max(0, math.ceil(math.log2(delta * M)))
    dn, dd = delta.numerator, delta.denominator
    unit = (1 << F) * dd  # floor(unit / (j dn)) = floor(2**F / (j delta))
    log = (None if spec.gamma.is_rational
           else _BackwardLog(M, F + 2 * M.bit_length() + _GUARD))
    gamma = spec.gamma.evaluator(Arithmetic("ratio", _ratio, log))
    if geom is not None:
        gn, gd = geom.numerator, geom.denominator

    values = [0] * n_hi
    bounds = [None] * n_hi
    rounding = [0] * n_hi
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
            values[j - 1], rounding[j - 1] = s, e
            if not pm:
                bounds[j - 1] = e  # a vanished gamma truncates exactly
            elif geom is not None:
                # ceil(P_j * geom * 2**F), which is 1 when below one unit
                x, shift = pm * gn, pe + F
                if x.bit_length() + shift < gd.bit_length():
                    tail = 1
                elif shift >= 0:
                    tail = -(-(x << shift) // gd)
                else:
                    tail = -(-x // (gd << -shift))
                bounds[j - 1] = e + tail
    return values, bounds, rounding, F


def _exact_pass(spec: BirthDeathSpec, n_hi: int, M: int,
                geom: Fraction | None):
    """The backward pass in exact integers over a growing denominator.

    Row j holds S_j = N_j / Q_j and its tail bound P_j * geom = R_j / Q_j
    over the same denominator, so certifying it is one integer
    comparison.  With q_j = gamma(j)/delta = qn/qd left unreduced and
    L_j = lcm(j dn, qd) (delta = dn/dd),

        Q_j = Q_{j+1} L_j,
        N_j = dd (L_j / (j dn)) Q_{j+1} + qn (L_j / qd) N_{j+1},
        R_j = qn (L_j / qd) R_{j+1},

    from N_{M+1} = 0 and R_{M+1}/Q_{M+1} = geom (1/1 without a tail
    bound), so no gcd of big numbers is taken.  R_j is zero once gamma
    has vanished: the truncation is then exact.

    Returns (values, bounds, dens, steps): N_j, R_j (None without a
    tail bound, unless zero), Q_j and L_j for j = 1..n_hi at index
    j - 1.
    """
    delta = spec.delta
    dn, dd = delta.numerator, delta.denominator
    gamma = spec.gamma.evaluator(Arithmetic("ratio", _ratio, None))
    values = [0] * n_hi
    bounds = [None] * n_hi
    dens = [1] * n_hi
    steps = [1] * n_hi
    s = 0
    r, den = (1, 1) if geom is None else (geom.numerator, geom.denominator)
    for j in range(M, 0, -1):
        g = gamma(j)
        qn, qd, jd = g.p * dd, g.q * dn, j * dn
        step = math.lcm(jd, qd)
        carry = qn * (step // qd)
        s = dd * (step // jd) * den + carry * s
        r *= carry
        den *= step
        if j <= n_hi:
            values[j - 1], dens[j - 1], steps[j - 1] = s, den, step
            if not r or geom is not None:
                bounds[j - 1] = r
    return values, bounds, dens, steps


def _backward_table(spec: BirthDeathSpec, n_hi: int,
                    precision: PrecisionConfig,
                    truncate_at: int | None = None) -> HittingTable:
    """Backward evaluation of S_1..S_{n_hi} from a shared truncation M.

    Seeds S_{M+1} = 0 and iterates S_j = 1/(j*delta) +
    (gamma(j)/delta) * S_{j+1} down to j = 1, which reproduces every
    truncated tail series.  Alongside S the pass carries
    P_j = prod_{i=j}^{M} gamma(i)/delta, from which the neglected tail
    for row n is bounded by P_n / (delta * (M+1) * (1 - r)) with r a
    certified upper bound on gamma/delta beyond M.  A row is certified
    when that bound plus the rounding bound is at most
    ``series_rel_tol`` times the value; M doubles while some row fails
    for want of terms.

    Raises:
        ExactnessError: rational mode with an irrational gamma.
        ValueError: ``max_terms`` (or ``truncate_at``) below n_hi.
    """
    if n_hi < 1:
        raise ValueError("need at least state 1")
    rational = precision.mode == RATIONAL
    if rational and not spec.gamma.is_rational:
        raise ExactnessError(
            "the exact-rational kernel requires a rational-valued "
            "gamma profile; use the big-float kernel instead")
    if precision.max_terms < n_hi:
        raise ValueError(
            f"max_terms {precision.max_terms} is below the largest "
            f"requested state {n_hi}; the series needs at least that "
            f"many terms")
    forced = truncate_at is not None
    if forced and truncate_at < n_hi:
        raise ValueError("truncation index must be >= the largest state")
    planned = M = truncate_at if forced else _plan_truncation(
        spec, n_hi, precision)
    tn, td = precision.series_rel_tol.as_integer_ratio()
    passes = 0
    while True:
        r_ok, r = _ratio_bound(spec, M + 1)
        geom = 1 / ((1 - r) * spec.delta * (M + 1)) if r_ok else None
        if rational:
            values, bounds, dens, steps = _exact_pass(spec, n_hi, M, geom)
            rounding = None
        else:
            values, bounds, rounding, scale = _fixed_pass(
                spec, n_hi, M, precision.bits, geom)
            dens, steps = [1 << scale] * n_hi, None
        # value and bound share a denominator
        certified = tuple(b is not None and b * td <= tn * v
                          for b, v in zip(bounds, values))
        # more terms cannot help a row whose rounding alone is too big
        helpable = (not ok and (rounding is None
                                or rounding[i] * td <= tn * values[i])
                    for i, ok in enumerate(certified))
        if forced or not any(helpable) or M >= precision.max_terms:
            rel = max((b / v for b, v in zip(bounds, values)
                       if b is not None), default=None)
            return HittingTable(n_hi, precision, all(certified), certified,
                                M, planned, passes, rel, values, bounds,
                                dens, steps)
        M = min(max(2 * M, M + 64), precision.max_terms)
        passes += 1


def s_tail_series(spec: BirthDeathSpec, n: int, precision: PrecisionConfig,
                  truncate_at: int | None = None) -> SeriesValue:
    """Increment S_n = E[T_n] - E[T_{n-1}] via the positive-term series.

    This is the numerically stable route; relative truncation error is
    certified against ``precision.series_rel_tol``.  ``truncate_at``
    forces an absolute truncation index (verification use: values from
    a common index match the forward recursion exactly).  The value is
    the last row of the table :func:`hitting_table` builds for n.
    """
    table = _backward_table(spec, n, precision, truncate_at)
    rational = precision.mode == RATIONAL
    den, bound = table.denominators[-1], table.bounds[-1]
    return SeriesValue(
        _number(table.numerators[-1], den, rational), table.row_certified[-1],
        table.truncated_at,
        None if bound is None else _number(bound, den, rational))


def expected_T1(spec: BirthDeathSpec, precision: PrecisionConfig,
                truncate_at: int | None = None) -> SeriesValue:
    """Mean hitting time from one infected agent to zero.

    Evaluates (1/delta) * sum_{i>=1} (1/i) * prod_{j<i} gamma(j)/delta
    with a certified geometric tail bound.

    Raises:
        InfiniteHittingTimeError: when the series diverges (the chain's
        growth coefficient does not drop below the curing rate).
    """
    return s_tail_series(spec, 1, precision, truncate_at=truncate_at)


def hitting_table(spec: BirthDeathSpec, n_max: int,
                  precision: PrecisionConfig) -> HittingTable:
    """Certified table of S_n and E[T_n] for n = 1..n_max.

    All rows share one truncation index, so the accumulated sums
    inherit the per-row relative tolerance (the terms are positive).

    Raises:
        InfiniteHittingTimeError: some requested row diverges.
    """
    return _backward_table(spec, n_max, precision)


def asymptote_ratio(spec: BirthDeathSpec, n_list,
                    precision: PrecisionConfig) -> AsymptoteRatios:
    """Diagnostic ratios delta * E[T_n] / ln(n) for the given states.

    When gamma vanishes asymptotically the ratios approach one --
    although the approach is extremely slow, so no rate is implied.
    Each E[T_n] is the exact prefix sum p/q of the
    :func:`hitting_table` up to the largest state, the pair it stores
    in ``t_pairs``; the ratio is ``delta * (p / q) / math.log(n)`` in
    float64, read only at the requested states.
    """
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 2:
        raise ValueError("asymptote states must be integers >= 2")
    table = hitting_table(spec, n_list[-1], precision)
    sums, den = table._t_numerators, table.denominators[0]
    delta = float(spec.delta)
    return AsymptoteRatios(
        [(n, delta * (sums[n - 1] / den) / math.log(n)) for n in n_list],
        **{key: getattr(table, key) for key in RUN_REPORT})


def equilibrium_lower_bound(epsilon, delta, N: int) -> Fraction:
    """Exact lower bound ((1 + eps/delta)^(N+1) - 1) / ((N+1) * eps).

    This bounds E[T_1] from below when the growth coefficient sits at
    delta + eps up to the equilibrium point N and vanishes beyond, so
    the mean die-out time is exponential in N.  Increasing in both eps
    and N.
    """
    eps = coerce_coefficient(epsilon)
    dlt = coerce_coefficient(delta)
    if eps <= 0 or dlt <= 0:
        raise ValueError("epsilon and delta must be positive")
    if N < 1:
        raise ValueError("N must be at least 1")
    return ((1 + eps / dlt) ** (N + 1) - 1) / ((N + 1) * eps)


def bound_chains_from_graph(g: LocalityGraph, model: EpidemicModel
                            ) -> tuple[BirthDeathSpec, BirthDeathSpec]:
    """Bracketing chains for the epidemic's total on a locality graph.

    Returns (upper, lower) specs with growth coefficients
    c_max * beta + D_max * beta_int and c_min * beta + D_min * beta_int,
    where c are the column sums of W and D the model's modulation.  A
    case at node v adds beta(n) * c_v + beta_int(n) * D_v to the total
    birth rate (c_v is the pressure v exerts), so the per-capita birth
    rate at total n lies between the two coefficients.  The extremes
    are embedded exactly.
    """
    col_sums = np.asarray(g.weights.sum(axis=0)).ravel()
    d = model.d(g.node_count)

    def chain(c, d_ext):
        d_ext = coerce_coefficient(float(d_ext))
        inner = (model.beta_int if d_ext == 1
                 else Scaled(d_ext, model.beta_int))
        return BirthDeathSpec(gamma_from_graph(model.beta, inner, float(c)),
                              model.delta)

    return chain(col_sums.max(), d.max()), chain(col_sums.min(), d.min())

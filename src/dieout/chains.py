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

with no subtractive cancellation.  Truncation is certified against a
geometric tail bound, so every returned value carries a provable
relative-error flag.  The forward recursion is kept only as a
verification oracle in the test suite: with a common truncation index
the two routes agree to exact rational equality.

One kernel runs in either of two arithmetics: exact rationals
(``Fraction``, requires rational gamma values and delta) and mpmath big
floats at a configurable bit precision.  Independent values may be
computed concurrently in separate processes; within one process the
kernel temporarily sets the mpmath working precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .graphs import EpidemicModel, LocalityGraph
from .rates import (EXACT, FLOAT, MPF, Arithmetic, ExactnessError,
                    RateProfile, Scaled, coerce_coefficient, gamma_from_graph)

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
            mpmath floats.
        bits: mantissa precision for the big-float kernel (>= 64).
        series_rel_tol: certified relative truncation tolerance.
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
class RecurrenceCheck:
    """Outcome of the normalization-series convergence test."""

    positive_recurrent: bool
    reason: str

    def __bool__(self) -> bool:
        return self.positive_recurrent


@dataclass(frozen=True)
class SeriesValue:
    """A certified series evaluation.

    ``value`` is a Fraction or mpf depending on the kernel;
    ``truncated_at`` is the absolute last index included;
    ``tail_bound`` bounds the neglected tail (None when a forced
    truncation point made no bound available).
    """

    value: object
    certified: bool
    truncated_at: int
    tail_bound: object | None = None


@dataclass(frozen=True)
class HittingTable:
    """Increments S_1..S_n_max and accumulated mean hitting times.

    T_n = sum_{i<=n} S_i is strictly increasing; ``certified`` is True
    only when every row met the truncation tolerance.
    """

    n_max: int
    S: tuple
    T: tuple
    precision: PrecisionConfig
    certified: bool
    row_certified: tuple
    truncated_at: int


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


# ---------------------------------------------------------------------------
# the kernel

#: rounding slack applied to certified upper bounds computed in floats
_SAFETY = 1 + 2.0 ** -24


def _arithmetic(spec: BirthDeathSpec, precision: PrecisionConfig):
    """The kernel arithmetic of ``precision`` and gamma's view in it.

    Rational mode computes in exact Fractions and needs a rational
    gamma; big-float mode computes in mpmath floats at the working
    precision, which the caller sets to ``precision.bits``.
    """
    if precision.mode == BIGFLOAT:
        return MPF, spec.gamma.value_mpf
    if not spec.gamma.is_rational:
        raise ExactnessError(
            "the exact-rational kernel requires a rational-valued "
            "gamma profile; use the big-float kernel instead")
    return EXACT, spec.gamma.value_exact


def _ratio_bound(spec: BirthDeathSpec, n0: int, ar: Arithmetic):
    """(r < 1, r) for an upper bound r on gamma(n)/delta over n >= n0.

    r is exact for a rational gamma (times _SAFETY once rounded into
    ``ar``); otherwise it is the float supremum times _SAFETY.
    """
    gamma = spec.gamma
    if gamma.is_rational:
        r = gamma.sup_from_exact(n0) / spec.delta
        return r < 1, (r if ar is EXACT else ar.num(r) * _SAFETY)
    r = ar.num(Fraction(gamma.sup_from(n0) * _SAFETY)) / ar.num(spec.delta)
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
    while not _ratio_bound(spec, start, FLOAT)[0]:
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


def _tail_values(spec: BirthDeathSpec, n_hi: int, precision: PrecisionConfig,
                 truncate_at: int | None = None, as_floats: bool = False):
    """Backward evaluation of S_1..S_{n_hi} from a shared truncation M.

    Seeds S_{M+1} = 0 and iterates S_j = 1/(j*delta) +
    (gamma(j)/delta) * S_{j+1} down to j = 1, which reproduces every
    truncated tail series exactly.  Alongside S the pass carries
    P_j = prod_{i=j}^{M} gamma(i)/delta, from which the neglected tail
    for row n is bounded by P_n / (delta * (M+1) * (1 - r)) with r a
    certified upper bound on gamma/delta beyond M.

    Returns (values, certified, M, tail_bounds); values are kernel
    numbers, or a float64 array (index 0 unused) when ``as_floats``.
    """
    if n_hi < 1:
        raise ValueError("need at least state 1")
    forced = truncate_at is not None
    if forced and truncate_at < n_hi:
        raise ValueError("truncation index must be >= the largest state")
    candidate = truncate_at if forced else _plan_truncation(
        spec, n_hi, precision)

    ar, gamma = _arithmetic(spec, precision)
    with mpmath.mp.workprec(precision.bits):  # Fractions ignore it
        delta = ar.num(spec.delta)
        tol = ar.num(Fraction(precision.series_rel_tol))
        zero, one = ar.num(Fraction(0)), ar.num(Fraction(1))
        while True:
            M = candidate
            if as_floats:
                values = np.zeros(n_hi + 1)
            else:
                values = [None] * (n_hi + 1)
            bounds = [None] * (n_hi + 1)
            certified = [False] * (n_hi + 1)

            r_ok, r = _ratio_bound(spec, M + 1, ar)
            geom = (1 / ((1 - r) * delta * (M + 1))) if r_ok else None

            s_next = zero
            p_next = one
            for j in range(M, 0, -1):
                q = gamma(j) / delta
                s_j = 1 / (delta * j) + q * s_next
                p_j = q * p_next
                if j <= n_hi:
                    if p_j == 0:
                        # a vanished gamma truncates the series exactly
                        certified[j] = True
                        bounds[j] = zero
                    elif r_ok:
                        bound = p_j * geom
                        bounds[j] = bound
                        certified[j] = bound <= tol * s_j
                    values[j] = float(s_j) if as_floats else s_j
                s_next, p_next = s_j, p_j

            if forced or all(certified[1:]) or M >= precision.max_terms:
                return values, certified, M, bounds
            candidate = min(max(2 * M, M + 64), precision.max_terms)


def s_tail_series(spec: BirthDeathSpec, n: int, precision: PrecisionConfig,
                  truncate_at: int | None = None) -> SeriesValue:
    """Increment S_n = E[T_n] - E[T_{n-1}] via the positive-term series.

    This is the numerically stable route; relative truncation error is
    certified against ``precision.series_rel_tol``.  ``truncate_at``
    forces an absolute truncation index (verification use: values from
    a common index match the forward recursion exactly).
    """
    values, certified, M, bounds = _tail_values(
        spec, n, precision, truncate_at=truncate_at)
    return SeriesValue(values[n], certified[n], M, bounds[n])


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
    values, certified, M, _ = _tail_values(spec, n_max, precision)
    S = tuple(values[1:])
    with mpmath.mp.workprec(precision.bits):
        T = tuple(itertools.accumulate(S))
    rows = tuple(certified[1:])
    return HittingTable(n_max=n_max, S=S, T=T, precision=precision,
                        certified=all(rows), row_certified=rows,
                        truncated_at=M)


def asymptote_ratio(spec: BirthDeathSpec, n_list,
                    precision: PrecisionConfig) -> list[tuple[int, float]]:
    """Diagnostic ratios delta * E[T_n] / ln(n) for the given states.

    When gamma vanishes asymptotically the ratios approach one --
    although the approach is extremely slow, so no rate is implied.
    The increments are computed in the certified kernel and then
    accumulated in float64 (the ratios themselves are float-scale
    diagnostics; positive-term accumulation keeps them accurate).
    """
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 2:
        raise ValueError("asymptote states must be integers >= 2")
    t_cum = np.cumsum(s_values_float(spec, n_list[-1], precision)[1:])
    delta = float(spec.delta)
    return [(n, delta * float(t_cum[n - 1]) / math.log(n)) for n in n_list]


def s_values_float(spec: BirthDeathSpec, n_max: int,
                   precision: PrecisionConfig) -> np.ndarray:
    """S_1..S_n_max computed in the certified kernel, returned as floats.

    Index 0 of the returned array is unused padding.
    """
    values, _, _, _ = _tail_values(spec, n_max, precision, as_floats=True)
    return values


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

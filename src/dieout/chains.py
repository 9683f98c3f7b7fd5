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

* rational mode (rational gamma and delta required): every row is an
  exact N_j / Q_1 over one denominator Q_1, a product of one small lcm
  per row formed before the pass, so no gcd of big numbers is taken;
  the only error is the truncation;
* big-float mode: integers scaled by 2**F with
  F = bits + 24 + max(0, ceil(log2(delta * M))).  Every term is
  positive, so floor division only ever rounds down, and the pass
  carries an integer bound on the accumulated loss beside each value
  (ln(1 + n) for ``logn`` profiles comes from a table built before the
  pass: an integer atanh series at each prime, ln 2 included, stored
  only there, and at a composite the exact sum of its prime factors'
  entries, with its own bound).  A row is certified when truncation
  plus rounding bound is within the tolerance; the rounding bound
  alone stays below 2**-bits relative.

In both, gamma(j) comes from the profile's own evaluator as a plain
int triple (p, q, g) meaning p / (q 2**g): no object per row, and the
2**G scale of a table logarithm stays a shift rather than a factor of
a divisor.

Each pass takes the rows its caller keeps.  :func:`hitting_table`
keeps every row in one :class:`HittingTable`, the kernel's integers
over that one denominator, so T_n's numerator is a running sum of S's,
taken where it is read; the public numbers (Fractions, or mpf numbers
holding the exact dyadic kernel values) are built only when a caller
reads them.  :func:`asymptote_ratio` keeps one running suffix sum of
the rows at each requested state, so its memory grows with the states
it reads, not with n_max; each row is still certified in the pass.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graphs import EpidemicModel, LocalityGraph
from .rates import (EXACT, FLOAT, Aggregate, Arithmetic, ExactnessError,
                    RateProfile, coerce_coefficient)

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
class HittingTable:
    """Increments S_1..S_n_max and accumulated mean hitting times.

    T_n = sum_{i<=n} S_i is strictly increasing; ``certified`` is True
    only when every row met the relative tolerance.  Every integer sits
    over the one ``denominator`` (Q_1 in rational mode, 2**F in
    big-float mode): S_n is exactly ``numerators[n-1] / denominator``,
    and ``bounds[n-1]`` bounds its error (the neglected tail plus, in
    big-float mode, the carried rounding; None when no tail bound was
    available).  T_n is exactly ``sum(numerators[:n]) / denominator``,
    a running sum its readers stream.  Built only on first access:
    ``S`` and ``T``, the same values as Fractions (rational mode) or
    mpf numbers holding the exact dyadic (big-float mode).  The run
    report: ``planned_truncation`` is the first truncation index tried,
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
    denominator: int = field(repr=False)

    @functools.cached_property
    def S(self) -> tuple:
        return self._numbers(self.numerators)

    @functools.cached_property
    def T(self) -> tuple:
        return self._numbers(itertools.accumulate(self.numerators))

    def _numbers(self, numerators) -> tuple:
        if self.precision.mode == RATIONAL:
            return tuple(Fraction(p, self.denominator) for p in numerators)
        # imported here: the commands write their tables from the
        # numerators, so only callers of S and T load mpmath
        from mpmath import mp
        from mpmath.libmp import MPZ
        bits = self.denominator.bit_length() - 1
        out = []
        for p in numerators:  # p / 2**bits as a normalized mpf
            zeros = (p & -p).bit_length() - 1
            man = p >> zeros
            out.append(mp.make_mpf((0, MPZ(man), zeros - bits,
                                    man.bit_length())))
        return tuple(out)


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


# ---------------------------------------------------------------------------
# the kernel

#: rounding slack applied to certified upper bounds computed in floats
_SAFETY = 1 + 2.0 ** -24

#: entries of the smallest-prime-factor sieve made at a time while a
#: _LogTable is built; the allocator reuses chunks this small, where a
#: whole-range numpy array, once freed, stayed resident and raised
#: fig4's peak RSS by about 4 MB
_SIEVE_CHUNK = 1 << 14

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
    sup = (gamma.sup(n0, EXACT) if gamma.is_rational
           else Fraction(gamma.sup(n0, FLOAT) * _SAFETY))
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
        r = spec.gamma.sup(start, FLOAT) / float(spec.delta)
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


def _triple(x: Fraction) -> tuple[int, int, int]:
    return x.numerator, x.denominator, 0


def _add(x, y):
    (p, q, g), (pp, qq, gg) = (x, y) if x[2] >= y[2] else (y, x)
    return p * qq + (pp * q << g - gg), q * qq, g


def _mul(x, y):
    return x[0] * y[0], x[1] * y[1], x[2] + y[2]


def _div(x, n):
    return x[0], x[1] * n, x[2]


def _kernel_arithmetic(log) -> Arithmetic:
    """Profile values as plain int triples (p, q, g), meaning
    p / (q 2**g), left unreduced: a profile builds each value from a few
    exact parameters, so p and q stay small without any gcd work, and
    the 2**G scale of ``log``'s logarithms stays a shift count g."""
    return Arithmetic(_triple, log, _add, _mul, _div)


def _smallest_prime_factors(lo: int, hi: int, primes) -> list:
    """For m = lo..hi-1, m's smallest prime factor, 0 at a prime, from
    ``primes``: every prime up to isqrt(hi - 1), ascending."""
    spf = np.zeros(hi - lo, dtype=np.int32)
    for p in primes:
        if p * p >= hi:
            break
        multiples = spf[max(p * p, -(-lo // p) * p) - lo::p]  # a view
        multiples[multiples == 0] = p
    return spf.tolist()


def _two_atanh(q: int, coeffs: list, bits: int) -> int:
    """2**bits * 2 atanh(1/q) = 2**bits ln((q + 1)/(q - 1)) for odd
    q >= 3, less than 3 units low, from coeffs[i] =
    floor(2**(bits + 1) / (2i + 1)) by Horner's rule.

    Every floor loses under one unit, and each partial sum enters
    divided by q**2 >= 9, so the floors lose under 1 + 2 * 3/8 units;
    the series is cut where its tail drops below one unit, and nothing
    rounds up.
    """
    q2 = q * q
    # K terms leave a tail below one unit: q**(2K) >= 2**(bits+1)
    last = (bits + 1) // (2 * (q.bit_length() - 1))
    acc = coeffs[last]
    for i in range(last - 1, -1, -1):
        acc = acc // q2 + coeffs[i]
    return acc // q


def _atanh_coeffs(bits: int) -> list:
    """floor(2**(bits + 1) / (2i + 1)): the series of 2 atanh, as many
    terms as :func:`_two_atanh` reads at q = 3."""
    return [(2 << bits) // (2 * i + 1) for i in range(bits // 2 + 2)]


def _floor_ln2(bits: int) -> int:
    """floor(2**bits ln 2), exactly, in integers.

    ln 2 = 2 atanh(1/3).  Summed at bits + guard bits, x lies less than
    3 units below 2**(bits + guard) ln 2, which is irrational, so the
    floor is x >> guard once x and x + 3 shift down to one integer;
    the guard doubles until they do.
    """
    guard = 32
    while True:
        width = bits + guard
        x = _two_atanh(3, _atanh_coeffs(width), width)
        if x >> guard == (x + 3) >> guard:
            return x >> guard
        guard *= 2


class _LogTable:
    """Lower bounds on ln(1 + n) for n = 1..top.

    Stores L[p] ~ 2**bits * ln(p) only at the primes p <= top + 1, and a
    smallest-prime-factor array over 0..top + 1 (0 at a prime).  For
    every m = 2..top + 1, L(m) is the sum of L[p] over m's prime
    factors p with multiplicity, found through that array, with
    |L(m) - 2**bits ln m| <= err(m) for err(m) = 3m - 4:

    * L[2] = floor(2**bits ln 2) (:func:`_floor_ln2`), off by under one
      unit, below err(2) = 2;
    * at an odd prime p, L[p] = L(p - 1) + 2 atanh(1/(2p - 1)), the
      series ln p - ln(p - 1) summed by :func:`_two_atanh`, under 3
      units low: err(p - 1) + 3 = err(p);
    * at a composite m = a b, L(m) = L(a) + L(b) exactly, off by at
      most err(a) + err(b) = 3a + 3b - 8 <= 3ab - 4 = err(m), because
      3ab - 3a - 3b + 4 = 3 (a - 1)(b - 1) + 1 > 0; by induction over
      the factors this holds for the sum over all of them.

    An ascending table of every L(m), built as L(a) + L(m / a) with a
    the smallest prime factor, holds these same integers: each is the
    same sum of prime entries.  Only the odd primes (about 1 in 13
    entries at top = 1e6) take a series, and only they are stored.
    Serving n returns the kernel triple (L(n + 1) - err, 1, bits), i.e.
    (L(n + 1) - err) / 2**bits, with err = 3 (n + 1) >= err(n + 1): a
    lower bound on ln(1 + n) at most 2 err units below it.  It leaves
    ``err`` set for the caller.
    """

    def __init__(self, top: int, bits: int):
        root = math.isqrt(top + 1)
        primes = [p for p in range(2, root + 1)
                  if all(p % d for d in range(2, math.isqrt(p) + 1))]
        coeffs = _atanh_coeffs(bits)
        # "I" holds any factor up to isqrt(top + 1) < 2**32
        self._spf = spf = array("I", [0, 0, 0])
        self._L = L = {2: _floor_ln2(bits)}
        self.bits = bits
        for lo in range(3, top + 2, _SIEVE_CHUNK):
            hi = min(lo + _SIEVE_CHUNK, top + 2)
            chunk = _smallest_prime_factors(lo, hi, primes)
            spf.extend(chunk)
            for m, p in enumerate(chunk, lo):
                if not p:  # L(m - 1) is served at n = m - 2, err low
                    L[m] = (self(m - 2)[0] + self.err
                            + _two_atanh(2 * m - 1, coeffs, bits))
        self.err = 0

    def __call__(self, n: int) -> tuple[int, int, int]:
        spf, L = self._spf, self._L
        self.err = err = 3 * (n + 1)
        m, total = n + 1, -err
        p = spf[m]
        while p:  # m's prime factors, smallest first
            total += L[p]
            m //= p
            p = spf[m]
        return total + L[m], 1, self.bits


def _fixed_pass(spec: BirthDeathSpec, n_hi: int, M: int, bits: int,
                geom: Fraction | None, tol: tuple[int, int], keep=None):
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

    gamma(j) comes from the profile's evaluator as an int triple
    (p, q, g) meaning p / (q 2**g), and q_j = qn / (qd 2**g) with
    qn = p dd, qd = q dn for delta = dn/dd.  Every product with q_j is
    taken as floor((qn x >> g) / qd), which equals floor(qn x /
    (qd 2**g)) for any integer x, so the power of two of a logarithm
    stays a shift and each division is by a small qd.

    P_j = prod_{i=j}^{M} q_i is carried as a 64-bit mantissa and a
    binary exponent, rounded up at every step (the added unit also
    covers eta <= 2**-64); it is exactly zero once gamma has vanished.

    Each row is checked against tol as it is made (a row whose
    bound/value ratio is at most the largest one so far meets tol when
    that one does, so only a new largest ratio is compared), and rows
    and checks come back as from :func:`_exact_pass`: s_j, the bound e_j plus the
    tail bound P_j * geom (None without a tail bound) and the one
    denominator 2**F; a row is worth more terms only when its rounding
    bound e_j alone meets the tolerance.  ``keep`` is as there.
    """
    delta = spec.delta
    F = bits + _GUARD + max(0, math.ceil(math.log2(delta * M)))
    dn, dd = delta.numerator, delta.denominator
    unit = (1 << F) * dd  # floor(unit / (j dn)) = floor(2**F / (j delta))
    tn, td = tol
    rows = keep is None
    if rows:
        values = [0] * n_hi
        bounds = [None] * n_hi
        certified = [False] * n_hi
    else:
        values, bounds, certified = {}, None, None
    log = (None if spec.gamma.is_rational
           else _LogTable(M, F + 2 * M.bit_length() + _GUARD))
    gamma = spec.gamma.evaluator(_kernel_arithmetic(log))
    log_shift = None if log is None else log.bits - 2
    if geom is not None:
        gn, gd = geom.numerator, geom.denominator
        gd_bits = gd.bit_length()
    helpable = False
    worst_b, worst_v = -1, 1  # the largest bound / value so far
    worst_ok = False  # whether that ratio meets tol
    s = e = above = 0  # above: s_{j+1} + ... + s_{n_hi}
    pm, pe = 1 << 63, -63  # P_{M+1} = 1
    for j in range(M, 0, -1):
        p, q, g = gamma(j)
        qn, qd = p * dd, q * dn
        u = (qn * s >> g) // qd
        c = -((-qn * e >> g) // qd)
        s = unit // (j * dn) + u
        e = 2 + c
        if log is not None:
            e += ((log.err * (u + 1 + c)) >> log_shift) + 1
        if pm:
            pm = -((-pm * qn >> g) // qd)
            if pm:
                shift = pm.bit_length() - 64
                pm = (-(-pm >> shift) if shift > 0 else pm << -shift) + 1
                pe += shift
        if j <= n_hi:
            if not pm or geom is not None:
                if not pm:
                    tail = 0  # a vanished gamma truncates exactly
                else:
                    # ceil(P_j * geom * 2**F), 1 when below one unit
                    x, shift = pm * gn, pe + F
                    if x.bit_length() + shift < gd_bits:
                        tail = 1
                    elif shift >= 0:
                        tail = -(-(x << shift) // gd)
                    else:
                        tail = -(-x // (gd << -shift))
                b = e + tail
                if b * worst_v > worst_b * s:
                    worst_b, worst_v = b, s
                    worst_ok = b * td <= tn * s
                # b / s is at most the largest ratio so far, so the row
                # meets tol whenever that ratio does
                ok = worst_ok or b * td <= tn * s
            else:
                b, ok = None, False
            # more terms cannot help a row whose rounding alone is too big
            if not (ok or helpable) and e * td <= tn * s:
                helpable = True
            if rows:
                i = j - 1
                values[i], bounds[i], certified[i] = s, b, ok
            else:
                if j in keep:
                    values[j] = above
                above += s
    if not rows:
        values[0] = above
    return (values, bounds, 1 << F, certified, helpable,
            None if worst_b < 0 else worst_b / worst_v)


def _exact_pass(spec: BirthDeathSpec, n_hi: int, M: int,
                geom: Fraction | None, tol: tuple[int, int], keep=None):
    """The backward pass in exact integers over one denominator Q_1.

    With delta = dn/dd, q_j = gamma(j)/delta = qn/qd left unreduced
    (gamma(j) comes from the profile's evaluator as the int triple
    (p, q, 0), so qn = p dd and qd = q dn; a rational profile reads no
    logarithm, so its power of two g is 0),
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

    ``keep`` None keeps every row so.  A set of states keeps instead
    only a dict from each n in it, and from 0, to the sum of the rows
    above n, N_{n+1} + ... + N_{n_hi}, so the mean hitting time
    T_n = (sums[0] - sums[n]) / Q_1; bounds and certified are then
    None, and every row is still checked.
    """
    delta = spec.delta
    dn, dd = delta.numerator, delta.denominator
    gamma = spec.gamma.evaluator(_kernel_arithmetic(None))
    gn, gd = (1, 1) if geom is None else (geom.numerator, geom.denominator)
    # gamma is evaluated again in the pass rather than kept for M rows
    den = gd * math.prod(math.lcm(j * dn, gamma(j)[1] * dn)
                         for j in range(1, M + 1))
    unit = den * dd
    tn, td = tol
    rows = keep is None
    if rows:
        values = [0] * n_hi
        bounds = [None] * n_hi
        certified = [False] * n_hi
    else:
        values, bounds, certified = {}, None, None
    helpable = False
    rel = -1.0  # the largest bound / value so far
    s, r = 0, gn * (den // gd)
    above = 0  # N_{j+1} + ... + N_{n_hi}
    for j in range(M, 0, -1):
        p, q, _ = gamma(j)
        qn, qd = p * dd, q * dn
        s = unit // (j * dn) + qn * (s // qd)
        r = qn * (r // qd)
        if j <= n_hi:
            if not r or geom is not None:
                b, ok = r, r * td <= tn * s
                rel = max(rel, r / s)
            else:
                b, ok = None, False
            helpable = helpable or not ok
            if rows:
                i = j - 1
                values[i], bounds[i], certified[i] = s, b, ok
            else:
                if j in keep:
                    values[j] = above
                above += s
    if not rows:
        values[0] = above
    return (values, bounds, den, certified, helpable,
            None if rel < 0 else rel)


def _certified_pass(spec: BirthDeathSpec, n_max: int,
                    precision: PrecisionConfig, keep=None):
    """The pass over rows 1..n_max behind :func:`hitting_table` and
    :func:`asymptote_ratio`, from the planned truncation index, with M
    doubled while more terms could certify a row.

    Returns the last pass's (values, bounds, denominator, certified,
    helpable, rel), the rows ``keep`` asks for as in
    :func:`_exact_pass`, and the run report as a dict over RUN_REPORT.
    """
    if n_max < 1:
        raise ValueError("need at least state 1")
    rational = precision.mode == RATIONAL
    if rational and not spec.gamma.is_rational:
        raise ExactnessError(
            "the exact-rational kernel requires a rational-valued "
            "gamma profile; use the big-float kernel instead")
    if precision.max_terms < n_max:
        raise ValueError(
            f"max_terms {precision.max_terms} is below the largest "
            f"requested state {n_max}; the series needs at least that "
            f"many terms")
    planned = M = _plan_truncation(spec, n_max, precision)
    tol = precision.series_rel_tol.as_integer_ratio()
    passes = 0
    while True:
        r_ok, r = _ratio_bound(spec, M + 1)
        geom = 1 / ((1 - r) * spec.delta * (M + 1)) if r_ok else None
        if rational:
            rows = _exact_pass(spec, n_max, M, geom, tol, keep)
        else:
            rows = _fixed_pass(spec, n_max, M, precision.bits, geom, tol,
                               keep)
        *_, helpable, rel = rows
        if not helpable or M >= precision.max_terms:
            return rows, dict(zip(RUN_REPORT, (M, planned, passes, rel)))
        M = min(max(2 * M, M + 64), precision.max_terms)
        passes += 1


def hitting_table(spec: BirthDeathSpec, n_max: int,
                  precision: PrecisionConfig) -> HittingTable:
    """Certified table of S_n and E[T_n] for n = 1..n_max.

    A backward pass from one truncation index M shared by every row
    seeds S_{M+1} = 0 and iterates S_j = 1/(j*delta) +
    (gamma(j)/delta) * S_{j+1} down to j = 1, which reproduces every
    truncated tail series.  Alongside S the pass carries
    P_j = prod_{i=j}^{M} gamma(i)/delta, from which the neglected tail
    for row n is bounded by P_n / (delta * (M+1) * (1 - r)) with r a
    certified upper bound on gamma/delta beyond M.  A row is certified
    when that bound plus the rounding bound is at most
    ``series_rel_tol`` times the value; M doubles while some row fails
    for want of terms.  As the terms are positive, the accumulated sums
    E[T_n] inherit the per-row relative tolerance.

    Raises:
        InfiniteHittingTimeError: some requested row diverges.
        ExactnessError: rational mode with an irrational gamma.
        ValueError: ``max_terms`` below n_max.
    """
    (values, bounds, den, certified, _, _), report = _certified_pass(
        spec, n_max, precision)
    return HittingTable(n_max, precision, all(certified), tuple(certified),
                        numerators=values, bounds=bounds, denominator=den,
                        **report)


def asymptote_ratio(spec: BirthDeathSpec, n_list,
                    precision: PrecisionConfig) -> AsymptoteRatios:
    """Diagnostic ratios delta * E[T_n] / ln(n) for the given states.

    When gamma vanishes asymptotically the ratios approach one --
    although the approach is extremely slow, so no rate is implied.
    Each E[T_n] is the exact p/q of :func:`hitting_table` up to the
    largest state, with the same run report, but the pass keeps no
    rows: p = U_1 - U_{n+1} from the running suffix sums
    U_j = s_j + ... + s_{n_max} it keeps at j = n + 1 for each
    requested n, and q its one denominator.  The ratio is
    ``delta * (p / q) / math.log(n)`` in float64.
    """
    states = set(int(n) for n in n_list)
    if not states or min(states) < 2:
        raise ValueError("asymptote states must be integers >= 2")
    (sums, _, den, _, _, _), report = _certified_pass(
        spec, max(states), precision, keep=states)
    total, delta = sums[0], float(spec.delta)
    return AsymptoteRatios(
        [(n, delta * ((total - sums[n]) / den) / math.log(n))
         for n in sorted(states)], **report)


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
    ``Aggregate(c_max, beta, D_max, beta_int)`` and
    ``Aggregate(c_min, beta, D_min, beta_int)``, where c are the column
    sums of W and D the model's modulation.  A case at node v adds
    beta(n) * c_v + beta_int(n) * D_v to the total birth rate (c_v is
    the pressure v exerts), so the per-capita birth rate at total n lies
    between the two coefficients; when all c_v and all D_v are equal,
    the chains are equal and the total is that chain exactly.
    """
    col_sums = g.weights.sum(axis=0)
    d = model.d(g.node_count)
    return tuple(BirthDeathSpec(Aggregate(float(c), model.beta, float(k),
                                          model.beta_int), model.delta)
                 for c, k in ((col_sums.max(), d.max()),
                              (col_sums.min(), d.min())))

"""State-dependent per-person infectiousness functions.

A rate profile maps the total number of active cases n >= 1 to a
nonnegative per-person rate.  Every profile is bounded and has a limit
as n grows without bound; both facts are load-bearing for the threshold
classifiers and the birth-death solvers, so the constructors enforce
them.

Profiles evaluate in any :class:`Arithmetic`.  Three are defined here:

* ``FLOAT``  machine floats, for the stochastic simulator;
* ``EXACT``  ``Fraction``;
* ``MPF``    mpmath floats at the caller's working precision.

The certified kernel in ``chains`` brings its own (unreduced integer
ratios).

Each family states its values once, as an evaluator over an
:class:`Arithmetic` (how an exact parameter and ``log1p`` enter the
number type), and its tail suprema once.  Hot loops build an evaluator
once, through ``evaluator``, ``as_float_fn`` or ``sup_from*``; the
checked one-value views ``value``, ``value_exact`` and ``value_mpf``
build one per call and serve tests and verification oracles.

Parameters are parsed exactly from decimal (or p/q) strings, so the
exact views carry no representation error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Callable

import mpmath


class ProfileError(ValueError):
    """Invalid profile specification or evaluation request."""


class ExactnessError(TypeError):
    """Raised when an irrational-valued profile is used exactly."""


#: nonzero parameters lie in float64's range: from its smallest
#: subnormal to its largest finite value
_TINY, _HUGE = Fraction(2) ** -1074, Fraction(sys.float_info.max)


def parse_parameter(text: str) -> Fraction:
    """Parse a decimal or p/q string into an exact Fraction.

    Raises:
        ProfileError: unparsable or non-finite text, or a nonzero value
            outside float64's range (a decimal exponent is screened
            before any big integer is built).
    """
    text = text.strip()
    try:
        exact = Fraction(text) if "/" in text else Decimal(text)
    except (InvalidOperation, ValueError, ZeroDivisionError):
        raise ProfileError(f"cannot parse parameter {text!r}") from None
    if isinstance(exact, Decimal):
        if not exact.is_finite():
            raise ProfileError(f"parameter {text!r} is not finite")
        in_range = not exact or -324 <= exact.adjusted() <= 308
        exact = Fraction(exact) if in_range else None
    if exact is None or (exact and not _TINY <= abs(exact) <= _HUGE):
        raise ProfileError(f"parameter {text!r} is outside float64's range")
    return exact


def _mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def _check_n(n: int) -> int:
    n = int(n)
    if n < 1:
        raise ProfileError("profiles are defined for n >= 1 only")
    return n


@dataclass(frozen=True, eq=False)
class Arithmetic:
    """A number type that profiles evaluate in.

    ``num`` embeds an exact parameter (a Fraction) and ``log1p(n)`` is
    ln(1 + n) for an integer n; every other step is plain ``+ * /``.
    """

    name: str
    num: Callable[[Fraction], object]
    log1p: Callable[[int], object]


def _irrational(n):
    raise ExactnessError("log-over-n profiles have irrational values")


FLOAT = Arithmetic("float", float, math.log1p)
EXACT = Arithmetic("exact", Fraction, _irrational)
MPF = Arithmetic("mpf", _mpf, lambda n: mpmath.log(n + 1))


class RateProfile:
    """Common interface for the concrete profile families below.

    A family defines its values once, in :meth:`evaluator`, and its
    tail suprema once, in :meth:`_sup`; both take an
    :class:`Arithmetic`.  The views below derive from these two.
    """

    #: True when every value, the limit, and the supremum are rational.
    is_rational: bool = True

    def evaluator(self, ar: Arithmetic) -> Callable[[int], object]:
        """Unchecked n -> value(n) in ``ar`` (n a positive integer)."""
        raise NotImplementedError

    def _sup(self, n0: int, ar: Arithmetic):
        """Upper bound on the values over all n >= n0 (n0 >= 1), in ``ar``."""
        raise NotImplementedError

    def value(self, n: int) -> float:
        return self.evaluator(FLOAT)(_check_n(n))

    def value_exact(self, n: int) -> Fraction:
        return self.evaluator(EXACT)(_check_n(n))

    def value_mpf(self, n: int) -> mpmath.mpf:
        return self.evaluator(MPF)(_check_n(n))

    def as_float_fn(self) -> Callable[[int], float]:
        """Fast unchecked float evaluator for simulation hot loops."""
        return self.evaluator(FLOAT)

    def sup_from(self, n0: int) -> float:
        """Upper bound on value(n) over all n >= n0."""
        return self._sup(max(1, int(n0)), FLOAT)

    def sup_from_exact(self, n0: int) -> Fraction:
        return self._sup(max(1, int(n0)), EXACT)

    @property
    def limit(self) -> float:
        return float(self.limit_exact)

    @property
    def limit_exact(self) -> Fraction:
        raise NotImplementedError

    def first_zero_at_or_after(self, n0: int) -> int | None:
        """Smallest n >= n0 with value(n) == 0, or None."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.spec_string()


@dataclass(frozen=True)
class Constant(RateProfile):
    c: Fraction

    def __post_init__(self):
        if self.c < 0:
            raise ProfileError("constant rate must be nonnegative")

    def evaluator(self, ar):
        c = ar.num(self.c)
        return lambda n: c

    def _sup(self, n0, ar):
        return ar.num(self.c)

    @property
    def limit_exact(self):
        return self.c

    def first_zero_at_or_after(self, n0):
        return max(1, int(n0)) if self.c == 0 else None

    def spec_string(self):
        return f"const:{self.c}"


@dataclass(frozen=True)
class Step(RateProfile):
    """``high`` for n <= n_switch, ``low`` beyond; boundary on the high side."""

    high: Fraction
    low: Fraction
    n_switch: int

    def __post_init__(self):
        if self.high < 0 or self.low < 0:
            raise ProfileError("step levels must be nonnegative")
        if self.n_switch < 1:
            raise ProfileError("switch point must be a positive integer")

    def evaluator(self, ar):
        hi, lo, ns = ar.num(self.high), ar.num(self.low), self.n_switch
        return lambda n: hi if n <= ns else lo

    def _sup(self, n0, ar):
        if n0 <= self.n_switch:
            return ar.num(max(self.high, self.low))
        return ar.num(self.low)

    @property
    def limit_exact(self):
        return self.low

    def first_zero_at_or_after(self, n0):
        n0 = max(1, int(n0))
        if self.high == 0 and n0 <= self.n_switch:
            return n0
        if self.low == 0:
            return max(n0, self.n_switch + 1)
        return None

    def spec_string(self):
        return f"step:{self.high},{self.low},{self.n_switch}"


@dataclass(frozen=True)
class Harmonic(RateProfile):
    """k / n: per-person rate inversely proportional to epidemic size."""

    k: Fraction

    def __post_init__(self):
        if self.k < 0:
            raise ProfileError("harmonic coefficient must be nonnegative")

    def evaluator(self, ar):
        k = ar.num(self.k)
        return lambda n: k / n

    def _sup(self, n0, ar):
        return self.evaluator(ar)(n0)  # k/n decreases

    @property
    def limit_exact(self):
        return Fraction(0)

    def first_zero_at_or_after(self, n0):
        return max(1, int(n0)) if self.k == 0 else None

    def spec_string(self):
        return f"harmonic:{self.k}"


@dataclass(frozen=True)
class LogOverN(RateProfile):
    """k * ln(1 + n) / n, a slower-vanishing cousin of the harmonic family.

    Values are irrational, so this family only supports float and
    mpmath evaluation; the exact-rational kernel rejects it.
    """

    k: Fraction
    is_rational = False

    def __post_init__(self):
        if self.k < 0:
            raise ProfileError("coefficient must be nonnegative")

    def evaluator(self, ar):
        k, log1p = ar.num(self.k), ar.log1p
        return lambda n: k * log1p(n) / n

    def _sup(self, n0, ar):
        return self.evaluator(ar)(n0)  # ln(1+n)/n decreases on n >= 1

    @property
    def limit_exact(self):
        return Fraction(0)  # ln(1+n)/n -> 0

    def first_zero_at_or_after(self, n0):
        return max(1, int(n0)) if self.k == 0 else None

    def spec_string(self):
        return f"logn:{self.k}"


@dataclass(frozen=True)
class Table(RateProfile):
    """Explicit n -> value pairs with a declared constant tail.

    Any n not listed evaluates to the tail constant, which also serves
    as the limit; a table without a declared tail is rejected because
    the asymptotic limit would be undefined.
    """

    entries: tuple[tuple[int, Fraction], ...]
    tail: Fraction

    def __post_init__(self):
        if self.tail < 0:
            raise ProfileError("tail constant must be nonnegative")
        last = 0
        for n, v in self.entries:
            if n <= last:
                raise ProfileError("table rows must have strictly increasing n")
            if v < 0:
                raise ProfileError(f"negative table value at n={n}")
            last = n

    def evaluator(self, ar):
        table = {n: ar.num(v) for n, v in self.entries}
        tail = ar.num(self.tail)
        return lambda n: table.get(n, tail)

    def _sup(self, n0, ar):
        return ar.num(max([self.tail,
                           *(v for n, v in self.entries if n >= n0)]))

    @property
    def limit_exact(self):
        return self.tail

    def first_zero_at_or_after(self, n0):
        n0 = max(1, int(n0))
        zero_rows = sorted(n for n, v in self.entries if v == 0 and n >= n0)
        if self.tail == 0:
            # First unlisted n >= n0 evaluates to the zero tail.
            values = dict(self.entries)
            cand = n0
            while values.get(cand, 0) != 0:
                cand += 1
            if zero_rows:
                cand = min(cand, zero_rows[0])
            return cand
        return zero_rows[0] if zero_rows else None

    def spec_string(self):
        rows = ";".join(f"{n}={v}" for n, v in self.entries)
        return f"table:[{rows}],tail={self.tail}"


@dataclass(frozen=True)
class Scaled(RateProfile):
    """d * base(n) with an exact scalar coefficient."""

    coeff: Fraction
    base: RateProfile

    def __post_init__(self):
        if self.coeff < 0:
            raise ProfileError("scale coefficient must be nonnegative")
        object.__setattr__(self, "is_rational", self.base.is_rational)

    def evaluator(self, ar):
        d, f = ar.num(self.coeff), self.base.evaluator(ar)
        return lambda n: d * f(n)

    def _sup(self, n0, ar):
        return ar.num(self.coeff) * self.base._sup(n0, ar)

    @property
    def limit_exact(self):
        return self.coeff * self.base.limit_exact

    def first_zero_at_or_after(self, n0):
        if self.coeff == 0:
            return max(1, int(n0))
        return self.base.first_zero_at_or_after(n0)

    def spec_string(self):
        return f"{self.coeff}*({self.base.spec_string()})"


@dataclass(frozen=True)
class Combined(RateProfile):
    """Sum of two profiles; the supremum bound is additive (conservative)."""

    first: RateProfile
    second: RateProfile

    def __post_init__(self):
        object.__setattr__(
            self, "is_rational",
            self.first.is_rational and self.second.is_rational)

    def evaluator(self, ar):
        f, g = self.first.evaluator(ar), self.second.evaluator(ar)
        return lambda n: f(n) + g(n)

    def _sup(self, n0, ar):
        return self.first._sup(n0, ar) + self.second._sup(n0, ar)

    @property
    def limit_exact(self):
        return self.first.limit_exact + self.second.limit_exact

    def first_zero_at_or_after(self, n0):
        # The sum vanishes only where both parts do.
        n = max(1, int(n0))
        while True:
            a = self.first.first_zero_at_or_after(n)
            if a is None:
                return None
            b = self.second.first_zero_at_or_after(a)
            if b is None:
                return None
            if b == a:
                return a
            n = b

    def spec_string(self):
        return f"({self.first.spec_string()})+({self.second.spec_string()})"


def parse_table_file(path, declared_tail: Fraction | None = None) -> Table:
    """Read a table profile from lines ``n value`` plus a ``tail=c`` footer.

    A tail declared in the profile spec string overrides the footer.
    """
    entries: list[tuple[int, Fraction]] = []
    tail = declared_tail
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("tail="):
                footer = parse_parameter(line[len("tail="):])
                if declared_tail is None:
                    tail = footer
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ProfileError(
                    f"{path}:{lineno}: expected 'n value', got {raw!r}")
            try:
                n = int(fields[0])
            except ValueError:
                raise ProfileError(
                    f"{path}:{lineno}: n must be an integer") from None
            entries.append((n, parse_parameter(fields[1])))
    if tail is None:
        raise ProfileError(
            f"table {path} declares no tail constant; the asymptotic limit "
            "would be undefined")
    return Table(tuple(entries), tail)


def parse_profile(text: str, base_dir=None) -> RateProfile:
    """Parse a profile spec string.

    Grammar::

        const:c | step:high,low,n_switch | harmonic:k | logn:k
        | table:path[,tail=c]

    Numeric parameters are decimal or p/q strings, parsed exactly.
    Table paths resolve against ``base_dir`` when given.
    """
    text = text.strip()
    family, sep, rest = text.partition(":")
    if not sep:
        raise ProfileError(f"profile spec {text!r} is missing ':'")
    if family == "const":
        return Constant(parse_parameter(rest))
    if family == "step":
        parts = rest.split(",")
        if len(parts) != 3:
            raise ProfileError("step takes exactly high,low,n_switch")
        try:
            n_switch = int(parts[2])
        except ValueError:
            raise ProfileError("step switch point must be an integer") from None
        return Step(parse_parameter(parts[0]), parse_parameter(parts[1]),
                    n_switch)
    if family == "harmonic":
        return Harmonic(parse_parameter(rest))
    if family == "logn":
        return LogOverN(parse_parameter(rest))
    if family == "table":
        path_part, _, tail_part = rest.partition(",")
        declared = None
        if tail_part:
            if not tail_part.startswith("tail="):
                raise ProfileError(
                    f"unexpected table option {tail_part!r}; use tail=c")
            declared = parse_parameter(tail_part[len("tail="):])
        path = Path(path_part)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        return parse_table_file(path, declared)
    raise ProfileError(f"unknown profile family {family!r}")


def coerce_coefficient(d) -> Fraction:
    """Embed a coefficient exactly: Fractions, ints, decimal strings, and
    floats (which are dyadic rationals) all convert without error."""
    if isinstance(d, Fraction):
        return d
    if isinstance(d, int):
        return Fraction(d)
    if isinstance(d, str):
        return parse_parameter(d)
    if isinstance(d, float):
        return Fraction(d)
    raise ProfileError(f"cannot coerce coefficient of type {type(d).__name__}")


def gamma_from_graph(beta: RateProfile, beta_int: RateProfile,
                     d) -> RateProfile:
    """Aggregate rate coefficient d * beta(n) + beta_int(n).

    With d the largest (smallest) column sum of W and an unmodulated
    graph this is the birth coefficient of the one-dimensional chain
    that bounds the network epidemic's total from above (below); see
    ``chains.bound_chains_from_graph`` for the modulated case.
    """
    d = coerce_coefficient(d)
    if d < 0:
        raise ProfileError("degree coefficient must be nonnegative")
    if isinstance(beta, Constant) and isinstance(beta_int, Constant):
        return Constant(d * beta.c + beta_int.c)
    return Combined(Scaled(d, beta), beta_int)

"""State-dependent per-person infectiousness functions.

A rate profile maps the total number of active cases n >= 1 to a
nonnegative per-person rate.  Every profile is bounded and has a limit
as n grows without bound; both facts are load-bearing for the threshold
classifiers and the birth-death solvers, so the constructors enforce
them.

Profiles evaluate in any :class:`Arithmetic`.  Two are defined here:

* ``FLOAT``  machine floats, for the stochastic simulator;
* ``EXACT``  ``Fraction``.

The certified kernel in ``chains`` brings its own (plain integer
triples (p, q, g) meaning p / (q 2**g), added, multiplied and divided
by small tuple functions), and the test oracles bring mpmath floats.

Each family states its values once, as an evaluator over an
:class:`Arithmetic` (how an exact parameter and ``log1p`` enter the
number type, and how two numbers add and multiply and one divides by
n), and its tail suprema once.  These are the only two entry points:
``evaluator(ar)`` returns an unchecked n -> value function, built once
per loop, and ``sup(n0, ar)`` an upper bound on the values over
n >= n0.

The one composite profile, :class:`Aggregate`, is c * beta(n) +
d * beta_int(n): the birth rate of the chains that bracket the network
epidemic's total.

Parameters are parsed exactly from decimal (or p/q) strings, so the
exact arithmetic carries no representation error.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Callable


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


@dataclass(frozen=True, eq=False)
class Arithmetic:
    """A number type that profiles evaluate in.

    ``num`` embeds an exact parameter (a Fraction) and ``log1p(n)`` is
    ln(1 + n) for an integer n.  ``add(x, y)``, ``mul(x, y)`` and
    ``div(x, n)`` (n a positive integer) are every other step; they
    default to the operators, so a number type that has ``+ * /``
    needs none of them.
    """

    num: Callable[[Fraction], object]
    log1p: Callable[[int], object]
    add: Callable[[object, object], object] = operator.add
    mul: Callable[[object, object], object] = operator.mul
    div: Callable[[object, int], object] = operator.truediv


def _irrational(n):
    raise ExactnessError("log-over-n profiles have irrational values")


FLOAT = Arithmetic(float, math.log1p)
EXACT = Arithmetic(Fraction, _irrational)


class RateProfile:
    """Common interface for the concrete profile families below.

    A family defines its values once, in :meth:`evaluator`, and its
    tail suprema once, in :meth:`sup`; both take an
    :class:`Arithmetic`.
    """

    #: True when every value, the limit, and the supremum are rational.
    is_rational: bool = True

    def evaluator(self, ar: Arithmetic) -> Callable[[int], object]:
        """Unchecked n -> value(n) in ``ar`` (n a positive integer)."""
        raise NotImplementedError

    def sup(self, n0: int, ar: Arithmetic):
        """Upper bound on the values over all n >= n0 (n0 >= 1), in ``ar``."""
        raise NotImplementedError

    @property
    def limit(self) -> float:
        return float(self.limit_exact)

    @property
    def limit_exact(self) -> Fraction:
        raise NotImplementedError

    def first_zero_at_or_after(self, n0: int) -> int | None:
        """Smallest n >= n0 with value(n) == 0, or None."""
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(RateProfile):
    c: Fraction

    def __post_init__(self):
        if self.c < 0:
            raise ProfileError("constant rate must be nonnegative")

    def evaluator(self, ar):
        c = ar.num(self.c)
        return lambda n: c

    def sup(self, n0, ar):
        return ar.num(self.c)

    @property
    def limit_exact(self):
        return self.c

    def first_zero_at_or_after(self, n0):
        return max(1, int(n0)) if self.c == 0 else None


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

    def sup(self, n0, ar):
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


@dataclass(frozen=True)
class Harmonic(RateProfile):
    """k / n: per-person rate inversely proportional to epidemic size."""

    k: Fraction

    def __post_init__(self):
        if self.k < 0:
            raise ProfileError("harmonic coefficient must be nonnegative")

    def evaluator(self, ar):
        k, div = ar.num(self.k), ar.div
        return lambda n: div(k, n)

    def sup(self, n0, ar):
        return self.evaluator(ar)(n0)  # k/n decreases

    @property
    def limit_exact(self):
        return Fraction(0)

    def first_zero_at_or_after(self, n0):
        return max(1, int(n0)) if self.k == 0 else None


@dataclass(frozen=True)
class LogOverN(RateProfile):
    """k * ln(1 + n) / n, a slower-vanishing cousin of the harmonic family.

    Values are irrational, so ``EXACT`` and the exact-rational kernel
    reject this family.
    """

    k: Fraction
    is_rational = False

    def __post_init__(self):
        if self.k < 0:
            raise ProfileError("coefficient must be nonnegative")

    def evaluator(self, ar):
        k, log1p, mul, div = ar.num(self.k), ar.log1p, ar.mul, ar.div
        return lambda n: div(mul(k, log1p(n)), n)

    def sup(self, n0, ar):
        return self.evaluator(ar)(n0)  # ln(1+n)/n decreases on n >= 1

    @property
    def limit_exact(self):
        return Fraction(0)  # ln(1+n)/n -> 0

    def first_zero_at_or_after(self, n0):
        return max(1, int(n0)) if self.k == 0 else None


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
            _check_table_row(last, n, v)
            last = n

    def evaluator(self, ar):
        table = {n: ar.num(v) for n, v in self.entries}
        tail = ar.num(self.tail)
        return lambda n: table.get(n, tail)

    def sup(self, n0, ar):
        return ar.num(max([self.tail,
                           *(v for n, v in self.entries if n >= n0)]))

    @property
    def limit_exact(self):
        return self.tail

    def first_zero_at_or_after(self, n0):
        n = max(1, int(n0))
        if self.tail == 0:
            # a scan ends at the first listed zero or unlisted n
            values = dict(self.entries)
            while values.get(n, 0) != 0:
                n += 1
            return n
        # rows are in increasing n
        return next((m for m, v in self.entries if v == 0 and m >= n), None)


@dataclass(frozen=True)
class Aggregate(RateProfile):
    """c * beta(n) + d * beta_int(n) with exact coefficients c, d >= 0.

    The birth rate of a chain that brackets the network epidemic's
    total (``chains.bound_chains_from_graph``).  The supremum bound is
    additive (conservative).
    """

    c: Fraction
    beta: RateProfile
    d: Fraction
    beta_int: RateProfile

    def __post_init__(self):
        for name in ("c", "d"):
            k = coerce_coefficient(getattr(self, name))
            if k < 0:
                raise ProfileError(f"coefficient {name} must be nonnegative")
            object.__setattr__(self, name, k)

    @property
    def is_rational(self):
        return self.beta.is_rational and self.beta_int.is_rational

    def evaluator(self, ar):
        c, f = ar.num(self.c), self.beta.evaluator(ar)
        d, g = ar.num(self.d), self.beta_int.evaluator(ar)
        add, mul = ar.add, ar.mul
        return lambda n: add(mul(c, f(n)), mul(d, g(n)))

    def sup(self, n0, ar):
        return ar.add(ar.mul(ar.num(self.c), self.beta.sup(n0, ar)),
                      ar.mul(ar.num(self.d), self.beta_int.sup(n0, ar)))

    @property
    def limit_exact(self):
        return (self.c * self.beta.limit_exact
                + self.d * self.beta_int.limit_exact)

    def first_zero_at_or_after(self, n0):
        # zero only where each part with a nonzero coefficient is zero
        parts = [p for k, p in ((self.c, self.beta), (self.d, self.beta_int))
                 if k]
        n = max(1, int(n0))
        while True:
            zeros = [p.first_zero_at_or_after(n) for p in parts]
            if None in zeros:
                return None
            if all(z == n for z in zeros):
                return n
            n = max(zeros)


def _check_table_row(last: int, n: int, value: Fraction) -> None:
    """Reject a row (n, value) that does not follow a row at ``last``
    (0 before the first row) or holds a negative value."""
    if n <= last:
        raise ProfileError(
            f"table rows must have strictly increasing n, got {n} after "
            f"{last}")
    if value < 0:
        raise ProfileError(f"negative table value at n={n}")


def parse_table_file(path, declared_tail: Fraction | None = None) -> Table:
    """Read a table profile from lines ``n value`` plus a ``tail=c`` footer.

    The footer is the last line with content, and its constant must be
    nonnegative.  A tail declared in the profile spec string overrides
    the footer.  Every error in a line, a byte that is not UTF-8
    included, names ``path:line``; a file that cannot be read (missing,
    a directory) raises the OSError itself.
    """
    from .graphs import file_lines, read_text  # graphs imports this module

    def fault(lineno, reason):
        return ProfileError(f"{path}:{lineno}: {reason}")

    text = read_text(path, fault)
    entries: list[tuple[int, Fraction]] = []
    tail = declared_tail
    footer_at = None
    for lineno, raw in enumerate(file_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if footer_at is not None:
                raise ProfileError(
                    f"content after the tail= footer on line {footer_at}")
            if line.startswith("tail="):
                footer = parse_parameter(line[len("tail="):])
                if footer < 0:
                    raise ProfileError("tail constant must be nonnegative")
                footer_at = lineno
                if declared_tail is None:
                    tail = footer
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ProfileError(f"expected 'n value', got {raw!r}")
            try:
                n = int(fields[0])
            except ValueError:
                raise ProfileError("n must be an integer") from None
            value = parse_parameter(fields[1])
            _check_table_row(entries[-1][0] if entries else 0, n, value)
        except ProfileError as exc:
            raise fault(lineno, exc) from None
        entries.append((n, value))
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
        if not path_part:
            raise ProfileError(f"profile spec {text!r} names no table file")
        declared = None
        if tail_part:
            if not tail_part.startswith("tail="):
                raise ProfileError(
                    f"unexpected table option {tail_part!r}; use tail=c")
            declared = parse_parameter(tail_part[len("tail="):])
            if declared < 0:
                raise ProfileError(f"profile spec {text!r}: tail constant "
                                   "must be nonnegative")
        path = Path(path_part)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        return parse_table_file(path, declared)
    raise ProfileError(f"unknown profile family {family!r}")


def coerce_coefficient(d) -> Fraction:
    """Embed a coefficient exactly: Fractions, ints, decimal strings, and
    finite floats (which are dyadic rationals) all convert without
    error; a non-finite float raises ProfileError."""
    if isinstance(d, Fraction):
        return d
    if isinstance(d, int):
        return Fraction(d)
    if isinstance(d, str):
        return parse_parameter(d)
    if isinstance(d, float):
        if not math.isfinite(d):
            raise ProfileError(f"coefficient {d!r} is not finite")
        return Fraction(d)
    raise ProfileError(f"cannot coerce coefficient of type {type(d).__name__}")


"""Reference implementations the library is checked against.

``node_rates`` recomputes every rate from scratch and ``step`` draws an
event from a flat cumulative sum over all nodes: the plain O(N) path
that the simulator's incremental caches and blocked event selection
must reproduce.  ``s_recursion_step`` (the forward hitting-time
recursion) and ``stationary_distribution`` (the renewal route to
E[T_1]) are independent routes to the certified kernel's values.
"""

from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from dieout.chains import (BirthDeathSpec, InfiniteHittingTimeError,
                           PrecisionConfig, _arithmetic,
                           positive_recurrence_check)
from dieout.graphs import EpidemicModel, LocalityGraph
from dieout.rates import coerce_coefficient


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
    birth = (model.beta.value(n) * pressure
             + model.beta_int.value(n) * (model.d(g.node_count) * counts))
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
        gamma_n = spec.gamma.value_exact(n)
        if gamma_n == 0:
            raise ZeroDivisionError(
                f"gamma({n}) = 0: recursion undefined, use s_tail_series")
        return (s_n * spec.delta - Fraction(1, n)) / gamma_n
    bits = precision.bits if precision is not None else mpmath.mp.prec
    with mpmath.mp.workprec(bits):
        gamma_n = spec.gamma.value_mpf(n)
        if gamma_n == 0:
            raise ZeroDivisionError(
                f"gamma({n}) = 0: recursion undefined, use s_tail_series")
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
    ar, gamma = _arithmetic(spec, precision)
    with mpmath.mp.workprec(precision.bits):
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

"""Reference implementations the simulator is checked against.

``node_rates`` recomputes every rate from scratch and ``step`` draws an
event from a flat cumulative sum over all nodes: the plain O(N) path
that the simulator's incremental caches and blocked event selection
must reproduce.
"""

from dataclasses import dataclass

import numpy as np

from dieout.graphs import DiagonalModulation, LocalityGraph
from dieout.rates import RateProfile


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


def node_rates(state: EpidemicState, g: LocalityGraph,
               modulation: DiagonalModulation | None, beta: RateProfile,
               beta_int: RateProfile, delta: float):
    """Instantaneous birth/death rates from scratch (reference path).

    Returns (birth_rates, death_rates, total_rate).  The simulator's
    incremental caches must agree with this to rounding error.
    """
    counts = np.asarray(state.counts, dtype=float)
    n = state.total
    if n == 0:
        zeros = np.zeros(g.node_count)
        return zeros, zeros.copy(), 0.0
    d = (modulation.values if modulation is not None
         else np.ones(g.node_count))
    pressure = np.asarray(g.weights @ counts).ravel()
    birth = beta.value(n) * pressure + beta_int.value(n) * (d * counts)
    death = delta * counts
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

"""Exact event-by-event simulation of the locality epidemic.

The epidemic is a continuous-time Markov chain over per-node infection
counts: node u gains an infection at rate
``[ (beta(n) W + beta_int(n) diag(D)) X ]_u`` and loses one at rate
``delta * X_u``, where n is the system-wide total.  Events are drawn
one at a time with exponential waiting times (no leaping, no
approximation); the all-zero state is absorbing.

Because both infectiousness functions depend on the total n, every
birth rate rescales at every event.  The simulator therefore caches the
pressure vector W @ X and the modulation products D * X, updating only
the column touched by an event, and applies the profile values as
scalar factors: an event first picks one of the totals b(n) sum(W X),
bi(n) sum(D X) and delta n, then a node inside that unscaled vector.

Runs are reproducible: the generator for run ``i`` is derived from
``SeedSequence((master_seed, i))``, so any subset of runs can be
recomputed independently and in any order (including across worker
processes).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .graphs import EpidemicModel, LocalityGraph
from .rates import Constant

# Cached pressure vectors are refreshed from scratch at this cadence to
# stop float drift from accumulating over long runs.
_REFRESH_EVERY = 8192


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one stochastic run ensemble of ``model``.

    ``initial`` pins the initial counts exactly; when None, all ``n0``
    cases are placed on one node chosen uniformly at random per run.
    """

    model: EpidemicModel
    t_max: float
    n0: int
    master_seed: int
    initial: np.ndarray | None = None
    record_events: bool = False

    def __post_init__(self):
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if self.n0 < 1:
            raise ValueError("n0 must be at least 1")
        if self.initial is not None:
            arr = np.asarray(self.initial, dtype=np.int64).copy()
            if (arr < 0).any():
                raise ValueError("initial counts must be nonnegative")
            if int(arr.sum()) != self.n0:
                raise ValueError("initial counts must sum to n0")
            arr.setflags(write=False)
            object.__setattr__(self, "initial", arr)


@dataclass
class Trajectory:
    """One realized run.

    ``grid_totals`` samples the right-continuous total on the output
    grid; ``events`` holds (time, node, +-1) tuples when event
    recording was requested.  Exactly one of ``extinct_at`` /
    ``truncated_at`` is set.
    """

    run_index: int
    initial: np.ndarray
    extinct_at: float | None
    truncated_at: float | None
    grid: np.ndarray | None = None
    grid_totals: np.ndarray | None = None
    events: list[tuple[float, int, int]] | None = None
    final_counts: np.ndarray | None = None


@dataclass
class EnsembleSummary:
    """Cross-run statistics on a fixed time grid.

    The envelope discards the top and bottom 2.5% of runs at each grid
    point (``floor(0.025 * runs)`` from each side) before taking the
    extremes; the mean is over all runs.  Extinct runs keep
    contributing zeros, so the envelope can show die-outs inside a
    growing ensemble.
    """

    time_grid: np.ndarray
    mean_total: np.ndarray
    lower95: np.ndarray
    upper95: np.ndarray
    survival_fraction: np.ndarray
    extinction_times: np.ndarray
    run_count: int
    master_seed: int
    per_run_totals: np.ndarray | None = None
    run_extinctions: list[tuple[int, float]] | None = None
    run_events: list[list[tuple[float, int, int]]] | None = None


@dataclass(frozen=True)
class SurvivalEstimate:
    probability: float
    stderr: float
    runs: int
    horizon: float


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one run."""
    return np.random.default_rng(
        np.random.SeedSequence((int(master_seed), int(run_index))))


def trimmed_interval(values, trim_fraction: float = 0.025
                     ) -> tuple[float, float]:
    """Extremes after discarding ``floor(trim_fraction * len)`` entries
    from each side; the same rule the ensemble envelopes use, applied
    e.g. to extinction times."""
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("no values to summarize")
    k = int(math.floor(trim_fraction * arr.size))
    return float(arr[k]), float(arr[arr.size - 1 - k])


def _initial_counts(cfg: SimConfig, n_nodes: int,
                    rng: np.random.Generator) -> np.ndarray:
    if cfg.initial is not None:
        if cfg.initial.size != n_nodes:
            raise ValueError("initial vector length does not match graph")
        return np.asarray(cfg.initial, dtype=np.int64).copy()
    counts = np.zeros(n_nodes, dtype=np.int64)
    counts[int(rng.integers(n_nodes))] = cfg.n0
    return counts


@dataclass(frozen=True, eq=False)
class _EventTables:
    """Per-graph arrays every event reads, built once per ensemble.

    ``columns``: W's columns (rows of W^T when dense, CSC slices on CSR).
    On CSR graphs each rate vector is split into blocks of ``width`` ~
    sqrt(N) entries, so a draw scans O(sqrt(N)) values; ``block_columns``
    is W with its rows summed per block (CSC), so an event updates the
    block sums of W @ X from one column.  Dense graphs keep no blocks.
    """

    weights: np.ndarray | sp.csr_matrix
    col_sums: np.ndarray
    width: int
    columns: np.ndarray | tuple
    block_columns: tuple | None

    def block_sums(self, values: np.ndarray) -> np.ndarray | None:
        """Per-block sums of ``values``; None on dense graphs."""
        if self.block_columns is None:
            return None
        return np.add.reduceat(values, np.arange(0, values.size, self.width))

    @classmethod
    def of(cls, g: LocalityGraph) -> "_EventTables":
        w, n = g.weights, g.node_count
        col_sums = np.asarray(w.sum(axis=0)).ravel()
        if g.is_dense:
            return cls(w, col_sums, n, np.ascontiguousarray(w.T), None)
        width = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
        rows = np.arange(n)
        blocks = sp.csr_matrix((np.ones(n), (rows // width, rows)),
                               shape=(-(-n // width), n))
        csc, agg = w.tocsc(), (blocks @ w).tocsc()
        return cls(w, col_sums, width, (csc.indptr, csc.indices, csc.data),
                   (agg.indptr, agg.indices, agg.data))


def _locate(values: np.ndarray, target: float, cum=None) -> int:
    """Index where ``cum`` (default: the running sum of ``values``)
    passes ``target`` if that entry is positive, else the nearest
    positive index below it, else the first one above; -1 if none."""
    cum = values.cumsum() if cum is None else cum
    i = int(cum.searchsorted(target, side="right"))
    if i < values.size and values[i] > 0:
        return i
    positive = np.flatnonzero(values > 0)
    if positive.size == 0:
        return -1
    return int(positive[max(int(np.searchsorted(positive, i)) - 1, 0)])


def _pick(values: np.ndarray, block_sums: np.ndarray | None, width: int,
          target: float) -> int:
    """Index where the running sum of ``values`` passes ``target``,
    found through the sums of its ``width``-entry blocks (a flat scan
    when ``block_sums`` is None); -1 when no entry is positive.

    Rounding drift can land a target on a nonpositive block or entry,
    or past the end: the pick then moves to the nearest positive one.
    A block with no positive entry holds only residue; its sum is reset
    from the entries and the block pick repeated.
    """
    if block_sums is None:
        return _locate(values, target)
    while True:
        cum = block_sums.cumsum()
        k = _locate(block_sums, target, cum)
        if k < 0:
            return -1
        block = values[k * width:(k + 1) * width]
        j = _locate(block, target - float(cum[k] - block_sums[k]))
        if j >= 0:
            return k * width + j
        block_sums[k] = block.sum()


def simulate_run(cfg: SimConfig, g: LocalityGraph, run_index: int,
                 grid: np.ndarray | None = None) -> Trajectory:
    """Simulate one run until extinction or t_max.

    Args:
        cfg: run configuration; the per-run stream comes from
            (cfg.master_seed, run_index).
        g: locality graph.
        run_index: run number within the ensemble.
        grid: optional increasing sample times; totals are recorded as
            a right-continuous step function.

    Returns:
        Trajectory with extinct_at set iff the run hit the all-zero
        state by t_max, else truncated_at = t_max.
    """
    return _simulate(cfg, _EventTables.of(g), run_index, grid)


def _simulate(cfg: SimConfig, tables: _EventTables, run_index: int,
              grid: np.ndarray | None) -> Trajectory:
    rng = run_rng(cfg.master_seed, run_index)
    weights, width = tables.weights, tables.width
    n_nodes = tables.col_sums.size
    initial = _initial_counts(cfg, n_nodes, rng)

    model = cfg.model
    d = model.d(n_nodes)
    beta_f = model.beta.as_float_fn()
    betaint_f = model.beta_int.as_float_fn()
    delta = float(model.delta)
    # per-node scalars as Python floats: cheaper to index and combine
    col_sums, d_of = tables.col_sums.tolist(), d.tolist()

    fcounts = initial.astype(float)
    n = int(initial.sum())

    record = cfg.record_events
    events: list[tuple[float, int, int]] | None = [] if record else None
    if grid is not None:
        grid = np.asarray(grid, dtype=float)
        totals = np.zeros(grid.size, dtype=np.int64)
    else:
        totals = None
    gi = 0  # next grid index to fill

    t = 0.0
    t_max = float(cfg.t_max)
    extinct_at: float | None = None
    since_refresh = _REFRESH_EVERY  # the caches are built on entry

    while True:
        if n == 0:
            extinct_at = t
            break
        if since_refresh >= _REFRESH_EVERY:
            since_refresh = 0
            pressure = np.asarray(weights @ fcounts).ravel()  # W @ X
            pressure_sum = float(pressure.sum())
            mod_counts = d * fcounts                          # D * X
            mod_sum = float(mod_counts.sum())
            pressure_blocks, mod_blocks, count_blocks = map(
                tables.block_sums, (pressure, mod_counts, fcounts))
        b = beta_f(n)
        bi = betaint_f(n)
        pressure_rate = b * pressure_sum
        birth_total = pressure_rate + bi * mod_sum
        total_rate = birth_total + delta * n

        t_next = t + rng.exponential(1.0 / total_rate)
        if grid is not None:
            while gi < grid.size and grid[gi] < t_next:
                totals[gi] = n
                gi += 1
        if t_next > t_max:
            t = t_max
            break
        t = t_next

        u = rng.random() * total_rate
        delta_count = 1 if u < birth_total else -1
        if u < pressure_rate:
            node = _pick(pressure, pressure_blocks, width, u / b)
        elif u < birth_total:
            node = _pick(mod_counts, mod_blocks, width,
                         (u - pressure_rate) / bi)
        else:
            node = _pick(fcounts, count_blocks, width,
                         (u - birth_total) / delta)
        if node < 0:
            # the chosen total was rounding residue of a vector with no
            # positive entry: a null event, exact by thinning
            continue

        fcounts[node] += delta_count
        n += delta_count
        update = np.add if delta_count > 0 else np.subtract
        if count_blocks is None:
            update(pressure, tables.columns[node], out=pressure)
        else:
            for cache, (indptr, indices, data) in (
                    (pressure, tables.columns),
                    (pressure_blocks, tables.block_columns)):
                lo, hi = indptr[node], indptr[node + 1]
                rows = indices[lo:hi]
                cache[rows] = update(cache[rows], data[lo:hi])
            mod_blocks[node // width] += delta_count * d_of[node]
            count_blocks[node // width] += delta_count
        pressure_sum += delta_count * col_sums[node]
        mod_counts[node] = d_of[node] * fcounts[node]
        mod_sum += delta_count * d_of[node]
        if record:
            events.append((t, node, delta_count))
        since_refresh += 1

    if grid is not None:
        # remaining grid points see the final (absorbed or frozen) total
        totals[gi:] = n

    return Trajectory(
        run_index=run_index,
        initial=initial,
        extinct_at=extinct_at,
        truncated_at=None if extinct_at is not None else t_max,
        grid=grid,
        grid_totals=totals,
        events=events,
        final_counts=fcounts.astype(np.int64),
    )


def _run_for_ensemble(args):
    traj = _simulate(*args)
    return traj.run_index, traj.grid_totals, traj.extinct_at, traj.events


def _map_runs(cfg: SimConfig, g: LocalityGraph, runs: int,
              grid: np.ndarray | None, threads: int):
    """(run_index, grid_totals, extinct_at, events) of runs 0..runs-1 in
    run order; inline for ``threads == 1``, else from a process pool
    (``threads == 0`` picks the machine default)."""
    tables = _EventTables.of(g)
    jobs = ((cfg, tables, i, grid) for i in range(runs))
    if threads == 1:
        yield from map(_run_for_ensemble, jobs)
        return
    workers = threads if threads > 0 else None
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_run_for_ensemble, jobs, chunksize=16)


def run_ensemble(cfg: SimConfig, g: LocalityGraph, runs: int,
                 grid: np.ndarray, threads: int = 1,
                 keep_per_run: bool = False) -> EnsembleSummary:
    """Simulate an ensemble and aggregate trimmed envelopes on a grid.

    Args:
        cfg: shared run configuration.
        g: locality graph.
        runs: ensemble size; at least 40 so the 2.5% trimming removes
            at least one run per side.
        grid: increasing sample times.
        threads: worker processes; 0 picks the machine default, 1 runs
            inline.  Results are independent of the worker count.
        keep_per_run: attach the per-run grid totals and per-run
            extinction times (needed for trajectory export).
    """
    if runs < 40:
        raise ValueError("need at least 40 runs for 2.5% trimming")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be a nonempty increasing 1-D array")

    totals = np.zeros((runs, grid.size), dtype=np.int64)
    extinctions: list[tuple[int, float]] = []
    events: list | None = [None] * runs if cfg.record_events else None
    for run_index, row, extinct_at, run_ev in _map_runs(cfg, g, runs, grid,
                                                        threads):
        totals[run_index] = row
        if extinct_at is not None:
            extinctions.append((run_index, extinct_at))
        if events is not None:
            events[run_index] = run_ev

    trim = int(math.floor(0.025 * runs))
    sorted_totals = np.sort(totals, axis=0)
    lower = sorted_totals[trim, :].astype(float)
    upper = sorted_totals[runs - 1 - trim, :].astype(float)
    mean = totals.mean(axis=0)
    survival = (totals > 0).mean(axis=0)

    return EnsembleSummary(
        time_grid=grid,
        mean_total=mean,
        lower95=lower,
        upper95=upper,
        survival_fraction=survival,
        extinction_times=np.array(sorted(t for _, t in extinctions)),
        run_count=runs,
        master_seed=cfg.master_seed,
        per_run_totals=totals if keep_per_run else None,
        run_extinctions=extinctions if keep_per_run else None,
        run_events=events,
    )


def estimate_survival_probability(cfg: SimConfig, g: LocalityGraph,
                                  runs: int, horizon: float,
                                  threads: int = 1) -> SurvivalEstimate:
    """Fraction of runs with active cases at the horizon, with its
    binomial standard error."""
    if not 0 < horizon <= cfg.t_max:
        raise ValueError("horizon must lie in (0, t_max]")
    clipped = replace(cfg, t_max=horizon, record_events=False)
    alive = sum(extinct_at is None for _, _, extinct_at, _ in
                _map_runs(clipped, g, runs, None, threads))
    p = alive / runs
    return SurvivalEstimate(probability=p,
                            stderr=math.sqrt(p * (1.0 - p) / runs),
                            runs=runs, horizon=horizon)


def mean_field_trajectory(g: LocalityGraph, model: EpidemicModel, x0,
                          grid) -> np.ndarray:
    """Expected trajectory of the linear ODE for constant profiles.

    Integrates d E[X]/dt = (beta W + beta_int D - delta I) E[X] on the
    grid via the matrix exponential (one propagator per distinct step,
    reused across a uniform grid).  With D = I, projected on the Perron
    eigenvector q of a symmetric W, the solution is the scalar
    exponential exp(t (beta lambda_r + beta_int - delta)) * q.X(0).

    Args:
        model: the epidemic; beta and beta_int must be Constant.
        x0: initial expected counts per node.
        grid: increasing times (first entry may be 0).

    Returns:
        Array of shape (len(grid), node_count).
    """
    if not (isinstance(model.beta, Constant)
            and isinstance(model.beta_int, Constant)):
        raise ValueError("mean-field integration requires constant profiles")
    grid = np.asarray(grid, dtype=float)
    x = np.asarray(x0, dtype=float)
    if x.shape != (g.node_count,):
        raise ValueError("x0 length does not match the graph")

    # constant profiles equal their limits at every n
    gen = model.asymptotic_matrix(g)
    gen = ((gen.toarray() if sp.issparse(gen) else gen)
           - float(model.delta) * np.eye(g.node_count))
    out = np.empty((grid.size, g.node_count))
    steps = np.diff(grid, prepend=0.0)
    propagators: dict[float, np.ndarray] = {}
    cur = x
    for k, dt in enumerate(steps):
        if dt != 0.0:
            prop = propagators.get(dt)
            if prop is None:
                prop = scipy.linalg.expm(gen * dt)
                propagators[dt] = prop
            cur = prop @ cur
        out[k] = cur
    return out

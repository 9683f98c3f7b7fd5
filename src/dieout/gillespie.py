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
On large graphs that node is found through sqrt(N)-node block sums;
those of W @ X, D * X and X share one buffer with W @ X, so an event
updates all four with one gather, add and scatter over the column it
touches.

Runs are reproducible: the generator for run ``i`` is derived from
``SeedSequence((master_seed, i))``; it draws the initial node (when one
is drawn), then blocks of _DRAW_BLOCK standard exponentials and
uniforms, one pair per event.  On dense tables an ensemble advances a
batch of runs in lockstep, one event per run per array step, with the
float operations of the one-run loop in the same order; so every run
is byte-identical whether simulated alone or in any batch, worker
process or order.  Once a batch is down to its last few live runs, it
hands each to the one-run loop with the state it has reached (draw
block, refresh count, caches) and stops stepping.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .graphs import EpidemicModel, LocalityGraph
from .rates import FLOAT, Constant

# Cached pressure vectors are refreshed from scratch at iterations 0,
# _REFRESH_EVERY, 2 _REFRESH_EVERY, ... of a run's event loop (null
# events count), to stop float drift from accumulating over long runs.
_REFRESH_EVERY = 8192

# Event tables are dense up to this node count, where a flat scan and a
# dense column update per event beat the blocked CSR tables.
DENSE_NODE_LIMIT = 2048

# Each run reads its exponential and uniform draws in blocks of this
# many, whether simulated alone or in a batch.
_DRAW_BLOCK = 64

# The lockstep batch tabulates beta and beta_int over its live totals
# widened by this many states each way, every _RATE_MARGIN steps: a
# total moves by at most 1 a step.
_RATE_MARGIN = 1024

# A lockstep batch hands its live runs to the one-run loop once a step
# leaves at most this many: a step of a few runs costs more than their
# events do one at a time.
_HANDOFF = 16

# From this many rows on, _pick_rows forms the rows' running sums with
# one vector add per node rather than with numpy's cumsum.
_COLUMN_SUMS = 200

# A lockstep batch holds at most this many runs x nodes entries per
# cached vector, which bounds its memory on large dense graphs.
_BATCH_ENTRIES = 1 << 19

# Ensemble envelopes and extinction intervals drop floor(TRIM_FRACTION
# * size) values from each side; MIN_RUNS is the least size that drops
# one.
TRIM_FRACTION, MIN_RUNS = 0.025, 40


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
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(
                f"t_max must be finite and positive, got {self.t_max!r}")
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

    ``grid_totals`` samples the right-continuous total at the times of
    the grid the caller passed (None without one); ``events`` holds
    (time, node, +-1) tuples when event recording was requested.
    Exactly one of ``extinct_at`` / ``truncated_at`` is set.
    ``event_count`` counts the events (the length of ``events`` when
    recorded), ``null_events`` the draws that landed on rounding
    residue and changed nothing.  The runs of an ensemble leave out the
    per-node ``initial``.
    """

    run_index: int
    initial: np.ndarray | None
    extinct_at: float | None
    truncated_at: float | None
    grid_totals: np.ndarray | None = None
    events: list[tuple[float, int, int]] | None = None
    event_count: int = 0
    null_events: int = 0


@dataclass
class EnsembleSummary:
    """Cross-run statistics at the times of the caller's grid, one
    entry per grid time.

    The envelope discards the top and bottom TRIM_FRACTION of runs at
    each grid point (``floor(TRIM_FRACTION * runs)`` from each side)
    before taking the extremes; the mean is over all runs.  Extinct
    runs keep contributing zeros, so the envelope can show die-outs
    inside a growing ensemble.  ``events`` counts the events that
    changed a count, ``null_events`` the draws that landed on rounding
    residue, and ``ensemble_s`` is the wall time of the whole ensemble.
    ``per_run_totals`` holds every run's total on the grid and
    ``run_extinctions`` the (run, time) of every extinct run.
    """

    mean_total: np.ndarray
    lower95: np.ndarray
    upper95: np.ndarray
    survival_fraction: np.ndarray
    extinction_times: np.ndarray
    run_count: int
    master_seed: int
    events: int
    null_events: int
    truncated_runs: int
    ensemble_s: float
    per_run_totals: np.ndarray
    run_extinctions: list[tuple[int, float]]
    run_events: list[list[tuple[float, int, int]]] | None = None


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one run."""
    return np.random.default_rng(
        np.random.SeedSequence((int(master_seed), int(run_index))))


def trimmed_interval(values) -> tuple[float, float]:
    """Extremes after discarding ``floor(TRIM_FRACTION * len)`` entries
    from each side; the rule the ensemble envelopes use, applied e.g. to
    extinction times."""
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("no values to summarize")
    k = int(math.floor(TRIM_FRACTION * arr.size))
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
    """Arrays every event reads, from the graph's W and the model's D,
    built once in each process that simulates.

    The simulator alone picks a layout from the node count; the graph's
    W is always CSR.  Up to DENSE_NODE_LIMIT nodes the tables are dense:
    ``weights`` is W as an ndarray and ``columns`` the rows of W^T, and
    a draw scans each rate vector flat.  Above it ``weights`` stays CSR
    and each rate vector is split into blocks of ``width`` ~ sqrt(N)
    entries, so a draw scans O(sqrt(N)) values.  ``columns`` is then
    the stacked matrix [W; B W; B D; B] in CSC, B summing the entries
    of each block, as (column pointers as Python ints, intp row
    indices, values): numpy converts other index types on every gather
    and scatter.  Its rows are those of one buffer holding W @ X and
    the block sums of W @ X, D * X and X, so an event at node j updates
    all four with one gather, add and scatter over column j.
    ``col_sums`` (W's column sums) and ``d_of`` (D's diagonal ``d``)
    hold Python floats, cheaper to index and combine per event.
    """

    weights: np.ndarray | sp.csr_matrix
    width: int
    columns: np.ndarray | tuple
    col_sums: list[float]
    d: np.ndarray
    d_of: list[float]

    @property
    def blocked(self) -> bool:
        """Whether events are drawn through sqrt(N)-node blocks."""
        return isinstance(self.columns, tuple)

    @classmethod
    def of(cls, g: LocalityGraph, model: EpidemicModel) -> "_EventTables":
        w, n = g.weights, g.node_count
        d = model.d_on(g)
        scalars = np.asarray(w.sum(axis=0)).ravel().tolist(), d, d.tolist()
        if n <= DENSE_NODE_LIMIT:
            dense = w.toarray()
            return cls(dense, n, np.ascontiguousarray(dense.T), *scalars)
        width = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
        rows = np.arange(n)
        blocks = sp.csr_matrix((np.ones(n), (rows // width, rows)),
                               shape=(-(-n // width), n))
        stacked = sp.vstack((w, blocks @ w, blocks @ sp.diags(d), blocks),
                            format="csc")
        return cls(w, width, (stacked.indptr.tolist(),
                              stacked.indices.astype(np.intp), stacked.data),
                   *scalars)


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
        grid: optional increasing sample times >= 0; totals are
            recorded as a right-continuous step function.

    Returns:
        Trajectory with extinct_at set iff the run hit the all-zero
        state by t_max, else truncated_at = t_max.  It is byte-identical
        to the same run inside any ensemble.
    """
    if grid is not None:
        grid = _checked_grid(grid)
    return _simulate(cfg, _EventTables.of(g, cfg.model), run_index, grid)


def _checked_grid(grid) -> np.ndarray:
    """``grid`` as a float array.

    Raises:
        ValueError: unless it is a nonempty, finite, strictly
            increasing 1-D array of times >= 0.
    """
    grid = np.asarray(grid, dtype=float)
    if (grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all()
            or np.any(np.diff(grid) <= 0)):
        raise ValueError(
            "grid must be a nonempty, finite, strictly increasing 1-D array")
    if grid[0] < 0:
        raise ValueError(f"grid must be nonnegative, got time {grid[0]}")
    return grid


def _draw_block(rng: np.random.Generator, exps: np.ndarray,
                unis: np.ndarray) -> None:
    """Refill a run's draw blocks: standard exponentials, then uniforms."""
    rng.standard_exponential(out=exps)
    rng.random(out=unis)


@dataclass(eq=False)
class _Run:
    """A run between two iterations of the event loop: what
    :func:`_advance` takes up and leaves.

    ``step`` counts the iterations so far, null events included.  The
    next iteration reads draw ``step % _DRAW_BLOCK`` of ``draws``, the
    current block (a new one is drawn when that is 0), and rebuilds the
    cached W @ X (``pressure``) and ``sums`` = (sum(W X), sum(D X)) from
    ``counts`` when ``step % _REFRESH_EVERY`` is 0; otherwise it takes
    them as given, which only dense tables allow.  ``totals`` holds the
    grid totals below index ``gi``; ``t`` ends as the extinction time
    or t_max.
    """

    rng: np.random.Generator
    counts: np.ndarray
    n: int
    totals: np.ndarray | None
    events: list[tuple[float, int, int]] | None
    t: float = 0.0
    step: int = 0
    nulls: int = 0
    gi: int = 0
    draws: tuple[list[float], list[float]] | None = None
    pressure: np.ndarray | None = None
    sums: tuple[float, float] = (0.0, 0.0)
    extinct: bool = False


def _simulate(cfg: SimConfig, tables: _EventTables, run_index: int,
              grid: np.ndarray | None) -> Trajectory:
    """One run, event by event: starts it and hands it to
    :func:`_advance`, the executable specification of
    :func:`_simulate_batch`, which must reproduce it byte for byte."""
    rng = run_rng(cfg.master_seed, run_index)
    initial = _initial_counts(cfg, tables.d.size, rng)
    run = _Run(rng, initial.astype(float), int(initial.sum()),
               None if grid is None else np.zeros(grid.size, dtype=np.int64),
               [] if cfg.record_events else None)
    _advance(cfg, tables, run, grid)
    return Trajectory(
        run_index=run_index,
        initial=initial,
        extinct_at=run.t if run.extinct else None,
        truncated_at=None if run.extinct else run.t,
        grid_totals=run.totals,
        events=run.events,
        event_count=run.step - run.nulls,
        null_events=run.nulls,
    )


def _advance(cfg: SimConfig, tables: _EventTables, run: _Run,
             grid: np.ndarray | None) -> None:
    """Advance ``run`` event by event until extinction or t_max.

    Each refresh rebuilds W @ X, D * X and their sums from X.  On
    blocked tables it also builds ``cache``, the buffer whose rows are
    those of ``columns``: W @ X, then the block sums of W @ X, D * X
    and X, which the event's column update keeps current."""
    rng = run.rng
    weights, width, d = tables.weights, tables.width, tables.d
    col_sums, d_of = tables.col_sums, tables.d_of
    blocked = tables.blocked
    # a flat scan on dense tables
    pressure_blocks = mod_blocks = count_blocks = None
    if blocked:
        indptr, indices, data = tables.columns
        starts = np.arange(0, d.size, width)
        sections = d.size + starts.size * np.arange(3)

    model = cfg.model
    beta_f = model.beta.evaluator(FLOAT)
    betaint_f = model.beta_int.evaluator(FLOAT)
    delta = float(model.delta)

    fcounts, n, totals, events = run.counts, run.n, run.totals, run.events
    record = events is not None
    gi, t, nulls = run.gi, run.t, run.nulls
    moves = run.step - nulls
    t_max = float(cfg.t_max)
    extinct = False
    # iterations since the last refresh and the next unread draw; 0
    # counts as a full cadence and a used-up block
    since_refresh = run.step % _REFRESH_EVERY or _REFRESH_EVERY
    if since_refresh < _REFRESH_EVERY:
        pressure, (pressure_sum, mod_sum) = run.pressure, run.sums
        mod_counts = d * fcounts
    exps, unis = np.empty(_DRAW_BLOCK), np.empty(_DRAW_BLOCK)
    k = run.step % _DRAW_BLOCK or _DRAW_BLOCK
    if k < _DRAW_BLOCK:
        exp_block, uni_block = run.draws

    while True:
        if n == 0:
            extinct = True
            break
        if since_refresh >= _REFRESH_EVERY:
            since_refresh = 0
            pressure = np.asarray(weights @ fcounts).ravel()  # W @ X
            pressure_sum = float(pressure.sum())
            mod_counts = d * fcounts                          # D * X
            mod_sum = float(mod_counts.sum())
            if blocked:
                cache = np.concatenate((pressure, *(
                    np.add.reduceat(v, starts)
                    for v in (pressure, mod_counts, fcounts))))
                pressure, pressure_blocks, mod_blocks, count_blocks = (
                    np.split(cache, sections))
        if k == _DRAW_BLOCK:
            _draw_block(rng, exps, unis)
            exp_block, uni_block, k = exps.tolist(), unis.tolist(), 0
        b = beta_f(n)
        bi = betaint_f(n)
        pressure_rate = b * pressure_sum
        birth_total = pressure_rate + bi * mod_sum
        total_rate = birth_total + delta * n

        t_next = t + exp_block[k] / total_rate
        if grid is not None:
            while gi < grid.size and grid[gi] < t_next:
                totals[gi] = n
                gi += 1
        if t_next > t_max:
            t = t_max
            break
        t = t_next
        since_refresh += 1

        u = uni_block[k] * total_rate
        k += 1
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
            nulls += 1
            continue

        fcounts[node] += delta_count
        n += delta_count
        update = np.add if delta_count > 0 else np.subtract
        if blocked:
            lo, hi = indptr[node], indptr[node + 1]
            rows = indices[lo:hi]
            cache[rows] = update(cache[rows], data[lo:hi])
        else:
            update(pressure, tables.columns[node], out=pressure)
        pressure_sum += delta_count * col_sums[node]
        mod_counts[node] = d_of[node] * fcounts[node]
        mod_sum += delta_count * d_of[node]
        if record:
            events.append((t, node, delta_count))
        moves += 1

    if grid is not None:
        # remaining grid points see the final (absorbed or frozen) total
        totals[gi:] = n
    run.n, run.t, run.gi, run.extinct = n, t, gi, extinct
    run.step, run.nulls = moves + nulls, nulls


class _RateTable:
    """beta(n) and beta_int(n) as float arrays over a window of n,
    ``beta[n - lo]``, rebuilt from the profiles' evaluators whenever the
    totals a batch can reach leave it."""

    def __init__(self, model: EpidemicModel):
        self._fns = (model.beta.evaluator(FLOAT),
                     model.beta_int.evaluator(FLOAT))
        self.lo = 1
        self.beta = self.beta_int = np.zeros(0)

    def cover(self, low: int, high: int) -> None:
        """Make n = low..high readable (1 <= low <= high)."""
        if self.lo <= low and high < self.lo + self.beta.size:
            return
        self.lo = low
        self.beta, self.beta_int = (
            np.fromiter(map(fn, range(low, high + 1)), float, high + 1 - low)
            for fn in self._fns)


def _simulate_batch(cfg: SimConfig, tables: _EventTables, runs: range,
                    grid: np.ndarray) -> list[Trajectory]:
    """The runs ``runs`` on dense tables, advanced in lockstep.

    Each step moves every live run by one iteration of :func:`_advance`
    (an event, a null event or the pass of t_max), with its float
    operations in the same order, so every run comes out byte-identical
    to simulating it alone.  The live runs fill rows [0, live) of the
    per-run arrays; ``slot[r]`` names the run row r holds, and rows r
    and size + r of ``cache`` its W @ X and X (D * X is formed from X
    for the events that draw from it).  Once a step leaves at most
    _HANDOFF runs live, the batch stops and :func:`_advance` finishes
    each of them from the state the batch leaves: its generator, draw
    block, refresh count, caches, grid index and event log.
    """
    weights, columns, col_sums = tables.weights, tables.columns, tables.col_sums
    d = tables.d
    n_nodes = d.size
    model = cfg.model
    modulated = bool((d != 1).any())  # D = I leaves D * X = X
    rates = _RateTable(model)
    delta, t_max = float(model.delta), float(cfg.t_max)
    # an event is a row of these tables: a birth at node j is row j, a
    # death row N + j, and row 2N changes nothing; -c is exact, so
    # adding a death row equals subtracting the column
    signs = np.repeat([1, -1, 0], [n_nodes, n_nodes, 1])
    step_columns = np.concatenate((columns, -columns, np.zeros((1, n_nodes))))
    step_sums = np.concatenate((np.column_stack((col_sums, d)),
                                -np.column_stack((col_sums, d)),
                                np.zeros((1, 2))))
    no_event = 2 * n_nodes

    size = len(runs)
    rngs = [run_rng(cfg.master_seed, i) for i in runs]
    cache = np.zeros((2 * size, n_nodes))
    pressure, counts = cache[:size], cache[size:]
    counts[:] = [_initial_counts(cfg, n_nodes, rng) for rng in rngs]
    # the picked rows, then their running sums (in _pick_rows, whose
    # room this buffer shares to keep the step's memory small), then
    # the columns an event adds
    picked = np.empty((size, n_nodes))
    scratch = (np.empty(picked.size), picked.reshape(-1),
               np.empty(picked.size, dtype=bool))
    exps, unis = np.empty((size, _DRAW_BLOCK)), np.empty((size, _DRAW_BLOCK))
    slot = np.arange(size)
    n = counts.sum(axis=1).astype(np.int64)
    t = np.zeros(size)
    gi = np.zeros(size, dtype=np.intp)  # next grid index to fill
    # sum(W X) and sum(D X) of each row
    sums = np.zeros((size, 2))
    # the picked category's lower cumulative rate and its scale, by row:
    # 0 and b(n), b(n) sum(W X) and bi(n), birth total and delta
    lows, scales = np.zeros((3, size)), np.full((3, size), delta)
    rows = np.arange(size)
    rate_rows = np.empty(size, dtype=np.int64)  # n - rates.lo, by row

    # per-run results, indexed by slot; each step writes the current
    # total at a run's next grid index, where the step that passes the
    # grid point leaves it; the further points one step passes stay -1
    # until filled from the point before them (the extra column takes
    # the writes of runs past the last grid point)
    totals = np.full((size, grid.size + 1), -1, dtype=np.int64)
    extinct_at: list[float | None] = [None] * size
    moves, nulls = [0] * size, [0] * size
    log: list | None = [] if cfg.record_events else None

    live, step = size, 0
    while live:
        here, at = slot[:live], rows[:live]
        k = step % _DRAW_BLOCK
        if k == 0:
            for r, s in enumerate(here.tolist()):
                _draw_block(rngs[s], exps[r], unis[r])
        if step % _REFRESH_EVERY == 0:
            for r in range(live):
                pressure[r] = weights @ counts[r]
                sums[r] = pressure[r].sum(), (d * counts[r]).sum()
        cur = n[:live]
        if step % _RATE_MARGIN == 0:
            rates.cover(max(1, int(cur.min()) - _RATE_MARGIN),
                        int(cur.max()) + _RATE_MARGIN)
        b, bi = scales[0, :live], scales[1, :live]
        pressure_rate, birth_total = lows[1, :live], lows[2, :live]
        at_rate = np.subtract(cur, rates.lo, out=rate_rows[:live])
        rates.beta.take(at_rate, out=b)
        rates.beta_int.take(at_rate, out=bi)
        np.multiply(b, sums[:live, 0], out=pressure_rate)
        np.multiply(bi, sums[:live, 1], out=birth_total)
        birth_total += pressure_rate
        total_rate = delta * cur
        total_rate += birth_total

        now = t[:live]
        now += exps[:live, k] / total_rate
        over = now > t_max
        totals[here, gi[:live]] = cur
        gi[:live] = grid.searchsorted(now)

        u = unis[:live, k] * total_rate
        death = u >= birth_total
        cat = np.add(u >= pressure_rate, death, dtype=np.intp)
        entry = cat * size  # flat index of (cat, row) in lows and scales
        entry += at
        target = u - lows.take(entry)
        target /= scales.take(entry)
        # mode="clip" (every index is in range) writes straight to out=
        values = cache.take(at + size * (cat > 0), axis=0,
                            out=picked[:live], mode="clip")
        if modulated:
            values[cat == 1] *= d
        node = _pick_rows(values, target, scratch)
        event = node + n_nodes * death
        if node.min() < 0:
            null = (node < 0) & ~over
            # residue of a vector with no positive entry: a null event,
            # exact by thinning
            for r in np.flatnonzero(null).tolist():
                nulls[here[r]] += 1
            node[null], event[null] = 0, no_event
        event[over] = no_event

        pressure[:live] += step_columns.take(event, axis=0, out=values,
                                             mode="clip")
        change = signs[event]
        counts[at, node] += change
        cur += change
        sums[:live] += step_sums[event]
        if log is not None:
            moved = event < no_event
            log.append((here[moved], now[moved], node[moved], change[moved]))

        done = over | (cur == 0)
        if done.any():
            for r in np.flatnonzero(done).tolist():
                s = slot[r]
                # the rest of the grid sees the final total
                totals[s, gi[r]:] = n[r]
                if over[r]:
                    moves[s] = step - nulls[s]
                else:
                    moves[s] = step + 1 - nulls[s]
                    extinct_at[s] = float(now[r])
            live = _compact(done, (pressure, counts, exps, unis, slot, n, t,
                                   gi, sums))
        step += 1
        if live <= _HANDOFF:
            break

    events = _split_log(log, size) if log is not None else [None] * size
    # the runs still live finish in the one-run loop, which extends their
    # grid totals and event logs (the batch reads none of their rows
    # again)
    for r, s in enumerate(slot[:live].tolist()):
        run = _Run(rngs[s], counts[r], int(n[r]), totals[s], events[s],
                   t=float(t[r]), step=step, nulls=nulls[s], gi=int(gi[r]),
                   draws=(exps[r].tolist(), unis[r].tolist()),
                   pressure=pressure[r], sums=tuple(sums[r].tolist()))
        _advance(cfg, tables, run, grid)
        extinct_at[s] = run.t if run.extinct else None
        moves[s], nulls[s] = run.step - run.nulls, run.nulls

    column = np.arange(totals.shape[1])
    for row in totals:
        source = np.where(row >= 0, column, 0)
        row[:] = row[np.maximum.accumulate(source)]
    return [Trajectory(
        run_index=i, initial=None, extinct_at=extinct_at[s],
        truncated_at=None if extinct_at[s] is not None else t_max,
        grid_totals=totals[s, :-1], events=events[s],
        event_count=moves[s], null_events=nulls[s])
        for s, i in enumerate(runs)]


def _pick_rows(values: np.ndarray, targets: np.ndarray,
               scratch: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """``_locate(values[r], targets[r])`` for every row r.

    ``scratch`` is optional room, flat buffers of at least values.size
    entries: floats for the transposed rows and for their running sums,
    and bools.  The sums may take the buffer of ``values`` itself, which
    is read only before they are formed.

    The rows are transposed and summed along the nodes; from
    _COLUMN_SUMS rows on, by one vector add per node over all rows,
    which beats numpy's cumsum (a short loop per row).  Both make
    _locate's float additions in its order.  A row's pick is the count
    of its running sums <= its target.  While the sums that pass the
    target follow all those that do not, that count is where _locate's
    bisection lands, on an entry > 0 (its sum exceeds the one before);
    this holds past drift residue (tiny negative entries) below the
    target.  Rows whose target is negative or past the end, or whose
    sums pass it and fall back, go through _locate itself.
    """
    live, width = values.shape
    cols, cum, flags = (
        buf[:values.size].reshape(width, live) for buf in scratch or (
            np.empty(values.size), np.empty(values.size),
            np.empty(values.size, dtype=bool)))
    np.copyto(cols, values.T)
    if live < _COLUMN_SUMS:
        cols.cumsum(axis=0, out=cum)
    else:
        last = cum[0]
        last[:] = cols[0]
        for col, out in zip(cols[1:], cum[1:]):
            last = np.add(last, col, out)
    passed = np.less_equal(cum, targets, out=flags)
    # rows come from dense tables, so width <= DENSE_NODE_LIMIT < 2^15:
    # int16 holds the count, and the reduce is faster in it
    node = np.add.reduce(passed.view(np.uint8), axis=0, dtype=np.int16)
    falls_back = np.less(passed[:-1], passed[1:]).any(axis=0)
    for r in ((cum[-1] <= targets) | (targets < 0)
              | falls_back).nonzero()[0].tolist():
        node[r] = _locate(cols[:, r], targets[r])
    return node


def _compact(done: np.ndarray, arrays) -> int:
    """Drop the rows flagged in ``done`` from the live prefix of each
    array by moving live rows from its tail into their places; returns
    the new live count."""
    keep = done.size - int(np.count_nonzero(done))
    holes = np.flatnonzero(done[:keep])
    movers = np.flatnonzero(~done[keep:]) + keep
    for arr in arrays:
        arr[holes] = arr[movers]
    return keep


def _split_log(log: list, size: int) -> list[list[tuple[float, int, int]]]:
    """Per-slot (t, node, +-1) lists from the per-step event arrays."""
    slots, times, nodes, signs = (np.concatenate(part) for part in zip(*log))
    order = np.argsort(slots, kind="stable")
    bounds = np.cumsum(np.bincount(slots, minlength=size))[:-1]
    return [list(zip(*(part.tolist() for part in chunk)))
            for chunk in zip(*(np.split(a[order], bounds)
                               for a in (times, nodes, signs)))]


def _run_slice(cfg: SimConfig, g: LocalityGraph, runs: range,
               grid: np.ndarray) -> list[Trajectory]:
    """Trajectories of ``runs``, without the per-node initial counts an
    ensemble does not keep: in lockstep batches of at most
    _BATCH_ENTRIES // N runs on dense tables, each finishing its last
    _HANDOFF live runs one at a time, and one at a time on CSR.  Builds
    the event tables from ``g`` in the process that reads them."""
    tables = _EventTables.of(g, cfg.model)
    if tables.blocked:
        return [replace(_simulate(cfg, tables, i, grid), initial=None)
                for i in runs]
    size = max(1, _BATCH_ENTRIES // tables.d.size)
    return [traj for lo in range(runs.start, runs.stop, size)
            for traj in _simulate_batch(
                cfg, tables, range(lo, min(lo + size, runs.stop)), grid)]


def _map_runs(cfg: SimConfig, g: LocalityGraph, runs: int,
              grid: np.ndarray, threads: int) -> list[Trajectory]:
    """Trajectories of runs 0..runs-1 in run order; inline for
    ``threads == 1``, else from a process pool (``threads == 0`` picks
    the machine's CPU count) that hands each worker the graph and one
    contiguous slice of runs."""
    workers = min(runs, threads if threads > 0 else os.cpu_count() or 1)
    bounds = [runs * w // workers for w in range(workers + 1)]
    slices = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if workers == 1:
        return _run_slice(cfg, g, slices[0], grid)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(_run_slice, repeat(cfg), repeat(g), slices,
                         repeat(grid))
        return [traj for part in parts for traj in part]


def run_ensemble(cfg: SimConfig, g: LocalityGraph, runs: int,
                 grid: np.ndarray, threads: int = 1) -> EnsembleSummary:
    """Simulate an ensemble and aggregate trimmed envelopes on a grid.

    Args:
        cfg: shared run configuration.
        g: locality graph.
        runs: ensemble size; at least MIN_RUNS, so the trimming
            removes at least one run per side.
        grid: increasing sample times >= 0.
        threads: worker processes (>= 0); 0 picks the machine default,
            1 runs inline.  Results are independent of the worker count.
    """
    if runs < MIN_RUNS:
        raise ValueError(
            f"need at least {MIN_RUNS} runs for {TRIM_FRACTION:.1%} trimming")
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    grid = _checked_grid(grid)

    started = time.perf_counter()
    totals = np.empty((runs, grid.size), dtype=np.int64)
    extinctions: list[tuple[int, float]] = []
    events = null_events = 0
    run_events: list | None = [] if cfg.record_events else None
    for traj in _map_runs(cfg, g, runs, grid, threads):
        totals[traj.run_index] = traj.grid_totals
        if traj.extinct_at is not None:
            extinctions.append((traj.run_index, traj.extinct_at))
        events += traj.event_count
        null_events += traj.null_events
        if run_events is not None:
            run_events.append(traj.events)

    trim = int(math.floor(TRIM_FRACTION * runs))
    # order statistics a block of grid points at a time, so the sort
    # never holds a second copy of every run's totals
    lower, upper = np.empty(grid.size), np.empty(grid.size)
    for lo in range(0, grid.size, 64):
        block = np.sort(totals[:, lo:lo + 64], axis=0)
        lower[lo:lo + 64], upper[lo:lo + 64] = block[[trim, runs - 1 - trim]]
    mean = totals.mean(axis=0)
    survival = (totals > 0).mean(axis=0)

    return EnsembleSummary(
        mean_total=mean,
        lower95=lower,
        upper95=upper,
        survival_fraction=survival,
        extinction_times=np.array(sorted(t for _, t in extinctions)),
        run_count=runs,
        master_seed=cfg.master_seed,
        events=events,
        null_events=null_events,
        truncated_runs=runs - len(extinctions),
        ensemble_s=time.perf_counter() - started,
        per_run_totals=totals,
        run_extinctions=extinctions,
        run_events=run_events,
    )


def mean_field_trajectory(g: LocalityGraph, model: EpidemicModel, x0,
                          grid) -> np.ndarray:
    """Expected trajectory of the linear ODE for constant profiles.

    Integrates d E[X]/dt = (beta W + beta_int D - delta I) E[X] on the
    grid, stepping from 0 to each grid point in turn with the action of
    the matrix exponential on the CSR generator (Al-Mohy & Higham, SIAM
    J. Sci. Comput. 33(2), 2011; ``scipy.sparse.linalg.expm_multiply``),
    so no dense copy of W is made.  With D = I, projected on the Perron
    eigenvector q of a symmetric W, the solution is the scalar
    exponential exp(t (beta lambda_r + beta_int - delta)) * q.X(0).

    Args:
        model: the epidemic; beta and beta_int must be Constant.
        x0: initial expected counts per node, finite and nonnegative.
        grid: nonempty, finite, strictly increasing times >= 0.

    Returns:
        Array of shape (len(grid), node_count).
    """
    if not (isinstance(model.beta, Constant)
            and isinstance(model.beta_int, Constant)):
        raise ValueError("mean-field integration requires constant profiles")
    grid = _checked_grid(grid)
    x = np.asarray(x0, dtype=float)
    if x.shape != (g.node_count,):
        raise ValueError("x0 length does not match the graph")
    if not (np.isfinite(x).all() and (x >= 0).all()):
        raise ValueError("x0 must be finite and nonnegative")

    # constant profiles equal their limits at every n
    gen = (model.asymptotic_matrix(g)
           - float(model.delta) * sp.identity(g.node_count, format="csr"))
    out = np.empty((grid.size, g.node_count))
    cur = x
    for k, dt in enumerate(np.diff(grid, prepend=0.0)):
        if dt != 0.0:
            cur = expm_multiply(gen * dt, cur)
        out[k] = cur
    return out

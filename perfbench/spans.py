"""In-memory spans around dieout's public functions, and their analysis.

A span is the list ``[id, parent, name, start, end, attrs]``: ``parent``
is the id of the span open when this one started (-1 at top level),
times come from ``time.perf_counter`` and ``attrs`` holds counters read
at the boundary (iterations, rows, bytes).  Spans are kept in a list
and written once, when the traced command ends.

Wrapping happens from the benchmark's own files: :func:`install` swaps
module attributes and class methods for wrappers, so ``src/`` is never
edited.  Layer names are the dieout module names.
"""

from __future__ import annotations

import functools
import time

ID, PARENT, NAME, START, END, ATTRS = range(6)

#: Profile evaluation methods; one outermost call is one kernel row.
PROFILE_EVAL = "rates.profile_eval"


class Tracer:
    """Records nested spans; not thread-safe (one traced process, one
    thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """Run ``fn`` inside a span.  ``attrs(args, kwargs, result)``
        supplies counters; ``result`` is None when ``fn`` raised."""
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [sid, parent, name, self.clock(), None, None]
        self.spans.append(span)
        self._open.append(sid)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            span[ATTRS] = {"error": type(exc).__name__}
            raise
        finally:
            span[END] = self.clock()
            self._open.pop()
            if attrs is not None:
                extra = attrs(args, kwargs, result)
                span[ATTRS] = {**(span[ATTRS] or {}), **extra}

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, **kwargs)
        return wrapper

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs))


def _spectral_attrs(args, kwargs, result):
    return {"iterations": result.iterations if result is not None else 0}


def _densify_attrs(args, kwargs, result):
    g = args[0]
    return {"bytes": 0 if g.is_dense else g.node_count ** 2 * 8}


def _chain_attrs(args, kwargs, result):
    # the CLI calls hitting_table(spec, n_max, precision) and
    # asymptote_ratio(spec, states, precision) positionally
    requested, precision = args[1], args[2]
    rows = requested if isinstance(requested, int) else max(requested)
    out = {"mode": precision.mode, "requested_rows": int(rows)}
    if result is not None and hasattr(result, "truncated_at"):
        out["truncated_at"] = result.truncated_at
    return out


def _ensemble_attrs(args, kwargs, result):
    if result is None:
        return {}
    return {"extinct_runs": int(result.extinction_times.size)}


def install(tracer: Tracer) -> None:
    """Wrap the public functions the CLI and ``regime`` import, plus
    ``LocalityGraph.dense_weights`` and the rate profiles' evaluation
    methods."""
    from dieout import cli, graphs, rates, regime

    for attr in ("load_config", "load_graph", "load_modulation"):
        tracer.patch(cli, attr, "config." + attr)
    for owner in (cli, regime):
        tracer.patch(owner, "spectral_radius", "graphs.spectral_radius",
                     _spectral_attrs)
        tracer.patch(owner, "is_strongly_connected",
                     "graphs.is_strongly_connected")
    tracer.patch(graphs.LocalityGraph, "dense_weights", "graphs.dense_weights",
                 _densify_attrs)
    for attr in ("classify_general", "classify_symmetric",
                 "classify_scalar_D", "classify_decoupled"):
        tracer.patch(cli, attr, "regime." + attr)
    tracer.patch(cli, "run_ensemble", "gillespie.run_ensemble",
                 _ensemble_attrs)
    tracer.patch(cli, "hitting_table", "chains.hitting_table", _chain_attrs)
    tracer.patch(cli, "asymptote_ratio", "chains.asymptote_ratio",
                 _chain_attrs)
    for cls in vars(rates).values():
        if isinstance(cls, type) and issubclass(cls, rates.RateProfile):
            for attr in ("value_exact", "value_mpf"):
                if attr in vars(cls):
                    tracer.patch(cls, attr, PROFILE_EVAL)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other or stick out of the parent; the
    covered part is the union of the child intervals clipped to the
    parent's interval.
    """
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append(s)
    out = []
    for s in spans:
        lo, hi = s[START], s[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s[ID], ()), key=lambda c: c[START]):
            c_lo, c_hi = max(lo, c[START]), min(hi, c[END])
            if c_hi <= c_lo:
                continue
            if cur_hi is None or c_lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c_lo, c_hi
            else:
                cur_hi = max(cur_hi, c_hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def _duration(s) -> float:
    return s[END] - s[START]


def summarize(spans) -> dict[str, float]:
    """Per-layer totals over one traced pass (see README for meanings).

    ``cli.self_s`` is the self time of the command spans; the ``_s``
    totals of named functions are inclusive span durations.
    """
    by_id = {s[ID]: s for s in spans}
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
    selfs = self_times(spans)

    def calls(name):
        return by_name.get(name, [])

    def total(name):
        return sum(_duration(s) for s in calls(name))

    def chain_of(s):
        while s[PARENT] != -1:
            s = by_id[s[PARENT]]
            if s[NAME].startswith("chains."):
                return s
        return None

    rows_in: dict[int, int] = {}
    profile_s = 0.0
    for s in calls(PROFILE_EVAL):
        if s[PARENT] != -1 and by_id[s[PARENT]][NAME] == PROFILE_EVAL:
            continue  # nested evaluation, already inside an outer one
        profile_s += _duration(s)
        chain = chain_of(s)
        if chain is not None:
            rows_in[chain[ID]] = rows_in.get(chain[ID], 0) + 1

    chain_spans = [s for s in spans if s[NAME].startswith("chains.")]
    kernel_rows = sum(rows_in.values())
    requested = sum((s[ATTRS] or {}).get("requested_rows", 0)
                    for s in chain_spans)

    def rows_per_s(mode):
        picked = [s for s in chain_spans if (s[ATTRS] or {}).get("mode") == mode]
        secs = sum(_duration(s) for s in picked)
        rows = sum(rows_in.get(s[ID], 0) for s in picked)
        return rows / secs if secs > 0 else 0.0

    spectral = calls("graphs.spectral_radius")
    ensembles = calls("gillespie.run_ensemble")
    commands = [s for s in spans if s[NAME].startswith("cli.")]
    return {
        "config.load_graph_s": total("config.load_graph"),
        "config.load_graph_calls": len(calls("config.load_graph")),
        "graphs.densified_bytes": sum(
            (s[ATTRS] or {}).get("bytes", 0)
            for s in calls("graphs.dense_weights")),
        "graphs.spectral_calls": len(spectral),
        "graphs.spectral_iterations": sum(
            (s[ATTRS] or {}).get("iterations", 0) for s in spectral),
        "graphs.spectral_radius_s": total("graphs.spectral_radius"),
        "graphs.strong_connectivity_calls": len(
            calls("graphs.is_strongly_connected")),
        "regime.classify_general_s": total("regime.classify_general"),
        "regime.classify_decoupled_s": total("regime.classify_decoupled"),
        "gillespie.run_ensemble_s": total("gillespie.run_ensemble"),
        "gillespie.extinct_runs": sum(
            (s[ATTRS] or {}).get("extinct_runs", 0) for s in ensembles),
        "chains.hitting_table_s": total("chains.hitting_table"),
        "chains.asymptote_ratio_s": total("chains.asymptote_ratio"),
        "chains.kernel_rows": kernel_rows,
        "chains.rows_per_s.bigfloat": rows_per_s("bigfloat"),
        "chains.rows_per_s.rational": rows_per_s("rational"),
        "chains.truncation_index": max(
            [(s[ATTRS] or {}).get("truncated_at", 0) for s in chain_spans],
            default=0),
        "chains.useful_row_ratio": (requested / kernel_rows
                                    if kernel_rows else 0.0),
        "rates.profile_eval_s": profile_s,
        "cli.self_s": sum(selfs[s[ID]] for s in commands),
    }

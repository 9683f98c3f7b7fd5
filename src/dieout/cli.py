"""Command-line front end.

Subcommands::

    dieout classify  --config cfg.ini [--out DIR]
    dieout simulate  --config cfg.ini [--out DIR] [--seed N] [--threads N]
    dieout hitting   --config cfg.ini [--out DIR]
    dieout asymptote --config cfg.ini [--out DIR]
    dieout meanfield --config cfg.ini [--out DIR]

All numeric output is plain decimal (no locale formatting); given the
same configuration and seed the emitted CSV files are byte-identical
across runs.  Version information lives in ``meta.json``, never in the
data files.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
from pathlib import Path

import mpmath
import numpy as np

from . import __version__
from .chains import (RUN_REPORT, BirthDeathSpec, InfiniteHittingTimeError,
                     PrecisionConfig, asymptote_ratio, hitting_table)
from .config import (ConfigError, ExperimentConfig, config_sha256,
                     load_config, load_graph, load_initial_counts,
                     load_modulation, load_profiles, simulation_grid,
                     uniform_grid)
from .gillespie import (MIN_RUNS, SimConfig, mean_field_trajectory,
                        run_ensemble, trimmed_interval)
# is_strongly_connected and spectral_radius are unused here but stay
# importable from cli: perfbench/spans.py wraps them by these names
from .graphs import (EdgeListError, EpidemicModel, SpectralError,
                     is_strongly_connected, is_symmetric, spectral_radius)
from .rates import (ExactnessError, ProfileError, parse_parameter,
                    parse_profile)
from .regime import (classify_decoupled, classify_general, classify_scalar_D,
                     classify_symmetric)


_LOG10_2 = math.log10(2)
_pow10 = functools.cache(lambda k: 10 ** k)

#: rows per write: output is streamed, never held as a whole file
_CHUNK_LINES = 4096


def _decimal_cells(numerators, den: int, digits: int):
    """Each positive exact value num/den, over the one denominator
    ``den``, in ``mpmath.nstr(x, digits)`` layout, in integer arithmetic
    (the pairs need not be reduced); when ``den`` is a power of two
    2**F every floor division is a shift by F.

    Like nstr it keeps ``digits`` significant digits, rounded half up
    (nstr floors to ``digits + 3`` digits, then rounds on the first
    dropped one), strips trailing zeros, and prints the leading digit's
    decimal exponent e in fixed notation when
    min(-(digits // 3), -5) < e < digits, else as ``d.ddde+N``.  (nstr
    floors in binary first, so on a non-dyadic value that is an exact
    decimal tie it can round down where this rounds up.)
    """
    shift = den.bit_length() - 1 if den & (den - 1) == 0 else None
    low = _pow10(digits)
    high = 10 * low
    fixed_from = min(-(digits // 3), -5)
    for num in numerators:
        # 10**e <= x < 10**(e + 2) from the bit lengths; then the digits
        # q = floor(x * 10**(digits - e)) number digits + 1 or digits + 2
        e = math.floor((num.bit_length() - den.bit_length() - 1) * _LOG10_2)
        while True:
            k = digits - e
            if shift is None:
                q = (num * _pow10(k) // den if k >= 0
                     else num // (den * _pow10(-k)))
            else:
                q = (num * _pow10(k) >> shift if k >= 0
                     else (num >> shift) // _pow10(-k))
            if q >= low:
                break
            e -= 1  # the float estimate of e came out one too high
        if q >= high:
            q //= 10
            e += 1
        r = (q + 5) // 10  # half up, from the floor of one more digit
        if r == low:
            r //= 10
            e += 1
        # trailing zeros stripped; a whole number keeps ".0", as in nstr
        text = str(r).rstrip("0")
        if not fixed_from < e < digits:
            yield f"{text[0]}.{text[1:] or '0'}e{e:+d}"
        elif e < 0:
            yield "0." + "0" * (-e - 1) + text
        elif len(text) > e + 1:
            yield text[:e + 1] + "." + text[e + 1:]
        else:
            yield text.ljust(e + 1, "0") + ".0"


def _csv_text(text: str) -> str:
    """A text cell (a header or a node label) as ``csv``'s minimal
    quoting writes it."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: Path, header: list[str], lines) -> None:
    """The bytes ``csv.writer`` writes for ``header`` and the rows of
    ``lines``: each line is a row already joined with ``,``, its numbers
    as ``str`` writes them (the shortest round-trip ``repr`` of a
    float) and its text cells through :func:`_csv_text`.  Every row
    ends in ``\\r\\n``; the lines are written ``_CHUNK_LINES`` at a time."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(_csv_text, header)) + "\r\n")
        while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
            fh.write("\r\n".join(chunk) + "\r\n")


def _write_meta(out_dir: Path, command: str, cfg: ExperimentConfig,
                extra: dict | None = None) -> None:
    import scipy
    meta = {
        "command": command,
        "config_sha256": config_sha256(cfg),
        "versions": {
            "dieout": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
        },
    }
    if extra:
        meta.update(extra)
    with open(out_dir / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(cfg: ExperimentConfig, args) -> Path:
    out = Path(args.out) if args.out else cfg.resolve(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _model(cfg: ExperimentConfig, g, profiles=None) -> EpidemicModel:
    """The configured epidemic on graph ``g``; ``profiles`` if loaded."""
    beta, beta_int = profiles or load_profiles(cfg)
    return EpidemicModel(beta, beta_int, cfg.dynamics.delta,
                         load_modulation(cfg, g))


def _load_report(g, start: float) -> dict:
    """``meta.json``'s load stage: the wall time since ``start`` and the
    stored nonzeros of W."""
    return {"load_s": time.perf_counter() - start, "edges": g.weights.nnz}


def cmd_classify(cfg: ExperimentConfig, args) -> int:
    """Classify the epidemic regime; one JSON record per applicable method."""
    start = time.perf_counter()
    profiles = load_profiles(cfg)  # before the graph: fail fast
    g = load_graph(cfg)
    model = _model(cfg, g, profiles)
    load = _load_report(g, start)
    start = time.perf_counter()
    mod, tol, stol = (model.modulation, cfg.classify.boundary_tol,
                      cfg.classify.spectral_tol)
    general = classify_general(g, model, boundary_tol=tol, spectral_tol=stol)
    decoupled = classify_decoupled(g, model, boundary_tol=tol,
                                   spectral_tol=stol)
    reports = [general]
    if mod.is_scalar:  # the decoupled bracket is one point: no new root
        if mod.values[0] == 1.0 and is_symmetric(g):
            reports.insert(0, classify_symmetric(decoupled, model))
        reports.append(classify_scalar_D(decoupled, model))
    reports.append(decoupled)
    records = [r.as_record() for r in reports]
    compute_s = time.perf_counter() - start
    text = json.dumps(records, indent=2)
    print(text)
    if args.out or cfg.output.directory:
        out = _out_dir(cfg, args)
        (out / "classify.json").write_text(text + "\n", encoding="utf-8")
        _write_meta(out, "classify", cfg, {**load, "compute_s": compute_s,
                                           "components": g._components[0]})
    if not general.strongly_connected:
        print("warning: graph is not strongly connected; spectral "
              "positivity guarantees do not apply", file=sys.stderr)
    return 0


def _sim_config(cfg: ExperimentConfig, g, args, profiles=None) -> SimConfig:
    sim = cfg.simulation
    initial = load_initial_counts(cfg, g)
    return SimConfig(
        model=_model(cfg, g, profiles), t_max=sim.t_max,
        n0=sim.n0 if initial is None else int(initial.sum()),
        master_seed=sim.master_seed if args.seed is None else args.seed,
        initial=initial, record_events=sim.record_events)


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
    """Run the ensemble and write trajectory/summary/extinction CSVs."""
    start = time.perf_counter()
    profiles = load_profiles(cfg)  # before the graph: fail fast
    grid = simulation_grid(cfg.simulation)
    g = load_graph(cfg)
    sim_cfg = _sim_config(cfg, g, args, profiles)
    load = _load_report(g, start)
    summary = run_ensemble(sim_cfg, g, cfg.simulation.runs, grid,
                           threads=args.threads)
    out = _out_dir(cfg, args)
    start = time.perf_counter()
    grid_text = [repr(t) for t in grid.tolist()]
    _write_csv(out / "trajectories.csv", ["t", "run_id", "total"],
               (f"{t},{run},{total}"
                for run, totals in enumerate(summary.per_run_totals.tolist())
                for t, total in zip(grid_text, totals)))
    _write_csv(out / "summary.csv",
               ["t", "mean", "lower95", "upper95", "survival_fraction"],
               map("{},{},{},{},{}".format, *(a.tolist() for a in (
                   grid, summary.mean_total, summary.lower95,
                   summary.upper95, summary.survival_fraction))))
    _write_csv(out / "extinctions.csv", ["run_id", "t_extinct"],
               itertools.starmap("{},{}".format, summary.run_extinctions))
    if summary.run_events is not None:
        event_dir = out / "events"
        event_dir.mkdir(exist_ok=True)
        labels = [_csv_text(label) for label in g.labels]
        for run, events in enumerate(summary.run_events):
            _write_csv(event_dir / f"run_{run:05d}.csv",
                       ["t", "node_label", "delta"],
                       (f"{t},{labels[node]},{dc}" for t, node, dc in events))
    extra = {
        **load,
        "master_seed": sim_cfg.master_seed,
        "runs": summary.run_count,
        "extinct_runs": len(summary.run_extinctions),
        "truncated_runs": summary.truncated_runs,
        "events": summary.events,
        "null_events": summary.null_events,
        "ensemble_s": summary.ensemble_s,
        "write_s": time.perf_counter() - start,
    }
    if summary.extinction_times.size >= MIN_RUNS:
        lo, hi = trimmed_interval(summary.extinction_times)
        extra["extinction_time_95"] = [lo, hi]
    _write_meta(out, "simulate", cfg, extra)
    print(f"simulate: {summary.run_count} runs, "
          f"{len(summary.run_extinctions)} extinct by t={sim_cfg.t_max}, "
          f"outputs in {out}")
    return 0


def _precision_from(section) -> PrecisionConfig:
    kwargs = dict(mode=section.mode, bits=section.bits,
                  series_rel_tol=section.rel_tol)
    if hasattr(section, "max_terms"):
        kwargs["max_terms"] = section.max_terms
    return PrecisionConfig(**kwargs)


def _kernel_report(result) -> dict:
    """The run report of a certified kernel pass, for ``meta.json``."""
    return {key: getattr(result, key) for key in RUN_REPORT}


def cmd_hitting(cfg: ExperimentConfig, args) -> int:
    """Write the certified S_n / E[T_n] table for the configured chain."""
    if not cfg.hitting.gamma:
        raise ConfigError("[hitting] gamma is required")
    gamma = parse_profile(cfg.hitting.gamma, base_dir=cfg.base_dir)
    spec = BirthDeathSpec(gamma, parse_parameter(cfg.dynamics.delta))
    precision = _precision_from(cfg.hitting)
    start = time.perf_counter()
    table = hitting_table(spec, cfg.hitting.n_max, precision)
    kernel_s = time.perf_counter() - start
    out = _out_dir(cfg, args)
    start = time.perf_counter()
    digits, den = precision.decimal_digits, table.denominator
    _write_csv(out / "hitting.csv", ["n", "S_n", "T_n", "certified"],
               map("{},{},{},{}".format, itertools.count(1),
                   _decimal_cells(table.numerators, den, digits),
                   _decimal_cells(itertools.accumulate(table.numerators),
                                  den, digits),
                   ("true" if c else "false" for c in table.row_certified)))
    _write_meta(out, "hitting", cfg, {
        "certified": table.certified, **_kernel_report(table),
        "kernel_s": kernel_s, "write_s": time.perf_counter() - start})
    print(f"hitting: {table.n_max} rows "
          f"({'certified' if table.certified else 'NOT all certified'}), "
          f"series truncated at index {table.truncated_at}, "
          f"output in {out}")
    return 0


def cmd_asymptote(cfg: ExperimentConfig, args) -> int:
    """Write delta*E[T_n]/ln(n) ratio columns for several profiles."""
    asym = cfg.asymptote
    if not asym.gammas:
        raise ConfigError("[asymptote] gammas is required")
    if asym.n_values:
        states = sorted(set(asym.n_values))
    else:
        pts = np.unique(np.round(np.geomspace(
            max(2, asym.n_min), asym.n_max, asym.points)).astype(int))
        states = [int(n) for n in pts]
    precision = _precision_from(asym)
    delta = parse_parameter(cfg.dynamics.delta)

    columns = []
    start = time.perf_counter()
    for text in asym.gammas:
        gamma = parse_profile(text, base_dir=cfg.base_dir)
        spec = BirthDeathSpec(gamma, delta)
        result = asymptote_ratio(spec, states, precision)
        columns.append((text, dict(result.ratios), _kernel_report(result)))
    kernel_s = time.perf_counter() - start
    out = _out_dir(cfg, args)
    start = time.perf_counter()
    header = ["n"] + [f"ratio[{text}]" for text, _, _ in columns]
    tables = [ratios for _, ratios, _ in columns]
    _write_csv(out / "ratios.csv", header,
               (",".join(map(str, [n, *(ratios[n] for ratios in tables)]))
                for n in states))
    _write_meta(out, "asymptote", cfg, {
        "states": len(states),
        "gammas": {text: report for text, _, report in columns},
        "kernel_s": kernel_s, "write_s": time.perf_counter() - start,
    })
    print(f"asymptote: {len(states)} states x {len(columns)} profiles, "
          f"output in {out}")
    return 0


def cmd_meanfield(cfg: ExperimentConfig, args) -> int:
    """Integrate the expected-trajectory ODE and write per-node columns."""
    start = time.perf_counter()
    mf = cfg.meanfield
    profiles = load_profiles(cfg)  # before the graph: fail fast
    grid = uniform_grid(mf.t_max, mf.grid_step, "meanfield")
    if mf.x0 != "uniform" and not mf.x0.startswith("node:"):
        raise ConfigError(
            f"[meanfield] x0 {mf.x0!r}: use uniform or node:LABEL")
    g = load_graph(cfg)
    model = _model(cfg, g, profiles)
    load = _load_report(g, start)
    n0 = cfg.simulation.n0
    if mf.x0 == "uniform":
        x0 = np.full(g.node_count, n0 / g.node_count)
    else:
        x0 = np.zeros(g.node_count)
        try:
            x0[g.index(mf.x0[len("node:"):])] = n0
        except KeyError:
            raise ConfigError(f"[meanfield] x0 = {mf.x0!r} names no node "
                              f"of the graph") from None
    start = time.perf_counter()
    series = mean_field_trajectory(g, model, x0, grid)
    compute_s = time.perf_counter() - start
    out = _out_dir(cfg, args)
    start = time.perf_counter()
    _write_csv(out / "meanfield.csv", ["t", *g.labels, "total"],
               (",".join(map(str, (t, *row, total)))
                for t, row, total in zip(grid.tolist(), series.tolist(),
                                         series.sum(axis=1).tolist())))
    _write_meta(out, "meanfield", cfg, {
        "nodes": g.node_count, **load, "compute_s": compute_s,
        "write_s": time.perf_counter() - start})
    print(f"meanfield: {grid.size} grid points over {g.node_count} nodes, "
          f"output in {out}")
    return 0


_COMMANDS = {
    "classify": cmd_classify,
    "simulate": cmd_simulate,
    "hitting": cmd_hitting,
    "asymptote": cmd_asymptote,
    "meanfield": cmd_meanfield,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dieout",
        description="Epidemic regime classification, exact simulation, and "
                    "extinction-time computation on locality networks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="experiment file")
        p.add_argument("--out", default=None,
                       help="output directory (overrides [output])")
        if name == "simulate":
            p.add_argument("--seed", type=int, default=None,
                           help="master seed override")
            p.add_argument("--threads", type=int, default=1,
                           help="worker processes (0 = machine default)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 0) < 0:
        parser.error("--threads must be >= 0 (0 = machine default)")
    try:
        return _COMMANDS[args.command](load_config(args.config), args)
    except InfiniteHittingTimeError as exc:
        print("error: infinite expected extinction time -- the curing "
              f"rate is at or below the chain's growth threshold ({exc})",
              file=sys.stderr)
        return 2
    except (ConfigError, ProfileError, EdgeListError, SpectralError,
            ExactnessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

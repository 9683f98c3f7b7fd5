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
import csv
import functools
import json
import math
import sys
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
from .gillespie import (SimConfig, mean_field_trajectory, run_ensemble,
                        trimmed_interval)
# is_strongly_connected is unused here but stays importable from cli:
# perfbench/spans.py wraps it by this name
from .graphs import (EdgeListError, EpidemicModel, SpectralError,
                     is_strongly_connected, is_symmetric, spectral_radius)
from .rates import (ExactnessError, ProfileError, parse_parameter,
                    parse_profile)
from .regime import (classify_decoupled, classify_general, classify_scalar_D,
                     classify_symmetric)


_LOG10_2 = math.log10(2)
_pow10 = functools.cache(lambda k: 10 ** k)


def _fmt_precise(num: int, den: int, digits: int) -> str:
    """The positive exact value num/den in ``mpmath.nstr(x, digits)``
    layout, in integer arithmetic (the pair need not be reduced).

    Like nstr it keeps ``digits`` significant digits, rounded half up
    (nstr floors to ``digits + 3`` digits, then rounds on the first
    dropped one), strips trailing zeros, and prints the leading digit's
    decimal exponent e in fixed notation when
    min(-(digits // 3), -5) < e < digits, else as ``d.ddde+N``.  (nstr
    floors in binary first, so on a non-dyadic value that is an exact
    decimal tie it can round down where this rounds up.)
    """
    # 10**e <= x < 10**(e + 2) from the bit lengths; then the digits
    # q = floor(x * 10**(digits - e)) number digits + 1 or digits + 2
    e = math.floor((num.bit_length() - den.bit_length() - 1) * _LOG10_2)
    low = _pow10(digits)
    while True:
        k = digits - e
        q = num * _pow10(k) // den if k >= 0 else num // (den * _pow10(-k))
        if q >= low:
            break
        e -= 1  # the float estimate of e came out one too high
    if q >= 10 * low:
        q //= 10
        e += 1
    r = (q + 5) // 10  # half up, from the floor of one more digit
    if r == low:
        r //= 10
        e += 1
    text = str(r)
    if min(-(digits // 3), -5) < e < digits:
        text = ("0." + "0" * (-e - 1) + text if e < 0
                else text[:e + 1] + "." + text[e + 1:])
        exponent = ""
    else:
        text = text[0] + "." + text[1:]
        exponent = f"e{e:+d}"
    text = text.rstrip("0")
    if text.endswith("."):
        text += "0"
    return text + exponent


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Rows of Python numbers and strings; ``csv`` writes each float as
    its shortest round-trip ``repr``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


def _model(cfg: ExperimentConfig, g) -> EpidemicModel:
    """The configured epidemic on graph ``g``."""
    beta, beta_int = load_profiles(cfg)
    return EpidemicModel(beta, beta_int, cfg.dynamics.delta,
                         load_modulation(cfg, g))


def cmd_classify(cfg: ExperimentConfig, args) -> int:
    """Classify the epidemic regime; one JSON record per applicable method."""
    g = load_graph(cfg)
    model = _model(cfg, g)
    modulation = model.modulation
    tol = cfg.classify.boundary_tol
    stol = cfg.classify.spectral_tol

    reports = []
    symmetric = is_symmetric(g)
    identity_mod = modulation.is_scalar and modulation.values[0] == 1.0
    general = classify_general(g, model, boundary_tol=tol, spectral_tol=stol)
    if symmetric and identity_mod:
        reports.append(classify_symmetric(
            spectral_radius(g.weights, tol=stol).radius, model,
            boundary_tol=tol))
    reports.append(general)
    if modulation.is_scalar:
        reports.append(classify_scalar_D(g, model, boundary_tol=tol,
                                         spectral_tol=stol))
    reports.append(classify_decoupled(g, model, boundary_tol=tol,
                                      spectral_tol=stol))
    records = [r.as_record() for r in reports]
    text = json.dumps(records, indent=2)
    print(text)
    if args.out or cfg.output.directory:
        out = _out_dir(cfg, args)
        (out / "classify.json").write_text(text + "\n", encoding="utf-8")
        _write_meta(out, "classify", cfg)
    if not general.strongly_connected:
        print("warning: graph is not strongly connected; spectral "
              "positivity guarantees do not apply", file=sys.stderr)
    return 0


def _sim_config(cfg: ExperimentConfig, g, args) -> SimConfig:
    sim = cfg.simulation
    initial = load_initial_counts(cfg, g)
    return SimConfig(
        model=_model(cfg, g), t_max=sim.t_max,
        n0=sim.n0 if initial is None else int(initial.sum()),
        master_seed=sim.master_seed if args.seed is None else args.seed,
        initial=initial, record_events=sim.record_events)


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
    """Run the ensemble and write trajectory/summary/extinction CSVs."""
    g = load_graph(cfg)
    sim_cfg = _sim_config(cfg, g, args)
    grid = simulation_grid(cfg.simulation)
    summary = run_ensemble(sim_cfg, g, cfg.simulation.runs, grid,
                           threads=args.threads)
    out = _out_dir(cfg, args)

    grid_text = [repr(t) for t in grid.tolist()]
    _write_csv(out / "trajectories.csv", ["t", "run_id", "total"],
               ((t, run, total)
                for run, totals in enumerate(summary.per_run_totals.tolist())
                for t, total in zip(grid_text, totals)))
    _write_csv(out / "summary.csv",
               ["t", "mean", "lower95", "upper95", "survival_fraction"],
               zip(*(a.tolist() for a in (
                   grid, summary.mean_total, summary.lower95,
                   summary.upper95, summary.survival_fraction))))
    _write_csv(out / "extinctions.csv", ["run_id", "t_extinct"],
               summary.run_extinctions)
    if summary.run_events is not None:
        event_dir = out / "events"
        event_dir.mkdir(exist_ok=True)
        for run, events in enumerate(summary.run_events):
            _write_csv(event_dir / f"run_{run:05d}.csv",
                       ["t", "node_label", "delta"],
                       ((t, g.labels[node], dc)
                        for t, node, dc in events))
    extra = {
        "master_seed": sim_cfg.master_seed,
        "runs": summary.run_count,
        "extinct_runs": len(summary.run_extinctions),
        "truncated_runs": summary.truncated_runs,
        "events": summary.events,
        "null_events": summary.null_events,
        "ensemble_s": summary.ensemble_s,
    }
    if summary.extinction_times.size >= 40:
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
    table = hitting_table(spec, cfg.hitting.n_max, precision)
    out = _out_dir(cfg, args)
    digits = precision.decimal_digits
    _write_csv(out / "hitting.csv", ["n", "S_n", "T_n", "certified"],
               ((n + 1, _fmt_precise(*s, digits), _fmt_precise(*t, digits),
                 "true" if c else "false")
                for n, (s, t, c) in enumerate(
                    zip(table.s_pairs, table.t_pairs, table.row_certified))))
    _write_meta(out, "hitting", cfg,
                {"certified": table.certified, **_kernel_report(table)})
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
    if max(states, default=0) > precision.max_terms:
        raise ConfigError(
            f"[asymptote] state {states[-1]} is above the series kernel's "
            f"{precision.max_terms:,}-term cap; request states up to "
            f"{precision.max_terms:,}")
    delta = parse_parameter(cfg.dynamics.delta)

    columns = []
    for text in asym.gammas:
        gamma = parse_profile(text, base_dir=cfg.base_dir)
        spec = BirthDeathSpec(gamma, delta)
        result = asymptote_ratio(spec, states, precision)
        columns.append((text, dict(result.ratios), _kernel_report(result)))
    out = _out_dir(cfg, args)
    header = ["n"] + [f"ratio[{text}]" for text, _, _ in columns]
    _write_csv(out / "ratios.csv", header,
               (([n] + [ratios[n] for _, ratios, _ in columns])
                for n in states))
    _write_meta(out, "asymptote", cfg, {
        "states": len(states),
        "gammas": {text: report for text, _, report in columns},
    })
    print(f"asymptote: {len(states)} states x {len(columns)} profiles, "
          f"output in {out}")
    return 0


def cmd_meanfield(cfg: ExperimentConfig, args) -> int:
    """Integrate the expected-trajectory ODE and write per-node columns."""
    g = load_graph(cfg)
    model = _model(cfg, g)
    mf = cfg.meanfield
    grid = uniform_grid(mf.t_max, mf.grid_step, "meanfield")
    n0 = cfg.simulation.n0
    if mf.x0 == "uniform":
        x0 = np.full(g.node_count, n0 / g.node_count)
    elif mf.x0.startswith("node:"):
        x0 = np.zeros(g.node_count)
        x0[g.index(mf.x0[len("node:"):])] = n0
    else:
        raise ConfigError(f"[meanfield] x0 {mf.x0!r}: use uniform or node:LABEL")
    series = mean_field_trajectory(g, model, x0, grid)
    out = _out_dir(cfg, args)
    _write_csv(out / "meanfield.csv", ["t", *g.labels, "total"],
               ([t, *row, total] for t, row, total in zip(
                   grid.tolist(), series.tolist(),
                   series.sum(axis=1).tolist())))
    _write_meta(out, "meanfield", cfg, {"nodes": g.node_count})
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
        p.add_argument("--seed", type=int, default=None,
                       help="master seed override")
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes for ensembles (0 = auto)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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

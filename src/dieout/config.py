"""Experiment configuration: INI-style files with typed sections.

The file format is ``key = value`` pairs grouped into sections; every
knob any command consults is reachable from here, and a loaded
configuration serializes back to an equivalent file (round-trip safe).
Paths are resolved relative to the configuration file's directory.
A file that cannot be read, this one or one it names, raises the
OSError itself.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .chains import BIGFLOAT, RATIONAL, PrecisionConfig
from .gillespie import MIN_RUNS, TRIM_FRACTION
from .graphs import (DiagonalModulation, LocalityGraph, load_edge_list_file,
                     normalize_mean_column_weight, read_text,
                     top_nodes_by_total_weight)
from .rates import ProfileError, RateProfile, parse_parameter, parse_profile


class ConfigError(ValueError):
    """Invalid or missing configuration entry."""


@dataclass(frozen=True)
class GraphSection:
    path: str | None = None
    subset: str | None = None      # "top:K" or a file of labels
    normalize: bool = False


@dataclass(frozen=True)
class ProfilesSection:
    beta: str = "const:0"
    beta_int: str = "const:0"


@dataclass(frozen=True)
class ModulationSection:
    eta: str | None = None         # scalar modulation
    file: str | None = None        # per-node "label value" lines


@dataclass(frozen=True)
class DynamicsSection:
    delta: str = "1"


@dataclass(frozen=True)
class SimulationSection:
    runs: int = 1000               # >= MIN_RUNS, for the trimming
    n0: int = 100                  # >= 1
    t_max: float = 10.0            # > 0
    grid_step: float = 0.05
    master_seed: int = 1
    record_events: bool = False
    initial_file: str | None = None


@dataclass(frozen=True)
class HittingSection:
    gamma: str | None = None
    n_max: int = 1000
    mode: str = "bigfloat"
    bits: int = 256
    rel_tol: float = 1e-30
    max_terms: int = 2_000_000


@dataclass(frozen=True)
class AsymptoteSection:
    gammas: tuple[str, ...] = ()     # no spec twice
    n_values: tuple[int, ...] = ()   # explicit states >= 2; else log-spaced
    n_min: int = 10                  # <= n_max
    n_max: int = 100_000             # >= 2
    points: int = 40                 # >= 1
    mode: str = "bigfloat"
    bits: int = 256
    rel_tol: float = 1e-30


@dataclass(frozen=True)
class MeanfieldSection:
    t_max: float = 10.0            # > 0
    grid_step: float = 0.01
    x0: str = "uniform"            # "uniform" or "node:LABEL"


@dataclass(frozen=True)
class ClassifySection:
    boundary_tol: float = 1e-9
    spectral_tol: float = 1e-12


@dataclass(frozen=True)
class OutputSection:
    directory: str = "out"


@dataclass(frozen=True)
class ExperimentConfig:
    graph: GraphSection = GraphSection()
    profiles: ProfilesSection = ProfilesSection()
    modulation: ModulationSection = ModulationSection()
    dynamics: DynamicsSection = DynamicsSection()
    simulation: SimulationSection = SimulationSection()
    hitting: HittingSection = HittingSection()
    asymptote: AsymptoteSection = AsymptoteSection()
    meanfield: MeanfieldSection = MeanfieldSection()
    classify: ClassifySection = ClassifySection()
    output: OutputSection = OutputSection()
    base_dir: Path = field(default=Path("."), compare=False)

    def resolve(self, path_text: str) -> Path:
        p = Path(path_text)
        return p if p.is_absolute() else self.base_dir / p


#: field annotation -> value type; every other field is text
_TYPES = {"bool": bool, "int": int, "float": float}


def _convert(section: str, key: str, text: str, target_type):
    text = text.strip()
    try:
        if target_type is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
        if target_type is int:
            return int(text)
        if target_type is not float:
            return text
        value = float(text)
    except (KeyError, ValueError):
        raise ConfigError(
            f"[{section}] {key} = {text!r} is not a valid "
            f"{target_type.__name__}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {text!r} is not finite")
    return value


def _load_section(parser: configparser.ConfigParser, name: str, cls):
    kwargs = {}
    if parser.has_section(name):
        spec = {f.name: f for f in fields(cls)}
        for key, raw in parser.items(name):
            if key not in spec:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
            f = spec[key]
            if f.name == "gammas":
                kwargs[key] = tuple(raw.split())
            elif f.name == "n_values":
                kwargs[key] = tuple(
                    _convert(name, key, tok, int) for tok in raw.split())
            else:
                kwargs[key] = _convert(name, key, raw,
                                       _TYPES.get(f.type, str))
    return cls(**kwargs)


#: Section name -> section class, in ExperimentConfig's field order.
_SECTIONS = {f.name: type(f.default) for f in fields(ExperimentConfig)
             if f.name != "base_dir"}

#: the kernel settings [hitting] and [asymptote] share
_PRECISION_RANGES = (
    ("mode", lambda s: s.mode in (RATIONAL, BIGFLOAT),
     f"is not {RATIONAL} or {BIGFLOAT}"),
    ("bits", lambda s: s.mode == RATIONAL or s.bits >= 64,
     "is below the 64 bits the bigfloat kernel needs"),
    ("rel_tol", lambda s: s.rel_tol > 0, "must be positive"),
)

#: the kernel's default cap on series terms: [asymptote] has no
#: max_terms key, so its states must stay within it
_MAX_TERMS = PrecisionConfig().max_terms


def _printable_bits() -> int | None:
    """The largest big-float ``bits`` whose ``hitting.csv`` cells can be
    printed, None without a cap: a cell's digits are one integer of
    ``decimal_digits`` digits, and Python converts no integer longer
    than ``sys.get_int_max_str_digits()`` digits to text (0: no limit).
    ``asymptote`` prints no decimals, so its ``bits`` have no cap."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return None
    bits = math.ceil(limit / math.log10(2))
    while PrecisionConfig(bits=bits).decimal_digits > limit:
        bits -= 1
    return bits


def _positive_parameter_problem(text: str) -> str | None:
    """Why ``text`` is not a positive :func:`parse_parameter` value, or
    None when it is one."""
    try:
        return None if parse_parameter(text) > 0 else "must be positive"
    except ProfileError as exc:
        return f"is not a valid parameter: {exc}"


#: Section name -> (key, test on the section, error text or a function
#: of the section making it) for the values a command would otherwise
#: reject deep inside the library, under a name the file does not use,
#: only after loading a graph, or only after its whole kernel pass.
_RANGES = {
    "dynamics": (
        ("delta", lambda s: _positive_parameter_problem(s.delta) is None,
         lambda s: _positive_parameter_problem(s.delta)),
    ),
    "simulation": (
        ("runs", lambda s: s.runs >= MIN_RUNS,
         f"must be >= {MIN_RUNS} (the envelope trims {TRIM_FRACTION:.1%} "
         "of runs from each side)"),
        ("n0", lambda s: s.n0 >= 1, "must be >= 1"),
        ("t_max", lambda s: s.t_max > 0, "must be positive"),
        ("master_seed", lambda s: s.master_seed >= 0, "must be >= 0"),
    ),
    "meanfield": (
        ("t_max", lambda s: s.t_max > 0, "must be positive"),
    ),
    "hitting": _PRECISION_RANGES + (
        ("bits", lambda s: (s.mode == RATIONAL or _printable_bits() is None
                            or s.bits <= _printable_bits()),
         lambda s: f"is above {_printable_bits()}, the most whose decimals "
         f"can be printed (sys.get_int_max_str_digits() is "
         f"{sys.get_int_max_str_digits()})"),
        ("n_max", lambda s: s.n_max >= 1, "must be positive"),
        ("max_terms", lambda s: s.max_terms >= 1, "must be positive"),
        ("max_terms", lambda s: s.max_terms >= s.n_max,
         lambda s: f"is below n_max = {s.n_max}; the series needs at "
         "least that many terms"),),
    "asymptote": _PRECISION_RANGES + (
        ("gammas", lambda s: len(set(s.gammas)) == len(s.gammas),
         "repeats a profile"),
        ("n_values", lambda s: all(n >= 2 for n in s.n_values),
         "must all be >= 2"),
        ("n_values", lambda s: max(s.n_values, default=0) <= _MAX_TERMS,
         f"reach above the series kernel's {_MAX_TERMS:,}-term cap"),
        # the log-spaced states, used when n_values is unset
        ("n_min", lambda s: s.n_values or s.n_min <= s.n_max,
         "is above n_max"),
        ("n_max", lambda s: s.n_values or s.n_max >= 2, "must be >= 2"),
        ("n_max", lambda s: s.n_values or s.n_max <= _MAX_TERMS,
         f"is above the series kernel's {_MAX_TERMS:,}-term cap"),
        ("points", lambda s: s.n_values or s.points >= 1, "must be >= 1"),
    ),
    "classify": (
        ("boundary_tol", lambda s: s.boundary_tol >= 0, "must be >= 0"),
        ("spectral_tol", lambda s: s.spectral_tol > 0, "must be positive"),
    ),
}


def _check_ranges(name: str, section) -> None:
    """ConfigError naming ``[name] key = value`` for the first value out
    of its range (finiteness is checked on conversion)."""
    for key, ok, problem in _RANGES.get(name, ()):
        if not ok(section):
            value = getattr(section, key)
            if isinstance(value, tuple):
                value = " ".join(map(str, value))
            if callable(problem):
                problem = problem(section)
            raise ConfigError(f"[{name}] {key} = {value!r} {problem}")


def load_config(path) -> ExperimentConfig:
    """Load and validate an experiment configuration file."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    try:
        parser.read_string(read_text(path, lambda lineno, reason: ConfigError(
            f"{path}:{lineno}: {reason}")), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}] in {path}")
    kwargs = {name: _load_section(parser, name, cls)
              for name, cls in _SECTIONS.items()}
    for name, section in kwargs.items():
        _check_ranges(name, section)
    return ExperimentConfig(base_dir=path.parent, **kwargs)


def config_text(cfg: ExperimentConfig) -> str:
    """Canonical serialized form (round-trips through load_config)."""
    lines = []
    for name in _SECTIONS:
        section = getattr(cfg, name)
        body = []
        for f in fields(section):
            value = getattr(section, f.name)
            if value is None or value == ():
                continue
            if isinstance(value, tuple):
                rendered = " ".join(str(v) for v in value)
            elif isinstance(value, bool):
                rendered = "true" if value else "false"
            else:
                rendered = repr(value) if isinstance(value, float) else str(value)
            body.append(f"{f.name} = {rendered}")
        if body:
            lines.append(f"[{name}]")
            lines.extend(body)
            lines.append("")
    return "\n".join(lines)


def config_sha256(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_text(cfg).encode("utf-8")).hexdigest()


def load_graph(cfg: ExperimentConfig) -> LocalityGraph:
    """Materialize the configured graph: load, subset, then normalize."""
    if not cfg.graph.path:
        raise ConfigError("[graph] path is required for this command")
    g = load_edge_list_file(cfg.resolve(cfg.graph.path))
    if cfg.graph.subset:
        spec = cfg.graph.subset
        if spec.startswith("top:"):
            try:
                k = int(spec[len("top:"):])
            except ValueError:
                raise ConfigError(f"[graph] subset {spec!r}: bad count")
            try:
                labels = top_nodes_by_total_weight(g, k)
            except ValueError as exc:
                raise ConfigError(f"[graph] subset {spec!r}: {exc}") from None
        else:
            path = cfg.resolve(spec)
            labels = list(_read_label_values(path, labels=set(g.labels)))
            if not labels:
                raise ConfigError(f"[graph] subset: {path} names no node")
        g = g.subgraph(labels)
    if cfg.graph.normalize:
        g = normalize_mean_column_weight(g)
    return g


def _read_label_values(path: Path, convert=None, labels=None) -> dict:
    """``label value`` lines (``#`` comments) as a dict in file order,
    values parsed by ``convert``; without ``convert``, one label a line,
    each mapped to None.  The file is read in one piece and its lines
    parsed in one pass, which raises ConfigError at ``path:line`` for
    the first byte that is not UTF-8, malformed line, repeated label,
    label outside ``labels`` (a set, if given) or value ``convert``
    rejects with ValueError.
    """
    text = read_text(path, lambda lineno, reason: ConfigError(
        f"{path}:{lineno}: {reason}"))
    # read_text reads in universal-newline mode: \n is the only line end
    if "#" in text:
        text = re.sub("#[^\n]*", "", text)
    width = 1 if convert is None else 2
    table = {}
    for lineno, parts in enumerate(map(str.split, text.split("\n")), start=1):
        if not parts:
            continue
        label = parts[0]
        if len(parts) != width:
            problem = "expected " + (
                "one label" if convert is None else "'label value'")
        elif label in table:
            problem = f"duplicate label {label!r}"
        elif labels is not None and label not in labels:
            problem = f"{label!r} is not a graph node"
        else:
            try:
                table[label] = None if convert is None else convert(parts[1])
                continue
            except ValueError as exc:
                problem = f"bad value {parts[1]!r}: {exc}"
        raise ConfigError(f"{path}:{lineno}: {problem}")
    return table


def load_modulation(cfg: ExperimentConfig,
                    g: LocalityGraph) -> DiagonalModulation:
    """Per-node modulation from the config (defaults to all ones).  A
    file may name extra nodes, so one file serves any subset."""
    mod = cfg.modulation
    if mod.eta is not None and mod.file is not None:
        raise ConfigError("[modulation] give either eta or file, not both")
    if mod.file is not None:
        fpath = cfg.resolve(mod.file)
        table = _read_label_values(fpath, _modulation_value)
        try:
            values = np.fromiter(map(table.__getitem__, g.labels), float,
                                 g.node_count)
        except KeyError as exc:
            raise ConfigError(
                f"modulation file {fpath} is missing node {exc}") from None
        return DiagonalModulation(values)
    if mod.eta is None:
        return DiagonalModulation.uniform(g.node_count)
    try:
        eta = _modulation_value(mod.eta)
    except ValueError:
        raise ConfigError(f"[modulation] eta = {mod.eta!r} is not a finite "
                          "positive number") from None
    return DiagonalModulation.uniform(g.node_count, eta)


def _modulation_value(text: str) -> float:
    """A modulation entry: ValueError unless finite and positive."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError("modulation must be finite and positive")
    return value


#: the largest initial count, and total, that the simulator's int64
#: counts hold
_INT64_MAX = int(np.iinfo(np.int64).max)


def load_initial_counts(cfg: ExperimentConfig,
                        g: LocalityGraph) -> np.ndarray | None:
    """Initial counts per node from ``[simulation] initial_file`` (None
    when unset); nodes without a line start at zero, and the counts
    must sum to at least one case and at most 2^63 - 1."""
    if not cfg.simulation.initial_file:
        return None
    fpath = cfg.resolve(cfg.simulation.initial_file)
    table = _read_label_values(fpath, _count_value, labels=set(g.labels))
    total = sum(table.values())
    if not total:
        raise ConfigError(f"{fpath}: initial counts sum to 0; "
                          "at least one case is needed")
    if total > _INT64_MAX:
        raise ConfigError(f"{fpath}: initial counts sum to {total}, "
                          "above 2^63 - 1")
    return np.array([table.get(lab, 0) for lab in g.labels], dtype=np.int64)


def _count_value(text: str) -> int:
    """An initial count: ValueError unless a nonnegative integer that
    fits in int64."""
    value = int(text)
    if value < 0:
        raise ValueError("initial counts must be nonnegative")
    if value > _INT64_MAX:
        raise ValueError("initial count exceeds 2^63 - 1")
    return value


def load_profiles(cfg: ExperimentConfig) -> tuple[RateProfile, RateProfile]:
    beta = parse_profile(cfg.profiles.beta, base_dir=cfg.base_dir)
    beta_int = parse_profile(cfg.profiles.beta_int, base_dir=cfg.base_dir)
    return beta, beta_int


#: the most points an output grid may have: 80 MB of float64 times
MAX_GRID_POINTS = 10**7


def uniform_grid(t_max: float, grid_step: float, section: str) -> np.ndarray:
    """Output times 0, grid_step, ..., t_max of a ``[section]``.

    Raises:
        ConfigError: naming ``[section] grid_step`` unless the step is
            positive, makes at most ``MAX_GRID_POINTS`` points and
            divides t_max to 1e-9 relative, so that the grid ends
            exactly at t_max.
    """
    where = f"[{section}] grid_step = {grid_step!r}"
    if not grid_step > 0:
        raise ConfigError(f"{where} must be positive")
    steps = t_max / grid_step  # inf once the quotient overflows
    if steps + 1 > MAX_GRID_POINTS:
        raise ConfigError(f"{where} makes more than {MAX_GRID_POINTS:,} "
                          f"grid points up to t_max = {t_max!r}")
    steps = round(steps)
    if steps < 1:
        raise ConfigError(f"{where} is larger than t_max = {t_max!r}")
    if abs(steps * grid_step - t_max) > 1e-9 * t_max:
        raise ConfigError(f"{where} does not divide t_max = {t_max!r}")
    grid = np.arange(steps + 1) * grid_step
    grid[-1] = t_max  # steps * grid_step can round past it
    return grid


def simulation_grid(sim: SimulationSection) -> np.ndarray:
    return uniform_grid(sim.t_max, sim.grid_step, "simulation")

"""Experiment configuration: INI-style files with typed sections.

The file format is ``key = value`` pairs grouped into sections; every
knob any command consults is reachable from here, and a loaded
configuration serializes back to an equivalent file (round-trip safe).
Paths are resolved relative to the configuration file's directory.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .graphs import (DiagonalModulation, LocalityGraph, load_edge_list_file,
                     normalize_mean_column_weight, top_nodes_by_total_weight)
from .rates import RateProfile, parse_profile


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
    runs: int = 1000
    n0: int = 100
    t_max: float = 10.0
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
    gammas: tuple[str, ...] = ()
    n_values: tuple[int, ...] = ()   # explicit states; else log-spaced
    n_min: int = 10
    n_max: int = 100_000
    points: int = 40
    mode: str = "bigfloat"
    bits: int = 256
    rel_tol: float = 1e-30


@dataclass(frozen=True)
class MeanfieldSection:
    t_max: float = 10.0
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

_BOOL = {"true": True, "yes": True, "1": True, "on": True,
         "false": False, "no": False, "0": False, "off": False}


def _convert(section: str, key: str, text: str, target_type):
    text = text.strip()
    try:
        if target_type is bool:
            return _BOOL[text.lower()]
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


def load_config(path) -> ExperimentConfig:
    """Load and validate an experiment configuration file."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"configuration file {path} does not exist")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}] in {path}")
    kwargs = {name: _load_section(parser, name, cls)
              for name, cls in _SECTIONS.items()}
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
            labels = list(_read_label_values(cfg.resolve(spec),
                                             labels=set(g.labels)))
        g = g.subgraph(labels)
    if cfg.graph.normalize:
        g = normalize_mean_column_weight(g)
    return g


def _read_label_values(path: Path, convert=None, labels=None) -> dict:
    """``label value`` lines (``#`` comments) as a dict in file order,
    values parsed by ``convert``; without ``convert``, one label a line,
    each mapped to None.  ConfigError at ``path:line`` on a malformed
    line or value, a repeated label, or a label outside ``labels`` (if
    given)."""
    table = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            where, label = f"{path}:{lineno}", parts[0]
            if len(parts) != (1 if convert is None else 2):
                raise ConfigError(f"{where}: expected " + (
                    "one label" if convert is None else "'label value'"))
            if label in table:
                raise ConfigError(f"{where}: duplicate label {label!r}")
            if labels is not None and label not in labels:
                raise ConfigError(f"{where}: {label!r} is not a graph node")
            try:
                table[label] = None if convert is None else convert(parts[1])
            except ValueError as exc:
                raise ConfigError(
                    f"{where}: bad value {parts[1]!r}: {exc}") from None
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
            values = np.array([table[lab] for lab in g.labels])
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
    if not (np.isfinite(value) and value > 0):
        raise ValueError("modulation must be finite and positive")
    return value


def load_initial_counts(cfg: ExperimentConfig,
                        g: LocalityGraph) -> np.ndarray | None:
    """Initial counts per node from ``[simulation] initial_file`` (None
    when unset); nodes without a line start at zero, and the counts
    must sum to at least one case."""
    if not cfg.simulation.initial_file:
        return None
    fpath = cfg.resolve(cfg.simulation.initial_file)
    table = _read_label_values(fpath, _count_value, labels=set(g.labels))
    if not sum(table.values()):
        raise ConfigError(f"{fpath}: initial counts sum to 0; "
                          "at least one case is needed")
    return np.array([table.get(lab, 0) for lab in g.labels], dtype=np.int64)


def _count_value(text: str) -> int:
    """An initial count: ValueError unless a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise ValueError("initial counts must be nonnegative")
    return value


def load_profiles(cfg: ExperimentConfig) -> tuple[RateProfile, RateProfile]:
    beta = parse_profile(cfg.profiles.beta, base_dir=cfg.base_dir)
    beta_int = parse_profile(cfg.profiles.beta_int, base_dir=cfg.base_dir)
    return beta, beta_int


def uniform_grid(t_max: float, grid_step: float, section: str) -> np.ndarray:
    """Output times 0, grid_step, ..., t_max of a ``[section]``.

    Raises:
        ConfigError: naming ``[section] grid_step`` unless the step is
            positive and divides t_max to 1e-9 relative, so that the
            grid ends exactly at t_max.
    """
    where = f"[{section}] grid_step = {grid_step!r}"
    if not grid_step > 0:
        raise ConfigError(f"{where} must be positive")
    steps = round(t_max / grid_step)
    if steps < 1:
        raise ConfigError(f"{where} is larger than t_max = {t_max!r}")
    if abs(steps * grid_step - t_max) > 1e-9 * t_max:
        raise ConfigError(f"{where} does not divide t_max = {t_max!r}")
    return np.arange(steps + 1) * grid_step


def simulation_grid(sim: SimulationSection) -> np.ndarray:
    return uniform_grid(sim.t_max, sim.grid_step, "simulation")

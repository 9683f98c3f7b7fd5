"""Experiment configuration: INI-style files with typed sections.

The file format is ``key = value`` pairs grouped into sections; every
knob any command consults is reachable from here, and a loaded
configuration serializes back to an equivalent file (round-trip safe).
Paths are resolved relative to the configuration file's directory.
"""

from __future__ import annotations

import configparser
import hashlib
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


_BOOL = {"true": True, "yes": True, "1": True, "on": True,
         "false": False, "no": False, "0": False, "off": False}


def _convert(section: str, key: str, text: str, target_type):
    text = text.strip()
    try:
        if target_type is bool:
            return _BOOL[text.lower()]
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        return text
    except (KeyError, ValueError):
        raise ConfigError(
            f"[{section}] {key} = {text!r} is not a valid "
            f"{target_type.__name__}") from None


def _load_section(parser: configparser.ConfigParser, name: str, cls):
    kwargs = {}
    if parser.has_section(name):
        spec = {f.name: f for f in fields(cls)}
        for key, raw in parser.items(name):
            if key not in spec:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
            f = spec[key]
            if f.name in ("gammas",):
                kwargs[key] = tuple(raw.split())
            elif f.name in ("n_values",):
                kwargs[key] = tuple(
                    _convert(name, key, tok, int) for tok in raw.split())
            elif f.type in ("str", "str | None"):
                kwargs[key] = raw.strip()
            elif f.type == "bool":
                kwargs[key] = _convert(name, key, raw, bool)
            elif f.type == "int":
                kwargs[key] = _convert(name, key, raw, int)
            elif f.type == "float":
                kwargs[key] = _convert(name, key, raw, float)
            else:
                kwargs[key] = raw.strip()
    return cls(**kwargs)


_SECTIONS = {
    "graph": ("graph", GraphSection),
    "profiles": ("profiles", ProfilesSection),
    "modulation": ("modulation", ModulationSection),
    "dynamics": ("dynamics", DynamicsSection),
    "simulation": ("simulation", SimulationSection),
    "hitting": ("hitting", HittingSection),
    "asymptote": ("asymptote", AsymptoteSection),
    "meanfield": ("meanfield", MeanfieldSection),
    "classify": ("classify", ClassifySection),
    "output": ("output", OutputSection),
}


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
    kwargs = {attr: _load_section(parser, name, cls)
              for name, (attr, cls) in _SECTIONS.items()}
    return ExperimentConfig(base_dir=path.parent, **kwargs)


def config_text(cfg: ExperimentConfig) -> str:
    """Canonical serialized form (round-trips through load_config)."""
    lines = []
    for name, (attr, cls) in _SECTIONS.items():
        section = getattr(cfg, attr)
        body = []
        for f in fields(cls):
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
            labels = top_nodes_by_total_weight(g, k)
        else:
            with open(cfg.resolve(spec), "r", encoding="utf-8") as fh:
                labels = [ln.strip() for ln in fh if ln.strip()]
        g = g.subgraph(labels)
    if cfg.graph.normalize:
        g = normalize_mean_column_weight(g)
    return g


def _read_label_values(path: Path, convert, labels=None) -> dict:
    """``label value`` lines (``#`` comments) as a dict, values parsed by
    ``convert``.  ConfigError at ``path:line`` on a malformed line or
    value, a repeated label, or a label outside ``labels`` (if given)."""
    table = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts, where = line.split(), f"{path}:{lineno}"
            if len(parts) != 2:
                raise ConfigError(f"{where}: expected 'label value'")
            label, text = parts
            if label in table:
                raise ConfigError(f"{where}: duplicate label {label!r}")
            if labels is not None and label not in labels:
                raise ConfigError(f"{where}: {label!r} is not a graph node")
            try:
                table[label] = convert(text)
            except ValueError:
                raise ConfigError(f"{where}: bad value {text!r}") from None
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
        table = _read_label_values(fpath, float)
        try:
            values = np.array([table[lab] for lab in g.labels])
        except KeyError as exc:
            raise ConfigError(
                f"modulation file {fpath} is missing node {exc}") from None
        return DiagonalModulation(values)
    eta = float(mod.eta) if mod.eta is not None else 1.0
    return DiagonalModulation.uniform(g.node_count, eta)


def load_initial_counts(cfg: ExperimentConfig,
                        g: LocalityGraph) -> np.ndarray | None:
    """Initial counts per node from ``[simulation] initial_file`` (None
    when unset); nodes without a line start at zero."""
    if not cfg.simulation.initial_file:
        return None
    table = _read_label_values(cfg.resolve(cfg.simulation.initial_file), int,
                               labels=set(g.labels))
    return np.array([table.get(lab, 0) for lab in g.labels], dtype=np.int64)


def load_profiles(cfg: ExperimentConfig) -> tuple[RateProfile, RateProfile]:
    beta = parse_profile(cfg.profiles.beta, base_dir=cfg.base_dir)
    beta_int = parse_profile(cfg.profiles.beta_int, base_dir=cfg.base_dir)
    return beta, beta_int


def simulation_grid(sim: SimulationSection) -> np.ndarray:
    steps = int(round(sim.t_max / sim.grid_step))
    if steps < 1:
        raise ConfigError("[simulation] grid_step larger than t_max")
    return np.arange(steps + 1) * sim.grid_step

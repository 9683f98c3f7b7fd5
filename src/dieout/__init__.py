"""Epidemic regime classification, exact stochastic simulation, and
arbitrary-precision extinction-time computation on locality networks."""

__version__ = "0.1.0"

from .chains import (AsymptoteRatios, BirthDeathSpec, HittingTable,
                     InfiniteHittingTimeError, PrecisionConfig,
                     asymptote_ratio, bound_chains_from_graph,
                     equilibrium_lower_bound, hitting_table)
from .gillespie import (EnsembleSummary, SimConfig, Trajectory,
                        mean_field_trajectory, run_ensemble, simulate_run,
                        trimmed_interval)
from .graphs import (DiagonalModulation, EdgeListError, EpidemicModel,
                     LocalityGraph, SpectralError, SpectralInfo,
                     is_strongly_connected, load_edge_list,
                     load_edge_list_file, normalize_mean_column_weight,
                     spectral_radius)
from .rates import (Aggregate, Constant, Harmonic, LogOverN, ProfileError,
                    RateProfile, Step, Table, parse_profile)
from .regime import (Method, Regime, RegimeReport, classify_decoupled,
                     classify_general, classify_scalar_D, classify_symmetric)

__all__ = [
    "__version__",
    # graphs
    "LocalityGraph", "DiagonalModulation", "EpidemicModel", "SpectralInfo",
    "EdgeListError", "SpectralError", "load_edge_list", "load_edge_list_file",
    "normalize_mean_column_weight", "is_strongly_connected",
    "spectral_radius",
    # rates
    "RateProfile", "Constant", "Step", "Harmonic", "LogOverN", "Table",
    "Aggregate", "ProfileError", "parse_profile",
    # regime
    "Regime", "Method", "RegimeReport", "classify_symmetric",
    "classify_general", "classify_scalar_D", "classify_decoupled",
    # gillespie
    "SimConfig", "Trajectory", "EnsembleSummary",
    "simulate_run", "run_ensemble",
    "mean_field_trajectory", "trimmed_interval",
    # chains
    "BirthDeathSpec", "PrecisionConfig", "HittingTable", "AsymptoteRatios",
    "InfiniteHittingTimeError", "hitting_table", "asymptote_ratio",
    "equilibrium_lower_bound", "bound_chains_from_graph",
]

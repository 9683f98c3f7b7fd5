"""Epidemic regime classification, exact stochastic simulation, and
arbitrary-precision extinction-time computation on locality networks."""

__version__ = "0.1.0"

from .chains import (BirthDeathSpec, HittingTable, InfiniteHittingTimeError,
                     PrecisionConfig, SeriesValue, asymptote_ratio,
                     bound_chains_from_graph, equilibrium_lower_bound,
                     expected_T1, hitting_table, positive_recurrence_check,
                     s_tail_series, s_values_float)
from .gillespie import (EnsembleSummary, SimConfig, Trajectory,
                        estimate_survival_probability, mean_field_trajectory,
                        run_ensemble, simulate_run, trimmed_interval)
from .graphs import (DiagonalModulation, EdgeListError, EpidemicModel,
                     LocalityGraph, SpectralError, SpectralInfo,
                     geometric_lower, is_strongly_connected, load_edge_list,
                     load_edge_list_file, normalize_mean_column_weight,
                     spectral_radius, symmetrized_upper)
from .rates import (Constant, Harmonic, LogOverN, ProfileError, RateProfile,
                    Step, Table, gamma_from_graph, parse_profile)
from .regime import (Method, Regime, RegimeReport, classify_decoupled,
                     classify_general, classify_scalar_D, classify_symmetric)

__all__ = [
    "__version__",
    # graphs
    "LocalityGraph", "DiagonalModulation", "EpidemicModel", "SpectralInfo",
    "EdgeListError", "SpectralError", "load_edge_list", "load_edge_list_file",
    "normalize_mean_column_weight", "is_strongly_connected",
    "spectral_radius", "symmetrized_upper", "geometric_lower",
    # rates
    "RateProfile", "Constant", "Step", "Harmonic", "LogOverN", "Table",
    "ProfileError", "parse_profile", "gamma_from_graph",
    # regime
    "Regime", "Method", "RegimeReport", "classify_symmetric",
    "classify_general", "classify_scalar_D", "classify_decoupled",
    # gillespie
    "SimConfig", "Trajectory", "EnsembleSummary",
    "simulate_run", "run_ensemble",
    "mean_field_trajectory", "estimate_survival_probability",
    "trimmed_interval",
    # chains
    "BirthDeathSpec", "PrecisionConfig", "HittingTable", "SeriesValue",
    "InfiniteHittingTimeError", "positive_recurrence_check", "expected_T1",
    "s_tail_series", "hitting_table", "asymptote_ratio", "s_values_float",
    "equilibrium_lower_bound", "bound_chains_from_graph",
]

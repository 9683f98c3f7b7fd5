"""Sharp-threshold classification of the epidemic regime.

The curing rate delta is compared against a spectral threshold built
from the asymptotic infectiousness and the locality graph.  Above the
threshold the mean extinction time is logarithmic in the initial
epidemic size; below it the mean extinction time is infinite.  Exactly
at the threshold nothing is claimed, so the classifiers report
``INDETERMINATE`` inside a small relative boundary band instead of
guessing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .graphs import (EpidemicModel, LocalityGraph, geometric_lower,
                     is_strongly_connected, spectral_radius,
                     symmetrized_upper)

#: Relative half-width of the indeterminate band around the threshold.
BOUNDARY_TOL = 1e-9


class Regime(enum.Enum):
    FAST_EXTINCTION = "fast_extinction"
    LONG_LASTING = "long_lasting"
    INDETERMINATE = "indeterminate"


class Method(enum.Enum):
    SYMMETRIC_SPECTRAL = "symmetric_spectral"
    GENERAL_SPECTRAL = "general_spectral"
    SCALAR_D = "scalar_d"
    DECOUPLED_WEYL = "decoupled_weyl"


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of a threshold classification.

    ``margin`` is delta minus the threshold that decided the regime.
    For the decoupled method the decision uses the upper threshold for
    fast extinction and the lower one for a long-lasting epidemic;
    both appear in ``lower_threshold``/``upper_threshold``.
    ``strongly_connected`` is False when the positivity guarantee
    behind the spectral comparison does not apply.
    """

    regime: Regime
    threshold: float
    delta: float
    margin: float
    method: Method
    lower_threshold: float | None = None
    upper_threshold: float | None = None
    strongly_connected: bool | None = None

    def as_record(self) -> dict:
        """Flat key-value form for JSON emission."""
        rec = {
            "method": self.method.value,
            "regime": self.regime.value,
            "threshold": self.threshold,
            "delta": self.delta,
            "margin": self.margin,
        }
        if self.method is Method.DECOUPLED_WEYL:
            rec["lower_threshold"] = self.lower_threshold
            rec["upper_threshold"] = self.upper_threshold
        if self.strongly_connected is not None:
            rec["strongly_connected"] = self.strongly_connected
        return rec


def _check_boundary_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(
            f"boundary_tol must be finite and >= 0, got {tol!r}")


def _decide(model: EpidemicModel, lower: float, upper: float, tol: float,
            method: Method, **extra) -> RegimeReport:
    """Fast extinction when delta clears ``upper``, long-lasting when
    ``lower`` clears delta, each by more than the relative band ``tol``,
    else indeterminate at ``upper``; a sharp method passes its one
    threshold as both ends.  ValueError if an end is not finite."""
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError(f"{method.value} threshold bracket [{lower!r}, "
                         f"{upper!r}] is not finite")
    delta = float(model.delta)
    if delta - upper > tol * max(delta, upper):
        regime, threshold = Regime.FAST_EXTINCTION, upper
    elif lower - delta > tol * max(delta, lower):
        regime, threshold = Regime.LONG_LASTING, lower
    else:
        regime, threshold = Regime.INDETERMINATE, upper
    return RegimeReport(regime, threshold, delta, delta - threshold, method,
                        **extra)


def _scalar_eta(model: EpidemicModel) -> float:
    """eta of a scalar modulation D = eta * I."""
    mod = model.modulation
    if mod is not None and not mod.is_scalar:
        raise ValueError("this method needs a scalar modulation D = eta * I")
    return 1.0 if mod is None else float(mod.values[0])


def classify_symmetric(lambda_r: float, model: EpidemicModel,
                       boundary_tol: float = BOUNDARY_TOL) -> RegimeReport:
    """Classify via the symmetric-graph threshold beta_inf*lambda_r +
    betaint_inf*eta, for D = eta * I.

    Args:
        lambda_r: spectral radius of the (symmetric) adjacency matrix.
        model: the epidemic; its modulation must be scalar.
    """
    _check_boundary_tol(boundary_tol)
    if lambda_r < 0:
        raise ValueError("spectral radius must be nonnegative")
    threshold = (model.beta.limit * lambda_r
                 + model.beta_int.limit * _scalar_eta(model))
    return _decide(model, threshold, threshold, boundary_tol,
                   Method.SYMMETRIC_SPECTRAL)


def classify_general(g: LocalityGraph, model: EpidemicModel,
                     boundary_tol: float = BOUNDARY_TOL,
                     spectral_tol: float = 1e-12) -> RegimeReport:
    """Classify via the Perron root of beta_inf*W + betaint_inf*diag(D).

    This is the authoritative (sharp) comparison for weighted directed
    graphs with per-node modulation.  When the graph is not strongly
    connected the root is still computed but the report is flagged,
    since eigenvector positivity is no longer guaranteed.
    """
    _check_boundary_tol(boundary_tol)
    connected = is_strongly_connected(g)
    info = spectral_radius(model.asymptotic_matrix(g), tol=spectral_tol)
    return _decide(model, info.radius, info.radius, boundary_tol,
                   Method.GENERAL_SPECTRAL, strongly_connected=connected)


def classify_scalar_D(g: LocalityGraph, model: EpidemicModel,
                      boundary_tol: float = BOUNDARY_TOL,
                      spectral_tol: float = 1e-12) -> RegimeReport:
    """Classify with uniform within-locality modulation D = eta * I.

    The threshold decouples exactly into beta_inf*rho(W) + betaint_inf*eta,
    matching :func:`classify_general` with a scalar modulation.

    Raises:
        ValueError: the model's modulation does not fit the graph or is
            not scalar.
    """
    _check_boundary_tol(boundary_tol)
    # D must fit the graph and be scalar before the power iteration
    model.d(g.node_count)
    eta = _scalar_eta(model)
    threshold = (model.beta.limit
                 * spectral_radius(g.weights, tol=spectral_tol).radius
                 + model.beta_int.limit * eta)
    return _decide(model, threshold, threshold, boundary_tol, Method.SCALAR_D,
                   strongly_connected=is_strongly_connected(g))


def classify_decoupled(g: LocalityGraph, model: EpidemicModel,
                       boundary_tol: float = BOUNDARY_TOL,
                       spectral_tol: float = 1e-12) -> RegimeReport:
    """Classify with graph and modulation contributions decoupled.

    Uses the symmetrization sandwich rho(sqrt(W o W^T)) <= rho(W) <=
    rho((W + W^T)/2) together with the spectral shift bounds for a
    diagonal addition.  The two sides generally leave a gap:

    * delta above ``beta_inf*rho((W+W^T)/2) + betaint_inf*max(D)``
      certifies fast extinction;
    * delta below ``beta_inf*rho(sqrt(W o W^T)) + betaint_inf*min(D)``
      certifies a long-lasting epidemic;
    * in between the method is inconclusive (the sharp comparison in
      :func:`classify_general` may still decide).
    """
    _check_boundary_tol(boundary_tol)
    d = model.d(g.node_count)
    beta_inf, betaint_inf = model.beta.limit, model.beta_int.limit
    upper = (beta_inf * spectral_radius(symmetrized_upper(g),
                                        tol=spectral_tol).radius
             + betaint_inf * float(d.max()))
    lower = (beta_inf * spectral_radius(geometric_lower(g),
                                        tol=spectral_tol).radius
             + betaint_inf * float(d.min()))
    return _decide(model, lower, upper, boundary_tol, Method.DECOUPLED_WEYL,
                   lower_threshold=lower, upper_threshold=upper,
                   strongly_connected=is_strongly_connected(g))

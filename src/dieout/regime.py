"""Sharp-threshold classification of the epidemic regime.

The curing rate delta is compared against a threshold built from the
Perron root of the growth matrix A = beta_inf*W + betaint_inf*diag(D),
or of W, at the profiles' limits.  Above it the mean extinction time is
logarithmic in the initial epidemic size; below it, infinite.  Exactly
at the threshold nothing is claimed, so the classifiers report
``INDETERMINATE`` inside a small relative boundary band instead of
guessing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .graphs import (EpidemicModel, LocalityGraph, is_strongly_connected,
                     spectral_radius)

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


def _perron_root(g: LocalityGraph, matrix, tol: float) -> float:
    """Perron root of A or W, in CSR: one iteration on the whole matrix
    when W is strongly connected, else the largest root of its diagonal
    blocks over W's strong components, a 1x1 block's root its entry."""
    count, component = g._components
    if count == 1:
        return spectral_radius(matrix, tol=tol).radius
    order = np.argsort(component, kind="stable")  # each block contiguous
    m = matrix[order][:, order]
    diag, ends = m.diagonal(), np.cumsum(np.bincount(component)).tolist()
    return max(float(diag[a]) if b == a + 1 else
               spectral_radius(m[a:b, a:b], tol=tol).radius
               for a, b in zip([0, *ends], ends))


def _sharp(decoupled: RegimeReport, model: EpidemicModel, method: Method,
           **extra) -> RegimeReport:
    """``decoupled`` under the sharp ``method``, once ``model``'s D is
    scalar and so its bracket one point."""
    mod = model.modulation
    if mod is not None and not mod.is_scalar:
        raise ValueError("this method needs a scalar modulation D = eta * I")
    return replace(decoupled, method=method, lower_threshold=None,
                   upper_threshold=None, **extra)


def classify_symmetric(decoupled: RegimeReport,
                       model: EpidemicModel) -> RegimeReport:
    """Classify via the symmetric-graph threshold beta_inf*lambda_r +
    betaint_inf*eta, for D = eta * I.  On a symmetric W lambda_r is
    rho(W), so this is :func:`classify_scalar_D`'s record without
    ``strongly_connected``."""
    return _sharp(decoupled, model, Method.SYMMETRIC_SPECTRAL,
                  strongly_connected=None)


def classify_general(g: LocalityGraph, model: EpidemicModel,
                     boundary_tol: float = BOUNDARY_TOL,
                     spectral_tol: float = 1e-12) -> RegimeReport:
    """Classify via the Perron root of beta_inf*W + betaint_inf*diag(D).

    This is the authoritative (sharp) comparison for weighted directed
    graphs with per-node modulation.  When the graph is not strongly
    connected the root is still computed, block by block, but the report
    is flagged, since eigenvector positivity is no longer guaranteed.
    """
    _check_boundary_tol(boundary_tol)
    root = _perron_root(g, model.asymptotic_matrix(g), spectral_tol)
    return _decide(model, root, root, boundary_tol, Method.GENERAL_SPECTRAL,
                   strongly_connected=is_strongly_connected(g))


def classify_scalar_D(decoupled: RegimeReport,
                      model: EpidemicModel) -> RegimeReport:
    """Classify with uniform within-locality modulation D = eta * I.

    The threshold decouples exactly into beta_inf*rho(W) + betaint_inf*eta,
    matching :func:`classify_general` with a scalar modulation.  It is
    the one point of ``decoupled``, the report of
    :func:`classify_decoupled` on ``model``, so no root is taken again.

    Raises:
        ValueError: the model's modulation is not scalar.
    """
    return _sharp(decoupled, model, Method.SCALAR_D)


def classify_decoupled(g: LocalityGraph, model: EpidemicModel,
                       boundary_tol: float = BOUNDARY_TOL,
                       spectral_tol: float = 1e-12) -> RegimeReport:
    """Classify with graph and modulation contributions decoupled.

    A lies between beta_inf*W shifted by betaint_inf*min(D) and by
    betaint_inf*max(D); as 0 <= M <= N gives rho(M) <= rho(N) and
    rho(M + cI) = rho(M) + c for c >= 0, rho(A) lies in
    beta_inf*rho(W) + betaint_inf*[min(D), max(D)].  delta above that
    bracket certifies fast extinction, below it a long-lasting epidemic;
    inside it the method is inconclusive (:func:`classify_general` may
    still decide).  A scalar D collapses it to one point, which
    :func:`classify_scalar_D` and :func:`classify_symmetric` report.
    """
    _check_boundary_tol(boundary_tol)
    d = model.d(g.node_count)
    graph_part = model.beta.limit * _perron_root(g, g.weights, spectral_tol)
    betaint_inf = model.beta_int.limit
    lower = graph_part + betaint_inf * float(d.min())
    upper = graph_part + betaint_inf * float(d.max())
    return _decide(model, lower, upper, boundary_tol, Method.DECOUPLED_WEYL,
                   lower_threshold=lower, upper_threshold=upper,
                   strongly_connected=is_strongly_connected(g))

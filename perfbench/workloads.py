"""Workload inputs, command lines and correctness checks.

Each workload turns a seed into input files, the ``dieout`` command
lines of one pass, and a check over a pass's outputs.  The checks
compare against references the benchmark computes itself (numpy,
scipy, mpmath), never against dieout's own functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

import inputs

#: A check result: (name, passed, detail).
Check = tuple[str, bool, str]

#: Largest |z| accepted between the ensemble mean and the exact mean.
Z_LIMIT = 4.0
#: Multiples of the mean's decay time at which the ensemble is checked.
MEAN_CHECK_TIMES = (0.5, 1.0, 2.0)

AIRPORTS_EDGES = Path("data") / "synthetic_airports.edges"
AIRPORTS_TOP = 100
AIRPORTS_DELTA = "8.02"

HITTING_N_MAX = 100_000
RATIONAL_N_MAX = 2000
ASYMPTOTE_GAMMAS = ("harmonic:5", "harmonic:4.5", "logn:1.5")
ASYMPTOTE_N_MAX = 100_000


@dataclass(frozen=True)
class Command:
    """One ``dieout`` invocation; ``key`` names its time metric."""

    key: str
    argv: tuple[str, ...]

    @property
    def threads(self) -> int:
        if "--threads" in self.argv:
            return int(self.argv[self.argv.index("--threads") + 1])
        return 1


@dataclass
class Prepared:
    """A workload instantiated for one seed."""

    commands: list[Command]
    setup_configs: list[str]
    check: Callable[[dict[str, Path]], list[Check]]
    edge_lines: int = 0
    count: dict | None = None        # counting-pass request, if any
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# references

def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def airports_matrix(path: Path, top: int = AIRPORTS_TOP) -> np.ndarray:
    """Top-``top`` subgraph of the fixture by in+out weight, rescaled so
    the mean column sum is one (the ``subset``/``normalize`` recipe)."""
    order: dict[str, int] = {}
    edges = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].split()
        if not line:
            continue
        src, dst, w = line
        for lab in (src, dst):
            order.setdefault(lab, len(order))
        edges.append((order[src], order[dst], float(w)))
    w = np.zeros((len(order), len(order)))
    for i, j, x in edges:
        if i != j:
            w[i, j] = x
    score = w.sum(axis=1) + w.sum(axis=0)
    keep = sorted(range(len(order)), key=lambda i: (-score[i], i))[:top]
    sub = w[np.ix_(keep, keep)]
    return sub / (sub.sum() / top)


def _read_totals(path: Path, grid_size: int, columns) -> np.ndarray:
    """Per-run totals at the given grid indices from trajectories.csv
    (rows are ordered run by run, grid point by grid point)."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    runs = len(lines) // grid_size
    if runs * grid_size != len(lines):
        raise ValueError("trajectories.csv does not tile the grid")
    return np.array([[int(lines[r * grid_size + k].rsplit(",", 1)[1])
                      for k in columns] for r in range(runs)])


def mean_check(out: Path, gen, rho: float, delta: float, x0: np.ndarray,
               t_max: float, grid_step: float) -> Check:
    """Ensemble mean total vs 1^T exp(tA) E[X0] at fixed grid times.

    ``gen`` is A = beta*W + beta_int*diag(D) - delta*I and ``x0`` is
    E[X0].
    """
    grid_size = int(round(t_max / grid_step)) + 1
    tau = 1.0 / (delta - rho)
    idx = [int(round(c * tau / grid_step)) for c in MEAN_CHECK_TIMES]
    totals = _read_totals(out / "trajectories.csv", grid_size, idx)
    zs = []
    for col, k in enumerate(idx):
        exact = float(expm_multiply(gen * (k * grid_step), x0).sum())
        sample = totals[:, col]
        sd = float(sample.std(ddof=1))
        if sd == 0.0:
            return ("simulate.mean", False, f"no spread at t={k * grid_step}")
        zs.append((float(sample.mean()) - exact) / (sd / math.sqrt(sample.size)))
    return ("simulate.mean", max(map(abs, zs)) <= Z_LIMIT,
            "z = " + ", ".join(f"{z:+.3f}" for z in zs))


def classify_checks(out: Path, rho: float) -> list[Check]:
    records = json.loads((out / "classify.json").read_text(encoding="utf-8"))
    by_method = {r["method"]: r for r in records}
    general = by_method["general_spectral"]["threshold"]
    dec = by_method["decoupled_weyl"]
    slack = 1e-9 * rho
    return [
        ("classify.threshold", _rel(general, rho) <= 1e-9,
         f"general {general!r} vs reference {rho!r}"),
        ("classify.bracket",
         dec["lower_threshold"] - slack <= rho <= dec["upper_threshold"] + slack,
         f"[{dec['lower_threshold']!r}, {dec['upper_threshold']!r}] "
         f"vs {rho!r}"),
    ]


def _hitting_rows(out: Path) -> list[list[str]]:
    text = (out / "hitting.csv").read_text(encoding="utf-8")
    return [line.split(",") for line in text.splitlines()[1:]]


# ---------------------------------------------------------------------------
# workloads

def _cmd(key: str, *argv: str) -> Command:
    return Command(key, tuple(argv))


def airports_dense(root: Path, work: Path, seed: int) -> Prepared:
    """The bundled fixture, fig2b recipe: classify, then simulate."""
    fixture = root / AIRPORTS_EDGES
    cfg = work / "airports.ini"
    cfg.write_text(
        f"[graph]\npath = {fixture}\nsubset = top:{AIRPORTS_TOP}\n"
        "normalize = true\n\n[profiles]\nbeta = const:2\nbeta_int = const:2\n\n"
        f"[dynamics]\ndelta = {AIRPORTS_DELTA}\n\n"
        "[simulation]\nruns = 1000\nn0 = 100\nt_max = 20\ngrid_step = 0.05\n"
        f"master_seed = {seed}\n", encoding="utf-8")
    w = airports_matrix(fixture)
    m = 2.0 * w + 2.0 * np.eye(w.shape[0])
    rho = float(np.max(np.linalg.eigvals(m).real))
    delta = float(AIRPORTS_DELTA)
    gen = m - delta * np.eye(w.shape[0])

    def check(outs):
        found = []
        if "classify" in outs:
            found += classify_checks(outs["classify"], rho)
        if "simulate" in outs:
            # every run seeds all 100 cases on one uniformly chosen node
            x0 = np.full(w.shape[0], 100 / w.shape[0])
            found.append(mean_check(outs["simulate"], gen, rho, delta, x0,
                                    20.0, 0.05))
        return found

    edge_lines = sum(1 for line in fixture.read_text().splitlines()
                     if line.split("#", 1)[0].strip())
    return Prepared(
        commands=[_cmd("classify", "classify", "--config", str(cfg)),
                  _cmd("simulate", "simulate", "--config", str(cfg),
                       "--threads", "1", "--seed", str(seed))],
        setup_configs=[str(cfg)], check=check, edge_lines=edge_lines,
        count={"config": str(cfg), "master_seed": seed},
        notes={"reference_rho": rho})


def sparse_modulated(root: Path, work: Path, seed: int) -> Prepared:
    """Seeded 20k-node directed, modulated graph: classify, then simulate."""
    model = inputs.sparse_model(seed)
    cfg = inputs.write_sparse_inputs(model, work, master_seed=seed)
    gen = (inputs.BETA * model.weights
           + sp.diags(inputs.BETA_INT * model.modulation
                      - model.delta)).tocsr()
    x0 = np.zeros(gen.shape[0])
    x0[model.initial] = 1.0

    def check(outs):
        found = []
        if "classify" in outs:
            found += classify_checks(outs["classify"], model.rho)
        if "simulate" in outs:
            found.append(mean_check(outs["simulate"], gen, model.rho,
                                    model.delta, x0, inputs.SPARSE_T_MAX,
                                    inputs.SPARSE_GRID_STEP))
        return found

    return Prepared(
        commands=[_cmd("classify", "classify", "--config", str(cfg)),
                  _cmd("simulate", "simulate", "--config", str(cfg),
                       "--threads", "2", "--seed", str(seed))],
        setup_configs=[str(cfg)], check=check,
        edge_lines=model.edge_count,
        count={"config": str(cfg), "master_seed": seed},
        notes={"reference_rho": model.rho, "delta": model.delta_text})


def hitting_certified(root: Path, work: Path, seed: int) -> Prepared:
    """fig5 at 256 bits, the same chain in exact rationals, then fig4's
    profiles cut to n_max 1e5.  No random input: the seed changes
    nothing here."""
    big = work / "hitting256.ini"
    big.write_text(
        "[dynamics]\ndelta = 1\n\n[hitting]\ngamma = harmonic:5\n"
        f"n_max = {HITTING_N_MAX}\nmode = bigfloat\nbits = 256\n"
        "rel_tol = 1e-30\n", encoding="utf-8")
    rat = work / "hitting_rational.ini"
    rat.write_text(
        "[dynamics]\ndelta = 1\n\n[hitting]\ngamma = harmonic:5\n"
        f"n_max = {RATIONAL_N_MAX}\nmode = rational\n", encoding="utf-8")
    asym = work / "asymptote.ini"
    asym.write_text(
        "[dynamics]\ndelta = 1\n\n[asymptote]\n"
        f"gammas = {' '.join(ASYMPTOTE_GAMMAS)}\nn_min = 10\n"
        f"n_max = {ASYMPTOTE_N_MAX}\npoints = 60\nmode = bigfloat\n"
        "bits = 256\nrel_tol = 1e-30\n", encoding="utf-8")

    def check(outs):
        found = []
        rows = {key: _hitting_rows(outs[key]) for key in
                ("hitting", "hitting_rational") if key in outs}
        for key, want in (("hitting", HITTING_N_MAX),
                          ("hitting_rational", RATIONAL_N_MAX)):
            if key in rows:
                ok = (len(rows[key]) == want
                      and all(r[3] == "true" for r in rows[key]))
                found.append((f"{key}.certified", ok,
                              f"{len(rows[key])} rows"))
        if "hitting" in rows:
            with mpmath.mp.workprec(320):
                t1 = mpmath.mpf(rows["hitting"][0][2])
                exact = (mpmath.e ** 5 - 1) / 5
                rel = float(abs(t1 - exact) / exact)
            found.append(("hitting.T1", rel <= 1e-25, f"rel {rel:.3e}"))
        if len(rows) == 2:
            worst = 0.0
            with mpmath.mp.workprec(320):
                for a, b in zip(rows["hitting"], rows["hitting_rational"]):
                    for col in (1, 2):
                        x, y = mpmath.mpf(a[col]), mpmath.mpf(b[col])
                        worst = max(worst, float(abs(x - y) / y))
            found.append(("hitting.rational_agrees", worst <= 1e-28,
                          f"max rel {worst:.3e}"))
        if "hitting" in rows and "asymptote" in outs:
            found.append(asymptote_check(outs["asymptote"], rows["hitting"]))
        return found

    return Prepared(
        commands=[_cmd("hitting", "hitting", "--config", str(big)),
                  _cmd("hitting_rational", "hitting", "--config", str(rat)),
                  _cmd("asymptote", "asymptote", "--config", str(asym))],
        setup_configs=[str(big), str(rat), str(asym)], check=check)


def asymptote_check(out: Path, hitting_rows) -> Check:
    """harmonic:5 ratios equal delta*T_n/ln(n) from the 256-bit table
    (delta = 1); the ratios are float64 diagnostics, hence 1e-12."""
    lines = (out / "ratios.csv").read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("ratio[harmonic:5]")
    worst = 0.0
    for line in lines[1:]:
        cells = line.split(",")
        n = int(cells[0])
        want = float(hitting_rows[n - 1][2]) / math.log(n)
        worst = max(worst, _rel(float(cells[col]), want))
    return ("asymptote.harmonic_ratio", worst <= 1e-12,
            f"max rel {worst:.3e} over {len(lines) - 1} states")


WORKLOADS = {
    "airports-dense": airports_dense,
    "sparse-modulated": sparse_modulated,
    "hitting-certified": hitting_certified,
}

#: Command keys in BENCHMARK.json order; each has a per-layer time metric.
COMMAND_KEYS = ("classify", "simulate", "hitting", "hitting_rational",
                "asymptote")

"""Seeded inputs for the benchmark workloads.

Every file written here is a pure function of the workload seed: the
same seed gives byte-identical edge lists, modulation files and
configuration files.  The sparse graph's curing rate is set from a
reference spectral radius computed here with ARPACK (scipy ``eigs``),
independently of the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigs

SPARSE_NODES = 20_000
SPARSE_RANDOM_IN_EDGES = 5      # per node, on top of the two ring edges
WEIGHT_MU, WEIGHT_SIGMA = 1.0, 0.5
SPARSE_RUNS = 80
SPARSE_T_MAX = 3.0
SPARSE_GRID_STEP = 0.01
BETA = 2
BETA_INT = 2
N0 = 100
THRESHOLD_RATIO = 1.10


@dataclass(frozen=True)
class SparseModel:
    """The generated graph as the benchmark's own reference sees it.

    ``weights`` is the CSR matrix W with row u holding the pressure
    received by u; ``modulation`` is D; ``rho`` is the reference
    Perron root of BETA*W + BETA_INT*diag(D); ``delta`` is the curing
    rate exactly as written to the configuration file; ``initial``
    holds the N0 nodes that start with one case each.
    """

    weights: sp.csr_matrix
    modulation: np.ndarray
    rho: float
    delta: float
    delta_text: str
    edge_count: int
    initial: np.ndarray


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), stream)))


def sparse_label(i: int) -> str:
    return f"v{i:05d}"


def perron_root(matrix: sp.spmatrix) -> float:
    """Reference Perron root via ARPACK with a fixed start vector."""
    n = matrix.shape[0]
    vals = eigs(matrix.tocsr(), k=1, which="LR", v0=np.ones(n),
                tol=1e-14, maxiter=100_000, return_eigenvectors=False)
    return float(vals[0].real)


def sparse_model(seed: int, n: int = SPARSE_NODES) -> SparseModel:
    """Directed graph: a two-way ring plus random in-edges per node.

    Weights are lognormal integers >= 1, so the edge list carries no
    float formatting.  Modulation values lie in [0.5, 1.5].  The N0
    initial cases sit on N0 distinct seeded nodes, one each: a single
    random start node per run would make the ensemble mean hinge on a
    few strongly amplifying start nodes, too rare for a small ensemble
    to sample, and the mean check would fail by chance.
    """
    rng = _rng(seed, 1)
    idx = np.arange(n, dtype=np.int64)
    ring_src = np.concatenate([idx, (idx + 1) % n])
    ring_dst = np.concatenate([(idx + 1) % n, idx])
    src = rng.integers(0, n, size=SPARSE_RANDOM_IN_EDGES * n)
    dst = rng.integers(0, n, size=SPARSE_RANDOM_IN_EDGES * n)
    keys = np.concatenate([ring_src * n + ring_dst, src * n + dst])
    keys = np.unique(keys)
    keys = keys[keys // n != keys % n]          # no self-loops
    rows, cols = keys // n, keys % n
    weights = np.maximum(1.0, np.rint(rng.lognormal(WEIGHT_MU, WEIGHT_SIGMA,
                                                   keys.size)))
    w = sp.csr_matrix((weights, (rows, cols)), shape=(n, n))
    d = np.round(rng.uniform(0.5, 1.5, n), 6)
    initial = np.sort(rng.choice(n, size=min(N0, n), replace=False))
    rho = perron_root(BETA * w + sp.diags(BETA_INT * d))
    delta_text = format(THRESHOLD_RATIO * rho, ".12g")
    return SparseModel(w, d, rho, float(delta_text), delta_text,
                       int(keys.size), initial)


def write_sparse_inputs(model: SparseModel, out_dir: Path,
                        master_seed: int) -> Path:
    """Write edge list, modulation, initial counts and configuration;
    return the configuration path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    coo = model.weights.tocoo()
    with open(out_dir / "sparse.edges", "w", encoding="utf-8") as fh:
        fh.write(f"# seeded sparse digraph: {model.weights.shape[0]} nodes, "
                 f"{model.edge_count} edges\n")
        fh.writelines(f"{sparse_label(r)} {sparse_label(c)} {int(w)}\n"
                      for r, c, w in zip(coo.row, coo.col, coo.data))
    with open(out_dir / "sparse.mod", "w", encoding="utf-8") as fh:
        fh.writelines(f"{sparse_label(i)} {v!r}\n"
                      for i, v in enumerate(model.modulation.tolist()))
    with open(out_dir / "sparse.initial", "w", encoding="utf-8") as fh:
        fh.writelines(f"{sparse_label(i)} 1\n" for i in model.initial)
    cfg = out_dir / "sparse.ini"
    cfg.write_text(
        "[graph]\npath = sparse.edges\nnormalize = false\n\n"
        f"[profiles]\nbeta = const:{BETA}\nbeta_int = const:{BETA_INT}\n\n"
        "[modulation]\nfile = sparse.mod\n\n"
        f"[dynamics]\ndelta = {model.delta_text}\n\n"
        f"[simulation]\nruns = {SPARSE_RUNS}\nn0 = {N0}\nt_max = {SPARSE_T_MAX}\n"
        f"grid_step = {SPARSE_GRID_STEP}\nmaster_seed = {master_seed}\n"
        "initial_file = sparse.initial\n",
        encoding="utf-8")
    return cfg

"""Tests for the benchmark's own code: input determinism, span
self-time arithmetic, and failure / missing-metric accounting."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------- inputs

def _written(tmp_path: Path, seed: int, name: str) -> dict:
    model = inputs.sparse_model(seed, n=300)
    cfg = inputs.write_sparse_inputs(model, tmp_path / name, master_seed=seed)
    return {p.name: p.read_bytes() for p in cfg.parent.iterdir()}


def test_sparse_inputs_are_byte_identical_per_seed(tmp_path):
    assert _written(tmp_path, 7, "a") == _written(tmp_path, 7, "b")
    assert _written(tmp_path, 7, "a") != _written(tmp_path, 8, "c")


def test_sparse_model_shape_and_threshold():
    model = inputs.sparse_model(3, n=300)
    w = model.weights
    assert w.diagonal().sum() == 0
    assert (w.data >= 1).all() and (w.data == np.rint(w.data)).all()
    assert 0.5 <= model.modulation.min() <= model.modulation.max() <= 1.5
    # two ring in-edges plus about five random ones per node
    assert 6.0 < w.nnz / 300 < 7.5
    dense = inputs.BETA * w.toarray() + inputs.BETA_INT * np.diag(
        model.modulation)
    rho = np.max(np.linalg.eigvals(dense).real)
    assert model.rho == pytest.approx(rho, rel=1e-10)
    assert model.delta == pytest.approx(inputs.THRESHOLD_RATIO * rho,
                                        rel=1e-10)


# ----------------------------------------------------------------- spans

def _span(sid, parent, name, start, end, attrs=None):
    return [sid, parent, name, start, end, attrs]


def test_self_time_subtracts_union_of_children():
    trace = [
        _span(0, -1, "cli.x", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 0, "b", 3.0, 5.0),      # overlaps a: union is [1, 5]
        _span(3, 0, "c", 8.0, 12.0),     # sticks out: only [8, 10] counts
        _span(4, 1, "d", 1.5, 2.0),      # grandchild: not subtracted from 0
    ]
    selfs = spans.self_times(trace)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[2:] == pytest.approx([2.0, 4.0, 0.5])


def test_tracer_records_nesting_errors_and_attrs():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x * 2,
                        attrs=lambda a, k, r: {"got": r})

    def outer():
        inner(3)
        raise MemoryError

    with pytest.raises(MemoryError):
        tracer.call("outer", outer)
    (o, i) = tracer.spans
    assert i[spans.PARENT] == o[spans.ID] and o[spans.PARENT] == -1
    assert i[spans.ATTRS] == {"got": 6}
    assert o[spans.ATTRS] == {"error": "MemoryError"}
    assert spans.self_times(tracer.spans) == [2.0, 1.0]


def test_summarize_counts_outermost_profile_rows_per_chain():
    ev = spans.PROFILE_EVAL
    trace = [
        _span(0, -1, "cli.hitting", 0.0, 10.0),
        _span(1, 0, "chains.hitting_table", 1.0, 9.0,
              {"mode": "bigfloat", "requested_rows": 3, "truncated_at": 4}),
        _span(2, 1, ev, 2.0, 3.0), _span(3, 2, ev, 2.2, 2.8),
        _span(4, 1, ev, 4.0, 5.0), _span(5, 1, ev, 6.0, 7.0),
        _span(6, 1, ev, 7.0, 8.0),
    ]
    got = spans.summarize(trace)
    assert got["chains.kernel_rows"] == 4
    assert got["chains.useful_row_ratio"] == pytest.approx(3 / 4)
    assert got["chains.truncation_index"] == 4
    assert got["chains.rows_per_s.bigfloat"] == pytest.approx(4 / 8.0)
    assert got["rates.profile_eval_s"] == pytest.approx(4.0)
    assert got["cli.self_s"] == pytest.approx(2.0)


def test_merge_spans_renumbers_ids_and_parents():
    a = [_span(0, -1, "cli.a", 0, 1), _span(1, 0, "x", 0, 1)]
    b = [_span(0, -1, "cli.b", 2, 3), _span(1, 0, "y", 2, 3)]
    merged = run.merge_spans([a, b])
    assert [s[:2] for s in merged] == [[0, -1], [1, 0], [2, -1], [3, 2]]


# ------------------------------------------------------------ accounting

def test_failed_command_reads_as_missing_and_counts():
    ledger = run.Ledger()
    ledger.operation("pass0:classify", False, "MemoryError")
    ledger.operation("pass0:simulate", True)
    ledger.check("pass0:simulate.mean", True)
    assert (ledger.attempted, ledger.failed) == (3, 1)
    assert ledger.correct                       # a crash is not a wrong answer
    assert ledger.fail_ratio == pytest.approx(1 / 3)
    ledger.check("pass0:other", False)
    assert not ledger.correct and ledger.failed == 2

    ok = {"ok": True, "seconds": 2.0}
    failed = {"ok": False, "seconds": 0.5, "error": "MemoryError"}
    assert run.command_time([failed]) == run.MISSING_S
    assert run.command_time([ok, failed, ok]) == 2.0
    assert run.command_time([ok, failed, failed]) == run.MISSING_S
    assert run.command_time([failed]) > run.RUN_DEADLINE_S


def test_identical_outputs_is_checked_only_with_repetitions():
    ledger = run.Ledger()
    run.identical_outputs([{"digests": {"a": "1", "b": "2"}},
                           {"digests": {"a": "1"}}], ledger)
    assert [op["op"] for op in ledger.log] == ["check:identical:a"]
    run.identical_outputs([{"digests": {"a": "1"}}, {"digests": {"a": "2"}}],
                          ledger)
    assert not ledger.correct


def test_tree_rss_adds_pool_workers_only():
    out = {"rss_kb": 2048, "worker_rss_kb": 1024}
    assert run.tree_rss_mb(out, workers=1) == 2.0
    assert run.tree_rss_mb(out, workers=2) == 4.0


def test_metric_sets_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = run.end_to_end(
        [{"outcomes": {"c": {"seconds": 1.0, "rss_mb": 5.0}}}], [0.5],
        run.Ledger(attempted=1))
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}

    class Prepared:
        edge_lines = 0

    outcome = {"ok": True, "seconds": 1.0, "spans": []}
    passes = [{"outcomes": {"hitting": outcome}}]
    traced = {"outcomes": {"hitting": outcome}, "bytes": 10}
    layer = run.per_layer(Prepared(), passes, traced, None,
                          run.Ledger(attempted=1))
    assert set(layer) == {m["name"] for m in spec["per_layer"]}
    assert layer["hitting_s"] == 1.0 and layer["classify_s"] == 0.0

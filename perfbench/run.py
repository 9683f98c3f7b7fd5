"""dieout benchmark: one closed-loop client driving ``dieout.cli.main``.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports dieout from
``src/`` and exits with code 2, printing no result, when that is
missing.  One client issues one command at a time; each command runs in
a fresh child process under a fixed address-space cap (``MEMORY_CAP``),
so running out of memory is a counted failure, not an OS kill.  The
only worker processes are the program's own pool (``--threads 2``).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` repeats the untraced passes, adds one traced pass and one
event-counting pass, and prints the per-layer metrics.  The last line
of standard output is the JSON result; the line before it holds
provenance and per-operation detail.  See README.md for definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".perfbench-work"

#: Address-space cap of every child process (RLIMIT_AS).  Above what
#: loading the 20k-node edge list needs (its dense n x n scratch array
#: is 3.2 GB), below what classify's dense copy of that graph plus the
#: temporaries of its symmetry check need.
MEMORY_CAP = 4 * 2**30
#: A failed command's time metric reads as this many seconds ("missing"):
#: more than any command may take, since the whole run must end sooner.
MISSING_S = 180.0
#: The run gives up on children past this many seconds from its start.
RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 3
#: Nominal wall time of one pass, used only to fix how many passes
#: ``--seconds`` buys, so a workload's operation count never varies.
NOMINAL_PASS_S = {
    "airports-dense": 14.0,
    "sparse-modulated": 21.0,
    "hitting-certified": 16.5,
}
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

#: ROADMAP "Recent" figures at the seed commit, reported next to the
#: results for orientation only; nothing here is tuned toward them.
ROADMAP_BASELINE = {
    "fig2b_simulate_s": 11.5,
    "fig5_hitting_s": 4.3,
    "fig4_asymptote_full_s": 84.0,
    "events_per_s_dense_100": 100_000,
    "events_per_s_sparse_20k": 11_500,
}


class SourceMissing(RuntimeError):
    """The checkout holds no dieout sources to benchmark."""


@dataclass
class Ledger:
    """Operations attempted and failed; an operation is one command,
    one set-up, one counting pass or one correctness check."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0                 # checks that ran and did not pass
    log: list = field(default_factory=list)

    def operation(self, name: str, ok: bool, detail: str = "") -> bool:
        ok = bool(ok)
        self.attempted += 1
        self.failed += not ok
        self.log.append({"op": name, "ok": ok, "detail": detail})
        return ok

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.wrong += not bool(ok)
        return self.operation("check:" + name, ok, detail)

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted


def command_time(outcomes) -> float:
    """Median wall time of one command over passes; a failed execution
    counts as MISSING_S, worse than any completed one."""
    return statistics.median(o["seconds"] if o["ok"] else MISSING_S
                             for o in outcomes)


def tree_rss_mb(outcome: dict, workers: int) -> float:
    """Peak RSS of a command's process tree: its own peak plus, per pool
    worker, the largest worker peak (an upper bound when peaks differ)."""
    kb = outcome.get("rss_kb", 0)
    if workers > 1:
        kb += workers * outcome.get("worker_rss_kb", 0)
    return kb / 1024.0


def data_digest(out: Path) -> str:
    """Hash of every data file under a command's output directory
    (meta.json excluded: it records versions, not results)."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*")
                       if p.is_file() and p.name != "meta.json"):
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


class Runner:
    """Starts child processes, one at a time, and reaps all of them."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.serial = 0

    def child(self, request: dict) -> dict:
        self.serial += 1
        tag = self.work / f"op{self.serial:03d}"
        request = {**request, "cap_bytes": MEMORY_CAP,
                   "result": str(tag) + ".result.json",
                   "spans": str(tag) + ".spans.json"}
        req_path = Path(str(tag) + ".request.json")
        req_path.write_text(json.dumps(request), encoding="utf-8")
        env = {**os.environ, **CHILD_ENV,
               "PYTHONPATH": os.pathsep.join(
                   p for p in (str(ROOT / "src"),
                               os.environ.get("PYTHONPATH")) if p)}
        with open(str(tag) + ".log", "w", encoding="utf-8") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(req_path)],
                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
                timed_out = False
            except subprocess.TimeoutExpired:
                timed_out = True
            finally:
                # the child's pool workers share its process group
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        result_path = Path(request["result"])
        if result_path.exists():
            result = json.loads(result_path.read_text(encoding="utf-8"))
        else:
            reason = ("timeout" if timed_out
                      else f"killed (exit {proc.returncode})")
            result = {"ok": False, "error": reason, "seconds": 0.0}
        if request.get("trace") and Path(request["spans"]).exists():
            result["spans"] = json.loads(
                Path(request["spans"]).read_text(encoding="utf-8"))
        return result


def run_pass(runner: Runner, prepared, ledger: Ledger, label: str,
             trace: bool = False) -> dict:
    """Run the workload's commands once, check the outputs, then drop
    them, keeping digests, sizes and timings."""
    pass_dir = runner.work / label
    outs, outcomes = {}, {}
    for cmd in prepared.commands:
        out = pass_dir / cmd.key
        res = runner.child({"mode": "command", "trace": trace,
                            "argv": [*cmd.argv, "--out", str(out)]})
        res["rss_mb"] = tree_rss_mb(res, cmd.threads)
        outcomes[cmd.key] = res
        detail = (f"{res.get('error', 'ok')} after {res['seconds']:.3f} s, "
                  f"peak {res['rss_mb']:.1f} MB")
        if ledger.operation(f"{label}:{cmd.key}", res["ok"], detail):
            outs[cmd.key] = out
    try:
        found = prepared.check(outs)
    except Exception as exc:  # noqa: BLE001 - unreadable output fails a check
        found = [("outputs_readable", False, f"{type(exc).__name__}: {exc}")]
    for name, ok, detail in found:
        ledger.check(f"{label}:{name}", ok, detail)
    digests = {key: data_digest(out) for key, out in outs.items()}
    written = sum(bytes_written(out) for out in outs.values())
    shutil.rmtree(pass_dir, ignore_errors=True)
    return {"outcomes": outcomes, "digests": digests, "bytes": written}


def identical_outputs(passes, ledger: Ledger) -> None:
    """Data files must be byte-identical across repetitions."""
    keys = set().union(*(p["digests"] for p in passes))
    for key in sorted(keys):
        seen = {p["digests"][key] for p in passes if key in p["digests"]}
        count = sum(key in p["digests"] for p in passes)
        if count >= 2:
            ledger.check(f"identical:{key}", len(seen) == 1,
                         f"{count} repetitions")


def merge_spans(span_lists) -> list:
    """Concatenate per-process span lists, renumbering ids."""
    merged = []
    for spans in span_lists:
        base = len(merged)
        for s in spans:
            parent = s[1] + base if s[1] != -1 else -1
            merged.append([s[0] + base, parent, *s[2:]])
    return merged


def _metrics(values: dict, specs: list) -> dict:
    names = [m["name"] for m in specs]
    if set(values) != set(names):
        raise RuntimeError(f"metric set mismatch: "
                           f"{sorted(set(values) ^ set(names))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in specs}


def end_to_end(passes, setups, ledger: Ledger) -> dict:
    return {
        "pass_s": statistics.median(
            sum(o["seconds"] for o in p["outcomes"].values())
            for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(
            max(o["rss_mb"] for o in p["outcomes"].values()) for p in passes),
        "ok_ratio": 1.0 - ledger.fail_ratio,
    }


def per_layer(prepared, passes, traced, count, ledger: Ledger) -> dict:
    import spans as spanlib
    from workloads import COMMAND_KEYS

    merged = merge_spans(o.get("spans", [])
                         for o in traced["outcomes"].values())
    values = spanlib.summarize(merged)
    load_calls = values.pop("config.load_graph_calls")
    load_s = values["config.load_graph_s"]
    values["config.edges_per_s"] = (prepared.edge_lines * load_calls / load_s
                                    if load_s > 0 else 0.0)
    for key in COMMAND_KEYS:
        values[f"{key}_s"] = (command_time([p["outcomes"][key]
                                            for p in passes])
                              if key in traced["outcomes"] else 0.0)
    events = count.get("events", 0) if count else 0
    ensemble_s = values["gillespie.run_ensemble_s"]
    values["gillespie.events"] = events
    values["gillespie.events_per_s"] = (events / ensemble_s
                                        if ensemble_s > 0 else 0.0)
    values["cli.bytes_written"] = traced["bytes"]
    self_s = values["cli.self_s"]
    values["cli.write_mb_per_s"] = (traced["bytes"] / 1e6 / self_s
                                    if self_s > 0 else 0.0)
    values["trace.overhead_s"] = sum(
        o["seconds"] - statistics.median(
            p["outcomes"][key]["seconds"] for p in passes)
        for key, o in traced["outcomes"].items())
    values["fail_ratio"] = ledger.fail_ratio
    return values


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(workload: str, seed: int) -> dict:
    import mpmath
    import numpy
    import scipy
    return {
        "workload": workload, "seed": seed,
        "cpu": _cpu_model(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "memory_cap_bytes": MEMORY_CAP, "git_commit": _git_commit(),
        "roadmap_baseline": ROADMAP_BASELINE,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "dieout" / "cli.py").is_file():
        raise SourceMissing(f"no dieout sources under {ROOT / 'src'}")
    import workloads

    started = time.monotonic()
    work = ROOT / WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = workloads.WORKLOADS[name](ROOT, work, seed)
        runner = Runner(work, started + RUN_DEADLINE_S)
        ledger = Ledger()
        setups = []
        if not trace:
            for i in range(SETUP_REPEATS):
                res = runner.child({"mode": "setup",
                                    "configs": prepared.setup_configs})
                if ledger.operation(f"setup{i}", res["ok"],
                                    res.get("error", "")):
                    setups.append(res["seconds"])
        n_passes = max(1, math.ceil(seconds / NOMINAL_PASS_S[name]))
        passes = [run_pass(runner, prepared, ledger, f"pass{i}")
                  for i in range(n_passes)]
        traced = count = None
        if trace:
            traced = run_pass(runner, prepared, ledger, "traced", trace=True)
            if prepared.count:
                count = runner.child({"mode": "count", **prepared.count})
                ledger.operation("count", count["ok"], count.get("error", ""))
        identical_outputs(passes + ([traced] if traced else []), ledger)

        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if trace:
            metrics = _metrics(per_layer(prepared, passes, traced, count,
                                         ledger), spec["per_layer"])
        else:
            if not setups:
                setups = [MISSING_S]
            metrics = _metrics(end_to_end(passes, setups, ledger),
                               spec["end_to_end"])
        detail = {
            "provenance": provenance(name, seed),
            "notes": prepared.notes,
            "wall_s": time.monotonic() - started,
            "operations": ledger.log,
        }
        return {"detail": detail,
                "result": {"correct": ledger.correct,
                           "attempted": ledger.attempted,
                           "failed": ledger.failed, "metrics": metrics}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*NOMINAL_PASS_S, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    names = list(NOMINAL_PASS_S) if args.workload == "all" else [args.workload]
    try:
        outs = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
                for n in names}
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, out in outs.items():
        print(json.dumps(out["detail"]))
        if len(outs) > 1:
            print(f"# {name}")
            for metric, m in out["result"]["metrics"].items():
                print(f"#   {metric:34s} {m['value']:>16.6g} {m['unit']}")
    if len(outs) == 1:
        print(json.dumps(next(iter(outs.values()))["result"]))
    else:
        print(json.dumps({n: o["result"] for n, o in outs.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's hold on the library, run against the real modules.

``perfbench/child.py`` wraps library functions by name when it traces a
command (``perfbench/spans.py``) and calls ``cli._sim_config`` and
``simulate_run`` in its counting pass.  Running both modes here makes a
rename or a changed signature fail the test suite, not only a traced
benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"

CONFIG = """
[graph]
path = g.edges

[profiles]
beta = const:1
beta_int = step:2,1/2,30

[modulation]
file = d.txt

[dynamics]
delta = 5

[simulation]
runs = 40
n0 = 6
t_max = 2.0
grid_step = 0.1
master_seed = 3
"""


def run_child(tmp_path: Path, name: str, request: dict) -> dict:
    """One child operation under the benchmark's own memory cap."""
    request = {**request, "cap_bytes": 4 * 2**30,
               "result": str(tmp_path / f"{name}.result.json"),
               "spans": str(tmp_path / f"{name}.spans.json")}
    req_path = tmp_path / f"{name}.request.json"
    req_path.write_text(json.dumps(request), encoding="utf-8")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
               if p)}
    proc = subprocess.run([sys.executable, str(CHILD), str(req_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(Path(request["result"]).read_text(encoding="utf-8"))
    assert result["ok"], result
    if request.get("trace"):
        result["spans"] = json.loads(
            Path(request["spans"]).read_text(encoding="utf-8"))
    return result


def test_traced_commands_and_counting_pass(tmp_path):
    (tmp_path / "g.edges").write_text(
        "a b 1\nb a 2\nb c 1\nc b 1\nc a 3\na c 1\n", encoding="utf-8")
    (tmp_path / "d.txt").write_text("a 1\nb 1.5\nc 0.5\n", encoding="utf-8")
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG, encoding="utf-8")

    names = {}
    for command in ("classify", "simulate"):
        res = run_child(tmp_path, command, {
            "mode": "command", "trace": True,
            "argv": [command, "--config", str(cfg),
                     "--out", str(tmp_path / command)]})
        assert res["exit_code"] == 0
        names[command] = {span[2] for span in res["spans"]}
    assert {"graphs.spectral_radius", "graphs.is_strongly_connected",
            "regime.classify_general", "config.load_modulation"
            } <= names["classify"]
    assert {"gillespie.run_ensemble", "config.load_graph"} <= names["simulate"]

    count = run_child(tmp_path, "count", {
        "mode": "count", "config": str(cfg), "master_seed": 3})
    assert count["runs"] == 40 and count["events"] > 0

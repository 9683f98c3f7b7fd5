"""One benchmark operation in a fresh process under an address-space cap.

Usage: ``python3 child.py REQUEST.json``.  The request names a mode:

* ``command``: import ``dieout.cli`` (untimed), then time one
  ``dieout.cli.main(argv)`` call in-process, optionally traced;
* ``setup``: time ``import dieout.cli`` plus one pass of
  ``load_config``, ``load_graph`` and ``load_modulation`` per config;
* ``count``: replay the ensemble of a simulate config through the
  public ``simulate_run`` with ``record_events=True`` and count events.

The cap (``RLIMIT_AS``) is set before anything else is imported, so
running out of memory raises ``MemoryError`` inside the operation
instead of inviting the OS to kill the process.  The outcome is
written to the request's ``result`` path as JSON; a missing result
file means the process died.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _peak_rss_kb() -> tuple[int, int]:
    """(own peak, largest reaped worker peak) in KiB.

    The own peak is ``VmHWM``: ``ru_maxrss`` would also count the
    benchmark process this child was spawned from.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh
                   if line.startswith("VmHWM:"))
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own, workers


def _run_command(req: dict) -> dict:
    import dieout.cli

    tracer = None
    if req.get("trace"):
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    out = {}
    t0 = time.perf_counter()
    try:
        if tracer is None:
            code = dieout.cli.main(req["argv"])
        else:
            code = tracer.call("cli." + req["argv"][0], dieout.cli.main,
                               req["argv"])
        out["exit_code"] = code
        out["ok"] = code == 0
    except MemoryError:
        out.update(ok=False, error="MemoryError")
    except Exception as exc:  # noqa: BLE001 - any crash is a counted failure
        out.update(ok=False, error=f"{type(exc).__name__}: {exc}",
                   traceback=traceback.format_exc())
    out["seconds"] = time.perf_counter() - t0
    if tracer is not None:
        with open(req["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return out


def _run_setup(req: dict) -> dict:
    t0 = time.perf_counter()
    import dieout.cli  # noqa: F401 - the import is part of set-up time
    from dieout.config import load_config, load_graph, load_modulation

    for path in req["configs"]:
        cfg = load_config(path)
        if cfg.graph.path:
            load_modulation(cfg, load_graph(cfg))
    return {"ok": True, "seconds": time.perf_counter() - t0}


def _run_count(req: dict) -> dict:
    import argparse
    from dataclasses import replace

    from dieout.cli import _sim_config
    from dieout.config import load_config, load_graph, simulation_grid
    from dieout.gillespie import simulate_run

    cfg = load_config(req["config"])
    g = load_graph(cfg)
    sim = cfg.simulation
    # the simulate command's own configuration, with events recorded
    sim_cfg = replace(
        _sim_config(cfg, g, argparse.Namespace(seed=req["master_seed"])),
        record_events=True)
    grid = simulation_grid(sim)
    events = extinct = 0
    for run in range(sim.runs):
        traj = simulate_run(sim_cfg, g, run, grid=grid)
        events += len(traj.events)
        extinct += traj.extinct_at is not None
    return {"ok": True, "events": events, "extinct_runs": extinct,
            "runs": sim.runs}


_MODES = {"command": _run_command, "setup": _run_setup, "count": _run_count}


def main(request_path: str) -> int:
    with open(request_path, "r", encoding="utf-8") as fh:
        req = json.load(fh)
    cap = int(req["cap_bytes"])
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    try:
        out = _MODES[req["mode"]](req)
    except MemoryError:
        out = {"ok": False, "error": "MemoryError"}
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        out = {"ok": False, "error": f"{type(exc).__name__}: {exc}",
               "traceback": traceback.format_exc()}
    out["rss_kb"], out["worker_rss_kb"] = _peak_rss_kb()
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

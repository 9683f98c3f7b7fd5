import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from dieout.cli import main
from dieout.config import (ConfigError, config_sha256, config_text,
                           load_config, simulation_grid)
from dieout.graphs import DENSE_NODE_LIMIT, LocalityGraph, spectral_radius

from conftest import DATA_DIR


def write_config(tmp_path: Path, body: str) -> Path:
    path = tmp_path / "exp.ini"
    path.write_text(body, encoding="utf-8")
    return path


def small_graph_file(tmp_path: Path) -> Path:
    path = tmp_path / "g.edges"
    path.write_text(
        "a b 1\nb a 1\nb c 1\nc b 1\nc a 1\na c 1\n", encoding="utf-8")
    return path


SIM_BODY = """
[graph]
path = {graph}

[profiles]
beta = const:2
beta_int = const:2

[dynamics]
delta = {delta}

[simulation]
runs = 40
n0 = 10
t_max = 6.0
grid_step = 0.2
master_seed = 314

[output]
directory = {out}
"""


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg_path = write_config(tmp_path, SIM_BODY.format(
            graph=small_graph_file(tmp_path), delta="6.6", out="out"))
        cfg = load_config(cfg_path)
        text = config_text(cfg)
        other = tmp_path / "copy.ini"
        other.write_text(text, encoding="utf-8")
        assert load_config(other) == cfg
        assert config_sha256(load_config(other)) == config_sha256(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "[simulation]\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            load_config(path)

    def test_grid_construction(self, tmp_path):
        cfg_path = write_config(tmp_path, SIM_BODY.format(
            graph=small_graph_file(tmp_path), delta="6.6", out="out"))
        grid = simulation_grid(load_config(cfg_path).simulation)
        assert grid[0] == 0.0
        assert grid.size == 31
        assert grid[-1] == pytest.approx(6.0)


class TestClassify:
    def test_fast_extinction_record(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_BODY.format(
            graph=small_graph_file(tmp_path), delta="6.6",
            out=tmp_path / "out"))
        assert main(["classify", "--config", str(cfg)]) == 0
        records = json.loads(capsys.readouterr().out)
        by_method = {r["method"]: r for r in records}
        # K3: threshold = 2*2 + 2 = 6 < 6.6
        gen = by_method["general_spectral"]
        assert gen["regime"] == "fast_extinction"
        assert gen["threshold"] == pytest.approx(6.0, abs=1e-9)
        assert by_method["symmetric_spectral"]["regime"] == "fast_extinction"
        assert by_method["scalar_d"]["regime"] == "fast_extinction"
        assert by_method["decoupled_weyl"]["regime"] == "fast_extinction"
        assert (tmp_path / "out" / "classify.json").exists()

    def test_long_lasting_record(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_BODY.format(
            graph=small_graph_file(tmp_path), delta="5.4",
            out=tmp_path / "out"))
        assert main(["classify", "--config", str(cfg)]) == 0
        records = json.loads(capsys.readouterr().out)
        gen = [r for r in records if r["method"] == "general_spectral"][0]
        assert gen["regime"] == "long_lasting"

    def test_decoupled_gap_fixture(self, tmp_path, capsys):
        graph = tmp_path / "gap.edges"
        graph.write_text("a b 4\nb a 1\n", encoding="utf-8")
        cfg = write_config(tmp_path, SIM_BODY.format(
            graph=graph, delta="2.2", out=tmp_path / "out").replace(
                "beta_int = const:2", "beta_int = const:0").replace(
                "beta = const:2", "beta = const:1"))
        assert main(["classify", "--config", str(cfg)]) == 0
        records = json.loads(capsys.readouterr().out)
        by_method = {r["method"]: r for r in records}
        assert by_method["decoupled_weyl"]["regime"] == "indeterminate"
        assert by_method["general_spectral"]["regime"] == "fast_extinction"

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_csr_graph_is_never_densified(self, tmp_path, capsys,
                                          monkeypatch, symmetric):
        # 2100 nodes: a two-way ring plus three random in-edges per node
        # (mirrored when symmetric), stored as CSR
        n = DENSE_NODE_LIMIT + 52
        rng = np.random.default_rng(5)
        w = {}
        for i in range(n):
            w[(i, (i + 1) % n)] = w[((i + 1) % n, i)] = 1.0
            for j in rng.choice(n, 3, replace=False):
                if j != i:
                    w[(i, int(j))] = float(rng.integers(1, 4))
        if symmetric:
            w = {(i, j): max(w.get((i, j), 0.0), w.get((j, i), 0.0))
                 for a, b in w for i, j in ((a, b), (b, a))}
        graph = tmp_path / "big.edges"
        graph.write_text("".join(f"v{i} v{j} {v}\n"
                                 for (i, j), v in sorted(w.items())),
                         encoding="utf-8")
        cfg = write_config(tmp_path, SIM_BODY.format(
            graph=graph, delta="30", out=tmp_path / "out"))

        def refuse(self):
            raise MemoryError("dense copy of a CSR graph")

        monkeypatch.setattr(LocalityGraph, "dense_weights", refuse)
        assert main(["classify", "--config", str(cfg)]) == 0
        records = json.loads(capsys.readouterr().out)
        methods = [r["method"] for r in records]
        assert ("symmetric_spectral" in methods) == symmetric
        m = sp.csr_matrix((list(w.values()), tuple(zip(*w))), shape=(n, n))
        rho = spectral_radius(2 * m + 2 * sp.identity(n), tol=1e-12).radius
        gen = records[methods.index("general_spectral")]
        assert gen["threshold"] == pytest.approx(rho, rel=1e-9)

    def test_missing_graph_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[profiles]\nbeta = const:1\n")
        assert main(["classify", "--config", str(cfg)]) == 1
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def run_once(self, tmp_path, out_name, seed=None):
        # decisively above threshold so every run dies within the horizon
        cfg = write_config(tmp_path, SIM_BODY.format(
            graph=small_graph_file(tmp_path), delta="8.5",
            out=tmp_path / out_name))
        argv = ["simulate", "--config", str(cfg)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert main(argv) == 0
        return tmp_path / out_name

    def test_outputs_and_schemas(self, tmp_path):
        out = self.run_once(tmp_path, "out")
        traj = (out / "trajectories.csv").read_text().splitlines()
        assert traj[0] == "t,run_id,total"
        assert len(traj) == 1 + 40 * 31
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "t,mean,lower95,upper95,survival_fraction"
        assert len(summary) == 32
        ext = (out / "extinctions.csv").read_text().splitlines()
        assert ext[0] == "run_id,t_extinct"
        meta = json.loads((out / "meta.json").read_text())
        assert meta["command"] == "simulate"
        assert set(meta["versions"]) >= {"dieout", "numpy", "scipy"}
        # all 40 runs die above threshold: trimmed extinction interval
        lo, hi = meta["extinction_time_95"]
        assert 0 < lo < hi

    def test_byte_identical_reruns(self, tmp_path):
        out1 = self.run_once(tmp_path, "out1")
        out2 = self.run_once(tmp_path, "out2")
        for name in ("trajectories.csv", "summary.csv", "extinctions.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        out1 = self.run_once(tmp_path, "out1")
        out3 = self.run_once(tmp_path, "out3", seed=999)
        assert ((out1 / "trajectories.csv").read_bytes()
                != (out3 / "trajectories.csv").read_bytes())

    def test_event_log_emission(self, tmp_path):
        body = SIM_BODY.format(graph=small_graph_file(tmp_path),
                               delta="6.6", out=tmp_path / "out")
        body = body.replace("master_seed = 314",
                            "master_seed = 314\nrecord_events = true")
        cfg = write_config(tmp_path, body)
        assert main(["simulate", "--config", str(cfg)]) == 0
        event_files = sorted((tmp_path / "out" / "events").glob("*.csv"))
        assert len(event_files) == 40
        lines = event_files[0].read_text().splitlines()
        assert lines[0] == "t,node_label,delta"
        label, delta = lines[1].split(",")[1:]
        assert label in {"a", "b", "c"}
        assert delta in {"1", "-1"}


class TestHitting:
    def test_monotone_table_with_certified_column(self, tmp_path):
        cfg = write_config(tmp_path, f"""
[dynamics]
delta = 1

[hitting]
gamma = harmonic:5
n_max = 200
mode = bigfloat
bits = 256
rel_tol = 1e-30

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["hitting", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "hitting.csv").read_text().splitlines()
        assert rows[0] == "n,S_n,T_n,certified"
        assert len(rows) == 201
        t_values = [float(r.split(",")[2]) for r in rows[1:]]
        assert all(b > a for a, b in zip(t_values, t_values[1:]))
        # T_1 = (e^5 - 1)/5
        assert t_values[0] == pytest.approx((np.e ** 5 - 1) / 5, rel=1e-12)
        assert all(r.split(",")[3] == "true" for r in rows[1:])

    def test_divergent_chain_exits_nonzero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f"""
[dynamics]
delta = 1

[hitting]
gamma = const:1
n_max = 10

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["hitting", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "infinite expected extinction time" in err

    def test_rational_mode(self, tmp_path):
        cfg = write_config(tmp_path, f"""
[dynamics]
delta = 1

[hitting]
gamma = const:1/2
n_max = 20
mode = rational
rel_tol = 1e-25

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["hitting", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "hitting.csv").read_text().splitlines()
        assert float(rows[1].split(",")[1]) == pytest.approx(
            2 * np.log(2), rel=1e-9)


class TestAsymptote:
    def test_ratio_columns_trend_toward_one(self, tmp_path):
        cfg = write_config(tmp_path, f"""
[dynamics]
delta = 1

[asymptote]
gammas = harmonic:5 harmonic:2 logn:1.5
n_min = 10
n_max = 100000
points = 12

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["asymptote", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "ratios.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert header[0] == "n"
        assert len(header) == 4
        first = rows[1].split(",")
        last = rows[-1].split(",")
        for col in (1, 2, 3):
            assert float(last[col]) < float(first[col])
            assert float(last[col]) > 1.0


class TestMeanfield:
    def test_decay_columns(self, tmp_path):
        cfg = write_config(tmp_path, f"""
[graph]
path = {small_graph_file(tmp_path)}

[profiles]
beta = const:0
beta_int = const:0

[dynamics]
delta = 1

[simulation]
n0 = 9

[meanfield]
t_max = 2.0
grid_step = 0.5
x0 = uniform

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["meanfield", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "meanfield.csv").read_text().splitlines()
        assert rows[0] == "t,a,b,c,total"
        start = rows[1].split(",")
        end = rows[-1].split(",")
        assert float(start[-1]) == pytest.approx(9.0)
        assert float(end[-1]) == pytest.approx(9.0 * np.exp(-2.0), rel=1e-9)

    def test_modulation_scales_within_locality_growth(self, tmp_path):
        # no coupling, beta_int * eta - delta = 1 * 2 - 1: growth as e^t
        cfg = write_config(tmp_path, f"""
[graph]
path = {small_graph_file(tmp_path)}

[profiles]
beta = const:0
beta_int = const:1

[modulation]
eta = 2

[dynamics]
delta = 1

[simulation]
n0 = 9

[meanfield]
t_max = 2.0
grid_step = 0.5
x0 = uniform

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["meanfield", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "meanfield.csv").read_text().splitlines()
        assert float(rows[-1].split(",")[-1]) == pytest.approx(
            9.0 * np.exp(2.0), rel=1e-9)

    def test_nonconstant_profile_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f"""
[graph]
path = {small_graph_file(tmp_path)}

[profiles]
beta = harmonic:1
beta_int = const:0

[dynamics]
delta = 1

[meanfield]
t_max = 1.0
grid_step = 0.5

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["meanfield", "--config", str(cfg)]) == 1
        assert "constant" in capsys.readouterr().err


class TestAirportRecipes:
    def test_fig2b_style_classify_on_shipped_fixture(self, tmp_path, capsys):
        # ratio 1.10 above the threshold of the normalized top-100 fixture
        cfg = write_config(tmp_path, f"""
[graph]
path = {DATA_DIR / 'synthetic_airports.edges'}
subset = top:100
normalize = true

[profiles]
beta = const:2
beta_int = const:2

[dynamics]
delta = 8.02

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["classify", "--config", str(cfg)]) == 0
        records = json.loads(capsys.readouterr().out)
        gen = [r for r in records if r["method"] == "general_spectral"][0]
        assert gen["regime"] == "fast_extinction"
        assert gen["strongly_connected"] is True

    def test_fig2a_style_classify(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f"""
[graph]
path = {DATA_DIR / 'synthetic_airports.edges'}
subset = top:100
normalize = true

[profiles]
beta = const:2
beta_int = const:2

[dynamics]
delta = 6.56

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["classify", "--config", str(cfg)]) == 0
        records = json.loads(capsys.readouterr().out)
        gen = [r for r in records if r["method"] == "general_spectral"][0]
        assert gen["regime"] == "long_lasting"


class TestConfigFiles:
    def test_subset_label_file(self, tmp_path, capsys):
        graph = tmp_path / "g.edges"
        graph.write_text("a b 1\nb a 1\nb c 1\nc b 1\nc d 9\nd c 9\n")
        subset = tmp_path / "keep.txt"
        subset.write_text("a\nb\nc\n")
        cfg = write_config(tmp_path, f"""
[graph]
path = {graph}
subset = {subset}

[profiles]
beta = const:1
beta_int = const:1

[dynamics]
delta = 5.0

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["classify", "--config", str(cfg)]) == 0
        records = json.loads(capsys.readouterr().out)
        gen = [r for r in records if r["method"] == "general_spectral"][0]
        # induced 3-node path: rho = sqrt(2), threshold = sqrt(2) + 1
        assert gen["threshold"] == pytest.approx(2 ** 0.5 + 1, abs=1e-9)

    def test_unknown_subset_label_fails_cleanly(self, tmp_path, capsys):
        graph = small_graph_file(tmp_path)
        subset = tmp_path / "keep.txt"
        subset.write_text("a\nzz\n")
        cfg = write_config(tmp_path, f"""
[graph]
path = {graph}
subset = {subset}

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["classify", "--config", str(cfg)]) == 1
        assert "zz" in capsys.readouterr().err

    def test_per_node_modulation_file(self, tmp_path, capsys):
        graph = small_graph_file(tmp_path)
        dfile = tmp_path / "d.txt"
        dfile.write_text("a 1.0\nb 2.0\nc 3.0\n")
        cfg = write_config(tmp_path, f"""
[graph]
path = {graph}

[profiles]
beta = const:0
beta_int = const:1

[modulation]
file = {dfile}

[dynamics]
delta = 5.0

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["classify", "--config", str(cfg)]) == 0
        records = json.loads(capsys.readouterr().out)
        methods = {r["method"] for r in records}
        assert "scalar_d" not in methods          # D is not scalar
        assert "symmetric_spectral" not in methods
        gen = [r for r in records if r["method"] == "general_spectral"][0]
        assert gen["threshold"] == pytest.approx(3.0, abs=1e-9)  # max D

    def test_initial_file_placement(self, tmp_path):
        graph = small_graph_file(tmp_path)
        init = tmp_path / "init.txt"
        init.write_text("b 7\n")
        body = SIM_BODY.format(graph=graph, delta="8.5",
                               out=tmp_path / "out")
        body = body.replace("n0 = 10", "n0 = 7\ninitial_file = init.txt")
        cfg = write_config(tmp_path, body)
        assert main(["simulate", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "trajectories.csv").read_text().splitlines()
        first = rows[1].split(",")
        assert first[0] == "0.0" and first[2] == "7"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_modulation_fails(self, tmp_path, capsys, value):
        dfile = tmp_path / "d.txt"
        dfile.write_text(f"a 1.0\nb {value}\nc 1.0\n")
        cfg = write_config(tmp_path, f"""
[graph]
path = {small_graph_file(tmp_path)}

[modulation]
file = {dfile}

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["classify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text, line, message", [
        ("b 5\nvX 7\n", 2, "not a graph node"),
        ("b 5\nc 1 2\n", 2, "expected 'label value'"),
        ("b 2.5\n", 1, "bad value"),
        ("b 5\na 1\nb 2\n", 3, "duplicate label"),
    ])
    def test_bad_initial_file_fails_with_location(self, tmp_path, capsys,
                                                  text, line, message):
        init = tmp_path / "init.txt"
        init.write_text(text)
        body = SIM_BODY.format(graph=small_graph_file(tmp_path), delta="8.5",
                               out=tmp_path / "out")
        body = body.replace("n0 = 10", "initial_file = init.txt")
        cfg = write_config(tmp_path, body)
        assert main(["simulate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{init}:{line}:" in err and message in err
        assert not (tmp_path / "out").exists()

    def test_asymptote_explicit_states(self, tmp_path):
        cfg = write_config(tmp_path, f"""
[dynamics]
delta = 1

[asymptote]
gammas = const:0
n_values = 10 100 10

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["asymptote", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "ratios.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["10", "100"]

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        graph = small_graph_file(tmp_path)
        cfg = write_config(tmp_path, SIM_BODY.format(
            graph=graph, delta="8.5", out=tmp_path / "o1"))
        assert main(["simulate", "--config", str(cfg), "--threads", "1"]) == 0
        cfg2 = write_config(tmp_path, SIM_BODY.format(
            graph=graph, delta="8.5", out=tmp_path / "o2"))
        assert main(["simulate", "--config", str(cfg2), "--threads", "2"]) == 0
        for name in ("trajectories.csv", "summary.csv", "extinctions.csv"):
            assert ((tmp_path / "o1" / name).read_bytes()
                    == (tmp_path / "o2" / name).read_bytes())

import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from argparse import Namespace
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp
from scipy.sparse.csgraph import connected_components

from dieout import chains, cli
from dieout.chains import (BirthDeathSpec, PrecisionConfig, asymptote_ratio,
                           hitting_table)
from dieout.cli import main
from dieout.config import (ConfigError, config_sha256, config_text,
                           load_config, load_graph, load_profiles,
                           simulation_grid, uniform_grid)
from dieout.gillespie import (DENSE_NODE_LIMIT, mean_field_trajectory,
                              run_ensemble, simulate_run)
from dieout.graphs import (LocalityGraph, load_edge_list, spectral_radius,
                           strong_components)
from dieout.rates import parse_parameter, parse_profile
from dieout.regime import classify_decoupled, classify_symmetric

import oracles
from conftest import DATA_DIR, const_model
from oracles import fraction_tail


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

    @pytest.mark.parametrize(
        "recipe", sorted((DATA_DIR.parent / "configs").glob("*.ini")),
        ids=lambda path: path.name)
    def test_trailing_comments(self, tmp_path, recipe):
        """A recipe with a ``#`` comment after every value loads as the
        recipe does; a ``#`` with no whitespace before it is a value's."""
        commented = tmp_path / recipe.name
        commented.write_text("".join(
            line + ("  # a comment\n" if "=" in line else "\n")
            for line in recipe.read_text(encoding="utf-8").splitlines()),
            encoding="utf-8")
        original = load_config(recipe)
        assert load_config(commented) == original
        assert config_sha256(load_config(commented)) == config_sha256(original)
        path = write_config(tmp_path, "[graph]\npath = a#b.edges # not a\n")
        assert load_config(path).graph.path == "a#b.edges"

    @pytest.mark.parametrize("section, key, text", [
        ("classify", "spectral_tol", "nan"),
        ("classify", "boundary_tol", "nan"),
        ("simulation", "t_max", "inf"),
        ("hitting", "rel_tol", "-inf")])
    def test_nonfinite_float_rejected(self, tmp_path, section, key, text):
        path = write_config(tmp_path, f"[{section}]\n{key} = {text}\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"[{section}] {key} = {text!r} is not finite"

    @pytest.mark.parametrize(
        "recipe", sorted((DATA_DIR.parent / "configs").glob("*.ini")),
        ids=lambda path: path.name)
    def test_shipped_recipe_loads_and_round_trips(self, tmp_path, recipe):
        cfg = load_config(recipe)
        simulation_grid(cfg.simulation)
        uniform_grid(cfg.meanfield.t_max, cfg.meanfield.grid_step,
                     "meanfield")
        for section in (cfg.hitting, cfg.asymptote):
            cli._precision_from(section)
        parse_parameter(cfg.dynamics.delta)
        load_profiles(cfg)
        for gamma in (cfg.hitting.gamma, *cfg.asymptote.gammas):
            if gamma:
                parse_profile(gamma, base_dir=cfg.base_dir)
        # the recipe's tolerances are accepted; rho(W) = 2 exactly
        model = const_model(1.0, 1.0, 3.0)
        dec = classify_decoupled(load_edge_list("a b 2\nb a 2"), model,
                                 boundary_tol=cfg.classify.boundary_tol,
                                 spectral_tol=cfg.classify.spectral_tol)
        assert classify_symmetric(dec, model).threshold == 3.0
        copy = tmp_path / recipe.name
        copy.write_text(config_text(cfg), encoding="utf-8")
        assert replace(load_config(copy), base_dir=cfg.base_dir) == cfg

    @pytest.mark.parametrize("section, key, text, shown", [
        ("classify", "spectral_tol", "-1", "-1.0"),
        ("classify", "spectral_tol", "0", "0.0"),
        ("classify", "boundary_tol", "-1", "-1.0"),
        ("hitting", "rel_tol", "0", "0.0"),
        ("hitting", "bits", "10", "10"),
        ("hitting", "max_terms", "0", "0"),
        ("hitting", "max_terms", "30", "30"),
        ("hitting", "n_max", "0", "0"),
        ("hitting", "mode", "exact", "'exact'"),
        ("asymptote", "rel_tol", "-1e-3", "-0.001"),
        ("asymptote", "bits", "10", "10"),
        ("asymptote", "mode", "exact", "'exact'"),
        ("asymptote", "n_values", "10 2000001", "'10 2000001'"),
        ("asymptote", "n_max", "2000001", "2000001")])
    def test_out_of_range_value_names_section_and_key(
            self, tmp_path, capsys, section, key, text, shown):
        needed = {"classify": "", "hitting": "gamma = harmonic:5\n",
                  "asymptote": "gammas = harmonic:5\n"}
        cfg = write_config(tmp_path, SIM_BODY.format(
            graph=small_graph_file(tmp_path), delta="6.6",
            out=tmp_path / "out")
            + f"\n[{section}]\n{needed[section]}{key} = {text}\n")
        assert main([section, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: [{section}] {key} = {shown} ")
        assert not (tmp_path / "out").exists()

    def test_kernel_caps_admit_their_edge(self, tmp_path):
        cfg = load_config(write_config(tmp_path, (
            "[hitting]\nn_max = 30\nmax_terms = 30\n"
            "[asymptote]\nn_max = 2000000\n")))
        assert cfg.hitting.max_terms == cfg.hitting.n_max
        assert cfg.asymptote.n_max == PrecisionConfig().max_terms

    @pytest.mark.parametrize("command, old, new, shown", [
        ("simulate", "runs = 40", "runs = 39", "[simulation] runs = 39 "
         "must be >= 40"),
        ("simulate", "n0 = 10", "n0 = 0", "[simulation] n0 = 0 must be >= 1"),
        ("meanfield", "n0 = 10", "n0 = -3",
         "[simulation] n0 = -3 must be >= 1"),
        ("simulate", "t_max = 6.0", "t_max = -5",
         "[simulation] t_max = -5.0 must be positive"),
        ("meanfield", "[output]", "[meanfield]\nt_max = 0\n\n[output]",
         "[meanfield] t_max = 0.0 must be positive")])
    def test_simulation_ranges_fail_before_the_graph_loads(
            self, tmp_path, capsys, monkeypatch, command, old, new, shown):
        def refuse(cfg):
            raise AssertionError("loaded the graph")

        monkeypatch.setattr(cli, "load_graph", refuse)
        body = SIM_BODY.format(graph=small_graph_file(tmp_path), delta="6.6",
                               out=tmp_path / "out")
        cfg = write_config(tmp_path, body.replace(old, new))
        assert main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {shown}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("keys, shown", [
        ("gammas = harmonic:5 logn:1 harmonic:5",
         "gammas = 'harmonic:5 logn:1 harmonic:5' repeats a profile"),
        ("gammas = harmonic:5\nn_min = 50\nn_max = 10\npoints = 5",
         "n_min = 50 is above n_max"),
        ("gammas = harmonic:5\nn_min = 1\nn_max = 1",
         "n_max = 1 must be >= 2"),
        ("gammas = harmonic:5\nn_values = 1 5",
         "n_values = '1 5' must all be >= 2"),
        ("gammas = harmonic:5\npoints = 0", "points = 0 must be >= 1"),
        ("gammas = harmonic:5\npoints = -2", "points = -2 must be >= 1")])
    def test_asymptote_ranges_name_the_key(self, tmp_path, capsys, keys,
                                           shown):
        cfg = write_config(tmp_path, f"[asymptote]\n{keys}\n\n"
                           f"[output]\ndirectory = {tmp_path / 'out'}\n")
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert str(err.value) == f"[asymptote] {shown}"
        assert main(["asymptote", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [asymptote] {shown}")
        assert not (tmp_path / "out").exists()

    def test_explicit_states_skip_the_log_spaced_checks(self, tmp_path):
        path = write_config(tmp_path, "[asymptote]\ngammas = harmonic:5\n"
                            "n_values = 3 7\nn_min = 50\nn_max = 10\n"
                            "points = 0\n")
        assert load_config(path).asymptote.n_values == (3, 7)

    def test_bits_are_not_checked_in_rational_mode(self, tmp_path):
        path = write_config(tmp_path, "[hitting]\nmode = rational\n"
                            "bits = 10\n")
        assert load_config(path).hitting.bits == 10

    @pytest.fixture
    def default_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # Python's default
        yield
        sys.set_int_max_str_digits(limit)

    def test_unprintable_bits_fail_before_the_kernel(
            self, tmp_path, capsys, monkeypatch, default_digit_limit):
        # 14,285 bits print 4,301 digits, one above the limit
        body = ("[hitting]\ngamma = harmonic:5\nn_max = 5\nbits = {}\n"
                f"[output]\ndirectory = {tmp_path / 'out'}\n")
        kernel = cli.hitting_table

        def refuse(*args):
            raise AssertionError("ran the kernel")

        monkeypatch.setattr(cli, "hitting_table", refuse)
        cfg = write_config(tmp_path, body.format(14_285))
        assert main(["hitting", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: [hitting] bits = 14285 is above 14284, the most whose "
            "decimals can be printed (sys.get_int_max_str_digits() is "
            "4300)\n")
        assert not (tmp_path / "out").exists()
        # asymptote prints no decimals: its bits have no cap
        asym = write_config(tmp_path, "[asymptote]\ngammas = harmonic:5\n"
                            "bits = 14285\n")
        assert load_config(asym).asymptote.bits == 14_285

        monkeypatch.setattr(cli, "hitting_table", kernel)
        cfg = write_config(tmp_path, body.format(14_284))
        assert main(["hitting", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "hitting.csv").read_text().splitlines()
        assert len(rows) == 6
        assert len(rows[1].split(",")[1].replace(".", "")) > 4000
        assert (tmp_path / "out" / "meta.json").exists()
        sys.set_int_max_str_digits(0)  # no limit, no cap
        cfg = write_config(tmp_path, body.format(10**6))
        assert load_config(cfg).hitting.bits == 10**6

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

    def test_grid_ends_exactly_at_t_max(self, tmp_path):
        # 3 * 0.1 is 0.30000000000000004; the last point is t_max itself
        assert uniform_grid(0.3, 0.1, "simulation")[-1] == 0.3
        body = SIM_BODY.format(graph=small_graph_file(tmp_path), delta="8.5",
                               out=tmp_path / "out")
        body = body.replace("t_max = 6.0\ngrid_step = 0.2",
                            "t_max = 0.3\ngrid_step = 0.1")
        assert main(["simulate", "--config",
                     str(write_config(tmp_path, body))]) == 0
        rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == [
            "0.0", "0.1", "0.2", "0.3"]

    @pytest.mark.parametrize("command", ["simulate", "meanfield"])
    @pytest.mark.parametrize("step", ["0.6", "0.4"])
    def test_grid_step_must_divide_t_max(self, tmp_path, capsys, command,
                                         step):
        # t_max = 1: a 0.6 step would report an unsimulated t = 1.2 and
        # a 0.4 step would stop the grid at 0.8
        body = SIM_BODY.format(graph=small_graph_file(tmp_path), delta="8.5",
                               out=tmp_path / "out")
        if command == "simulate":
            section = "simulation"
            body = body.replace("t_max = 6.0\ngrid_step = 0.2",
                                f"t_max = 1\ngrid_step = {step}")
        else:
            section = "meanfield"
            body += f"\n[meanfield]\nt_max = 1\ngrid_step = {step}\n"
        cfg = write_config(tmp_path, body)
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"[{section}] grid_step = {step}" in err
        assert "does not divide t_max" in err
        assert not (tmp_path / "out").exists()


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

    def test_graph_not_strongly_connected_warns_and_succeeds(self, tmp_path,
                                                             capsys):
        # nothing receives pressure from c
        graph = tmp_path / "g.edges"
        graph.write_text("a b 1\nb a 1\nc a 1\n", encoding="utf-8")
        cfg = write_config(tmp_path, SIM_BODY.format(
            graph=graph, delta="6.6", out=tmp_path / "out"))
        assert main(["classify", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: graph is not strongly connected; spectral positivity "
            "guarantees do not apply\n")
        records = json.loads(
            (tmp_path / "out" / "classify.json").read_text(encoding="utf-8"))
        assert records == json.loads(captured.out)
        assert [r["strongly_connected"] for r in records] == [False] * 3

    def test_nan_spectral_tol_fails_before_any_iteration(self, tmp_path,
                                                          capsys):
        # a NaN tolerance used to stop the power iteration at once and
        # report a wrong threshold with exit 0
        cfg = write_config(tmp_path, SIM_BODY.format(
            graph=small_graph_file(tmp_path), delta="6.6",
            out=tmp_path / "out") + "\n[classify]\nspectral_tol = nan\n")
        assert main(["classify", "--config", str(cfg)]) == 1
        assert ("[classify] spectral_tol = 'nan' is not finite"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_long_lasting_record(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_BODY.format(
            graph=small_graph_file(tmp_path), delta="5.4",
            out=tmp_path / "out"))
        assert main(["classify", "--config", str(cfg)]) == 0
        records = json.loads(capsys.readouterr().out)
        gen = [r for r in records if r["method"] == "general_spectral"][0]
        assert gen["regime"] == "long_lasting"

    def test_decoupled_gap_fixture(self, tmp_path, capsys):
        # rho(W) = 2 and D = diag(1, 2): the bracket is [3, 4], and
        # rho(A) = (3 + sqrt 17)/2 = 3.56 decides
        graph = tmp_path / "gap.edges"
        graph.write_text("a b 4\nb a 1\n", encoding="utf-8")
        (tmp_path / "d.txt").write_text("a 1\nb 2\n", encoding="utf-8")
        cfg = write_config(tmp_path, SIM_BODY.format(
            graph=graph, delta="3.7", out=tmp_path / "out").replace(
                "beta_int = const:2", "beta_int = const:1").replace(
                "beta = const:2", "beta = const:1")
            + "\n[modulation]\nfile = d.txt\n")
        assert main(["classify", "--config", str(cfg)]) == 0
        records = json.loads(capsys.readouterr().out)
        by_method = {r["method"]: r for r in records}
        dec = by_method["decoupled_weyl"]
        assert dec["regime"] == "indeterminate"
        assert (dec["lower_threshold"], dec["upper_threshold"]) == \
            pytest.approx((3.0, 4.0), abs=1e-9)
        assert by_method["general_spectral"]["regime"] == "fast_extinction"

    def test_reducible_symmetric_records_share_one_exact_root(
            self, tmp_path, capsys):
        # two two-way pairs, rho(W) = 2 on the heavier: every record,
        # symmetric_spectral included, reads 1 * 2 + 1 * 1 = 3 exactly;
        # the whole-matrix iteration gave 2.9999999999964184
        graph = tmp_path / "pairs.edges"
        graph.write_text("a b 1\nb a 1\nc d 2\nd c 2\n", encoding="utf-8")
        cfg = write_config(tmp_path, SIM_BODY.format(
            graph=graph, delta="2.5", out=tmp_path / "out").replace(
                "const:2", "const:1"))
        assert main(["classify", "--config", str(cfg)]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["method"] for r in records] == [
            "symmetric_spectral", "general_spectral", "scalar_d",
            "decoupled_weyl"]
        assert all((r["threshold"], r["margin"], r["regime"])
                   == (3.0, -0.5, "long_lasting") for r in records)

    def test_one_way_pair_is_exact(self, tmp_path, capsys):
        # A = W + I on c -> a is a Jordan block: the whole-matrix
        # iteration hit its cap in SpectralError; its two 1x1
        # blocks give rho(A) = 1 exactly
        graph = tmp_path / "pair.edges"
        graph.write_text("c a 1\n", encoding="utf-8")
        cfg = write_config(tmp_path, SIM_BODY.format(
            graph=graph, delta="2", out=tmp_path / "out").replace(
                "const:2", "const:1"))
        assert main(["classify", "--config", str(cfg)]) == 0
        records = json.loads(capsys.readouterr().out)
        gen = {r["method"]: r for r in records}["general_spectral"]
        assert (gen["threshold"], gen["regime"]) == (1.0, "fast_extinction")
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["components"] == 2

    @pytest.mark.parametrize("edges, modulation, components", [
        ("a b 1\nb a 1\nb c 1\nc b 1\nc a 1\na c 1\n", "a 1\nb 1\nc 1\n",
         1),
        ("a b 1\nb a 2\nc a 1\nd c 3\n", "a 1\nb 1.5\nc 0.5\nd 2\n", 3),
        ("a b 1\nb a 1\nc d 2\nd c 2\n", "a 1\nb 1\nc 1\nd 1\n", 2)])
    def test_iterates_only_A_W_or_their_blocks(self, tmp_path, monkeypatch,
                                               edges, modulation,
                                               components):
        # one strong-component split per classify; every matrix cli or
        # regime iterates is A = 2W + 2D or W, whole or on one
        # component, and none is iterated twice: the scalar-D and
        # symmetric records reuse the decoupled record's rho(W)
        from dieout import graphs, regime
        splits, iterated = [], []

        def split(m):
            splits.append(m)
            return strong_components(m)

        def record(matrix, **kwargs):
            iterated.append(matrix.toarray())
            return spectral_radius(matrix, **kwargs)

        monkeypatch.setattr(graphs, "strong_components", split)
        for owner in (cli, regime):
            monkeypatch.setattr(owner, "spectral_radius", record)
        graph = tmp_path / "g.edges"
        graph.write_text(edges, encoding="utf-8")
        (tmp_path / "d.txt").write_text(modulation, encoding="utf-8")
        cfg = write_config(tmp_path, SIM_BODY.format(
            graph=graph, delta="9", out=tmp_path / "out")
            + "\n[modulation]\nfile = d.txt\n")
        assert main(["classify", "--config", str(cfg)]) == 0
        assert len(splits) == 1
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["components"] == components

        g = load_edge_list(edges)
        w = g.weights.toarray()
        d = [float(line.split()[1]) for line in modulation.splitlines()]
        records = json.loads((tmp_path / "out" / "classify.json").read_text())
        assert (("symmetric_spectral" in [r["method"] for r in records])
                == ((w == w.T).all() and set(d) == {1.0}))
        count, label = connected_components(w, connection="strong")
        blocks = [np.flatnonzero(label == k) for k in range(count)]
        allowed = [m[np.ix_(b, b)] for m in (2 * w + 2 * np.diag(d), w)
                   for b in blocks if b.size > 1]
        assert iterated
        for m in iterated:
            assert any(m.shape == x.shape and (m == x).all()
                       for x in allowed)
        for m, x in itertools.combinations(iterated, 2):
            assert not (m.shape == x.shape and (m == x).all())

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


class TestOverflowingInputs:
    """Inputs past float64's range fail at once: exit 1, one ``error:``
    line, no traceback and no warning."""

    STAR = "a b 1\na c 1\nb a 1\nc a 1\n"
    HUGE = "a b 1e308\na c 1e308\nb a 1\nc a 1\n"

    def run(self, tmp_path, capsys, command, edges, beta="2"):
        graph = tmp_path / "g.edges"
        graph.write_text(edges, encoding="utf-8")
        body = SIM_BODY.format(graph=graph, delta="2", out=tmp_path / "out")
        body = body.replace("beta = const:2\n", f"beta = const:{beta}\n")
        cfg = write_config(tmp_path, body + "\n[meanfield]\nt_max = 1\n")
        return self.error_line(capsys, command, cfg)

    def error_line(self, capsys, command, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (cfg.parent / "out").exists()  # refused at load
        return err

    @pytest.mark.parametrize("command", ["classify", "simulate", "meanfield"])
    def test_weights_summing_past_float64(self, tmp_path, capsys, command):
        # classify wrote "threshold": NaN with exit 0, simulate hung and
        # meanfield died with an OverflowError traceback
        err = self.run(tmp_path, capsys, command, self.HUGE)
        assert "scale the weights down" in err

    def test_growth_matrix_past_float64(self, tmp_path, capsys):
        # W is ordinary, but beta_inf * W overflows in the power
        # iteration; general_spectral read NaN with exit 0
        err = self.run(tmp_path, capsys, "classify", self.STAR, beta="1e308")
        assert "float64" in err

    @pytest.mark.parametrize("command", ["simulate", "classify", "meanfield"])
    def test_rates_past_float64_at_every_count(self, tmp_path, capsys,
                                               command):
        # beta * (W X) is inf at every count: simulate reported all 40
        # runs extinct with exit 0, classify and meanfield warned first
        graph = tmp_path / "g.edges"
        graph.write_text("a b 2\nb a 2\na c 2\nc a 2\n", encoding="utf-8")
        cfg = write_config(tmp_path, "\n".join([
            "[graph]", f"path = {graph}", "[profiles]", "beta = const:1e308",
            "[dynamics]", "delta = 1", "[simulation]", "runs = 40",
            "n0 = 5", "t_max = 1", "grid_step = 0.5", "[meanfield]",
            "t_max = 1", "grid_step = 0.5", "[output]",
            f"directory = {tmp_path / 'out'}", ""]))
        assert "float64" in self.error_line(capsys, command, cfg)


class TestFailFast:
    """Profiles, grids and the form of x0 are checked before the graph
    is read; every profile, and the output directory, before the
    compute stage."""

    #: the compute stage of each command, as cli calls it
    COMPUTE = {"classify": "classify_general", "simulate": "run_ensemble",
               "hitting": "hitting_table", "asymptote": "asymptote_ratio",
               "meanfield": "mean_field_trajectory"}

    def refuse_compute(self, monkeypatch, command):
        def compute(*args, **kwargs):
            raise AssertionError("the compute stage ran")

        monkeypatch.setattr(cli, self.COMPUTE[command], compute)

    def test_every_profile_parses_before_the_first_kernel_pass(
            self, tmp_path, capsys, monkeypatch):
        # bogus:1 was refused only after the first two profiles' passes
        self.refuse_compute(monkeypatch, "asymptote")
        cfg = write_config(tmp_path, (
            "[dynamics]\ndelta = 1\n[asymptote]\n"
            "gammas = harmonic:5 logn:1.5 bogus:1\nn_max = 1000000\n"))
        code = main(["asymptote", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: unknown profile family 'bogus'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", list(COMPUTE))
    def test_out_naming_a_file_fails_before_the_compute_stage(
            self, tmp_path, capsys, monkeypatch, command):
        # simulate used to run its whole ensemble before mkdir refused
        self.refuse_compute(monkeypatch, command)
        body = SIM_BODY.format(graph=small_graph_file(tmp_path), delta="8.5",
                               out=tmp_path / "out")
        cfg = write_config(tmp_path, body + (
            "\n[hitting]\ngamma = harmonic:5\nn_max = 5\n"
            "[asymptote]\ngammas = harmonic:5\nn_values = 10\n"
            "[meanfield]\nt_max = 1\ngrid_step = 0.5\n"))
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert main([command, "--config", str(cfg), "--out", str(afile)]) == 1
        assert capsys.readouterr().err == f"error: {afile}: File exists\n"
        assert afile.read_text() == "kept\n"

    def test_a_failed_compute_stage_removes_the_directories_it_made(
            self, tmp_path, capsys):
        # gamma = 2 against delta = 1 diverges: exit 2 once --out is made
        cfg = write_config(tmp_path, "[dynamics]\ndelta = 1\n[hitting]\n"
                                     "gamma = const:2\nn_max = 5\n")
        out = tmp_path / "new" / "out"
        argv = ["hitting", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        assert "infinite expected extinction time" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()
        # a directory that was there before the command stays
        out.mkdir(parents=True)
        assert main(argv) == 2
        assert out.is_dir()

    def test_a_directory_holding_output_is_kept(self, tmp_path, capsys,
                                                monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("after the data files")

        monkeypatch.setattr(cli, "_write_meta", fail)
        cfg = write_config(tmp_path, SIM_BODY.format(
            graph=small_graph_file(tmp_path), delta="8.5",
            out=tmp_path / "out"))
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: after the data files\n"
        assert (tmp_path / "out" / "summary.csv").is_file()

    @pytest.mark.parametrize("command, old, new, message", [
        (command, "beta = const:2", "beta = cnst:2",
         "unknown profile family 'cnst'")
        for command in ("classify", "simulate", "meanfield")] + [
        ("simulate", "beta = const:2", "beta = table:missing",
         "{tmp}/missing: No such file or directory"),
        ("simulate", "grid_step = 0.2", "grid_step = 0.25001",
         "[simulation] grid_step = 0.25001 does not divide t_max = 6.0"),
        ("meanfield", "grid_step = 0.5", "grid_step = 0.3",
         "[meanfield] grid_step = 0.3 does not divide t_max = 1.0"),
        ("meanfield", "x0 = uniform", "x0 = bogus",
         "[meanfield] x0 'bogus': use uniform or node:LABEL")])
    def test_bad_setting_fails_before_the_graph(self, tmp_path, capsys,
                                                monkeypatch, command, old,
                                                new, message):
        def load_graph(cfg):
            raise AssertionError("the graph was read")

        monkeypatch.setattr(cli, "load_graph", load_graph)
        body = SIM_BODY.format(graph=tmp_path / "absent.edges", delta="2",
                               out=tmp_path / "out")
        body += "\n[meanfield]\nt_max = 1.0\ngrid_step = 0.5\nx0 = uniform\n"
        assert old in body
        cfg = write_config(tmp_path, body.replace(old, new))
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message.format(tmp=tmp_path)}\n"


class TestRefusals:
    """Each refused setting exits 1 with exactly one ``error:`` line."""

    @pytest.mark.parametrize("command, body, message", [
        ("classify", "[graph]\npath = {graph}\nsubset = top:x\n",
         "[graph] subset 'top:x': bad count"),
        ("classify", "[graph]\npath = {graph}\nsubset = {empty}\n",
         "[graph] subset: {empty} names no node"),
        ("classify", "[graph]\npath = {graph}\n"
         "[modulation]\neta = 2\nfile = {mod}\n",
         "[modulation] give either eta or file, not both"),
        ("classify", "[graph]\npath = {graph}\n[modulation]\nfile = {mod}\n",
         "modulation file {mod} is missing node 'A00'"),
        ("simulate", "[simulation]\ngrid_step = 0\n",
         "[simulation] grid_step = 0.0 must be positive"),
        ("meanfield", "[meanfield]\nt_max = 1\ngrid_step = 2\n",
         "[meanfield] grid_step = 2.0 is larger than t_max = 1.0"),
        ("hitting", "", "[hitting] gamma is required"),
        ("asymptote", "", "[asymptote] gammas is required"),
        # a file that cannot be read is named with the reason
        ("hitting", "[hitting]\ngamma = table:missing\n",
         "{missing}: No such file or directory"),
        ("hitting", "[hitting]\ngamma = table:.\n", "{dir}: Is a directory"),
        ("simulate", None, "{cfg}: No such file or directory"),
        ("classify", "[graph]\npath = {missing}\n",
         "{missing}: No such file or directory"),
        ("classify", "[graph]\npath = {dir}\n", "{dir}: Is a directory"),
        ("classify", "[graph]\npath = {graph}\nsubset = {missing}\n",
         "{missing}: No such file or directory"),
        ("classify", "[graph]\npath = {graph}\n[modulation]\n"
         "file = {missing}\n", "{missing}: No such file or directory"),
        ("simulate", "[graph]\npath = {graph}\n[simulation]\n"
         "initial_file = {missing}\n",
         "{missing}: No such file or directory"),
        ("simulate", "[simulation]\nmaster_seed = -5\n",
         "[simulation] master_seed = -5 must be >= 0")] + [
        # delta is checked when the file loads, before the missing graph
        (command, f"[graph]\npath = missing.edges\n[dynamics]\n"
         f"delta = {delta}\n", f"[dynamics] delta = {delta!r} {problem}")
        for command in ("classify", "simulate", "meanfield")
        for delta, problem in (
            ("0", "must be positive"), ("-1/2", "must be positive"),
            ("abc", "is not a valid parameter: cannot parse parameter "
             "'abc'"))] + [
        (command, f"[{section}]\ngrid_step = {step}\nt_max = 10\n",
         f"[{section}] grid_step = {step} makes more than 10,000,000 grid "
         "points up to t_max = 10.0")
        for command, section in (("simulate", "simulation"),
                                 ("meanfield", "meanfield"))
        for step in ("1e-12", "5e-324")])
    def test_refusal_is_one_error_line(self, tmp_path, capsys, command, body,
                                       message):
        paths = {"graph": tmp_path / "g.edges", "mod": tmp_path / "mod.txt",
                 "empty": tmp_path / "empty.txt", "cfg": tmp_path / "exp.ini",
                 "missing": tmp_path / "missing", "dir": tmp_path}
        paths["graph"].write_text("A00 B01 1\nB01 A00 1\n", encoding="utf-8")
        paths["mod"].write_text("B01 2\n", encoding="utf-8")
        paths["empty"].write_text("# no node kept\n\n", encoding="utf-8")
        if body is not None:
            write_config(tmp_path, body.format(**paths))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([command, "--config", str(paths["cfg"]),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {message.format(**paths)}\n"
        assert not (tmp_path / "out").exists()

    def test_config_naming_a_directory_is_one_error_line(self, tmp_path,
                                                         capsys):
        code = main(["classify", "--config", str(tmp_path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path}: Is a directory\n"
        assert not (tmp_path / "out").exists()


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

    def test_meta_counts_events_and_run_outcomes(self, tmp_path):
        # at the threshold some runs die out and some reach t_max
        cfg_path = write_config(tmp_path, SIM_BODY.format(
            graph=small_graph_file(tmp_path), delta="6",
            out=tmp_path / "out"))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["extinct_runs"] + meta["truncated_runs"] == meta["runs"]
        assert meta["extinct_runs"] > 0 and meta["truncated_runs"] > 0
        assert meta["ensemble_s"] > 0
        cfg = load_config(cfg_path)
        g = load_graph(cfg)
        sim_cfg = replace(cli._sim_config(cfg, g, Namespace(seed=None)),
                          record_events=True)
        runs = [simulate_run(sim_cfg, g, i) for i in range(meta["runs"])]
        assert meta["events"] == sum(len(r.events) for r in runs)
        assert meta["null_events"] == sum(r.null_events for r in runs)
        assert meta["truncated_runs"] == sum(r.extinct_at is None
                                             for r in runs)

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

    @pytest.mark.parametrize("argv", [
        ["hitting", "--seed", "3"], ["hitting", "--threads", "7"],
        ["classify", "--threads", "1"], ["simulate", "--threads", "-3"],
        ["simulate", "--threads", "two"], ["simulate", "--seed", "-1"]])
    def test_inert_or_negative_flags_are_usage_errors(self, tmp_path, capsys,
                                                      argv):
        # --seed and --threads belong to simulate, 0 is the only thread
        # count that means the machine default, and seeds are >= 0
        cfg = write_config(tmp_path, SIM_BODY.format(
            graph=small_graph_file(tmp_path), delta="8.5",
            out=tmp_path / "out"))
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--config", str(cfg)])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert argv[1] in err
        if argv[0] == "simulate":  # the subcommand's own usage line
            assert err.startswith("usage: dieout simulate")
        assert not (tmp_path / "out").exists()

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


class TestQuotedLabels:
    """Files naming nodes whose labels hold "," and '"' are byte-equal
    to what csv.writer writes for the same rows."""

    EDGES = ('a,b c"d 1\nc"d a,b 1\nc"d "q" 2\n"q" a,b 1\n'
             'plain "q" 0.5\na,b plain 1\n')

    def config(self, tmp_path, extra: str):
        graph = tmp_path / "quoted.edges"
        graph.write_text(self.EDGES, encoding="utf-8")
        body = SIM_BODY.format(graph=graph, delta="8", out=tmp_path / "out")
        return load_config(write_config(tmp_path, body + extra))

    def test_simulate_with_events(self, tmp_path):
        cfg = self.config(tmp_path, "")
        cfg = replace(cfg, simulation=replace(cfg.simulation,
                                              record_events=True))
        (tmp_path / "exp.ini").write_text(config_text(cfg), encoding="utf-8")
        assert main(["simulate", "--config", str(tmp_path / "exp.ini")]) == 0
        g = load_graph(cfg)
        grid = simulation_grid(cfg.simulation)
        summary = run_ensemble(cli._sim_config(cfg, g, Namespace(seed=None)),
                               g, cfg.simulation.runs, grid)
        want = tmp_path / "want"
        want.mkdir()
        oracles.write_simulate_csvs(want, summary, grid, g.labels)
        files = sorted(p.relative_to(want) for p in want.rglob("*.csv"))
        assert len(files) == 3 + cfg.simulation.runs
        assert files == sorted(p.relative_to(tmp_path / "out")
                               for p in (tmp_path / "out").rglob("*.csv"))
        assert any('"a,b"' in (want / f).read_text() for f in files)
        for f in files:
            assert (tmp_path / "out" / f).read_bytes() == (
                want / f).read_bytes(), f

    def test_meanfield(self, tmp_path):
        cfg = self.config(
            tmp_path, '\n[meanfield]\nt_max = 3\ngrid_step = 0.1\n'
            'x0 = node:c"d\n')
        assert main(["meanfield", "--config", str(tmp_path / "exp.ini")]) == 0
        g = load_graph(cfg)
        grid = uniform_grid(3, 0.1, "meanfield")
        x0 = np.zeros(g.node_count)
        x0[g.index('c"d')] = cfg.simulation.n0
        oracles.write_meanfield_csv(
            tmp_path / "want.csv", g.labels, grid,
            mean_field_trajectory(g, cli._model(cfg, g), x0, grid))
        got = (tmp_path / "out" / "meanfield.csv").read_bytes()
        assert got.startswith(b't,"a,b","c""d","""q""",plain,total\r\n')
        assert got == (tmp_path / "want.csv").read_bytes()


HITTING_BODY = """
[dynamics]
delta = {delta}

[hitting]
gamma = {gamma}
n_max = {n_max}
mode = {mode}
{extra}
[output]
directory = {out}
"""


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

    def test_meta_reports_truncation_and_error_bound(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f"""
[dynamics]
delta = 1

[hitting]
gamma = step:5,1/2,40
n_max = 30
rel_tol = 1e-30

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["hitting", "--config", str(cfg)]) == 0
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["certified"] is True
        assert meta["truncated_at"] >= meta["planned_truncation"] > 30
        assert meta["extension_passes"] == 0
        assert 0 < meta["max_rel_error_bound"] <= 1e-30
        assert meta["kernel_s"] >= 0 and meta["write_s"] >= 0
        out = capsys.readouterr().out
        assert "planned" not in out and "bound" not in out
        header = (tmp_path / "out" / "hitting.csv").read_text().split("\n")[0]
        assert header == "n,S_n,T_n,certified"

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

    @pytest.mark.parametrize("mode", ["rational", "bigfloat"])
    def test_cells_match_the_fraction_and_mpf_routes(self, tmp_path, mode):
        spec = BirthDeathSpec(parse_profile("harmonic:5"), Fraction(3, 2))
        precision = PrecisionConfig(mode)
        if mode == "rational":  # the Fraction loop's values
            S = fraction_tail(spec, 60, precision).values[1:]
            T = list(itertools.accumulate(S))
        else:  # the mpf numbers the writer used to take
            table = hitting_table(spec, 60, precision)
            S, T = table.S, table.T
        digits = precision.decimal_digits
        want = ["n,S_n,T_n,certified"] + [
            f"{n},{fmt_precise(s, digits)},{fmt_precise(t, digits)},true"
            for n, (s, t) in enumerate(zip(S, T), 1)]
        cfg = write_config(tmp_path, HITTING_BODY.format(
            delta="3/2", gamma="harmonic:5", n_max=60, mode=mode, extra="",
            out=tmp_path / "out"))
        assert main(["hitting", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "hitting.csv").read_text(
            encoding="utf-8").splitlines() == want

    @pytest.mark.parametrize("mode", ["bigfloat", "rational"])
    def test_bytes_match_the_csv_writer(self, tmp_path, mode):
        cfg = write_config(tmp_path, HITTING_BODY.format(
            delta=1, gamma="harmonic:5", n_max=2000, mode=mode, extra="",
            out=tmp_path / "out"))
        assert main(["hitting", "--config", str(cfg)]) == 0
        precision = PrecisionConfig(mode)
        table = hitting_table(BirthDeathSpec(parse_profile("harmonic:5"),
                                             Fraction(1)), 2000, precision)
        oracles.write_hitting_csv(tmp_path / "want.csv", table,
                                  precision.decimal_digits)
        assert ((tmp_path / "out" / "hitting.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    @pytest.mark.parametrize("mode", ["bigfloat", "rational"])
    def test_t_column_streams_without_the_prefix_list(self, tmp_path,
                                                      monkeypatch, mode):
        # T_n is streamed as one running sum of the S_n numerators: no
        # list of every T_n numerator (Q_1-sized in rational mode) is
        # built, and the bytes stay the oracle writer's
        precision = PrecisionConfig(mode)
        table = hitting_table(BirthDeathSpec(parse_profile("harmonic:5"),
                                             Fraction(1)), 300, precision)
        oracles.write_hitting_csv(tmp_path / "want.csv", table,
                                  precision.decimal_digits)
        reads = []
        accumulate = itertools.accumulate

        def spy(numbers):
            reads.append(numbers)
            return accumulate(numbers)

        monkeypatch.setattr(itertools, "accumulate", spy)
        monkeypatch.setattr(chains.HittingTable, "T", property(reads.append))
        cfg = write_config(tmp_path, HITTING_BODY.format(
            delta=1, gamma="harmonic:5", n_max=300, mode=mode, extra="",
            out=tmp_path / "out"))
        assert main(["hitting", "--config", str(cfg)]) == 0
        assert reads == [table.numerators]
        assert ((tmp_path / "out" / "hitting.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    @pytest.mark.parametrize("command", ["hitting", "asymptote"])
    def test_irrational_gamma_in_rational_mode_is_an_error(
            self, tmp_path, capsys, command):
        body = HITTING_BODY.format(delta=1, gamma="logn:1.5", n_max=50,
                                   mode="rational", extra="",
                                   out=tmp_path / "out")
        if command == "asymptote":
            body = body.replace("[hitting]", "[asymptote]").replace(
                "gamma =", "gammas =")
        assert main([command, "--config",
                     str(write_config(tmp_path, body))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rational" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ["rational", "bigfloat"])
    def test_max_terms_below_n_max_is_an_error(self, tmp_path, capsys, mode):
        cfg = write_config(tmp_path, HITTING_BODY.format(
            delta=1, gamma="harmonic:5", n_max=50, mode=mode,
            extra="max_terms = 30\n", out=tmp_path / "out"))
        assert main(["hitting", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [hitting] max_terms = 30 ")
        assert "n_max = 50" in err

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


def exact_pair(x):
    """(numerator, denominator) of a Fraction, or of an mpf's exact value
    (the unpacking the writer did when it took mpf numbers)."""
    if isinstance(x, mpmath.mpf):
        _, man, exp, _ = x._mpf_
        return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    return x.numerator, x.denominator


def fmt_precise(x, digits):
    """The writer's cell for x: a power-of-two denominator takes the
    shift path, any other the division path."""
    num, den = exact_pair(x)
    return next(cli._decimal_cells([num], den, digits))


def nstr_exact(x, digits):
    """mpmath.nstr of the exact value of a Fraction or mpf."""
    with mpmath.mp.workprec(4000):
        if isinstance(x, Fraction):
            x = mpmath.mpf(x.numerator) / x.denominator
        return mpmath.nstr(x, digits, strip_zeros=True)


class TestDecimalWriter:
    """The integer writer reproduces mpmath.nstr on exact values."""

    @staticmethod
    def cases():
        ten = Fraction(10)
        values = [Fraction(1, 3), Fraction(2, 3), Fraction(7), Fraction(1),
                  Fraction(123456789, 1000)]
        for lead in (-5, -25, 77):  # fixed notation at 78 digits
            values += [Fraction(314159, 100000) * ten ** lead,
                       Fraction(1, 7) * ten ** (lead + 1), ten ** lead]
        for lead in (-17, -27, -30, -60, 49, 50, 78, 95, 200):
            values += [Fraction(271828, 100000) * ten ** lead,
                       Fraction(5, 9) * ten ** (lead + 1)]
        for width in (50, 78, 81):  # ...999 rounding up past a power of ten
            for lead in (-26, -5, 0, 3, 49, 77, 78):
                nines = Fraction(10 ** width - 1, 10 ** width)
                values += [nines * ten ** (lead + 1),
                           (nines + Fraction(4, 10 ** (width + 1)))
                           * ten ** (lead + 1)]
        # exact ties after 50 and 78 digits round up (integers, so the
        # mpf that nstr sees holds them exactly)
        for width in (50, 78):
            values += [Fraction(10 ** width + 5), Fraction(2 * 10 ** width - 5),
                       Fraction(10 ** (width + 1) + 49)]
        return values

    @pytest.mark.parametrize("digits", [50, 78])
    def test_matches_nstr_on_fractions(self, digits):
        for x in self.cases():
            assert fmt_precise(x, digits) == nstr_exact(x, digits), x

    @pytest.mark.parametrize("digits", [50, 78])
    def test_matches_nstr_on_exact_dyadics(self, digits):
        values = [mpmath.mp.make_mpf(from_man_exp(man, exp)) for man, exp in (
            (1, 0), (3, -2), (2 ** 300 - 1, -300), (2 ** 300 + 1, -300),
            (5 ** 40, -310), (3 ** 170, 0), (7 ** 90, -700),
            (10 ** 77 - 1, 0), (10 ** 78 - 1, 0), (10 ** 78 + 1, 0))]
        for prec, spec, n_max in ((256, "harmonic:5", 200),
                                  (256, "step:40,0,60", 3),
                                  (128, "step:3,1/2,10", 40)):
            table = hitting_table(
                BirthDeathSpec(parse_profile(spec), Fraction(1)), n_max,
                PrecisionConfig(bits=prec))
            values += list(table.S) + list(table.T)
        assert max(values) > mpmath.mpf(10) ** 78  # step:40 T_1
        for x in values:
            assert fmt_precise(x, digits) == nstr_exact(x, digits), x

    @settings(max_examples=200, deadline=None)
    @given(digits=st.sampled_from([50, 78]), F=st.integers(64, 600),
           bits=st.integers(0, 900), fill=st.integers(0, 2 ** 900))
    @example(digits=78, F=280, bits=0, fill=0)  # 2**-280, in e-85 notation
    def test_shift_path_matches_the_division_writer(self, digits, F, bits,
                                                     fill):
        # from 2**-600 to 2**836: fixed and exponent notation
        num = (1 << bits) + fill % (1 << bits)
        assert (next(cli._decimal_cells([num], 1 << F, digits))
                == oracles.fmt_precise(num, 1 << F, digits))

    @settings(max_examples=200, deadline=None)
    @given(digits=st.sampled_from([50, 78]), F=st.integers(64, 600),
           lead=st.integers(-60, 120), extra=st.integers(0, 4),
           jitter=st.integers(-3, 3))
    @example(digits=78, F=300, lead=0, extra=1, jitter=0)
    @example(digits=50, F=64, lead=77, extra=0, jitter=3)
    def test_shift_path_rounds_nines_like_the_division_writer(
            self, digits, F, lead, extra, jitter):
        # the dyadic nearest 0.999...9 * 10**(lead + 1), digits + extra
        # nines, which rounds up past a power of ten; F keeps the nines
        F = max(F, math.ceil((digits + extra + 4 - lead) * 3.33))
        w = digits + extra
        num = ((10 ** w - 1) * 10 ** max(lead + 1, 0) << F) // (
            10 ** w * 10 ** max(-lead - 1, 0)) + jitter
        assert (next(cli._decimal_cells([num], 1 << F, digits))
                == oracles.fmt_precise(num, 1 << F, digits))

    def test_rational_table_cells_match_mpf_route(self):
        # the former writer: the Fraction rounded to a 182-bit mpf, nstr
        table = hitting_table(BirthDeathSpec(parse_profile("harmonic:5"),
                                             Fraction(1)), 300,
                              PrecisionConfig("rational"))
        for x in table.S + table.T:
            with mpmath.mp.workprec(182):
                old = mpmath.nstr(mpmath.mpf(x.numerator) / x.denominator,
                                  50, strip_zeros=True)
            assert fmt_precise(x, 50) == old


class TestWriteCsv:
    """``_write_csv`` writes the bytes of ``csv.writer`` whatever the
    chunk size, across exact multiples of it and one line past."""

    CELLS = st.one_of(st.integers(), st.floats(), st.text(min_size=1))

    @pytest.fixture(scope="class")
    def shared_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("write_csv")

    @settings(max_examples=200, deadline=None)
    @given(header=st.lists(st.text(min_size=1), min_size=1, max_size=3),
           rows=st.lists(st.lists(CELLS, min_size=1, max_size=4),
                         max_size=12),
           chunk=st.integers(1, 5))
    @example(header=["t"], rows=[[0]] * 4, chunk=2)
    @example(header=["t"], rows=[[0]] * 5, chunk=2)
    @example(header=['a,"b"'], rows=[["x\r\ny", 1.5e-300]], chunk=1)
    def test_matches_csv_writer(self, shared_dir, header, rows, chunk):
        lines = (",".join(cli._csv_text(c) if isinstance(c, str) else str(c)
                          for c in row) for row in rows)
        with mock.patch.object(cli, "_CHUNK_LINES", chunk):
            cli._write_csv(shared_dir / "got.csv", header, lines)
        oracles.write_csv(shared_dir / "want.csv", header, rows)
        assert ((shared_dir / "got.csv").read_bytes()
                == (shared_dir / "want.csv").read_bytes())


class TestDeferredImports:
    """No command but meanfield loads scipy.sparse, which meanfield loads
    with its sparse.linalg on first use; nothing loads csgraph.  No
    command loads mpmath, logn kernels included.  Only a simulate on
    more than one worker loads the process pool."""

    WATCHED = ("concurrent.futures", "mpmath", "multiprocessing",
               "scipy.linalg", "scipy.sparse", "scipy.sparse.csgraph",
               "scipy.sparse.linalg")

    RUN = ("import json, sys\n"
           "import dieout.cli\n"
           "status = dieout.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
           "print(json.dumps(sorted(m for m in {watched!r}"
           " if m in sys.modules)))\n"
           "sys.exit(status)\n")

    def config(self, tmp_path, command: str, gamma="harmonic:5") -> Path:
        out = tmp_path / "out"
        if command in ("hitting", "asymptote"):
            body = HITTING_BODY.format(delta=1, gamma=gamma, n_max=20,
                                       mode="bigfloat", extra="", out=out)
            if command == "asymptote":
                body += f"\n[asymptote]\ngammas = {gamma}\nn_max = 100\n"
            return write_config(tmp_path, body)
        return write_config(tmp_path, SIM_BODY.format(
            graph=small_graph_file(tmp_path), delta="8.5", out=out)
            + "\n[meanfield]\nt_max = 1\ngrid_step = 0.5\n")

    def loaded_after(self, argv) -> set:
        path = [str(Path(cli.__file__).parents[1]),
                os.environ.get("PYTHONPATH")]
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        done = subprocess.run(
            [sys.executable, "-c", self.RUN.format(watched=self.WATCHED),
             *argv], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        return set(json.loads(done.stdout.splitlines()[-1]))

    def test_import_loads_none(self):
        assert not self.loaded_after([])

    @pytest.mark.parametrize("command, loaded", [
        ("hitting", set()),
        ("asymptote", set()),
        ("simulate", set()),
        ("classify", set()),
        ("meanfield", {"scipy.sparse", "scipy.sparse.linalg"})])
    def test_fresh_process_loads_only_what_the_command_calls(
            self, tmp_path, command, loaded):
        argv = [command, "--config", str(self.config(tmp_path, command))]
        if command == "simulate":
            argv += ["--threads", "1"]
        found = self.loaded_after(argv)
        if loaded:
            assert loaded <= found and "mpmath" not in found
        else:
            assert not found

    @pytest.mark.parametrize("command", ["hitting", "asymptote"])
    def test_logn_kernel_loads_no_mpmath(self, tmp_path, command):
        # the logn table sums ln 2 in integers
        cfg = self.config(tmp_path, command, gamma="logn:1.5")
        assert not self.loaded_after([command, "--config", str(cfg)])

    def test_simulate_on_two_workers_loads_only_the_pool(self, tmp_path):
        cfg = self.config(tmp_path, "simulate")
        assert self.loaded_after(["simulate", "--config", str(cfg),
                                  "--threads", "2"]) == {
            "concurrent.futures", "multiprocessing"}


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

    def test_meta_reports_each_profiles_kernel_pass(self, tmp_path):
        # per gamma, the run report hitting writes for the same chain
        body = """
[dynamics]
delta = 1

[{section}]
{gamma}
{n} = 60
rel_tol = 1e-30

[output]
directory = {out}
"""
        assert main(["asymptote", "--config", str(write_config(
            tmp_path, body.format(section="asymptote", n="n_max",
                                  gamma="gammas = step:5,1/2,40 harmonic:2",
                                  out=tmp_path / "asym")))]) == 0
        meta = json.loads((tmp_path / "asym" / "meta.json").read_text())
        assert set(meta["gammas"]) == {"step:5,1/2,40", "harmonic:2"}
        assert meta["kernel_s"] >= 0 and meta["write_s"] >= 0
        for gamma, report in meta["gammas"].items():
            assert main(["hitting", "--config", str(write_config(
                tmp_path, body.format(section="hitting", n="n_max",
                                      gamma=f"gamma = {gamma}",
                                      out=tmp_path / "hit")))]) == 0
            hit = json.loads((tmp_path / "hit" / "meta.json").read_text())
            assert report == {key: hit[key] for key in (
                "truncated_at", "planned_truncation", "extension_passes",
                "max_rel_error_bound")}
            assert report["truncated_at"] >= report["planned_truncation"]


    def test_state_above_the_term_cap_is_a_config_error(
            self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ran a kernel pass")

        monkeypatch.setattr(cli, "asymptote_ratio", refuse)
        cfg = write_config(tmp_path, f"""
[dynamics]
delta = 1

[asymptote]
gammas = harmonic:5
n_values = 10 3000000

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["asymptote", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [asymptote] n_values = '10 3000000' ")
        assert "2,000,000-term cap" in err
        assert not (tmp_path / "out").exists()

    def test_no_states_is_an_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f"""
[dynamics]
delta = 1

[asymptote]
gammas = harmonic:5
points = 0

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["asymptote", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [asymptote] points = 0 must be >= 1")


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

    def test_unknown_start_node_names_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f"""
[graph]
path = {small_graph_file(tmp_path)}

[meanfield]
t_max = 1.0
grid_step = 0.5
x0 = node:NOPE

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["meanfield", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: [meanfield] x0 = 'node:NOPE' names no node of the "
            "graph\n")

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


class TestLoadStage:
    @pytest.mark.parametrize("command", ["classify", "simulate", "meanfield"])
    def test_meta_reports_load_time_and_stored_edges(self, tmp_path, command):
        # 7 edge lines, of which a zero weight and a zero self-loop are
        # not stored
        graph = tmp_path / "g.edges"
        graph.write_text("a b 1\nb a 1\nb c 2\nc b 0\nc c 0\na c 1\nc a 1\n")
        (tmp_path / "d.txt").write_text("a 1\nb 1.5\nc 0.5\n")
        (tmp_path / "init.txt").write_text("b 3\n")
        body = SIM_BODY.format(graph=graph, delta="8.5", out=tmp_path / "out")
        body = body.replace("n0 = 10", "n0 = 3\ninitial_file = init.txt")
        cfg = write_config(tmp_path, body + "\n[modulation]\nfile = d.txt\n"
                           "\n[meanfield]\nt_max = 1.0\ngrid_step = 0.5\n")
        assert main([command, "--config", str(cfg)]) == 0
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["edges"] == load_graph(load_config(cfg)).weights.nnz == 5
        assert meta["load_s"] > 0


class TestStageTimes:
    @pytest.mark.parametrize("command, stages", [
        ("classify", ["load_s", "compute_s"]),
        ("simulate", ["load_s", "ensemble_s", "write_s"]),
        ("meanfield", ["load_s", "compute_s", "write_s"]),
    ])
    def test_meta_times_every_stage(self, tmp_path, command, stages):
        (tmp_path / "g.edges").write_text("a b 1\nb a 1\nb c 2\nc b 1\n")
        body = SIM_BODY.format(graph=tmp_path / "g.edges", delta="8.5",
                               out=tmp_path / "out")
        cfg = write_config(tmp_path, body + "\n[meanfield]\nt_max = 1.0\n"
                           "grid_step = 0.5\n")
        assert main([command, "--config", str(cfg)]) == 0
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        timings = {key: meta[key] for key in meta if key.endswith("_s")}
        assert set(timings) == set(stages)
        assert all(isinstance(s, float) and s >= 0 for s in timings.values())


def csv_cells(path: Path) -> list[list[str]]:
    """The data rows of a CSV file, split into cells."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [line.split(",") for line in lines]


class TestCellsAreLibraryNumbers:
    """Each float cell is ``repr`` of the library float it comes from."""

    def test_summary_cells(self, tmp_path):
        cfg_path = write_config(tmp_path, SIM_BODY.format(
            graph=small_graph_file(tmp_path), delta="6",
            out=tmp_path / "out"))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        cfg = load_config(cfg_path)
        g = load_graph(cfg)
        grid = simulation_grid(cfg.simulation)
        summary = run_ensemble(cli._sim_config(cfg, g, Namespace(seed=None)),
                               g, cfg.simulation.runs, grid)
        columns = (grid, summary.mean_total, summary.lower95,
                   summary.upper95, summary.survival_fraction)
        assert csv_cells(tmp_path / "out" / "summary.csv") == [
            [repr(float(x)) for x in row] for row in zip(*columns)]

    def test_ratio_cells(self, tmp_path):
        gammas, states = ("harmonic:2", "logn:1"), [2, 40, 1000]
        cfg = write_config(tmp_path, f"""
[dynamics]
delta = 3/2

[asymptote]
gammas = {' '.join(gammas)}
n_values = {' '.join(map(str, states))}

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["asymptote", "--config", str(cfg)]) == 0
        columns = [dict(asymptote_ratio(
            BirthDeathSpec(parse_profile(text), Fraction(3, 2)), states,
            PrecisionConfig()).ratios) for text in gammas]
        assert csv_cells(tmp_path / "out" / "ratios.csv") == [
            [str(n)] + [repr(column[n]) for column in columns]
            for n in states]

    def test_meanfield_cells(self, tmp_path):
        cfg_path = write_config(tmp_path, f"""
[graph]
path = {small_graph_file(tmp_path)}

[profiles]
beta = const:1/2
beta_int = const:1

[dynamics]
delta = 2

[simulation]
n0 = 9

[meanfield]
t_max = 1.0
grid_step = 0.25
x0 = node:b

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["meanfield", "--config", str(cfg_path)]) == 0
        cfg = load_config(cfg_path)
        g = load_graph(cfg)
        x0 = np.zeros(g.node_count)
        x0[g.index("b")] = 9
        grid = uniform_grid(1.0, 0.25, "meanfield")
        series = mean_field_trajectory(g, cli._model(cfg, g), x0, grid)
        assert csv_cells(tmp_path / "out" / "meanfield.csv") == [
            [repr(float(t)), *(repr(float(v)) for v in row),
             repr(float(row.sum()))] for t, row in zip(grid, series)]

    def test_certified_column_reads_true_or_false(self, tmp_path):
        # 200 terms certify the rows far enough below the cut only
        cfg = write_config(tmp_path, HITTING_BODY.format(
            delta=1, gamma="const:1/2", n_max=150, mode="bigfloat",
            extra="max_terms = 200\n", out=tmp_path / "out"))
        assert main(["hitting", "--config", str(cfg)]) == 0
        table = hitting_table(
            BirthDeathSpec(parse_profile("const:1/2"), Fraction(1)), 150,
            PrecisionConfig(max_terms=200))
        column = [row[3] for row in csv_cells(tmp_path / "out" / "hitting.csv")]
        assert column == ["true" if c else "false"
                          for c in table.row_certified]
        assert set(column) == {"true", "false"}


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

    def subset_config(self, tmp_path, subset: str) -> Path:
        return write_config(tmp_path, f"""
[graph]
path = {small_graph_file(tmp_path)}
subset = {subset}
""")

    def test_subset_file_skips_comments_and_blank_lines(self, tmp_path):
        subset = tmp_path / "keep.txt"
        subset.write_text("# top nodes\n\nc  # busiest\na\n")
        g = load_graph(load_config(self.subset_config(tmp_path, subset)))
        assert g.labels == ("c", "a")

    @pytest.mark.parametrize("text, line, message", [
        ("a\n# x\nzz\n", 3, "'zz' is not a graph node"),
        ("a\nb\na\n", 3, "duplicate label 'a'"),
        ("a\nb c\n", 2, "expected one label")],
        ids=["unknown", "repeated", "two-fields"])
    def test_subset_file_errors_name_path_and_line(self, tmp_path, text,
                                                   line, message):
        subset = tmp_path / "keep.txt"
        subset.write_text(text)
        cfg = load_config(self.subset_config(tmp_path, subset))
        with pytest.raises(ConfigError) as err:
            load_graph(cfg)
        assert str(err.value) == f"{subset}:{line}: {message}"

    def test_top_k_beyond_the_graph_names_the_key(self, tmp_path):
        cfg = load_config(self.subset_config(tmp_path, "top:9"))
        with pytest.raises(ConfigError) as err:
            load_graph(cfg)
        assert str(err.value) == "[graph] subset 'top:9': k must be in 1..3"

    @pytest.mark.parametrize("delta", ["inf", "1e999999999"])
    def test_unrepresentable_delta_fails_cleanly(self, tmp_path, capsys,
                                                 delta):
        cfg = write_config(tmp_path, f"""
[dynamics]
delta = {delta}

[hitting]
gamma = harmonic:5
n_max = 10

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["hitting", "--config", str(cfg)]) == 1
        assert f"parameter '{delta}'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
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
        assert f"{dfile}:2:" in captured.err
        assert "finite and positive" in captured.err
        assert captured.out == ""

    def test_unparsable_eta_names_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f"""
[graph]
path = {small_graph_file(tmp_path)}

[modulation]
eta = abc

[output]
directory = {tmp_path / 'out'}
""")
        assert main(["classify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "[modulation] eta" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text, line, message", [
        ("b 5\nvX 7\n", 2, "not a graph node"),
        ("b 5\nc 1 2\n", 2, "expected 'label value'"),
        ("b 2.5\n", 1, "bad value"),
        ("b 5\na 1\nb 2\n", 3, "duplicate label"),
        ("b 5\na -2\n", 2, "bad value '-2': initial counts must be "
                           "nonnegative"),
        # used to crash with an OverflowError traceback
        ("b 5\na 99999999999999999999\n", 2,
         "bad value '99999999999999999999': initial count exceeds 2^63 - 1"),
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

    def test_initial_counts_summing_to_zero_fail(self, tmp_path, capsys):
        init = tmp_path / "init.txt"
        init.write_text("a 0\nb 0\n")
        body = SIM_BODY.format(graph=small_graph_file(tmp_path), delta="8.5",
                               out=tmp_path / "out")
        body = body.replace("n0 = 10", "initial_file = init.txt")
        cfg = write_config(tmp_path, body)
        assert main(["simulate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{init}: initial counts sum to 0" in err
        assert not (tmp_path / "out").exists()

    def test_initial_counts_summing_past_int64_fail(self, tmp_path, capsys):
        # the int64 total used to wrap and fail as "n0 must be at least 1"
        init = tmp_path / "init.txt"
        init.write_text(f"a {2 ** 63 - 1}\nb 1\n")
        body = SIM_BODY.format(graph=small_graph_file(tmp_path), delta="8.5",
                               out=tmp_path / "out")
        body = body.replace("n0 = 10", "initial_file = init.txt")
        cfg = write_config(tmp_path, body)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {init}: initial counts sum to {2 ** 63}, above "
            "2^63 - 1\n")
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

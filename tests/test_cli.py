import json
import math

import numpy as np
import pytest

import gwish.graph
from gwish import cli
from gwish.cli import main
from gwish.graph import UndirectedGraph, read_edge_list, write_edge_list
from gwish.model import (
    Dataset,
    Hyperparameters,
    log_pairwise_bayes_factor,
    log_posterior_ratio,
    theory_r_max,
)

from oracles import perfect_sequence


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def data_dir(tmp_path):
    out = tmp_path / "data"
    assert run("gen-data", "--kind", "ar1", "--p", 4, "--n", 40,
               "--seed", 1, "--out", out) == 0
    return out


class TestGenData:
    def test_outputs(self, data_dir):
        x = np.loadtxt(data_dir / "X.csv", delimiter=",", ndmin=2)
        assert x.shape == (40, 4)
        omega0 = np.loadtxt(data_dir / "omega0.csv", delimiter=",", ndmin=2)
        assert omega0[0, 1] == 0.5
        g = read_edge_list(str(data_dir / "graph0.edges"))
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})
        meta = json.loads((data_dir / "meta.json").read_text())
        assert meta["command"] == "gen-data"
        assert meta["seed"] == 1 and meta["true_edges"] == 3

    def test_byte_identical_reruns(self, tmp_path):
        args = ("gen-data", "--kind", "ar2", "--p", 6, "--n", 25, "--seed", 7)
        assert run(*args, "--out", tmp_path / "a") == 0
        assert run(*args, "--out", tmp_path / "b") == 0
        assert (tmp_path / "a/X.csv").read_bytes() == (tmp_path / "b/X.csv").read_bytes()

    def test_stream_changes_draws(self, tmp_path):
        base = ("gen-data", "--kind", "ar1", "--p", 4, "--n", 10, "--seed", 0)
        assert run(*base, "--out", tmp_path / "a") == 0
        assert run(*base, "--stream", 5, "--out", tmp_path / "b") == 0
        assert (tmp_path / "a/X.csv").read_bytes() != (tmp_path / "b/X.csv").read_bytes()

    def test_invalid_specs_exit_2(self, tmp_path, capsys):
        assert run("gen-data", "--kind", "ar4", "--p", 4, "--n", 10,
                   "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err.startswith("gen-data: invalid model spec: ")
        assert run("gen-data", "--kind", "star", "--p", 30, "--n", 10,
                   "--out", tmp_path / "y") == 2
        assert capsys.readouterr().err.startswith("gen-data: invalid model spec: ")
        assert run("gen-data", "--kind", "ar1", "--p", 4, "--n", 0,
                   "--out", tmp_path / "z") == 2
        assert capsys.readouterr().err == "gen-data: n must be at least 2\n"

    @pytest.mark.parametrize("kind, p, n", [("star", 30, 50), ("ar1", 4, 1)],
                             ids=["spec", "n"])
    def test_invalid_input_creates_no_out_directory(self, tmp_path, kind, p, n):
        out = tmp_path / "bad"
        assert run("gen-data", "--kind", kind, "--p", p, "--n", n,
                   "--out", out) == 2
        assert not out.exists()

    def test_header_and_conditions(self, tmp_path):
        out = tmp_path / "h"
        assert run("gen-data", "--kind", "ar1", "--p", 3, "--n", 12,
                   "--header", "--conditions", "--out", out) == 0
        first = (out / "X.csv").read_text().splitlines()[0]
        assert first == "x1,x2,x3"
        rep = json.loads((out / "conditions.json").read_text())
        assert rep["n_edges"] == 2
        assert rep["lambda_min"] > 0


class TestMcmc:
    def test_run_and_outputs(self, data_dir, tmp_path):
        out = tmp_path / "chain"
        assert run("mcmc", "--data", data_dir, "--g", 0.2,
                   "--iterations", 200, "--burn-in", 100, "--seed", 2,
                   "--out", out) == 0
        incl = np.loadtxt(out / "inclusion.csv", delimiter=",", ndmin=2)
        assert incl.shape == (4, 4)
        assert np.array_equal(incl, incl.T)
        assert incl.min() >= 0.0 and incl.max() <= 1.0
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,log_posterior,size,accepted"
        assert len(trace) == 301
        meta = json.loads((out / "meta.json").read_text())
        assert 0.0 <= meta["acceptance_rate"] <= 1.0
        read_edge_list(str(out / "median_graph.edges"))
        read_edge_list(str(out / "best_graph.edges"))

    def test_p4_oracle(self, data_dir, tmp_path, capsys):
        out = tmp_path / "oracle"
        assert run("mcmc", "--data", data_dir, "--g", 0.2, "--kernel", "exact",
                   "--iterations", 4000, "--burn-in", 500, "--p4-oracle",
                   "--out", out) == 0
        assert "total variation" in capsys.readouterr().out
        meta = json.loads((out / "meta.json").read_text())
        assert meta["p4_oracle_tv"] < 0.25

    def test_p4_oracle_with_cliques_above_n(self, tmp_path, capsys):
        # n=3: the enumerated posterior leaves out every graph with a
        # four-vertex clique instead of failing to score it
        gen = tmp_path / "n3"
        assert run("gen-data", "--kind", "ar1", "--p", 4, "--n", 3, "--seed", 1,
                   "--out", gen) == 0
        out = tmp_path / "oracle"
        assert run("mcmc", "--data", gen, "--g", 0.2, "--kernel", "exact",
                   "--p4-oracle", "--iterations", 200, "--burn-in", 50,
                   "--seed", 1, "--out", out) == 0
        assert "total variation" in capsys.readouterr().out
        meta = json.loads((out / "meta.json").read_text())
        assert 0.0 <= meta["p4_oracle_tv"] <= 1.0

    def test_p4_oracle_needs_p4(self, tmp_path):
        gen = tmp_path / "p5"
        assert run("gen-data", "--kind", "ar1", "--p", 5, "--n", 20,
                   "--out", gen) == 0
        assert run("mcmc", "--data", gen, "--g", 0.2, "--p4-oracle",
                   "--iterations", 10, "--burn-in", 0,
                   "--out", tmp_path / "no") == 2

    @pytest.mark.parametrize("init", ["empty", "threshold"])
    def test_cliques_above_n_are_rejected_not_raised(self, tmp_path, init):
        # with n=3 every clique of four or more vertices is outside the
        # support: such proposals and candidates are rejected
        gen = tmp_path / "ar2"
        assert run("gen-data", "--kind", "ar2", "--p", 12, "--n", 3, "--seed", 1,
                   "--out", gen) == 0
        out = tmp_path / init
        assert run("mcmc", "--data", gen, "--kernel", "uniform", "--init", init,
                   "--burn-in", 200, "--iterations", 200, "--seed", 1,
                   "--out", out) == 0
        best = read_edge_list(str(out / "best_graph.edges"))
        assert max(len(c) for c in perfect_sequence(best).cliques) <= 3

    def test_r_theory_sets_the_theory_edge_cap(self, data_dir, tmp_path):
        out = tmp_path / "chain"
        assert run("mcmc", "--data", data_dir, "--g", 0.2, "--r-theory",
                   "--iterations", 20, "--burn-in", 0, "--out", out) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["hyper"]["r_max"] == theory_r_max(40, 4)

    def test_r_theory_and_r_max_are_exclusive(self, data_dir, tmp_path, capsys):
        out = tmp_path / "chain"
        assert run("mcmc", "--data", data_dir, "--g", 0.2, "--r-theory",
                   "--r-max", 3, "--iterations", 20, "--burn-in", 0,
                   "--out", out) == 2
        assert "mutually exclusive" in capsys.readouterr().err
        assert not (out / "meta.json").exists()

    def test_init_graph_must_match_data_p(self, data_dir, tmp_path, capsys):
        wrong = tmp_path / "p5.edges"
        write_edge_list(UndirectedGraph.from_edges(5, [(0, 1)]), str(wrong))
        out = tmp_path / "chain"
        assert run("mcmc", "--data", data_dir, "--init-graph", wrong,
                   "--iterations", 10, "--burn-in", 0, "--out", out) == 2
        assert "p=5" in capsys.readouterr().err
        assert not (out / "meta.json").exists()
        # a header-less edge list takes p from the data
        bare = tmp_path / "bare.edges"
        bare.write_text("1 2\n3 4\n")
        assert run("mcmc", "--data", data_dir, "--init-graph", bare,
                   "--iterations", 10, "--burn-in", 0, "--out", out) == 0

    def test_init_and_init_graph_are_exclusive(self, data_dir, tmp_path, capsys):
        gpath = tmp_path / "g.edges"
        write_edge_list(UndirectedGraph.from_edges(4, [(0, 1)]), str(gpath))
        out = tmp_path / "chain"
        for init in ("empty", "threshold"):
            assert run("mcmc", "--data", data_dir, "--init", init,
                       "--init-graph", gpath, "--iterations", 10, "--burn-in", 0,
                       "--out", out) == 2
            assert "mutually exclusive" in capsys.readouterr().err
            assert not (out / "meta.json").exists()
        # with neither flag the chain starts from the empty graph
        assert run("mcmc", "--data", data_dir, "--iterations", 10, "--burn-in", 0,
                   "--out", out) == 0
        assert json.loads((out / "meta.json").read_text())["init"] == "empty"

    def test_non_decomposable_init_graph_creates_no_out_directory(
        self, data_dir, tmp_path, capsys
    ):
        cycle = tmp_path / "c4.edges"
        write_edge_list(
            UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), str(cycle)
        )
        out = tmp_path / "chain"
        assert run("mcmc", "--data", data_dir, "--init-graph", cycle,
                   "--iterations", 10, "--burn-in", 0, "--out", out) == 3
        assert "decomposable" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_precision_average_is_symmetric(self, data_dir, tmp_path):
        out = tmp_path / "chain"
        assert run("mcmc", "--data", data_dir, "--g", 0.2, "--sample-precision",
                   "--iterations", 60, "--burn-in", 20, "--out", out) == 0
        omega = np.loadtxt(out / "omega_mcmc.csv", delimiter=",", ndmin=2)
        assert omega.shape == (4, 4) and np.array_equal(omega, omega.T)

    def test_sample_precision_without_iterations_exits_2_first(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        # ChainConfig checks it before the chain, so no burn-in is run for nothing
        def no_chain(*args):
            raise AssertionError("run_chain was called")

        monkeypatch.setattr(cli, "run_chain", no_chain)
        out = tmp_path / "chain"
        assert run("mcmc", "--data", data_dir, "--sample-precision",
                   "--iterations", 0, "--burn-in", 20000, "--out", out) == 2
        assert ("mcmc: sample_precision needs iterations > 0"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_missing_data_exit_2(self, tmp_path):
        assert run("mcmc", "--out", tmp_path / "o", "--iterations", 1,
                   "--burn-in", 0) == 2
        assert run("mcmc", "--data", tmp_path / "absent", "--out", tmp_path / "o",
                   "--iterations", 1, "--burn-in", 0) == 2


class TestSearch:
    def test_mode_outputs(self, data_dir, tmp_path):
        out = tmp_path / "mode"
        assert run("search", "--data", data_dir, "--g", 0.05,
                   "--ridge-grid", "0.1,1.0", "--threshold-grid", "0.0,0.1,0.3",
                   "--search-iters", 10, "--out", out) == 0
        mode = json.loads((out / "mode.json").read_text())
        assert mode["log_posterior"] == pytest.approx(
            mode["log_marginal"] + mode["log_prior"]
        )
        g = read_edge_list(str(out / "mode_graph.edges"))
        assert g.size == mode["edges"]

    def test_cliques_above_n_are_skipped(self, tmp_path):
        gen = tmp_path / "ar2"
        assert run("gen-data", "--kind", "ar2", "--p", 12, "--n", 3, "--seed", 1,
                   "--out", gen) == 0
        out = tmp_path / "mode"
        assert run("search", "--data", gen, "--seed", 1, "--out", out) == 0
        g = read_edge_list(str(out / "mode_graph.edges"))
        assert max(len(c) for c in perfect_sequence(g).cliques) <= 3

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--max-candidates", 0, "max_candidates must be positive"),
         ("--search-iters", -2, "max_iters must be nonnegative")],
        ids=["max-candidates-0", "search-iters-negative"],
    )
    def test_invalid_counts_exit_2(self, data_dir, tmp_path, capsys, flag, value,
                                   message):
        out = tmp_path / "mode"
        assert run("search", "--data", data_dir, "--g", 0.05,
                   "--ridge-grid", "0.1", "--threshold-grid", "0.0,0.1",
                   flag, value, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--ridge-grid", "0.1,nan", "ridge values must be positive and finite"),
         ("--ridge-grid", "inf", "ridge values must be positive and finite"),
         ("--threshold-grid", "0.1,nan", "thresholds must be nonnegative")],
        ids=["ridge-nan", "ridge-inf", "threshold-nan"],
    )
    def test_non_finite_grids_exit_2(self, data_dir, tmp_path, capsys, flag, value,
                                     message):
        out = tmp_path / "mode"
        assert run("search", "--data", data_dir, "--g", 0.05, flag, value,
                   "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_threshold_keeps_no_pair(self, data_dir, tmp_path):
        out = tmp_path / "mode"
        assert run("search", "--data", data_dir, "--g", 0.05,
                   "--ridge-grid", "0.1", "--threshold-grid", "inf",
                   "--search-iters", 0, "--out", out) == 0
        assert read_edge_list(str(out / "mode_graph.edges")).size == 0
        assert json.loads((out / "mode.json").read_text())["visited"] == 2


class TestBayesFactor:
    def test_same_graph_is_zero(self, data_dir, tmp_path, capsys):
        gpath = tmp_path / "g.edges"
        write_edge_list(UndirectedGraph.from_edges(4, [(0, 1), (1, 2)]), str(gpath))
        assert run("bf", "--data", data_dir, "--g", 0.2,
                   "--graph1", gpath, "--graph0", gpath) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["log_bayes_factor"] == 0.0
        assert payload["log_posterior_ratio"] == 0.0

    def test_antisymmetry_and_out_file(self, data_dir, tmp_path, capsys):
        g1 = tmp_path / "g1.edges"
        g0 = tmp_path / "g0.edges"
        write_edge_list(UndirectedGraph.from_edges(4, [(0, 1), (1, 2)]), str(g1))
        write_edge_list(UndirectedGraph.from_edges(4, [(2, 3)]), str(g0))
        assert run("bf", "--data", data_dir, "--g", 0.2, "--graph1", g1,
                   "--graph0", g0, "--out", tmp_path / "fwd") == 0
        fwd = json.loads(capsys.readouterr().out)
        assert run("bf", "--data", data_dir, "--g", 0.2, "--graph1", g0,
                   "--graph0", g1) == 0
        rev = json.loads(capsys.readouterr().out)
        assert fwd["log_bayes_factor"] == pytest.approx(-rev["log_bayes_factor"])
        saved = json.loads((tmp_path / "fwd/bf.json").read_text())
        assert saved["log_bayes_factor"] == fwd["log_bayes_factor"]

    def test_one_clique_search_per_graph(self, data_dir, tmp_path, capsys, monkeypatch):
        # the Bayes factor and the posterior ratio come from one scorer, so
        # each graph's cliques are searched once; the values are those of
        # the two library functions
        calls = []
        visit = gwish.graph._mcs_visit

        def counted(g):
            calls.append(g)
            return visit(g)

        monkeypatch.setattr(gwish.graph, "_mcs_visit", counted)
        g1 = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        g0 = UndirectedGraph.from_edges(4, [(2, 3)])
        write_edge_list(g1, str(tmp_path / "g1.edges"))
        write_edge_list(g0, str(tmp_path / "g0.edges"))
        assert run("bf", "--data", data_dir, "--g", 0.2, "--graph1", tmp_path / "g1.edges",
                   "--graph0", tmp_path / "g0.edges") == 0
        assert calls == [g1, g0]
        payload = json.loads(capsys.readouterr().out)
        x = np.loadtxt(data_dir / "X.csv", delimiter=",", ndmin=2)
        data, hyper = Dataset.from_matrix(x), Hyperparameters(g=0.2)
        assert payload["log_bayes_factor"] == log_pairwise_bayes_factor(data, g1, g0, hyper)
        assert payload["log_posterior_ratio"] == log_posterior_ratio(data, g1, g0, hyper)

    def test_g_and_preset_conflict(self, data_dir, tmp_path):
        gpath = tmp_path / "g.edges"
        write_edge_list(UndirectedGraph.empty(4), str(gpath))
        assert run("bf", "--data", data_dir, "--g", 0.2, "--preset", "ratio",
                   "--graph1", gpath, "--graph0", gpath) == 2

    def test_both_graphs_outside_support_exits_2(self, data_dir, tmp_path, capsys):
        # at r_max = 0 both one-edge graphs have prior -inf; the ratio is
        # undefined, so nothing is printed (NaN is not JSON) and nothing saved
        g1 = tmp_path / "g1.edges"
        g0 = tmp_path / "g0.edges"
        write_edge_list(UndirectedGraph.from_edges(4, [(0, 1)]), str(g1))
        write_edge_list(UndirectedGraph.from_edges(4, [(2, 3)]), str(g0))
        assert run("bf", "--data", data_dir, "--g", 0.2, "--r-max", 0,
                   "--graph1", g1, "--graph0", g0, "--out", tmp_path / "bf") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "both graphs are outside the prior support" in captured.err
        assert not (tmp_path / "bf").exists()

    def test_one_graph_outside_support_is_valid_json(self, data_dir, tmp_path, capsys):
        # at r_max = 0 only the empty graph is in the support, so the ratio
        # is -inf: written as null with the graph outside named, never as
        # the non-JSON token -Infinity
        def strict(token):
            raise ValueError(f"non-JSON constant {token}")

        g1 = tmp_path / "g1.edges"
        g0 = tmp_path / "g0.edges"
        write_edge_list(UndirectedGraph.from_edges(4, [(0, 1)]), str(g1))
        write_edge_list(UndirectedGraph.empty(4), str(g0))
        assert run("bf", "--data", data_dir, "--g", 0.2, "--r-max", 0,
                   "--graph1", g1, "--graph0", g0, "--out", tmp_path / "bf") == 0
        printed = json.loads(capsys.readouterr().out, parse_constant=strict)
        saved = json.loads((tmp_path / "bf/bf.json").read_text(), parse_constant=strict)
        for payload in (printed, saved):
            assert payload["log_posterior_ratio"] is None
            assert payload["outside_support"] == "graph1"
            assert math.isfinite(payload["log_bayes_factor"])
        assert run("bf", "--data", data_dir, "--g", 0.2, "--r-max", 0,
                   "--graph1", g0, "--graph0", g1) == 0
        swapped = json.loads(capsys.readouterr().out, parse_constant=strict)
        assert swapped["outside_support"] == "graph0"

    def test_oversized_clique_exits_3(self, tmp_path):
        gen = tmp_path / "tiny"
        assert run("gen-data", "--kind", "ar1", "--p", 4, "--n", 2,
                   "--out", gen) == 0
        full = tmp_path / "full.edges"
        write_edge_list(UndirectedGraph.complete(4), str(full))
        empty = tmp_path / "empty.edges"
        write_edge_list(UndirectedGraph.empty(4), str(empty))
        assert run("bf", "--data", gen, "--g", 0.2, "--graph1", full,
                   "--graph0", empty) == 3


class TestRatioExperiment:
    def test_csv_written(self, tmp_path):
        out = tmp_path / "ratio"
        assert run("ratio-experiment", "--case", 4, "--p-list", "8,10",
                   "--n", 40, "--replicates", 2, "--out", out) == 0
        lines = (out / "ratio.csv").read_text().splitlines()
        assert lines[0].startswith("case,p,n,seed,replicate,g,")
        assert len(lines) == 5
        meta = json.loads((out / "meta.json").read_text())
        assert meta["p_list"] == [8, 10]
        assert meta["preset"] == "ratio"

    @pytest.mark.parametrize(
        "args, message",
        [(("--case", 1, "--p-list", 2), "case 1 needs 2 edges but p=2 allows 1"),
         (("--case", 1, "--p-list", 3), "case 1 needs 4 edges but p=3 allows 3"),
         (("--case", 3, "--p-list", 2), "case 3 needs 2 edges but p=2 allows 1"),
         (("--case", 3, "--p-list", 3), "case 3 needs 4 edges but p=3 allows 3"),
         (("--case", 4, "--p-list", 0), "needs p >= 2, got 0"),
         (("--case", 4, "--p-list", -5), "needs p >= 2, got -5"),
         (("--case", 4, "--p-list", 8, "--replicates", 0),
          "need at least one replicate, got 0"),
         (("--case", 4, "--p-list", 8, "--replicates", -1),
          "need at least one replicate, got -1")],
        ids=["case1-p2", "case1-p3", "case3-p2", "case3-p3", "p0", "p-negative",
             "replicates-0", "replicates-negative"],
    )
    def test_impossible_input_exits_2(self, tmp_path, capsys, args, message):
        out = tmp_path / "ratio"
        assert run("ratio-experiment", *args, "--n", 20, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestEstimate:
    def test_l2_support_respects_graph(self, data_dir, tmp_path):
        gpath = tmp_path / "g.edges"
        write_edge_list(UndirectedGraph.from_edges(4, [(0, 1), (2, 3)]), str(gpath))
        out = tmp_path / "l2"
        assert run("estimate", "--data", data_dir, "--g", 0.2,
                   "--estimator", "l2", "--graph", gpath, "--out", out) == 0
        omega = np.loadtxt(out / "omega_hat.csv", delimiter=",", ndmin=2)
        assert omega[0, 2] == 0.0 and omega[1, 3] == 0.0 and omega[0, 3] == 0.0
        assert omega[0, 1] != 0.0 and omega[2, 3] != 0.0
        assert np.all(np.diag(omega) > 0)

    def test_l2_requires_graph(self, data_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("estimate", "--data", data_dir, "--estimator", "l2",
                "--out", tmp_path / "x")
        assert exc.value.code == 2

    def test_l1_stein(self, data_dir, tmp_path):
        # exact, so --mc-draws is accepted and changes nothing
        gpath = tmp_path / "g.edges"
        write_edge_list(UndirectedGraph.from_edges(4, [(0, 1)]), str(gpath))
        args = ("estimate", "--data", data_dir, "--g", 0.2,
                "--estimator", "l1-stein", "--graph", gpath)
        assert run(*args, "--mc-draws", 50, "--out", tmp_path / "draws") == 0
        assert run(*args, "--seed", 9, "--out", tmp_path / "stein") == 0
        out = tmp_path / "stein"
        assert ((out / "omega_hat.csv").read_bytes()
                == (tmp_path / "draws/omega_hat.csv").read_bytes())
        omega = np.loadtxt(out / "omega_hat.csv", delimiter=",", ndmin=2)
        assert np.all(np.linalg.eigvalsh(omega) > 0)
        assert omega[0, 2] == 0.0 and omega[2, 3] == 0.0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["estimator"] == "l1-stein" and "mc_draws" not in meta

    @pytest.mark.parametrize("estimator", ["l2", "l1-stein"])
    def test_graph_outside_the_support_exits_3(self, tmp_path, capsys, estimator):
        data = tmp_path / "data"
        assert run("gen-data", "--kind", "ar1", "--p", 4, "--n", 3,
                   "--out", data) == 0
        c4 = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        for name, graph, message in (
            ("c4", c4, "not chordal"),
            ("k4", UndirectedGraph.complete(4), "exceeds the sample size n=3"),
        ):
            gpath = tmp_path / f"{name}.edges"
            write_edge_list(graph, str(gpath))
            out = tmp_path / name
            assert run("estimate", "--data", data, "--g", 0.2, "--estimator",
                       estimator, "--graph", gpath, "--out", out) == 3
            assert message in capsys.readouterr().err
            assert not (out / "omega_hat.csv").exists()

    @pytest.mark.parametrize("flags", [
        ("--estimator", "mcmc"),
        ("--iterations", 10),
        ("--burn-in", 10),
        ("--stream", 7),
        ("--kernel", "exact"),
        ("--init", "threshold"),
        ("--init-graph", None),
    ], ids=lambda flags: flags[0].lstrip("-"))
    def test_chain_flags_exit_2(self, data_dir, tmp_path, capsys, flags):
        # the model-averaged estimate is ``mcmc --sample-precision`` alone,
        # so estimate rejects every chain flag instead of ignoring it
        graph = data_dir / "graph0.edges"
        flags = [graph if f is None else f for f in flags]
        out = tmp_path / "est"
        with pytest.raises(SystemExit) as exc:
            run("estimate", "--data", data_dir, "--estimator", "l2",
                "--graph", graph, *flags, "--out", out)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'mcmc'" in err or "unrecognized arguments" in err
        assert not out.exists()


class TestMetrics:
    def test_identical_graphs_give_mcc_one(self, tmp_path, capsys):
        gpath = tmp_path / "g.edges"
        write_edge_list(UndirectedGraph.from_edges(5, [(0, 1), (2, 3)]), str(gpath))
        out = tmp_path / "m"
        assert run("metrics", "--graph", gpath, "--truth", gpath, "--out", out) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selection"]["mcc"] == 1.0
        header, row = (out / "selection.csv").read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["mcc"]) == 1.0

    def test_worked_example_value(self, tmp_path, capsys):
        truth = tmp_path / "t.edges"
        est = tmp_path / "e.edges"
        write_edge_list(
            UndirectedGraph.from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4)]), str(truth)
        )
        write_edge_list(
            UndirectedGraph.from_edges(10, [(0, 1), (1, 2), (2, 3), (5, 6)]), str(est)
        )
        assert run("metrics", "--graph", est, "--truth", truth,
                   "--out", tmp_path / "m") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selection"]["mcc"] == pytest.approx(119.0 / 164.0)

    def test_matrix_errors(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        np.savetxt(a, np.eye(3) * 2.0, delimiter=",")
        out = tmp_path / "m"
        assert run("metrics", "--omega", a, "--omega0", a, "--out", out) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(v == 0.0 for v in payload["relative_errors"].values())

    def test_nothing_to_do(self, tmp_path):
        assert run("metrics", "--out", tmp_path / "m") == 2

    def test_half_specified_pairs(self, tmp_path):
        gpath = tmp_path / "g.edges"
        write_edge_list(UndirectedGraph.empty(3), str(gpath))
        assert run("metrics", "--graph", gpath, "--out", tmp_path / "m") == 2


    @pytest.mark.parametrize("line", ["1 9", "0 1", "2 2", "1 2 3", "1 b"])
    def test_malformed_edge_line_exits_2(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.edges"
        bad.write_text(f"p=4\n1 2\n{line}\n")
        good = tmp_path / "good.edges"
        write_edge_list(UndirectedGraph.empty(4), str(good))
        out = tmp_path / "m"
        assert run("metrics", "--graph", bad, "--truth", good, "--out", out) == 2
        assert repr(line) in capsys.readouterr().err
        assert not (out / "meta.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--omega", "--omega0"])
    def test_non_finite_matrix_exits_2(self, tmp_path, capsys, flag, value):
        # inf once printed "frobenius": Infinity, which is not JSON, and
        # exited 0; nan failed inside the SVD
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        np.savetxt(good, np.eye(3), delimiter=",")
        m = np.eye(3)
        m[1, 2] = float(value)
        np.savetxt(bad, m, delimiter=",")
        files = {"--omega": good, "--omega0": good, flag: bad}
        out = tmp_path / "m"
        assert run("metrics", *[a for kv in files.items() for a in kv],
                   "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"metrics: {bad} has 1 non-finite entries" in captured.err
        assert "row 1, column 2" in captured.err
        assert not (out / "meta.json").exists()

    @pytest.mark.parametrize("pair", ["graphs", "matrices"])
    def test_mismatched_pair_exits_2(self, tmp_path, capsys, pair):
        a, b = tmp_path / "a", tmp_path / "b"
        if pair == "graphs":
            write_edge_list(UndirectedGraph.empty(4), str(a))
            write_edge_list(UndirectedGraph.empty(5), str(b))
            flags = ("--graph", a, "--truth", b)
        else:
            np.savetxt(a, np.eye(3), delimiter=",")
            np.savetxt(b, np.eye(4), delimiter=",")
            flags = ("--omega", a, "--omega0", b)
        out = tmp_path / "m"
        assert run("metrics", *flags, "--out", out) == 2
        assert "metrics: " in capsys.readouterr().err
        assert not (out / "meta.json").exists()


class TestNonFiniteData:
    """NaN or inf in the data fails at load, with exit 2, before any work."""

    COMMANDS = {
        "mcmc": ("mcmc", "--kernel", "uniform", "--iterations", 50,
                 "--burn-in", 10),
        "search": ("search", "--search-iters", 2),
        "estimate": ("estimate", "--estimator", "l2", "--graph", None),
    }

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exits_2_before_writing(self, data_dir, tmp_path, capsys, command, value):
        x = np.loadtxt(data_dir / "X.csv", delimiter=",", ndmin=2)
        x[5, 2] = float(value)
        x[9, 0] = float(value)
        bad = tmp_path / "bad.csv"
        np.savetxt(bad, x, delimiter=",")
        args = [data_dir / "graph0.edges" if a is None else a
                for a in self.COMMANDS[command]]
        out = tmp_path / "out"
        assert run(*args, "--x", bad, "--out", out) == 2
        err = capsys.readouterr().err
        assert "2 non-finite entries" in err
        assert "row 5, column 2" in err
        assert not (out / "meta.json").exists()


class TestNonFiniteHyperparameters:
    """A NaN or infinite nu, g or c_tau fails with exit 2 before any output."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [("mcmc", "--c-tau", "nan"), ("mcmc", "--c-tau", "inf"),
         ("mcmc", "--g", "inf"), ("mcmc", "--nu", "inf"),
         ("search", "--c-tau", "nan")],
    )
    def test_exits_2_before_writing(self, data_dir, tmp_path, capsys, command,
                                    flag, value):
        out = tmp_path / "out"
        assert run(command, "--data", data_dir, flag, value,
                   "--out", out) == 2
        name = flag[2:].replace("-", "_")
        assert f"{command}: {name} must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestTooFewRows:
    """Data with fewer than 2 rows fails at load, with exit 2, before any work."""

    @pytest.mark.parametrize("body", ["x1,x2,x3\n", "x1,x2,x3\n0.1,0.2,0.3\n"],
                             ids=["header-only", "one-row"])
    def test_exits_2_before_writing(self, tmp_path, capsys, body):
        x = tmp_path / "x.csv"
        x.write_text(body)
        out = tmp_path / "out"
        assert run("mcmc", "--x", x, "--iterations", 10, "--burn-in", 0,
                   "--out", out) == 2
        rows = body.count("\n") - 1
        # the gwish message alone: no numpy warning about the empty file
        assert capsys.readouterr().err.splitlines() == [
            f"mcmc: data needs at least 2 rows, got {rows}"
        ]
        assert not (out / "meta.json").exists()


class TestOneColumn:
    """With p = 1 the only graph is the empty one: the chain stays there,
    every step a rejected proposal."""

    @pytest.mark.parametrize("kernel", ["uniform", "exact"])
    def test_mcmc_stays_on_the_empty_graph(self, tmp_path, kernel):
        x = tmp_path / "x.csv"
        x.write_text("x1\n1.0\n2.0\n-0.5\n0.3\n")
        out = tmp_path / "out"
        assert run("mcmc", "--x", x, "--kernel", kernel, "--iterations", 20,
                   "--burn-in", 5, "--sample-precision", "--out", out) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["p"] == 1 and meta["acceptance_rate"] == 0.0
        assert meta["median_graph_edges"] == 0
        omega = np.loadtxt(out / "omega_mcmc.csv", delimiter=",", ndmin=2)
        assert omega.shape == (1, 1) and omega[0, 0] > 0.0


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert "gwish" in capsys.readouterr().out

    def test_garbage_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a\nnumber,matrix,at,all\n")
        assert run("mcmc", "--x", bad, "--iterations", 1, "--burn-in", 0,
                   "--out", tmp_path / "o") == 2

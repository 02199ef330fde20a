"""Command-line contract: formats, determinism, exit codes, recipes."""

import csv
import json
import math

import numpy as np
import pytest

from wsqopt.cli import main
from wsqopt.io import read_graph, read_portfolio, write_graph
from wsqopt.generators import complete_graph


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def stripped_json(path):
    payload = json.loads(path.read_text())
    payload.pop("wall_time_s", None)
    return payload


def negative_zeros(value, path=""):
    """Paths of the -0.0 floats in a parsed JSON value."""
    if isinstance(value, dict):
        return [z for key, item in value.items() for z in negative_zeros(item, f"{path}/{key}")]
    if isinstance(value, list):
        return [z for i, item in enumerate(value) for z in negative_zeros(item, f"{path}[{i}]")]
    if isinstance(value, float) and value == 0.0 and math.copysign(1.0, value) < 0:
        return [path]
    return []


class TestGenerate:
    def test_complete_graph_edge_count(self, tmp_path):
        out = tmp_path / "g.txt"
        assert run_cli("generate", "graph-complete", "--n", "6", "--seed", "3", "--out", str(out)) == 0
        g = read_graph(out)
        assert g.n == 6
        assert g.m <= 15
        header = out.read_text().splitlines()[0].split()
        assert int(header[1]) == g.m

    def test_er_graph(self, tmp_path):
        out = tmp_path / "g.txt"
        assert run_cli(
            "generate", "graph-er", "--n", "10", "--p-edge", "0.5",
            "--weights=-1,1", "--seed", "1", "--out", str(out),
        ) == 0
        g = read_graph(out)
        assert all(w in (-1.0, 1.0) for _, _, w in g.edges)

    def test_portfolio_psd(self, tmp_path):
        out = tmp_path / "p.json"
        assert run_cli("generate", "portfolio", "--n", "6", "--seed", "5", "--out", str(out)) == 0
        instance = read_portfolio(out)
        assert instance.n == 6
        assert np.linalg.eigvalsh(instance.sigma).min() >= -1e-9

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            run_cli("generate", "graph-complete", "--n", "8", "--seed", "9", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()


class TestSolve:
    def test_brute_single_edge(self, tmp_path):
        from wsqopt.problems import WeightedGraph

        gpath = tmp_path / "g.txt"
        write_graph(gpath, WeightedGraph(n=2, edges=[(0, 1, 1.0)]))
        out = tmp_path / "r.json"
        assert run_cli("solve", "--method", "brute", "--instance", str(gpath), "--out", str(out)) == 0
        result = json.loads(out.read_text())
        assert result["value"] == 1.0
        assert result["method"] == "brute"
        assert "seed" in result and "config" in result

    def test_gw_ratio_in_unit_interval(self, tmp_path):
        gpath = tmp_path / "g.txt"
        write_graph(gpath, complete_graph(12, seed=2))
        out = tmp_path / "r.json"
        assert run_cli(
            "solve", "--method", "gw", "--instance", str(gpath),
            "--seed", "4", "--gw-samples", "10", "--out", str(out),
        ) == 0
        result = json.loads(out.read_text())
        assert 0.0 < result["ratio"] <= 1.0

    def test_ws_rqaoa_deterministic(self, tmp_path):
        gpath = tmp_path / "g.txt"
        write_graph(gpath, complete_graph(8, seed=6))
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert run_cli(
                "solve", "--method", "ws-rqaoa", "--instance", str(gpath),
                "--seed", "7", "--n-stop", "4", "--gw-samples", "4",
                "--gw-keep", "2", "--out", str(out),
            ) == 0
            outs.append(stripped_json(out))
        assert outs[0] == outs[1]

    def test_trace_jsonl(self, tmp_path):
        gpath = tmp_path / "g.txt"
        write_graph(gpath, complete_graph(7, seed=8))
        out = tmp_path / "r.json"
        trace = tmp_path / "t.jsonl"
        assert run_cli(
            "solve", "--method", "rqaoa", "--instance", str(gpath),
            "--n-stop", "4", "--out", str(out), "--trace", str(trace),
        ) == 0
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(lines) == 3
        assert all("chosen_pair" in row for row in lines)

    def test_grid_reaches_recursive_methods(self, tmp_path, monkeypatch):
        import wsqopt.cli

        gpath = tmp_path / "g.txt"
        write_graph(gpath, complete_graph(6, seed=8))
        seen = []
        original = wsqopt.cli.run_rqaoa

        def recording(g, cfg, seed):
            seen.append(cfg)
            return original(g, cfg, seed=seed)

        monkeypatch.setattr(wsqopt.cli, "run_rqaoa", recording)
        for method in ("rqaoa", "ws-rqaoa"):
            assert run_cli(
                "solve", "--method", method, "--instance", str(gpath), "--n-stop", "4",
                "--grid", "4x6", "--out", str(tmp_path / f"{method}.json"),
            ) == 0
        assert [(cfg.grid.beta_points, cfg.grid.gamma_points) for cfg in seen] == [(4, 6), (4, 6)]

    def test_qp_on_portfolio(self, tmp_path):
        ppath = tmp_path / "p.json"
        run_cli("generate", "portfolio", "--n", "4", "--seed", "1", "--out", str(ppath))
        out = tmp_path / "qp.json"
        assert run_cli("solve", "--method", "qp", "--instance", str(ppath), "--out", str(out)) == 0
        result = json.loads(out.read_text())
        assert len(result["c_star"]) == 4

    def test_ws_qaoa_on_portfolio(self, tmp_path):
        ppath = tmp_path / "p.json"
        run_cli("generate", "portfolio", "--n", "4", "--seed", "2", "--out", str(ppath))
        out = tmp_path / "w.json"
        assert run_cli(
            "solve", "--method", "ws-qaoa", "--instance", str(ppath),
            "--multistart", "2", "--out", str(out),
        ) == 0
        result = json.loads(out.read_text())
        assert result["p_target"] >= 0.0
        assert len(result["betas"]) == 1

    def test_incompatible_method_exits_2(self, tmp_path):
        gpath = tmp_path / "g.txt"
        write_graph(gpath, complete_graph(5, seed=1))
        assert run_cli("solve", "--method", "qp", "--instance", str(gpath)) == 2

    def test_solver_failure_exits_3(self, tmp_path, monkeypatch):
        gpath = tmp_path / "g.txt"
        write_graph(gpath, complete_graph(6, seed=1))
        monkeypatch.setenv("WSQOPT_MAX_QUBITS", "3")
        assert run_cli(
            "solve", "--method", "qaoa", "--instance", str(gpath), "--multistart", "1"
        ) == 3

    @pytest.mark.parametrize(
        "method", ["sdp", "gw", "qaoa", "ws-qaoa", "rqaoa", "ws-rqaoa", "classical-gw", "brute"]
    )
    def test_edgeless_graph_writes_no_negative_zero(self, tmp_path, method):
        gpath = tmp_path / "g.txt"
        gpath.write_text("3 0\n")
        out = tmp_path / "r.json"
        assert run_cli("solve", "--method", method, "--instance", str(gpath), "--out", str(out)) == 0
        assert negative_zeros(json.loads(out.read_text())) == []

    @pytest.mark.parametrize("seed", ["0", "1"])
    @pytest.mark.parametrize("method", ["qaoa", "ws-qaoa"])
    def test_portfolio_ratio_in_unit_interval_at_ground_energy_near_zero(self, tmp_path, seed, method):
        from wsqopt.problems import brute_force, portfolio_qubo, qubo_to_ising

        ppath = tmp_path / "p.json"
        run_cli("generate", "portfolio", "--n", "4", "--seed", seed, "--out", str(ppath))
        _, ground = brute_force(qubo_to_ising(portfolio_qubo(read_portfolio(ppath))))
        # seed 0 has a ground energy of +4.2e-4, seed 1 of -7.6e-4
        assert 0.0 < abs(ground) < 1e-3
        out = tmp_path / "r.json"
        assert run_cli(
            "solve", "--method", method, "--instance", str(ppath), "--multistart", "2",
            "--out", str(out),
        ) == 0
        result = json.loads(out.read_text())
        assert result["min_energy"] <= result["energy"] <= result["max_energy"]
        assert 0.0 <= result["ratio"] <= 1.0

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-4"])
    def test_bad_max_qubits_exits_2_naming_the_variable(self, tmp_path, monkeypatch, capsys, value):
        gpath = tmp_path / "g.txt"
        write_graph(gpath, complete_graph(4, seed=1))
        monkeypatch.setenv("WSQOPT_MAX_QUBITS", value)
        assert run_cli(
            "solve", "--method", "qaoa", "--instance", str(gpath), "--multistart", "1"
        ) == 2
        assert f"WSQOPT_MAX_QUBITS={value!r}" in capsys.readouterr().err


class TestExperiment:
    def test_fig7_monotone_best_ratio(self, tmp_path):
        out = tmp_path / "fig7.csv"
        assert run_cli(
            "experiment", "--recipe", "fig7", "--n", "8",
            "--instances", "4", "--seed", "3", "--out", str(out),
        ) == 0
        rows = read_rows(out)
        by_count = {}
        for row in rows:
            by_count.setdefault(int(row["n_samples"]), []).append(float(row["best_ratio"]))
        counts = sorted(by_count)
        means = [np.mean(by_count[c]) for c in counts]
        assert all(means[i] <= means[i + 1] + 1e-12 for i in range(len(means) - 1))

    def test_fig4_contains_endpoints(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert run_cli(
            "experiment", "--recipe", "fig4", "--n", "6", "--instances", "1",
            "--gw-samples", "4", "--gw-keep", "2", "--seed", "5", "--out", str(out),
        ) == 0
        rows = read_rows(out)
        epsilons = {float(row["epsilon"]) for row in rows}
        assert 0.0 in epsilons and 0.5 in epsilons

    def test_prop2_delegates_to_report(self, tmp_path):
        out = tmp_path / "prop2.csv"
        assert run_cli(
            "experiment", "--recipe", "prop2", "--instances", "2",
            "--trajectories", "500", "--seed", "7", "--out", str(out),
        ) == 0
        rows = read_rows(out)
        assert len(rows) == 2
        assert set(rows[0]) == {
            "u_dot_v", "empirical", "predicted", "abs_err", "stderr", "truncated_frac",
        }

    def test_fig2_rows(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run_cli(
            "experiment", "--recipe", "fig2", "--n", "4", "--instances", "2",
            "--multistart", "2", "--seed", "9", "--out", str(out),
        ) == 0
        rows = read_rows(out)
        assert {row["method"] for row in rows} == {"standard", "warm-start"}

    def test_csv_determinism(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run_cli(
                "experiment", "--recipe", "fig7", "--n", "6",
                "--instances", "2", "--seed", "11", "--out", str(out),
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_recipe_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("experiment", "--recipe", "nope", "--out", str(tmp_path / "x.csv"))
        assert excinfo.value.code == 2


class TestEdgeFlags:
    """Edge values of flags exit 2 with a message instead of crashing or
    being replaced by a default."""

    @pytest.fixture
    def graph_path(self, tmp_path):
        path = tmp_path / "g.txt"
        write_graph(path, complete_graph(5, seed=1))
        return path

    @pytest.fixture
    def portfolio_path(self, tmp_path):
        path = tmp_path / "p.json"
        assert run_cli("generate", "portfolio", "--n", "3", "--seed", "1", "--out", str(path)) == 0
        return path

    @pytest.mark.parametrize("grid", ["0x24", "1x24", "24"])
    def test_bad_grid_exits_2(self, graph_path, capsys, grid):
        assert run_cli("solve", "--method", "rqaoa", "--instance", str(graph_path), "--grid", grid) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("method", ["qaoa", "ws-qaoa"])
    def test_depth_zero_exits_2(self, graph_path, portfolio_path, capsys, method):
        for path in (graph_path, portfolio_path):
            assert run_cli("solve", "--method", method, "--instance", str(path), "--p", "0") == 2
            assert "depth p must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["sigma", "mu", "q", "B", "lambda"])
    def test_portfolio_missing_field_exits_2_naming_it(self, portfolio_path, capsys, key):
        payload = json.loads(portfolio_path.read_text())
        del payload[key]
        portfolio_path.write_text(json.dumps(payload))
        assert run_cli("solve", "--method", "qp", "--instance", str(portfolio_path)) == 2
        assert f"portfolio field {key!r}" in capsys.readouterr().err

    def test_portfolio_null_field_exits_2_naming_it(self, portfolio_path, capsys):
        payload = json.loads(portfolio_path.read_text())
        payload["lambda"] = None
        portfolio_path.write_text(json.dumps(payload))
        assert run_cli("solve", "--method", "qp", "--instance", str(portfolio_path)) == 2
        assert "portfolio field 'lambda'" in capsys.readouterr().err

    def test_portfolio_ill_typed_field_exits_2_naming_it(self, portfolio_path, capsys):
        payload = json.loads(portfolio_path.read_text())
        payload["mu"] = [1.0, "x", 2.0]
        portfolio_path.write_text(json.dumps(payload))
        assert run_cli("solve", "--method", "qp", "--instance", str(portfolio_path)) == 2
        assert "portfolio field 'mu'" in capsys.readouterr().err

    def test_multistart_zero_on_graph_exits_2(self, graph_path, capsys):
        assert run_cli("solve", "--method", "qaoa", "--instance", str(graph_path), "--multistart", "0") == 2
        assert "need at least one start" in capsys.readouterr().err

    def test_multistart_zero_on_portfolio_exits_2(self, portfolio_path, capsys):
        assert run_cli("solve", "--method", "qaoa", "--instance", str(portfolio_path), "--multistart", "0") == 2
        assert "need at least one start" in capsys.readouterr().err

    def test_n_stop_zero_exits_2(self, graph_path, capsys):
        assert run_cli("solve", "--method", "classical-gw", "--instance", str(graph_path), "--n-stop", "0") == 2
        assert "n_stop must be at least 1" in capsys.readouterr().err

    def test_experiment_instances_zero_exits_2(self, tmp_path, capsys):
        out = tmp_path / "fig7.csv"
        assert run_cli("experiment", "--recipe", "fig7", "--n", "6", "--instances", "0", "--out", str(out)) == 2
        assert "experiment produced no rows" in capsys.readouterr().err
        assert not out.exists()

    def test_experiment_n_zero_exits_2(self, tmp_path, capsys):
        out = tmp_path / "fig7.csv"
        assert run_cli("experiment", "--recipe", "fig7", "--n", "0", "--instances", "1", "--out", str(out)) == 2
        assert "need at least two nodes" in capsys.readouterr().err

    def test_experiment_multistart_zero_exits_2(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        assert run_cli(
            "experiment", "--recipe", "fig2", "--n", "3", "--instances", "1",
            "--multistart", "0", "--out", str(out),
        ) == 2
        assert "need at least one start" in capsys.readouterr().err

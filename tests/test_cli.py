"""End-to-end exercises of every CLI subcommand."""

import csv
import json
import math
from importlib import resources

import pytest

from conftest import count_calls
from syncgrid import graph, powerflow
from syncgrid.cli import main
from syncgrid.graph import WeightedGraph, save_graph

RTS96 = str(resources.files("syncgrid").joinpath("data/rts96.json"))


@pytest.fixture
def graph_file(tmp_path):
    g = WeightedGraph.from_edges(3, [(1, 2, 2.0), (2, 3, 2.0), (1, 3, 2.0)])
    path = tmp_path / "g.json"
    save_graph(g, str(path))
    return str(path)


@pytest.fixture
def omega_file(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("omega\n1.0\n-1.0\n0.0\n")
    return str(path)


@pytest.fixture
def case_file(tmp_path):
    payload = {
        "name": "2bus", "base_mva": 100.0,
        "buses": [
            {"id": 1, "type": "gen", "vm": 1.0, "pg": 50.0, "area": 1},
            {"id": 2, "type": "load", "vm": 1.0, "pd": 50.0, "area": 1},
        ],
        "branches": [{"from": 1, "to": 2, "x": 1.0, "rating": 90.0}],
    }
    path = tmp_path / "case.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_analyze(graph_file, omega_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", "--graph", graph_file, "--omega", omega_file,
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["margin"] == pytest.approx(1 / 3, rel=1e-9)
    assert report["min_norm"] <= report["margin"]
    assert report["condition_holds"] is True
    assert len(report["psi"]) == 3
    assert report["necessary_absolute_ok"] is True


def test_solve(graph_file, omega_file, tmp_path):
    out = tmp_path / "eq.json"
    assert main(["solve", "--graph", graph_file, "--omega", omega_file,
                 "--out", str(out)]) == 0
    sol = json.loads(out.read_text())
    assert sol["residual"] <= 1e-10
    assert sol["stable"] is True
    assert len(sol["theta"]) == 3


def test_simulate(tmp_path, graph_file):
    net = {
        "graph": {"n": 2, "edges": [[1, 2, 2.0]]},
        "omega": [1.0, -1.0],
        "second_order": [],
        "M": 1.0,
        "D": 1.0,
    }
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(net))
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--net", str(net_path), "--t-end", "1.0",
                 "--step", "0.01", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "theta_1", "theta_2", "thetadot_1", "thetadot_2"]
    assert len(rows) == 102  # header + 101 samples
    assert float(rows[1][0]) == 0.0


@pytest.mark.parametrize("flag,value", [("--step", "0"), ("--t-end", "nan"), ("--record-stride", "0")])
def test_simulate_rejects_bad_step_contract(tmp_path, capsys, flag, value):
    net = {"graph": {"n": 2, "edges": [[1, 2, 2.0]]}, "omega": [1.0, -1.0], "D": 1.0}
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(net))
    code = main(["simulate", "--net", str(net_path), flag, value, "--out", str(tmp_path / "t.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: " + flag[2:].replace("-", "_"))


def test_kcritical(tmp_path):
    g_path = tmp_path / "g2.json"
    save_graph(WeightedGraph.from_edges(2, [(1, 2, 1.0)]), str(g_path))
    w_path = tmp_path / "w2.csv"
    w_path.write_text("1.0\n-1.0\n")
    out = tmp_path / "k.json"
    assert main(["kcritical", "--graph", str(g_path), "--omega", str(w_path),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["k_min"] == pytest.approx(1.0, rel=1e-2)
    assert payload["ratio"] == pytest.approx(1.0, rel=1e-2)


def test_gen_and_reuse(tmp_path):
    out = tmp_path / "net.json"
    assert main(["gen", "--model", "erg", "--n", "8", "--p", "0.5",
                 "--alpha", "5.0", "--seed", "7", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["margin"] < 1.0
    assert payload["graph"]["n"] == 8
    # deterministic replay
    out2 = tmp_path / "net2.json"
    main(["gen", "--model", "erg", "--n", "8", "--p", "0.5",
          "--alpha", "5.0", "--seed", "7", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_powerflow_modes(case_file, tmp_path):
    dc_out = tmp_path / "dc.json"
    assert main(["powerflow", "--case", case_file, "--mode", "dc",
                 "--out", str(dc_out)]) == 0
    dc = json.loads(dc_out.read_text())
    assert dc["max_angle_diff"] == pytest.approx(0.5)

    ac_out = tmp_path / "ac.json"
    assert main(["powerflow", "--case", case_file, "--mode", "ac",
                 "--out", str(ac_out)]) == 0
    ac = json.loads(ac_out.read_text())
    assert ac["feasible"] is True
    assert ac["cohesiveness"] == pytest.approx(math.asin(0.5), abs=1e-9)


def test_scenario(case_file, tmp_path):
    out = tmp_path / "stats.csv"
    assert main(["scenario", "--case", case_file, "--samples", "5",
                 "--seed", "3", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert all("margin" in r for r in rows)


def test_scenario_builds_and_solves_once_per_sample(tmp_path, monkeypatch):
    # the DC solve gives the margin and seeds Newton: no second model, no second solve
    builds = count_calls(monkeypatch, powerflow, "build_oscillator_model")
    solves = count_calls(monkeypatch, graph, "solve_poisson")
    out = tmp_path / "stats.csv"
    assert main(["scenario", "--case", RTS96, "--samples", "6", "--seed", "2",
                 "--out", str(out)]) == 0
    assert len(builds) == 6
    assert len(solves) == 6


def test_contingency(tmp_path):
    # 4-bus ring across two areas with a rated tie
    payload = {
        "base_mva": 100.0,
        "buses": [
            {"id": 1, "type": "gen", "pg": 40.0, "area": 1},
            {"id": 2, "type": "load", "pd": 40.0, "area": 1},
            {"id": 3, "type": "gen", "pg": 40.0, "area": 2},
            {"id": 4, "type": "load", "pd": 40.0, "area": 2},
        ],
        "branches": [
            {"from": 1, "to": 2, "x": 0.1, "rating": 200.0},
            {"from": 2, "to": 3, "x": 0.1, "rating": 200.0},
            {"from": 3, "to": 4, "x": 0.1, "rating": 200.0},
            {"from": 1, "to": 4, "x": 0.1, "rating": 200.0},
        ],
    }
    case_path = tmp_path / "ring.json"
    case_path.write_text(json.dumps(payload))
    out = tmp_path / "scan.csv"
    assert main(["contingency", "--case", str(case_path), "--ramp", "2:1",
                 "--max-loading", "1.0", "--points", "5", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    margins = [float(r["margin"]) for r in rows]
    assert margins[-1] > margins[0]


def test_contingency_dynamic_cross_check(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    capsys.readouterr()
    assert main(["contingency", "--case", RTS96, "--trip", "gen:323", "--ramp", "southeast",
                 "--points", "5", "--dynamic", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    check = summary["dynamic_cross_check"]
    assert check["loading"] == pytest.approx(summary["predicted_limit_loading"] - 0.02)
    assert check["synchronized"] is True


def test_montecarlo(tmp_path):
    cells = [{"n": 8, "model": "erg", "p": 0.5, "alpha": 5.0}]
    cells_path = tmp_path / "cells.json"
    cells_path.write_text(json.dumps(cells))
    out = tmp_path / "table.csv"
    assert main(["montecarlo", "--cells", str(cells_path), "--samples", "10",
                 "--seed", "1", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["empirical_probability"]) >= 0.8


def test_accuracy(tmp_path):
    out = tmp_path / "fig.csv"
    assert main(["accuracy", "--models", "erg", "--dists", "bipolar",
                 "--sizes", "6", "--ps", "0.9", "--samples", "3",
                 "--seed", "2", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert 0.3 < float(rows[0]["mean_ratio"]) <= 1.02


def test_cli_error_reporting(tmp_path, capsys):
    bad_graph = tmp_path / "bad.json"
    bad_graph.write_text(json.dumps({"n": 4, "edges": [[1, 2, 1.0], [3, 4, 1.0]]}))
    w = tmp_path / "w.csv"
    w.write_text("1.0\n-1.0\n0.5\n-0.5\n")
    code = main(["analyze", "--graph", str(bad_graph), "--omega", str(w)])
    assert code == 1
    assert "error" in capsys.readouterr().err


PATH3 = json.dumps({"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0]]})
OMEGA3 = "0.1\n0.2\n-0.3\n"


@pytest.mark.parametrize("command, files, message", [
    ("analyze", {"graph": json.dumps({"n": 3, "edges": [[1, 2, 1.0], [1, 1, 1.0]]}),
                 "omega": OMEGA3}, "self-loop on node 1"),
    ("solve", {"graph": "i,j,weight\n1,2,-1\n2,3,1\n", "omega": OMEGA3},
     "edge (1,2) has non-positive weight -1.0"),
    ("simulate", {"net": json.dumps({"graph": json.loads(PATH3), "omega": [0.1, 0.0, -0.1],
                                     "D": 0})}, "damping must be positive"),
    # three numbers and a typo on a 3-node graph: the typo is not dropped
    ("analyze", {"graph": PATH3, "omega": "omega\n0.1\n0.2x\n-0.3\n0.2\n"},
     "line 3: not a number: '0.2x'"),
    ("analyze", {"graph": json.dumps({"edges": [[1, 2, 1.0]]}), "omega": OMEGA3},
     "graph has no 'n' field"),
    ("analyze", {"graph": "i,j,weight\n1,2,1\n2,3,abc\n", "omega": OMEGA3},
     "line 3: not an edge i,j,weight"),
    ("analyze", {"graph": PATH3[:-2], "omega": OMEGA3}, "graph: not valid JSON"),
    ("simulate", {"net": json.dumps({"graph": json.loads(PATH3)})}, "network has no 'omega' field"),
    ("simulate", {"net": json.dumps({"graph": json.loads(PATH3), "omega": [0.1, 0.0, -0.1]})[:-5]},
     "net: not valid JSON"),
], ids=["self-loop", "negative-weight", "zero-damping", "omega-typo", "graph-without-n",
        "csv-weight-typo", "truncated-graph", "net-without-omega", "truncated-net"])
def test_cli_rejects_malformed_input_files(tmp_path, capsys, command, files, message):
    argv = [command, "--out", str(tmp_path / "out")]
    for flag, text in files.items():
        path = tmp_path / flag
        path.write_text(text)
        argv += [f"--{flag}", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_gen_rejects_out_of_range_p(capsys):
    # an erg edge probability above one is an input error, not a traceback
    code = main(["gen", "--model", "erg", "--n", "8", "--p", "2", "--alpha", "5"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_contingency_rejects_flat_loading_grid(tmp_path, capsys):
    # a zero maximum loading gives a grid that is not strictly increasing
    code = main(["contingency", "--case", RTS96, "--trip", "gen:323", "--ramp", "southeast",
                 "--max-loading", "0", "--points", "3", "--out", str(tmp_path / "c.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: loadings")


@pytest.mark.parametrize("flag, spec", [("--trip", "foo:1"), ("--trip", "gen:abc"),
                                        ("--trip", "branch:5"), ("--ramp", "3:x")])
def test_contingency_rejects_malformed_specs(tmp_path, capsys, flag, spec):
    args = {"--trip": "gen:323", "--ramp": "southeast", flag: spec}
    code = main(["contingency", "--case", RTS96, "--trip", args["--trip"],
                 "--ramp", args["--ramp"], "--points", "3", "--out", str(tmp_path / "c.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(spec) in err

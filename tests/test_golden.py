"""Golden, seed-pinned digests of the CLI studies.

Each case runs one CLI command on a small, seed-pinned input and compares
the SHA-256 digest of every file it writes (and of stdout where the command
reports there) with the checked-in value.  The analyze, solve, kcritical and
simulate cases read a 12-node graph (weighted, and with unit weights for
kcritical), its frequencies and an oscillator network that the test writes
first (write_inputs); its edge list is shuffled,
partly misoriented and holds integral-float node ids, so graph loading and
edge normalisation are covered too.  A refactor that claims to change
no numbers must leave every digest as it is; re-pin one only together with
a CHANGES.md entry that says which output moved and why.
"""

import hashlib
import json
from importlib import resources

import numpy as np
import pytest

from syncgrid.cli import main
from syncgrid.graph import SPARSE_MIN_NODES

RTS96 = str(resources.files("syncgrid").joinpath("data/rts96.json"))

# Criterion-08 cells at a small sample count.
MONTECARLO_CELLS = [
    {"n": 10, "model": "erg", "p": 0.3, "alpha": 8.0},
    {"n": 20, "model": "erg", "p": 0.3, "alpha": 15.0},
    {"n": 30, "model": "smn", "p": 0.2, "alpha": 13.0},
]

# Ring 1..12 plus four chords.
GRAPH_PAIRS = [(k, k % 12 + 1) for k in range(1, 13)] + [(1, 5), (3, 9), (6, 11), (2, 8)]


def write_inputs(tmp_path) -> dict:
    """Write the graph, omega and network files; return placeholder -> path."""
    rng = np.random.default_rng(2026)
    weights = rng.uniform(0.5, 5.0, len(GRAPH_PAIRS))
    omega = rng.uniform(-4.0, 4.0, 12)
    flip = rng.random(len(GRAPH_PAIRS)) < 0.5
    edges = [[float(j), i, w] if f else [i, j, w]  # misoriented, integral-float ids
             for (i, j), w, f in zip(GRAPH_PAIRS, weights.tolist(), flip)]
    edges = [edges[k] for k in rng.permutation(len(edges))]
    names = ("graph.json", "unit.json", "omega.csv", "net.json")
    paths = {name: tmp_path / name for name in names}
    paths["graph.json"].write_text(json.dumps({"n": 12, "edges": edges}))
    unit = [[i, j, 1] for i, j, _ in edges]
    paths["unit.json"].write_text(json.dumps({"n": 12, "edges": unit}))
    paths["omega.csv"].write_text("omega\n" + "".join(f"{x!r}\n" for x in omega.tolist()))
    net = {"graph": {"n": 12, "edges": edges}, "omega": (0.5 * omega).tolist(),
           "second_order": [2, 7, 11], "M": 0.4, "D": 1.0}
    paths["net.json"].write_text(json.dumps(net))
    return {name.upper().replace(".", "_"): str(path) for name, path in paths.items()}


# name -> (argv with OUT/CELLS and write_inputs placeholders,
#          {output label: digest})
GOLDEN = {
    "montecarlo": (
        ["montecarlo", "--cells", "CELLS", "--samples", "12", "--seed", "3", "--out", "OUT"],
        {"out":
         "c6469810086548da7c218695b7030f1670fd81733d9dfb44ac2e4a155df636f7"},
    ),
    "accuracy": (
        ["accuracy", "--sizes", "10", "--ps", "0.2,0.8", "--samples", "3", "--seed", "1",
         "--out", "OUT"],
        {"out":
         "2cd4d1ac8dc7f23642059ac39597e96e3bfaf8d0ebae9c2fae6f88e61d63c80e"},
    ),
    "scenario": (
        ["scenario", "--case", RTS96, "--samples", "40", "--seed", "2", "--out", "OUT"],
        {"out":
         "7a62b9b901a73dc6195844c4450d0f310e1719a2446088b9e981aa998b0388ab"},
    ),
    "contingency": (
        ["contingency", "--case", RTS96, "--trip", "gen:323", "--ramp", "southeast",
         "--points", "21", "--out", "OUT"],
        {"out":
         "36896ff182cfb5f9463cfaf392230db7218426f3ec6f4af883623934e8873b15",
         "stdout":
         "ce52fac0b5ed33088bccc7c8ce0c8b8cfaf4b9367bf8520d5ff3aa1598b68498"},
    ),
    "gen": (
        ["gen", "--model", "smn", "--n", "20", "--p", "0.2", "--alpha", "13", "--seed", "5",
         "--sample", "1", "--out", "OUT"],
        {"out":
         "a5e09821a595ceff21fc97a52baea5510fec0b317a81d2f348cc6571c4dca731"},
    ),
    "analyze": (
        ["analyze", "--graph", "GRAPH_JSON", "--omega", "OMEGA_CSV", "--out", "OUT"],
        {"out":
         "0c342d17ffe17257fe6207104f15bad0feeaf86e519265ff9260926e6af9ae32"},
    ),
    "solve": (
        ["solve", "--graph", "GRAPH_JSON", "--omega", "OMEGA_CSV", "--out", "OUT"],
        {"out":
         "c12e4b67bdfde803ceb4311ff48d56fbaefe14ac724e13c8d1103793b982ebba"},
    ),
    "kcritical": (
        ["kcritical", "--graph", "UNIT_JSON", "--omega", "OMEGA_CSV", "--seed", "4",
         "--out", "OUT"],
        {"out":
         "821ba1954ddd8c3216a55a039898515fd44bc1e26e748e6424d31c817d28d3fb"},
    ),
    "simulate": (
        ["simulate", "--net", "NET_JSON", "--t-end", "2", "--step", "0.01",
         "--record-stride", "10", "--out", "OUT"],
        {"out":
         "589a87bf3365fa2bfc1f574d5d340d3f03adb178b7187736f3627fdd8105dd55"},
    ),
    "powerflow_ac": (
        ["powerflow", "--case", RTS96, "--mode", "ac", "--out", "OUT"],
        {"out":
         "b639ea0d5df8a685a52d86b6ff750a68d6624f3528f230eb73e166d9a2d89473"},
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_digest(name, tmp_path, capsys):
    argv, expected = GOLDEN[name]
    out = tmp_path / "out"
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps(MONTECARLO_CELLS))
    substitute = {"OUT": str(out), "CELLS": str(cells), **write_inputs(tmp_path)}
    capsys.readouterr()
    assert main([substitute.get(arg, arg) for arg in argv]) == 0
    actual = {"out": _sha256(out.read_bytes())}
    if "stdout" in expected:
        actual["stdout"] = _sha256(capsys.readouterr().out.encode("utf-8"))
    assert actual == expected


def test_golden_inputs_stay_on_the_dense_path():
    assert SPARSE_MIN_NODES > 73  # the rts96 case, the largest golden input

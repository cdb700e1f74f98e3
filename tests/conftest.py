"""Shared generators for randomized tests and dense numpy reference operators."""

from __future__ import annotations

import os
import sys

# One BLAS thread, as perfbench/run.py pins it, so that a test's wall-time
# bound does not depend on how many cores other processes leave the session.
# Set before numpy loads; a value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from syncgrid.graph import WeightedGraph
from syncgrid.rng import substream


def random_connected_graph(
    seed: int,
    n_min: int = 3,
    n_max: int = 12,
    weighted: bool = True,
    extra_edges: int | None = None,
) -> WeightedGraph:
    """Random spanning tree plus extra chords; connected by construction."""
    rng = substream(seed, 424242)
    n = int(rng.integers(n_min, n_max + 1))
    edges: set[tuple[int, int]] = set()
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.add((u, v))
    n_extra = int(rng.integers(0, n)) if extra_edges is None else extra_edges
    for _ in range(n_extra):
        u, v = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        u, v = int(min(u, v)), int(max(u, v))
        edges.add((u, v))
    ordered = sorted(edges)
    weights = rng.uniform(0.5, 5.0, len(ordered)) if weighted else np.ones(len(ordered))
    return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(ordered, weights)])


def random_tree(seed: int, n_min: int = 3, n_max: int = 20, weighted: bool = True) -> WeightedGraph:
    rng = substream(seed, 515151)
    n = int(rng.integers(n_min, n_max + 1))
    edges = []
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.append((u, v))
    weights = rng.uniform(0.5, 5.0, len(edges)) if weighted else np.ones(len(edges))
    return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(edges, weights)])


def cycle_graph(n: int, weights=None) -> WeightedGraph:
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    if weights is None:
        weights = np.ones(n)
    return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(edges, weights)])


def tiled_rts96(copies: int) -> tuple[WeightedGraph, np.ndarray]:
    """copies of the rts96 oscillator model in a ring (at least 2), each copy tied
    to the next by three lines of weight 10, and the model's omega tiled: the
    layout of perfbench's large_grid workload (n = 73 copies)."""
    from syncgrid.powerflow import build_oscillator_model, bundled_case

    net = build_oscillator_model(bundled_case("rts96"))
    g, n = net.graph, net.graph.n
    edges = []
    for k in range(copies):
        off, nxt = k * n, (k + 1) % copies * n
        edges += [(off + i, off + j, w) for i, j, w in g.edges]
        edges += [(off + i + 1, nxt + j + 1, 10.0) for i, j in ((60, 10), (40, 30), (70, 55))]
    return WeightedGraph.from_edges(copies * n, edges), np.tile(net.omega, copies)


def random_zero_mean(seed: int, n: int, scale: float = 1.0) -> np.ndarray:
    rng = substream(seed, 636363)
    omega = rng.uniform(-scale, scale, n)
    return omega - omega.mean()


def incidence(g: WeightedGraph) -> np.ndarray:
    """Dense oriented incidence matrix B (n x m): -1 at each source, +1 at each sink."""
    return np.eye(g.n)[:, g.sinks] - np.eye(g.n)[:, g.sources]


def pseudoinverse(g: WeightedGraph) -> np.ndarray:
    """Laplacian pseudoinverse by eigh, the zero mode of a connected graph dropped."""
    lam, v = np.linalg.eigh(g.laplacian())
    return (v[:, 1:] / lam[1:]) @ v[:, 1:].T


def fundamental_cycles(g: WeightedGraph) -> np.ndarray:
    """Signed fundamental cycles of the BFS tree in ker B: a row per chord, +1 on it, no -0.0."""
    b, tree = incidence(g), g.bfs_tree.parent_edge[1:]
    chords = np.setdiff1d(np.arange(g.m), tree)
    c = np.eye(g.m)[chords]
    c[:, tree] = 0.0 - np.rint(np.linalg.lstsq(b[:, tree], b[:, chords], rcond=None)[0]).T
    return c


def count_calls(monkeypatch, module, name: str) -> list:
    """Record every call of module.name, through module itself and each syncgrid
    module bound to it (so numpy.linalg functions are counted too).

    Returns the list that grows by one entry per call.
    """
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "syncgrid" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls

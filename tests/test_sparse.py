"""The sparse grounded path: graphs with at least SPARSE_MIN_NODES nodes."""

import math

import numpy as np
import pytest
from scipy import sparse

from conftest import (count_calls, pseudoinverse, random_connected_graph, random_zero_mean,
                      tiled_rts96)
from syncgrid import equilibrium, graph
from syncgrid.equilibrium import (
    _factor_grounded,
    _grounded_minus_jacobian,
    _one_norm,
    _stable_by_factor,
    assess_stability,
    fixed_point_residual,
    jacobian,
    solve_equilibrium,
)
from syncgrid.errors import SingularJacobianError
from syncgrid.graph import SPARSE_MIN_NODES, WeightedGraph, solve_poisson
from syncgrid.rng import substream
from syncgrid.sync import sync_margin


def large_graph(seed: int) -> WeightedGraph:
    return random_connected_graph(seed, n_min=SPARSE_MIN_NODES, n_max=SPARSE_MIN_NODES + 60)


def lattice(side: int) -> WeightedGraph:
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c + 1
            if c + 1 < side:
                edges.append((v, v + 1, 1.0))
            if r + 1 < side:
                edges.append((v, v + side, 1.0))
    return WeightedGraph.from_edges(side * side, edges)


@pytest.mark.parametrize("seed", range(4))
def test_sparse_solve_poisson_matches_pseudoinverse(seed):
    g = large_graph(seed)
    x = random_zero_mean(seed, g.n)
    expected = pseudoinverse(g) @ x
    assert np.max(np.abs(solve_poisson(g, x) - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_margin_then_newton_factor_the_laplacian_once(monkeypatch):
    g = large_graph(11)
    omega = random_zero_mean(12, g.n)
    omega *= 0.5 / sync_margin(g, omega).margin
    g = WeightedGraph(g.n, g.edges)  # a new graph object caches no factor yet
    factors = count_calls(monkeypatch, graph, "symmetric_splu")
    poisson = count_calls(monkeypatch, graph, "solve_poisson")
    sync_margin(g, omega)
    sol = solve_equilibrium(g, omega)
    assert len(poisson) == 2 and sol.iterations >= 1
    # one Laplacian factor, one per Newton iteration, one for the stability verdict
    assert len(factors) == 1 + sol.iterations + 1


def test_scaled_graph_factors_its_own_laplacian():
    # scaled shares the topology but not the parent's factor: margin(K a) = margin(a) / K
    g = large_graph(8)
    omega = random_zero_mean(8, g.n)
    margin = sync_margin(g, omega).margin
    assert "_grounded_laplacian_lu" in vars(g)
    assert sync_margin(g.scaled(2.0), omega).margin == pytest.approx(margin / 2.0, rel=1e-12)


def test_sparse_and_dense_newton_agree(monkeypatch):
    g = large_graph(21)
    omega = random_zero_mean(22, g.n)
    omega *= 0.6 / sync_margin(g, omega).margin
    sparse_sol = solve_equilibrium(g, omega)
    monkeypatch.setattr(graph, "SPARSE_MIN_NODES", 10 ** 9)
    monkeypatch.setattr(equilibrium, "SPARSE_MIN_NODES", 10 ** 9)
    dense_sol = solve_equilibrium(WeightedGraph(g.n, g.edges), omega)
    assert sparse_sol.stable and dense_sol.stable
    assert sparse_sol.iterations == dense_sol.iterations
    assert np.max(np.abs(sparse_sol.theta - dense_sol.theta)) <= 1e-12


@pytest.mark.parametrize("n", [20, 250])
def test_singular_jacobian_raises_on_both_branches(n):
    # one edge at pi/2 among small steps: cos there is ~1e-17 against ~1
    # elsewhere, and a path's grounded -J has determinant prod(a cos)
    g = WeightedGraph.from_edges(n, [(k, k + 1, 1.0) for k in range(1, n)])
    steps = np.full(n - 1, 0.1)
    steps[n // 2] = math.pi / 2
    theta0 = np.concatenate([[0.0], np.cumsum(steps)])
    with pytest.raises(SingularJacobianError, match="condition"):
        solve_equilibrium(g, np.zeros(n), theta0=theta0)


def test_exactly_singular_sparse_factor_is_infinite_condition():
    minus_jac = sparse.csc_array(sparse.diags(np.r_[np.ones(SPARSE_MIN_NODES), 0.0]))
    assert _factor_grounded(minus_jac) == (None, math.inf)


def test_lattice_of_ten_thousand_nodes_without_dense_matrices(monkeypatch):
    g = lattice(100)
    dense = count_calls(monkeypatch, WeightedGraph, "laplacian")
    omega = random_zero_mean(31, g.n, scale=0.05)
    margin = sync_margin(g, omega).margin
    assert 0.0 < margin < 1.0
    sol = solve_equilibrium(g, omega)
    assert sol.stable and sol.cohesiveness < math.pi / 2
    assert sol.residual <= 1e-8
    assert np.max(np.abs(fixed_point_residual(g, omega, sol.theta))) <= 1e-8
    assert dense == []


def test_grounded_matrix_equals_coo_assembly():
    # the cached pattern gives the arrays of a COO conversion, for any edge vector
    rng = np.random.default_rng(3)
    for g in (large_graph(3), lattice(15), tiled_rts96(3)[0]):
        for c in (g.weights, rng.normal(size=g.m), np.zeros(g.m)):
            keep = g.sources > 0
            src, snk, ck = g.sources[keep] - 1, g.sinks[keep] - 1, c[keep]
            diag = np.arange(g.n - 1)
            want = sparse.csc_array(
                (np.concatenate([g._node_sum(c)[1:], -ck, -ck]),
                 (np.concatenate([diag, src, snk]), np.concatenate([diag, snk, src]))),
                shape=(g.n - 1, g.n - 1))
            got = g._grounded(c)
            for name in ("data", "indices", "indptr"):
                assert getattr(got, name).dtype == getattr(want, name).dtype
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert got.has_canonical_format


def test_factor_verdict_equals_eigvalsh_verdict():
    # both branches; the angle spread makes many -J indefinite
    verdicts = {True: 0, False: 0}
    for seed in range(120):
        rng = substream(seed, 8)
        if seed % 2:
            g = large_graph(seed)
        else:
            g = random_connected_graph(seed, n_min=5, n_max=40)
        theta = rng.uniform(-1.0, 1.0, g.n) * rng.uniform(0.1, 2.0)
        evals = np.linalg.eigvalsh(-jacobian(g, theta))
        if abs(evals[1]) < 1e-6 * np.max(np.abs(evals)):
            continue  # the eigenvalue and factor tolerances legitimately differ here
        verdict = _stable_by_factor(g, theta)
        assert verdict == assess_stability(g, theta).stable
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 20
    # a tiled grid at n = 1022: Newton's stable equilibrium, and the unstable one that
    # mirrors a pendant edge's angle d to pi - d (same sine and flows, a negative cos)
    g, omega = tiled_rts96(14)
    omega = 0.5 * (omega - omega.mean())
    stable = solve_equilibrium(g, omega).theta
    pendant = 54  # bus 55 of the first copy, tied to nothing else
    (edge,) = np.flatnonzero((g.sources == pendant) | (g.sinks == pendant))
    other = g.sources[edge] + g.sinks[edge] - pendant
    unstable = stable.copy()
    unstable[pendant] = stable[other] + math.pi - (stable[pendant] - stable[other])
    for theta, expected in ((stable, True), (unstable, False)):
        assert _stable_by_factor(g, theta) == expected
        assert assess_stability(g, theta, omega).stable == expected


def test_one_norm_from_stored_entries_equals_column_sums():
    # the grounded -J of the tiled n = 1022 grid at its Newton solution and at the seed
    # angles: the same bits as scipy's abs(A).sum(axis=0), which adds the same stored
    # entries in the same order, and the dense column sums to within the rounding of
    # a sum of at most k terms, k eps relative
    g, omega = tiled_rts96(14)
    omega = 0.5 * (omega - omega.mean())
    for theta in (np.zeros(g.n), solve_equilibrium(g, omega).theta):
        a = _grounded_minus_jacobian(g, theta)
        assert isinstance(a, sparse.csc_array) and a.shape == (1021, 1021)
        assert _one_norm(a) == float(np.max(abs(a).sum(axis=0)))
        k = np.diff(a.indptr).max()
        dense = np.abs(a.toarray()).sum(axis=0).max()
        assert _one_norm(a) == pytest.approx(dense, rel=k * np.finfo(float).eps, abs=0)

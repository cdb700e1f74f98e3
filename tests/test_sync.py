"""Synchronization condition, exact solvers, cycle constraints, min-norm."""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import (
    count_calls,
    cycle_graph,
    fundamental_cycles,
    pseudoinverse,
    random_connected_graph,
    random_tree,
    random_zero_mean,
)
from syncgrid import graph, sync
from syncgrid.equilibrium import fixed_point_residual, solve_equilibrium
from syncgrid.errors import (
    DimensionMismatchError,
    DisconnectedGraphError,
    GammaOutOfRangeError,
    NonZeroMeanFrequenciesError,
    NotACycleError,
    NotAcyclicError,
    SyncgridError,
)
from syncgrid.graph import (
    WeightedGraph,
    _sine_coupling,
    divergence,
    edge_differences,
    edge_infinity_norm,
)
from syncgrid.powerflow import build_oscillator_model, bundled_case
from syncgrid.randnet import NominalNetworkSpec, generate_graph, sample_frequencies, sample_weights
from syncgrid.rng import substream
from syncgrid.sync import (
    Infeasible,
    NecessaryCheck,
    _cycle_vector,
    acyclic_equilibrium,
    cycle_sufficient_bound,
    min_infinity_norm_solution,
    necessary_conditions,
    node_cut_ratio,
    single_cycle_feasibility,
    sync_margin,
)

K3 = WeightedGraph.from_edges(3, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])


# --- margins ---

def test_margin_zero_frequencies():
    a = sync_margin(K3, np.zeros(3))
    assert a.margin == 0.0
    assert a.gamma_pred == 0.0
    assert a.condition_holds(0.0)


def test_one_node_graph_has_zero_margin():
    # no edges: the node sums are empty bincounts, which must still be float
    g = WeightedGraph.from_edges(1, [])
    assert sync_margin(g, [0.0]).margin == 0.0
    assert divergence(g, []).dtype == np.float64
    assert _sine_coupling(g, np.zeros(1)).dtype == np.float64
    try:
        sol = solve_equilibrium(g, [0.0])
    except SyncgridError:
        return
    assert sol.cohesiveness == 0.0 and sol.residual == 0.0


def test_margin_complete_graph_reduction():
    # uniformly weighted complete graph: margin = max |omega_i - omega_j| / K
    rng = substream(3, 0)
    n, coupling = 8, 2.7
    edges = [(i, j, coupling / n) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    g = WeightedGraph.from_edges(n, edges)
    omega = random_zero_mean(4, n, scale=0.3)
    spread = max(abs(a - b) for a in omega for b in omega)
    assert sync_margin(g, omega).margin == pytest.approx(spread / coupling, rel=1e-12)


def test_margin_two_node():
    g = WeightedGraph.from_edges(2, [(1, 2, 4.0)])
    assert sync_margin(g, [2.0, -2.0]).margin == pytest.approx(0.5, rel=1e-12)


def test_margin_recenters_frequencies():
    g = WeightedGraph.from_edges(2, [(1, 2, 1.0)])
    shifted = sync_margin(g, [3.0, 1.0])  # mean 2 removed -> (1, -1)
    assert shifted.margin == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(shifted.omega, [1.0, -1.0])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_spectral_equals_direct(seed):
    g = random_connected_graph(seed)
    omega = random_zero_mean(seed + 9, g.n, scale=2.0)
    spectral = edge_infinity_norm(g, pseudoinverse(g) @ omega)
    assert abs(spectral - sync_margin(g, omega).margin) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 10.0))
def test_margin_scales_inversely_with_gain(seed, gain):
    # margin(K a) = margin(a) / K
    g = random_connected_graph(seed, n_max=30)
    omega = random_zero_mean(seed + 9, g.n, scale=2.0)
    margin = sync_margin(g, omega).margin
    assert sync_margin(g.scaled(gain), omega).margin * gain == pytest.approx(margin, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_margin_invariant_under_relabelling(seed):
    # from_edges re-orients every edge whose relabelled ends swap order
    g = random_connected_graph(seed, n_max=30)
    omega = random_zero_mean(seed + 9, g.n, scale=2.0)
    label = substream(seed, 5).permutation(g.n) + 1
    relabelled = WeightedGraph.from_edges(g.n, [(label[i - 1], label[j - 1], w)
                                                for i, j, w in g.edges])
    moved = np.empty(g.n)
    moved[label - 1] = omega
    assert sync_margin(relabelled, moved).margin == pytest.approx(
        sync_margin(g, omega).margin, rel=1e-12)


def test_spectral_k3_example():
    omega = np.array([1.0, -1.0, 0.0])
    assert edge_infinity_norm(K3, pseudoinverse(K3) @ omega) == pytest.approx(2 / 3, abs=1e-12)
    assert sync_margin(K3, omega).margin == pytest.approx(2 / 3, abs=1e-12)


def test_margin_for_eigenvector_aligned_frequencies():
    g = random_connected_graph(21)
    eigenvalues, eigenvectors = np.linalg.eigh(g.laplacian())
    k = g.n - 1  # top mode
    u_k = eigenvectors[:, k]
    c = 0.7
    omega = c * u_k
    expected = abs(c) / eigenvalues[k] * float(np.max(np.abs(edge_differences(g, u_k))))
    assert sync_margin(g, omega).margin == pytest.approx(expected, rel=1e-10)


def test_condition_holds_boundary():
    g = WeightedGraph.from_edges(2, [(1, 2, 1.0)])
    a = sync_margin(g, [1.0, -1.0])
    assert a.margin == pytest.approx(2.0 / 2.0, rel=1e-12)
    assert a.condition_holds(math.pi / 2)
    assert not a.condition_holds(math.pi / 4)
    with pytest.raises(GammaOutOfRangeError):
        a.condition_holds(2.0)


# --- necessary conditions ---

def test_necessary_zero_frequencies():
    check = necessary_conditions(K3, np.zeros(3), 0.3)
    assert check.absolute_ok and check.incremental_ok
    assert check.violating_nodes == () and check.violating_edges == ()


def test_necessary_rejects_wrong_length():
    for omega in (np.zeros(2), np.zeros(4)):
        with pytest.raises(DimensionMismatchError):
            necessary_conditions(K3, omega, 0.3)


def test_necessary_star_violation():
    gamma = 0.5
    star = WeightedGraph.from_edges(4, [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)])
    deg1 = 3.0
    c = 1.1 * deg1 * math.sin(gamma)
    omega = np.array([c, -c / 3, -c / 3, -c / 3])  # zero mean, survives recentring
    check = necessary_conditions(star, omega, gamma)
    assert not check.absolute_ok
    assert 1 in check.violating_nodes
    assert check == _necessary_by_definition(star, omega, gamma)
    violations = 0
    for seed in range(20):
        g = random_connected_graph(seed, n_max=16)
        omega = random_zero_mean(seed, g.n, scale=4.0)
        gamma = substream(seed, 3).uniform(0.05, math.pi / 2)
        check = necessary_conditions(g, omega, gamma)
        assert check == _necessary_by_definition(g, omega, gamma)
        violations += len(check.violating_nodes) + len(check.violating_edges)
    assert violations > 0


def _necessary_by_definition(g: WeightedGraph, omega, gamma: float, tol: float = 1e-9):
    """necessary_conditions node by node and edge by edge (1-based, in edge order)."""
    omega = np.asarray(omega, dtype=float) - np.mean(omega)
    deg = g.weighted_degrees()
    slack = tol * max(1.0, float(np.max(deg)))
    sin_g = math.sin(gamma)
    nodes = tuple(i + 1 for i in range(g.n) if deg[i] * sin_g < abs(omega[i]) - slack)
    edges = tuple((i, j) for i, j, _ in g.edges
                  if (deg[i - 1] + deg[j - 1]) * sin_g < abs(omega[i - 1] - omega[j - 1]) - slack)
    return NecessaryCheck(absolute_ok=not nodes, incremental_ok=not edges,
                          violating_nodes=nodes, violating_edges=edges)


def test_necessary_boundary_equality_is_ok():
    # 5-cycle counterexample at alpha = 1: node 2 satisfies a12 + a23 = |omega_2|
    g = cycle_graph(5)
    omega = np.array([-0.5, 2.0, 0.0, -1.5, 0.0])
    check = necessary_conditions(g, omega, math.pi / 2)
    assert check.absolute_ok and check.incremental_ok


# --- acyclic exact solver ---

def test_acyclic_two_node():
    g = WeightedGraph.from_edges(2, [(1, 2, 2.0)])
    sol = acyclic_equilibrium(g, [1.0, -1.0], math.pi / 2)
    assert sol.theta[0] == 0.0
    assert sol.theta[0] - sol.theta[1] == pytest.approx(math.asin(0.5), abs=1e-12)
    assert sol.stable


def test_acyclic_zero_frequencies_constant():
    path = WeightedGraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0)])
    sol = acyclic_equilibrium(path, np.zeros(3), 0.1)
    assert np.max(np.abs(sol.theta)) <= 1e-14
    assert sol.cohesiveness == 0.0


def test_acyclic_near_boundary_residual():
    for seed in range(5):
        tree = random_tree(seed)
        omega = random_zero_mean(seed + 17, tree.n)
        margin = sync_margin(tree, omega).margin
        if margin == 0:
            continue
        omega = omega * (0.99 / margin)
        sol = acyclic_equilibrium(tree, omega, math.pi / 2)
        res = np.max(np.abs(fixed_point_residual(tree, omega - omega.mean(), sol.theta)))
        assert res <= 1e-9


def test_acyclic_infeasible_above_margin():
    g = WeightedGraph.from_edges(2, [(1, 2, 1.0)])
    result = acyclic_equilibrium(g, [0.8, -0.8], math.pi / 4)  # margin 0.8 > sin(pi/4)
    assert isinstance(result, Infeasible)
    assert result.margin == pytest.approx(0.8, rel=1e-12)


def test_acyclic_rejects_cycles():
    with pytest.raises(NotAcyclicError):
        acyclic_equilibrium(K3, np.zeros(3), 0.5)


# --- single cycle ---

def test_cycle_symmetric_root_is_zero():
    # omega = L Omega with bipolar Omega gives a symmetric edge vector
    g = cycle_graph(6)
    omega_nodes = np.array([0.3, 0.3, -0.3, -0.3, 0.3, -0.3])
    omega = g.laplacian() @ omega_nodes
    result = single_cycle_feasibility(g, omega, math.pi / 2)
    assert result.feasible
    assert result.lambda_star == pytest.approx(0.0, abs=1e-10)
    x = sync_margin(g, omega).psi_particular
    assert np.allclose(edge_differences(g, result.theta.theta), np.arcsin(x), atol=1e-9)


def test_cycle_counterexample_alpha_sweep():
    g = cycle_graph(5)
    base = np.array([-0.5, 2.0, 0.0, -1.5, 0.0])
    hot = single_cycle_feasibility(g, 0.999 * base, math.pi / 2)
    assert not hot.feasible
    assert sync_margin(g, 0.999 * base).margin == pytest.approx(0.999, abs=1e-9)
    cold = single_cycle_feasibility(g, 0.5 * base, math.pi / 2)
    assert cold.feasible
    assert cold.theta.residual <= 1e-9


def test_cycle_zero_frequencies():
    g = cycle_graph(4)
    result = single_cycle_feasibility(g, np.zeros(4), 0.3)
    assert result.feasible
    assert result.lambda_star == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(result.theta.theta)) <= 1e-9


def test_cycle_root_satisfies_cycle_constraint():
    g = cycle_graph(7, weights=substream(7, 1).uniform(0.5, 5.0, 7))
    omega = random_zero_mean(77, 7, scale=0.4)
    result = single_cycle_feasibility(g, omega, math.pi / 2)
    assert result.feasible
    psi = np.sin(edge_differences(g, result.theta.theta))
    residuals = fundamental_cycles(g) @ np.arcsin(psi)
    assert np.max(np.abs(residuals)) <= 1e-10  # bisection root accuracy
    assert result.theta.residual <= 1e-9


def test_cycle_vector_walks_the_one_cycle(monkeypatch):
    # random weighted cycles with shuffled labels, so orientations vary edge by edge
    outcomes = set()
    for seed in range(150):
        rng = substream(seed, 11)
        n = int(rng.integers(3, 41))
        label = rng.permutation(n) + 1
        g = WeightedGraph.from_edges(n, [(label[k], label[(k + 1) % n], w)
                                         for k, w in enumerate(rng.uniform(0.5, 5.0, n))])
        c = _cycle_vector(g)
        assert np.array_equal(np.abs(c), np.ones(n))
        assert np.array_equal(divergence(g.with_weights(np.ones(n)), c), np.zeros(n))
        assert np.array_equal(c, fundamental_cycles(g)[0])
        omega = random_zero_mean(seed, n)
        gamma = float(rng.uniform(0.2, math.pi / 2))
        omega *= rng.uniform(0.3, 1.5) * math.sin(gamma) / sync_margin(g, omega).margin
        got = single_cycle_feasibility(g, omega, gamma)
        with monkeypatch.context() as patched:
            patched.setattr(sync, "_cycle_vector", lambda h: fundamental_cycles(h)[0])
            want = single_cycle_feasibility(g, omega, gamma)
        assert (got.feasible, got.lambda_star) == (want.feasible, want.lambda_star)
        if got.feasible:
            assert np.array_equal(got.theta.theta, want.theta.theta)
        outcomes.add(got.feasible)
    assert outcomes == {True, False}


def test_cycle_rejects_non_cycles():
    with pytest.raises(NotACycleError):
        single_cycle_feasibility(random_tree(3), np.zeros(random_tree(3).n), 0.5)


def test_cycle_sufficient_bound_uniform_threshold():
    g = cycle_graph(6)
    gamma = 1.0
    # uniform weights: threshold is sin(gamma)/2
    omega_dir = random_zero_mean(5, 6)
    margin = sync_margin(g, omega_dir).margin
    scale_below = 0.49 * math.sin(gamma) / margin
    scale_above = 0.51 * math.sin(gamma) / margin
    assert cycle_sufficient_bound(g, omega_dir * scale_below, gamma)
    assert not cycle_sufficient_bound(g, omega_dir * scale_above, gamma)
    assert cycle_sufficient_bound(g, np.zeros(6), 0.01)


def test_cycle_sufficient_bound_implies_feasible():
    for seed in range(20):
        rng = substream(seed, 8)
        g = cycle_graph(6, weights=rng.uniform(0.5, 5.0, 6))
        gamma = rng.uniform(0.2, math.pi / 2)
        omega = random_zero_mean(seed + 100, 6)
        margin = sync_margin(g, omega).margin
        a_min, a_max = g.weights.min(), g.weights.max()
        target = 0.98 * math.sin(gamma) * a_min / (a_max + a_min)
        omega = omega * (target / margin)
        assert cycle_sufficient_bound(g, omega, gamma)
        assert single_cycle_feasibility(g, omega, gamma).feasible


# --- cycle constraints of the auxiliary flows ---

def test_auxiliary_particular_solution_feasible():
    # sync_margin's psi_particular balances the flows: B diag(a) psi = omega
    g = random_connected_graph(31)
    omega = random_zero_mean(32, g.n)
    psi = sync_margin(g, omega).psi_particular
    defect = divergence(g, psi) - (omega - omega.mean())
    assert np.max(np.abs(defect)) <= 1e-9


def test_auxiliary_symmetric_cycle_zero_residual():
    g = cycle_graph(6)
    omega_nodes = np.array([0.25, -0.25, 0.25, -0.25, 0.25, -0.25])
    omega = g.laplacian() @ omega_nodes
    res = fundamental_cycles(g) @ np.arcsin(sync_margin(g, omega).psi_particular)
    assert np.max(np.abs(res)) <= 1e-12


def test_auxiliary_counterexample_residual_nonzero():
    # long-cycle family: psi_pt violates the cycle constraint; the magnitude
    # follows -arcsin(alpha) + (n-3) arcsin(alpha/(n-3)) for the aligned
    # orientation (a strictly negative quantity).
    n, alpha = 10, 0.9
    g = cycle_graph(n)
    omega = alpha * np.concatenate([[1 + 1 / (n - 3), 0, -2, 1 - 1 / (n - 3)], np.zeros(n - 4)])
    psi_pt = sync_margin(g, omega).psi_particular
    vectors = fundamental_cycles(g)
    res = vectors @ np.arcsin(psi_pt)
    x_aligned = vectors[0] * psi_pt
    oracle = float(np.sum(np.arcsin(x_aligned)))
    expected = -math.asin(alpha) + (n - 3) * math.asin(alpha / (n - 3))
    assert oracle == pytest.approx(expected, abs=1e-9)
    assert res[0] == pytest.approx(oracle, abs=1e-12)
    assert abs(res[0]) > 1e-3
    assert res[0] < 0.0


# --- minimum infinity norm ---

def test_min_norm_tree_equals_particular():
    t = random_tree(41)
    omega = random_zero_mean(42, t.n)
    result = min_infinity_norm_solution(t, omega)
    a = sync_margin(t, omega)
    assert np.allclose(result.psi_star, a.psi_particular, atol=1e-14)
    assert result.norm == pytest.approx(a.margin, rel=1e-12)


def _record_milp(monkeypatch) -> list:
    """Record the arguments of every scipy.optimize.milp call, then solve as usual."""
    original = scipy.optimize.milp
    calls = []

    def recorded(c, **kwargs):
        calls.append((c, kwargs))
        return original(c, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", recorded)
    return calls


def test_min_norm_zero(monkeypatch):
    lps = _record_milp(monkeypatch)
    result = min_infinity_norm_solution(K3, np.zeros(3))
    assert result.norm == 0.0
    # all-equal frequencies recentre to zero: the zero flow, without an LP
    g = random_connected_graph(7, n_min=8, n_max=12, extra_edges=5)
    assert g.m > g.n - 1
    result = min_infinity_norm_solution(g, np.full(g.n, 2.5))
    assert result.norm == 0.0 and np.array_equal(result.psi_star, np.zeros(g.m))
    assert lps == []


def test_min_norm_lp_has_grounded_rows_and_box_bounds(monkeypatch):
    lps = _record_milp(monkeypatch)
    net = build_oscillator_model(bundled_case("rts96"))
    g = net.graph
    min_infinity_norm_solution(g, net.omega)
    ((cost, kwargs),) = lps
    constraint, bounds = kwargs["constraints"], kwargs["bounds"]
    assert constraint.A.shape == (g.n - 1, g.m + 1) == (72, 109)
    assert np.array_equal(constraint.lb, constraint.ub)  # equality rows only
    assert cost.shape == (g.m + 1,)
    assert np.array_equal(bounds.lb, np.r_[-np.ones(g.m), 0.0])
    assert np.array_equal(bounds.ub, np.r_[np.ones(g.m), np.inf])


def test_min_norm_is_scale_exact():
    # norm(c omega) = |c| norm(omega) and norm on K a = norm / K, at any scale
    square = WeightedGraph.from_edges(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0)])
    cases = [(square, np.array([1.0, 1.0, -1.0, -1.0]))]
    assert min_infinity_norm_solution(*cases[0]).norm == pytest.approx(1.0, rel=1e-12)  # cut {1, 2}
    for seed in (3, 11):
        g = random_connected_graph(seed, n_min=10, n_max=16, extra_edges=6)
        cases.append((g, random_zero_mean(seed, g.n, scale=2.0)))
    for g, omega in cases:
        assert g.m > g.n - 1
        norm = min_infinity_norm_solution(g, omega).norm
        assert norm > 0.0
        for c in (1e-200, 1e-10, 1.0, 1e10, 1e25):
            scaled = min_infinity_norm_solution(g, c * omega).norm
            assert scaled == pytest.approx(c * norm, rel=1e-12, abs=0.0)
        for gain in (1e-12, 1e-3, 7.0, 1e9):
            reweighted = min_infinity_norm_solution(g.scaled(gain), omega).norm
            assert reweighted == pytest.approx(norm / gain, rel=1e-12, abs=0.0)


def test_min_norm_single_cycle_grid_oracle():
    rng = substream(50, 0)
    g = cycle_graph(6, weights=rng.uniform(0.5, 5.0, 6))
    omega = random_zero_mean(51, 6)
    result = min_infinity_norm_solution(g, omega)
    x = sync_margin(g, omega).psi_particular
    h = fundamental_cycles(g)[0] / g.weights
    grid = np.linspace(-20, 20, 2_000_001)
    oracle = np.min(np.max(np.abs(x[None, :] + grid[:, None] * h[None, :]), axis=1))
    assert result.norm <= oracle + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_min_norm_never_exceeds_margin_and_is_feasible(seed):
    g = random_connected_graph(seed)
    omega = random_zero_mean(seed + 5, g.n)
    a = sync_margin(g, omega)
    result = min_infinity_norm_solution(g, omega)
    assert result.norm <= a.margin + 1e-10
    defect = divergence(g, result.psi_star) - a.omega
    assert np.max(np.abs(defect)) <= 1e-8


@pytest.mark.parametrize("model, p", [("erg", 0.3), ("smn", 0.2)])
def test_node_cut_ratio_bounds_min_norm_and_margin(model, p):
    # Gale's cut bound for S = {i}: |omega_i| / deg_i <= min ||psi||_inf <= margin
    for seed in range(30):
        n = 5 + seed % 26
        spec = NominalNetworkSpec(n=n, model=model, p=p, alpha=8.0, seed=seed)
        g = sample_weights(generate_graph(spec), substream(seed, 1))
        omega = sample_frequencies(n, "width", substream(seed, 2), alpha=8.0)
        ratio = node_cut_ratio(g, omega)
        norm = min_infinity_norm_solution(g, omega).norm
        assert ratio <= norm + 1e-9 <= sync_margin(g, omega).margin + 2e-9
        for gain in (0.5, 3.0):
            assert node_cut_ratio(g.scaled(gain), omega) == pytest.approx(ratio / gain, rel=1e-12)


def test_node_cut_ratio_is_tight_on_a_star():
    # on a tree the flow is unique: the edge to leaf i carries omega_i / a_i
    g = WeightedGraph.from_edges(4, [(1, 2, 2.0), (1, 3, 1.0), (1, 4, 4.0)])
    omega = np.array([-1.5, 1.0, 0.3, 0.2])
    assert node_cut_ratio(g, omega) == pytest.approx(0.5, rel=1e-15)
    assert sync_margin(g, omega).margin == pytest.approx(0.5, rel=1e-12)


def test_node_cut_ratio_input_contract():
    assert node_cut_ratio(WeightedGraph.from_edges(1, []), [0.0]) == 0.0
    with pytest.raises(DimensionMismatchError):
        node_cut_ratio(K3, [1.0, -1.0])
    with pytest.raises(DisconnectedGraphError):
        node_cut_ratio(WeightedGraph.from_edges(4, [(1, 2, 1.0), (3, 4, 1.0)]), np.zeros(4))


def test_min_norm_certifies_nonexistence():
    # norm > sin(gamma) rules out cohesive equilibria: check against Newton
    g = cycle_graph(5)
    omega = 1.3 * np.array([-0.5, 2.0, 0.0, -1.5, 0.0])
    result = min_infinity_norm_solution(g, omega)
    assert result.norm > 1.0
    try:
        sol = solve_equilibrium(g, omega)
        assert sol.cohesiveness > math.pi / 2
    except Exception:
        pass


def _linprog_min_norm(g: WeightedGraph, omega) -> float:
    """min ||psi||_inf over the cycle space, psi = psi_pt + diag(1/a) C^T mu,
    as a dense epigraph LP solved through linprog."""
    psi_pt = sync_margin(g, omega).psi_particular
    vectors = fundamental_cycles(g)
    rank = len(vectors)
    h_mat = (vectors / g.weights).T
    ones = np.ones((g.m, 1))
    cost = np.zeros(rank + 1)
    cost[-1] = 1.0
    result = linprog(cost, A_ub=np.block([[h_mat, -ones], [-h_mat, -ones]]),
                     b_ub=np.concatenate([-psi_pt, psi_pt]),
                     bounds=[(None, None)] * rank + [(0.0, None)], method="highs")
    assert result.success
    return float(np.max(np.abs(psi_pt + h_mat @ result.x[:rank])))


def _tiled_rts96(copies: int):
    """copies of the rts96 model in a ring, each tied to the next by three
    lines (the large_grid benchmark's topology); returns the graph and omega."""
    net = build_oscillator_model(bundled_case("rts96"))
    n0 = net.graph.n
    edges = []
    for k in range(copies):
        off, nxt = k * n0, (k + 1) % copies * n0
        edges += [(off + i, off + j, w) for i, j, w in net.graph.edges]
        edges += [(off + i + 1, nxt + j + 1, 10.0) for i, j in ((60, 10), (40, 30), (70, 55))]
    omega = np.tile(net.omega, copies) * substream(copies, 2).uniform(0.3, 0.7, copies * n0)
    return WeightedGraph.from_edges(copies * n0, edges), omega - omega.mean()


def _min_norm_inputs():
    """100 random graphs with cycles, the rts96 model and 14 tiled rts96 copies."""
    checked = 0
    for seed in range(300):
        g = random_connected_graph(seed, n_min=4, n_max=16, extra_edges=4)
        if g.m < g.n:  # a tree: no LP is solved
            continue
        yield g, random_zero_mean(seed, g.n, scale=3.0)
        checked += 1
        if checked == 100:
            break
    assert checked == 100
    net = build_oscillator_model(bundled_case("rts96"))
    yield net.graph, net.omega
    yield _tiled_rts96(14)


def test_min_norm_milp_matches_linprog():
    # the edge-flow LP reaches the cycle-space optimum with balanced flows
    sizes = []
    for g, omega in _min_norm_inputs():
        result = min_infinity_norm_solution(g, omega)
        assert abs(result.norm - _linprog_min_norm(g, omega)) <= 1e-12
        assert np.max(np.abs(divergence(g, result.psi_star) - omega)) <= 1e-9
        sizes.append(g.n)
    assert len(sizes) == 102 and sizes[-2:] == [73, 1022]


def test_min_norm_solves_no_poisson_system_and_builds_no_cycle_basis(monkeypatch):
    g = random_connected_graph(5, n_min=8, n_max=12, extra_edges=5)
    assert g.m > g.n - 1
    bases = count_calls(monkeypatch, sync, "_cycle_vector")
    solves = count_calls(monkeypatch, graph, "solve_poisson")
    min_infinity_norm_solution(g, random_zero_mean(5, g.n))
    assert bases == [] and solves == []


def test_min_norm_input_contract_on_graphs_with_cycles():
    with pytest.raises(DimensionMismatchError):
        min_infinity_norm_solution(K3, np.zeros(4))
    with pytest.raises(NonZeroMeanFrequenciesError):
        min_infinity_norm_solution(K3, np.array([np.nan, 0.0, 0.0]))
    triangles = WeightedGraph.from_edges(6, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0),
                                             (4, 5, 1.0), (4, 6, 1.0), (5, 6, 1.0)])
    triangle_and_node = WeightedGraph.from_edges(4, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    for g in (triangles, triangle_and_node):  # m = n - 1 on the second, as on a tree
        with pytest.raises(DisconnectedGraphError):
            min_infinity_norm_solution(g, np.zeros(g.n))

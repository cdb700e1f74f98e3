"""Synchronization condition, exact solvers, auxiliary space, min-norm."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import cycle_graph, random_connected_graph, random_tree, random_zero_mean
from syncgrid.equilibrium import fixed_point_residual, solve_equilibrium
from syncgrid.errors import (
    GammaOutOfRangeError,
    NotACycleError,
    NotAcyclicError,
    PsiOutOfRangeError,
    SyncgridError,
)
from syncgrid.graph import WeightedGraph, build_laplacian, cycle_basis, divergence, edge_differences
from syncgrid.rng import substream
from syncgrid.sync import (
    Infeasible,
    acyclic_equilibrium,
    auxiliary_solution_space,
    cycle_sufficient_bound,
    min_infinity_norm_solution,
    necessary_conditions,
    single_cycle_feasibility,
    spectral_margin,
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
    bundle = build_laplacian(g)
    assert abs(spectral_margin(bundle, g, omega) - sync_margin(g, omega).margin) <= 1e-10


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
    bundle = build_laplacian(K3)
    assert spectral_margin(bundle, K3, [1.0, -1.0, 0.0]) == pytest.approx(2 / 3, abs=1e-12)


def test_margin_for_eigenvector_aligned_frequencies():
    g = random_connected_graph(21)
    bundle = build_laplacian(g)
    k = g.n - 1  # top mode
    u_k = bundle.eigenvectors[:, k]
    c = 0.7
    omega = c * u_k
    expected = abs(c) / bundle.eigenvalues[k] * float(np.max(np.abs(edge_differences(g, u_k))))
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


def test_necessary_star_violation():
    gamma = 0.5
    star = WeightedGraph.from_edges(4, [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)])
    deg1 = 3.0
    c = 1.1 * deg1 * math.sin(gamma)
    omega = np.array([c, -c / 3, -c / 3, -c / 3])  # zero mean, survives recentring
    check = necessary_conditions(star, omega, gamma)
    assert not check.absolute_ok
    assert 1 in check.violating_nodes


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
    residuals = auxiliary_solution_space(g, omega).cycle_residuals(psi)
    assert np.max(np.abs(residuals)) <= 1e-10  # bisection root accuracy
    assert result.theta.residual <= 1e-9


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


# --- auxiliary solution space ---

def test_auxiliary_tree_has_no_residuals():
    t = random_tree(9)
    omega = random_zero_mean(13, t.n)
    space = auxiliary_solution_space(t, omega)
    assert space.basis.rank == 0
    assert space.cycle_residuals(np.zeros(t.m)).shape == (0,)


def test_auxiliary_particular_solution_feasible():
    g = random_connected_graph(31)
    omega = random_zero_mean(32, g.n)
    space = auxiliary_solution_space(g, omega)
    defect = divergence(g, space.psi_particular) - (omega - omega.mean())
    assert np.max(np.abs(defect)) <= 1e-9


def test_auxiliary_symmetric_cycle_zero_residual():
    g = cycle_graph(6)
    omega_nodes = np.array([0.25, -0.25, 0.25, -0.25, 0.25, -0.25])
    omega = g.laplacian() @ omega_nodes
    space = auxiliary_solution_space(g, omega)
    res = space.cycle_residuals(space.psi_particular)
    assert np.max(np.abs(res)) <= 1e-12


def test_auxiliary_counterexample_residual_nonzero():
    # long-cycle family: psi_pt violates the cycle constraint; the magnitude
    # follows -arcsin(alpha) + (n-3) arcsin(alpha/(n-3)) for the aligned
    # orientation (a strictly negative quantity).
    n, alpha = 10, 0.9
    g = cycle_graph(n)
    omega = alpha * np.concatenate([[1 + 1 / (n - 3), 0, -2, 1 - 1 / (n - 3)], np.zeros(n - 4)])
    space = auxiliary_solution_space(g, omega)
    res = space.cycle_residuals(space.psi_particular)
    c = cycle_basis(g).vectors[0]
    x_aligned = c * space.psi_particular
    oracle = float(np.sum(np.arcsin(x_aligned)))
    expected = -math.asin(alpha) + (n - 3) * math.asin(alpha / (n - 3))
    assert oracle == pytest.approx(expected, abs=1e-9)
    assert res[0] == pytest.approx(oracle, abs=1e-12)
    assert abs(res[0]) > 1e-3
    assert res[0] < 0.0


def test_auxiliary_psi_out_of_range():
    g = cycle_graph(4)
    space = auxiliary_solution_space(g, np.zeros(4))
    with pytest.raises(PsiOutOfRangeError):
        space.cycle_residuals(np.array([0.0, 1.5, 0.0, 0.0]))


# --- minimum infinity norm ---

def test_min_norm_tree_equals_particular():
    t = random_tree(41)
    omega = random_zero_mean(42, t.n)
    result = min_infinity_norm_solution(t, omega)
    a = sync_margin(t, omega)
    assert np.allclose(result.psi_star, a.psi_particular, atol=1e-14)
    assert result.norm == pytest.approx(a.margin, rel=1e-12)


def test_min_norm_zero():
    result = min_infinity_norm_solution(K3, np.zeros(3))
    assert result.norm == 0.0


def test_min_norm_single_cycle_grid_oracle():
    rng = substream(50, 0)
    g = cycle_graph(6, weights=rng.uniform(0.5, 5.0, 6))
    omega = random_zero_mean(51, 6)
    result = min_infinity_norm_solution(g, omega)
    x = sync_margin(g, omega).psi_particular
    h = cycle_basis(g).vectors[0] / g.weights
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
    """The epigraph LP of min_infinity_norm_solution, solved through linprog."""
    space = auxiliary_solution_space(g, omega)
    rank = space.basis.rank
    h_mat = (space.basis.vectors / g.weights).T
    ones = np.ones((g.m, 1))
    cost = np.zeros(rank + 1)
    cost[-1] = 1.0
    result = linprog(cost, A_ub=np.block([[h_mat, -ones], [-h_mat, -ones]]),
                     b_ub=np.concatenate([-space.psi_particular, space.psi_particular]),
                     bounds=[(None, None)] * rank + [(0.0, None)], method="highs")
    assert result.success
    return float(np.max(np.abs(space.psi_particular + h_mat @ result.x[:rank])))


def test_min_norm_milp_matches_linprog():
    # milp solves the same HiGHS LP as linprog: same optimum, feasible flows
    checked = 0
    for seed in range(300):
        g = random_connected_graph(seed, n_min=4, n_max=16, extra_edges=4)
        if g.m < g.n:  # a tree: no LP is solved
            continue
        omega = random_zero_mean(seed, g.n, scale=3.0)
        result = min_infinity_norm_solution(g, omega)
        assert abs(result.norm - _linprog_min_norm(g, omega)) <= 1e-12
        assert np.max(np.abs(divergence(g, result.psi_star) - omega)) <= 1e-9
        checked += 1
        if checked == 100:
            break
    assert checked == 100

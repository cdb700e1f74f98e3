"""Newton equilibrium solver, Jacobian, stability, cohesiveness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls, random_connected_graph, random_zero_mean
from syncgrid.equilibrium import (
    _factor_grounded,
    _grounded_minus_jacobian,
    assess_stability,
    fixed_point_residual,
    jacobian,
    phase_cohesiveness,
    solve_equilibrium,
    wrap_angles,
)
from syncgrid import equilibrium
from syncgrid.errors import (
    NoConvergenceError,
    NonFiniteInputError,
    NotAnEquilibriumError,
    SingularJacobianError,
)
from syncgrid.graph import SPARSE_MIN_NODES, WeightedGraph
from syncgrid.rng import substream
from syncgrid.sync import sync_margin


def finite_difference_jacobian(g, theta, step=1e-6):
    """Central differences of the coupling right-hand side."""

    def rhs(th):
        return -fixed_point_residual(g, np.zeros(g.n), th)

    n = g.n
    jac = np.zeros((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = step
        jac[:, k] = (rhs(theta + e) - rhs(theta - e)) / (2 * step)
    return jac


def test_jacobian_at_origin_is_minus_laplacian():
    g = random_connected_graph(61)
    assert np.array_equal(jacobian(g, np.zeros(g.n)), -g.laplacian())


def test_jacobian_edge_at_right_angle_contributes_zero():
    g = WeightedGraph.from_edges(2, [(1, 2, 3.0)])
    jac = jacobian(g, [0.0, math.pi / 2])
    assert np.max(np.abs(jac)) <= 1e-15


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_jacobian_symmetric_zero_rowsums(seed):
    g = random_connected_graph(seed)
    theta = substream(seed, 3).uniform(-math.pi, math.pi, g.n)
    jac = jacobian(g, theta)
    assert np.max(np.abs(jac - jac.T)) <= 1e-12
    assert np.max(np.abs(jac @ np.ones(g.n))) <= 1e-12


def test_jacobian_matches_finite_differences():
    for seed in range(10):
        g = random_connected_graph(seed)
        theta = substream(seed, 4).uniform(-1.0, 1.0, g.n)
        jac = jacobian(g, theta)
        fd = finite_difference_jacobian(g, theta)
        scale = max(1.0, np.max(np.abs(jac)))
        assert np.max(np.abs(jac - fd)) / scale <= 1e-6


def test_solve_zero_frequencies_phase_sync():
    g = random_connected_graph(71)
    theta0 = substream(71, 5).uniform(-0.05, 0.05, g.n)
    sol = solve_equilibrium(g, np.zeros(g.n), theta0=theta0)
    assert sol.cohesiveness <= 1e-9
    assert sol.stable
    assert np.array_equal(theta0, substream(71, 5).uniform(-0.05, 0.05, g.n))  # not written


def test_solve_two_node_stable_branch():
    g = WeightedGraph.from_edges(2, [(1, 2, 2.0)])
    sol = solve_equilibrium(g, [1.0, -1.0])
    assert sol.theta[0] - sol.theta[1] == pytest.approx(math.asin(0.5), abs=1e-10)
    assert sol.stable
    assert sol.residual <= 1e-10


def test_two_node_unstable_branch():
    # the second solution of sin(d) = 0.5 with d = pi - pi/6 is unstable
    g = WeightedGraph.from_edges(2, [(1, 2, 2.0)])
    theta = np.array([0.0, -(math.pi - math.pi / 6)])
    res = np.max(np.abs(fixed_point_residual(g, np.array([1.0, -1.0]), theta)))
    assert res <= 1e-12
    report = assess_stability(g, theta, omega=np.array([1.0, -1.0]))
    assert not report.stable
    # one unstable direction plus the rotational zero mode
    assert report.lambda2_of_minus_jacobian <= 1e-9
    assert np.min(np.linalg.eigvalsh(-jacobian(g, theta))) < 0


def test_stability_at_origin_matches_laplacian():
    g = random_connected_graph(81)
    report = assess_stability(g, np.zeros(g.n), omega=np.zeros(g.n))
    assert report.stable
    evals = np.linalg.eigvalsh(g.laplacian())
    assert report.lambda2_of_minus_jacobian == pytest.approx(float(evals[1]), rel=1e-9)


def test_stability_requires_equilibrium():
    g = random_connected_graph(82)
    with pytest.raises(NotAnEquilibriumError):
        assess_stability(g, np.full(g.n, 0.0) + np.arange(g.n), omega=np.zeros(g.n))


def test_cohesive_solution_is_stable():
    # any equilibrium inside the half-pi region is exponentially stable
    for seed in range(8):
        g = random_connected_graph(seed)
        omega = random_zero_mean(seed + 55, g.n)
        margin = sync_margin(g, omega).margin
        if margin == 0:
            continue
        omega = omega * (0.7 / margin)
        try:
            sol = solve_equilibrium(g, omega)
        except NoConvergenceError:
            continue
        if sol.cohesiveness < math.pi / 2:
            assert sol.stable


def test_uniqueness_up_to_gauge():
    for seed in range(6):
        g = random_connected_graph(seed, n_min=4, n_max=9)
        omega = random_zero_mean(seed + 23, g.n)
        margin = sync_margin(g, omega).margin
        if margin == 0:
            continue
        omega = omega * (0.6 / margin)
        sol_a = solve_equilibrium(g, omega)
        rng = substream(seed, 6)
        sol_b = solve_equilibrium(g, omega, theta0=rng.uniform(-0.4, 0.4, g.n))
        if sol_a.cohesiveness < math.pi / 2 and sol_b.cohesiveness < math.pi / 2:
            diff = wrap_angles(sol_a.theta - sol_b.theta)
            diff -= diff[0]
            assert np.max(np.abs(wrap_angles(diff))) <= 1e-8


def test_asymptotic_linear_ratio():
    # weak heterogeneity: nonlinear edge differences approach arcsin of the
    # linear prediction componentwise
    g = WeightedGraph.from_edges(3, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    omega = 0.1 * np.array([1.0, -1.0, 0.0])
    sol = solve_equilibrium(g, omega)
    from syncgrid.graph import edge_differences

    predicted = np.arcsin(sync_margin(g, omega).psi_particular)
    actual = edge_differences(g, sol.theta)
    nonzero = np.abs(predicted) > 1e-12
    ratios = actual[nonzero] / predicted[nonzero]
    assert np.max(np.abs(ratios - 1.0)) <= 1e-2


def test_no_convergence_carries_iterate():
    g = WeightedGraph.from_edges(2, [(1, 2, 1.0)])
    with pytest.raises(NoConvergenceError) as info:
        solve_equilibrium(g, [1.2, -1.2])  # infeasible loading
    assert info.value.theta is not None
    assert info.value.residual > 0


def test_line_search_without_descent_raises():
    # |omega| > a: no equilibrium exists.  From theta0 the full Newton step
    # raises the residual from 0.2 to 1.82 and no halving lowers it, so the
    # solve stops at theta0 instead of taking the uphill step.
    g = WeightedGraph.from_edges(2, [(1, 2, 1.0)])
    with pytest.raises(NoConvergenceError, match="line search") as info:
        solve_equilibrium(g, [-1.2, 1.2], theta0=[0.0, math.pi / 2 + 1e-9])
    assert info.value.residual <= 0.2
    assert np.array_equal(info.value.theta, [0.0, math.pi / 2 + 1e-9])


def test_near_singular_jacobian_raises():
    # at theta0 the grounded -J has 1- and 2-norm condition numbers near 3e16;
    # a plain solve would still return a step
    g = WeightedGraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0)])
    theta0 = [0.0, math.pi / 2, math.pi / 2 + 0.3]
    with pytest.raises(SingularJacobianError, match="condition"):
        solve_equilibrium(g, [0.5, 0.0, -0.5], theta0=theta0)


@pytest.mark.parametrize("bad", ["omega", "theta0"])
def test_non_finite_input_raises_before_factoring(monkeypatch, bad):
    factors = count_calls(monkeypatch, equilibrium, "_factor_grounded")
    g = WeightedGraph.from_edges(3, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    args = {"omega": np.array([0.1, -0.1, 0.0]), "theta0": np.array([0.0, 0.1, -0.1])}
    args[bad][1] = math.nan
    with pytest.raises(NonFiniteInputError, match=bad):
        solve_equilibrium(g, args["omega"], theta0=args["theta0"])
    assert factors == []


def test_newton_runs_no_svd(monkeypatch):
    # the step's own LU gives the singularity test; no SVD per iteration
    cond = count_calls(monkeypatch, np.linalg, "cond")
    svd = count_calls(monkeypatch, np.linalg, "svd")
    g = random_connected_graph(91, n_min=8, n_max=12)
    omega = random_zero_mean(92, g.n)
    sol = solve_equilibrium(g, omega * (0.5 / sync_margin(g, omega).margin))
    assert sol.iterations >= 2
    assert cond == [] and svd == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_condition_estimate_within_n_of_exact(seed):
    # CONDITION_LIMIT bounds an estimate of cond_1 (LAPACK's dense, onenormest's
    # sparse); for a k x k matrix cond_1 / cond_2 lies in [1/k, k], here k = n - 1
    if seed % 4:
        g = random_connected_graph(seed, n_max=40)
    else:
        g = random_connected_graph(seed, n_min=SPARSE_MIN_NODES, n_max=SPARSE_MIN_NODES + 60)
    theta = substream(seed, 7).uniform(-math.pi, math.pi, g.n)
    exact = np.linalg.cond(-jacobian(g, theta)[1:, 1:])
    _, estimate = _factor_grounded(_grounded_minus_jacobian(g, theta))
    assert exact / g.n <= estimate <= g.n * exact


def test_phase_cohesiveness_wrap():
    g = WeightedGraph.from_edges(2, [(1, 2, 1.0)])
    assert phase_cohesiveness([0.0, 0.0], g) == 0.0
    assert phase_cohesiveness([0.0, 3 * math.pi / 2], g) == pytest.approx(math.pi / 2)
    assert 0.0 <= phase_cohesiveness([0.0, math.pi], g) <= math.pi


def test_acyclic_and_newton_agree_on_trees():
    from conftest import random_tree
    from syncgrid.graph import edge_differences
    from syncgrid.sync import acyclic_equilibrium

    for seed in range(6):
        tree = random_tree(seed)
        omega = random_zero_mean(seed + 31, tree.n)
        margin = sync_margin(tree, omega).margin
        if margin == 0:
            continue
        omega = omega * (0.8 / margin)
        closed = acyclic_equilibrium(tree, omega, math.pi / 2)
        newton = solve_equilibrium(tree, omega)
        diff = wrap_angles(edge_differences(tree, closed.theta)
                           - edge_differences(tree, newton.theta))
        assert np.max(np.abs(diff)) <= 1e-8

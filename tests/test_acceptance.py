"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines and timings.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import cycle_graph, pseudoinverse, random_connected_graph, random_tree, random_zero_mean
from syncgrid.dynamics import OscillatorNetwork, critical_coupling_search, simulate
from syncgrid.equilibrium import (
    fixed_point_residual,
    geodesic_distances,
    jacobian,
    solve_equilibrium,
    wrap_angles,
)
from syncgrid.errors import NoConvergenceError, SingularJacobianError
from syncgrid.experiments import (
    accuracy_experiment,
    chernoff_epsilon,
    chernoff_samples,
    hypothesis_experiment,
)
from syncgrid.graph import WeightedGraph, edge_differences, edge_infinity_norm
from syncgrid.powerflow import (
    RampSpec,
    ac_power_flow,
    build_oscillator_model,
    bundled_case,
    contingency_scan,
    dc_power_flow,
)
from syncgrid.randnet import NominalNetworkSpec
from syncgrid.rng import substream
from syncgrid.sync import single_cycle_feasibility, sync_margin

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(num: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:02d}] FAIL {description}")
        raise
    print(f"\n[criterion {num:02d}] PASS {description} "
          f"({time.perf_counter() - start:.1f}s)")


def test_criterion_01_spectral_identity():
    with criterion(1, "spectral margin equals direct margin on 200 random graphs"):
        start = time.perf_counter()
        for seed in range(200):
            g = random_connected_graph(seed, n_min=4, n_max=120)
            omega = random_zero_mean(seed, g.n, scale=2.0)
            direct = sync_margin(g, omega).margin
            spectral = edge_infinity_norm(g, pseudoinverse(g) @ omega)
            assert abs(spectral - direct) <= 1e-10
        assert time.perf_counter() - start < 10.0


def test_criterion_02_acyclic_exactness():
    with criterion(2, "trees: closed form solves the flow equations and matches Newton; "
                      "margin > 1 admits no cohesive equilibrium"):
        start = time.perf_counter()
        from syncgrid.sync import acyclic_equilibrium

        rng = substream(2024, 0)
        solved = 0
        for seed in range(130):
            tree = random_tree(seed, n_min=3, n_max=25)
            omega = random_zero_mean(seed + 7, tree.n)
            margin = sync_margin(tree, omega).margin
            if margin == 0:
                continue
            target = float(rng.uniform(0.05, 0.99))
            omega = omega * (target / margin)
            closed = acyclic_equilibrium(tree, omega, math.pi / 2)
            res = np.max(np.abs(fixed_point_residual(tree, omega - omega.mean(), closed.theta)))
            assert res <= 1e-9
            newton = solve_equilibrium(tree, omega)
            gap = wrap_angles(edge_differences(tree, closed.theta)
                              - edge_differences(tree, newton.theta))
            assert np.max(np.abs(gap)) <= 1e-8
            solved += 1
            if solved >= 100:
                break
        assert solved >= 100

        refused = 0
        for seed in range(40):
            tree = random_tree(seed + 500, n_min=3, n_max=15)
            omega = random_zero_mean(seed + 900, tree.n)
            margin = sync_margin(tree, omega).margin
            if margin == 0:
                continue
            omega = omega * (float(rng.uniform(1.01, 1.5)) / margin)
            try:
                sol = solve_equilibrium(tree, omega)
                assert sol.cohesiveness > math.pi / 2
            except (NoConvergenceError, SingularJacobianError):
                pass
            refused += 1
            if refused >= 20:
                break
        assert refused >= 20
        assert time.perf_counter() - start < 30.0


def test_criterion_03_complete_graph_threshold():
    with criterion(3, "complete graph with bipolar frequencies: gain threshold "
                      "equals the frequency spread"):
        start = time.perf_counter()
        n = 10
        edges = [(i, j, 1.0) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        g = WeightedGraph.from_edges(n, edges)
        q = np.array([1.0] * 5 + [-1.0] * 5)
        omega = q - q.mean()
        spread = float(np.max(omega) - np.min(omega))
        result = critical_coupling_search(g, omega, seed=3)
        # coupling a_ij = K/n: per-edge gain kappa relates by K = n * kappa
        k_min = n * result.k_min
        assert abs(k_min - spread) <= 1e-2 * spread
        assert result.ratio == pytest.approx(1.0, rel=2e-2)
        assert time.perf_counter() - start < 60.0


def test_criterion_04_cutset_equilibria():
    with criterion(4, "cut-set inducing frequencies give edge distances in {0, gamma}"):
        for seed in range(20):
            rng = substream(seed, 77)
            g = random_connected_graph(seed, n_min=4, n_max=12)
            gamma = float(rng.uniform(0.2, 1.4))
            levels = np.where(rng.random(g.n) < 0.5, 0.0, math.sin(gamma))
            if len(set(levels.tolist())) < 2:
                levels[0], levels[1] = math.sin(gamma), 0.0
            omega = g.laplacian() @ levels
            sol = solve_equilibrium(g, omega)
            dist = geodesic_distances(g, sol.theta)
            assert np.all((dist <= 1e-6) | (np.abs(dist - gamma) <= 1e-6))
            assert sol.stable


def test_criterion_05_cycle_counterexample():
    with criterion(5, "5-cycle counterexample: margin < 1 yet infeasible at "
                      "gamma -> pi/2; feasible at half amplitude"):
        g = cycle_graph(5)
        base = np.array([-0.5, 2.0, 0.0, -1.5, 0.0])
        hot = single_cycle_feasibility(g, 0.999 * base, math.pi / 2)
        assert sync_margin(g, 0.999 * base).margin == pytest.approx(0.999, abs=1e-9)
        assert sync_margin(g, 0.999 * base).margin < 1.0
        assert not hot.feasible
        cold = single_cycle_feasibility(g, 0.5 * base, math.pi / 2)
        assert cold.feasible
        assert cold.theta.residual <= 1e-9


def test_criterion_06_jacobian_correctness():
    with criterion(6, "analytic Jacobian matches finite differences; J(0) = -L"):
        for seed in range(50):
            g = random_connected_graph(seed, n_min=3, n_max=10)
            theta = substream(seed, 4).uniform(-1.2, 1.2, g.n)
            jac = jacobian(g, theta)
            step = 1e-6
            fd = np.zeros((g.n, g.n))
            for k in range(g.n):
                e = np.zeros(g.n)
                e[k] = step
                fd[:, k] = -(fixed_point_residual(g, np.zeros(g.n), theta + e)
                             - fixed_point_residual(g, np.zeros(g.n), theta - e)) / (2 * step)
            scale = max(1.0, float(np.max(np.abs(jac))))
            assert np.max(np.abs(jac - fd)) / scale <= 1e-6
        g = random_connected_graph(999)
        assert np.array_equal(jacobian(g, np.zeros(g.n)), -g.laplacian())


def test_criterion_07_first_second_order_equivalence():
    with criterion(7, "first- and second-order dynamics reach the same equilibria "
                      "(20 strongly coupled networks)"):
        for seed in range(20):
            rng = substream(seed, 13)
            g = random_connected_graph(seed, n_min=4, n_max=8)
            omega = random_zero_mean(seed + 3, g.n)
            margin = sync_margin(g, omega).margin
            if margin == 0:
                omega = np.zeros(g.n)
            else:
                omega = omega * (float(rng.uniform(0.05, 0.2)) / margin)
            theta0 = rng.uniform(-0.5, 0.5, g.n)
            first = OscillatorNetwork.first_order(g, omega)
            second = OscillatorNetwork(
                graph=g, omega=omega,
                second_order=frozenset(range(1, g.n + 1)),
                M=np.ones(g.n), D=np.ones(g.n),
            )
            t1 = simulate(first, theta0, t_end=120.0, step=5e-3, steady_tol=1e-9,
                          record_stride=10**9)
            t2 = simulate(second, theta0, t_end=120.0, step=5e-3, steady_tol=1e-9,
                          record_stride=10**9)
            gap = wrap_angles(t1.final_theta - t2.final_theta)
            gap -= gap[0]
            assert np.max(np.abs(wrap_angles(gap))) <= 1e-4


@pytest.mark.slow
def test_criterion_08_monte_carlo_cells():
    with criterion(8, "Monte Carlo hypothesis cells at 1000 samples"):
        start = time.perf_counter()
        cells = [
            (NominalNetworkSpec(n=10, model="erg", p=0.3, alpha=8.0, seed=0), 0.995),
            (NominalNetworkSpec(n=20, model="erg", p=0.3, alpha=15.0, seed=0), 0.998),
            (NominalNetworkSpec(n=30, model="smn", p=0.2, alpha=13.0, seed=0), 1.0),
        ]
        for spec, floor in cells:
            result = hypothesis_experiment(spec, 1000)
            print(f"  cell ({spec.n},{spec.model},{spec.p},{spec.alpha}): "
                  f"{result.failures} failures, "
                  f"empirical probability {result.empirical_probability:.4f}")
            assert result.empirical_probability >= floor
        eps = chernoff_epsilon(1000, 0.01)
        print(f"  chernoff accuracy at 1000 samples, eta=0.01: {eps:.4f}")
        assert eps == pytest.approx(0.052, abs=1e-3)
        assert time.perf_counter() - start < 600.0


def test_criterion_09_chernoff_bound():
    with criterion(9, "chernoff_samples(0.01, 0.01) == 26492"):
        assert chernoff_samples(0.01, 0.01) == 26492


def test_criterion_10_dc_ac_consistency():
    with criterion(10, "9-bus case: DC max angle equals margin; AC cohesiveness "
                       "within 5e-3 rad of the prediction"):
        case = bundled_case("case9")
        net = build_oscillator_model(case)
        assessment = sync_margin(net.graph, net.omega)
        dc = dc_power_flow(case)
        assert abs(dc.max_angle_diff - assessment.margin) <= 1e-10
        sol = ac_power_flow(case)
        gap = sol.cohesiveness - math.asin(assessment.margin)
        print(f"  AC cohesiveness - prediction = {gap:+.3e} rad")
        assert abs(gap) <= 5e-3


@pytest.mark.slow
def test_criterion_11_accuracy_study():
    with criterion(11, "critical-coupling accuracy grid (desk scale)"):
        start = time.perf_counter()
        sparse = {"erg": 0.2, "smn": 0.1}
        dense = {"erg": 0.8, "smn": 0.5}
        for n in (10, 20):
            for model in ("erg", "smn"):
                for dist in ("bipolar", "uniform"):
                    for p in (sparse[model], dense[model]):
                        result = accuracy_experiment(n, model, p, dist, 20, seed=0)
                        mean = result.mean_ratio
                        print(f"  n={n} {model} p={p} {dist}: mean ratio {mean:.3f}")
                        assert 0.3 < mean <= 1.02
                        if model == "erg" and p == sparse[model] and dist == "bipolar":
                            assert mean >= 0.9
        assert time.perf_counter() - start < 900.0


@pytest.mark.extended
@pytest.mark.xfail(strict=False,
                   reason="RTS-96 case data is reconstructed; nominal dispatch and "
                          "two tie impedances are not published")
def test_criterion_12_rts96_loading_bracket():
    with criterion(12, "RTS-96 no-trip sweep brackets margin = 1 between +141% "
                       "and +151% loading (extended, reconstruction-dependent)"):
        case = bundled_case("rts96")
        scan = contingency_scan(case, [], RampSpec(3, (1, 2)),
                                loadings=np.linspace(1.2, 1.8, 7))
        crossing = scan.margin_one_loading
        print(f"  measured margin=1 crossing at +{100 * crossing:.1f}% loading")
        assert crossing is not None
        assert 1.41 * 0.97 <= crossing <= 1.51 * 1.03

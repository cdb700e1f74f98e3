"""Closed-form synchronization condition and exact topology-specific solvers.

The central quantity is the margin

    ||B^T Ldag omega||_inf  =  max_{(i,j) in E} |(Ldag omega)_i - (Ldag omega)_j|,

the worst edge difference of the linear (small-angle) solution.  A stable,
phase-cohesive equilibrium with every edge distance at most gamma exists
whenever the margin is at most sin(gamma); the condition is exact on trees,
on uniformly weighted complete graphs, for cut-set inducing frequencies,
asymptotically for weak heterogeneity, and for short or symmetric cycles.

The module also evaluates the necessary degree conditions, the auxiliary
edge-variable solution space psi = psi_pt + ker-space shifts, the exact
single-cycle feasibility test, and the minimum-infinity-norm certificate
whose failure rules out cohesive equilibria altogether.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .equilibrium import EquilibriumSolution, _stable_by_factor, fixed_point_residual, phase_cohesiveness
from .errors import (
    GammaOutOfRangeError,
    NonZeroMeanFrequenciesError,
    NotACycleError,
    NotAcyclicError,
    PsiOutOfRangeError,
)
from .graph import (
    CycleBasis,
    LaplacianBundle,
    WeightedGraph,
    cycle_basis,
    divergence,
    edge_differences,
    is_single_cycle,
    is_tree,
    require_connected,
    solve_poisson,
)

CONDITION_SLACK = 1e-12


def recenter_frequencies(omega, tol: float = 1e-9) -> np.ndarray:
    """Project omega onto the zero-mean subspace.

    Raises NonZeroMeanFrequenciesError when recentring fails (non-finite
    inputs), since every analysis below assumes sum(omega) = 0.
    """
    omega = np.asarray(omega, dtype=float)
    centered = omega - omega.mean()
    scale = max(1.0, float(np.max(np.abs(omega))) if omega.size else 1.0)
    mean_after = centered.mean() if centered.size else 0.0
    if not abs(mean_after) <= tol * scale:
        raise NonZeroMeanFrequenciesError(f"residual mean {mean_after!r} after recentring")
    return centered


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 0.0 <= gamma <= math.pi / 2:
        raise GammaOutOfRangeError(f"gamma must lie in [0, pi/2], got {gamma}")
    return gamma


@dataclass(frozen=True)
class SyncAssessment:
    """Synchronization margin and the per-edge linear solution.

    gamma_pred = arcsin(margin) is the predicted cohesiveness of the
    nonlinear equilibrium; it is None when margin > 1 (no angle gamma < pi/2
    can certify synchronization).
    """

    margin: float
    gamma_pred: float | None
    psi_particular: np.ndarray
    omega: np.ndarray

    def condition_holds(self, gamma: float) -> bool:
        return self.margin <= math.sin(_check_gamma(gamma)) + CONDITION_SLACK


def sync_margin(g: WeightedGraph, omega) -> SyncAssessment:
    """Evaluate the synchronization margin ||B^T Ldag omega||_inf.

    Frequencies are recentred automatically.  Uses a sparse-friendly linear
    solve instead of the dense pseudoinverse.
    """
    require_connected(g)
    omega = recenter_frequencies(omega)
    psi = edge_differences(g, solve_poisson(g, omega))
    margin = float(np.max(np.abs(psi))) if g.m else 0.0
    gamma_pred = math.asin(margin) if margin <= 1.0 else None
    return SyncAssessment(margin=margin, gamma_pred=gamma_pred, psi_particular=psi, omega=omega)


def spectral_margin(bundle: LaplacianBundle, g: WeightedGraph, omega) -> float:
    """Margin computed through the Laplacian modes.

    Projects omega on the eigenvectors, weights by inverse eigenvalues
    (zero mode discarded) and takes the worst edge difference.  Must agree
    with sync_margin to numerical precision; kept as an independent route.
    """
    omega = recenter_frequencies(omega)
    inv = np.zeros_like(bundle.eigenvalues)
    inv[1:] = 1.0 / bundle.eigenvalues[1:]
    weighted = bundle.eigenvectors @ (inv * (bundle.eigenvectors.T @ omega))
    return float(np.max(np.abs(edge_differences(g, weighted)))) if g.m else 0.0


@dataclass(frozen=True)
class NecessaryCheck:
    """Degree-based conditions every cohesive equilibrium must satisfy."""

    absolute_ok: bool
    incremental_ok: bool
    violating_nodes: tuple[int, ...]
    violating_edges: tuple[tuple[int, int], ...]


def necessary_conditions(g: WeightedGraph, omega, gamma: float, tol: float = 1e-9) -> NecessaryCheck:
    """Check deg_i sin(gamma) >= |omega_i| and the incremental analogue.

    Boundary cases that hold with equality are accepted within a relative
    tolerance.  If a cohesive equilibrium at gamma exists, both checks are
    guaranteed to pass.
    """
    gamma = _check_gamma(gamma)
    omega = recenter_frequencies(omega)
    sin_g = math.sin(gamma)
    deg = g.weighted_degrees()
    scale = max(1.0, float(np.max(deg)) if deg.size else 1.0)
    slack = tol * scale

    abs_bad = [i + 1 for i in range(g.n) if deg[i] * sin_g < abs(omega[i]) - slack]
    inc_bad = []
    for k, (i, j, _) in enumerate(g.edges):
        if (deg[i - 1] + deg[j - 1]) * sin_g < abs(omega[i - 1] - omega[j - 1]) - slack:
            inc_bad.append((i, j))
    return NecessaryCheck(
        absolute_ok=not abs_bad,
        incremental_ok=not inc_bad,
        violating_nodes=tuple(abs_bad),
        violating_edges=tuple(inc_bad),
    )


@dataclass(frozen=True)
class Infeasible:
    """Certificate that no cohesive equilibrium exists at the given gamma."""

    margin: float
    gamma: float
    reason: str


def _assemble_from_edge_angles(g: WeightedGraph, edge_angles: np.ndarray) -> np.ndarray:
    """Integrate per-edge differences into node angles along a spanning tree.

    edge_angles[k] is the prescribed theta_sink - theta_source for edge k.
    Gauge: theta_1 = 0.
    """
    tree = g.bfs_tree
    theta = np.zeros(g.n)
    for v in tree.order[1:]:
        u, k = tree.parent[v], tree.parent_edge[v]
        theta[v] = theta[u] + (edge_angles[k] if g.sinks[k] == v else -edge_angles[k])
    return theta


def _equilibrium_from_psi(g: WeightedGraph, omega, psi: np.ndarray) -> EquilibriumSolution:
    theta = _assemble_from_edge_angles(g, np.arcsin(np.clip(psi, -1.0, 1.0)))
    residual = float(np.max(np.abs(fixed_point_residual(g, omega, theta))))
    return EquilibriumSolution(
        theta=theta,
        cohesiveness=phase_cohesiveness(theta, g),
        stable=_stable_by_factor(g, theta),
        residual=residual,
    )


def acyclic_equilibrium(g: WeightedGraph, omega, gamma: float) -> EquilibriumSolution | Infeasible:
    """Closed-form equilibrium on trees: B^T theta = arcsin(B^T Ldag omega).

    Exact both ways: returns a stable cohesive equilibrium iff the margin
    is at most sin(gamma); otherwise no equilibrium exists anywhere in the
    closed cohesive set.
    """
    if not is_tree(g):
        raise NotAcyclicError(f"graph has {g.m} edges on {g.n} nodes; expected a tree")
    gamma = _check_gamma(gamma)
    assessment = sync_margin(g, omega)
    if assessment.margin > math.sin(gamma) + CONDITION_SLACK:
        return Infeasible(
            margin=assessment.margin,
            gamma=gamma,
            reason="margin exceeds sin(gamma); exact condition on trees",
        )
    return _equilibrium_from_psi(g, assessment.omega, assessment.psi_particular)


@dataclass(frozen=True)
class CycleFeasibility:
    """Outcome of the exact single-cycle test.

    f is the cycle-constraint function evaluated on the admissible interval
    of circulation shifts; a sign change brackets the unique root
    lambda_star, from which the equilibrium angles follow.
    """

    feasible: bool
    lambda_star: float | None
    theta: EquilibriumSolution | None
    f_lmin: float
    f_lmax: float


def single_cycle_feasibility(g: WeightedGraph, omega, gamma: float) -> CycleFeasibility:
    """Exact feasibility on a cycle graph.

    The full solution set of the flow equations is psi(lambda) = x + lambda*h
    with h the per-edge circulation direction c_e / a_e (c the signed cycle
    vector).  In the orientation-aligned frame x~ = c * x the constraint
    function

        f(lambda) = sum_e arcsin(x~_e + lambda / a_e)

    is strictly increasing; a cohesive equilibrium exists iff f changes sign
    on the interval where every |psi_e| <= sin(gamma).  The root is found by
    bisection (Newton would blow up near |psi_e| -> 1).
    """
    if not is_single_cycle(g):
        raise NotACycleError(f"graph with n={g.n}, m={g.m} is not a single cycle")
    gamma = _check_gamma(gamma)
    sin_g = math.sin(gamma)

    assessment = sync_margin(g, omega)
    x = assessment.psi_particular
    c = cycle_basis(g).vectors[0]
    x_aligned = c * x
    slopes = 1.0 / g.weights  # d psi~ / d lambda, all positive

    lam_min = float(np.max((-sin_g - x_aligned) / slopes))
    lam_max = float(np.min((sin_g - x_aligned) / slopes))
    if lam_min > lam_max:
        return CycleFeasibility(False, None, None, math.nan, math.nan)

    def f(lam: float) -> float:
        vals = np.clip(x_aligned + lam * slopes, -1.0, 1.0)
        return float(np.sum(np.arcsin(vals)))

    f_lo, f_hi = f(lam_min), f(lam_max)
    span = max(1.0, abs(lam_min), abs(lam_max))
    if f_lo > 1e-10 or f_hi < -1e-10:
        return CycleFeasibility(False, None, None, f_lo, f_hi)

    lo, hi = lam_min, lam_max
    while hi - lo > 1e-12 * span:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    lam_star = 0.5 * (lo + hi)
    psi = x + lam_star * c / g.weights
    solution = _equilibrium_from_psi(g, assessment.omega, psi)
    return CycleFeasibility(True, lam_star, solution, f_lo, f_hi)


def cycle_sufficient_bound(g: WeightedGraph, omega, gamma: float) -> bool:
    """Weight-ratio sufficient condition on cycles.

    margin <= sin(gamma) * min(a) / (max(a) + min(a)) guarantees that the
    exact single-cycle test succeeds; with uniform weights the threshold is
    sin(gamma)/2.
    """
    if not is_single_cycle(g):
        raise NotACycleError(f"graph with n={g.n}, m={g.m} is not a single cycle")
    gamma = _check_gamma(gamma)
    a_min = float(np.min(g.weights))
    a_max = float(np.max(g.weights))
    threshold = math.sin(gamma) * a_min / (a_max + a_min)
    return sync_margin(g, omega).margin <= threshold + CONDITION_SLACK


@dataclass(frozen=True)
class AuxiliarySpace:
    """Solution space of the auxiliary edge-variable equations.

    Every solution of omega = B diag(a) psi takes the form
    psi_particular + diag(1/a) * (cycle-space vector); psi corresponds to an
    actual equilibrium iff additionally arcsin(psi) has zero circulation
    around every basis cycle.
    """

    psi_particular: np.ndarray
    basis: CycleBasis
    graph: WeightedGraph = field(repr=False)

    def cycle_residuals(self, psi) -> np.ndarray:
        """Circulation c^T arcsin(psi) for each basis vector c."""
        psi = np.asarray(psi, dtype=float)
        if np.max(np.abs(psi), initial=0.0) > 1.0 + 1e-12:
            raise PsiOutOfRangeError(f"|psi|_inf = {np.max(np.abs(psi)):.6g} exceeds 1")
        angles = np.arcsin(np.clip(psi, -1.0, 1.0))
        if self.basis.rank == 0:
            return np.zeros(0)
        return self.basis.vectors @ angles


def auxiliary_solution_space(g: WeightedGraph, omega) -> AuxiliarySpace:
    """Particular solution B^T Ldag omega plus the cycle-space freedom."""
    require_connected(g)
    assessment = sync_margin(g, omega)
    basis = cycle_basis(g)
    defect = float(np.max(np.abs(divergence(g, assessment.psi_particular) - assessment.omega)))
    scale = max(1.0, float(np.max(np.abs(assessment.omega))))
    if defect > 1e-9 * scale:
        raise AssertionError(f"particular solution defect {defect:.3e}")
    return AuxiliarySpace(psi_particular=assessment.psi_particular, basis=basis, graph=g)


@dataclass(frozen=True)
class MinNormSolution:
    """Minimum-infinity-norm flow certificate.

    norm > sin(gamma) proves no equilibrium exists in the closed cohesive
    set at gamma, regardless of cycle constraints.
    """

    psi_star: np.ndarray
    norm: float


def min_infinity_norm_solution(g: WeightedGraph, omega) -> MinNormSolution:
    """Solve min ||psi||_inf subject to B diag(a) psi = omega.

    Parametrized over the cycle space, psi = psi_pt + diag(1/a) C^T mu, the
    problem is an unconstrained Chebyshev minimization, solved as an
    epigraph LP.  On trees the solution is unique and equals psi_pt.
    """
    space = auxiliary_solution_space(g, omega)
    psi_pt = space.psi_particular
    rank = space.basis.rank
    if rank == 0 or g.m == 0:
        psi_star = psi_pt.copy()
    else:
        h_mat = (space.basis.vectors / g.weights).T  # (m, rank)
        a_ub = np.block([
            [h_mat, -np.ones((g.m, 1))],
            [-h_mat, -np.ones((g.m, 1))],
        ])
        b_ub = np.concatenate([-psi_pt, psi_pt])
        cost = np.zeros(rank + 1)
        cost[-1] = 1.0
        lower = np.full(rank + 1, -np.inf)
        lower[-1] = 0.0
        # milp with no integrality is the same HiGHS LP as linprog's, with
        # less input processing around the solve
        result = milp(cost, constraints=LinearConstraint(a_ub, -np.inf, b_ub),
                      bounds=Bounds(lower, np.inf))
        if not result.success:
            raise RuntimeError(f"min-norm LP failed: {result.message}")
        mu = result.x[:rank]
        psi_star = psi_pt + h_mat @ mu
    norm = float(np.max(np.abs(psi_star))) if g.m else 0.0
    return MinNormSolution(psi_star=psi_star, norm=norm)

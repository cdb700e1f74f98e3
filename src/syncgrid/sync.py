"""Closed-form synchronization condition and exact topology-specific solvers.

The central quantity is the margin

    ||B^T Ldag omega||_inf  =  max_{(i,j) in E} |(Ldag omega)_i - (Ldag omega)_j|,

the worst edge difference of the linear (small-angle) solution.  A margin
of at most sin(gamma) guarantees a stable equilibrium with every edge
distance at most gamma on trees, uniformly weighted complete graphs,
cut-set inducing frequencies, short or symmetric cycles and, asymptotically,
weak heterogeneity; elsewhere it is only a statistically accurate predictor.

The module also evaluates the necessary degree conditions, the exact
single-cycle feasibility test, and the minimum-infinity-norm certificate:
the smallest ||psi||_inf over all flows with B diag(a) psi = omega, one
sparse LP on the edge flows, whose excess over sin(gamma) rules out
cohesive equilibria altogether.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .equilibrium import EquilibriumSolution, _stable_by_factor, fixed_point_residual, phase_cohesiveness
from .errors import (
    DimensionMismatchError,
    GammaOutOfRangeError,
    NonZeroMeanFrequenciesError,
    NotACycleError,
    NotAcyclicError,
)
from .graph import (
    LaplacianBundle,
    WeightedGraph,
    cycle_basis,
    edge_differences,
    is_single_cycle,
    is_tree,
    require_connected,
    solve_poisson,
)

CONDITION_SLACK = 1e-12
RECENTER_RTOL = 1e-9
NECESSARY_RTOL = 1e-9


def recenter_frequencies(omega) -> np.ndarray:
    """Project omega onto the zero-mean subspace.

    Raises NonZeroMeanFrequenciesError when recentring fails (non-finite
    inputs), since every analysis below assumes sum(omega) = 0: the mean
    left must be at most RECENTER_RTOL * max(1, max |omega_i|).
    """
    omega = np.asarray(omega, dtype=float)
    centered = omega - omega.mean()
    scale = max(1.0, float(np.max(np.abs(omega))) if omega.size else 1.0)
    mean_after = centered.mean() if centered.size else 0.0
    if not abs(mean_after) <= RECENTER_RTOL * scale:
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


def necessary_conditions(g: WeightedGraph, omega, gamma: float) -> NecessaryCheck:
    """Check deg_i sin(gamma) >= |omega_i| and the incremental analogue.

    Boundary cases that hold with equality are accepted within a slack of
    NECESSARY_RTOL * max(1, max deg_i).  If a cohesive equilibrium at gamma
    exists, both checks are guaranteed to pass.
    """
    gamma = _check_gamma(gamma)
    omega = recenter_frequencies(omega)
    if omega.shape != (g.n,):
        raise DimensionMismatchError(f"expected length-{g.n} vector, got {omega.shape}")
    sin_g = math.sin(gamma)
    deg = g.weighted_degrees()
    scale = max(1.0, float(np.max(deg)) if deg.size else 1.0)
    slack = NECESSARY_RTOL * scale
    src, snk = g.sources, g.sinks
    abs_bad = np.flatnonzero(deg * sin_g < np.abs(omega) - slack) + 1
    inc = (deg[src] + deg[snk]) * sin_g < np.abs(omega[src] - omega[snk]) - slack
    inc_bad = tuple(zip((src[inc] + 1).tolist(), (snk[inc] + 1).tolist()))
    return NecessaryCheck(
        absolute_ok=not abs_bad.size,
        incremental_ok=not inc_bad,
        violating_nodes=tuple(abs_bad.tolist()),
        violating_edges=inc_bad,
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
class MinNormSolution:
    """Minimum-infinity-norm flow certificate.

    norm > sin(gamma) proves no equilibrium exists in the closed cohesive
    set at gamma, regardless of cycle constraints.
    """

    psi_star: np.ndarray
    norm: float


def min_infinity_norm_solution(g: WeightedGraph, omega) -> MinNormSolution:
    """Solve min ||psi||_inf subject to B diag(a) psi = omega.

    Posed as one sparse LP on the edge flows psi and a bound t: minimise t
    subject to the grounded rows 2..n of B diag(a) psi = omega (+a_e at the
    sink, -a_e at the source; row 1 follows, as both sides sum to zero) and
    +-psi_e - t <= 0.  On graphs with cycles the minimising flow psi_star
    is in general not unique; its norm is.  On trees (m = n - 1) the flow
    is unique, and psi_star is sync_margin's psi_particular as it is.

    Raises DisconnectedGraphError, DimensionMismatchError for an omega of
    the wrong length and NonZeroMeanFrequenciesError for a non-finite one.
    """
    require_connected(g)
    if g.m == g.n - 1:
        psi_star = sync_margin(g, omega).psi_particular
        return MinNormSolution(psi_star=psi_star, norm=float(np.max(np.abs(psi_star), initial=0.0)))
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (g.n,):
        raise DimensionMismatchError(f"expected length-{g.n} vector, got {omega.shape}")
    omega = recenter_frequencies(omega)
    n, m, a = g.n, g.m, g.weights
    edge = np.arange(m)
    keep = g.sources > 0  # node 1's row is grounded away; sinks are never node 1
    bound_rows = n - 1 + np.arange(2 * m)
    rows = np.concatenate([g.sinks - 1, g.sources[keep] - 1, bound_rows, bound_rows])
    cols = np.concatenate([edge, edge[keep], edge, edge, np.full(2 * m, m)])
    data = np.concatenate([a, -a[keep], np.ones(m), -np.ones(m), np.full(2 * m, -1.0)])
    a_mat = sparse.csc_array((data, (rows, cols)), shape=(n - 1 + 2 * m, m + 1))
    lower = np.concatenate([omega[1:], np.full(2 * m, -np.inf)])
    upper = np.concatenate([omega[1:], np.zeros(2 * m)])
    cost = np.zeros(m + 1)
    cost[m] = 1.0
    var_lower = np.full(m + 1, -np.inf)
    var_lower[m] = 0.0
    result = milp(cost, constraints=LinearConstraint(a_mat, lower, upper),
                  bounds=Bounds(var_lower, np.inf))
    if not result.success:
        raise RuntimeError(f"min-norm LP failed: {result.message}")
    psi_star = result.x[:m]
    return MinNormSolution(psi_star=psi_star, norm=float(np.max(np.abs(psi_star))))

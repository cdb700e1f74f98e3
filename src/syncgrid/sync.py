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
cohesive equilibria altogether.  node_cut_ratio is that certificate's
cheapest lower bound, the worst single-node cut, with no solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .equilibrium import EquilibriumSolution, _stable_by_factor, fixed_point_residual, phase_cohesiveness
from .errors import (
    DimensionMismatchError,
    GammaOutOfRangeError,
    NonZeroMeanFrequenciesError,
    NotACycleError,
    NotAcyclicError,
)
from .graph import (
    WeightedGraph,
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
    if not omega.size:
        return omega.copy()
    centered = omega - omega.sum() / omega.size  # omega.mean() bit for bit, minus its overhead
    scale = max(1.0, float(abs(omega).max()))
    mean_after = centered.sum() / centered.size
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

    Frequencies are recentred automatically.  Ldag omega comes from
    solve_poisson; no pseudoinverse is formed.
    """
    require_connected(g)
    omega = recenter_frequencies(omega)
    psi = edge_differences(g, solve_poisson(g, omega))
    margin = float(abs(psi).max()) if g.m else 0.0
    gamma_pred = math.asin(margin) if margin <= 1.0 else None
    return SyncAssessment(margin=margin, gamma_pred=gamma_pred, psi_particular=psi, omega=omega)


def node_cut_ratio(g: WeightedGraph, omega) -> float:
    """Worst single-node cut ratio max_i |omega_i| / deg_i of a zero-sum omega.

    A lower bound on the margin and on the min-norm certificate: every flow
    psi with B diag(a) psi = omega (sync_margin's psi_particular is one)
    moves omega_i through the edges at node i, so
    |omega_i| <= deg_i ||psi||_inf.  This is Gale's cut bound
    |omega(S)| / a(delta S) <= min ||psi||_inf for S = {i}.  omega is taken
    as given, not recentred; scaling every weight by K divides the ratio
    by K.  Costs one pass over the edges, no solve.
    """
    require_connected(g)
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (g.n,):
        raise DimensionMismatchError(f"expected length-{g.n} vector, got {omega.shape}")
    if not g.m:
        return 0.0
    return float((abs(omega) / g.weighted_degrees()).max())


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


def _cycle_vector(g: WeightedGraph) -> np.ndarray:
    """The signed cycle vector c of a single-cycle graph: B c = 0, entries +-1.

    The BFS tree misses one edge, the chord; c is +1 on it (source -> sink)
    and follows the tree path back from its sink to its source, +1 where the
    path runs along an edge's orientation.  The path is found by climbing
    parents from both ends to their common ancestor.
    """
    _, parent, parent_edge, depth = g.bfs_tree
    (k,) = np.setdiff1d(np.arange(g.m), parent_edge[1:])
    c = np.zeros(g.m)
    c[k] = 1.0
    u, v = int(g.sinks[k]), int(g.sources[k])  # walk u -> v along the tree
    while u != v:
        if depth[u] >= depth[v]:  # step up from u: +1 when leaving an edge's source
            e = parent_edge[u]
            c[e] = 1.0 if g.sources[e] == u else -1.0
            u = parent[u]
        else:  # step down into v: +1 when entering an edge's sink
            e = parent_edge[v]
            c[e] = 1.0 if g.sinks[e] == v else -1.0
            v = parent[v]
    return c


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
    c = _cycle_vector(g)
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

    Posed as one sparse LP on edge flows phi and a gain s: maximise s
    subject to the grounded rows 2..n of B diag(a') phi = s omega' (+a'_e
    at the sink, -a'_e at the source; row 1 follows, as both sides sum to
    zero), with -1 <= phi_e <= 1 and s >= 0 as variable bounds, not rows:
    n - 1 rows by m + 1 columns.  It is the same problem under phi = s psi:
    a flow psi of norm t is phi = psi / t at s = 1 / t, so the largest s is
    1 / min ||psi||_inf and its phi / s is a minimising flow.

    The LP sees omega' = omega / ||omega||_inf and a' = a / max(a), whose
    largest entries are 1 at any scale of omega and a: HiGHS's tolerances
    are absolute, and at other scales they, not the data, would decide the
    optimum.  psi_star = phi ||omega||_inf / (max(a) s) then carries the
    scale back exactly up to rounding, so scaling omega by c scales the norm
    by |c| and scaling a by K divides it by K.  An omega that recentres to
    zero gets the zero flow without an LP.

    On graphs with cycles the minimising flow psi_star is in general not
    unique; its norm is.  On trees (m = n - 1) the flow is unique, and
    psi_star is sync_margin's psi_particular as it is.

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
    omega_scale = float(np.max(np.abs(omega)))
    if omega_scale == 0.0:
        return MinNormSolution(psi_star=np.zeros(g.m), norm=0.0)
    # scipy.optimize is a large import that only the LP needs
    from scipy.optimize import Bounds, LinearConstraint, milp

    n, m = g.n, g.m
    a_scale = float(np.max(g.weights))
    a = g.weights / a_scale
    edge = np.arange(m)
    keep = g.sources > 0  # node 1's row is grounded away; sinks are never node 1
    rows = np.concatenate([g.sinks - 1, g.sources[keep] - 1, np.arange(n - 1)])
    cols = np.concatenate([edge, edge[keep], np.full(n - 1, m)])
    data = np.concatenate([a, -a[keep], omega[1:] / -omega_scale])
    a_mat = sparse.csc_array((data, (rows, cols)), shape=(n - 1, m + 1))
    zeros = np.zeros(n - 1)
    cost = np.zeros(m + 1)
    cost[m] = -1.0
    lower = np.full(m + 1, -1.0)
    lower[m] = 0.0
    upper = np.ones(m + 1)
    upper[m] = np.inf
    # HiGHS presolve stays on: off took 1.8 ms against 2.2 at n = 73,
    # but 0.58 s against 0.43 at n = 10,001
    result = milp(cost, constraints=LinearConstraint(a_mat, zeros, zeros),
                  bounds=Bounds(lower, upper))
    if not result.success:
        raise RuntimeError(f"min-norm LP failed: {result.message}")
    psi_star = result.x[:m] * (omega_scale / (a_scale * result.x[m]))
    return MinNormSolution(psi_star=psi_star, norm=float(np.max(np.abs(psi_star))))

"""Equilibrium computation for general topologies.

Solves the flow-balance fixed-point equations

    omega_i = sum_j a_ij sin(theta_i - theta_j)

with damped Newton iteration on the reduced system obtained by grounding
node 1 (removing the rotational null direction).  Each iteration factors
the grounded -J once, with LAPACK below graph.SPARSE_MIN_NODES nodes and
with SuperLU from it on: the LU gives both the step and a 1-norm condition
estimate, and CONDITION_LIMIT bounds that estimate.  Inside the cohesive
region every converged solution is locally exponentially stable and unique
up to rotation.  A solver decides `stable` from one more factorization:
the grounded -J is positive definite iff lambda2(-J) > 0.
assess_stability computes that eigenvalue itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.sparse.linalg import LinearOperator, onenormest

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonFiniteInputError,
    NotAnEquilibriumError,
    SingularJacobianError,
)
from .graph import (
    SPARSE_MIN_NODES,
    WeightedGraph,
    _sine_coupling,
    edge_differences,
    require_connected,
    solve_poisson,
    symmetric_splu,
)

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
EQUILIBRIUM_RESIDUAL_TOL = 1e-8
MAX_STEP_HALVINGS = 20
# Largest 1-norm condition estimate of the grounded -J that a step is taken
# with; the estimate comes from the Newton step's own LU (LAPACK dgecon dense,
# onenormest through SuperLU sparse).
CONDITION_LIMIT = 1e12
# SuperLU diagonal pivot threshold of a sparse Newton step: at a cohesive
# iterate the grounded -J is diagonally dominant and every diagonal qualifies.
NEWTON_PIVOT_THRESH = 0.1


def wrap_angles(theta) -> np.ndarray:
    """Reduce angles to (-pi, pi]."""
    theta = np.asarray(theta, dtype=float)
    return -(np.mod(-theta + np.pi, 2.0 * np.pi) - np.pi)


def geodesic_distances(g: WeightedGraph, theta) -> np.ndarray:
    """Per-edge geodesic distance on the circle, in [0, pi]."""
    diff = np.abs(wrap_angles(edge_differences(g, theta)))
    return diff


def phase_cohesiveness(theta, g: WeightedGraph) -> float:
    """Largest geodesic angle distance across any edge."""
    if g.m == 0:
        return 0.0
    return float(np.max(geodesic_distances(g, theta)))


def fixed_point_residual(g: WeightedGraph, omega, theta) -> np.ndarray:
    """B diag(a) sin(B^T theta) - omega, one component per node."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (g.n,):
        raise DimensionMismatchError(f"expected length-{g.n} omega, got {omega.shape}")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (g.n,):
        raise DimensionMismatchError(f"expected length-{g.n} vector, got {theta.shape}")
    return _sine_coupling(g, theta) - omega


def jacobian(g: WeightedGraph, theta) -> np.ndarray:
    """Jacobian of the coupling dynamics: -B diag(a cos(B^T theta)) B^T.

    Symmetric with zero row sums; equals -L at theta = 0.
    """
    return g.laplacian(-g.weights * np.cos(edge_differences(g, theta)))


@dataclass(frozen=True)
class EquilibriumSolution:
    """Converged phase equilibrium.

    theta is gauge fixed (theta_1 = 0) and reduced mod 2*pi; cohesiveness
    is the largest geodesic edge distance; residual is the infinity norm of
    the flow-balance equations at theta.
    """

    theta: np.ndarray
    cohesiveness: float
    stable: bool
    residual: float
    iterations: int = 0


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    lambda2_of_minus_jacobian: float


def assess_stability(g: WeightedGraph, theta, omega=None) -> StabilityReport:
    """Spectral stability test at an equilibrium.

    -J(theta) always has one zero eigenvalue from rotational symmetry; the
    equilibrium manifold is exponentially stable iff the second-smallest
    eigenvalue is positive.  When omega is given the point is first checked
    to actually be an equilibrium (residual at most EQUILIBRIUM_RESIDUAL_TOL).
    """
    if omega is not None:
        res = float(np.max(np.abs(fixed_point_residual(g, omega, theta))))
        if res > EQUILIBRIUM_RESIDUAL_TOL:
            raise NotAnEquilibriumError(f"residual {res:.3e} exceeds {EQUILIBRIUM_RESIDUAL_TOL:.1e}")
    minus_jac = jacobian(g, theta)
    np.negative(minus_jac, out=minus_jac)  # in place: no second n x n array
    evals = np.linalg.eigvalsh(minus_jac)
    scale = max(1.0, float(np.max(np.abs(evals))))
    lam2 = float(evals[1])
    return StabilityReport(stable=lam2 > 1e-9 * scale, lambda2_of_minus_jacobian=lam2)


def _grounded_minus_jacobian(g: WeightedGraph, theta):
    """Rows and columns 2..n of -J(theta): dense below SPARSE_MIN_NODES, CSC from it."""
    if g.n < SPARSE_MIN_NODES:
        return -jacobian(g, theta)[1:, 1:]
    return g._grounded(g.weights * np.cos(edge_differences(g, theta)))


def _stable_by_factor(g: WeightedGraph, theta) -> bool:
    """Exponential stability of the equilibrium at theta, from one factorization.

    -J is symmetric with -J 1 = 0, so its grounded block is positive
    definite iff -J is positive semidefinite with kernel span(1), that is
    iff lambda2(-J) > 0.  Dense: the Cholesky factorization (dpotrf)
    succeeds.  Sparse: the LU with diagonal pivoting keeps perm_r == perm_c
    and has a positive diagonal of U.  Each pivot of a positive definite
    matrix is a positive Schur-complement diagonal, so an off-diagonal pivot
    or an exactly singular factor means not positive definite.
    """
    a = _grounded_minus_jacobian(g, theta)
    if isinstance(a, np.ndarray):
        _, info = lapack.dpotrf(a.T, overwrite_a=1)  # symmetric: the F view, factored in place
        return info == 0
    try:
        lu = symmetric_splu(a)
    except RuntimeError:  # "Factor is exactly singular"
        return False
    return bool(np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0))


def _finalize(g: WeightedGraph, omega, theta, iterations: int) -> EquilibriumSolution:
    theta = np.asarray(theta, dtype=float) - float(theta[0])
    theta = wrap_angles(theta)
    theta = theta - theta[0]
    res = float(np.max(np.abs(fixed_point_residual(g, omega, theta))))
    coh = phase_cohesiveness(theta, g)
    return EquilibriumSolution(
        theta=theta,
        cohesiveness=coh,
        stable=_stable_by_factor(g, theta),
        residual=res,
        iterations=iterations,
    )


def _one_norm(a) -> float:
    """||a||_1, the largest column sum of |a|, from the stored entries of a CSC
    matrix with no empty column (a grounded -J stores every diagonal entry)."""
    return float(np.add.reduceat(abs(a.data), a.indptr[:-1]).max())


def _factor_grounded(minus_jac_red):
    """Factor the grounded -J: a solve with its LU and a 1-norm condition estimate.

    Dense (ndarray): LAPACK's LU and estimate.  -J is exactly symmetric, so
    the transpose of a C-contiguous argument is the same matrix as an
    F-contiguous view, which LAPACK factors in place without a copy: the
    argument is overwritten.  Sparse (CSC): SuperLU, and ||A||_1 times
    onenormest of A^-1 applied through the LU.  onenormest runs with t=1,
    the deterministic Hager-Higham iteration that dgecon also uses.  The
    estimate is inf, and the solve None, for an exactly singular factor; a
    non-finite or non-positive estimate is inf as well.
    """
    if isinstance(minus_jac_red, np.ndarray):
        a = minus_jac_red.T
        anorm = lapack.dlange("1", a)
        lu, piv, info = lapack.dgetrf(a, overwrite_a=1)
        if info > 0:
            return None, math.inf
        rcond, _ = lapack.dgecon(lu, anorm, norm="1")
        cond = 1.0 / rcond if rcond > 0.0 else math.inf
        return (lambda b: lapack.dgetrs(lu, piv, b, overwrite_b=1)[0]), cond
    try:
        lu = symmetric_splu(minus_jac_red, NEWTON_PIVOT_THRESH)
    except RuntimeError:  # "Factor is exactly singular"
        return None, math.inf
    inverse = LinearOperator(lu.shape, matvec=lu.solve, rmatvec=lambda b: lu.solve(b, trans="T"),
                             dtype=float)
    cond = _one_norm(minus_jac_red) * onenormest(inverse, t=1)
    return lu.solve, cond if cond > 0.0 and math.isfinite(cond) else math.inf


def solve_equilibrium(
    g: WeightedGraph,
    omega,
    theta0=None,
    tol: float = NEWTON_TOL,
) -> EquilibriumSolution:
    """Damped Newton solve of the flow-balance equations.

    Node 1 is grounded during the iteration, which removes the rotational
    null direction and keeps the reduced Jacobian invertible inside the
    cohesive region.  The default seed is the solution of the linear system
    L theta = omega, i.e. the small-angle approximation.  Each step is
    halved until the residual norm decreases; when MAX_STEP_HALVINGS
    halvings all fail, the line search raises NoConvergenceError with the
    last accepted iterate instead of taking an uphill step.  A nan or inf
    in omega or theta0 raises NonFiniteInputError before any factorization.
    """
    require_connected(g)
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (g.n,):
        raise DimensionMismatchError(f"expected length-{g.n} omega, got {omega.shape}")
    if not np.all(np.isfinite(omega)):
        raise NonFiniteInputError("omega has a non-finite entry")
    omega = omega - omega.mean()
    if theta0 is None:
        theta = solve_poisson(g, omega)
    else:
        theta = np.asarray(theta0, dtype=float)
        if theta.shape != (g.n,):
            raise DimensionMismatchError(f"expected length-{g.n} theta0, got {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise NonFiniteInputError("theta0 has a non-finite entry")
    theta = theta - theta[0]  # a new array: theta0 is never written

    residual = fixed_point_residual(g, omega, theta)
    res_norm = float(np.max(np.abs(residual)))
    for iteration in range(1, NEWTON_MAX_ITER + 1):
        if res_norm <= tol:
            return _finalize(g, omega, theta, iteration - 1)
        solve, cond = _factor_grounded(_grounded_minus_jacobian(g, theta))
        if cond > CONDITION_LIMIT:
            raise SingularJacobianError(f"reduced Jacobian 1-norm condition estimate {cond:.3e}")
        step = solve(-residual[1:])

        # Damping: halve the step until the residual norm decreases.
        scale = 1.0
        for _ in range(MAX_STEP_HALVINGS + 1):
            trial = theta.copy()
            trial[1:] += scale * step
            trial_res = fixed_point_residual(g, omega, trial)
            trial_norm = float(np.max(np.abs(trial_res)))
            if trial_norm < res_norm:
                break
            scale *= 0.5
        else:
            raise NoConvergenceError(
                f"line search found no descent in {MAX_STEP_HALVINGS} step halvings "
                f"at iteration {iteration} (residual {res_norm:.3e})",
                theta=theta,
                residual=res_norm,
            )
        theta, residual, res_norm = trial, trial_res, trial_norm

    if res_norm <= tol:
        return _finalize(g, omega, theta, NEWTON_MAX_ITER)
    raise NoConvergenceError(
        f"no convergence after {NEWTON_MAX_ITER} iterations (residual {res_norm:.3e})",
        theta=theta,
        residual=res_norm,
    )

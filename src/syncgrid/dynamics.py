"""Time-domain simulation of mixed first/second-order oscillator networks.

The model couples rotational (second-order, inertia M and damping D) nodes
with kinematic (first-order, time constant D) nodes through sinusoidal
edge interactions:

    M_i theta_i'' + D_i theta_i' = omega_i - sum_j a_ij sin(theta_i - theta_j)   (V1)
                    D_i theta_i' = omega_i - sum_j a_ij sin(theta_i - theta_j)   (V2)

Integration is fixed-step RK4; the equations are smooth so adaptive
stepping buys nothing at the problem sizes handled here.  All defaults
are recorded in the trajectory metadata for reproducibility.

The right-hand side evaluates the coupling through graph._sine_coupling,
B diag(a) sin(B^T theta) with no input checks, and divides the torque by
the damping on every node at once (1.0 stands in on second-order nodes,
whose theta_dot is their frequency, so zero damping there divides by
nothing).  A first-order system returns that n-vector as it is, computed
in place in the coupling's fresh output, and skips the division when every
damping is 1 (x / 1.0 == x).  The derivative at the end of each step is
evaluated once, recorded or tested for steadiness and reused as the next
step's k1: a run evaluates the right-hand side 4 times per step, plus once.

The stepper allocates two buffers per run: the stage state y + h k, formed
with out= multiplies and adds, and the accumulator of
((k1 + 2 k2) + 2 k3) + k4, scaled by step / 6 and added to y in place.
Each right-hand side is a fresh array, so a recorded theta_dot row is never
overwritten, and recorded theta rows are copies.  Every floating-point
operation is the one the plain five-stage loop over
divergence(g, sin(edge_differences(g, theta))) performs, in the same order,
so trajectories are bit-identical to it; tests/test_dynamics.py keeps that
loop as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .equilibrium import phase_cohesiveness, solve_equilibrium
from .errors import (
    DimensionMismatchError,
    InvalidSpecError,
    NoConvergenceError,
    NonFiniteInputError,
    NonFiniteStateError,
    NoSyncInBracketError,
    ParseError,
    SingularJacobianError,
)
from .graph import WeightedGraph, _sine_coupling, edge_differences
from .rng import substream
from .sync import _check_gamma, min_infinity_norm_solution, recenter_frequencies, sync_margin

DEFAULT_STEP = 1e-3
DEFAULT_T_END = 100.0
RK4_STEP_SAFETY = 2.0  # RK4 admits about 2.8
KCRITICAL_REL_TOL = 1e-3
STEADY_WINDOW = 1.0  # time units ||theta_dot||_inf must stay below steady_tol


@dataclass(frozen=True, eq=False)
class OscillatorNetwork:
    """Graph plus node dynamics parameters.

    second_order lists the node ids (1-based) with inertial dynamics; all
    other nodes are first order.  M is only meaningful on second-order
    nodes; D must be positive everywhere.
    """

    graph: WeightedGraph
    omega: np.ndarray
    second_order: frozenset[int]
    M: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        n = self.graph.n
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "M", np.asarray(self.M, dtype=float))
        object.__setattr__(self, "D", np.asarray(self.D, dtype=float))
        if self.omega.shape != (n,):
            raise DimensionMismatchError(f"omega must have length {n}")
        if self.M.shape != (n,) or self.D.shape != (n,):
            raise DimensionMismatchError(f"M and D must have length {n}")
        for name in ("omega", "M", "D"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NonFiniteInputError(f"{name} holds nan or inf")
        bad = [i for i in self.second_order if not 1 <= i <= n]
        if bad:
            raise InvalidSpecError(f"second-order ids outside 1..{n}: {bad}")
        v1 = self.v1_indices
        if np.any(self.M[v1] <= 0):
            raise InvalidSpecError("inertia must be positive on second-order nodes")
        if np.any(self.D <= 0):
            raise InvalidSpecError("damping must be positive on all nodes")

    @cached_property
    def v1_indices(self) -> np.ndarray:
        """0-based second-order node indices, ascending (read-only)."""
        v1 = np.array(sorted(i - 1 for i in self.second_order), dtype=np.intp)
        v1.flags.writeable = False
        return v1

    @cached_property
    def v2_indices(self) -> np.ndarray:
        """0-based first-order node indices, ascending (read-only)."""
        first = np.ones(self.graph.n, dtype=bool)
        first[self.v1_indices] = False
        v2 = np.flatnonzero(first)
        v2.flags.writeable = False
        return v2

    @classmethod
    def first_order(cls, g: WeightedGraph, omega) -> "OscillatorNetwork":
        """All nodes first order with unit damping."""
        return cls(graph=g, omega=np.asarray(omega, dtype=float),
                   second_order=frozenset(), M=np.ones(g.n), D=np.ones(g.n))

    @property
    def omega_sync(self) -> float:
        return float(np.sum(self.omega) / np.sum(self.D))


def rotating_frame(net: OscillatorNetwork) -> OscillatorNetwork:
    """Shift to the co-rotating frame: omega_i <- omega_i - D_i * omega_sync.

    Afterwards the synchronization frequency is zero and sum(omega) = 0.
    """
    return replace(net, omega=_rotating_omega(net.omega, net.D))


def _rotating_omega(omega: np.ndarray, damping: np.ndarray) -> np.ndarray:
    """omega - D * omega_sync, rotating_frame's shift without building a network."""
    return omega - damping * (np.sum(omega) / np.sum(damping))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled trajectory with integrator metadata."""

    times: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    integrator: dict = field(default_factory=dict)

    @property
    def final_theta(self) -> np.ndarray:
        return self.theta[-1]


def _check_steps(t_end: float, step: float, record_stride: int) -> None:
    for name, value in (("step", step), ("t_end", t_end)):
        if not (math.isfinite(value) and value > 0):
            raise InvalidSpecError(f"{name} must be finite and positive, got {value}")
    if not (record_stride >= 1 and float(record_stride).is_integer()):
        raise InvalidSpecError(f"record_stride must be an integer of at least 1, got {record_stride}")


def rk4_integrate(
    g: WeightedGraph,
    omega: np.ndarray,
    v1: np.ndarray,
    v2: np.ndarray,
    m1: np.ndarray,
    damping: np.ndarray,
    theta0: np.ndarray,
    nu0: np.ndarray,
    t_end: float,
    step: float,
    record_stride: int = 1,
    steady_tol: float | None = None,
) -> Trajectory:
    """Raw fixed-step RK4 for the mixed-order system.

    v1/v2 are 0-based index arrays; nu0 holds initial frequencies on v1.
    Damping may be zero on v1 nodes (conservative test configurations).
    Only the step contract is checked: step and t_end finite and positive,
    record_stride an integer of at least 1 (InvalidSpecError otherwise).
    A run takes max(1, round(t_end / step)) steps of exactly step, so its
    last time is a whole multiple of step and can fall short of or beyond
    t_end (t_end=0.015, step=0.01 ends at 0.02).  When steady_tol is set,
    integration stops once ||theta_dot||_inf stayed below it throughout a
    full window of STEADY_WINDOW time units.  v2 is not read (v1's complement).
    """
    _check_steps(t_end, step, record_stride)
    n = g.n
    scale = np.array(damping, dtype=float)
    scale[v1] = 1.0  # theta_dot on v1 is nu, not torque / damping

    if len(v1):
        d1 = damping[v1]

        def rhs(y: np.ndarray) -> np.ndarray:
            nu = y[n:]
            torque = _sine_coupling(g, y[:n])
            np.subtract(omega, torque, out=torque)
            out = np.empty_like(y)
            dtheta, dnu = out[:n], out[n:]
            np.divide(torque, scale, out=dtheta)
            dtheta[v1] = nu
            np.multiply(d1, nu, out=dnu)
            np.subtract(torque[v1], dnu, out=dnu)
            dnu /= m1
            return out
    else:
        unit = bool((scale == 1.0).all())  # x / 1.0 == x: unit damping divides by nothing

        def rhs(y: np.ndarray) -> np.ndarray:
            torque = _sine_coupling(g, y)
            np.subtract(omega, torque, out=torque)
            if not unit:
                torque /= scale
            return torque

    n_steps = max(1, int(round(t_end / step)))
    half, sixth = 0.5 * step, step / 6.0
    y = np.concatenate([np.asarray(theta0, dtype=float), np.asarray(nu0, dtype=float)])
    k1 = rhs(y)  # the derivative at y is the next step's k1
    times = [0.0]
    thetas = [y[:n].copy()]
    dots = [k1[:n]]
    stage, acc = np.empty_like(y), np.empty_like(y)  # y + h k, then the weighted k sum

    window_steps = max(1, int(round(STEADY_WINDOW / step)))
    window_max = 0.0
    in_window = 0

    for k in range(1, n_steps + 1):
        k2 = rhs(np.add(y, np.multiply(k1, half, out=stage), out=stage))
        k3 = rhs(np.add(y, np.multiply(k2, half, out=stage), out=stage))
        k4 = rhs(np.add(y, np.multiply(k3, step, out=stage), out=stage))
        np.multiply(k2, 2.0, out=acc)
        np.add(k1, acc, out=acc)
        acc += np.multiply(k3, 2.0, out=stage)
        acc += k4
        acc *= sixth
        y += acc
        if not np.isfinite(y).all():
            raise NonFiniteStateError(f"state diverged at t = {k * step:.6g}")
        k1 = rhs(y)
        dot = k1[:n]
        steady = False
        if steady_tol is not None:
            window_max = max(window_max, float(np.max(np.abs(dot))))
            in_window += 1
            if in_window >= window_steps:
                steady = window_max <= steady_tol
                window_max, in_window = 0.0, 0
        if steady or k % record_stride == 0 or k == n_steps:
            times.append(k * step)
            thetas.append(y[:n].copy())
            dots.append(dot)
        if steady:
            break

    return Trajectory(
        times=np.array(times),
        theta=np.array(thetas),
        theta_dot=np.array(dots),
        integrator={"method": "rk4", "step": step, "t_end": t_end, "record_stride": record_stride},
    )


def simulate(
    net: OscillatorNetwork,
    theta0,
    theta_dot0=None,
    t_end: float = DEFAULT_T_END,
    step: float = DEFAULT_STEP,
    record_stride: int = 1,
    steady_tol: float | None = None,
) -> Trajectory:
    """Integrate the network from (theta0, theta_dot0).

    theta_dot0 applies to second-order nodes only (ordered by node id) and
    defaults to rest.  Raises NonFiniteInputError when either holds nan or
    inf, and InvalidSpecError when step or t_end is not finite and
    positive or record_stride is not an integer of at least 1.  The run
    takes max(1, round(t_end / step)) steps, as rk4_integrate does, so the
    last sample time can differ from t_end.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (net.graph.n,):
        raise DimensionMismatchError(f"theta0 must have length {net.graph.n}")
    v1 = net.v1_indices
    if theta_dot0 is None:
        nu0 = np.zeros(len(v1))
    else:
        nu0 = np.asarray(theta_dot0, dtype=float)
        if nu0.shape != (len(v1),):
            raise DimensionMismatchError(f"theta_dot0 must have length {len(v1)} (second-order nodes)")
    for name, value in (("theta0", theta0), ("theta_dot0", nu0)):
        if not np.all(np.isfinite(value)):
            raise NonFiniteInputError(f"{name} holds nan or inf")
    return rk4_integrate(
        net.graph, net.omega, v1, net.v2_indices, net.M[v1], net.D,
        theta0, nu0, t_end, step, record_stride=record_stride, steady_tol=steady_tol,
    )


def suggest_step(net: OscillatorNetwork) -> float:
    """Largest fixed step the RK4 stability region tolerates.

    Gershgorin bounds the linearized rates by 2*degree/D on first-order
    nodes and by max(D/M, sqrt(2*degree/M)) on second-order nodes; the step
    keeps step * rate at most RK4_STEP_SAFETY.
    """
    deg = net.graph.weighted_degrees()
    rates = [1e-9]
    v1 = net.v1_indices
    v2 = net.v2_indices
    if len(v2):
        rates.append(float(np.max(2.0 * deg[v2] / net.D[v2])))
    if len(v1):
        rates.append(float(np.max(net.D[v1] / net.M[v1])))
        rates.append(float(np.max(np.sqrt(2.0 * deg[v1] / net.M[v1]))))
    return min(DEFAULT_STEP * 10, RK4_STEP_SAFETY / max(rates))


@dataclass(frozen=True)
class SyncDetection:
    freq_synced: bool
    cohesive: bool
    t_sync: float | None


def detect_sync(traj: Trajectory, tol_freq: float, gamma: float, g: WeightedGraph) -> SyncDetection:
    """Frequency-synchrony and cohesiveness verdicts for a trajectory.

    t_sync is the first sample time at which both the frequency spread is
    within tol_freq and the phases are gamma-cohesive.
    """
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    spreads = np.max(np.abs(traj.theta_dot - traj.theta_dot.mean(axis=1, keepdims=True)), axis=1)
    cohesivenesses = np.array([phase_cohesiveness(th, g) for th in traj.theta])
    ok = (spreads <= tol_freq) & (cohesivenesses <= gamma)
    t_sync = float(traj.times[int(np.argmax(ok))]) if bool(np.any(ok)) else None
    return SyncDetection(
        freq_synced=bool(spreads[-1] <= tol_freq),
        cohesive=bool(cohesivenesses[-1] <= gamma),
        t_sync=t_sync,
    )


def energy(net: OscillatorNetwork, theta) -> float:
    """Potential energy: sum_E a_ij (1 - cos(theta_i - theta_j)) - omega . theta."""
    theta = np.asarray(theta, dtype=float)
    g = net.graph
    return float(np.sum(g.weights * (1.0 - np.cos(edge_differences(g, theta)))) - net.omega @ theta)


def quadratic_energy(net: OscillatorNetwork, theta) -> float:
    """Small-angle approximation: sum_E a_ij (theta_i - theta_j)^2 / 2 - omega . theta."""
    theta = np.asarray(theta, dtype=float)
    g = net.graph
    return float(0.5 * np.sum(g.weights * edge_differences(g, theta) ** 2) - net.omega @ theta)


@dataclass(frozen=True)
class KCriticalResult:
    """Smallest coupling gain that still yields a cohesive steady state."""

    k_min: float
    margin_normalizer: float
    ratio: float
    theta: np.ndarray | None = None


def _try_newton_cohesive(g: WeightedGraph, omega, gamma: float, seeds) -> np.ndarray | None:
    for seed in seeds:
        try:
            sol = solve_equilibrium(g, omega, theta0=seed, tol=1e-10)
        except (NoConvergenceError, SingularJacobianError):
            continue
        if sol.cohesiveness <= gamma + 1e-9:
            return sol.theta
    return None


def critical_coupling_search(
    g: WeightedGraph,
    omega,
    gamma: float = math.pi / 2,
    seed: int = 0,
) -> KCriticalResult:
    """Bisection for the smallest gain K with a gamma-cohesive steady state.

    The graph must be unit weighted (gain-parametrized coupling K * a_ij);
    gamma must lie in [0, pi/2] (GammaOutOfRangeError otherwise).  The
    bracket runs between the paper's two certificates until it is narrower
    than KCRITICAL_REL_TOL times its upper end, which is returned.

    Lower end: with floor = min_infinity_norm_solution(g, omega).norm, the
    minimum-infinity-norm flow at gain K is floor / K.  An equilibrium that
    Newton accepts has residual at most 1e-10 and cohesiveness at most
    gamma + 1e-9, so its edge flows, each at most s = sin(min(gamma + 1e-9,
    pi/2)) in size, carry omega at gain K up to a zero-sum residual that a
    unit-weight flow of norm at most n * 1e-10 / 2 carries (cut bound).
    Hence floor <= K s + n * 1e-10 / 2 wherever Newton succeeds: nowhere
    below k_cert = (floor * (1 - 1e-6) - n * 1e-10) / s, the 1e-6 covering
    the LP's tolerances, which are 1e-7 on its unit-scale data and so
    relative to floor at any scale of omega.

    Upper end: the margin normalizer ||Ldag omega||_{E,inf}, doubled past
    k_cert and then until Newton finds a cohesive equilibrium, up to 2^10
    times (NoSyncInBracketError beyond; with no Newton solve if k_cert is
    beyond).  Newton tries each visited K from the last cohesive solution,
    the linear seed and 5 random restarts.
    """
    gamma = _check_gamma(gamma)
    if not np.allclose(g.weights, 1.0):
        raise InvalidSpecError("critical coupling search expects a unit-weight graph")
    omega = recenter_frequencies(omega)
    normalizer = sync_margin(g, omega).margin
    if normalizer < 1e-14:
        return KCriticalResult(k_min=0.0, margin_normalizer=normalizer, ratio=1.0, theta=np.zeros(g.n))

    floor = min_infinity_norm_solution(g, omega).norm
    sin_gamma = math.sin(min(gamma + 1e-9, math.pi / 2))
    k_cert = max(0.0, (floor * (1.0 - 1e-6) - g.n * 1e-10) / sin_gamma)
    k_cap = normalizer * 2.0 ** 10
    rng = substream(seed, 0)
    best_theta: np.ndarray | None = None

    def exists(k: float) -> np.ndarray | None:
        seeds = [] if best_theta is None else [best_theta]
        seeds.append(None)  # linear seed inside solve_equilibrium
        seeds.extend(rng.uniform(-gamma / 2, gamma / 2, size=g.n) for _ in range(5))
        return _try_newton_cohesive(g.scaled(k), omega, gamma, seeds)

    k_hi = normalizer
    while k_hi < k_cert:
        k_hi *= 2.0
    while k_hi <= k_cap:
        best_theta = exists(k_hi)
        if best_theta is not None:
            break
        k_hi *= 2.0
    else:
        raise NoSyncInBracketError(f"no cohesive sync up to K = {k_cap:.6g}")

    k_lo = k_cert
    while k_hi - k_lo > KCRITICAL_REL_TOL * k_hi:
        mid = 0.5 * (k_lo + k_hi)
        theta = exists(mid)
        if theta is None:
            k_lo = mid
        else:
            best_theta, k_hi = theta, mid

    return KCriticalResult(
        k_min=k_hi,
        margin_normalizer=normalizer,
        ratio=k_hi / normalizer,
        theta=best_theta,
    )


# --- serialization for network files ---

def network_to_dict(net: OscillatorNetwork) -> dict:
    from .graph import graph_to_dict

    return {
        "graph": graph_to_dict(net.graph),
        "omega": list(map(float, net.omega)),
        "second_order": sorted(net.second_order),
        "M": list(map(float, net.M)),
        "D": list(map(float, net.D)),
    }


def network_from_dict(d: dict) -> OscillatorNetwork:
    """Network from its dict form; a missing "graph" or "omega", or an omega, M
    or D that is not numeric, is a ParseError naming the field."""
    from .graph import graph_from_dict, json_field

    g = graph_from_dict(json_field(d, "graph", "network"))
    n = g.n

    def numbers(key, value):
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            raise ParseError(f"network field {key!r} is not numeric: {value!r}") from None

    def expand(key, default):
        value = d.get(key)
        if value is None:
            return np.full(n, default)
        return np.full(n, numbers(key, value)) if np.isscalar(value) else numbers(key, value)

    return OscillatorNetwork(
        graph=g,
        omega=numbers("omega", json_field(d, "omega", "network")),
        second_order=frozenset(int(i) for i in d.get("second_order", [])),
        M=expand("M", 1.0),
        D=expand("D", 1.0),
    )

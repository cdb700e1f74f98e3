"""Time-domain simulation, energy landscape, critical coupling."""

import math

import numpy as np
import pytest

from conftest import count_calls, cycle_graph, random_connected_graph, random_zero_mean
from syncgrid import dynamics, equilibrium, graph, randnet
from syncgrid.dynamics import (
    KCriticalResult,
    OscillatorNetwork,
    _try_newton_cohesive,
    critical_coupling_search,
    detect_sync,
    energy,
    kinetic_energy,
    quadratic_energy,
    rk4_integrate,
    rotating_frame,
    simulate,
)
from syncgrid.equilibrium import fixed_point_residual, wrap_angles
from syncgrid.errors import (
    GammaOutOfRangeError,
    InvalidSpecError,
    NonFiniteInputError,
    NonFiniteStateError,
    NoSyncInBracketError,
)
from syncgrid.graph import WeightedGraph, divergence, edge_differences
from syncgrid.rng import substream
from syncgrid.sync import min_infinity_norm_solution, sync_margin

TWO_NODE = WeightedGraph.from_edges(2, [(1, 2, 2.0)])


def test_rotating_frame_already_balanced():
    net = OscillatorNetwork.first_order(TWO_NODE, [1.0, -1.0])
    out = rotating_frame(net)
    assert np.allclose(out.omega, net.omega)


def test_rotating_frame_uniform_damping():
    g = random_connected_graph(1, n_min=3, n_max=3)
    net = OscillatorNetwork.first_order(g, [2.0, 0.0, 1.0])
    out = rotating_frame(net)
    assert np.allclose(out.omega, [1.0, -1.0, 0.0])


def test_rotating_frame_weighted_damping():
    net = OscillatorNetwork(
        graph=TWO_NODE, omega=np.array([3.0, 0.0]), second_order=frozenset(),
        M=np.ones(2), D=np.array([1.0, 2.0]),
    )
    out = rotating_frame(net)
    assert out.omega_sync == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(out.omega, [2.0, -2.0])


def test_network_validation():
    with pytest.raises(ValueError):
        OscillatorNetwork(graph=TWO_NODE, omega=np.zeros(2), second_order=frozenset(),
                          M=np.ones(2), D=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        OscillatorNetwork(graph=TWO_NODE, omega=np.zeros(2), second_order=frozenset({1}),
                          M=np.array([-1.0, 1.0]), D=np.ones(2))


def test_simulation_stays_at_equilibrium():
    net = OscillatorNetwork.first_order(TWO_NODE, [1.0, -1.0])
    theta_star = np.array([0.0, -math.asin(0.5)])
    traj = simulate(net, theta_star, t_end=2.0, step=1e-3)
    assert np.max(np.abs(traj.theta - theta_star)) <= 1e-9


def test_strong_coupling_synchronizes():
    net = OscillatorNetwork.first_order(TWO_NODE, [1.0, -1.0])
    traj = simulate(net, [0.0, 1.5], t_end=20.0, step=5e-3)
    det = detect_sync(traj, 1e-6, math.pi / 2, TWO_NODE)
    assert det.freq_synced and det.cohesive
    assert det.t_sync is not None


def test_weak_coupling_drifts():
    g = WeightedGraph.from_edges(2, [(1, 2, 0.4)])  # margin 2.5 > 1
    net = OscillatorNetwork.first_order(g, [1.0, -1.0])
    traj = simulate(net, [0.0, 0.0], t_end=20.0, step=5e-3)
    det = detect_sync(traj, 1e-6, math.pi / 2, g)
    assert not det.freq_synced
    assert det.t_sync is None


def test_first_and_second_order_share_equilibria():
    rng = substream(2, 0)
    g = random_connected_graph(9, n_min=4, n_max=6)
    omega = random_zero_mean(10, g.n)
    margin = sync_margin(g, omega).margin
    omega = omega * (0.15 / margin)  # strongly coupled regime
    theta0 = rng.uniform(-0.4, 0.4, g.n)

    first = OscillatorNetwork.first_order(g, omega)
    second = OscillatorNetwork(graph=g, omega=omega,
                               second_order=frozenset(range(1, g.n + 1)),
                               M=np.ones(g.n), D=np.ones(g.n))
    t1 = simulate(first, theta0, t_end=60.0, step=5e-3, steady_tol=1e-9)
    t2 = simulate(second, theta0, t_end=60.0, step=5e-3, steady_tol=1e-9)
    diff = wrap_angles(t1.final_theta - t2.final_theta)
    diff -= diff[0]
    assert np.max(np.abs(wrap_angles(diff))) <= 1e-4


def test_detect_sync_constant_trajectory():
    net = OscillatorNetwork.first_order(TWO_NODE, [1.0, -1.0])
    theta_star = np.array([0.0, -math.asin(0.5)])
    traj = simulate(net, theta_star, t_end=0.5, step=1e-2)
    det = detect_sync(traj, 1e-6, math.pi / 2, TWO_NODE)
    assert det.t_sync == 0.0


def test_energy_values():
    g = WeightedGraph.from_edges(2, [(1, 2, 3.0)])
    net = OscillatorNetwork.first_order(g, [0.0, 0.0])
    assert energy(net, [0.0, 0.0]) == 0.0
    assert quadratic_energy(net, [0.0, 0.0]) == 0.0
    theta = [0.0, -math.pi / 3]
    assert energy(net, theta) == pytest.approx(3.0 / 2.0, rel=1e-12)
    assert quadratic_energy(net, theta) == pytest.approx(3.0 * math.pi**2 / 18.0, rel=1e-12)


def test_energy_difference_is_fourth_order():
    g = random_connected_graph(33)
    net = OscillatorNetwork.first_order(g, np.zeros(g.n))
    direction = substream(33, 1).uniform(-1.0, 1.0, g.n)
    gaps = []
    for scale in (1e-2, 5e-3):
        theta = scale * direction
        gaps.append(abs(energy(net, theta) - quadratic_energy(net, theta)))
    # halving the amplitude divides the gap by ~16
    assert gaps[1] <= gaps[0] / 12.0


def test_energy_gradient_is_negative_right_hand_side():
    g = random_connected_graph(35)
    omega = random_zero_mean(36, g.n)
    net = OscillatorNetwork.first_order(g, omega)
    theta = substream(35, 2).uniform(-0.8, 0.8, g.n)
    step = 1e-6
    grad = np.zeros(g.n)
    for k in range(g.n):
        e = np.zeros(g.n)
        e[k] = step
        grad[k] = (energy(net, theta + e) - energy(net, theta - e)) / (2 * step)
    torque = -(fixed_point_residual(g, omega, theta))
    assert np.max(np.abs(grad + torque)) <= 1e-6


def test_energy_decreases_for_balanced_first_order():
    g = random_connected_graph(37)
    net = OscillatorNetwork.first_order(g, np.zeros(g.n))
    theta0 = substream(37, 3).uniform(-1.2, 1.2, g.n)
    traj = simulate(net, theta0, t_end=5.0, step=1e-3, record_stride=100)
    energies = [energy(net, th) for th in traj.theta]
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-10)


def test_conservative_energy_drift():
    # inertia 1, zero damping (raw integrator only): total energy conserved
    g = random_connected_graph(39, n_min=4, n_max=6)
    n = g.n
    rng = substream(39, 4)
    theta0 = rng.uniform(-1.0, 1.0, n)
    nu0 = rng.uniform(-0.5, 0.5, n)
    v1 = np.arange(n, dtype=np.intp)
    v2 = np.array([], dtype=np.intp)
    net = OscillatorNetwork.first_order(g, np.zeros(n))
    traj = rk4_integrate(g, np.zeros(n), v1, v2, np.ones(n), np.zeros(n),
                         theta0, nu0, t_end=10.0, step=1e-3, record_stride=1000)
    totals = [energy(net, th) + kinetic_energy(
        OscillatorNetwork(graph=g, omega=np.zeros(n),
                          second_order=frozenset(range(1, n + 1)),
                          M=np.ones(n), D=np.ones(n)), nu)
        for th, nu in zip(traj.theta, traj.theta_dot)]
    drift = abs(totals[-1] - totals[0]) / traj.times[-1]
    assert drift <= 1e-6


def test_step_halving_convergence_order():
    g = random_connected_graph(41, n_min=3, n_max=5)
    omega = random_zero_mean(42, g.n) * 0.5
    net = OscillatorNetwork.first_order(g, omega)
    theta0 = substream(41, 5).uniform(-0.5, 0.5, g.n)
    finals = {}
    for step in (4e-3, 2e-3, 1e-3):
        traj = simulate(net, theta0, t_end=2.0, step=step, record_stride=10**9)
        finals[step] = traj.final_theta
    err_coarse = np.max(np.abs(finals[4e-3] - finals[1e-3]))
    err_fine = np.max(np.abs(finals[2e-3] - finals[1e-3]))
    assert err_coarse <= 1e-6
    if err_fine > 1e-14:
        order = math.log2(err_coarse / err_fine) - 0.0
        assert order >= 3.5


def test_non_finite_state_detection():
    # damping/inertia ratio far beyond the RK4 stability limit: the linear
    # frequency dynamics amplify explosively and the state overflows
    g = WeightedGraph.from_edges(2, [(1, 2, 1.0)])
    net_args = (g, np.array([0.5, -0.5]), np.arange(2, dtype=np.intp),
                np.array([], dtype=np.intp), np.full(2, 1e-8), np.ones(2))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteStateError):
        rk4_integrate(*net_args, np.array([0.3, -0.3]), np.array([0.1, -0.1]),
                      t_end=1.0, step=1e-2)


def test_kcritical_two_node_exact():
    g = WeightedGraph.from_edges(2, [(1, 2, 1.0)])
    result = critical_coupling_search(g, [1.0, -1.0])
    assert isinstance(result, KCriticalResult)
    assert result.k_min == pytest.approx(1.0, rel=1e-3)
    assert result.ratio == pytest.approx(1.0, rel=1e-3)


def test_kcritical_zero_frequencies():
    g = WeightedGraph.from_edges(2, [(1, 2, 1.0)])
    result = critical_coupling_search(g, [0.0, 0.0])
    assert result.k_min == 0.0


def test_kcritical_monotone_sync_time():
    # nearer the threshold, settling takes longer
    g = WeightedGraph.from_edges(2, [(1, 2, 1.0)])
    omega = np.array([1.0, -1.0])
    times = []
    for k in (2.0, 1.2):
        net = OscillatorNetwork.first_order(g.scaled(k), omega)
        traj = simulate(net, [0.0, 0.0], t_end=40.0, step=5e-3)
        det = detect_sync(traj, 1e-6, math.pi / 2, g)
        assert det.t_sync is not None
        times.append(det.t_sync)
    assert times[1] > times[0]


@pytest.mark.parametrize("gamma", [-0.1, 2.0, math.nan])
def test_kcritical_rejects_gamma_out_of_range(gamma):
    with pytest.raises(GammaOutOfRangeError):
        critical_coupling_search(cycle_graph(4), [1.0, -0.5, 0.25, -0.75], gamma=gamma)


def test_kcritical_zero_gamma_is_decided_by_the_certificate(monkeypatch):
    # no flow of norm sin(1e-9) carries these frequencies up to K = 2^10 margin
    calls = count_calls(monkeypatch, equilibrium, "solve_equilibrium")
    with pytest.raises(NoSyncInBracketError):
        critical_coupling_search(cycle_graph(5), random_zero_mean(5, 5), gamma=0.0)
    assert calls == []


def _kcritical_cells():
    """(n, model, p, distribution) covering the criterion-11 grid's families."""
    cells = [(n, model, p, dist) for n in (10, 20) for model, p in (("erg", 0.2), ("smn", 0.1))
             for dist in ("bipolar", "uniform")]
    return cells + [(10, model, p, dist) for model, p in (("erg", 0.8), ("smn", 0.5))
                    for dist in ("bipolar", "uniform")]


def test_kcritical_visits_only_certified_gains_with_their_restarts(monkeypatch):
    # each K the search visits lies at or above the certified bound k_cert and
    # gets one Newton attempt with its own 5 restarts: none is drawn and thrown away
    visited, draws = [], []
    try_newton = dynamics._try_newton_cohesive

    def recorded_try(g, omega, gamma, seeds):
        visited.append(float(g.weights[0]))
        return try_newton(g, omega, gamma, seeds)

    class CountedStream:
        def __init__(self, rng):
            self.rng = rng

        def uniform(self, *args, **kwargs):
            draws.append(None)
            return self.rng.uniform(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_try_newton_cohesive", recorded_try)
    monkeypatch.setattr(dynamics, "substream", lambda *key: CountedStream(substream(*key)))
    for i, (n, model, p, dist) in enumerate(_kcritical_cells()):
        spec = randnet.NominalNetworkSpec(n=n, model=model, p=p, distribution=dist,
                                          weighted=False, seed=900 + i)
        g = randnet.generate_graph(spec)
        omega = randnet.sample_frequencies(n, dist, substream(900 + i, 0, 2))
        visited.clear()
        draws.clear()
        critical_coupling_search(g, omega, seed=900 + i)
        floor = min_infinity_norm_solution(g, omega - omega.mean()).norm
        k_cert = floor * (1.0 - 1e-6) - g.n * 1e-10  # sin(gamma) = 1
        assert visited and min(visited) >= k_cert, (n, model, p, dist)
        assert len(draws) == 5 * len(visited), (n, model, p, dist)


@pytest.mark.parametrize("seed", range(12))
def test_newton_finds_nothing_below_the_floor(seed):
    g = random_connected_graph(2000 + seed, weighted=False)
    omega = random_zero_mean(2000 + seed, g.n)
    rng = substream(2000 + seed, 1)
    floor = min_infinity_norm_solution(g, omega).norm
    gamma = math.pi / 2
    for u in rng.uniform(0.3, 0.999, 3):
        seeds = [None] + [rng.uniform(-gamma / 2, gamma / 2, g.n) for _ in range(5)]
        assert _try_newton_cohesive(g.scaled(floor * u), omega, gamma, seeds) is None


def test_kcritical_runs_no_simulation(monkeypatch):
    calls = count_calls(monkeypatch, dynamics, "rk4_integrate")
    g = random_connected_graph(2100, n_min=8, weighted=False)
    result = critical_coupling_search(g, random_zero_mean(2100, g.n))
    assert result.theta is not None
    assert calls == []


def test_rk4_step_count_rounds_t_end_to_whole_steps():
    net = OscillatorNetwork.first_order(TWO_NODE, [1.0, -1.0])
    assert simulate(net, [0.0, 0.0], t_end=0.001, step=0.01).times.tolist() == [0.0, 0.01]
    assert simulate(net, [0.0, 0.0], t_end=0.015, step=0.01).times[-1] == 0.02


def test_trajectory_csv_compatible_shapes():
    net = OscillatorNetwork.first_order(TWO_NODE, [1.0, -1.0])
    traj = simulate(net, [0.0, 0.0], t_end=0.1, step=1e-2)
    assert traj.theta.shape == (len(traj.times), 2)
    assert traj.theta_dot.shape == (len(traj.times), 2)
    assert traj.integrator["method"] == "rk4"
    assert np.all(np.diff(traj.times) > 0)


def _rk4_reference(g, omega, v1, v2, m1, damping, theta0, nu0, t_end, step,
                   record_stride=1, steady_tol=None, steady_window=1.0):
    """The five-evaluation RK4 loop that rk4_integrate must reproduce bit for bit."""
    n = g.n
    d2 = damping[v2]

    def rhs(y):
        theta = y[:n]
        nu = y[n:]
        torque = omega - divergence(g, np.sin(edge_differences(g, theta)))
        dtheta = np.empty(n)
        if len(v2):
            dtheta[v2] = torque[v2] / d2
        dtheta[v1] = nu
        dnu = (torque[v1] - damping[v1] * nu) / m1
        return np.concatenate([dtheta, dnu])

    n_steps = max(1, int(round(t_end / step)))
    y = np.concatenate([np.asarray(theta0, dtype=float), np.asarray(nu0, dtype=float)])
    times, thetas, dots = [0.0], [y[:n].copy()], [rhs(y)[:n]]
    window_steps = max(1, int(round(steady_window / step)))
    window_max, in_window = 0.0, 0
    for k in range(1, n_steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * step * k1)
        k3 = rhs(y + 0.5 * step * k2)
        k4 = rhs(y + step * k3)
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        record = (k % record_stride == 0) or (k == n_steps)
        dot = rhs(y)[:n] if record or steady_tol is not None else None
        if record:
            times.append(k * step)
            thetas.append(y[:n].copy())
            dots.append(dot)
        if steady_tol is not None:
            window_max = max(window_max, float(np.max(np.abs(dot))))
            in_window += 1
            if in_window >= window_steps:
                if window_max <= steady_tol:
                    if not record:
                        times.append(k * step)
                        thetas.append(y[:n].copy())
                        dots.append(dot)
                    break
                window_max, in_window = 0.0, 0
    return np.array(times), np.array(thetas), np.array(dots)


def _tiled_ring(copies: int) -> WeightedGraph:
    """copies of a 5-node graph with a chord, each tied to the next copy."""
    edges = []
    for c in range(copies):
        o, nxt = 5 * c, 5 * ((c + 1) % copies)
        edges += [(o + 1, o + 2, 2.0), (o + 2, o + 3, 1.5), (o + 3, o + 4, 2.5),
                  (o + 4, o + 5, 1.0), (o + 1, o + 5, 3.0), (o + 2, o + 4, 0.7)]
        edges.append((o + 3, nxt + 1, 0.5))
    return WeightedGraph.from_edges(5 * copies, edges)


def _rk4_cases():
    """(graph, omega, v1, damping, m1, theta0, nu0) over the integrator's branches."""
    cases = []
    for seed in range(6):
        g = random_connected_graph(60 + seed, n_min=3, n_max=9)
        rng = substream(60 + seed, 1)
        v1 = np.flatnonzero(rng.random(g.n) < [0.0, 0.5, 1.0][seed % 3])
        damping = rng.uniform(0.2, 2.0, g.n)
        if seed == 4:
            damping[v1] = 0.0  # conservative v1 nodes: never divided by
        cases.append((g, random_zero_mean(seed, g.n, 3.0), v1, damping,
                      rng.uniform(0.5, 2.0, len(v1)), rng.uniform(-1.0, 1.0, g.n),
                      rng.uniform(-0.5, 0.5, len(v1))))
    empty = WeightedGraph.from_edges(3, [])
    cases.append((empty, np.array([0.3, -0.1, 0.2]), np.array([1]), np.array([1.0, 0.5, 2.0]),
                  np.array([1.5]), np.array([0.1, 0.2, 0.3]), np.array([0.4])))
    tiled = _tiled_ring(44)
    rng = substream(77, 1)
    cases.append((tiled, random_zero_mean(77, tiled.n), np.array([], dtype=np.intp),
                  rng.uniform(0.5, 1.5, tiled.n), np.array([]),
                  rng.uniform(-0.3, 0.3, tiled.n), np.array([])))
    return cases


@pytest.mark.parametrize("case", _rk4_cases())
def test_rk4_matches_reference_integrator(case):
    g, omega, v1, damping, m1, theta0, nu0 = case
    v1 = np.asarray(v1, dtype=np.intp)
    v2 = np.setdiff1d(np.arange(g.n), v1).astype(np.intp)
    # stride 11 with a steady stop between recorded samples (first random case)
    for stride, steady_tol, t_end in ((1, None, 0.3), (7, None, 0.5), (10**9, None, 0.5),
                                      (11, 1e-3, 40.0), (10**9, 1e-300, 0.3)):
        args = (g, omega, v1, v2, m1, damping, theta0, nu0, t_end, 0.01)
        kwargs = dict(record_stride=stride, steady_tol=steady_tol, steady_window=0.5)
        got = rk4_integrate(*args, **kwargs)
        times, theta, theta_dot = _rk4_reference(*args, **kwargs)
        assert np.array_equal(got.times, times), (case, stride, steady_tol)
        assert np.array_equal(got.theta, theta), (case, stride, steady_tol)
        assert np.array_equal(got.theta_dot, theta_dot), (case, stride, steady_tol)


def test_rk4_steady_run_reuses_recorded_derivative(monkeypatch):
    # per step k2, k3, k4 and the steadiness check, whose derivative is the next k1
    calls = count_calls(monkeypatch, graph, "_sine_coupling")
    g = random_connected_graph(71)
    v1 = np.array([0], dtype=np.intp)
    v2 = np.arange(1, g.n, dtype=np.intp)
    traj = rk4_integrate(g, random_zero_mean(71, g.n), v1, v2, np.ones(1), np.ones(g.n),
                         np.zeros(g.n), np.zeros(1), t_end=0.5, step=0.01,
                         record_stride=10**9, steady_tol=1e-300)
    steps = round(traj.times[-1] / 0.01)
    assert steps == 50
    assert len(calls) == 4 * steps + 1


@pytest.mark.parametrize("bad", [{"step": 0.0}, {"step": -0.01}, {"step": math.nan},
                                 {"step": math.inf}, {"t_end": -1.0}, {"t_end": 0.0},
                                 {"t_end": math.nan}, {"t_end": math.inf},
                                 {"record_stride": 0}, {"record_stride": 2.5}])
def test_step_contract(bad):
    name = next(iter(bad))
    kwargs = {"t_end": 1.0, "step": 0.01, "record_stride": 1, **bad}
    net = OscillatorNetwork.first_order(TWO_NODE, [1.0, -1.0])
    with pytest.raises(InvalidSpecError, match=name):
        simulate(net, [0.0, 0.0], **kwargs)
    with pytest.raises(InvalidSpecError, match=name):
        rk4_integrate(TWO_NODE, net.omega, np.array([], dtype=np.intp), np.arange(2),
                      np.array([]), np.ones(2), np.zeros(2), np.array([]), **kwargs)


@pytest.mark.parametrize("bad", ["theta0", "theta_dot0"])
def test_simulate_rejects_non_finite_state(bad):
    net = OscillatorNetwork(graph=TWO_NODE, omega=np.array([1.0, -1.0]),
                            second_order=frozenset({2}), M=np.ones(2), D=np.ones(2))
    args = {"theta0": np.zeros(2), "theta_dot0": np.zeros(1)}
    args[bad][-1] = math.nan if bad == "theta0" else math.inf
    with pytest.raises(NonFiniteInputError, match=bad):
        simulate(net, t_end=0.1, step=0.01, **args)


@pytest.mark.parametrize("bad", ["omega", "M", "D"])
def test_network_rejects_non_finite_parameters(bad):
    args = {"omega": np.zeros(2), "M": np.ones(2), "D": np.ones(2)}
    args[bad][1] = math.nan
    with pytest.raises(NonFiniteInputError, match=bad):
        OscillatorNetwork(graph=TWO_NODE, second_order=frozenset({2}), **args)


def test_node_index_arrays_are_cached():
    g = random_connected_graph(73, n_min=6, n_max=6)
    net = OscillatorNetwork(graph=g, omega=np.zeros(6), second_order=frozenset({2, 5}),
                            M=np.ones(6), D=np.ones(6))
    assert net.v1_indices.tolist() == [1, 4]
    assert net.v2_indices.tolist() == [0, 2, 3, 5]
    assert net.v2_indices is net.v2_indices and net.v1_indices is net.v1_indices

"""The four benchmark workloads: inputs from the seed, one item, output checks.

Each workload is a closed loop of items run in one process.  The library
only sees generated inputs; the benchmark seed never reaches it directly.
Items call the library through module attributes (``experiments.x``, not
``from experiments import x``) so that the tracer's wrappers see them.

An item's ``check`` runs outside the timed region and returns the list of
problems found; ``summary`` gives the values compared with reference.json.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from syncgrid import dynamics, equilibrium, experiments, graph, powerflow, randnet, sync
from syncgrid.rng import substream

import oracle

# Seed whose items are the recorded reference items (one per set-up round).
REFERENCE_SEED = 0


def item_seed(seed: int, index: int) -> int:
    """Per-item library seed, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: callable        # () -> state shared by every item of a run
    make_input: callable     # (state, seed, index) -> item input
    run: callable            # (state, input) -> output; the timed part
    check: callable          # (state, input, output, captured) -> [problems]
    summary: callable        # (input, output, captured) -> {name: value}
    reference_items: tuple   # item indices of REFERENCE_SEED used as warm-up
    cells: int = 1           # item i belongs to cell i % cells
    pool: int = 64           # inputs generated during set-up
    taps: tuple = ()         # (module, attribute) whose results checks read


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# --- montecarlo: criterion-08 hypothesis samples -------------------------

MC_CELLS = ((10, "erg", 0.3, 8.0), (20, "erg", 0.3, 15.0), (30, "smn", 0.2, 13.0))


def _mc_input(state, seed, index):
    n, model, p, alpha = MC_CELLS[index % len(MC_CELLS)]
    return randnet.NominalNetworkSpec(n=n, model=model, p=p, alpha=alpha, weighted=True,
                                      seed=item_seed(seed, index))


def _mc_run(state, spec):
    return experiments.hypothesis_experiment(spec, 1)


def _mc_check(state, spec, result, captured):
    problems = []
    nominals = captured["nominal_network"]
    _expect(problems, len(nominals) == 1, f"{len(nominals)} nominal networks drawn")
    if not nominals:
        return problems
    nom = nominals[0]
    net = oracle.graph_net(nom.graph)
    _expect(problems, oracle.close(nom.margin, oracle.margin(net, nom.omega), 1e-9),
            "nominal margin differs from the oracle")
    _expect(problems, nom.margin < 1.0, f"nominal margin {nom.margin} >= 1")
    last = captured["sync_margin"][-1]
    _expect(problems, last.margin == nom.margin, "accepted draw is not the last margin solve")
    _expect(problems, oracle.flow_defect(net, nom.omega, last.psi_particular) <= 1e-9,
            "particular flow violates B diag(a) psi = omega")
    gamma = math.asin(nom.margin)
    cohesive = False
    for sol in captured["solve_equilibrium"]:
        _expect(problems, oracle.flow_balance_residual(net, nom.omega, sol.theta)
                <= experiments.SOLVE_TOLERANCE + 1e-12, "returned theta violates flow balance")
        cohesive |= oracle.cohesiveness(net, sol.theta) <= gamma + experiments.COHESIVENESS_ACCURACY
    _expect(problems, (result.failures == 0) == cohesive,
            f"verdict {result.failures} failures disagrees with the returned solutions")
    return problems


def _mc_summary(spec, result, captured):
    nom = captured["nominal_network"][0]
    return {"margin": nom.margin, "attempts": nom.attempts, "failures": result.failures}


MONTECARLO = Workload(
    "montecarlo", lambda: None, _mc_input, _mc_run, _mc_check, _mc_summary,
    reference_items=(0, 1, 2), cells=len(MC_CELLS), pool=0,
    taps=((experiments, "nominal_network"), (experiments, "solve_equilibrium"),
          (randnet, "sync_margin")),
)


# --- kcritical: criterion-11 critical coupling searches -----------------

KC_CELLS = tuple(
    (n, model, p, dist)
    for n in (10, 20)
    for model, sparse, dense in (("erg", 0.2, 0.8), ("smn", 0.1, 0.5))
    for dist in ("bipolar", "uniform")
    for p in (sparse, dense)
)


@dataclass(frozen=True, eq=False)
class KcInput:
    graph: object
    omega: np.ndarray
    seed: int


def _kc_input(state, seed, index):
    """Graph and frequencies drawn as accuracy_experiment draws its sample 0."""
    n, model, p, dist = KC_CELLS[index % len(KC_CELLS)]
    s = item_seed(seed, index)
    spec = randnet.NominalNetworkSpec(n=n, model=model, p=p, distribution=dist,
                                      weighted=False, seed=s)
    g = randnet.generate_graph(spec, sample=0)
    return KcInput(g, randnet.sample_frequencies(n, dist, substream(s, 0, 2)), s)


def _kc_run(state, inp):
    return dynamics.critical_coupling_search(inp.graph, inp.omega, seed=inp.seed)


def _kc_check(state, inp, result, captured):
    problems = []
    net = oracle.graph_net(inp.graph)
    _expect(problems, oracle.close(result.margin_normalizer, oracle.margin(net, inp.omega), 1e-9),
            "margin normalizer differs from the oracle")
    _expect(problems, result.k_min > 0 and result.theta is not None, "no critical coupling")
    if result.theta is None:
        return problems
    _expect(problems, oracle.close(result.ratio, result.k_min / result.margin_normalizer, 1e-12),
            "ratio is not k_min / normalizer")
    _expect(problems, oracle.flow_balance_residual(net, inp.omega, result.theta, result.k_min)
            <= 1e-8, "theta violates flow balance at k_min")
    _expect(problems, oracle.cohesiveness(net, result.theta) <= math.pi / 2 + 1e-9,
            "theta is not cohesive within pi/2")
    return problems


def _kc_summary(inp, result, captured):
    return {"k_min": result.k_min, "margin_normalizer": result.margin_normalizer}


KCRITICAL = Workload(
    "kcritical", lambda: None, _kc_input, _kc_run, _kc_check, _kc_summary,
    reference_items=(3, 5, 7), cells=len(KC_CELLS), pool=32,
)


# --- rts96: forecast scenarios on the bundled 73-bus case -----------------

RTS_SIGMA = 0.3
RTS_TRIPPED_GEN = 323
RTS_TRIP = [f"gen:{RTS_TRIPPED_GEN}"]
RTS_RAMP = powerflow.RampSpec(load_area=3, gen_areas=(1, 2))   # the CLI's "southeast"
RTS_LOADINGS = np.linspace(0.0, 2.0, 11)


@dataclass(frozen=True, eq=False)
class RtsOutput:
    scenario: object
    margin: object
    min_norm: object
    ac: object
    scan: object


def _rts_model(case):
    return oracle.case_model(case, powerflow.GENERATOR_DAMPING, powerflow.LOAD_DAMPING)


def _rts_run(case, inp):
    cfg, sample = inp
    scenario = powerflow.randomize_scenario(case, cfg, sample=sample)
    net = powerflow.build_oscillator_model(scenario)
    return RtsOutput(
        scenario,
        sync.sync_margin(net.graph, net.omega),
        sync.min_infinity_norm_solution(net.graph, net.omega),
        powerflow.ac_power_flow(scenario),
        powerflow.contingency_scan(scenario, RTS_TRIP, RTS_RAMP, loadings=RTS_LOADINGS),
    )


def _rts_check(case, inp, out, captured):
    problems = []
    net, omega = _rts_model(out.scenario)
    _expect(problems, len(out.margin.psi_particular) == len(net.w), "edge count differs")
    if problems:
        return problems
    ref_margin = oracle.margin(net, omega)
    _expect(problems, oracle.close(out.margin.margin, ref_margin, 1e-9),
            "margin differs from the oracle")
    _expect(problems, oracle.flow_defect(net, omega, out.margin.psi_particular) <= 1e-9,
            "particular flow violates B diag(a) psi = omega")
    _expect(problems, oracle.flow_defect(net, omega, out.min_norm.psi_star) <= 1e-7,
            "min-norm flow violates B diag(a) psi = omega")
    _expect(problems, out.min_norm.norm <= out.margin.margin + 1e-9, "min-norm exceeds the margin")
    ac = out.ac
    _expect(problems, isinstance(ac, equilibrium.EquilibriumSolution), f"AC flow failed: {ac}")
    if isinstance(ac, equilibrium.EquilibriumSolution):
        _expect(problems, ac.stable, "AC equilibrium reported unstable")
        _expect(problems, oracle.flow_balance_residual(net, omega, ac.theta) <= 1e-8,
                "AC theta violates flow balance")
        _expect(problems, oracle.cohesiveness(net, ac.theta) <= math.pi / 2,
                "AC theta is not cohesive within pi/2")
    buses = tuple(replace(b, pg_mw=0.0, kind="load") if b.id == RTS_TRIPPED_GEN else b
                  for b in out.scenario.buses)
    tripped_net, tripped_omega = _rts_model(replace(out.scenario, buses=buses))
    margins = out.scan.margins
    _expect(problems, len(margins) == len(RTS_LOADINGS) and bool(np.all(np.isfinite(margins))),
            "contingency margins missing")
    _expect(problems, oracle.close(margins[0], oracle.margin(tripped_net, tripped_omega), 1e-9),
            "contingency margin at zero loading differs from the oracle")
    return problems


def _rts_summary(inp, out, captured):
    return {
        "margin": out.margin.margin,
        "min_norm": out.min_norm.norm,
        "ac_cohesiveness": out.ac.cohesiveness,
        "scan_margins": [float(m) for m in out.scan.margins],
        "margin_one_loading": out.scan.margin_one_loading,
        "predicted_limit_loading": out.scan.predicted_limit_loading,
    }


RTS96 = Workload(
    "rts96", lambda: powerflow.bundled_case("rts96"),
    lambda case, seed, index: (powerflow.ScenarioConfig(sigma=RTS_SIGMA, seed=seed), index),
    _rts_run, _rts_check, _rts_summary,
    reference_items=(0, 1, 2), pool=0,
)


# --- large_grid: 14 tiled rts96 areas, n = 1022 ----------------------------

LG_COPIES = 14
# Tie lines from copy k to copy k+1 (mod LG_COPIES), as 0-based node pairs
# inside one copy: area 3 -> area 1, area 2 -> area 2, area 3 -> area 3.
LG_TIES = ((60, 10), (40, 30), (70, 55))
LG_TIE_WEIGHT = 10.0
LG_SCALE = (0.3, 0.7)     # per-node injection scale: margins near 0.3
LG_RK4_STEPS = 200


@dataclass(frozen=True, eq=False)
class GridState:
    graph: object
    net: oracle.Net
    base_omega: np.ndarray
    step: float


def _lg_prepare():
    case_net, omega = _rts_model(powerflow.bundled_case("rts96"))
    n0 = case_net.n
    edges = []
    for k in range(LG_COPIES):
        off, nxt = k * n0, ((k + 1) % LG_COPIES) * n0
        edges += [(off + i + 1, off + j + 1, w)
                  for i, j, w in zip(case_net.src, case_net.dst, case_net.w)]
        edges += [(off + i + 1, nxt + j + 1, LG_TIE_WEIGHT) for i, j in LG_TIES]
    g = graph.WeightedGraph.from_edges(LG_COPIES * n0, edges)
    net = oracle.graph_net(g)
    degree = np.bincount(net.src, net.w, net.n) + np.bincount(net.dst, net.w, net.n)
    return GridState(g, net, np.tile(omega, LG_COPIES), 1.0 / float(np.max(degree)))


def _lg_input(state, seed, index):
    rng = np.random.default_rng([seed, index])
    omega = state.base_omega * rng.uniform(*LG_SCALE, size=state.net.n)
    return omega - omega.mean()


def _lg_run(state, omega):
    g = state.graph
    margin = sync.sync_margin(g, omega)
    sol = equilibrium.solve_equilibrium(g, omega)
    none = np.array([], dtype=np.intp)
    traj = dynamics.rk4_integrate(
        g, omega, none, np.arange(g.n), np.array([]), np.ones(g.n), sol.theta, np.array([]),
        t_end=LG_RK4_STEPS * state.step, step=state.step, record_stride=10 ** 9,
    )
    return margin, sol, traj


def _lg_check(state, omega, out, captured):
    margin, sol, traj = out
    net = state.net
    problems = []
    _expect(problems, oracle.close(margin.margin, oracle.margin(net, omega), 1e-9),
            "margin differs from the oracle")
    _expect(problems, margin.margin < 0.5, f"margin {margin.margin} is not well below 1")
    _expect(problems, oracle.flow_defect(net, omega, margin.psi_particular) <= 1e-9,
            "particular flow violates B diag(a) psi = omega")
    _expect(problems, sol.stable, "equilibrium reported unstable")
    _expect(problems, oracle.flow_balance_residual(net, omega, sol.theta) <= 1e-8,
            "theta violates flow balance")
    coh = oracle.cohesiveness(net, sol.theta)
    _expect(problems, coh <= math.pi / 2 and oracle.close(coh, sol.cohesiveness, 1e-12),
            "cohesiveness wrong or beyond pi/2")
    steps = round(traj.times[-1] / state.step)
    _expect(problems, steps == LG_RK4_STEPS, f"RK4 burst ran {steps} steps")
    _expect(problems, float(np.max(np.abs(traj.final_theta - sol.theta))) <= 1e-6,
            "RK4 burst drifted away from the equilibrium")
    return problems


def _lg_summary(omega, out, captured):
    margin, sol, _ = out
    return {"margin": margin.margin, "cohesiveness": sol.cohesiveness}


LARGE_GRID = Workload(
    "large_grid", _lg_prepare, _lg_input, _lg_run, _lg_check, _lg_summary,
    reference_items=(0, 1, 2), pool=32,
)


WORKLOADS = {w.name: w for w in (MONTECARLO, KCRITICAL, RTS96, LARGE_GRID)}

# Reference comparison: value -> relative tolerance (0 means exact).  k_min
# may move within the search's rel_tol, since the bisection may change.
REFERENCE_RTOL = {
    "margin": 1e-9, "attempts": 0, "failures": 0,
    "k_min": 1e-3, "margin_normalizer": 1e-9,
    "min_norm": 1e-6, "ac_cohesiveness": 1e-8, "scan_margins": 1e-9,
    "margin_one_loading": 1e-5, "predicted_limit_loading": 1e-5,
    "cohesiveness": 1e-6,
}


def compare_reference(summary: dict, reference: dict) -> list[str]:
    problems = []
    for key, ref in reference.items():
        got = summary[key]
        if ref is None or got is None:
            ok = ref is got
        else:
            got_a, ref_a = np.atleast_1d(got), np.atleast_1d(ref)
            ok = got_a.shape == ref_a.shape and all(
                oracle.close(float(a), float(b), REFERENCE_RTOL[key]) for a, b in zip(got_a, ref_a))
        _expect(problems, ok, f"{key} = {got} differs from reference {ref}")
    return problems

"""Command-line interface.

Subcommands map one-to-one onto the library: analyze / solve for static
assessment, simulate / kcritical for dynamics, gen for random networks,
powerflow / scenario / contingency for power cases, montecarlo / accuracy
for the statistical studies.  All emitted files use deterministic
formatting (sorted keys, %.12g floats).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import dynamics, experiments, powerflow, randnet, sync
from .equilibrium import EquilibriumSolution, solve_equilibrium
from .errors import InvalidSpecError, ParseError, SyncgridError
from .graph import load_graph, parse_json, solve_poisson
from .randnet import NominalNetworkSpec


def _load_omega(path: str) -> np.ndarray:
    """One value per line (the first comma-separated field); blank lines are
    skipped, a non-numeric first line is a header, and any other line that is
    not a number is a ParseError naming it."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                values.append(float(line.split(",")[0]))
            except ValueError:
                if lineno > 1:
                    raise ParseError(f"{path} line {lineno}: not a number: {line!r}") from None
    return np.array(values)


def _write_json(payload: dict, path: str | None) -> None:
    if path is None:
        json.dump(payload, sys.stdout, indent=1, sort_keys=True, default=float)
        sys.stdout.write("\n")
    else:
        experiments.write_report_json(payload, path)


# --- handlers ---

def _cmd_analyze(args) -> int:
    g = load_graph(args.graph)
    omega = _load_omega(args.omega)
    assessment = sync.sync_margin(g, omega)
    gamma = args.gamma if args.gamma is not None else (
        assessment.gamma_pred if assessment.gamma_pred is not None else math.pi / 2
    )
    check = sync.necessary_conditions(g, assessment.omega, gamma)
    payload = {
        "margin": assessment.margin,
        "min_norm": sync.min_infinity_norm_solution(g, omega).norm,
        "gamma_pred": assessment.gamma_pred if assessment.gamma_pred is not None else "infeasible",
        "gamma": gamma,
        "condition_holds": assessment.condition_holds(gamma),
        "psi": [[i, j, float(p)] for (i, j, _), p in zip(g.edges, assessment.psi_particular)],
        "necessary_absolute_ok": check.absolute_ok,
        "necessary_incremental_ok": check.incremental_ok,
        "violating_nodes": list(check.violating_nodes),
        "violating_edges": [list(e) for e in check.violating_edges],
    }
    _write_json(payload, args.out)
    return 0


def _solution_payload(sol: EquilibriumSolution) -> dict:
    return {
        "theta": [float(t) for t in sol.theta],
        "cohesiveness": sol.cohesiveness,
        "stable": sol.stable,
        "residual": sol.residual,
        "iterations": sol.iterations,
    }


def _cmd_solve(args) -> int:
    g = load_graph(args.graph)
    omega = _load_omega(args.omega)
    theta0 = _load_omega(args.theta0) if args.theta0 else None
    sol = solve_equilibrium(g, omega, theta0=theta0)
    _write_json(_solution_payload(sol), args.out)
    return 0


def _cmd_simulate(args) -> int:
    with open(args.net, "r", encoding="utf-8") as fh:
        net = dynamics.network_from_dict(parse_json(fh.read(), args.net))
    theta0 = _load_omega(args.theta0) if args.theta0 else np.zeros(net.graph.n)
    traj = dynamics.simulate(net, theta0, t_end=args.t_end, step=args.step,
                             record_stride=args.record_stride)
    n = net.graph.n
    header = (["t"] + [f"theta_{k}" for k in range(1, n + 1)]
              + [f"thetadot_{k}" for k in range(1, n + 1)])
    rows = [
        [t] + list(th) + list(td)
        for t, th, td in zip(traj.times, traj.theta, traj.theta_dot)
    ]
    experiments.write_rows_csv(header, rows, args.out)
    return 0


def _cmd_kcritical(args) -> int:
    g = load_graph(args.graph)
    omega = _load_omega(args.omega)
    result = dynamics.critical_coupling_search(g, omega, seed=args.seed)
    payload = {
        "k_min": result.k_min,
        "margin_normalizer": result.margin_normalizer,
        "ratio": result.ratio,
    }
    _write_json(payload, args.out)
    return 0


def _cmd_gen(args) -> int:
    spec = NominalNetworkSpec(
        n=args.n, model=args.model, p=args.p,
        alpha=args.alpha,
        distribution="width" if args.alpha is not None else args.dist,
        weighted=not args.unit_weights,
        seed=args.seed,
    )
    nominal = randnet.nominal_network(spec, sample=args.sample)
    net = dynamics.OscillatorNetwork.first_order(nominal.graph, nominal.omega)
    payload = dynamics.network_to_dict(net)
    payload["margin"] = nominal.margin
    _write_json(payload, args.out)
    return 0


def _cmd_powerflow(args) -> int:
    case = powerflow.load_case(args.case)
    if args.mode == "dc":
        dc = powerflow.dc_power_flow(case)
        payload = {
            "mode": "dc",
            "delta": [float(d) for d in dc.delta],
            "max_angle_diff": dc.max_angle_diff,
        }
    else:
        sol = powerflow.ac_power_flow(case)
        if isinstance(sol, sync.Infeasible):
            payload = {"mode": "ac", "feasible": False,
                       "margin": sol.margin, "reason": sol.reason}
        else:
            payload = {"mode": "ac", "feasible": True, **_solution_payload(sol)}
    _write_json(payload, args.out)
    return 0


def _cmd_scenario(args) -> int:
    case = powerflow.load_case(args.case)
    cfg = powerflow.ScenarioConfig(sigma=args.sigma, seed=args.seed)
    header = ["sample", "margin", "gamma_pred", "cohesiveness", "accuracy", "correct"]
    rows = []
    for k in range(args.samples):
        margin, gamma_pred, cohesiveness = powerflow.scenario_sample(case, cfg, sample=k)
        if cohesiveness is None:
            rows.append([k, margin, math.nan, math.nan, math.nan, False])
            continue
        rows.append([k, margin, gamma_pred, cohesiveness, cohesiveness - gamma_pred,
                     bool(cohesiveness <= gamma_pred + 1e-4)])
    experiments.write_rows_csv(header, rows, args.out)
    return 0


_RAMP_PRESETS = {
    "southeast": powerflow.RampSpec(load_area=3, gen_areas=(1, 2)),
}


def _parse_ramp(text: str) -> powerflow.RampSpec:
    if text in _RAMP_PRESETS:
        return _RAMP_PRESETS[text]
    if not re.fullmatch(r"\d+:\d+(,\d+)*", text):
        raise InvalidSpecError(f"ramp {text!r} is not a preset or LOADAREA:GENAREA[,GENAREA...]")
    load_area, *gen_areas = (int(a) for a in re.split("[:,]", text))
    return powerflow.RampSpec(load_area=load_area, gen_areas=tuple(gen_areas))


def _dynamic_cross_check(case, trips, ramp, limit_loading: float | None) -> dict | None:
    """RK4 run of the tripped network 0.02 below the predicted thermal limit.

    Integrates 30 s from the linear angles and reports whether the
    frequencies synchronize (spread <= 1e-4 with pi/2-cohesive phases);
    None when the scan reaches no thermal limit.
    """
    if limit_loading is None:
        return None
    loading = max(0.0, limit_loading - 0.02)
    tripped = powerflow.apply_trips(case, trips)
    net = powerflow.build_oscillator_model(powerflow.apply_ramp(tripped, ramp, loading))
    traj = dynamics.simulate(net, solve_poisson(net.graph, net.omega), t_end=30.0,
                             step=dynamics.suggest_step(net), record_stride=100)
    synced = dynamics.detect_sync(traj, 1e-4, math.pi / 2, net.graph).freq_synced
    return {"loading": loading, "synchronized": bool(synced)}


def _cmd_contingency(args) -> int:
    case = powerflow.load_case(args.case)
    ramp = _parse_ramp(args.ramp)
    loadings = np.linspace(0.0, args.max_loading, args.points)
    scan = powerflow.contingency_scan(case, args.trip, ramp, loadings=loadings)
    header = ["loading", "margin", "line_utilization"]
    rows = [[s, m, u] for s, m, u in zip(scan.loadings, scan.margins, scan.line_utilization)]
    experiments.write_rows_csv(header, rows, args.out)
    summary = {
        "predicted_limit_loading": scan.predicted_limit_loading,
        "margin_one_loading": scan.margin_one_loading,
        "binding_line": list(scan.binding_line) if scan.binding_line else None,
    }
    if args.dynamic:
        summary["dynamic_cross_check"] = _dynamic_cross_check(
            case, args.trip, ramp, scan.predicted_limit_loading)
    _write_json(summary, None)
    return 0


def _cmd_montecarlo(args) -> int:
    with open(args.cells, "r", encoding="utf-8") as fh:
        cell_dicts = parse_json(fh.read(), args.cells)
    header = ["n", "model", "p", "alpha", "seed", "samples", "failures",
              "empirical_probability", "chernoff_epsilon_at_eta_0.01"]
    rows = []
    for cell in cell_dicts:
        spec = NominalNetworkSpec(
            n=int(cell["n"]), model=cell["model"], p=float(cell["p"]),
            alpha=float(cell["alpha"]), distribution="width", weighted=True,
            seed=args.seed,
        )
        result = experiments.hypothesis_experiment(spec, args.samples)
        rows.append([spec.n, spec.model, spec.p, spec.alpha, spec.seed,
                     result.samples, result.failures,
                     result.empirical_probability,
                     result.chernoff_accuracy_at_1pct])
    experiments.write_rows_csv(header, rows, args.out)
    return 0


def _cmd_accuracy(args) -> int:
    models = args.models.split(",")
    dists = args.dists.split(",")
    sizes = [int(s) for s in args.sizes.split(",")]
    ps = [float(p) for p in args.ps.split(",")]
    header = ["model", "distribution", "n", "p", "seed", "samples", "mean_ratio"]
    rows = []
    for model in models:
        for dist in dists:
            for n in sizes:
                for p in ps:
                    result = experiments.accuracy_experiment(
                        n, model, p, dist, args.samples, seed=args.seed)
                    rows.append([model, dist, n, p, args.seed,
                                 len(result.ratios), result.mean_ratio])
    experiments.write_rows_csv(header, rows, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncgrid",
        description="Synchronization analysis of coupled oscillator networks and power grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="evaluate the synchronization condition")
    p.add_argument("--graph", required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("solve", help="Newton equilibrium solve")
    p.add_argument("--graph", required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--theta0", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", help="fixed-step RK4 time simulation")
    p.add_argument("--net", required=True)
    p.add_argument("--theta0", default=None)
    p.add_argument("--t-end", dest="t_end", type=float, default=dynamics.DEFAULT_T_END)
    p.add_argument("--step", type=float, default=dynamics.DEFAULT_STEP)
    p.add_argument("--record-stride", dest="record_stride", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("kcritical", help="critical coupling gain search")
    p.add_argument("--graph", required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_kcritical)

    p = sub.add_parser("gen", help="sample a nominal random network")
    p.add_argument("--model", choices=("erg", "rgg", "smn"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--dist", choices=("uniform", "bipolar"), default="uniform")
    p.add_argument("--unit-weights", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("powerflow", help="DC or AC power flow on a case")
    p.add_argument("--case", required=True)
    p.add_argument("--mode", choices=("dc", "ac"), default="dc")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_powerflow)

    p = sub.add_parser("scenario", help="randomized smart-grid scenario study")
    p.add_argument("--case", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--sigma", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("contingency", help="trip contingencies and sweep loading")
    p.add_argument("--case", required=True)
    p.add_argument("--trip", action="append", default=[])
    p.add_argument("--ramp", required=True,
                   help="'southeast' or 'LOADAREA:GENAREA[,GENAREA...]'")
    p.add_argument("--max-loading", dest="max_loading", type=float, default=2.0)
    p.add_argument("--points", type=int, default=41)
    p.add_argument("--dynamic", action="store_true",
                   help="add an RK4 cross-check just below the predicted thermal limit")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_contingency)

    p = sub.add_parser("montecarlo", help="hypothesis experiment over parameter cells")
    p.add_argument("--cells", required=True, help="JSON list of {n, model, p, alpha}")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("accuracy", help="critical coupling accuracy study")
    p.add_argument("--models", default="erg,smn")
    p.add_argument("--dists", default="bipolar,uniform")
    p.add_argument("--sizes", default="10,20")
    p.add_argument("--ps", default="0.2,0.8")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_accuracy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SyncgridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

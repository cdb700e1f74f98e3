"""Case ingestion, oscillator mapping, DC/AC flow, scenarios, contingencies."""

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import count_calls
from syncgrid import powerflow
from syncgrid.dynamics import OscillatorNetwork
from syncgrid.equilibrium import EquilibriumSolution
from syncgrid.errors import (
    DisconnectedGraphError,
    InconsistentCaseError,
    InvalidSpecError,
    IslandingDetectedError,
    NoAdjustableSourcesError,
    ParseError,
)
from syncgrid.graph import WeightedGraph
from syncgrid.powerflow import (
    RampSpec,
    ScenarioConfig,
    ac_power_flow,
    apply_ramp,
    apply_trips,
    branch_angle_limits,
    build_oscillator_model,
    bundled_case,
    case_graph,
    contingency_scan,
    dc_power_flow,
    parse_case,
    randomize_scenario,
    scenario_sample,
)
from syncgrid.sync import (
    Infeasible,
    min_infinity_norm_solution,
    necessary_conditions,
    sync_margin,
)


def two_bus_case(pg=50.0, a=1.0):
    return parse_case(json.dumps({
        "name": "2bus", "base_mva": 100.0,
        "buses": [
            {"id": 1, "type": "gen", "vm": 1.0, "pg": pg},
            {"id": 2, "type": "load", "vm": 1.0, "pd": pg},
        ],
        "branches": [{"from": 1, "to": 2, "x": 1.0 / a}],
    }))


# --- parsing ---

def test_parse_minimal_two_bus():
    case = two_bus_case()
    assert len(case.buses) == 2
    assert len(case.branches) == 1
    assert case.injections_pu().tolist() == [0.5, -0.5]


def test_bundled_case9_shape():
    case = bundled_case("case9")
    assert len(case.buses) == 9
    assert len(case.branches) == 9
    assert sum(b.pg_mw for b in case.buses) == pytest.approx(315.0)
    assert sum(b.pd_mw for b in case.buses) == pytest.approx(315.0)


def test_matpower_importer():
    from importlib import resources

    text = resources.files("syncgrid").joinpath("data/case9.m").read_text()
    case = parse_case(text)
    assert len(case.buses) == 9
    assert len(case.branches) == 9
    assert any("resistance" in a for a in case.approximations)
    gens = {b.id: b.pg_mw for b in case.buses if b.kind == "gen"}
    assert gens == {1: 67.0, 2: 163.0, 3: 85.0}
    loads = {b.id: b.pd_mw for b in case.buses if b.pd_mw > 0}
    assert loads == {5: 90.0, 7: 100.0, 9: 125.0}


def test_dangling_branch_rejected():
    with pytest.raises(InconsistentCaseError):
        parse_case(json.dumps({
            "base_mva": 100.0,
            "buses": [{"id": 1, "type": "gen"}, {"id": 2, "type": "load"}],
            "branches": [{"from": 1, "to": 3, "x": 0.1}],
        }))


@pytest.mark.parametrize("base_mva", [0.0, -100.0, float("nan"), float("inf")])
def test_bad_base_mva_rejected(base_mva):
    with pytest.raises(InconsistentCaseError, match="base_mva"):
        parse_case(json.dumps({
            "base_mva": base_mva,
            "buses": [{"id": 1, "type": "gen", "pg": 10}, {"id": 2, "type": "load", "pd": 10}],
            "branches": [{"from": 1, "to": 2, "x": 0.5}],
        }))


def test_parse_error_reports_position():
    with pytest.raises(ParseError):
        parse_case("{not json")
    with pytest.raises(ParseError):
        parse_case("plain text, no tables")


# --- model construction ---

def test_unit_voltage_coupling_is_susceptance():
    case = two_bus_case(a=4.0)
    net = build_oscillator_model(case)
    assert net.graph.weights[0] == pytest.approx(4.0)


def test_parallel_branches_merge():
    case = parse_case(json.dumps({
        "base_mva": 100.0,
        "buses": [{"id": 1, "type": "gen", "pg": 10}, {"id": 2, "type": "load", "pd": 10}],
        "branches": [{"from": 1, "to": 2, "x": 0.5, "rating": 100},
                     {"from": 2, "to": 1, "x": 0.5, "rating": 100}],
    }))
    g = case_graph(case)
    assert g.m == 1
    assert g.weights[0] == pytest.approx(4.0)  # susceptances add
    limits = branch_angle_limits(case)
    assert limits[(1, 2)] == pytest.approx(math.asin(2.0 / 4.0))


def test_build_model_partitions_and_defaults():
    case = bundled_case("case9")
    net = build_oscillator_model(case)
    assert net.second_order == frozenset({1, 2, 3})
    assert np.allclose(net.D[:3], 1.0)
    assert np.allclose(net.D[3:], 0.1)
    assert abs(float(np.sum(net.omega))) <= 1e-12
    assert net.omega_sync == pytest.approx(0.0, abs=1e-12)


def test_rts96_counts():
    case = bundled_case("rts96")
    assert len(case.buses) == 73
    gens = [b for b in case.buses if b.kind == "gen"]
    assert len(gens) == 33
    assert len(case.buses) - len(gens) == 40
    net = build_oscillator_model(case)
    assert net.graph.n == 73


# --- power flow ---

def test_dc_zero_injection():
    case = two_bus_case(pg=0.0)
    dc = dc_power_flow(case)
    assert dc.max_angle_diff == pytest.approx(0.0, abs=1e-14)


def test_dc_two_bus_scalar():
    case = two_bus_case(pg=50.0, a=2.0)
    dc = dc_power_flow(case)
    assert dc.max_angle_diff == pytest.approx(0.25, rel=1e-12)
    assert dc.delta[0] == 0.0


def test_flows_of_an_islanded_case_raise():
    case = parse_case(json.dumps({"buses": [{"id": k, "type": "load"} for k in (1, 2, 3)],
                                  "branches": [{"from": 1, "to": 2, "x": 0.5}]}))
    for flow in (dc_power_flow, ac_power_flow):
        with pytest.raises(DisconnectedGraphError):
            flow(case)


def test_dc_equals_margin():
    for name in ("case9", "rts96"):
        case = bundled_case(name)
        net = build_oscillator_model(case)
        margin = sync_margin(net.graph, net.omega).margin
        assert abs(dc_power_flow(case).max_angle_diff - margin) <= 1e-10


def test_ac_small_injection_matches_dc():
    case = two_bus_case(pg=0.5)  # 0.005 pu
    dc = dc_power_flow(case)
    sol = ac_power_flow(case)
    assert isinstance(sol, EquilibriumSolution)
    ratio = sol.cohesiveness / dc.max_angle_diff
    assert ratio == pytest.approx(1.0, abs=1e-4)


def test_ac_two_bus_arcsin():
    sol = ac_power_flow(two_bus_case(pg=50.0))
    assert sol.cohesiveness == pytest.approx(math.asin(0.5), abs=1e-9)
    assert sol.stable


def test_ac_infeasible_overload():
    result = ac_power_flow(two_bus_case(pg=120.0))
    assert isinstance(result, Infeasible)
    assert result.margin == pytest.approx(1.2) and result.gamma == math.pi / 2


def test_ac_solution_passes_necessary_conditions():
    case = bundled_case("case9")
    net = build_oscillator_model(case)
    sol = ac_power_flow(case)
    check = necessary_conditions(net.graph, net.omega, sol.cohesiveness + 1e-9)
    assert check.absolute_ok and check.incremental_ok


def test_ac_stability_inside_half_pi():
    sol = ac_power_flow(bundled_case("rts96"))
    assert isinstance(sol, EquilibriumSolution)
    assert sol.cohesiveness < math.pi / 2
    assert sol.stable


# --- scenarios ---

def test_scenario_sigma_zero_is_identity():
    case = bundled_case("case9")
    out = randomize_scenario(case, ScenarioConfig(sigma=0.0, seed=1))
    assert np.allclose(out.injections_pu(), case.injections_pu())


def test_scenario_balance_exact():
    case = bundled_case("case9")
    for sample in range(20):
        out = randomize_scenario(case, ScenarioConfig(seed=3), sample=sample)
        assert abs(float(np.sum(out.injections_pu()))) <= 1e-12


def test_scenario_determinism():
    case = bundled_case("case9")
    a = randomize_scenario(case, ScenarioConfig(seed=5), sample=7)
    b = randomize_scenario(case, ScenarioConfig(seed=5), sample=7)
    assert np.array_equal(a.injections_pu(), b.injections_pu())
    c = randomize_scenario(case, ScenarioConfig(seed=5), sample=8)
    assert not np.array_equal(a.injections_pu(), c.injections_pu())


def test_scenario_no_adjustable_sources():
    # with neither generation nor load there is nothing to rebalance with
    with pytest.raises(NoAdjustableSourcesError):
        randomize_scenario(two_bus_case(pg=0.0), ScenarioConfig())


@pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
def test_scenario_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="sigma"):
        ScenarioConfig(sigma=sigma)


def test_scenario_accuracy_statistic():
    # randomized 9-bus scenarios stay well predicted by arcsin(margin)
    case = bundled_case("case9")
    gaps = []
    for sample in range(50):
        out = randomize_scenario(case, ScenarioConfig(seed=11), sample=sample)
        net = build_oscillator_model(out)
        assessment = sync_margin(net.graph, net.omega)
        if assessment.gamma_pred is None:
            continue
        sol = ac_power_flow(out)
        if isinstance(sol, Infeasible):
            continue
        gaps.append(sol.cohesiveness - assessment.gamma_pred)
        assert sol.cohesiveness <= assessment.gamma_pred + 1e-4
    assert gaps, "no feasible scenarios sampled"
    assert abs(float(np.mean(gaps))) <= 5e-3


# --- contingencies ---

def test_trip_generator():
    case = bundled_case("rts96")
    tripped = apply_trips(case, ["gen:323"])
    bus = next(b for b in tripped.buses if b.id == 323)
    assert bus.pg_mw == 0.0
    assert bus.kind == "load"


def test_trip_branch_islanding():
    case = two_bus_case()
    with pytest.raises(IslandingDetectedError):
        apply_trips(case, ["branch:1-2"])


def test_trip_missing_reference():
    case = two_bus_case()
    with pytest.raises(InconsistentCaseError):
        apply_trips(case, ["gen:99"])
    with pytest.raises(InconsistentCaseError):
        apply_trips(case, ["branch:1-9"])


def test_malformed_trips_are_spec_errors():
    case = two_bus_case()
    for trip in ("foo:1", "gen:abc", "branch:5", "gen:", "branch:1-"):
        with pytest.raises(InvalidSpecError, match=repr(trip)):
            apply_trips(case, [trip])


def test_ramp_conserves_balance():
    case = bundled_case("rts96")
    ramped = apply_ramp(case, RampSpec(3, (1, 2)), 0.8)
    assert abs(float(np.sum(ramped.injections_pu()))) <= 1e-9
    area3 = sum(b.pd_mw for b in ramped.buses if b.area == 3)
    nominal3 = sum(b.pd_mw for b in case.buses if b.area == 3)
    assert area3 == pytest.approx(1.8 * nominal3, rel=1e-12)


def test_contingency_scan_nominal_point():
    case = bundled_case("case9")
    scan = contingency_scan(case, [], RampSpec(1, (1,)), loadings=[0.0])
    net = build_oscillator_model(case)
    assert scan.margins[0] == pytest.approx(sync_margin(net.graph, net.omega).margin)


def test_contingency_scan_monotone_margin():
    case = bundled_case("rts96")
    scan = contingency_scan(case, ["gen:323"], RampSpec(3, (1, 2)),
                            loadings=np.linspace(0.0, 0.4, 5))
    assert np.all(np.diff(scan.margins) > 0)
    assert np.all(np.diff(scan.line_utilization) > 0)


def test_contingency_scan_builds_model_and_limits_once(monkeypatch):
    # a ramp changes injections only: every loading and crossing reuses the
    # tripped model and its angle limits
    builds = count_calls(monkeypatch, powerflow, "build_oscillator_model")
    limits = count_calls(monkeypatch, powerflow, "branch_angle_limits")
    scan = contingency_scan(bundled_case("rts96"), ["gen:323"], RampSpec(3, (1, 2)),
                            loadings=np.linspace(0.0, 2.0, 21))
    assert scan.predicted_limit_loading is not None and scan.margin_one_loading is not None
    assert len(builds) == 1
    assert len(limits) == 1


def test_contingency_scan_makes_two_flow_solves(monkeypatch):
    # the flows are affine in the loading: psi(0) and psi(1) serve every
    # grid loading and both crossings, however many points the scan has
    solves = count_calls(monkeypatch, powerflow, "sync_margin")
    for points in (5, 41):
        solves.clear()
        scan = contingency_scan(bundled_case("rts96"), ["gen:323"], RampSpec(3, (1, 2)),
                                loadings=np.linspace(0.0, 2.0, points))
        assert scan.predicted_limit_loading is not None and scan.margin_one_loading is not None
        assert len(solves) == 2


def _explicit_margin_and_utilization(tripped, ramp, s):
    """Margin and worst line utilization of the explicitly ramped, rebuilt case."""
    net = build_oscillator_model(apply_ramp(tripped, ramp, s))
    psi = sync_margin(net.graph, net.omega).psi_particular
    limits = branch_angle_limits(tripped)
    utils = [math.asin(min(1.0, abs(p))) / limits[(i, j)]
             for (i, j, _), p in zip(net.graph.edges, psi) if limits.get((i, j), 0.0) > 0]
    return float(np.max(np.abs(psi))), max(utils)


@pytest.mark.parametrize("trips, ramp", [
    (["gen:323"], RampSpec(3, (1, 2))),
    (["gen:323"], RampSpec(1, (2, 3))),
    (["branch:103-109"], RampSpec(3, (1, 2))),
    ([], RampSpec(3, (1, 2))),
])
def test_affine_contingency_scan_matches_explicit_ramps(trips, ramp):
    case = bundled_case("rts96")
    tripped = apply_trips(case, trips)
    scan = contingency_scan(case, trips, ramp, loadings=np.linspace(0.0, 2.0, 11))
    for s, margin, util in zip(scan.loadings, scan.margins, scan.line_utilization):
        ref_margin, ref_util = _explicit_margin_and_utilization(tripped, ramp, float(s))
        assert margin == pytest.approx(ref_margin, rel=1e-12)
        assert util == pytest.approx(ref_util, rel=1e-12)
    # each crossing is an exact root: the explicitly ramped case reaches the
    # level there to rounding, is below it just before and over it just after
    for crossing, which in ((scan.predicted_limit_loading, 1), (scan.margin_one_loading, 0)):
        assert crossing is not None and crossing > scan.loadings[0]
        at = _explicit_margin_and_utilization(tripped, ramp, crossing)[which]
        assert at == pytest.approx(1.0, rel=0.0, abs=1e-12)
        assert _explicit_margin_and_utilization(tripped, ramp, crossing - 1e-9)[which] < 1.0
        assert _explicit_margin_and_utilization(tripped, ramp, crossing + 1e-9)[which] >= 1.0


def test_contingency_crossings_do_not_depend_on_the_grid():
    case = bundled_case("rts96")
    grids = [np.linspace(0.0, 2.0, 5), np.linspace(0.0, 2.0, 11), np.linspace(0.0, 2.0, 41),
             np.linspace(0.0, 0.3, 7)]
    scans = [contingency_scan(case, ["gen:323"], RTS_RAMP, loadings=grid) for grid in grids]
    assert len({scan.predicted_limit_loading for scan in scans}) == 1
    assert len({scan.margin_one_loading for scan in scans[:3]}) == 1
    assert scans[3].margin_one_loading is None  # that grid stops below margin one
    assert len({scan.binding_line for scan in scans}) == 1


def _with_tie(case, tie, **changes):
    """case with every branch between the two buses of tie replaced by changes."""
    return dataclasses.replace(case, branches=tuple(
        dataclasses.replace(br, **changes) if {br.from_bus, br.to_bus} == tie else br
        for br in case.branches))


def test_angle_limit_above_half_pi_is_never_reached():
    # arcsin(|psi|) <= pi/2, so a tie rated above pi/2 binds no more than an
    # unrated one: another line binds, at the same loading.  The tie's flow
    # grows from 0.153 to 0.222 before that loading, through sin(2.95) = 0.19,
    # so a crossing taken where |psi| = sin(limit) would come too early.
    case = bundled_case("rts96")
    loadings = np.linspace(0.0, 2.0, 11)
    scan = contingency_scan(case, ["gen:323"], RTS_RAMP, loadings=loadings)
    tie = {case.bus_order[k - 1] for k in scan.binding_line}
    loose, unrated = (
        contingency_scan(_with_tie(case, tie, **changes), ["gen:323"], RTS_RAMP,
                         loadings=loadings)
        for changes in ({"angle_limit": 2.95}, {"rating_mva": None, "angle_limit": None}))
    assert loose.binding_line is not None and loose.binding_line != scan.binding_line
    assert loose.binding_line == unrated.binding_line
    assert loose.predicted_limit_loading == unrated.predicted_limit_loading
    assert loose.predicted_limit_loading > scan.predicted_limit_loading


@pytest.mark.parametrize("loadings", [[1.0, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, float("nan"), 1.0],
                                      [0.0, float("inf")], []])
def test_contingency_scan_rejects_bad_loadings(loadings):
    # the crossings start from the last grid loading below the level, so the
    # grid must be finite and ascending; an empty grid scans nothing
    with pytest.raises(ValueError, match="loadings"):
        contingency_scan(bundled_case("case9"), [], RampSpec(1, (1,)), loadings=loadings)


def test_contingency_thermal_binding_is_area3_tie():
    case = bundled_case("rts96")
    scan = contingency_scan(case, ["gen:323"], RampSpec(3, (1, 2)),
                            loadings=np.linspace(0.0, 0.3, 7))
    assert scan.predicted_limit_loading is not None
    order = case.bus_order
    binding = tuple(sorted(order[k - 1] for k in scan.binding_line))
    assert binding in ((121, 325), (223, 318))


# --- one network per case topology ---

RTS_RAMP = RampSpec(3, (1, 2))


def _count_bus_replaces(monkeypatch) -> list:
    """Record every dataclasses.replace of a Bus, however the module reaches it."""
    original = dataclasses.replace
    calls = []

    def counted(obj, **changes):
        if isinstance(obj, powerflow.Bus):
            calls.append(obj)
        return original(obj, **changes)

    monkeypatch.setattr(dataclasses, "replace", counted)
    monkeypatch.setattr(powerflow, "replace", counted)
    return calls


def _rts_item(case, sample):
    """The rts96 benchmark item: scenario, margin, min-norm, AC flow, gen:323 scan."""
    scenario = randomize_scenario(case, ScenarioConfig(seed=4), sample=sample)
    net = build_oscillator_model(scenario)
    sync_margin(net.graph, net.omega)
    min_infinity_norm_solution(net.graph, net.omega)
    ac_power_flow(scenario)
    contingency_scan(scenario, ["gen:323"], RTS_RAMP, loadings=np.linspace(0.0, 2.0, 11))


def test_scenario_samples_share_one_graph(monkeypatch):
    builds = count_calls(monkeypatch, WeightedGraph, "from_edges")
    case = bundled_case("rts96")
    for sample in range(40):
        scenario_sample(case, ScenarioConfig(seed=2), sample=sample)
    assert len(builds) == 1


def test_warm_study_item_builds_no_network(monkeypatch):
    case = bundled_case("rts96")
    _rts_item(case, 0)
    builds = count_calls(monkeypatch, WeightedGraph, "from_edges")
    merges = count_calls(monkeypatch, powerflow, "_merged_edges")
    bus_replaces = _count_bus_replaces(monkeypatch)
    _rts_item(case, 1)
    assert (len(builds), len(merges), len(bus_replaces)) == (0, 0, 0)


def test_study_item_validates_two_networks(monkeypatch):
    # the scenario's model and the tripped case's model; the rotating-frame
    # shifts of the model build and of the scan's two flows build no network
    case = bundled_case("rts96")
    original = OscillatorNetwork.__post_init__
    built = []

    def counted(net):
        built.append(net)
        original(net)

    monkeypatch.setattr(OscillatorNetwork, "__post_init__", counted)
    _rts_item(case, 0)
    assert len(built) == 2
    for net in built:
        assert net.omega_sync == pytest.approx(0.0, abs=1e-12)


def test_branch_trip_builds_one_new_graph(monkeypatch):
    case = bundled_case("rts96")
    parent = case_graph(case)
    builds = count_calls(monkeypatch, WeightedGraph, "from_edges")
    tripped = apply_trips(case, ["branch:103-109"])
    build_oscillator_model(tripped)
    branch_angle_limits(tripped)
    assert len(builds) == 1
    assert case_graph(tripped) is not parent
    assert case_graph(tripped).m == parent.m - 1
    assert case_graph(apply_trips(case, ["gen:323"])) is parent


def test_replaced_voltage_gets_its_own_graph():
    case = two_bus_case(a=4.0)
    assert case_graph(case).weights[0] == pytest.approx(4.0)
    low = dataclasses.replace(case.buses[1], vm=0.5)
    changed = dataclasses.replace(case, buses=(case.buses[0], low))
    assert case_graph(changed).weights[0] == pytest.approx(2.0)
    assert case_graph(case).weights[0] == pytest.approx(4.0)


def test_returned_angle_limits_are_a_copy():
    case = bundled_case("rts96")
    loadings = np.linspace(0.0, 2.0, 11)
    before = contingency_scan(case, ["gen:323"], RTS_RAMP, loadings=loadings)
    limits = branch_angle_limits(case)
    for line in limits:
        limits[line] = 1e-3
    after = contingency_scan(case, ["gen:323"], RTS_RAMP, loadings=loadings)
    assert np.array_equal(after.line_utilization, before.line_utilization)
    assert after.predicted_limit_loading == before.predicted_limit_loading
    assert after.binding_line == before.binding_line


def test_ramp_helper_matches_apply_ramp():
    ramp = RampSpec(3, (1, 2))
    tripped = apply_trips(randomize_scenario(bundled_case("rts96"), ScenarioConfig(seed=9)),
                          ["gen:323"])
    for s in (0.0, 0.37, 1.0, 2.0):
        ramped = apply_ramp(tripped, ramp, s)
        by_id = {b.id: b for b in ramped.buses}
        scalar = [(by_id[bid].pg_mw - by_id[bid].pd_mw) / ramped.base_mva
                  for bid in ramped.bus_order]
        helper = powerflow._injections_pu(tripped, *powerflow._ramp_mw(tripped, ramp, s))
        assert np.array_equal(helper, ramped.injections_pu())
        assert helper.tolist() == scalar


def test_case_keeps_one_oscillator_model():
    # a repeat call returns the same model, read-only; every derived case, which
    # may differ in the power at its buses, builds its own, equal to a fresh build
    case = bundled_case("rts96")
    net = build_oscillator_model(case)
    assert build_oscillator_model(case) is net
    assert ac_power_flow(case).theta.shape == net.omega.shape
    for a in (net.omega, net.M, net.D):
        with pytest.raises(ValueError):
            a[0] = 0.0
    derived = [randomize_scenario(case, ScenarioConfig(seed=1), sample=0),
               apply_trips(case, ["gen:323"]), apply_trips(case, ["branch:103-109"]),
               apply_ramp(case, RTS_RAMP, 0.5), dataclasses.replace(case)]
    for other in derived:
        model = build_oscillator_model(other)
        assert model is not net and build_oscillator_model(other) is model
        fresh = build_oscillator_model(dataclasses.replace(other))
        assert model.omega.tobytes() == fresh.omega.tobytes()
        assert (model.M.tobytes(), model.D.tobytes()) == (fresh.M.tobytes(), fresh.D.tobytes())
        assert model.second_order == fresh.second_order
    for other in (derived[0], derived[1], derived[3]):  # new injections
        assert not np.array_equal(build_oscillator_model(other).omega, net.omega)
    assert build_oscillator_model(derived[2]).graph.m == net.graph.m - 1  # the branch trip
    assert build_oscillator_model(case) is net

"""Power-case ingestion and lossless network analysis.

A case is a set of buses (generator or load, fixed voltage magnitude,
real-power injection) and branches (series reactance, optional thermal
rating).  The lossless mapping to the oscillator model uses

    a_ij = |V_i| |V_j| Im(Y_ij),   omega_i = net injection (p.u.),

with generator buses as second-order nodes and load buses as first-order
nodes.  Branch resistances are dropped (recorded as an approximation);
only active power with fixed voltage magnitudes is modeled.

Two input formats are accepted: the package's JSON case schema and the
bus/gen/branch table layout of the widely used MATPOWER text cases.

A case carries its network.  The merged-edge WeightedGraph, the angle
limits of its edges and the bus-id -> node map depend on the branches, the
bus ids and the voltage magnitudes only.  One _merged_edges pass builds them
the first time a case needs them, and the case keeps them (PowerCase._network).
case_graph, branch_angle_limits (a copy of the limits), build_oscillator_model,
injections_pu and the islanding test of apply_trips read them from there.
The steps of a study that change only the power at buses, randomize_scenario,
generator trips and apply_ramp, return cases that share the parent's network
as the same objects (_with_buses), so a study of one topology builds one graph
and one BFS tree.  A branch trip, or any dataclasses.replace of a case, starts
a new case that builds its own network.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources
from typing import NamedTuple

import numpy as np

from .dynamics import OscillatorNetwork, rotating_frame
from .equilibrium import EquilibriumSolution, solve_equilibrium
from .errors import (
    InconsistentCaseError,
    InvalidSpecError,
    IslandingDetectedError,
    NoAdjustableSourcesError,
    NoConvergenceError,
    NonLosslessCaseError,
    ParseError,
    SingularJacobianError,
    SingularSystemError,
)
from .graph import WeightedGraph, edge_differences, is_connected, parse_json, solve_poisson
from .rng import substream
from .sync import Infeasible, sync_margin

GENERATOR_DAMPING = 1.0   # p.u., default for second-order buses
LOAD_DAMPING = 0.1        # s, default load frequency coefficient
DEFAULT_INERTIA = 1.0


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str                    # "gen" | "load"
    vm: float = 1.0
    pg_mw: float = 0.0
    pd_mw: float = 0.0
    area: int = 1
    inertia: float | None = None
    damping: float | None = None

    def __post_init__(self):
        if self.kind not in ("gen", "load"):
            raise InconsistentCaseError(f"bus {self.id}: unknown kind {self.kind!r}")
        if self.vm <= 0:
            raise InconsistentCaseError(f"bus {self.id}: non-positive voltage magnitude")


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    x: float                     # series reactance, p.u.
    r: float = 0.0
    rating_mva: float | None = None
    angle_limit: float | None = None  # rad; overrides the rating-derived limit

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise InconsistentCaseError(f"branch {self.from_bus}-{self.to_bus} is a self-loop")
        if self.x <= 0:
            raise InconsistentCaseError(
                f"branch {self.from_bus}-{self.to_bus}: reactance must be positive"
            )

    @property
    def susceptance(self) -> float:
        return 1.0 / self.x


@dataclass(frozen=True, eq=False)
class PowerCase:
    name: str
    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    approximations: tuple[str, ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.base_mva) and self.base_mva > 0):
            raise InconsistentCaseError(
                f"base_mva must be finite and positive, got {self.base_mva}")
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise InconsistentCaseError("duplicate bus ids")
        known = set(ids)
        for br in self.branches:
            if br.from_bus not in known or br.to_bus not in known:
                raise InconsistentCaseError(
                    f"branch {br.from_bus}-{br.to_bus} references a missing bus"
                )

    @property
    def bus_order(self) -> tuple[int, ...]:
        """Bus ids in node order (sorted); node k is bus_order[k-1]."""
        return tuple(sorted(b.id for b in self.buses))

    def bus(self, bus_id: int) -> Bus:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise InconsistentCaseError(f"no bus {bus_id}")

    def injections_pu(self) -> np.ndarray:
        """Net real-power injection per node (generation minus load)."""
        return _injections_pu(self, [b.pg_mw for b in self.buses],
                              [b.pd_mw for b in self.buses])

    @cached_property
    def _network(self) -> "_CaseNetwork":
        """The case's network, built on first use (see the module docstring)."""
        node_of = {bid: k for k, bid in enumerate(self.bus_order)}
        merged = _merged_edges(self, node_of)
        graph = WeightedGraph.from_edges(
            len(self.buses), [(i, j, entry["a"]) for (i, j), entry in merged.items()])
        limits: dict[tuple[int, int], float] = {}
        for i, j, a in graph.edges:
            entry = merged[(i, j)]
            if entry["angle_limit"] is not None:
                limits[(i, j)] = entry["angle_limit"]
            elif entry["has_rating"]:
                limits[(i, j)] = math.asin(min(1.0, entry["rating_pu"] / a))
        return _CaseNetwork(graph=graph, angle_limits=limits, node_of=node_of)


class _CaseNetwork(NamedTuple):
    """What a case's branches, bus ids and voltage magnitudes determine."""

    graph: WeightedGraph                          # merged parallel branches
    angle_limits: dict[tuple[int, int], float]    # limited edges, in graph.edges order
    node_of: dict[int, int]                       # bus id -> 0-based node index


def _with_buses(case: PowerCase, buses: tuple[Bus, ...]) -> PowerCase:
    """case with new buses of the same ids, in the same order, with the same vm.

    The result shares case's network as the same objects; the case checks,
    which such buses cannot fail, are not run again.
    """
    new = object.__new__(PowerCase)
    new.__dict__.update(case.__dict__, buses=buses, _network=case._network)
    return new


def _bus_with(b: Bus, pg_mw: float, pd_mw: float, kind: str | None = None) -> Bus:
    """b with new generation and load (and kind), through the constructor."""
    return Bus(id=b.id, kind=kind or b.kind, vm=b.vm, pg_mw=pg_mw, pd_mw=pd_mw,
               area=b.area, inertia=b.inertia, damping=b.damping)


def _injections_pu(case: PowerCase, pg_mw: list[float], pd_mw: list[float]) -> np.ndarray:
    """Per node (pg - pd) / base_mva, from MW values listed in case.buses order."""
    node_of = case._network.node_of
    inj = np.zeros(len(case.buses))
    nodes = [node_of[b.id] for b in case.buses]
    inj[nodes] = (np.array(pg_mw) - np.array(pd_mw)) / case.base_mva
    return inj


# --- parsing ---

def _case_from_dict(d: dict) -> PowerCase:
    try:
        buses = tuple(
            Bus(
                id=int(b["id"]),
                kind=str(b["type"]),
                vm=float(b.get("vm", 1.0)),
                pg_mw=float(b.get("pg", 0.0)),
                pd_mw=float(b.get("pd", 0.0)),
                area=int(b.get("area", 1)),
                inertia=(float(b["M"]) if "M" in b else None),
                damping=(float(b["D"]) if "D" in b else None),
            )
            for b in d["buses"]
        )
        branches = tuple(
            Branch(
                from_bus=int(br["from"]),
                to_bus=int(br["to"]),
                x=float(br["x"]),
                r=float(br.get("r", 0.0)),
                rating_mva=(float(br["rating"]) if br.get("rating") else None),
                angle_limit=(float(br["angle_limit"]) if br.get("angle_limit") else None),
            )
            for br in d["branches"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad case JSON: {exc}") from exc
    return PowerCase(
        name=str(d.get("name", "case")),
        base_mva=float(d.get("base_mva", 100.0)),
        buses=buses,
        branches=branches,
    )


_MATRIX_RE = re.compile(r"mpc\.(\w+)\s*=\s*\[(.*?)\];", re.DOTALL)
_SCALAR_RE = re.compile(r"mpc\.baseMVA\s*=\s*([0-9.eE+-]+)\s*;")


def _parse_matpower(text: str) -> PowerCase:
    """Importer for MATPOWER-style case tables (bus/gen/branch matrices)."""
    scalar = _SCALAR_RE.search(text)
    base_mva = float(scalar.group(1)) if scalar else 100.0
    tables: dict[str, list[list[float]]] = {}
    for match in _MATRIX_RE.finditer(text):
        name, body = match.group(1), match.group(2)
        rows = []
        for lineno, raw in enumerate(body.splitlines(), start=1):
            line = raw.split("%")[0].strip().rstrip(";")
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split()])
            except ValueError as exc:
                raise ParseError(f"mpc.{name} line {lineno}: {exc}") from exc
        tables[name] = rows
    if "bus" not in tables or "branch" not in tables:
        raise ParseError("missing mpc.bus or mpc.branch table")

    gen_by_bus: dict[int, float] = {}
    for row in tables.get("gen", []):
        if len(row) >= 8 and row[7] <= 0:  # status column
            continue
        gen_by_bus[int(row[0])] = gen_by_bus.get(int(row[0]), 0.0) + float(row[1])

    buses = []
    for row in tables["bus"]:
        if len(row) < 8:
            raise ParseError(f"mpc.bus row too short: {row}")
        bus_id, bus_type, pd = int(row[0]), int(row[1]), float(row[2])
        vm = float(row[7])
        kind = "gen" if bus_type in (2, 3) else "load"
        buses.append(Bus(id=bus_id, kind=kind, vm=vm, pd_mw=pd, pg_mw=gen_by_bus.get(bus_id, 0.0)))

    branches = []
    for row in tables["branch"]:
        if len(row) < 4:
            raise ParseError(f"mpc.branch row too short: {row}")
        status = row[10] if len(row) > 10 else 1.0
        if status <= 0:
            continue
        rating = float(row[5]) if len(row) > 5 and row[5] > 0 else None
        branches.append(
            Branch(from_bus=int(row[0]), to_bus=int(row[1]), x=float(row[3]),
                   r=float(row[2]), rating_mva=rating)
        )
    return PowerCase(name="matpower_case", base_mva=base_mva,
                     buses=tuple(buses), branches=tuple(branches))


def parse_case(text: str, strict_lossless: bool = False) -> PowerCase:
    """Parse a case from JSON or MATPOWER-style text.

    Branch resistances are dropped (the model is lossless); the dropped
    values are recorded as an approximation flag.  strict_lossless instead
    rejects resistive cases outright.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        case = _case_from_dict(parse_json(text, "case"))
    elif "mpc." in text:
        case = _parse_matpower(text)
    else:
        raise ParseError("unrecognized case format (expected JSON or MATPOWER tables)")

    resistive = [br for br in case.branches if br.r != 0.0]
    if resistive:
        if strict_lossless:
            raise NonLosslessCaseError(f"{len(resistive)} branches have nonzero resistance")
        case = replace(
            case,
            branches=tuple(replace(br, r=0.0) for br in case.branches),
            approximations=case.approximations
            + (f"dropped series resistance on {len(resistive)} branches",),
        )
    return case


def load_case(path: str, strict_lossless: bool = False) -> PowerCase:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_case(fh.read(), strict_lossless=strict_lossless)


def bundled_case(name: str) -> PowerCase:
    """Load a case shipped with the package (e.g. 'case9', 'rts96')."""
    for suffix in (".json", ".m"):
        ref = resources.files("syncgrid").joinpath(f"data/{name}{suffix}")
        if ref.is_file():
            return parse_case(ref.read_text(encoding="utf-8"))
    raise FileNotFoundError(f"no bundled case named {name!r}")


# --- model construction ---

def _merged_edges(case: PowerCase, node_of: dict[int, int]) -> dict[tuple[int, int], dict]:
    """Combine parallel branches: susceptances and ratings add."""
    vm = {b.id: b.vm for b in case.buses}
    merged: dict[tuple[int, int], dict] = {}
    for br in case.branches:
        i, j = node_of[br.from_bus] + 1, node_of[br.to_bus] + 1
        if i > j:
            i, j = j, i
        entry = merged.setdefault((i, j), {"a": 0.0, "rating_pu": 0.0, "has_rating": False,
                                           "angle_limit": None})
        entry["a"] += vm[br.from_bus] * vm[br.to_bus] * br.susceptance
        if br.rating_mva is not None:
            entry["rating_pu"] += br.rating_mva / case.base_mva
            entry["has_rating"] = True
        if br.angle_limit is not None:
            prior = entry["angle_limit"]
            entry["angle_limit"] = br.angle_limit if prior is None else min(prior, br.angle_limit)
    return merged


def case_graph(case: PowerCase) -> WeightedGraph:
    """The case's merged-edge graph, shared by every case that shares its network."""
    return case._network.graph


def branch_angle_limits(case: PowerCase) -> dict[tuple[int, int], float]:
    """Per merged edge thermal limit as an angle: arcsin(rating / a_ij).

    Explicit angle limits take precedence.  Edges without any rating are
    omitted (unconstrained).  The dict is a copy, keyed in graph.edges order.
    """
    return dict(case._network.angle_limits)


def build_oscillator_model(case: PowerCase) -> OscillatorNetwork:
    """Map a case onto the oscillator model, in the rotating frame.

    Generator buses become second-order nodes (defaults M = 1, D = 1);
    load buses are first order (default D = 0.1).  Injections are recentred
    so the synchronization frequency is zero.
    """
    g = case_graph(case)
    node_of = case._network.node_of
    buses = [None] * g.n
    for b in case.buses:
        buses[node_of[b.id]] = b
    second = frozenset(k + 1 for k, b in enumerate(buses) if b.kind == "gen")
    m = np.ones(g.n) * DEFAULT_INERTIA
    d = np.empty(g.n)
    for k, b in enumerate(buses):
        if b.inertia is not None:
            m[k] = b.inertia
        d[k] = b.damping if b.damping is not None else (
            GENERATOR_DAMPING if b.kind == "gen" else LOAD_DAMPING
        )
    net = OscillatorNetwork(graph=g, omega=case.injections_pu(), second_order=second, M=m, D=d)
    return rotating_frame(net)


# --- power flow ---

@dataclass(frozen=True, eq=False)
class DCFlowResult:
    delta: np.ndarray
    max_angle_diff: float


def dc_power_flow(case: PowerCase) -> DCFlowResult:
    """Linear power flow: solve L delta = omega with gauge delta_1 = 0.

    The largest edge difference of delta equals the synchronization margin
    by construction (identical linear system).
    """
    return _dc_flow(build_oscillator_model(case))


def _dc_flow(net: OscillatorNetwork) -> DCFlowResult:
    if not is_connected(net.graph):
        raise SingularSystemError("case network is disconnected")
    delta = solve_poisson(net.graph, net.omega)
    delta = delta - delta[0]
    diffs = edge_differences(net.graph, delta)
    return DCFlowResult(delta=delta, max_angle_diff=float(np.max(np.abs(diffs))) if len(diffs) else 0.0)


def ac_power_flow(case: PowerCase, gamma: float = math.pi / 2) -> EquilibriumSolution | Infeasible:
    """Nonlinear power flow via Newton, seeded with the DC solution."""
    net = build_oscillator_model(case)
    return _ac_flow(net, _dc_flow(net), gamma)


def _ac_flow(net: OscillatorNetwork, dc: DCFlowResult, gamma: float) -> EquilibriumSolution | Infeasible:
    try:
        return solve_equilibrium(net.graph, net.omega, theta0=dc.delta)
    except (NoConvergenceError, SingularJacobianError) as exc:
        return Infeasible(margin=dc.max_angle_diff, gamma=gamma, reason=str(exc))


def scenario_sample(
    case: PowerCase, cfg: ScenarioConfig, sample: int = 0,
) -> tuple[float, float | None, float | None]:
    """Margin, predicted angle arcsin(margin) and AC cohesiveness of one scenario.

    The randomized case's model is built once and L^dagger omega solved
    once: the DC flow's largest angle difference is the margin and its
    angles seed Newton.  The predicted angle is None when margin > 1 (no AC
    solve is then attempted), the cohesiveness None without an AC solution.
    """
    net = build_oscillator_model(randomize_scenario(case, cfg, sample=sample))
    dc = _dc_flow(net)
    if dc.max_angle_diff > 1.0:
        return dc.max_angle_diff, None, None
    sol = _ac_flow(net, dc, math.pi / 2)
    cohesiveness = None if isinstance(sol, Infeasible) else sol.cohesiveness
    return dc.max_angle_diff, math.asin(dc.max_angle_diff), cohesiveness


# --- randomized smart-grid scenarios ---

@dataclass(frozen=True)
class ScenarioConfig:
    """Randomization of loads/generation plus balancing sources.

    Fractions select subsets by count (rounded; balancing counts round up
    so at least one adjustable source exists whenever the pool is
    nonempty).  Perturbations are Gaussian around the nominal injection
    with standard deviation sigma in per unit.
    """

    load_fluct_fraction: float = 0.5
    gen_fluct_fraction: float = 0.33
    sigma: float = 0.3
    fast_ramp_fraction: float = 0.10
    controllable_load_fraction: float = 0.10
    seed: int = 0

    def __post_init__(self):
        for name in ("load_fluct_fraction", "gen_fluct_fraction",
                     "fast_ramp_fraction", "controllable_load_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvalidSpecError(f"{name} must lie in [0, 1], got {value}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise InvalidSpecError(f"sigma must be finite and non-negative, got {self.sigma}")


def randomize_scenario(case: PowerCase, cfg: ScenarioConfig, sample: int = 0) -> PowerCase:
    """Perturb a case per the scenario config and rebalance exactly.

    The power imbalance created by the fluctuations is dispatched uniformly
    across the selected fast-ramping generators and controllable loads, so
    the returned injections sum to zero.  sample selects an independent
    substream for batch studies under one config seed.
    """
    rng = substream(cfg.seed, sample)
    gens = [b.id for b in case.buses if b.pg_mw > 0]
    loads = [b.id for b in case.buses if b.pd_mw > 0]

    def pick(pool: list[int], count: int) -> set[int]:
        if count <= 0 or not pool:
            return set()
        count = min(count, len(pool))
        return set(int(x) for x in rng.choice(pool, size=count, replace=False))

    fluct_loads = pick(loads, int(round(cfg.load_fluct_fraction * len(loads))))
    fluct_gens = pick(gens, int(round(cfg.gen_fluct_fraction * len(gens))))
    ramp_gens = pick(gens, math.ceil(cfg.fast_ramp_fraction * len(gens))
                     if cfg.fast_ramp_fraction > 0 else 0)
    ctrl_loads = pick(loads, math.ceil(cfg.controllable_load_fraction * len(loads))
                      if cfg.controllable_load_fraction > 0 else 0)
    n_adjust = len(ramp_gens) + len(ctrl_loads)
    if n_adjust == 0:
        raise NoAdjustableSourcesError("scenario selects zero adjustable sources")

    pgs, pds = [], []
    for b in case.buses:
        pg, pd = b.pg_mw, b.pd_mw
        if b.id in fluct_loads:
            pd = pd + rng.normal(0.0, cfg.sigma) * case.base_mva
        if b.id in fluct_gens:
            pg = pg + rng.normal(0.0, cfg.sigma) * case.base_mva
        pgs.append(pg)
        pds.append(pd)

    imbalance_mw = sum(pg - pd for pg, pd in zip(pgs, pds))
    share = -imbalance_mw / n_adjust
    balanced = []
    for b, pg, pd in zip(case.buses, pgs, pds):
        if b.id in ramp_gens:
            pg += share
        if b.id in ctrl_loads:
            pd -= share
        balanced.append(_bus_with(b, pg, pd))
    return _with_buses(case, tuple(balanced))


# --- contingencies and loading sweeps ---

@dataclass(frozen=True)
class RampSpec:
    """Load increase in one area, compensated by generators elsewhere.

    mode "uniform" adds the same MW increment to every load bus of the
    area (the increment is sized so the area total grows by the loading
    fraction); "proportional" scales each load by (1 + loading).  Either
    way the compensating generators each pick up an equal share.
    """

    load_area: int
    gen_areas: tuple[int, ...]
    mode: str = "uniform"

    def __post_init__(self):
        if self.mode not in ("uniform", "proportional"):
            raise InvalidSpecError(f"unknown ramp mode {self.mode!r}")


@dataclass(frozen=True, eq=False)
class ContingencyScan:
    loadings: np.ndarray
    margins: np.ndarray
    line_utilization: np.ndarray     # max over limited lines of predicted/limit
    predicted_limit_loading: float | None
    margin_one_loading: float | None
    binding_line: tuple[int, int] | None


def apply_trips(case: PowerCase, trips: list[str]) -> PowerCase:
    """Trip generators ('gen:ID') and branches ('branch:I-J').

    A branch trip removes every parallel circuit between the two buses.
    Islanding raises immediately.  With generator trips only, the tripped
    case shares case's network, so the islanding test reuses its BFS tree.
    """
    buses = list(case.buses)
    branches = list(case.branches)
    for trip in trips:
        parsed = re.fullmatch(r"gen:(\d+)|branch:(\d+)-(\d+)", trip)
        if parsed is None:
            raise InvalidSpecError(f"trip {trip!r} is neither 'gen:ID' nor 'branch:I-J'")
        gen, i, j = parsed.groups()
        if gen is not None:
            bid = int(gen)
            for k, b in enumerate(buses):
                if b.id == bid:
                    buses[k] = _bus_with(b, 0.0, b.pd_mw, kind="load")
                    break
            else:
                raise InconsistentCaseError(f"trip references missing bus {bid}")
        else:
            pair = {int(i), int(j)}
            kept = [br for br in branches if {br.from_bus, br.to_bus} != pair]
            if len(kept) == len(branches):
                raise InconsistentCaseError(f"trip references missing branch {i}-{j}")
            branches = kept
    if len(branches) == len(case.branches):  # every branch trip removes at least one
        tripped = _with_buses(case, tuple(buses))
    else:
        tripped = replace(case, buses=tuple(buses), branches=tuple(branches))
    if not is_connected(case_graph(tripped)):
        raise IslandingDetectedError("network splits after trips")
    return tripped


def _ramp_mw(case: PowerCase, ramp: RampSpec, loading: float) -> tuple[list[float], list[float]]:
    """Generation and load in MW per bus, in case.buses order, at this loading."""
    area_loads = [b.id for b in case.buses if b.area == ramp.load_area and b.pd_mw > 0]
    load_ids = set(area_loads)
    extra = loading * sum(b.pd_mw for b in case.buses if b.id in load_ids)
    comp_gens = [b.id for b in case.buses
                 if b.area in ramp.gen_areas and b.pg_mw > 0 and b.kind == "gen"]
    gen_ids = set(comp_gens)
    if not comp_gens and extra != 0.0:
        raise NoAdjustableSourcesError("no compensating generators in the ramp areas")
    share = extra / len(comp_gens) if comp_gens else 0.0
    increment = extra / len(area_loads) if area_loads else 0.0
    pgs, pds = [], []
    for b in case.buses:
        pg, pd = b.pg_mw, b.pd_mw
        if b.id in load_ids:
            pd = pd + increment if ramp.mode == "uniform" else pd * (1.0 + loading)
        if b.id in gen_ids:
            pg = pg + share
        pgs.append(pg)
        pds.append(pd)
    return pgs, pds


def apply_ramp(case: PowerCase, ramp: RampSpec, loading: float) -> PowerCase:
    """Grow the ramp area's total load by the loading fraction.

    Compensating generators in the other areas each pick up an equal MW
    share of the added demand.  The ramped case shares case's network.
    """
    pgs, pds = _ramp_mw(case, ramp, loading)
    return _with_buses(case, tuple(_bus_with(b, pg, pd)
                                   for b, pg, pd in zip(case.buses, pgs, pds)))


def _first_crossing(loadings, values, a, b, level) -> float | None:
    """Smallest loading s at which some |a_e + s b_e| reaches its level c_e.

    values[k] >= 1 marks the grid loadings at or over the level; lo is the
    last grid loading before the first of them.  Each |a_e + s b_e| is
    convex in s, so no crossing hides between two grid loadings that are
    both below the level, and after lo each edge crosses at most once, at
    (sign(b_e) c_e - a_e) / b_e.  The crossing is the smallest such root
    above lo, capped at the next grid loading: an exact root, with no
    tolerance.  It is loadings[0] when the grid starts at or over the level,
    and None when no grid loading reaches it.
    """
    over = np.flatnonzero(values >= 1.0)
    if len(over) == 0:
        return None
    if over[0] == 0:
        return float(loadings[0])
    lo, hi = loadings[over[0] - 1], loadings[over[0]]
    with np.errstate(divide="ignore", invalid="ignore"):  # b_e = 0: no root
        roots = (np.sign(b) * level - a) / b
    return float(np.min(roots[roots > lo], initial=hi))


def contingency_scan(
    case: PowerCase,
    trips: list[str],
    ramp: RampSpec,
    loadings=None,
) -> ContingencyScan:
    """Sweep the ramp loading after applying trips.

    Reports the margin and the worst thermal-line utilization (predicted
    angle over limit angle) per loading, plus the exact loadings at which
    the first line reaches its thermal limit and the margin reaches one.

    A scan costs two flow solves.  In both ramp modes the injections are
    affine in the loading s, and the rotating-frame shift and
    psi = B^T L^dagger omega are linear in omega.  So on the tripped network
    every edge flow is, in exact arithmetic, psi(s) = psi0 + s psi1 with
    psi0 = psi(0) and psi1 = psi(1) - psi(0): the grid is one broadcast, and
    each crossing is a root of |psi0_e + s psi1_e| = c_e (_first_crossing),
    with c_e = 1 for the margin and sin(limit_e) for a limited line (inf
    above pi/2, where arcsin never reaches the limit).  The two ramped
    injection vectors come from apply_ramp's arithmetic without building
    ramped buses.  loadings must be finite and strictly increasing
    (InvalidSpecError, a ValueError, otherwise).
    """
    if loadings is None:
        loadings = np.linspace(0.0, 1.0, 21)
    loadings = np.asarray(loadings, dtype=float)
    if loadings.ndim != 1 or not np.all(np.isfinite(loadings)):
        raise InvalidSpecError(f"loadings must be a finite 1-D sequence, got {loadings}")
    if np.any(np.diff(loadings) <= 0):  # the crossings need an ascending grid
        raise InvalidSpecError(f"loadings must be strictly increasing, got {loadings}")
    tripped = apply_trips(case, trips)

    # A ramp changes injections only, so the model and the limits are fixed.
    net = build_oscillator_model(tripped)
    limits = branch_angle_limits(tripped)
    limited = [(k, (i, j)) for k, (i, j, _) in enumerate(net.graph.edges)
               if limits.get((i, j), 0.0) > 0]
    limited_edges = np.array([k for k, _ in limited], dtype=np.intp)
    limit_angles = np.array([limits[line] for _, line in limited])

    def flows(s: float) -> np.ndarray:
        injections = _injections_pu(tripped, *_ramp_mw(tripped, ramp, s))
        omega = rotating_frame(replace(net, omega=injections)).omega
        return sync_margin(net.graph, omega).psi_particular

    psi0 = flows(0.0)
    psi1 = flows(1.0) - psi0
    psi = psi0 + loadings[:, None] * psi1  # row k: the flows at loadings[k]
    line_utils = np.arcsin(np.minimum(1.0, np.abs(psi[:, limited_edges]))) / limit_angles
    # initial=0.0 serves a case without edges (one bus) or without limited lines
    margins = np.max(np.abs(psi), axis=1, initial=0.0)
    utils = np.max(line_utils, axis=1, initial=0.0)
    levels = np.where(limit_angles > math.pi / 2, math.inf, np.sin(limit_angles))
    over = np.flatnonzero(utils >= 1.0)
    return ContingencyScan(
        loadings=loadings,
        margins=margins,
        line_utilization=utils,
        predicted_limit_loading=_first_crossing(
            loadings, utils, psi0[limited_edges], psi1[limited_edges], levels),
        margin_one_loading=_first_crossing(loadings, margins, psi0, psi1, 1.0),
        binding_line=limited[int(np.argmax(line_utils[over[0]]))][1] if len(over) else None,
    )


# --- serialization ---

def case_to_dict(case: PowerCase) -> dict:
    return {
        "name": case.name,
        "base_mva": case.base_mva,
        "buses": [
            {k: v for k, v in {
                "id": b.id, "type": b.kind, "vm": b.vm, "pg": b.pg_mw, "pd": b.pd_mw,
                "area": b.area, "M": b.inertia, "D": b.damping,
            }.items() if v is not None}
            for b in case.buses
        ],
        "branches": [
            {k: v for k, v in {
                "from": br.from_bus, "to": br.to_bus, "x": br.x, "r": br.r,
                "rating": br.rating_mva, "angle_limit": br.angle_limit,
            }.items() if v is not None}
            for br in case.branches
        ],
    }


def save_case(case: PowerCase, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(case_to_dict(case), fh, indent=1, sort_keys=True)
        fh.write("\n")

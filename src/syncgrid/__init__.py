"""Synchronization analysis of coupled oscillator networks and power grids."""

from .graph import (
    WeightedGraph,
    edge_differences,
    edge_infinity_norm,
    is_connected,
    solve_poisson,
)
from .sync import (
    Infeasible,
    NecessaryCheck,
    SyncAssessment,
    acyclic_equilibrium,
    cycle_sufficient_bound,
    min_infinity_norm_solution,
    necessary_conditions,
    node_cut_ratio,
    single_cycle_feasibility,
    sync_margin,
)
from .equilibrium import (
    EquilibriumSolution,
    assess_stability,
    fixed_point_residual,
    jacobian,
    phase_cohesiveness,
    solve_equilibrium,
)
from .dynamics import (
    OscillatorNetwork,
    Trajectory,
    critical_coupling_search,
    detect_sync,
    energy,
    quadratic_energy,
    rotating_frame,
    simulate,
)
from .randnet import (
    NominalNetworkSpec,
    generate_graph,
    nominal_network,
    sample_frequencies,
    sample_weights,
)
from .powerflow import (
    Branch,
    Bus,
    PowerCase,
    RampSpec,
    ScenarioConfig,
    ac_power_flow,
    build_oscillator_model,
    bundled_case,
    contingency_scan,
    dc_power_flow,
    parse_case,
    randomize_scenario,
)
from .experiments import (
    HypothesisResult,
    accuracy_experiment,
    chernoff_epsilon,
    chernoff_samples,
    hypothesis_experiment,
)

__version__ = "0.1.0"

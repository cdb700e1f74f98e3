"""Monte Carlo validation and accuracy studies.

hypothesis_experiment estimates, over nominal random networks, the
probability that a margin of sin(gamma) actually certifies a cohesive
equilibrium at gamma.  accuracy_experiment measures how close the margin
normalizer is to the true critical coupling of gain-parametrized networks.
Sample counts map to statistical accuracy through the Chernoff bound.

This module runs one cell or one grid point; the `syncgrid montecarlo` and
`syncgrid accuracy` subcommands are the entry points that loop over cells
and grids and write the tables (README lists the presets).

All experiments are deterministic functions of their master seed; cells
and samples use independent substreams, so results are identical whether
run serially or split across workers.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import critical_coupling_search
from .equilibrium import solve_equilibrium
from .errors import (InvalidLevelError, InvalidSpecError, NoConvergenceError, NoSyncInBracketError,
                     SingularJacobianError)
from .randnet import NominalNetworkSpec, generate_graph, nominal_network, sample_frequencies
from .rng import substream

COHESIVENESS_ACCURACY = 1e-4
SOLVE_TOLERANCE = 1e-6
RANDOM_RESTARTS = 5


def chernoff_samples(epsilon: float, eta: float) -> int:
    """Smallest N with N >= log(2/eta) / (2 epsilon^2)."""
    if not (0.0 < epsilon < 1.0 and 0.0 < eta < 1.0):
        raise InvalidLevelError(f"epsilon and eta must lie in (0, 1), got {epsilon}, {eta}")
    return math.ceil(math.log(2.0 / eta) / (2.0 * epsilon * epsilon))


def chernoff_epsilon(samples: int, eta: float) -> float:
    """Accuracy implied by a sample count at confidence 1 - eta."""
    if samples < 1 or not 0.0 < eta < 1.0:
        raise InvalidLevelError(f"bad samples={samples} or eta={eta}")
    return math.sqrt(math.log(2.0 / eta) / (2.0 * samples))


@dataclass(frozen=True, eq=False)
class HypothesisResult:
    """Empirical success rate of the margin certificate."""

    spec: NominalNetworkSpec
    samples: int
    failures: int
    empirical_probability: float
    failure_samples: tuple[int, ...] = ()

    @property
    def chernoff_accuracy_at_1pct(self) -> float:
        return chernoff_epsilon(self.samples, 0.01)


def _starting_points(n: int, gamma: float, seed: int):
    """None (Newton's linear seed), then RANDOM_RESTARTS random angle vectors
    inside the cohesive set, drawn from substream(seed, 7) only when asked for."""
    yield None
    rng = substream(seed, 7)
    for _ in range(RANDOM_RESTARTS):
        yield rng.uniform(-gamma / 2.0, gamma / 2.0, size=n)


def _cohesive_solution_exists(g, omega, gamma: float, seed: int) -> bool:
    """Newton from the linear seed, then random restarts inside the
    cohesive set; only when all attempts miss is the sample a failure."""
    for theta0 in _starting_points(g.n, gamma, seed):
        try:
            sol = solve_equilibrium(g, omega, theta0=theta0, tol=SOLVE_TOLERANCE)
        except (NoConvergenceError, SingularJacobianError):
            continue
        if sol.cohesiveness <= gamma + COHESIVENESS_ACCURACY:
            return True
    return False


def hypothesis_experiment(spec: NominalNetworkSpec, samples: int) -> HypothesisResult:
    """Test 'margin <= sin(gamma) implies a cohesive equilibrium at gamma'.

    Every nominal network fixes gamma = arcsin(margin), the tightest angle
    its own margin certifies; the hypothesis fails for a sample when no
    equilibrium within that cohesiveness (to 1e-4) is found.
    """
    if samples < 1:
        raise InvalidSpecError("need at least one sample")
    failures: list[int] = []
    for k in range(samples):
        nominal = nominal_network(spec, sample=k)
        gamma = math.asin(min(1.0, nominal.margin))
        if not _cohesive_solution_exists(nominal.graph, nominal.omega, gamma, seed=spec.seed + 31 * k):
            failures.append(k)
    return HypothesisResult(
        spec=spec,
        samples=samples,
        failures=len(failures),
        empirical_probability=(samples - len(failures)) / samples,
        failure_samples=tuple(failures),
    )


@dataclass(frozen=True, eq=False)
class AccuracyResult:
    """Critical-coupling ratios K_min / margin normalizer."""

    n: int
    model: str
    p: float
    distribution: str
    samples: int
    ratios: tuple[float, ...]
    seed: int = 0

    @property
    def mean_ratio(self) -> float:
        """Mean of the ratios; nan when no sample yielded one."""
        return float(np.mean(self.ratios)) if self.ratios else math.nan


def accuracy_experiment(
    n: int,
    model: str,
    p: float,
    distribution: str,
    samples: int,
    seed: int = 0,
) -> AccuracyResult:
    """Mean normalized critical coupling over unit-weight random networks.

    Ratios at most one mean the margin normalizer over-estimates the true
    threshold (the condition is sufficient); trees and bipolar complete
    graphs give ratio one.
    """
    spec = NominalNetworkSpec(n=n, model=model, p=p, distribution=distribution,
                              weighted=False, seed=seed)
    ratios: list[float] = []
    for k in range(samples):
        g = generate_graph(spec, sample=k)
        omega = sample_frequencies(n, distribution, substream(seed, k, 2))
        try:
            result = critical_coupling_search(g, omega, seed=seed + 17 * k)
        except NoSyncInBracketError:
            continue
        if result.margin_normalizer > 0:
            ratios.append(result.k_min / result.margin_normalizer)
    return AccuracyResult(n=n, model=model, p=p, distribution=distribution,
                          samples=samples, ratios=tuple(ratios), seed=seed)


# --- deterministic report emission ---

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _json_token(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g") if math.isfinite(value) else "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_token(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_json_token(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def write_report_json(payload: dict, path: str) -> None:
    """Byte-deterministic JSON: sorted keys, %.12g floats, null for nan/inf."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_token(payload))
        fh.write("\n")


def write_rows_csv(header: list[str], rows: list[list], path: str) -> None:
    """Byte-deterministic CSV with %.12g float formatting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

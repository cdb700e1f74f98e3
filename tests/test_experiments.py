"""Chernoff bookkeeping, hypothesis experiment, accuracy study, reports."""

import json
import math
import warnings

import numpy as np
import pytest

import syncgrid.experiments as ex
from syncgrid.errors import InvalidLevelError, NoConvergenceError
from syncgrid.experiments import (
    AccuracyResult,
    accuracy_experiment,
    chernoff_epsilon,
    chernoff_samples,
    hypothesis_experiment,
    write_report_json,
    write_rows_csv,
)
from syncgrid.randnet import NominalNetworkSpec, nominal_network
from syncgrid.rng import substream


def test_chernoff_published_value():
    assert chernoff_samples(0.01, 0.01) == 26492


def test_chernoff_loose_levels():
    assert chernoff_samples(0.1, 0.1) == 150
    assert chernoff_samples(0.9, 0.9) >= 1


def test_chernoff_monotonicity():
    assert chernoff_samples(0.005, 0.01) > chernoff_samples(0.01, 0.01)
    assert chernoff_samples(0.01, 0.001) > chernoff_samples(0.01, 0.01)


def test_chernoff_validation():
    with pytest.raises(InvalidLevelError):
        chernoff_samples(0.0, 0.5)
    with pytest.raises(InvalidLevelError):
        chernoff_samples(0.5, 1.0)
    with pytest.raises(InvalidLevelError):
        chernoff_epsilon(0, 0.5)


def test_chernoff_epsilon_at_1000():
    assert chernoff_epsilon(1000, 0.01) == pytest.approx(0.05147, abs=1e-4)


def test_hypothesis_experiment_determinism():
    spec = NominalNetworkSpec(n=10, model="erg", p=0.4, alpha=6.0, seed=21)
    a = hypothesis_experiment(spec, 40)
    b = hypothesis_experiment(spec, 40)
    assert a.failures == b.failures
    assert a.failure_samples == b.failure_samples
    assert a.empirical_probability == (40 - a.failures) / 40


def test_hypothesis_experiment_mostly_succeeds():
    spec = NominalNetworkSpec(n=10, model="erg", p=0.5, alpha=8.0, seed=2)
    result = hypothesis_experiment(spec, 60)
    assert result.empirical_probability >= 0.95


def test_restarts_are_drawn_only_after_a_miss(monkeypatch):
    nominal = nominal_network(NominalNetworkSpec(n=10, model="erg", p=0.3, alpha=8.0, seed=5))
    gamma = math.asin(nominal.margin)
    streams = []

    def recorded_substream(*key):
        streams.append(key)
        return substream(*key)

    monkeypatch.setattr(ex, "substream", recorded_substream)
    assert ex._cohesive_solution_exists(nominal.graph, nominal.omega, gamma, seed=77)
    assert streams == []  # the linear seed decided: no restart stream opened
    starts = []

    def missing(g, omega, theta0=None, tol=None):
        starts.append(theta0)
        raise NoConvergenceError("forced miss")

    monkeypatch.setattr(ex, "solve_equilibrium", missing)
    assert not ex._cohesive_solution_exists(nominal.graph, nominal.omega, gamma, seed=77)
    assert streams == [(77, 7)]
    rng = substream(77, 7)
    eager = [rng.uniform(-gamma / 2.0, gamma / 2.0, size=10) for _ in range(ex.RANDOM_RESTARTS)]
    assert starts[0] is None and len(starts) == 1 + ex.RANDOM_RESTARTS
    assert all(np.array_equal(a, b) for a, b in zip(starts[1:], eager))


def test_accuracy_two_node_ratio_one():
    result = accuracy_experiment(2, "erg", 1.0, "bipolar", 5, seed=3)
    assert result.ratios
    for r in result.ratios:
        assert r == pytest.approx(1.0, abs=2e-3)


def test_accuracy_ratios_bounded():
    result = accuracy_experiment(8, "erg", 0.4, "uniform", 6, seed=4)
    assert result.ratios
    assert all(0.2 < r <= 1.0 + 2e-3 for r in result.ratios)


def test_accuracy_complete_graph_uniform_below_one():
    # dense graph with uniform frequencies: the margin normalizer strictly
    # over-estimates the true critical coupling
    result = accuracy_experiment(10, "erg", 1.0, "uniform", 8, seed=6)
    assert result.ratios
    assert result.mean_ratio < 0.99
    assert result.mean_ratio > 0.3


def test_empty_accuracy_mean_ratio_is_nan_without_warning():
    # every sample can miss the bracket
    result = AccuracyResult(n=4, model="erg", p=0.9, distribution="bipolar",
                            samples=2, ratios=())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(result.mean_ratio)


def test_report_writers_keep_nan(tmp_path):
    # the CLI's JSON must still parse with a nan in it; its CSV spells nan out
    path = tmp_path / "report.json"
    write_report_json({"mean_ratio": math.nan, "ratios": [], "samples": 2}, str(path))
    assert path.read_text() == '{"mean_ratio": null, "ratios": [], "samples": 2}\n'
    assert json.loads(path.read_text())["mean_ratio"] is None
    csv_path = tmp_path / "rows.csv"
    write_rows_csv(["samples", "mean_ratio"], [[2, math.nan]], str(csv_path))
    assert csv_path.read_text() == "samples,mean_ratio\n2,nan\n"

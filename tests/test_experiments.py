"""Chernoff bookkeeping, hypothesis experiment, accuracy study, reports."""

import json
import math
import warnings

import pytest

from syncgrid.errors import InvalidLevelError
from syncgrid.experiments import (
    AccuracyResult,
    accuracy_experiment,
    chernoff_epsilon,
    chernoff_samples,
    emit_report,
    hypothesis_experiment,
)
from syncgrid.randnet import NominalNetworkSpec


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
    assert result.tolerance_used == 1e-4


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


def test_emit_report_deterministic(tmp_path):
    spec = NominalNetworkSpec(n=8, model="erg", p=0.5, alpha=5.0, seed=9)
    result = hypothesis_experiment(spec, 12)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(result, "json", str(p1))
    emit_report(result, "json", str(p2))
    assert p1.read_bytes() == p2.read_bytes()

    c1 = tmp_path / "a.csv"
    emit_report(result, "csv", str(c1))
    lines = c1.read_text().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert dict(zip(header, row))["samples"] == "12"


def test_emit_report_accuracy(tmp_path):
    result = AccuracyResult(n=4, model="erg", p=0.9, distribution="bipolar",
                            samples=2, ratios=(1.0, 0.98))
    path = tmp_path / "acc.json"
    emit_report(result, "json", str(path))
    text = path.read_text()
    assert '"mean_ratio": 0.99' in text
    with pytest.raises(ValueError):
        emit_report(result, "yaml", str(path))
    with pytest.raises(TypeError):
        emit_report(object(), "json", str(path))


def test_emit_report_empty_accuracy_is_valid_json(tmp_path):
    # every sample can miss the bracket; the report must still parse
    result = AccuracyResult(n=4, model="erg", p=0.9, distribution="bipolar",
                            samples=2, ratios=())
    path = tmp_path / "empty.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(result.mean_ratio)
        emit_report(result, "json", str(path))
    report = json.loads(path.read_text())
    assert report["mean_ratio"] is None
    assert report["ratios"] == []
    csv_path = tmp_path / "empty.csv"
    emit_report(result, "csv", str(csv_path))
    header, row = csv_path.read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["mean_ratio"] == "nan"

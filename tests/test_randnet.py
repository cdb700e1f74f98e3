"""Random graph models, weight/frequency sampling, nominal networks."""

import numpy as np
import pytest

from syncgrid.errors import ConnectivityRetryExceededError, InvalidSpecError, SyncgridError
from syncgrid.graph import WeightedGraph, _Topology, is_connected
from syncgrid.randnet import (
    MAX_RETRIES,
    NominalNetworkSpec,
    generate_graph,
    nominal_network,
    sample_frequencies,
    sample_weights,
)
from syncgrid.randnet import SMN_NEIGHBORS_PER_SIDE, _erg_edges, _smn_edges  # raw models
from syncgrid.rng import substream
from syncgrid.sync import node_cut_ratio, sync_margin


def spec(**kw):
    base = dict(n=10, model="erg", p=0.5, alpha=4.0, distribution="width",
                weighted=True, seed=0)
    base.update(kw)
    return NominalNetworkSpec(**base)


def test_erg_p_one_is_complete():
    g = generate_graph(spec(model="erg", p=1.0, n=7))
    assert g.m == 21


def test_rgg_radius_sqrt2_is_complete():
    g = generate_graph(spec(model="rgg", p=1.4143, n=8))
    assert g.m == 28


def test_smn_p_zero_is_degree_four_lattice():
    # base lattice couples each node to its nearest neighbors on both sides
    g = generate_graph(spec(model="smn", p=0.0, n=10))
    assert g.m == 20
    deg = np.zeros(10)
    for i, j, _ in g.edges:
        deg[i - 1] += 1
        deg[j - 1] += 1
    assert np.all(deg == 4)


def test_smn_rewiring_preserves_edge_count():
    g = generate_graph(spec(model="smn", p=0.6, n=16, seed=5))
    assert g.m == 32
    assert is_connected(g)


def _smn_edges_reference(n: int, p: float, rng: np.random.Generator) -> list[tuple[int, int, float]]:
    """The edge-set-scanning small-world sampler that _smn_edges must reproduce draw for draw."""
    present: set[frozenset[int]] = set()
    for i in range(1, n + 1):
        for k in range(1, SMN_NEIGHBORS_PER_SIDE + 1):
            j = (i + k - 1) % n + 1
            if i != j:
                present.add(frozenset((i, j)))
    lattice = sorted(present, key=lambda e: tuple(sorted(e)))
    for e in lattice:
        if rng.random() >= p:
            continue
        i, j = tuple(sorted(e))
        neighborhood = {i} | {next(iter(x - {i})) for x in present if i in x}
        candidates = [w for w in range(1, n + 1) if w not in neighborhood]
        if not candidates:
            continue
        w = int(candidates[rng.integers(len(candidates))])
        present.discard(e)
        present.add(frozenset((i, w)))
    return [(min(e), max(e), 1.0) for e in (tuple(s) for s in present)]


def test_smn_edges_match_reference_sampler():
    # n <= 5 covers the degenerate lattices: triangle, K4 and K5 leave no non-neighbor
    for n in (3, 4, 5, 6, 7, 10, 20, 30, 50):
        for p in (0.0, 0.1, 0.2, 0.5, 0.9, 1.0):
            for seed in range(60):
                got = _smn_edges(n, p, substream(seed, 1))
                want = _smn_edges_reference(n, p, substream(seed, 1))
                rows = sorted((min(i, j), max(i, j), w) for i, j, w in got.tolist())
                assert rows == sorted(want), (n, p, seed)


def test_generated_graphs_are_connected():
    for seed in range(10):
        for model, p in (("erg", 0.25), ("rgg", 0.45), ("smn", 0.3)):
            g = generate_graph(spec(model=model, p=p, n=12, seed=seed))
            assert is_connected(g)


def test_impossible_connectivity_raises():
    with pytest.raises(ConnectivityRetryExceededError):
        # p = 0 ERG on 3+ nodes can never be connected; cap retries via seed
        import syncgrid.randnet as rn
        old = rn.MAX_RETRIES
        rn.MAX_RETRIES = 50
        try:
            generate_graph(spec(model="erg", p=0.0, n=4))
        finally:
            rn.MAX_RETRIES = old


def test_weights_support_and_determinism():
    g = generate_graph(spec(model="erg", p=0.6, n=12, seed=3))
    w1 = sample_weights(g, substream(99, 1)).weights
    w2 = sample_weights(g, substream(99, 1)).weights
    assert np.array_equal(w1, w2)
    assert np.all(w1 >= 0.5) and np.all(w1 <= 5.0)
    assert not np.array_equal(w1, sample_weights(g, substream(100, 1)).weights)


def test_weight_mean_matches_uniform():
    # 1e5 edges: sample mean of U[0.5, 5] is 2.75 within 0.02
    n = 460
    edges = [(i, j, 1.0) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    g = WeightedGraph.from_edges(n, edges)
    assert g.m >= 100_000
    w = sample_weights(g, substream(7, 1)).weights
    assert abs(float(np.mean(w)) - 2.75) <= 0.02


def test_frequencies_zero_mean():
    for dist, alpha in (("width", 6.0), ("uniform", None), ("bipolar", None)):
        omega = sample_frequencies(25, dist, substream(11, 2), alpha=alpha)
        assert abs(float(np.sum(omega))) <= 1e-12


def test_bipolar_two_nodes():
    for seed in range(20):
        omega = sample_frequencies(2, "bipolar", substream(seed, 2))
        if omega[0] != 0.0:
            assert sorted(omega) == [-1.0, 1.0]


def test_width_support():
    omega = sample_frequencies(2000, "width", substream(13, 2), alpha=6.0)
    assert np.all(omega >= -6.0) and np.all(omega <= 6.0)


def test_nominal_network_margin_below_one():
    for seed in range(5):
        nominal = nominal_network(spec(seed=seed, alpha=8.0, p=0.3), sample=seed)
        assert nominal.margin < 1.0
        assert is_connected(nominal.graph)
        assert abs(float(np.sum(nominal.omega))) <= 1e-12
        assert nominal.attempts >= 1


def test_nominal_network_builds_one_bfs_tree_per_draw(monkeypatch):
    # the reweighted draw shares the BFS tree that generate_graph's connectivity test built
    tree = _Topology.__dict__["bfs_tree"]
    build, builds = tree.func, []
    from_edges, topologies = WeightedGraph.from_edges.__func__, []

    def counted_tree(g):
        builds.append(None)
        return build(g)

    def counted_from_edges(cls, n, edges):
        topologies.append(None)
        return from_edges(cls, n, edges)

    monkeypatch.setattr(tree, "func", counted_tree)
    monkeypatch.setattr(WeightedGraph, "from_edges", classmethod(counted_from_edges))
    nominal = nominal_network(spec(n=30, model="smn", p=0.2, alpha=13.0, seed=3))
    assert nominal.attempts > 10
    assert len(topologies) == nominal.attempts  # every topology draw was connected
    assert len(builds) == nominal.attempts


def _plain_nominal_network(nspec, sample=0):
    """The rejection loop with every draw decided by sync_margin (no node-cut
    pre-filter); returns (graph, omega, margin, attempts, cut-rejectable draws)."""
    cut_rejectable = 0
    for trial in range(MAX_RETRIES):
        g = generate_graph(nspec, sample=sample * MAX_RETRIES + trial)
        if nspec.weighted:
            g = sample_weights(g, substream(nspec.seed, sample, 1, trial))
        omega = sample_frequencies(nspec.n, nspec.distribution,
                                   substream(nspec.seed, sample, 2, trial), alpha=nspec.alpha)
        cut_rejectable += node_cut_ratio(g, omega) >= 1.0 + 1e-9
        margin = sync_margin(g, omega).margin
        if margin < 1.0:
            return g, omega, margin, trial + 1, cut_rejectable
    raise AssertionError("no accepted draw")


@pytest.mark.parametrize("model, n, p, alpha", [("erg", 12, 0.3, 10.0), ("rgg", 12, 0.45, 9.0),
                                                ("smn", 20, 0.2, 13.0)])
def test_nominal_network_decisions_match_plain_rejection_loop(model, n, p, alpha):
    # the node-cut pre-filter only skips draws that sync_margin rejects as well
    skipped = 0
    for seed in range(40):
        s = spec(n=n, model=model, p=p, alpha=alpha, seed=seed)
        g, omega, margin, attempts, cut_rejectable = _plain_nominal_network(s, sample=seed % 3)
        nominal = nominal_network(s, sample=seed % 3)
        assert nominal.graph == g
        assert nominal.omega.tobytes() == omega.tobytes()
        assert nominal.margin == margin
        assert nominal.attempts == attempts
        skipped += cut_rejectable
    assert skipped > 0  # the pre-filter was exercised on this model


def test_nominal_network_determinism():
    a = nominal_network(spec(seed=4), sample=2)
    b = nominal_network(spec(seed=4), sample=2)
    assert a.graph == b.graph
    assert np.array_equal(a.omega, b.omega)
    c = nominal_network(spec(seed=4), sample=3)
    assert (c.graph != a.graph) or (not np.array_equal(c.omega, a.omega))


def test_erg_edge_count_moment():
    # mean edge count over 1e4 raw draws within 3 sigma of p*n(n-1)/2
    n, p, draws = 10, 0.7, 10_000
    pairs = n * (n - 1) // 2
    counts = np.array([
        len(_erg_edges(n, p, substream(17, t))) for t in range(draws)
    ])
    expected = p * pairs
    sigma_mean = np.sqrt(pairs * p * (1 - p) / draws)
    assert abs(counts.mean() - expected) <= 3 * sigma_mean


def test_nominal_cohesiveness_calibration():
    # the published alpha values target an average equilibrium cohesiveness
    # near pi/3; check the ballpark on one calibrated cell
    from syncgrid.equilibrium import solve_equilibrium

    cohesivenesses = []
    for sample in range(30):
        nominal = nominal_network(spec(n=10, model="erg", p=0.3, alpha=8.0, seed=6),
                                  sample=sample)
        sol = solve_equilibrium(nominal.graph, nominal.omega)
        cohesivenesses.append(sol.cohesiveness)
    mean = float(np.mean(cohesivenesses))
    assert 0.6 <= mean <= 1.35  # pi/3 = 1.047 within sampling slack


def test_spec_validation():
    with pytest.raises(ValueError):
        NominalNetworkSpec(n=10, model="bogus", p=0.5)
    for alpha in (None, 0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidSpecError, match="finite alpha > 0"):
            NominalNetworkSpec(n=10, model="erg", p=0.5, distribution="width", alpha=alpha)
        with pytest.raises(InvalidSpecError, match="finite alpha > 0"):
            sample_frequencies(10, "width", substream(0, 2), alpha=alpha)
    with pytest.raises(InvalidSpecError, match="unknown distribution"):
        sample_frequencies(10, "gauss", substream(0, 2))
    with pytest.raises(ValueError):
        NominalNetworkSpec(n=1, model="erg", p=0.5, alpha=1.0)
    # p is a probability for erg/smn; only the rgg radius may exceed 1
    for model, p in (("erg", 1.4), ("smn", 1.01), ("rgg", 1.6)):
        with pytest.raises(InvalidSpecError):
            NominalNetworkSpec(n=10, model=model, p=p, alpha=1.0)
    assert issubclass(InvalidSpecError, ValueError)
    assert issubclass(InvalidSpecError, SyncgridError)

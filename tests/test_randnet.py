"""Random graph models, weight/frequency sampling, nominal networks."""

import numpy as np
import pytest

import syncgrid.randnet as rn
from syncgrid.errors import (ConnectivityRetryExceededError, InvalidSpecError,
                             MarginRetryExceededError, SyncgridError)
from syncgrid.graph import WeightedGraph, is_connected
from syncgrid.randnet import (
    CUT_SLACK,
    MAX_RETRIES,
    NominalNetworkSpec,
    generate_graph,
    nominal_network,
    sample_frequencies,
    sample_weights,
)
from syncgrid.randnet import (SMN_NEIGHBORS_PER_SIDE, _EDGE_MODELS, _erg_edges, _pairs,  # raw models
                              _smn_edges, _smn_lattice)
from syncgrid.randnet import _node_sums, _stacked_margins  # the block sampler's stacked solve
from syncgrid.rng import PhiloxStreams, philox_keys, substream
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


def _scalar_smn_edges(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """The small-world builder one Generator call at a time: each lattice edge in sorted
    order draws rng.random() and, when rewired, rng.integers(count) over the non-neighbors
    of i in increasing id order; _smn_edges must give these edges key for key."""
    lattice = _smn_lattice(n)[0]
    edges = np.array([(i, j, 1.0) for i, j in lattice]).reshape(-1, 3)
    adj = [set() for _ in range(n + 1)]
    for i, j in lattice:
        adj[i].add(j)
        adj[j].add(i)
    for k, (i, j) in enumerate(lattice):
        if rng.random() >= p:
            continue
        nbrs = adj[i]
        count = n - 1 - len(nbrs)
        if count == 0:
            continue
        w = int(rng.integers(count)) + 1
        for x in sorted((i, *nbrs)):
            if x <= w:
                w += 1
        nbrs.discard(j)
        adj[j].discard(i)
        nbrs.add(w)
        adj[w].add(i)
        edges[k, 1] = w
    return edges


def _pair_rows(n):
    iu, ju = _pairs(n)
    return np.column_stack((iu + 1, ju + 1, np.ones(len(iu))))


def _scalar_erg_edges(n, p, rng):
    rows = _pair_rows(n)
    return rows[rng.random(len(rows)) < p]


def _scalar_rgg_edges(n, radius, rng):
    pts = rng.random((n, 2))
    iu, ju = _pairs(n)
    return _pair_rows(n)[np.linalg.norm(pts[iu] - pts[ju], axis=1) <= radius]


_SCALAR_MODELS = {"erg": _scalar_erg_edges, "rgg": _scalar_rgg_edges, "smn": _scalar_smn_edges}


def _trial_edges(block, count):
    """A block builder's (row, src, snk) as one list of 1-based (i, j) pairs per trial,
    checking the form the block sampler relies on: trials in order, i < j sorted."""
    row, src, snk = block
    assert np.all(np.diff(row) >= 0) and np.all(src < snk)
    trials = [[] for _ in range(count)]
    for r, i, j in zip(row.tolist(), src.tolist(), snk.tolist()):
        trials[r].append((i + 1, j + 1))
    assert all(edges == sorted(edges) for edges in trials)
    return trials


def _oriented(rows):
    """(i, j, w) rows as the sorted list of their (min, max) pairs."""
    return sorted((min(i, j), max(i, j)) for i, j in rows[:, :2].astype(int).tolist())


def test_smn_edges_match_reference_sampler():
    # n <= 5 covers the degenerate lattices: triangle, K4 and K5 leave no non-neighbor;
    # the 60 streams (seed, 1), one per seed, form one block
    streams = PhiloxStreams()
    for n in (3, 4, 5, 6, 7, 10, 20, 30, 50):
        for p in (0.0, 0.1, 0.2, 0.5, 0.9, 1.0):
            keys = np.concatenate([philox_keys(seed, [[1]]) for seed in range(60)])
            for seed, got in enumerate(_trial_edges(_smn_edges(n, p, keys, streams), 60)):
                want = _smn_edges_reference(n, p, substream(seed, 1))
                assert got == sorted((i, j) for i, j, _ in want), (n, p, seed)


@pytest.mark.parametrize("prefetch", [None, 4])
def test_smn_block_matches_scalar_builder(monkeypatch, prefetch):
    # 20,000 draws from the streams substream(case, t) in blocks of 1 and 32; n = 5
    # only meets count == 0 (K5) and n = 6 starts at count == 1, which reads no word.
    # With 4 prefetched words a stream reads its later tests and bounded draws on
    # from the stream.
    if prefetch is not None:
        monkeypatch.setattr(rn, "_smn_words", lambda m: prefetch)
    cases = [(3, .5), (4, .7), (5, .5), (6, 1.0), (7, .95), (10, .9), (20, .1), (30, 0.0),
             (30, .2), (40, .6)]
    streams = PhiloxStreams()
    draws = 0
    for case, (n, p) in enumerate(cases):
        for block in (1, 32):
            keys = philox_keys(case, np.arange(1000 if prefetch is None else 64)[:, None])
            for at in range(0, len(keys), block):
                chunk = keys[at:at + block]
                got = _trial_edges(_smn_edges(n, p, chunk, streams), len(chunk))
                for t, edges in enumerate(got, start=at):
                    assert edges == _oriented(_scalar_smn_edges(n, p, substream(case, t)))
                    draws += 1
    assert draws >= (20_000 if prefetch is None else 1_000)


def test_generated_graphs_are_connected():
    for seed in range(10):
        for model, p in (("erg", 0.25), ("rgg", 0.45), ("smn", 0.3)):
            g = generate_graph(spec(model=model, p=p, n=12, seed=seed))
            assert is_connected(g)


def test_impossible_connectivity_raises():
    with pytest.raises(ConnectivityRetryExceededError):
        # p = 0 ERG on 3+ nodes can never be connected; cap retries via seed
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


def test_nominal_network_builds_graphs_only_for_candidates(monkeypatch):
    # a WeightedGraph is built only for a trial that the node-cut filter and the
    # stacked margin pass, and sync_margin decides each one, in trial order
    graph, margin_of = rn.WeightedGraph, rn.sync_margin
    built, decided = [], []

    def counted_graph(n, edges):
        built.append(graph(n, edges))
        return built[-1]

    def recorded_margin(g, omega):
        assessment = margin_of(g, omega)
        decided.append((g, assessment.margin))
        return assessment

    monkeypatch.setattr(rn, "WeightedGraph", counted_graph)
    monkeypatch.setattr(rn, "sync_margin", recorded_margin)
    for seed in range(4):
        built.clear()
        decided.clear()
        nominal = nominal_network(spec(n=30, model="smn", p=0.2, alpha=13.0, seed=seed))
        assert nominal.attempts > 10
        assert [g for g, _ in decided] == built
        assert all(1.0 <= m < 1.0 + CUT_SLACK for _, m in decided[:-1])
        assert decided[-1][1] == nominal.margin and nominal.graph is built[-1]
        assert len(built) < nominal.attempts


def _plain_generate_graph(nspec, sample):
    """generate_graph as a loop over the (seed, sample, 0, trial) streams, one draw at a
    time; returns the first connected draw and its trial."""
    for trial in range(MAX_RETRIES):
        rng = substream(nspec.seed, sample, 0, trial)
        g = WeightedGraph(nspec.n, _SCALAR_MODELS[nspec.model](nspec.n, nspec.p, rng))
        if is_connected(g):
            return g, trial
    raise ConnectivityRetryExceededError("no connected draw")


def _plain_nominal_network(nspec, sample=0):
    """The rejection loop one trial at a time, every draw decided by sync_margin (no
    blocks, no node-cut filter); returns (graph, omega, margin, attempts, cut-rejectable
    draws)."""
    cut_rejectable = 0
    for trial in range(MAX_RETRIES):
        g, _ = _plain_generate_graph(nspec, sample * MAX_RETRIES + trial)
        if nspec.weighted:
            g = sample_weights(g, substream(nspec.seed, sample, 1, trial))
        omega = sample_frequencies(nspec.n, nspec.distribution,
                                   substream(nspec.seed, sample, 2, trial), alpha=nspec.alpha)
        cut_rejectable += node_cut_ratio(g, omega) >= 1.0 + 1e-9
        margin = sync_margin(g, omega).margin
        if margin < 1.0:
            return g, omega, margin, trial + 1, cut_rejectable
    raise AssertionError("no accepted draw")


@pytest.mark.parametrize("model, n, p, alpha, distribution, weighted", [
    ("erg", 12, 0.3, 10.0, "width", True), ("rgg", 12, 0.45, 9.0, "width", True),
    ("smn", 20, 0.2, 13.0, "width", True), ("erg", 10, 0.3, 8.0, "width", False),
    ("smn", 12, 0.2, 5.0, "width", False), ("erg", 10, 0.3, None, "uniform", True),
    ("rgg", 12, 0.3, None, "uniform", True), ("erg", 10, 0.35, None, "bipolar", True),
    ("erg", 10, 0.25, None, "bipolar", False), ("rgg", 14, 0.3, None, "bipolar", True),
    ("erg", 220, 0.03, 5.0, "width", True),
], ids=["erg-12-0.3-10.0", "rgg-12-0.45-9.0", "smn-20-0.2-13.0", "erg-10-0.3-8.0-unit",
        "smn-12-0.2-5.0-unit", "erg-10-0.3-uniform", "rgg-12-0.3-uniform", "erg-10-0.35-bipolar",
        "erg-10-0.25-bipolar-unit", "rgg-14-0.3-bipolar", "erg-220-0.03-5.0"])
def test_nominal_network_decisions_match_plain_rejection_loop(model, n, p, alpha, distribution,
                                                              weighted):
    # the blocks, the node-cut filter and the stacked margins only skip draws that
    # sync_margin rejects as well; from n = SPARSE_MIN_NODES on sync_margin solves
    # sparse and the stacked margins may differ from it in the last bits
    skipped = 0
    for seed in range(40):
        s = spec(n=n, model=model, p=p, alpha=alpha, distribution=distribution,
                 weighted=weighted, seed=seed)
        g, omega, margin, attempts, cut_rejectable = _plain_nominal_network(s, sample=seed % 3)
        nominal = nominal_network(s, sample=seed % 3)
        assert nominal.graph == g
        assert nominal.omega.tobytes() == omega.tobytes()
        assert nominal.margin == margin
        assert nominal.attempts == attempts
        assert nominal.cut_rejections == cut_rejectable
        skipped += cut_rejectable
    assert skipped > 0  # the pre-filter was exercised on this model


@pytest.mark.parametrize("model, n, p, depth", [
    pytest.param("erg", 10, 0.3, 0, id="erg-10-0.3"),
    pytest.param("erg", 8, 0.2, 8, id="erg-8-0.2"),
    pytest.param("rgg", 12, 0.4, 0, id="rgg-12-0.4"),
    pytest.param("smn", 30, 0.2, 0, id="smn-30-0.2"),
    pytest.param("erg", 10, 0.12, 100, id="erg-10-0.12"),
])
def test_generate_graph_matches_plain_loop(model, n, p, depth):
    # the sparse erg cases redraw for many rounds: some sample's first connected
    # draw is at inner index depth or later; 2^32 + 5 takes a two-word stream path
    deepest = 0
    for seed in range(30):
        s = spec(n=n, model=model, p=p, seed=seed)
        for sample in (0, 3, 2**32 + 5):
            g, trial = _plain_generate_graph(s, sample)
            assert generate_graph(s, sample) == g
            deepest = max(deepest, trial)
    assert deepest >= depth


def test_topology_rounds_derive_one_key_per_pending_sample(monkeypatch):
    # a block derives its trials' inner-draw-0 keys and stage keys in one pass; each
    # later round derives one key per sample it redraws, right before that draw
    keys_of, build = rn.philox_keys, _EDGE_MODELS["erg"]
    events = []

    def counted_keys(seed, paths):
        events.append(("keys", len(paths)))
        return keys_of(seed, paths)

    def counted_build(n, p, keys, streams):
        events.append(("draw", len(keys)))
        return build(n, p, keys, streams)

    def passes():
        """(rows, draws) of each key pass and of the draws that follow it."""
        assert [kind for kind, _ in events] == ["keys", "draw"] * (len(events) // 2)
        pairs = [(rows, drawn) for (_, rows), (_, drawn) in zip(events[::2], events[1::2])]
        events.clear()
        return pairs

    monkeypatch.setattr(rn, "philox_keys", counted_keys)
    monkeypatch.setitem(_EDGE_MODELS, "erg", counted_build)
    redraws = 0
    for weighted, stages in ((True, 2), (False, 1)):
        for seed in range(10):
            s = spec(n=8, model="erg", p=0.2, alpha=6.0, weighted=weighted, seed=seed)
            attempts = nominal_network(s).attempts
            sizes, pending = [], 0
            for rows, drawn in passes():
                if rows == drawn * (1 + stages):  # a block's first pass
                    sizes.append(drawn)
                else:  # a redraw round of that block
                    assert rows == drawn <= pending
                    redraws += 1
                pending = drawn
            assert sizes == [min(rn.BLOCK_GROWTH**b, rn.MAX_BLOCK) for b in range(len(sizes))]
            assert sum(sizes[:-1]) < attempts <= sum(sizes)
            generate_graph(s, seed)
            assert all(rows == drawn == 1 for rows, drawn in passes())
    assert redraws > 0


def test_retry_errors_come_after_exactly_max_retries_trials(monkeypatch):
    monkeypatch.setattr(rn, "MAX_RETRIES", 37)
    build, calls = _EDGE_MODELS["erg"], []

    def counted(n, p, keys, streams):  # one key per topology draw
        calls.extend(keys)
        return build(n, p, keys, streams)

    monkeypatch.setitem(_EDGE_MODELS, "erg", counted)
    # a complete graph is always connected, and this width never gives margin < 1
    with pytest.raises(MarginRetryExceededError):
        nominal_network(spec(n=6, model="erg", p=1.0, alpha=1000.0))
    assert len(calls) == 37
    # p = 0 on 4 nodes is never connected: the first trial uses up its draws
    calls.clear()
    with pytest.raises(ConnectivityRetryExceededError):
        nominal_network(spec(n=4, model="erg", p=0.0))
    assert len(calls) == 37
    calls.clear()
    with pytest.raises(ConnectivityRetryExceededError):
        generate_graph(spec(n=4, model="erg", p=0.0), sample=5)
    assert len(calls) == 37


def test_stacked_margins_equal_sync_margin_bit_for_bit():
    # weighted erg, rgg and smn draws with width, uniform and bipolar frequencies,
    # 60 trials a stack, every seventh left out as the node-cut filter leaves trials out
    cases = [("erg", 10, 0.3, "width", 8.0), ("erg", 20, 0.3, "uniform", None),
             ("rgg", 12, 0.45, "width", 9.0), ("rgg", 16, 0.4, "bipolar", None),
             ("smn", 30, 0.2, "width", 13.0), ("smn", 12, 0.3, "uniform", None)]
    checked = 0
    for case, (model, n, p, distribution, alpha) in enumerate(cases):
        s = spec(n=n, model=model, p=p, distribution=distribution, alpha=alpha, seed=case)
        for chunk in range(34):
            samples = range(60 * chunk, 60 * chunk + 60)
            graphs = [sample_weights(generate_graph(s, k), substream(case, k, 1)) for k in samples]
            omegas = [sample_frequencies(n, distribution, substream(case, k, 2), alpha)
                      for k in samples]
            row = np.repeat(np.arange(len(graphs)), [g.m for g in graphs])
            starts = np.concatenate([[0], np.cumsum([g.m for g in graphs])])
            src, snk, weights = (np.concatenate([getattr(g, a) for g in graphs])
                                 for a in ("sources", "sinks", "weights"))
            degrees = _node_sums(n, row, src, snk, weights)
            assert all(d.tobytes() == g.weighted_degrees().tobytes()
                       for d, g in zip(degrees, graphs))
            solve = np.arange(len(graphs)) % 7 != 3
            margins = _stacked_margins(n, row, starts, src, snk, weights, degrees,
                                       np.array(omegas), solve)
            for g, omega, margin, solved in zip(graphs, omegas, margins.tolist(), solve):
                assert margin == (sync_margin(g, omega).margin if solved else np.inf)
                checked += solved
    assert checked >= 10_000


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
    keys = philox_keys(17, np.arange(draws)[:, None])  # the streams substream(17, t)
    counts = np.bincount(_erg_edges(n, p, keys, PhiloxStreams())[0], minlength=draws)
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
    with pytest.raises(InvalidSpecError, match="seed must be non-negative"):
        NominalNetworkSpec(n=10, model="erg", p=0.5, alpha=1.0, seed=-1)


def test_samples_must_fit_the_stream_paths():
    # topology sample s takes the path entry s; nominal sample k the entries
    # k * MAX_RETRIES + t for t < MAX_RETRIES: every one must fit an int64
    s = spec(n=6, model="erg", p=0.9, alpha=1.0)
    last = 2**63 // MAX_RETRIES - 1
    for call, bad in ((generate_graph, 2**63), (nominal_network, last + 1)):
        for sample in (-1, bad):
            with pytest.raises(InvalidSpecError, match=f"got {sample}"):
                call(s, sample)
    assert generate_graph(s, 2**63 - 1).n == 6
    assert nominal_network(s, last).margin < 1.0

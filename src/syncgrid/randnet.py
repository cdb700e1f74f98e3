"""Random network models and nominal-network rejection sampling.

Three one-parameter topology families are supported:

  erg  Erdos-Renyi: each pair connected independently with probability p.
  rgg  random geometric graph: uniform points in the unit square, edge
       when the distance is at most p (open boundary, no torus).
  smn  Watts-Strogatz small world: ring coupling to the two nearest
       neighbors, each edge rewired with probability p.

Disconnected realizations are discarded and resampled.  A nominal network
is a (graph, frequencies) pair additionally conditioned on margin < 1;
samples violating the margin are likewise discarded.  The whole pipeline
is a pure function of (spec, sample index).

Streams.  Trial t of nominal sample k draws its topology from the streams
(seed, k * MAX_RETRIES + t, 0, inner), inner = 0, 1, ... until one is
connected (generate_graph's streams for topology sample k * MAX_RETRIES +
t), its weights from (seed, k, 1, t) and its frequencies from (seed, k, 2,
t).  rng.philox_keys derives the Philox keys of many such paths in one
vectorised pass, the words numpy's SeedSequence would give: the seed's
share of SeedSequence's hash is computed once per seed, and each path word
is then one round of uint32 array operations over all the paths.  One
rng.PhiloxStreams generator per call is re-keyed for each stream, so every
draw is the one substream(seed, *path) gives.  The small-world builder
reads its streams as raw words (PhiloxStreams.words) and decodes its
random() and integers() draws from them (rng.unit_floats, rng.WordDraws),
bit for bit the draws a Generator on the same stream makes
(tests/test_randnet.py keeps the one-call-at-a-time builder as the
reference).

Block sampler.  nominal_network decides its trials in blocks of 1, 2, 4, ...
up to MAX_BLOCK trials.  Per block, one key pass covers every stream the
block needs; the topology builder draws every trial of the block in one
call, each trial makes its weight and frequency draws, and the block is
filtered at once: edges oriented and sorted, connectivity by reachability
from node 1 (a disconnected trial redraws at its next inner index, as
generate_graph does), weighted degrees
and the node-cut ratio, and one stacked LAPACK solve of the augmented
Laplacians L + 11^T/n of the trials the node-cut filter passes, assembled as
WeightedGraph.laplacian() and solve_poisson assemble them.  The block is
then scanned in trial order: a trial whose node-cut ratio and stacked margin
are both below 1 + CUT_SLACK becomes a WeightedGraph and sync_margin decides
it.  The first accepted trial returns with attempts = t + 1; trials drawn
after it in its block are discarded.  Growing blocks keep the erg cells,
which accept within a few trials, from paying for trials they never need.

Node-cut pre-filter.  A draw whose worst single-node cut ratio
sync.node_cut_ratio, max_i |omega_i| / deg_i, is at least 1 + CUT_SLACK is
rejected without its Poisson solve.  Proof: sync_margin's psi_particular
is a flow with B diag(a) psi = omega, and at node i
|omega_i| <= deg_i ||psi||_inf, so margin >= ratio (Gale's cut bound for
S = {i}).  A skipped draw could have been accepted only if rounding
moved its computed margin below 1, by at least ratio - 1 >= CUT_SLACK =
1e-9; the solve's rounding is about cond(L) * 1e-16 relative, far below
that at the sizes studied.  The same slack covers the stacked margin.  It
solves the same matrices and right-hand sides with the same LAPACK routine,
so it equals sync_margin's bit for bit (tests check 10,000 draws); were its
rounding ever to differ, the two would still agree to about cond(L) * 1e-16
relative, so a trial whose stacked margin is at least 1 + CUT_SLACK has a
sync_margin of at least 1 and is rejected either way.  Samples, margins and
attempts thus stay bit for bit those of the one-trial-at-a-time loop (tests
compare every decision with that loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConnectivityRetryExceededError, InvalidSpecError, MarginRetryExceededError
from .graph import WeightedGraph
from .rng import PhiloxStreams, WordDraws, philox_keys, unit_floats
from .sync import sync_margin

MAX_RETRIES = 10_000

WEIGHT_LOW = 0.5
WEIGHT_HIGH = 5.0

# A node-cut ratio this far above 1 proves margin >= 1 (module docstring).
CUT_SLACK = 1e-9

# Substream stages (third path component).
_STAGE_TOPOLOGY = 0
_STAGE_WEIGHTS = 1
_STAGE_FREQUENCIES = 2


@dataclass(frozen=True)
class NominalNetworkSpec:
    """Parameters of a nominal random network family.

    p is the edge (erg) or rewiring (smn) probability in [0, 1], or the
    connection radius (rgg) in [0, 1.5]; sqrt(2) already covers the unit
    square.  distribution selects the frequency sampling: "width" draws
    uniformly from [-alpha/2, alpha/2], "uniform" from [-1, 1], "bipolar"
    from {-1, +1}.  weighted toggles uniform [0.5, 5] coupling weights versus
    unit weights.  The seed fully determines every sample.
    """

    n: int
    model: str  # "erg" | "rgg" | "smn"
    p: float
    alpha: float | None = None
    distribution: str = "width"
    weighted: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("erg", "rgg", "smn"):
            raise InvalidSpecError(f"unknown model {self.model!r}")
        p_max = 1.5 if self.model == "rgg" else 1.0
        if not 0.0 <= self.p <= p_max:
            raise InvalidSpecError(
                f"{self.model} coupling parameter p = {self.p} outside [0, {p_max}]")
        _check_distribution(self.distribution, self.alpha)
        if self.n < 2:
            raise InvalidSpecError("need n >= 2")


def _check_distribution(distribution: str, alpha: float | None) -> None:
    """InvalidSpecError for an unknown distribution or a width one without a finite alpha > 0."""
    if distribution not in ("width", "uniform", "bipolar"):
        raise InvalidSpecError(f"unknown distribution {distribution!r}")
    if distribution == "width" and not (alpha is not None and 0 < alpha < np.inf):
        raise InvalidSpecError(f"width distribution requires a finite alpha > 0, got {alpha}")


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All node pairs i < j in np.triu_indices order, as 0-based index arrays and
    as (i + 1, j + 1, 1.0) rows; built once per n, read-only."""
    iu, ju = np.triu_indices(n, k=1)
    rows = np.column_stack((iu + 1, ju + 1, np.ones(len(iu))))
    for a in (iu, ju, rows):
        a.flags.writeable = False
    return iu, ju, rows


def _erg_edges(n: int, p: float, keys: np.ndarray, streams: PhiloxStreams) -> list[np.ndarray]:
    """Per key, the pairs whose random() draw, one per pair in order, is below p."""
    rows = _pairs(n)[2]
    return [rows[streams.keyed(key).random(len(rows)) < p] for key in keys]


def _rgg_edges(n: int, radius: float, keys: np.ndarray,
               streams: PhiloxStreams) -> list[np.ndarray]:
    """Per key, the pairs at most radius apart, of n points drawn as random((n, 2))."""
    iu, ju, rows = _pairs(n)
    out = []
    for key in keys:
        pts = streams.keyed(key).random((n, 2))
        out.append(rows[np.linalg.norm(pts[iu] - pts[ju], axis=1) <= radius])
    return out


SMN_NEIGHBORS_PER_SIDE = 2  # canonical small-world base lattice (degree 4)


@lru_cache(maxsize=None)
def _smn_lattice(n: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray, tuple[int, ...]]:
    """Sorted (i, j), i < j, edges of the ring joining each node to its nearest
    neighbors, the same edges as a read-only (m, 3) array of unit-weight rows,
    and the neighbors of every node id as a bit mask, bit j for node j (index 0
    unused)."""
    present = set()
    for i in range(1, n + 1):
        for k in range(1, SMN_NEIGHBORS_PER_SIDE + 1):
            j = (i + k - 1) % n + 1
            if i != j:
                present.add((min(i, j), max(i, j)))
    pairs = tuple(sorted(present))
    rows = np.array([(i, j, 1.0) for i, j in pairs]).reshape(-1, 3)
    rows.flags.writeable = False
    nbrs = [0] * (n + 1)
    for i, j in pairs:
        nbrs[i] |= 1 << j
        nbrs[j] |= 1 << i
    return pairs, rows, tuple(nbrs)


def _smn_words(m: int) -> int:
    """Words prefetched per smn stream: m rewire tests and a 32-bit half for every
    rewire, the whole draw unless a bounded draw is rejected."""
    return -(-3 * m // 8) * 4


def _smn_edges(n: int, p: float, keys: np.ndarray, streams: PhiloxStreams) -> list[np.ndarray]:
    """Small-world lattices with probabilistic rewiring, as (i, j, 1.0) rows, one per key.

    The base ring couples every node to its nearest neighbors on each side
    (degree 4, the canonical small-world lattice: a degree-2 ring is so
    resistive that margin-conditioned sampling of larger networks becomes
    impossible).  Rewiring keeps endpoint i of a lattice edge and retargets
    the other endpoint to a uniformly chosen non-neighbor; self-loops and
    duplicate edges are rejected by construction.

    A stream draws as a Generator would: lattice edges are visited in sorted
    order, each drawing random() and, when it is below p, integers(count)
    over the count non-neighbors of i in increasing id order; an i with no
    non-neighbor keeps its edge.  Each lattice edge is rewired at most once,
    at its visit, so a rewire sets j in its own row of the lattice array (j
    may fall below i; WeightedGraph and the block sampler orient and sort).

    The draws are decoded from raw words (rng.WordDraws).  One comparison
    of the block's prefetched words with p gives every rewire test, and only
    the rewired edges are walked (_rewired_edges).  Neighbor sets are bit
    masks (bit j for node j), so count is a popcount and the chosen
    non-neighbor a short fixed-point search.
    """
    lattice, rows, lattice_nbrs = _smn_lattice(n)
    m = len(lattice)
    words = streams.words(keys, _smn_words(m))
    hits = np.flatnonzero(unit_floats(words) < p)
    ends = np.searchsorted(hits, np.arange(1, len(keys) + 1) * words.shape[1]).tolist()
    hits = (hits % words.shape[1]).tolist()
    out, first = [], 0
    for key, row_words, last in zip(keys, words.tolist(), ends):
        edges = rows.copy()
        out.append(edges)
        draws = WordDraws(streams, key, row_words)
        targets, adj = edges[:, 1], list(lattice_nbrs)
        for k in _rewired_edges(draws, hits[first:last], m, p):
            i, j = lattice[k]
            near = adj[i] | 1 << i
            count = n - near.bit_count()  # ids that are neither i nor a neighbor of i
            if count == 0:
                continue
            rank = draws.integers(count) + 1
            w = rank  # the free id of that rank: the least w = rank + (near ids up to w)
            while (nxt := rank + (near & (2 << w) - 1).bit_count()) != w:
                w = nxt
            adj[i] ^= 1 << j | 1 << w
            adj[j] ^= 1 << i
            adj[w] |= 1 << i
            targets[k] = w
        first = last
    return out


def _rewired_edges(draws: WordDraws, tests: list[int], m: int, p: float):
    """The lattice edges whose random() draw is below p, in visit order.

    tests are the indices of the prefetched words below p.  Between two
    rewires the stream's words are consecutive edge tests, so after the
    caller's bounded draws the next rewired edge is at the next test that no
    bounded draw has taken: edge k's test is word k + taken.  Past the
    prefetched words the tests read on, one random() at a time.
    """
    prefetched, taken = len(draws.words), 0  # taken: words of bounded draws before the next test
    for q in tests:
        if q < draws.pos:
            continue
        k = q - taken
        if k >= m:
            return
        draws.pos = q + 1
        yield k
        taken = draws.pos - k - 1
    draws.pos = max(draws.pos, prefetched)
    for k in range(draws.pos - taken, m):
        if draws.random() < p:
            yield k


_EDGE_MODELS = {"erg": _erg_edges, "rgg": _rgg_edges, "smn": _smn_edges}

# Topology keys derived per stream pass, for inner draws window .. window + 3.
_TOPOLOGY_KEYS = 4


def _connectivity_error(spec: NominalNetworkSpec) -> ConnectivityRetryExceededError:
    return ConnectivityRetryExceededError(
        f"no connected {spec.model} graph with n={spec.n}, p={spec.p} in {MAX_RETRIES} tries")


def _topology_paths(samples: np.ndarray, window: int) -> np.ndarray:
    """Stream paths (s, _STAGE_TOPOLOGY, window + d), d < _TOPOLOGY_KEYS, per sample s in turn."""
    paths = np.empty((len(samples), _TOPOLOGY_KEYS, 3), np.int64)
    paths[:, :, 0] = samples[:, None]
    paths[:, :, 1] = _STAGE_TOPOLOGY
    paths[:, :, 2] = np.arange(window, window + _TOPOLOGY_KEYS)
    return paths.reshape(-1, 3)


def _connected_draws(n: int, draws: list[np.ndarray]) -> np.ndarray:
    """Per (i, j, weight) edge array, whether it connects nodes 1..n.

    All draws at once: the set reached from node 1 grows over every edge
    with a reached end until it stops growing.
    """
    edges = np.concatenate(draws)
    ends = edges[:, :2].astype(np.intp)
    ends += np.repeat(np.arange(-1, n * len(draws) - 1, n), [len(e) for e in draws])[:, None]
    tails, heads = ends.T.ravel(), ends[:, ::-1].T.ravel()  # both directions
    reached = np.zeros(n * len(draws), bool)
    reached[::n] = True
    count = len(draws)
    while True:
        reached[heads[reached[tails]]] = True
        grown = np.count_nonzero(reached)
        if grown == count:
            return reached.reshape(-1, n).all(axis=1)
        count = grown


def _connected_topologies(spec: NominalNetworkSpec, samples: np.ndarray, keys: np.ndarray,
                          streams: PhiloxStreams) -> list[np.ndarray]:
    """The first connected draw of each topology sample, as (i, j, 1.0) rows.

    Topology sample s draws from the streams (seed, s, _STAGE_TOPOLOGY,
    inner) for inner = 0, 1, ... in turn, as generate_graph always has; keys,
    (len(samples), _TOPOLOGY_KEYS, 2), holds the first _TOPOLOGY_KEYS.
    Inner draw 0 of every sample is made and tested first.  A sample still
    disconnected then draws the rest of its key window at once, and each
    later window whole; its first connected draw is kept, so the draws past
    it change nothing.  The list stops before the first sample with no
    connected draw in MAX_RETRIES: the samples after it are of no use to a
    caller, which raises there.
    """
    build = _EDGE_MODELS[spec.model]
    found: list = [None] * len(samples)
    pending = np.arange(len(samples))
    lo, hi = 0, 1  # the inner draws of this round
    while pending.size:
        if lo == MAX_RETRIES:
            return found[:pending[0]]
        if lo % _TOPOLOGY_KEYS == 0 and lo:
            keys = philox_keys(spec.seed, _topology_paths(samples[pending], lo))
            keys = keys.reshape(len(pending), _TOPOLOGY_KEYS, 2)
        hi = min(hi, MAX_RETRIES)
        width, at = hi - lo, lo % _TOPOLOGY_KEYS
        draws = build(spec.n, spec.p, keys[:, at:at + width].reshape(-1, 2), streams)
        connected = _connected_draws(spec.n, draws).reshape(-1, width)
        hit = connected.any(axis=1)
        for r, k in zip(np.flatnonzero(hit).tolist(), connected.argmax(axis=1)[hit].tolist()):
            found[pending[r]] = draws[r * width + k]
        pending, keys = pending[~hit], keys[~hit]
        lo = hi
        hi = (lo // _TOPOLOGY_KEYS + 1) * _TOPOLOGY_KEYS  # the end of lo's window
    return found


def generate_graph(spec: NominalNetworkSpec, sample: int = 0) -> WeightedGraph:
    """Sample a connected unit-weight topology for the given spec.

    Disconnected draws are discarded; after MAX_RETRIES attempts the
    (n, p) combination is declared infeasible.  The one-sample case of
    nominal_network's topology draw.
    """
    samples = np.array([sample])
    keys = philox_keys(spec.seed, _topology_paths(samples, 0)).reshape(1, _TOPOLOGY_KEYS, 2)
    found = _connected_topologies(spec, samples, keys, PhiloxStreams())
    if not found:
        raise _connectivity_error(spec)
    return WeightedGraph(spec.n, found[0])


def _draw_weights(m: int, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=m)


def sample_weights(g: WeightedGraph, rng: np.random.Generator) -> WeightedGraph:
    """Assign i.i.d. uniform [0.5, 5] weights, drawn from rng, to the (sorted) edge list."""
    return g.with_weights(_draw_weights(g.m, rng))


def _draw_frequencies(n: int, distribution: str, rng: np.random.Generator,
                      alpha: float | None) -> np.ndarray:
    """Raw natural frequencies of a checked distribution, before recentring."""
    if distribution == "width":
        return rng.uniform(-alpha / 2.0, alpha / 2.0, size=n)
    if distribution == "uniform":
        return rng.uniform(-1.0, 1.0, size=n)
    return rng.choice(np.array([-1.0, 1.0]), size=n)


def sample_frequencies(
    n: int, distribution: str, rng: np.random.Generator, alpha: float | None = None,
) -> np.ndarray:
    """Draw natural frequencies from rng and recentre them to exact zero mean.

    An unknown distribution, or "width" without a finite alpha > 0, is an
    InvalidSpecError (a ValueError).
    """
    _check_distribution(distribution, alpha)
    q = _draw_frequencies(n, distribution, rng, alpha)
    return q - q.sum() / n  # q.mean() bit for bit, minus its overhead


def _node_sums(n: int, row: np.ndarray, src: np.ndarray, snk: np.ndarray,
               c: np.ndarray) -> np.ndarray:
    """Per trial and node, the sum of c over the incident edges, (R, n); each
    sum adds its terms in WeightedGraph._node_sum's order, so the same bits."""
    base = row * n
    sums = np.bincount(np.concatenate([base + src, base + snk]), np.concatenate([c, c]))
    return sums.reshape(-1, n)


def _stacked_margins(n: int, row: np.ndarray, starts: np.ndarray, src: np.ndarray,
                     snk: np.ndarray, weights: np.ndarray, degrees: np.ndarray,
                     omega: np.ndarray, solve: np.ndarray) -> np.ndarray:
    """sync_margin(g_r, omega[r]).margin, bit for bit, of every trial r with solve[r];
    inf for the others.

    Trial r's graph g_r has the edges starts[r] .. starts[r + 1] - 1, sorted,
    with 0-based ends src < snk and the given weights; row[k] is edge k's
    trial and degrees, (R, n), are _node_sums of the weights.  The augmented
    Laplacians L + 11^T/n are built as WeightedGraph.laplacian() and
    solve_poisson build them, and solved in one stacked LAPACK call after
    the same two recentrings of omega, (R, n).
    """
    lap = np.zeros((len(omega), n * n))
    lap[:, ::n + 1] = degrees
    lap = lap.reshape(-1, n, n)
    lap[row, src, snk] = lap[row, snk, src] = -weights
    lap += 1.0 / n
    x = omega - omega.sum(axis=1, keepdims=True) / n  # recenter_frequencies
    x -= x.sum(axis=1, keepdims=True) / n  # solve_poisson's centring
    y = np.zeros((len(omega), n))
    y[solve] = np.linalg.solve(lap[solve], x[solve, :, None])[:, :, 0]
    y -= y.sum(axis=1, keepdims=True) / n
    margins = np.maximum.reduceat(abs(y[row, snk] - y[row, src]), starts[:-1])
    margins[~solve] = np.inf
    return margins


@dataclass(frozen=True, eq=False)
class NominalNetwork:
    graph: WeightedGraph
    omega: np.ndarray
    margin: float
    attempts: int


# Trials per block: one in the first block, BLOCK_GROWTH times the previous
# block's in each next one, at most MAX_BLOCK (module docstring).
BLOCK_GROWTH = 2
MAX_BLOCK = 32


def _stack(n: int, draws: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The edges of (i, j, weight) draws, one trial each, as WeightedGraph stores them:
    per edge its trial, then its 0-based ends src < snk sorted within the trial,
    and each trial's first edge (and the edge count last)."""
    counts = [len(e) for e in draws]
    starts = np.zeros(len(draws) + 1, np.intp)
    np.cumsum(counts, out=starts[1:])
    row = np.repeat(np.arange(len(draws)), counts)
    ij = np.concatenate(draws)[:, :2].astype(np.intp)
    ij.sort(axis=1)
    ij = ij[np.argsort((row * n + ij[:, 0]) * n + ij[:, 1])] - 1
    return row, starts, ij[:, 0], ij[:, 1]


def _decide_block(spec: NominalNetworkSpec, sample: int, start: int, size: int,
                  streams: PhiloxStreams) -> NominalNetwork | None:
    """The first accepted trial among start .. start + size - 1, or None.

    Trial t's topology is topology sample sample * MAX_RETRIES + t; its
    weights and frequencies come from the streams (seed, sample, stage, t).
    Raises ConnectivityRetryExceededError at a trial with no connected
    topology when no earlier trial is accepted.
    """
    n, trials = spec.n, np.arange(start, start + size)
    samples = sample * MAX_RETRIES + trials
    stages = [_STAGE_WEIGHTS, _STAGE_FREQUENCIES] if spec.weighted else [_STAGE_FREQUENCIES]
    stage_paths = np.empty((size, len(stages), 3), np.int64)
    stage_paths[:, :, 0] = sample
    stage_paths[:, :, 1] = stages
    stage_paths[:, :, 2] = trials[:, None]
    keys = philox_keys(spec.seed, np.concatenate([_topology_paths(samples, 0),
                                                  stage_paths.reshape(-1, 3)]))
    stage_keys = keys[size * _TOPOLOGY_KEYS:].reshape(size, len(stages), 2)
    keys = keys[:size * _TOPOLOGY_KEYS].reshape(size, _TOPOLOGY_KEYS, 2)
    draws = _connected_topologies(spec, samples, keys, streams)
    if draws:
        row, starts, src, snk = _stack(n, draws)
        if spec.weighted:
            weights = np.concatenate([_draw_weights(len(e), streams.keyed(key))
                                      for e, key in zip(draws, stage_keys[:, 0])])
        else:
            weights = np.ones(len(row))
        q = np.array([_draw_frequencies(n, spec.distribution, streams.keyed(key), spec.alpha)
                      for key in stage_keys[:len(draws), -1]])
        omega = q - q.sum(axis=1, keepdims=True) / n  # sample_frequencies' recentring
        degrees = _node_sums(n, row, src, snk, weights)
        solve = (abs(omega) / degrees).max(axis=1) < 1.0 + CUT_SLACK  # the node-cut filter
        margins = _stacked_margins(n, row, starts, src, snk, weights, degrees, omega, solve)
        for r in np.flatnonzero(margins < 1.0 + CUT_SLACK).tolist():
            part = slice(starts[r], starts[r + 1])
            g = WeightedGraph(n, np.column_stack((src[part] + 1, snk[part] + 1, weights[part])))
            margin = sync_margin(g, omega[r]).margin
            if margin < 1.0:
                return NominalNetwork(graph=g, omega=omega[r].copy(), margin=margin,
                                      attempts=start + r + 1)
    if len(draws) < size:
        raise _connectivity_error(spec)
    return None


def nominal_network(spec: NominalNetworkSpec, sample: int = 0) -> NominalNetwork:
    """Rejection-sample a (graph, omega) pair with margin < 1.

    Trials are drawn and filtered in blocks; a trial whose node-cut ratio
    and stacked margin are both below 1 + CUT_SLACK is decided by
    sync_margin, in trial order (module docstring).
    """
    streams = PhiloxStreams()
    start, size = 0, 1
    while start < MAX_RETRIES:
        size = min(size, MAX_RETRIES - start)
        found = _decide_block(spec, sample, start, size, streams)
        if found is not None:
            return found
        start += size
        size = min(size * BLOCK_GROWTH, MAX_BLOCK)
    raise MarginRetryExceededError(f"no sample with margin < 1 in {MAX_RETRIES} tries for {spec}")

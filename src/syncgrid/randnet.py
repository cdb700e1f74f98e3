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
rng.PhiloxStreams bit generator per call is re-keyed for each stream, and
the samplers read the streams as raw words, one PhiloxStreams.words call
per stage of a block or topology round.  Each draw is decoded from the
words bit for bit as a Generator on the same stream, substream(seed,
*path), makes it: the erg and smn tests random() < p with
rng.unit_floats_below, the rgg points with rng.unit_floats, the weights and
the width and uniform frequencies (Generator.uniform) with
rng.uniform_floats, the bipolar frequencies (Generator.choice of -1 or +1)
with rng.coin_flips, and the small world's integers() with rng.WordDraws.
tests/test_randnet.py keeps the one-call-at-a-time builders as the
reference; sample_weights and sample_frequencies keep their Generator form.

Block sampler.  nominal_network decides its trials in blocks of 1, 2, 4,
... up to MAX_BLOCK trials.  Per block, one key pass covers every trial's
weight and frequency streams and its topology stream at inner 0.  The
topology builder draws every trial of the block in one call and returns
integer edge arrays: per edge its trial and its 0-based ends src < snk,
each trial's edges sorted as WeightedGraph stores them (erg and rgg pairs
come out of _pairs in that order; only a small world's rewired edges are
reordered).  The trials still disconnected (by reachability from node 1)
redraw together at their next inner index, each round deriving its own
keys, as generate_graph does for its one sample.  One word pass per stage
then gives every trial's weights and frequencies, and the block is filtered
at once: weighted degrees and the node-cut ratio, and one stacked LAPACK
solve of the augmented Laplacians L + 11^T/n of the trials the node-cut
filter passes, assembled as WeightedGraph.laplacian() and solve_poisson
assemble them.  The block is then scanned in trial order: a trial whose
node-cut ratio and stacked margin are both below 1 + CUT_SLACK becomes a
WeightedGraph and sync_margin decides it.  The first accepted trial returns
with attempts = t + 1; trials drawn after it in its block are discarded.
Growing blocks keep the erg cells, which accept within a few trials, from
paying for trials they never need.

Node-cut pre-filter.  A draw whose worst single-node cut ratio
sync.node_cut_ratio, max_i |omega_i| / deg_i, is at least 1 + CUT_SLACK is
rejected without its Poisson solve.  Proof: sync_margin's psi_particular
is a flow with B diag(a) psi = omega, and at node i
|omega_i| <= deg_i ||psi||_inf, so margin >= ratio (Gale's cut bound for
S = {i}).  A skipped draw could have been accepted only if rounding
moved its computed margin below 1, by at least ratio - 1 >= CUT_SLACK =
1e-9; the solve's rounding is about cond(L) * 1e-16 relative, far below
that at the sizes studied.  The same slack covers the stacked margin.
Below graph.SPARSE_MIN_NODES nodes it solves sync_margin's matrices and
right-hand sides with the same LAPACK routine, so it equals sync_margin's
bit for bit (tests check 10,000 draws).  From there on sync_margin solves
sparse, and the two agree to about cond(L) * 1e-16 relative, so a trial
whose stacked margin is at least 1 + CUT_SLACK has a sync_margin of at
least 1 and is rejected either way.  Samples, margins and attempts thus
stay bit for bit those of the one-trial-at-a-time loop (tests compare
every decision with that loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConnectivityRetryExceededError, InvalidSpecError, MarginRetryExceededError
from .graph import WeightedGraph
from .rng import (PhiloxStreams, WordDraws, coin_flips, philox_keys, uniform_floats,
                  unit_floats, unit_floats_below)
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

# Stream paths are int64 arrays, so every path entry is below this.
_PATH_ENTRY_LIMIT = 2**63


@dataclass(frozen=True)
class NominalNetworkSpec:
    """Parameters of a nominal random network family.

    p is the edge (erg) or rewiring (smn) probability in [0, 1], or the
    connection radius (rgg) in [0, 1.5]; sqrt(2) already covers the unit
    square.  distribution selects the frequency sampling: "width" draws
    uniformly from [-alpha/2, alpha/2], "uniform" from [-1, 1], "bipolar"
    from {-1, +1}.  weighted toggles uniform [0.5, 5] coupling weights versus
    unit weights.  The seed, a non-negative integer, fully determines every
    sample.
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
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be non-negative, got {self.seed}")


def _check_distribution(distribution: str, alpha: float | None) -> None:
    """InvalidSpecError for an unknown distribution or a width one without a finite alpha > 0."""
    if distribution not in ("width", "uniform", "bipolar"):
        raise InvalidSpecError(f"unknown distribution {distribution!r}")
    if distribution == "width" and not (alpha is not None and 0 < alpha < np.inf):
        raise InvalidSpecError(f"width distribution requires a finite alpha > 0, got {alpha}")


def _check_sample(sample: int, trials: int) -> None:
    """InvalidSpecError unless sample >= 0 and every stream path entry sample * trials + t,
    t < trials, fits an int64 path."""
    last = _PATH_ENTRY_LIMIT // trials - 1  # (last + 1) * trials <= _PATH_ENTRY_LIMIT
    if not 0 <= sample <= last:
        raise InvalidSpecError(f"sample must lie in [0, {last}], got {sample}")


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All node pairs i < j in np.triu_indices order, as read-only 0-based index arrays;
    built once per n."""
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _pair_edges(n: int, hit: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges (row, src, snk) of a block whose trial r has the pairs k with hit[r, k]."""
    row, k = np.nonzero(hit)
    iu, ju = _pairs(n)
    return row, iu[k], ju[k]


# A topology builder draws one trial per key and returns the block's edges as
# (row, src, snk): per edge its trial (the key's index), then its 0-based ends
# src < snk; a trial's edges are contiguous and sorted by (src, snk).

def _erg_edges(n: int, p: float, keys: np.ndarray,
               streams: PhiloxStreams) -> tuple[np.ndarray, ...]:
    """Per key, the pairs whose random() draw, one per pair in order, is below p."""
    return _pair_edges(n, unit_floats_below(streams.words(keys, n * (n - 1) // 2), p))


def _rgg_edges(n: int, radius: float, keys: np.ndarray,
               streams: PhiloxStreams) -> tuple[np.ndarray, ...]:
    """Per key, the pairs at most radius apart, of n points drawn as random((n, 2))."""
    iu, ju = _pairs(n)
    pts = unit_floats(streams.words(keys, 2 * n)).reshape(len(keys), n, 2)
    return _pair_edges(n, np.linalg.norm(pts[:, iu] - pts[:, ju], axis=2) <= radius)


SMN_NEIGHBORS_PER_SIDE = 2  # canonical small-world base lattice (degree 4)


@lru_cache(maxsize=None)
def _smn_lattice(n: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray, tuple[int, ...]]:
    """Sorted (i, j), i < j, edges of the ring joining each node to its nearest
    neighbors, the same edges as read-only keys (i - 1) n + j - 1, and the
    neighbors of every node id as a bit mask, bit j for node j (index 0 unused)."""
    present = set()
    for i in range(1, n + 1):
        for k in range(1, SMN_NEIGHBORS_PER_SIDE + 1):
            j = (i + k - 1) % n + 1
            if i != j:
                present.add((min(i, j), max(i, j)))
    pairs = tuple(sorted(present))
    keys = np.array([(i - 1) * n + j - 1 for i, j in pairs], np.intp)
    keys.flags.writeable = False
    nbrs = [0] * (n + 1)
    for i, j in pairs:
        nbrs[i] |= 1 << j
        nbrs[j] |= 1 << i
    return pairs, keys, tuple(nbrs)


def _smn_words(m: int) -> int:
    """Words prefetched per smn stream: m rewire tests and a 32-bit half for every
    rewire, the whole draw unless a bounded draw is rejected."""
    return -(-3 * m // 8) * 4


def _smn_edges(n: int, p: float, keys: np.ndarray,
               streams: PhiloxStreams) -> tuple[np.ndarray, ...]:
    """Small-world lattices with probabilistic rewiring, one per key.

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
    at its visit.  A rewired edge (i, w) replaces its lattice edge's key by
    its own, (min - 1) n + max - 1, and one sort of each trial's keys puts
    the edges in WeightedGraph's order.

    The draws are decoded from raw words (rng.WordDraws).  One comparison
    of the block's prefetched words with p gives every rewire test, and only
    the rewired edges are walked (_rewired_edges).  Neighbor sets are bit
    masks (bit j for node j), so count is a popcount and the chosen
    non-neighbor a short fixed-point search.
    """
    lattice, lattice_keys, lattice_nbrs = _smn_lattice(n)
    m = len(lattice)
    words = streams.words(keys, _smn_words(m))
    width = words.shape[1]
    hits = np.flatnonzero(unit_floats_below(words, p))
    ends = np.searchsorted(hits, np.arange(1, len(keys) + 1) * width).tolist()
    hits = (hits % width).tolist()
    flat = memoryview(words.ravel())  # its items are ints, converted only when read
    at, moved, first, offset = [], [], 0, 0  # the block's rewired edges and their new keys
    for r, (key, last) in enumerate(zip(keys, ends)):
        draws = WordDraws(streams, key, flat[r * width:(r + 1) * width])
        adj = list(lattice_nbrs)
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
            at.append(offset + k)
            moved.append((i - 1) * n + w - 1 if i < w else (w - 1) * n + i - 1)
        first, offset = last, offset + m
    edge_keys = np.tile(lattice_keys, len(keys))
    edge_keys[at] = moved
    edge_keys = edge_keys.reshape(len(keys), m)
    edge_keys.sort(axis=1)
    src, snk = np.divmod(edge_keys.ravel(), n)
    return np.repeat(np.arange(len(keys)), m), src, snk


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


def _connectivity_error(spec: NominalNetworkSpec) -> ConnectivityRetryExceededError:
    return ConnectivityRetryExceededError(
        f"no connected {spec.model} graph with n={spec.n}, p={spec.p} in {MAX_RETRIES} tries")


def _topology_paths(samples: np.ndarray, inner: int) -> np.ndarray:
    """Stream paths (s, _STAGE_TOPOLOGY, inner), one per sample s."""
    paths = np.empty((len(samples), 3), np.int64)
    paths[:, 0] = samples
    paths[:, 1:] = _STAGE_TOPOLOGY, inner
    return paths


def _connected_draws(n: int, count: int, row: np.ndarray, src: np.ndarray,
                     snk: np.ndarray) -> np.ndarray:
    """Per trial of a block of count trials with edges (row, src, snk), whether its
    edges connect its n nodes.

    All trials at once, trial r's node i being r n + i: the set reached from
    each trial's node 0 grows over every edge with a reached end until it
    stops.  A newly reached node makes its edge back active, so the reached
    set has stopped growing exactly when the active edges stop growing.
    """
    base = row * n
    tails = np.concatenate([base + src, base + snk])  # both directions
    heads = np.concatenate([tails[len(row):], tails[:len(row)]])
    reached = np.zeros(n * count, bool)
    reached[::n] = True
    active = heads[reached[tails]]
    while True:
        reached[active] = True
        grown = heads[reached[tails]]
        if len(grown) == len(active):
            return reached.reshape(count, n).all(axis=1)
        active = grown


def _connected_topologies(spec: NominalNetworkSpec, samples: np.ndarray, keys: np.ndarray,
                          streams: PhiloxStreams) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The first connected draw of each topology sample, as (found, row, src, snk).

    Topology sample s draws from the streams (seed, s, _STAGE_TOPOLOGY,
    inner) for inner = 0, 1, ... in turn, as generate_graph always has; keys
    are the samples' keys at inner 0.  Each round draws one inner stream of
    every sample still disconnected.  The edges are those of samples 0 ..
    found - 1 in the builders' form, row being the sample's index: found
    stops before the first sample with no connected draw in MAX_RETRIES,
    since the samples after it are of no use to a caller, which raises there.
    """
    n, build = spec.n, _EDGE_MODELS[spec.model]
    found, kept = len(samples), []  # kept: per round, the edges of its connected draws
    pending, inner = np.arange(len(samples)), 0
    while True:
        row, src, snk = build(n, spec.p, keys, streams)
        hit = _connected_draws(n, len(pending), row, src, snk)
        if hit.all():  # every draw is its sample's first connected one
            kept.append((pending[row], src, snk))
            break
        keep = hit[row]
        kept.append((pending[row[keep]], src[keep], snk[keep]))
        pending, inner = pending[~hit], inner + 1
        if inner == MAX_RETRIES:
            found = int(pending[0])
            break
        keys = philox_keys(spec.seed, _topology_paths(samples[pending], inner))
    if len(kept) == 1:
        row, src, snk = kept[0]
    else:  # each round's draws in sample order; a sample's edges stay in their order
        row, src, snk = (np.concatenate(a) for a in zip(*kept))
        order = np.argsort(row, kind="stable")
        row, src, snk = row[order], src[order], snk[order]
    if found < len(samples):
        end = np.searchsorted(row, found)
        row, src, snk = row[:end], src[:end], snk[:end]
    return found, row, src, snk


def generate_graph(spec: NominalNetworkSpec, sample: int = 0) -> WeightedGraph:
    """Sample a connected unit-weight topology for the given spec.

    Disconnected draws are discarded; after MAX_RETRIES attempts the
    (n, p) combination is declared infeasible.  The one-sample case of
    nominal_network's topology draw.  A negative sample, or one past the
    int64 stream paths, is an InvalidSpecError.
    """
    _check_sample(sample, 1)
    samples = np.array([sample], np.int64)
    keys = philox_keys(spec.seed, _topology_paths(samples, 0))
    found, _, src, snk = _connected_topologies(spec, samples, keys, PhiloxStreams())
    if not found:
        raise _connectivity_error(spec)
    return WeightedGraph(spec.n, np.column_stack((src + 1, snk + 1, np.ones(len(src)))))


def sample_weights(g: WeightedGraph, rng: np.random.Generator) -> WeightedGraph:
    """Assign i.i.d. uniform [0.5, 5] weights, drawn from rng, to the (sorted) edge list."""
    return g.with_weights(rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=g.m))


_BIPOLAR = np.array([-1.0, 1.0])
_BIPOLAR.flags.writeable = False


def _frequency_bounds(distribution: str, alpha: float | None) -> tuple[float, float]:
    """The interval of a checked width or uniform distribution."""
    return (-alpha / 2.0, alpha / 2.0) if distribution == "width" else (-1.0, 1.0)


def sample_frequencies(
    n: int, distribution: str, rng: np.random.Generator, alpha: float | None = None,
) -> np.ndarray:
    """Draw natural frequencies from rng and recentre them to exact zero mean.

    An unknown distribution, or "width" without a finite alpha > 0, is an
    InvalidSpecError (a ValueError).
    """
    _check_distribution(distribution, alpha)
    if distribution == "bipolar":
        q = rng.choice(_BIPOLAR, size=n)
    else:
        q = rng.uniform(*_frequency_bounds(distribution, alpha), size=n)
    return q - q.sum() / n  # q.mean() bit for bit, minus its overhead


def _block_frequencies(spec: NominalNetworkSpec, keys: np.ndarray,
                       streams: PhiloxStreams) -> np.ndarray:
    """sample_frequencies of the stream of every key, (len(keys), n), decoded from raw
    words: a word per node, or for bipolar a 32-bit half per node."""
    n = spec.n
    if spec.distribution == "bipolar":
        q = _BIPOLAR[coin_flips(streams.words(keys, (n + 1) // 2), n)]
    else:
        lo, hi = _frequency_bounds(spec.distribution, spec.alpha)
        q = uniform_floats(streams.words(keys, n), lo, hi)
    return q - q.sum(axis=1, keepdims=True) / n


def _block_weights(keys: np.ndarray, starts: np.ndarray, streams: PhiloxStreams) -> np.ndarray:
    """sample_weights' draws for trials whose edges are starts[r] .. starts[r + 1] - 1, from
    the stream of keys[r], trial after trial: the first words of each stream, decoded."""
    counts = starts[1:] - starts[:-1]
    words = streams.words(keys, int(counts.max()))
    if words.size != starts[-1]:  # not every trial has the most edges
        words = words[np.arange(words.shape[1]) < counts[:, None]]
    return uniform_floats(words, WEIGHT_LOW, WEIGHT_HIGH).ravel()


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
    """sync_margin(g_r, omega[r]).margin of every trial r with solve[r]; inf for the others.

    Bit for bit below graph.SPARSE_MIN_NODES nodes; from it on, sync_margin
    solves sparse and the two agree to rounding, which CUT_SLACK covers
    (module docstring).

    Trial r's graph g_r has the edges starts[r] .. starts[r + 1] - 1, sorted,
    with 0-based ends src < snk and the given weights; row[k] is edge k's
    trial and degrees, (R, n), are _node_sums of the weights.  The augmented
    Laplacians L + 11^T/n of the solved trials are built as
    WeightedGraph.laplacian() and solve_poisson build them, every entry
    plus 1/n, and solved in one stacked LAPACK call after the same two
    recentrings of omega, (R, n).
    """
    margins = np.full(len(omega), np.inf)
    picked = np.flatnonzero(solve)
    if not picked.size:
        return margins
    starts = starts[:-1]
    if picked.size < len(omega):  # the solved trials' edges, their rows renumbered
        edges = solve[row]
        row = (np.cumsum(solve) - 1)[row[edges]]
        src, snk, weights = src[edges], snk[edges], weights[edges]
        degrees, omega = degrees[picked], omega[picked]
        starts = np.searchsorted(row, np.arange(picked.size))
    inv = 1.0 / n
    lap = np.full((picked.size, n * n), inv)
    lap[:, ::n + 1] = degrees + inv
    lap = lap.reshape(-1, n, n)
    lap[row, src, snk] = lap[row, snk, src] = inv - weights  # -w + 1/n, the same double
    x = omega - omega.sum(axis=1, keepdims=True) / n  # recenter_frequencies
    x -= x.sum(axis=1, keepdims=True) / n  # solve_poisson's centring
    y = np.linalg.solve(lap, x[:, :, None])[:, :, 0]
    y -= y.sum(axis=1, keepdims=True) / n
    margins[picked] = np.maximum.reduceat(abs(y[row, snk] - y[row, src]), starts)
    return margins


@dataclass(frozen=True, eq=False)
class NominalNetwork:
    """An accepted draw: attempts counts the trials up to and including it, and
    cut_rejections those of them the node-cut filter rejected without a solve."""

    graph: WeightedGraph
    omega: np.ndarray
    margin: float
    attempts: int
    cut_rejections: int


# Trials per block: one in the first block, BLOCK_GROWTH times the previous
# block's in each next one, at most MAX_BLOCK (module docstring).
BLOCK_GROWTH = 2
MAX_BLOCK = 32


def _decide_block(spec: NominalNetworkSpec, sample: int, start: int, size: int,
                  streams: PhiloxStreams, cut_rejections: int) -> tuple[NominalNetwork | None, int]:
    """The first accepted trial among start .. start + size - 1, or None, and
    cut_rejections plus the node-cut rejections of the block's trials before it
    (of all of them with None).

    Trial t's topology is topology sample sample * MAX_RETRIES + t; its
    weights and frequencies come from the streams (seed, sample, stage, t).
    Raises ConnectivityRetryExceededError at a trial with no connected
    topology when no earlier trial is accepted.
    """
    n, trials = spec.n, np.arange(start, start + size)
    samples = sample * MAX_RETRIES + trials
    stages = [_STAGE_WEIGHTS, _STAGE_FREQUENCIES] if spec.weighted else [_STAGE_FREQUENCIES]
    stage_paths = np.empty((len(stages), size, 3), np.int64)
    stage_paths[:, :, 0] = sample
    stage_paths[:, :, 1] = np.array(stages)[:, None]
    stage_paths[:, :, 2] = trials
    keys = philox_keys(spec.seed, np.concatenate([_topology_paths(samples, 0),
                                                  stage_paths.reshape(-1, 3)]))
    stage_keys = keys[size:].reshape(len(stages), size, 2)
    found, row, src, snk = _connected_topologies(spec, samples, keys[:size], streams)
    if found:
        starts = np.searchsorted(row, np.arange(found + 1))
        if spec.weighted:
            weights = _block_weights(stage_keys[0, :found], starts, streams)
        else:
            weights = np.ones(len(row))
        omega = _block_frequencies(spec, stage_keys[-1, :found], streams)
        degrees = _node_sums(n, row, src, snk, weights)
        solve = (abs(omega) / degrees).max(axis=1) < 1.0 + CUT_SLACK  # the node-cut filter
        margins = _stacked_margins(n, row, starts, src, snk, weights, degrees, omega, solve)
        for r in np.flatnonzero(margins < 1.0 + CUT_SLACK).tolist():
            part = slice(starts[r], starts[r + 1])
            g = WeightedGraph(n, np.column_stack((src[part] + 1, snk[part] + 1, weights[part])))
            margin = sync_margin(g, omega[r]).margin
            if margin < 1.0:
                cut_rejections += r - int(np.count_nonzero(solve[:r]))
                return NominalNetwork(graph=g, omega=omega[r].copy(), margin=margin,
                                      attempts=start + r + 1,
                                      cut_rejections=cut_rejections), cut_rejections
        cut_rejections += found - int(np.count_nonzero(solve))
    if found < size:
        raise _connectivity_error(spec)
    return None, cut_rejections


def nominal_network(spec: NominalNetworkSpec, sample: int = 0) -> NominalNetwork:
    """Rejection-sample a (graph, omega) pair with margin < 1.

    Trials are drawn and filtered in blocks; a trial whose node-cut ratio
    and stacked margin are both below 1 + CUT_SLACK is decided by
    sync_margin, in trial order (module docstring).  A negative sample, or
    one whose topology samples pass the int64 stream paths, is an
    InvalidSpecError.
    """
    _check_sample(sample, MAX_RETRIES)
    streams = PhiloxStreams()
    start, size, cut_rejections = 0, 1, 0
    while start < MAX_RETRIES:
        size = min(size, MAX_RETRIES - start)
        found, cut_rejections = _decide_block(spec, sample, start, size, streams, cut_rejections)
        if found is not None:
            return found
        start += size
        size = min(size * BLOCK_GROWTH, MAX_BLOCK)
    raise MarginRetryExceededError(f"no sample with margin < 1 in {MAX_RETRIES} tries for {spec}")

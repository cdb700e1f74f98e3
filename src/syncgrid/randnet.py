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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConnectivityRetryExceededError, InvalidSpecError, MarginRetryExceededError
from .graph import WeightedGraph, is_connected
from .rng import substream
from .sync import sync_margin

MAX_RETRIES = 10_000

WEIGHT_LOW = 0.5
WEIGHT_HIGH = 5.0

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
        if self.distribution not in ("width", "uniform", "bipolar"):
            raise InvalidSpecError(f"unknown distribution {self.distribution!r}")
        if self.distribution == "width" and (self.alpha is None or self.alpha <= 0):
            raise InvalidSpecError("width distribution requires alpha > 0")
        if self.n < 2:
            raise InvalidSpecError("need n >= 2")


def _erg_edges(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    return np.column_stack((iu[mask] + 1, ju[mask] + 1, np.ones(np.count_nonzero(mask))))


def _rgg_edges(n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    pts = rng.random((n, 2))
    iu, ju = np.triu_indices(n, k=1)
    dist = np.linalg.norm(pts[iu] - pts[ju], axis=1)
    mask = dist <= radius
    return np.column_stack((iu[mask] + 1, ju[mask] + 1, np.ones(np.count_nonzero(mask))))


SMN_NEIGHBORS_PER_SIDE = 2  # canonical small-world base lattice (degree 4)


@lru_cache(maxsize=None)
def _smn_lattice(n: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """Sorted (i, j), i < j, edges of the ring joining each node to its nearest
    neighbors, and the same edges as a read-only (m, 3) array of unit-weight rows."""
    present = set()
    for i in range(1, n + 1):
        for k in range(1, SMN_NEIGHBORS_PER_SIDE + 1):
            j = (i + k - 1) % n + 1
            if i != j:
                present.add((min(i, j), max(i, j)))
    pairs = tuple(sorted(present))
    rows = np.array([(i, j, 1.0) for i, j in pairs]).reshape(-1, 3)
    rows.flags.writeable = False
    return pairs, rows


def _smn_edges(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Small-world lattice with probabilistic rewiring, as (i, j, 1.0) rows.

    The base ring couples every node to its nearest neighbors on each side
    (degree 4, the canonical small-world lattice: a degree-2 ring is so
    resistive that margin-conditioned sampling of larger networks becomes
    impossible).  Rewiring keeps endpoint i of a lattice edge and retargets
    the other endpoint to a uniformly chosen non-neighbor; self-loops and
    duplicate edges are rejected by construction.

    The sorted lattice is built once per n and cached.  Lattice edges are
    visited in that order, each drawing rng.random() and, when rewired,
    rng.integers(count) over the non-neighbors of i in increasing id order;
    an i with no non-neighbor keeps its edge.  Per-node adjacency sets make
    a rewire O(deg log deg), from the sorted neighbors of i, instead of a
    scan of the whole edge set, with the same draws.  Each lattice edge is
    rewired at most once, at its visit, so a rewire sets j in its own row
    of the lattice array (j may fall below i; from_edges orients and sorts).
    """
    lattice, rows = _smn_lattice(n)
    edges = rows.copy()
    adj: list[set[int]] = [set() for _ in range(n + 1)]
    for i, j in lattice:
        adj[i].add(j)
        adj[j].add(i)
    for k, (i, j) in enumerate(lattice):
        if rng.random() >= p:
            continue
        nbrs = adj[i]
        count = n - 1 - len(nbrs)  # ids that are neither i nor a neighbor of i
        if count == 0:
            continue
        w = int(rng.integers(count)) + 1  # step over the taken ids up to the chosen one
        for x in sorted(nbrs | {i}):
            if x <= w:
                w += 1
        nbrs.discard(j)
        adj[j].discard(i)
        nbrs.add(w)
        adj[w].add(i)
        edges[k, 1] = w
    return edges


def generate_graph(spec: NominalNetworkSpec, sample: int = 0) -> WeightedGraph:
    """Sample a connected unit-weight topology for the given spec.

    Disconnected draws are discarded; after MAX_RETRIES attempts the
    (n, p) combination is declared infeasible.
    """
    builders = {"erg": _erg_edges, "rgg": _rgg_edges, "smn": _smn_edges}
    build = builders[spec.model]
    for trial in range(MAX_RETRIES):
        rng = substream(spec.seed, sample, _STAGE_TOPOLOGY, trial)
        g = WeightedGraph.from_edges(spec.n, build(spec.n, spec.p, rng))
        if is_connected(g):
            return g
    raise ConnectivityRetryExceededError(
        f"no connected {spec.model} graph with n={spec.n}, p={spec.p} in {MAX_RETRIES} tries"
    )


def sample_weights(g: WeightedGraph, seed: int | np.random.Generator) -> WeightedGraph:
    """Assign i.i.d. uniform [0.5, 5] weights to the (sorted) edge list."""
    rng = seed if isinstance(seed, np.random.Generator) else substream(int(seed), _STAGE_WEIGHTS)
    return g.with_weights(rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=g.m))


def sample_frequencies(
    n: int,
    distribution: str,
    seed: int | np.random.Generator,
    alpha: float | None = None,
) -> np.ndarray:
    """Draw natural frequencies and recentre them to exact zero mean."""
    rng = seed if isinstance(seed, np.random.Generator) else substream(int(seed), _STAGE_FREQUENCIES)
    if distribution == "width":
        if alpha is None or alpha <= 0:
            raise ValueError("width distribution requires alpha > 0")
        q = rng.uniform(-alpha / 2.0, alpha / 2.0, size=n)
    elif distribution == "uniform":
        q = rng.uniform(-1.0, 1.0, size=n)
    elif distribution == "bipolar":
        q = rng.choice(np.array([-1.0, 1.0]), size=n)
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    return q - q.mean()


@dataclass(frozen=True, eq=False)
class NominalNetwork:
    graph: WeightedGraph
    omega: np.ndarray
    margin: float
    attempts: int


def nominal_network(spec: NominalNetworkSpec, sample: int = 0) -> NominalNetwork:
    """Rejection-sample a (graph, omega) pair with margin < 1."""
    for trial in range(MAX_RETRIES):
        g = generate_graph(spec, sample=sample * MAX_RETRIES + trial)
        if spec.weighted:
            g = sample_weights(g, substream(spec.seed, sample, _STAGE_WEIGHTS, trial))
        omega = sample_frequencies(
            spec.n, spec.distribution,
            substream(spec.seed, sample, _STAGE_FREQUENCIES, trial),
            alpha=spec.alpha,
        )
        margin = sync_margin(g, omega).margin
        if margin < 1.0:
            return NominalNetwork(graph=g, omega=omega, margin=margin, attempts=trial + 1)
    raise MarginRetryExceededError(f"no sample with margin < 1 in {MAX_RETRIES} tries for {spec}")

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

Node-cut pre-filter.  A draw whose worst single-node cut ratio
sync.node_cut_ratio, max_i |omega_i| / deg_i, is at least 1 + CUT_SLACK is
rejected without its Poisson solve.  Proof: sync_margin's psi_particular
is a flow with B diag(a) psi = omega, and at node i
|omega_i| <= deg_i ||psi||_inf, so margin >= ratio (Gale's cut bound for
S = {i}).  A skipped draw could have been accepted only if rounding
moved its computed margin below 1, by at least ratio - 1 >= CUT_SLACK =
1e-9; the solve's rounding is about cond(L) * 1e-16 relative, far below
that at the sizes studied, so samples, margins and attempts stay bit for
bit the same (tests compare every decision with the loop without the skip).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConnectivityRetryExceededError, InvalidSpecError, MarginRetryExceededError
from .graph import WeightedGraph, is_connected
from .rng import substream
from .sync import node_cut_ratio, sync_margin

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
def _smn_lattice(n: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray,
                                  tuple[frozenset[int], ...]]:
    """Sorted (i, j), i < j, edges of the ring joining each node to its nearest
    neighbors, the same edges as a read-only (m, 3) array of unit-weight rows,
    and the neighbor set of every node id (index 0 unused)."""
    present = set()
    for i in range(1, n + 1):
        for k in range(1, SMN_NEIGHBORS_PER_SIDE + 1):
            j = (i + k - 1) % n + 1
            if i != j:
                present.add((min(i, j), max(i, j)))
    pairs = tuple(sorted(present))
    rows = np.array([(i, j, 1.0) for i, j in pairs]).reshape(-1, 3)
    rows.flags.writeable = False
    nbrs = [set() for _ in range(n + 1)]
    for i, j in pairs:
        nbrs[i].add(j)
        nbrs[j].add(i)
    return pairs, rows, tuple(frozenset(x) for x in nbrs)


def _smn_edges(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Small-world lattice with probabilistic rewiring, as (i, j, 1.0) rows.

    The base ring couples every node to its nearest neighbors on each side
    (degree 4, the canonical small-world lattice: a degree-2 ring is so
    resistive that margin-conditioned sampling of larger networks becomes
    impossible).  Rewiring keeps endpoint i of a lattice edge and retargets
    the other endpoint to a uniformly chosen non-neighbor; self-loops and
    duplicate edges are rejected by construction.

    The sorted lattice and its neighbor sets are built once per n and
    cached.  Lattice edges are visited in that order, each drawing
    rng.random() and, when rewired, rng.integers(count) over the
    non-neighbors of i in increasing id order; an i with no non-neighbor
    keeps its edge.  Per-node neighbor sets make a rewire O(deg log deg),
    from the sorted neighbors of i, instead of a scan of the whole edge set,
    with the same draws.  Each lattice edge is rewired at most once, at its
    visit, so a rewire sets j in its own row of the lattice array (j may
    fall below i; from_edges orients and sorts).
    """
    lattice, rows, lattice_nbrs = _smn_lattice(n)
    edges = rows.copy()
    targets = edges[:, 1]
    adj = list(map(set, lattice_nbrs))
    random, integers = rng.random, rng.integers
    for k in range(len(lattice)):
        if random() >= p:
            continue
        i, j = lattice[k]
        nbrs = adj[i]
        count = n - 1 - len(nbrs)  # ids that are neither i nor a neighbor of i
        if count == 0:
            continue
        w = int(integers(count)) + 1  # step over the taken ids up to the chosen one
        for x in sorted((i, *nbrs)):
            if x <= w:
                w += 1
        nbrs.discard(j)
        adj[j].discard(i)
        nbrs.add(w)
        adj[w].add(i)
        targets[k] = w
    return edges


_EDGE_MODELS = {"erg": _erg_edges, "rgg": _rgg_edges, "smn": _smn_edges}


def generate_graph(spec: NominalNetworkSpec, sample: int = 0) -> WeightedGraph:
    """Sample a connected unit-weight topology for the given spec.

    Disconnected draws are discarded; after MAX_RETRIES attempts the
    (n, p) combination is declared infeasible.
    """
    build = _EDGE_MODELS[spec.model]
    for trial in range(MAX_RETRIES):
        rng = substream(spec.seed, sample, _STAGE_TOPOLOGY, trial)
        g = WeightedGraph.from_edges(spec.n, build(spec.n, spec.p, rng))
        if is_connected(g):
            return g
    raise ConnectivityRetryExceededError(
        f"no connected {spec.model} graph with n={spec.n}, p={spec.p} in {MAX_RETRIES} tries"
    )


def sample_weights(g: WeightedGraph, rng: np.random.Generator) -> WeightedGraph:
    """Assign i.i.d. uniform [0.5, 5] weights, drawn from rng, to the (sorted) edge list."""
    return g.with_weights(rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=g.m))


def sample_frequencies(
    n: int, distribution: str, rng: np.random.Generator, alpha: float | None = None,
) -> np.ndarray:
    """Draw natural frequencies from rng and recentre them to exact zero mean.

    An unknown distribution, or "width" without a finite alpha > 0, is an
    InvalidSpecError (a ValueError).
    """
    _check_distribution(distribution, alpha)
    if distribution == "width":
        q = rng.uniform(-alpha / 2.0, alpha / 2.0, size=n)
    elif distribution == "uniform":
        q = rng.uniform(-1.0, 1.0, size=n)
    else:
        q = rng.choice(np.array([-1.0, 1.0]), size=n)
    return q - q.sum() / n  # q.mean() bit for bit, minus its overhead


@dataclass(frozen=True, eq=False)
class NominalNetwork:
    graph: WeightedGraph
    omega: np.ndarray
    margin: float
    attempts: int


def nominal_network(spec: NominalNetworkSpec, sample: int = 0) -> NominalNetwork:
    """Rejection-sample a (graph, omega) pair with margin < 1.

    Draws whose node-cut ratio proves margin >= 1 skip sync_margin (module
    docstring); every other draw is decided by sync_margin.
    """
    for trial in range(MAX_RETRIES):
        g = generate_graph(spec, sample=sample * MAX_RETRIES + trial)
        if spec.weighted:
            g = sample_weights(g, substream(spec.seed, sample, _STAGE_WEIGHTS, trial))
        omega = sample_frequencies(
            spec.n, spec.distribution,
            substream(spec.seed, sample, _STAGE_FREQUENCIES, trial),
            alpha=spec.alpha,
        )
        if node_cut_ratio(g, omega) >= 1.0 + CUT_SLACK:
            continue
        margin = sync_margin(g, omega).margin
        if margin < 1.0:
            return NominalNetwork(graph=g, omega=omega, margin=margin, attempts=trial + 1)
    raise MarginRetryExceededError(f"no sample with margin < 1 in {MAX_RETRIES} tries for {spec}")

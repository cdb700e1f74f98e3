"""Algebraic graph primitives for oscillator networks.

A network is an undirected, connected, positively weighted graph.  Each
edge carries a fixed orientation (source < sink, lexicographic) so that
the incidence matrix B, the Laplacian L = B diag(a) B^T, its pseudoinverse,
and the cycle space Ker(B) are all well defined and reproducible.  The
incidence sign convention is +1 at the sink and -1 at the source, so
(B^T x)_e = x_sink - x_source.

Results of the synchronization analysis are orientation invariant; the
fixed convention only pins down signs in golden outputs.

This module is the one place that maps edges onto nodes.
WeightedGraph.laplacian(c) assembles B diag(c) B^T for any edge vector c:
the weights by default, -a cos(B^T theta) for the Newton Jacobian.  Its
diagonal, the weighted degrees and the divergence are each one np.bincount
over edge endpoints.  The coupling B diag(a) sin(B^T theta), which the
flow-balance residual and every RK4 right-hand side evaluate, goes through
one private kernel, _sine_coupling: the divergence of sin(B^T theta) with
the input checks left to its callers, bit for bit the same.  A BFS tree
from node 1 in edge order answers connectivity, closes the fundamental
cycles and integrates edge angles into node angles.

Storage and reweighting.  A graph stores n and the edge arrays sources,
sinks (0-based, read-only) and weights; the edges tuple is derived.  The
index arrays and what they alone determine (BFS tree, bincount indexes)
live in one private _Topology, whose constructor is the one vectorised
check of an edge list; it locates and names the offending edge only after
a check fails.  with_weights (and so scaled) checks only the new weights
and reuses the _Topology, so reweighted graphs share their topology by
construction.  The bincount indexes stay writable: np.bincount copies a
read-only input on every call (about 3% of the RK4 loop at n = 1022).

Grounded systems.  The Laplacian and -J have the constant vector in their
kernel.  Grounding node 1 keeps rows and columns 2..n, a block that is
nonsingular for the Laplacian of a connected graph.  Below SPARSE_MIN_NODES
nodes these systems are solved dense with LAPACK (solve_poisson augments L
by 11^T/n instead of grounding).  From it on, WeightedGraph._grounded builds
the grounded block of B diag(c) B^T as a CSC matrix from the same edge
arrays, and SuperLU factors it under a symmetric fill-reducing ordering.
The factor of the grounded Laplacian is cached on the frozen graph, so every
solve_poisson on one graph object (the margin, Newton's seed, later items)
shares one factorization.  The constant is the measured crossover on tiled
rts96 grids (a new graph object per call, so its BFS tree and factor are
built each time; best of 7, BLAS at 1 thread, 2-vCPU Xeon at 2.0 GHz):

    n      solve_equilibrium dense / sparse    solve_poisson dense / sparse
    73      0.83 ms / 2.67 ms                  0.20 ms / 0.49 ms
    146     1.71 ms / 3.71 ms                  0.51 ms / 0.67 ms
    219     4.19 ms / 4.07 ms                  1.54 ms / 0.91 ms
    292     8.39 ms / 4.86 ms                  2.24 ms / 1.24 ms
    438    18.91 ms / 5.85 ms                  8.73 ms / 1.51 ms
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import (
    DegenerateGraphError,
    DimensionMismatchError,
    DisconnectedGraphError,
    InvalidSpecError,
    ParseError,
)

# Relative tolerance for declaring a Laplacian eigenvalue zero.
ZERO_EIGENVALUE_RTOL = 1e-9

# Node count from which grounded systems are solved sparse (see the module
# docstring).  Every golden input has at most 73 nodes and stays dense.
SPARSE_MIN_NODES = 200


def _edge_triples(edges) -> np.ndarray:
    """edges, a sequence of (i, j, weight) or an (m, 3) array, as an (m, 3) float array."""
    a = np.asarray(edges, dtype=float)
    if a.shape[1:] != (3,) and a.size:
        raise InvalidSpecError(f"edges must be (i, j, weight) triples, got shape {a.shape}")
    return a.reshape(-1, 3)


def _valid_edges(n: int, ij: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per edge (1-based float ids ij, rows i = source and j = sink; weights w), whether
    it has integral ids, 1 <= i < j <= n, 0 < w < inf and a key i (n + 1) + j above
    the previous edge's: increasing keys mean sorted edges and no duplicate."""
    i, j = ij
    integral = np.floor(ij) == ij
    ok = integral[0] & integral[1] & (1 <= i) & (i < j) & (j <= n) & (w > 0) & (w < np.inf)
    key = i * (n + 1) + j
    ok[1:] &= key[1:] > key[:-1]
    return ok


def _edge_error(n: int, ij: np.ndarray, w: np.ndarray) -> InvalidSpecError:
    """The error naming the first edge that _valid_edges rejects."""
    k = int(np.argmin(_valid_edges(n, ij, w)))
    a, b, wk = float(ij[0, k]), float(ij[1, k]), float(w[k])
    if not (a.is_integer() and b.is_integer()):
        a, b = (int(x) if x.is_integer() else x for x in (a, b))
        return InvalidSpecError(f"edge ({a},{b}) has a non-integral node id")
    a, b = int(a), int(b)
    if a == b:
        return InvalidSpecError(f"self-loop on node {a}")
    if not (1 <= a <= n and 1 <= b <= n):
        return InvalidSpecError(f"edge ({a},{b}) outside node range 1..{n}")
    if a > b:
        return InvalidSpecError(f"edge ({a},{b}) not lexicographically oriented")
    if not 0 < wk < np.inf:
        kind = "non-positive" if wk <= 0 else "non-finite"
        return InvalidSpecError(f"edge ({a},{b}) has {kind} weight {wk}")
    p, q = int(ij[0, k - 1]), int(ij[1, k - 1])
    return InvalidSpecError(f"duplicate edge ({a},{b})" if (p, q) == (a, b)
                            else f"edge ({a},{b}) out of order after ({p},{q})")


class BFSTree(NamedTuple):
    """Spanning tree as visit order plus, per node, parent, parent edge and depth.

    Node indices are 0-based, like sources and sinks.  The root (index 0)
    has parent and parent edge -1; unreached nodes have depth -1 and are
    missing from order.
    """

    order: list[int]
    parent: list[int]
    parent_edge: list[int]
    depth: list[int]


class _Topology:
    """n, the 0-based endpoints of an edge list and what they alone determine.

    The constructor is the one validation of an edge list (_valid_edges).
    """

    def __init__(self, n: int, ij: np.ndarray, w: np.ndarray):
        if n < 1:
            raise DegenerateGraphError(f"node count must be positive, got {n}")
        if not _valid_edges(n, ij, w).all():
            raise _edge_error(n, ij, w)
        ends = ij.astype(np.intp) - 1
        self.endpoints = ends.flatten()  # sources, then sinks: node sums bin on these
        self.divergence_index = ends[::-1].flatten()  # sinks, then sources
        ends.flags.writeable = False  # its rows, sources and sinks, are read-only views
        self.n, self.m, self.sources, self.sinks = n, ends.shape[1], ends[0], ends[1]

    @cached_property
    def bfs_tree(self) -> BFSTree:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for k, (i, j) in enumerate(zip(self.sources.tolist(), self.sinks.tolist())):
            adj[i].append((j, k))
            adj[j].append((i, k))
        parent, parent_edge, depth = [-1] * self.n, [-1] * self.n, [-1] * self.n
        depth[0] = 0
        order = [0]
        for u in order:  # order grows while it is walked: a FIFO queue
            for v, k in adj[u]:
                if depth[v] < 0:
                    parent[v], parent_edge[v], depth[v] = u, k, depth[u] + 1
                    order.append(v)
        return BFSTree(order=order, parent=parent, parent_edge=parent_edge, depth=depth)


class WeightedGraph:
    """Undirected weighted graph with node ids 1..n; immutable.

    Stored: n and, per edge sorted by (source, sink), the 0-based read-only
    intp arrays sources < sinks and the weights in (0, inf).  edges, the
    1-based (source, sink, weight) tuples, is derived; graphs are equal when
    n and edges are.  WeightedGraph(n, edges) takes sorted, oriented edges.
    """

    def __init__(self, n: int, edges):
        a = _edge_triples(edges)
        self._store(_Topology(n, a[:, :2].T.copy(), a[:, 2]), a[:, 2].copy())

    def _store(self, topology: _Topology, weights: np.ndarray) -> "WeightedGraph":
        vars(self).update(_topology=topology, n=topology.n, m=topology.m,
                          sources=topology.sources, sinks=topology.sinks, weights=weights)
        return self

    def _frozen(self, name, *value):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        same_class = other.__class__ is self.__class__
        return (self.n, self.edges) == (other.n, other.edges) if same_class else NotImplemented

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"WeightedGraph(n={self.n!r}, edges={self.edges!r})"

    @classmethod
    def from_edges(cls, n: int, edges) -> "WeightedGraph":
        """Build a graph from (i, j, weight) triples in any orientation and order, as a
        sequence or an (m, 3) array; node ids must have integral values
        (InvalidSpecError, a ValueError)."""
        a = _edge_triples(edges)
        ij = np.sort(a.T[:2], axis=0)  # rows: the lower and the higher id of each edge
        order = np.lexsort(ij[::-1])
        w = a[:, 2].take(order)
        return cls.__new__(cls)._store(_Topology(n, ij.take(order, axis=1), w), w)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(zip((self.sources + 1).tolist(), (self.sinks + 1).tolist(),
                         self.weights.tolist()))

    def incidence(self) -> np.ndarray:
        """Dense oriented incidence matrix B, shape (n, m)."""
        b = np.zeros((self.n, self.m))
        b[self.sources, np.arange(self.m)] = -1.0
        b[self.sinks, np.arange(self.m)] = 1.0
        return b

    def _node_sum(self, c: np.ndarray) -> np.ndarray:
        """|B| c: per node, the sum of c over the incident edges."""
        sums = np.bincount(self._topology.endpoints, np.concatenate([c, c]), self.n)
        return sums.astype(float, copy=False)  # with no edges bincount returns int64

    def laplacian(self, c=None) -> np.ndarray:
        """B diag(c) B^T for an edge vector c; the weighted Laplacian by default."""
        c = self.weights if c is None else np.asarray(c, dtype=float)
        if c.shape != (self.m,):
            raise DimensionMismatchError(f"expected {self.m} edge values, got {c.shape}")
        lap = np.diag(self._node_sum(c))
        lap[self.sources, self.sinks] = -c
        lap[self.sinks, self.sources] = -c
        return lap

    def _grounded(self, c: np.ndarray) -> sparse.csc_array:
        """Rows and columns 2..n of B diag(c) B^T as a CSC matrix (node 1 grounded)."""
        keep = self.sources > 0  # edges off node 1; sinks are never node 1
        src, snk, ck = self.sources[keep] - 1, self.sinks[keep] - 1, c[keep]
        diag = np.arange(self.n - 1)
        rows = np.concatenate([diag, src, snk])
        cols = np.concatenate([diag, snk, src])
        data = np.concatenate([self._node_sum(c)[1:], -ck, -ck])
        return sparse.csc_array((data, (rows, cols)), shape=(self.n - 1, self.n - 1))

    @cached_property
    def _grounded_laplacian_lu(self):
        """SuperLU factor of the grounded Laplacian, shared by every solve_poisson."""
        return symmetric_splu(self._grounded(self.weights))

    def weighted_degrees(self) -> np.ndarray:
        return self._node_sum(self.weights)

    @property
    def bfs_tree(self) -> BFSTree:
        """Breadth-first spanning tree from index 0, neighbours taken in edge order."""
        return self._topology.bfs_tree

    def with_weights(self, weights) -> "WeightedGraph":
        """Same topology (the same _Topology) with a copy of weights, one per sorted edge;
        only they are checked, each finite and > 0 (InvalidSpecError, a
        ValueError, naming the edge otherwise)."""
        w = np.array(weights, dtype=float)
        if w.shape != (self.m,):
            raise DimensionMismatchError(f"expected {self.m} weights, got {w.shape}")
        if not ((w > 0) & (w < np.inf)).all():
            raise _edge_error(self.n, np.stack([self.sources, self.sinks]) + 1.0, w)
        return WeightedGraph.__new__(WeightedGraph)._store(self._topology, w)

    def scaled(self, factor: float) -> "WeightedGraph":
        """Uniformly scale all coupling weights."""
        return self.with_weights(self.weights * float(factor))


def edge_differences(g: WeightedGraph, x) -> np.ndarray:
    """B^T x: per-edge differences x_sink - x_source."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise DimensionMismatchError(f"expected length-{g.n} vector, got {x.shape}")
    return x[g.sinks] - x[g.sources]


def edge_infinity_norm(g: WeightedGraph, x) -> float:
    """Worst dissimilarity over edges: max_{(i,j) in E} |x_i - x_j|."""
    if g.m == 0:
        return 0.0
    return float(np.max(np.abs(edge_differences(g, x))))


def divergence(g: WeightedGraph, psi) -> np.ndarray:
    """B diag(a) psi: net weighted flow into each node."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (g.m,):
        raise DimensionMismatchError(f"expected length-{g.m} edge vector, got {psi.shape}")
    flow = g.weights * psi
    net = np.bincount(g._topology.divergence_index, np.concatenate([flow, -flow]), g.n)
    return net.astype(float, copy=False)  # with no edges bincount returns int64


def _sine_coupling(g: WeightedGraph, theta: np.ndarray) -> np.ndarray:
    """B diag(a) sin(B^T theta) for a float n-vector theta, without input checks.

    The same operations in the same order as
    divergence(g, np.sin(edge_differences(g, theta))), so the same bits.
    """
    flow = g.weights * np.sin(theta[g.sinks] - theta[g.sources])
    net = np.bincount(g._topology.divergence_index, np.concatenate([flow, -flow]), g.n)
    return net.astype(float, copy=False)  # with no edges bincount returns int64


def is_connected(g: WeightedGraph) -> bool:
    """True when the BFS tree reaches every node (independent of any spectral test)."""
    return len(g.bfs_tree.order) == g.n


def require_connected(g: WeightedGraph) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError(f"graph with {g.n} nodes and {g.m} edges is not connected")


@dataclass(frozen=True)
class LaplacianBundle:
    """Laplacian with spectrum and Moore-Penrose pseudoinverse.

    eigenvalues are ascending; eigenvectors columns are orthonormal.  The
    pseudoinverse inverts every eigenvalue except the structural zero.
    """

    L: np.ndarray
    Ldagger: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def lambda2(self) -> float:
        return float(self.eigenvalues[1])

    @property
    def lambda_n(self) -> float:
        return float(self.eigenvalues[-1])


def build_laplacian(g: WeightedGraph) -> LaplacianBundle:
    """Eigendecompose L and assemble its pseudoinverse.

    The zero eigenvalue is detected with relative tolerance
    ZERO_EIGENVALUE_RTOL * lambda_n and inverted to 0.
    """
    if g.n < 2:
        raise DegenerateGraphError("need at least two nodes")
    require_connected(g)
    lap = g.laplacian()
    evals, evecs = np.linalg.eigh(lap)
    lam_n = float(evals[-1])
    inv = np.zeros_like(evals)
    nonzero = np.abs(evals) > ZERO_EIGENVALUE_RTOL * max(lam_n, 1.0)
    inv[nonzero] = 1.0 / evals[nonzero]
    ldag = (evecs * inv) @ evecs.T
    return LaplacianBundle(L=lap, Ldagger=ldag, eigenvalues=evals, eigenvectors=evecs)


def symmetric_splu(a: sparse.csc_array, diag_pivot_thresh: float = 0.0):
    """SuperLU factor of a symmetric CSC matrix under a symmetric fill-reducing ordering.

    SuperLU takes a diagonal pivot whenever its magnitude is at least
    diag_pivot_thresh times the largest in its column.  At the default 0
    every nonzero diagonal qualifies: a positive definite matrix then
    factors with perm_r == perm_c and a positive diagonal of U.
    Raises RuntimeError when the factor is exactly singular.
    """
    return splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=diag_pivot_thresh,
                options=dict(SymmetricMode=True))


def solve_poisson(g: WeightedGraph, x) -> np.ndarray:
    """Return L^dagger x without forming the dense pseudoinverse.

    Below SPARSE_MIN_NODES nodes, solves the augmented system
    (L + (1/n) 1 1^T) y = x_centered.  From it on, solves the grounded
    system L[1:, 1:] y[1:] = x_centered[1:] with y[0] = 0 through the
    graph's cached sparse factor.  Either way the result is projected onto
    the zero-mean subspace and agrees with Ldagger @ x for connected graphs.
    """
    require_connected(g)
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise DimensionMismatchError(f"expected length-{g.n} vector, got {x.shape}")
    xc = x - x.mean()
    if g.n >= SPARSE_MIN_NODES:
        y = np.zeros(g.n)
        y[1:] = g._grounded_laplacian_lu.solve(xc[1:])
    else:
        aug = g.laplacian()
        aug += 1.0 / g.n
        y = np.linalg.solve(aug, xc)
    return y - y.mean()


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental cycles of a spanning tree, as signed edge-space vectors.

    vectors has shape (rank, m) with entries in {-1, 0, +1}; every row c
    satisfies B c = 0.  rank = m - n + 1 for connected graphs.
    """

    vectors: np.ndarray
    rank: int


def cycle_basis(g: WeightedGraph) -> CycleBasis:
    """Fundamental-cycle basis of Ker(B) over the BFS tree.

    Each non-tree edge (chord) closes one cycle: the chord is traversed
    source -> sink (+1) and the unique tree path sink -> source contributes
    +-1 per edge according to traversal versus orientation.  The path is
    found by climbing parents from both ends to their common ancestor.
    Trees yield an empty basis.
    """
    require_connected(g)
    _, parent, parent_edge, depth = g.bfs_tree
    in_tree = np.zeros(g.m, dtype=bool)
    in_tree[parent_edge[1:]] = True  # every non-root node, all reached
    chords = np.flatnonzero(~in_tree)
    vectors = np.zeros((len(chords), g.m))
    for row, k in enumerate(chords):
        vectors[row, k] = 1.0
        u, v = int(g.sinks[k]), int(g.sources[k])  # walk u -> v along the tree
        while u != v:
            if depth[u] >= depth[v]:  # step up from u: +1 when leaving an edge's source
                ke = parent_edge[u]
                vectors[row, ke] = 1.0 if g.sources[ke] == u else -1.0
                u = parent[u]
            else:  # step down into v: +1 when entering an edge's sink
                ke = parent_edge[v]
                vectors[row, ke] = 1.0 if g.sinks[ke] == v else -1.0
                v = parent[v]
    return CycleBasis(vectors=vectors, rank=len(chords))


@dataclass(frozen=True)
class ConnectivityMetrics:
    """Spectral and resistive connectivity summary."""

    lambda2: float
    lambda_n: float
    max_degree: float
    Ldagger: np.ndarray

    def effective_resistance(self, i: int, j: int) -> float:
        """R_ij = Ldag_ii + Ldag_jj - 2 Ldag_ij (1-based node ids)."""
        a, b = i - 1, j - 1
        return float(self.Ldagger[a, a] + self.Ldagger[b, b] - 2.0 * self.Ldagger[a, b])


def connectivity_metrics(g: WeightedGraph, bundle: LaplacianBundle | None = None) -> ConnectivityMetrics:
    """Algebraic connectivity, spectral radius, weighted max degree and R_ij."""
    if bundle is None:
        bundle = build_laplacian(g)
    return ConnectivityMetrics(
        lambda2=bundle.lambda2,
        lambda_n=bundle.lambda_n,
        max_degree=float(np.max(g.weighted_degrees())),
        Ldagger=bundle.Ldagger,
    )


def is_tree(g: WeightedGraph) -> bool:
    return is_connected(g) and g.m == g.n - 1


def is_single_cycle(g: WeightedGraph) -> bool:
    """True when the graph is one cycle: connected, m == n, all degrees 2."""
    if g.m != g.n or g.n < 3 or not is_connected(g):
        return False
    return bool(np.all(g._node_sum(np.ones(g.m)) == 2))


# --- serialization ---

def graph_to_dict(g: WeightedGraph) -> dict:
    return {"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges]}


def parse_json(text: str, source: str):
    """json.loads(text); a ParseError naming source when text is not valid JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: not valid JSON ({exc})") from None


def json_field(d, key: str, what: str):
    """d[key] of a parsed JSON object; a ParseError naming the field when absent."""
    if not isinstance(d, dict) or key not in d:
        raise ParseError(f"{what} has no {key!r} field")
    return d[key]


def graph_from_dict(d: dict) -> WeightedGraph:
    return WeightedGraph.from_edges(int(json_field(d, "n", "graph")), json_field(d, "edges", "graph"))


def load_graph(path: str) -> WeightedGraph:
    """Read a graph from JSON ({"n": ..., "edges": [[i,j,w], ...]})
    or from an edge-list CSV with header i,j,weight (n inferred); ParseError
    names the file and line, or the field, of a malformed one."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return graph_from_dict(parse_json(text, path))
    rows = csv.DictReader(io.StringIO(text))
    try:
        edges = [(int(r["i"]), int(r["j"]), float(r["weight"])) for r in rows]
    except (KeyError, TypeError, ValueError):
        raise ParseError(f"{path} line {rows.line_num}: not an edge i,j,weight") from None
    return WeightedGraph.from_edges(max((max(i, j) for i, j, _ in edges), default=0), edges)


def save_graph(g: WeightedGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=1, sort_keys=True)
        fh.write("\n")

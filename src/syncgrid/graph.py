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
from node 1 in edge order, cached on the frozen graph, answers
connectivity, closes the fundamental cycles and integrates edge angles
into node angles.

Reweighting.  with_weights (and so scaled) keeps the parent's validated
topology: it checks only the new weights and starts the new graph with
every topology cache the parent has already built (edge count, index
arrays, BFS tree, edge index) as the same objects.  sources and sinks are
read-only, so one graph cannot change another's through them.  The two
private bincount indexes stay writable: np.bincount copies a read-only
input on every call, which costs the RK4 loop about 3% at n = 1022.
Everything that depends on the weights, the weights array itself and the
sparse Laplacian factor, belongs to the new graph alone and is rebuilt
when first needed.

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
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import (
    DegenerateGraphError,
    DimensionMismatchError,
    DisconnectedGraphError,
)

# Relative tolerance for declaring a Laplacian eigenvalue zero.
ZERO_EIGENVALUE_RTOL = 1e-9

# Node count from which grounded systems are solved sparse (see the module
# docstring).  Every golden input has at most 73 nodes and stays dense.
SPARSE_MIN_NODES = 200

# Caches that depend on n and the edge endpoints only; with_weights shares them.
_TOPOLOGY_CACHES = ("m", "sources", "sinks", "_endpoints", "_divergence_index",
                    "bfs_tree", "edge_index")


def _weight_error(i: int, j: int, w: float) -> ValueError:
    kind = "non-positive" if w <= 0 else "non-finite"
    return ValueError(f"edge ({i},{j}) has {kind} weight {w}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph with an oriented edge list.

    Node ids are 1..n.  Edges are stored sorted lexicographically as
    (source, sink, weight) with source < sink and 0 < weight < inf.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n < 1:
            raise DegenerateGraphError(f"node count must be positive, got {self.n}")
        seen: set[tuple[int, int]] = set()
        for i, j, w in self.edges:
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge ({i},{j}) outside node range 1..{self.n}")
            if i > j:
                raise ValueError(f"edge ({i},{j}) not lexicographically oriented")
            if not 0 < w < np.inf:
                raise _weight_error(i, j, w)
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))

    @classmethod
    def from_edges(cls, n: int, edges) -> "WeightedGraph":
        """Build a graph, normalizing edge orientation and order.

        Node ids may be any numbers with integral values; others raise ValueError.
        """
        normalized = []
        for i0, j0, w in edges:
            i, j = int(i0), int(j0)
            if i != i0 or j != j0:
                raise ValueError(f"edge ({i0},{j0}) has a non-integral node id")
            if i > j:
                i, j = j, i
            normalized.append((i, j, float(w)))
        normalized.sort(key=lambda e: (e[0], e[1]))
        return cls(n=n, edges=tuple(normalized))

    # --- cached edge arrays (0-based indices) ---

    @cached_property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def sources(self) -> np.ndarray:
        return _read_only(np.array([e[0] - 1 for e in self.edges], dtype=np.intp))

    @cached_property
    def sinks(self) -> np.ndarray:
        return _read_only(np.array([e[1] - 1 for e in self.edges], dtype=np.intp))

    @cached_property
    def weights(self) -> np.ndarray:
        return np.array([e[2] for e in self.edges], dtype=float)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {(e[0], e[1]): k for k, e in enumerate(self.edges)}

    def incidence(self) -> np.ndarray:
        """Dense oriented incidence matrix B, shape (n, m)."""
        b = np.zeros((self.n, self.m))
        b[self.sources, np.arange(self.m)] = -1.0
        b[self.sinks, np.arange(self.m)] = 1.0
        return b

    @cached_property
    def _endpoints(self) -> np.ndarray:
        """Every edge's source, then every edge's sink: node sums bin on these."""
        return np.concatenate([self.sources, self.sinks])

    def _node_sum(self, c: np.ndarray) -> np.ndarray:
        """|B| c: per node, the sum of c over the incident edges."""
        sums = np.bincount(self._endpoints, np.concatenate([c, c]), self.n)
        return sums.astype(float, copy=False)  # with no edges bincount returns int64

    @cached_property
    def _divergence_index(self) -> np.ndarray:
        """Every edge's sink, then every edge's source: divergence bins on these."""
        return np.concatenate([self.sinks, self.sources])

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

    @cached_property
    def bfs_tree(self) -> "BFSTree":
        """Breadth-first spanning tree from index 0, neighbours taken in edge order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for k, (i, j, _) in enumerate(self.edges):
            adj[i - 1].append((j - 1, k))
            adj[j - 1].append((i - 1, k))
        parent = [-1] * self.n
        parent_edge = [-1] * self.n
        depth = [-1] * self.n
        depth[0] = 0
        order = [0]
        for u in order:  # order grows while it is walked: a FIFO queue
            for v, k in adj[u]:
                if depth[v] < 0:
                    parent[v], parent_edge[v], depth[v] = u, k, depth[u] + 1
                    order.append(v)
        return BFSTree(order=order, parent=parent, parent_edge=parent_edge, depth=depth)

    def with_weights(self, weights) -> "WeightedGraph":
        """Same topology with a new weight per (sorted) edge.

        The topology is not validated again; only the weights are, each
        finite and > 0 (ValueError naming the edge otherwise).  The new
        graph starts with the parent's topology caches that are already
        built (m, sources, sinks, _endpoints, _divergence_index, bfs_tree,
        edge_index), as the same objects.  Its weights array is a copy of
        the argument, and its sparse Laplacian factor is built anew.
        """
        w = np.array(weights, dtype=float)
        if w.shape != (self.m,):
            raise DimensionMismatchError(f"expected {self.m} weights, got {w.shape}")
        bad = np.flatnonzero(~((w > 0) & (w < np.inf)))
        if bad.size:
            i, j, _ = self.edges[bad[0]]
            raise _weight_error(i, j, w[bad[0]])
        g = object.__new__(WeightedGraph)  # skips __post_init__: the topology is valid
        cached = self.__dict__
        g.__dict__.update({name: cached[name] for name in _TOPOLOGY_CACHES if name in cached})
        g.__dict__.update(n=self.n, weights=w,
                          edges=tuple((e[0], e[1], wk) for e, wk in zip(self.edges, w.tolist())))
        return g

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
    net = np.bincount(g._divergence_index, np.concatenate([flow, -flow]), g.n)
    return net.astype(float, copy=False)  # with no edges bincount returns int64


def _sine_coupling(g: WeightedGraph, theta: np.ndarray) -> np.ndarray:
    """B diag(a) sin(B^T theta) for a float n-vector theta, without input checks.

    The same operations in the same order as
    divergence(g, np.sin(edge_differences(g, theta))), so the same bits.
    """
    flow = g.weights * np.sin(theta[g.sinks] - theta[g.sources])
    net = np.bincount(g._divergence_index, np.concatenate([flow, -flow]), g.n)
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


def graph_from_dict(d: dict) -> WeightedGraph:
    return WeightedGraph.from_edges(int(d["n"]), d["edges"])


def load_graph(path: str) -> WeightedGraph:
    """Read a graph from JSON ({"n": ..., "edges": [[i,j,w], ...]})
    or from an edge-list CSV with header i,j,weight (n inferred)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return graph_from_dict(json.loads(text))
    reader = csv.DictReader(io.StringIO(text))
    edges = []
    max_id = 0
    for row in reader:
        i, j, w = int(row["i"]), int(row["j"]), float(row["weight"])
        edges.append((i, j, w))
        max_id = max(max_id, i, j)
    return WeightedGraph.from_edges(max_id, edges)


def save_graph(g: WeightedGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=1, sort_keys=True)
        fh.write("\n")

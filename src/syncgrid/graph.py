"""Algebraic graph primitives for oscillator networks.

A network is an undirected, connected, positively weighted graph.  Each
edge carries a fixed orientation (source < sink, lexicographic) so that
the incidence operator B and the Laplacian L = B diag(a) B^T are well
defined and reproducible.  The incidence sign convention is +1 at the sink
and -1 at the source, so (B^T x)_e = x_sink - x_source.  Neither B nor the
pseudoinverse L^dagger is ever formed: edge_differences and divergence
apply B^T and B diag(a), and solve_poisson applies L^dagger to a vector.

Results of the synchronization analysis are orientation invariant; the
fixed convention only pins down signs in golden outputs.

This module is the one place that maps edges onto nodes.
WeightedGraph.laplacian(c) assembles B diag(c) B^T for any edge vector c:
the weights by default, -a cos(B^T theta) for the Newton Jacobian.  Its
diagonal and the weighted degrees are one np.bincount over edge endpoints.
B diag(a) has one scatter, _scatter: the 2m-vector [psi, psi] times the
graph's cached signed weights [a, -a], binned at sinks, then sources.
divergence feeds it psi; the coupling B diag(a) sin(B^T theta), which the
flow-balance residual and every RK4 right-hand side evaluate, feeds it from
_sine_coupling: one gather of theta at sinks, then sources, the halves
subtracted and their sine taken in place, with the input checks left to its
callers.  Gathers commute with elementwise arithmetic and (-a) s == -(a s),
so it is bit for bit divergence(g, sin(edge_differences(g, theta))).  At
n = 1022 (m = 1554) a call costs 17.5-18.5 us, about 7 of them np.sin and
4-5 the bincount; a scipy CSR matvec for the scatter gives the same bits
but costs more on small graphs, where most calls are made.  A BFS tree from
node 1 in edge order answers connectivity, integrates edge angles into node
angles and closes the one cycle of a cycle graph.

Storage and reweighting.  WeightedGraph(n, edges) (or from_edges) orients
and sorts its (i, j, weight) triples and stores n and the edge arrays
sources, sinks (0-based, read-only) and weights; the edges tuple is derived.
The index arrays and what they alone determine (BFS tree, bincount indexes)
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
the grounded block of B diag(c) B^T as a CSC matrix: the topology caches
its pattern (indices, indptr and where each entry comes from), so a new c
costs one take.  SuperLU factors it under a symmetric fill-reducing ordering.
The factor of the grounded Laplacian is cached on the frozen graph, so every
solve_poisson on one graph object (the margin, Newton's seed, later items)
shares one factorization.  The constant is the measured crossover on tiled
rts96 grids (a new graph object per call, so its BFS tree, grounded pattern
and factor are built each time; best of 7, one-column SuperLU panels, BLAS
at 1 thread, 2-vCPU Xeon):

    n      solve_equilibrium dense / sparse    solve_poisson dense / sparse
    73      0.39 ms / 1.27 ms                  0.10 ms / 0.25 ms
    146     0.98 ms / 1.72 ms                  0.26 ms / 0.37 ms
    219     2.67 ms / 1.96 ms                  0.77 ms / 0.45 ms
    292     4.87 ms / 2.21 ms                  1.47 ms / 0.54 ms
    438    12.29 ms / 2.73 ms                  3.66 ms / 0.71 ms
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import FrozenInstanceError
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
    """The error naming the first edge that _valid_edges rejects; ij is sorted."""
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
    if not 0 < wk < np.inf:
        kind = "non-positive" if wk <= 0 else "non-finite"
        return InvalidSpecError(f"edge ({a},{b}) has {kind} weight {wk}")
    return InvalidSpecError(f"duplicate edge ({a},{b})")  # sorted: its key repeats the last


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
    def grounded_csc(self) -> tuple[np.ndarray, ...]:
        """The CSC pattern of rows and columns 2..n of B diag(c) B^T, for any c.

        Returns keep (the edges off node 1; sinks are never node 1), each
        stored entry's position in the COO data [diagonal 2..n, -c[keep],
        -c[keep]], and the indices and indptr that scipy builds from those
        coordinates, all read-only: a grounded matrix is then one take, with
        the arrays of a COO conversion.
        """
        keep = self.sources > 0
        src, snk = self.sources[keep] - 1, self.sinks[keep] - 1
        diag = np.arange(self.n - 1)
        rows = np.concatenate([diag, src, snk])
        cols = np.concatenate([diag, snk, src])
        entry = np.arange(rows.size, dtype=float)  # exact: far below 2^53 entries
        pattern = sparse.csc_array((entry, (rows, cols)), shape=(self.n - 1, self.n - 1))
        out = keep, pattern.data.astype(np.intp), pattern.indices, pattern.indptr
        for a in out:
            a.flags.writeable = False
        return out

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
    n and edges are.  WeightedGraph(n, edges) orients and sorts (i, j, weight)
    triples, given as a sequence or an (m, 3) array, with integral node ids.
    """

    def __init__(self, n: int, edges):
        a = _edge_triples(edges)
        ij = np.sort(a[:, :2], axis=1).T  # rows: the lower and the higher id of each edge
        order = np.lexsort(ij[::-1])
        w = a[:, 2].take(order)
        self._store(_Topology(n, ij.take(order, axis=1), w), w)

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
        """WeightedGraph(n, edges), under the name the random and case graphs are built by."""
        return cls(n, edges)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(zip((self.sources + 1).tolist(), (self.sinks + 1).tolist(),
                         self.weights.tolist()))

    def _node_sum(self, c: np.ndarray) -> np.ndarray:
        """|B| c: per node, the sum of c over the incident edges."""
        sums = np.bincount(self._topology.endpoints, np.concatenate([c, c]), self.n)
        return sums.astype(float, copy=False)  # with no edges bincount returns int64

    def laplacian(self, c=None) -> np.ndarray:
        """B diag(c) B^T for an edge vector c; the weighted Laplacian by default."""
        c = self.weights if c is None else np.asarray(c, dtype=float)
        if c.shape != (self.m,):
            raise DimensionMismatchError(f"expected {self.m} edge values, got {c.shape}")
        n = self.n
        lap = np.zeros(n * n)
        lap[::n + 1] = self._node_sum(c)  # the diagonal of the flat n x n buffer
        lap = lap.reshape(n, n)
        lap[self.sources, self.sinks] = lap[self.sinks, self.sources] = -c
        return lap

    def _grounded(self, c: np.ndarray) -> sparse.csc_array:
        """Rows and columns 2..n of B diag(c) B^T as a CSC matrix (node 1 grounded)."""
        keep, position, indices, indptr = self._topology.grounded_csc
        ck = -c[keep]
        data = np.concatenate([self._node_sum(c)[1:], ck, ck]).take(position)
        return sparse.csc_array((data, indices, indptr), shape=(self.n - 1, self.n - 1))

    @cached_property
    def _signed_weights(self) -> np.ndarray:
        """[a, -a]: each edge's weight at its sink, then at its source, in the
        order of the divergence index."""
        return np.concatenate([self.weights, -self.weights])

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
    return _scatter(g, np.concatenate([psi, psi]))


def _scatter(g: WeightedGraph, both: np.ndarray) -> np.ndarray:
    """B diag(a) psi from both = [psi, psi], a 2m-vector it overwrites: one multiply
    by [a, -a] and one bincount at sinks, then sources."""
    both *= g._signed_weights
    net = np.bincount(g._topology.divergence_index, both, g.n)
    return net.astype(float, copy=False)  # with no edges bincount returns int64


def _sine_coupling(g: WeightedGraph, theta: np.ndarray) -> np.ndarray:
    """B diag(a) sin(B^T theta) for a float n-vector theta, without input checks.

    One gather of theta at sinks, then sources, one subtract of the halves
    into the first and an in-place sine, copied into the second for _scatter.
    Gathers commute with elementwise arithmetic and (-a) s == -(a s), so the
    bits are those of divergence(g, np.sin(edge_differences(g, theta))).
    """
    m = g.m
    ends = theta.take(g._topology.divergence_index)
    diff = np.subtract(ends[:m], ends[m:], out=ends[:m])
    ends[m:] = np.sin(diff, out=diff)
    return _scatter(g, ends)


def is_connected(g: WeightedGraph) -> bool:
    """True when the BFS tree reaches every node."""
    return len(g.bfs_tree.order) == g.n


def require_connected(g: WeightedGraph) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError(f"graph with {g.n} nodes and {g.m} edges is not connected")


def symmetric_splu(a: sparse.csc_array, diag_pivot_thresh: float = 0.0):
    """SuperLU factor of a symmetric CSC matrix under a symmetric fill-reducing ordering.

    SuperLU takes a diagonal pivot whenever its magnitude is at least
    diag_pivot_thresh times the largest in its column.  At the default 0
    every nonzero diagonal qualifies: a positive definite matrix then
    factors with perm_r == perm_c and a positive diagonal of U.
    Raises RuntimeError when the factor is exactly singular.

    Panels are one column wide: grid Laplacians and Jacobians have so few
    nonzeros per column that SuperLU's default panels of 8 cost more than
    they save (a grounded tiled-rts96 Laplacian factors in 0.43-0.47
    instead of 0.73-0.76 ms at n = 1022, 3.9-4.1 instead of 6.9-7.0 ms at
    n = 10,001).  The factor differs from the default one in its last bits.
    """
    return splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=diag_pivot_thresh,
                panel_size=1, options=dict(SymmetricMode=True))


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
    n = g.n
    xc = x - x.sum() / n  # x.mean() bit for bit, minus its overhead
    if n >= SPARSE_MIN_NODES:
        y = np.zeros(n)
        y[1:] = g._grounded_laplacian_lu.solve(xc[1:])
    else:
        aug = g.laplacian()
        aug += 1.0 / n
        y = np.linalg.solve(aug, xc)
    return y - y.sum() / n


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

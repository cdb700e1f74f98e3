"""Graph primitives: construction, node and edge operators, Poisson solves, I/O."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import incidence, pseudoinverse, random_connected_graph, random_zero_mean, tiled_rts96
from syncgrid.errors import (
    DegenerateGraphError,
    DimensionMismatchError,
    DisconnectedGraphError,
)
from syncgrid.graph import (
    SPARSE_MIN_NODES,
    WeightedGraph,
    _sine_coupling,
    divergence,
    edge_differences,
    edge_infinity_norm,
    graph_from_dict,
    graph_to_dict,
    is_connected,
    load_graph,
    solve_poisson,
)


def test_single_edge_closed_form_pseudoinverse():
    # 2x2 oracle: L = [[a,-a],[-a,a]], Ldag = (1/(4a)) [[1,-1],[-1,1]]
    a = 2.0
    g = WeightedGraph.from_edges(2, [(1, 2, a)])
    assert np.allclose(g.laplacian(), [[a, -a], [-a, a]])
    oracle = np.array([[1.0, -1.0], [-1.0, 1.0]]) / (4.0 * a)
    assert np.allclose([solve_poisson(g, e) for e in np.eye(2)], oracle, atol=1e-14)


def test_triangle_spectrum():
    g = WeightedGraph.from_edges(3, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    assert np.allclose(g.laplacian(), 3.0 * np.eye(3) - np.ones((3, 3)))
    assert np.allclose(np.linalg.eigvalsh(g.laplacian()), [0.0, 3.0, 3.0], atol=1e-12)


def test_row_sums_vanish():
    g = random_connected_graph(7)
    lap = g.laplacian()
    assert np.max(np.abs(lap @ np.ones(g.n))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_pseudoinverse_identity(seed):
    g = random_connected_graph(seed)
    ldag = np.column_stack([solve_poisson(g, e) for e in np.eye(g.n)])
    target = np.eye(g.n) - np.ones((g.n, g.n)) / g.n
    assert np.max(np.abs(g.laplacian() @ ldag - target)) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_solve_poisson_matches_pseudoinverse(seed):
    g = random_connected_graph(seed)
    x = random_zero_mean(seed, g.n)
    assert np.allclose(solve_poisson(g, x), pseudoinverse(g) @ x, atol=1e-10)


def test_edge_infinity_norm_examples():
    path = WeightedGraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0)])
    assert edge_infinity_norm(path, [5.0, 5.0, 5.0]) == 0.0
    assert edge_infinity_norm(path, [0.0, 1.0, 3.0]) == 2.0
    k3 = WeightedGraph.from_edges(3, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    # enumerate all three edges: |1/3+1/3|, |1/3-0|, |-1/3-0|
    assert edge_infinity_norm(k3, [1 / 3, -1 / 3, 0.0]) == pytest.approx(2 / 3, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_edge_norm_equals_incidence_route(seed):
    g = random_connected_graph(seed)
    x = random_zero_mean(seed + 1, g.n, scale=3.0)
    direct = edge_infinity_norm(g, x)
    via_b = float(np.max(np.abs(incidence(g).T @ x)))
    assert direct == via_b


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_node_operators_equal_dense_incidence_products(seed):
    # laplacian(c), weighted degrees and divergence against the dense B.
    g = random_connected_graph(seed)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=g.m)  # any edge vector, signs included
    psi = rng.normal(size=g.m)
    b = incidence(g)
    assert np.allclose(g.laplacian(c), b @ np.diag(c) @ b.T, rtol=0, atol=1e-12)
    assert np.allclose(g.laplacian(), b @ np.diag(g.weights) @ b.T, rtol=0, atol=1e-12)
    assert np.allclose(g.weighted_degrees(), np.abs(b) @ g.weights, rtol=0, atol=1e-12)
    assert np.allclose(divergence(g, psi), b @ (g.weights * psi), rtol=0, atol=1e-12)
    theta = rng.uniform(-3.0, 3.0, g.n)
    coupling = _sine_coupling(g, theta)
    assert np.array_equal(coupling, divergence(g, np.sin(edge_differences(g, theta))))
    assert np.allclose(coupling, b @ (g.weights * np.sin(b.T @ theta)), rtol=0, atol=1e-12)


def _looped_divergence(g: WeightedGraph, psi: np.ndarray) -> np.ndarray:
    """B diag(a) psi accumulated edge by edge from zero: at the sinks, then the sources."""
    net = np.zeros(g.n)
    for e in range(g.m):
        net[g.sinks[e]] += g.weights[e] * psi[e]
    for e in range(g.m):
        net[g.sources[e]] += -(g.weights[e] * psi[e])
    return net


def _coupling_cases():
    """(graph, theta): no edges, a tiled grid on the sparse path, and a reweighted graph
    whose parent's signed weights were built first."""
    rng = np.random.default_rng(5)
    tiled, _ = tiled_rts96(3)
    assert tiled.n >= SPARSE_MIN_NODES
    parent = random_connected_graph(17)
    theta = rng.uniform(-3.0, 3.0, parent.n)
    _sine_coupling(parent, theta)  # fills the parent's cache
    scaled = parent.scaled(2.5)
    assert scaled._topology is parent._topology
    return [(WeightedGraph.from_edges(4, []), rng.uniform(-3.0, 3.0, 4)),
            (tiled, rng.uniform(-1.0, 1.0, tiled.n)),
            (scaled, theta)]


@pytest.mark.parametrize("case", _coupling_cases(), ids=["no-edges", "tiled", "scaled"])
def test_sine_coupling_is_divergence_of_sines_bitwise(case):
    g, theta = case
    sines = np.sin(edge_differences(g, theta))
    looped = _looped_divergence(g, sines)
    assert np.array_equal(divergence(g, sines), looped)
    assert np.array_equal(_sine_coupling(g, theta), looped)
    assert _sine_coupling(g, theta).dtype == float


def test_edge_norm_dimension_mismatch():
    g = WeightedGraph.from_edges(2, [(1, 2, 1.0)])
    with pytest.raises(DimensionMismatchError):
        edge_infinity_norm(g, [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        g.laplacian([1.0, 2.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_spectral_sufficient_and_necessary_sandwich(seed):
    # Unit weights: B^T omega = (B^T B) B^T Ldag omega, and the edge Laplacian
    # B^T B has smallest nonzero eigenvalue lambda2 on the cut space, so
    # lambda2 >= ||B^T omega||_2 forces ||B^T Ldag omega||_2 <= 1, hence
    # margin <= 1.  (The inf-norm version of this premise is not sufficient.)
    # Weighted: margin <= sin(gamma) forces 2 deg(G) >= ||omega||_{E,inf} sin(gamma).
    from syncgrid.sync import sync_margin

    g = random_connected_graph(seed)
    omega = random_zero_mean(seed + 2, g.n)
    unit = g.with_weights(np.ones(g.m))
    spread_2 = float(np.linalg.norm(edge_differences(unit, omega)))
    if spread_2 > 0:
        omega_scaled = omega * (np.linalg.eigvalsh(unit.laplacian())[1] / spread_2)  # lambda2 == spread_2
        assert sync_margin(unit, omega_scaled).margin <= 1.0 + 1e-9
    spread = edge_infinity_norm(g, omega)
    margin = sync_margin(g, omega).margin
    if margin <= 1.0:
        gamma = math.asin(margin)
        assert 2.0 * np.max(g.weighted_degrees()) >= spread * math.sin(gamma) - 1e-9


def test_connectivity_checks():
    disconnected = WeightedGraph.from_edges(4, [(1, 2, 1.0), (3, 4, 1.0)])
    assert not is_connected(disconnected)
    with pytest.raises(DisconnectedGraphError):
        solve_poisson(disconnected, np.zeros(4))
    with pytest.raises(DegenerateGraphError):
        WeightedGraph(0, ())


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(3, ((1, 1, 1.0),))  # self loop
    with pytest.raises(ValueError):
        WeightedGraph(3, ((1, 2, -1.0),))  # negative weight
    with pytest.raises(ValueError, match=r"duplicate edge \(1,2\)"):
        WeightedGraph(2, ((1, 2, 1.0), (1, 2, 2.0)))
    with pytest.raises(ValueError, match=r"duplicate edge \(1,2\)"):
        WeightedGraph(3, ((1, 2, 1.0), (2, 3, 1.0), (2, 1, 2.0)))  # either orientation
    with pytest.raises(ValueError, match=r"edge \(1\.5,2\) has a non-integral node id"):
        WeightedGraph(3, ((1.5, 2, 1.0), (2, 3, 1.0)))
    # the constructor orients and sorts, as from_edges does
    assert WeightedGraph(3, ((3, 2, 1.0), (2, 1, 2.0))).edges == ((1, 2, 2.0), (2, 3, 1.0))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_non_finite_or_non_positive_weight_names_the_edge(bad):
    for build in (lambda: WeightedGraph.from_edges(3, [(1, 2, bad), (2, 3, 1.0)]),
                  lambda: WeightedGraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0)])
                  .with_weights([1.0, bad])):
        with pytest.raises(ValueError, match=r"edge \((1,2|2,3)\) has non-(finite|positive) weight"):
            build()
    with pytest.raises(ValueError, match=r"edge \(1,2\) has non-finite"):
        WeightedGraph(3, ((1, 2, math.inf),))


def test_non_integral_node_ids_are_rejected():
    with pytest.raises(ValueError, match="non-integral"):
        WeightedGraph.from_edges(3, [(1.5, 2, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValueError, match="non-integral"):
        WeightedGraph.from_edges(3, [(1, 2, 1.0), (2, 3.9, 1.0)])
    with pytest.raises(ValueError, match="non-integral"):
        graph_from_dict({"n": 3, "edges": [[1, 2.7, 1.0], [2, 3, 1.0]]})
    # integral floats are node ids
    assert WeightedGraph.from_edges(3, [(2.0, 1, 1.0), (np.int64(3), 2.0, 1.0)]).edges == (
        (1, 2, 1.0), (2, 3, 1.0))


def test_with_weights_shares_topology_not_weights():
    g = random_connected_graph(11)
    topology = g._topology
    tree, endpoints = g.bfs_tree, topology.endpoints
    g._grounded_laplacian_lu
    w = np.linspace(1.0, 2.0, g.m)
    h = g.with_weights(w)
    assert h._topology is topology and h.bfs_tree is tree and h._topology.endpoints is endpoints
    for name in ("n", "m", "sources", "sinks"):
        assert getattr(h, name) is getattr(g, name), name
    assert h.weights is not w and np.array_equal(h.weights, w)
    assert "edges" not in vars(h) and "_grounded_laplacian_lu" not in vars(h)
    assert h._grounded_laplacian_lu is not g._grounded_laplacian_lu
    # the same graph as one built and validated from its edges
    rebuilt = WeightedGraph(g.n, tuple((i, j, float(wk)) for (i, j, _), wk in zip(g.edges, w)))
    assert h == rebuilt and hash(h) == hash(rebuilt) and h.edges == rebuilt.edges
    assert all(type(x) is type(y) for e, f in zip(h.edges, rebuilt.edges) for x, y in zip(e, f))
    assert np.array_equal(h.laplacian(), rebuilt.laplacian())
    # the public index arrays are read-only, and the graph takes no new attribute
    for name in ("sources", "sinks"):
        with pytest.raises(ValueError):
            getattr(h, name)[0] = 0
    with pytest.raises(AttributeError):
        h.weights = w
    with pytest.raises(DimensionMismatchError):
        g.with_weights(np.ones(g.m + 1))


def _normalized_reference(edges):
    """Reference for from_edges: orient and sort the triples in plain Python."""
    normalized = []
    for i0, j0, w in edges:
        i, j = int(i0), int(j0)
        assert i == i0 and j == j0
        if i > j:
            i, j = j, i
        normalized.append((i, j, float(w)))
    normalized.sort(key=lambda e: (e[0], e[1]))
    return tuple(normalized)


def _assert_matches_reference(n, edges):
    want = _normalized_reference(edges)
    g = WeightedGraph.from_edges(n, edges)
    assert g.edges == want
    assert all(type(x) is type(y) for e, f in zip(g.edges, want) for x, y in zip(e, f))
    assert g.sources.dtype == np.intp and g.sinks.dtype == np.intp
    assert np.array_equal(g.sources, [e[0] - 1 for e in want])
    assert np.array_equal(g.sinks, [e[1] - 1 for e in want])
    assert np.array_equal(g.weights, [e[2] for e in want])
    assert g == WeightedGraph(n, want) and hash(g) == hash(WeightedGraph(n, want))
    assert WeightedGraph.from_edges(n, np.array(edges, dtype=float).reshape(-1, 3)) == g


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_from_edges_matches_python_normalize_and_sort(seed):
    # shuffled, partly misoriented edge lists, some ids given as integral floats
    g = random_connected_graph(seed, n_max=40)
    rng = np.random.default_rng(seed)
    edges = []
    for (i, j, w), flip, as_float in zip(g.edges, rng.random(g.m) < 0.5, rng.random(g.m) < 0.3):
        i, j = (j, i) if flip else (i, j)
        edges.append((float(i), j, w) if as_float else (i, j, w))
    _assert_matches_reference(g.n, [edges[k] for k in rng.permutation(g.m)])


def test_from_edges_matches_python_normalize_and_sort_on_rts96():
    from syncgrid.powerflow import _merged_edges, bundled_case

    case = bundled_case("rts96")
    node_of = {bid: k for k, bid in enumerate(case.bus_order)}
    edges = [(i, j, e["a"]) for (i, j), e in _merged_edges(case, node_of).items()]
    _assert_matches_reference(len(case.buses), edges)
    _assert_matches_reference(len(case.buses), [(j, i, w) for i, j, w in reversed(edges)])


def test_graph_io_roundtrip(tmp_path):
    g = random_connected_graph(5)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_dict(g)))
    loaded = load_graph(str(path))
    assert loaded == g
    assert graph_from_dict(graph_to_dict(g)) == g

    csv_path = tmp_path / "g.csv"
    with open(csv_path, "w") as fh:
        fh.write("i,j,weight\n")
        for i, j, w in g.edges:
            fh.write(f"{i},{j},{w!r}\n")
    assert load_graph(str(csv_path)) == g


def test_edge_differences_orientation():
    g = WeightedGraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0)])
    x = np.array([1.0, 4.0, 9.0])
    assert np.allclose(edge_differences(g, x), [3.0, 5.0])

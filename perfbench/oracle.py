"""Independent numpy oracle for the benchmark's output checks.

Nothing here calls syncgrid's solvers.  Laplacians are assembled with
np.bincount, and potentials L^dagger omega come from a Cholesky factor of
the Laplacian grounded at node 1, a different route from the library's
augmented dense solve.  The power-case mapping restates the documented
lossless model (a_ij = |V_i||V_j| / x_ij, injections in the rotating frame).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class Net:
    """Edge arrays of a graph, 0-based, in the library's sorted edge order."""

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray


def graph_net(g) -> Net:
    e = np.array(g.edges, dtype=float).reshape(-1, 3)
    return Net(g.n, e[:, 0].astype(np.intp) - 1, e[:, 1].astype(np.intp) - 1, e[:, 2])


def _centered(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x - x.mean()


def potential(net: Net, omega) -> np.ndarray:
    """Zero-mean x with L x = omega - mean(omega)."""
    lap = np.zeros((net.n, net.n))
    lap[net.src, net.dst] = -net.w
    lap[net.dst, net.src] = -net.w
    lap[np.diag_indices(net.n)] = (np.bincount(net.src, net.w, net.n)
                                   + np.bincount(net.dst, net.w, net.n))
    x = np.zeros(net.n)
    x[1:] = scipy.linalg.cho_solve(scipy.linalg.cho_factor(lap[1:, 1:]), _centered(omega)[1:])
    return x - x.mean()


def margin(net: Net, omega) -> float:
    x = potential(net, omega)
    return float(np.max(np.abs(x[net.dst] - x[net.src])))


def divergence(net: Net, psi) -> np.ndarray:
    """B diag(w) psi."""
    flow = net.w * np.asarray(psi, dtype=float)
    return np.bincount(net.dst, flow, net.n) - np.bincount(net.src, flow, net.n)


def flow_defect(net: Net, omega, psi) -> float:
    """max |B diag(w) psi - omega| with omega recentred."""
    return float(np.max(np.abs(divergence(net, psi) - _centered(omega))))


def flow_balance_residual(net: Net, omega, theta, gain: float = 1.0) -> float:
    """max |gain * B diag(w) sin(B^T theta) - omega| with omega recentred."""
    theta = np.asarray(theta, dtype=float)
    return flow_defect(net, omega, gain * np.sin(theta[net.dst] - theta[net.src]))


def cohesiveness(net: Net, theta) -> float:
    """Largest geodesic angle between the ends of an edge."""
    theta = np.asarray(theta, dtype=float)
    d = np.mod(theta[net.dst] - theta[net.src] + math.pi, 2.0 * math.pi) - math.pi
    return float(np.max(np.abs(d)))


def close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def case_model(case, generator_damping: float, load_damping: float) -> tuple[Net, np.ndarray]:
    """Lossless oscillator model of a power case: (network, rotating-frame omega)."""
    order = {bid: k for k, bid in enumerate(sorted(b.id for b in case.buses))}
    vm = {b.id: b.vm for b in case.buses}
    merged: dict[tuple[int, int], float] = {}
    for br in case.branches:
        i, j = sorted((order[br.from_bus], order[br.to_bus]))
        merged[(i, j)] = merged.get((i, j), 0.0) + vm[br.from_bus] * vm[br.to_bus] / br.x
    keys = sorted(merged)
    net = Net(len(order), np.array([k[0] for k in keys], dtype=np.intp),
              np.array([k[1] for k in keys], dtype=np.intp), np.array([merged[k] for k in keys]))
    inj = np.zeros(net.n)
    damping = np.zeros(net.n)
    for b in case.buses:
        k = order[b.id]
        inj[k] = (b.pg_mw - b.pd_mw) / case.base_mva
        default = generator_damping if b.kind == "gen" else load_damping
        damping[k] = b.damping if b.damping is not None else default
    return net, inj - damping * inj.sum() / damping.sum()

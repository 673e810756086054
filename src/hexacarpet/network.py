"""Potentials, flows and effective resistance on weighted graphs.

Conventions.  A potential is a vector over vertices; its energy is
E(f) = sum_edges c (f(u) - f(v))^2.  A flow is a vector over the
canonical edge list of a WeightedGraph, J[i] being the signed flow from
us[i] to vs[i]; its dissipation is D(J) = sum_edges J^2 / c.  The
divergence at a vertex is the net inflow, so flux(A) = sum of the
divergence over A equals +1 for the unit current I = R grad(phi)
driven by phi = 0 on A, 1 on B (current runs downhill, into A).

The effective resistance between A and B is 1/E(phi) for the harmonic
potential with phi|A = 0, phi|B = 1, and equals D(I) for the unit
current flow I = R grad(phi).

The solver eliminates the boundary and factors the interior block of
the Laplacian with a sparse LU (SuperLU, symmetric mode).  Passing an
iteration budget max_iter selects conjugate gradients with a Jacobi
preconditioner instead, as an independent cross-check; it raises
SolverError when the budget runs out.  Both paths are deterministic.
A dense direct solver is kept alongside as a further cross-check for
small graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graphs import WeightedGraph

class SolverError(Exception):
    """No solution: disconnected terminals, or CG out of iterations."""


class NotAFlowError(Exception):
    """Divergence found off the designated terminal sets."""


@dataclass
class ResistanceResult:
    resistance: float
    disconnected: bool
    energy: float
    potential: np.ndarray
    flow: np.ndarray
    iterations: int
    residual: float
    method: str = "direct"


def laplacian(G: WeightedGraph):
    """Weighted graph Laplacian as CSR."""
    c = G.conductances()
    us, vs = G.us, G.vs
    rows = np.concatenate([us, vs, us, vs])
    cols = np.concatenate([vs, us, us, vs])
    vals = np.concatenate([-c, -c, c, c])
    return sp.csr_matrix((vals, (rows, cols)), shape=(G.n, G.n))


def energy(G: WeightedGraph, f, g=None):
    """Dirichlet energy E(f, g); exact when both inputs are exact."""
    if g is None:
        g = f
    if isinstance(f, np.ndarray) or isinstance(g, np.ndarray):
        f = np.asarray(f, dtype=float)
        g = np.asarray(g, dtype=float)
        c = G.conductances()
        us, vs = G.us, G.vs
        return float(np.sum(c * (f[us] - f[vs]) * (g[us] - g[vs])))
    total = 0
    for u, v, c in zip(G.us, G.vs, G.cond):
        total += c * (f[u] - f[v]) * (g[u] - g[v])
    return total


def gradient(G: WeightedGraph, f):
    """Per-edge current c (f(u) - f(v)) in canonical orientation."""
    f = np.asarray(f, dtype=float)
    return G.conductances() * (f[G.us] - f[G.vs])


def divergence(G: WeightedGraph, J):
    """Net inflow per vertex."""
    J = np.asarray(J, dtype=float)
    div = np.zeros(G.n)
    np.subtract.at(div, G.us, J)
    np.add.at(div, G.vs, J)
    return div


def dissipation(G: WeightedGraph, J, K=None):
    """Flow inner product sum J K / c."""
    if K is None:
        K = J
    J = np.asarray(J, dtype=float)
    K = np.asarray(K, dtype=float)
    return float(np.sum(J * K / G.conductances()))


def flux(G: WeightedGraph, J, S):
    div = divergence(G, J)
    return float(sum(div[v] for v in S))


def check_flow(G: WeightedGraph, J, sources, sinks, tol=1e-9):
    """Assert J is divergence-free off the terminals; return flux."""
    div = divergence(G, J)
    free = np.ones(G.n, dtype=bool)
    for v in sources:
        free[v] = False
    for v in sinks:
        free[v] = False
    bad = np.nonzero(free & (np.abs(div) > tol))[0]
    if len(bad):
        worst = bad[np.argsort(-np.abs(div[bad]))][:10]
        detail = ", ".join(f"{v}:{div[v]:.3e}" for v in worst)
        raise NotAFlowError(f"divergence off terminals at {detail}")
    return float(sum(div[v] for v in sources))


def _active_interior(G: WeightedGraph, A, B):
    """Split vertices for the Dirichlet solve.

    Returns (interior ids, boundary value vector over all of G, flag
    whether some component contains both terminals).  Components
    touching only one terminal set are pinned to that value; components
    touching neither are left at zero and excluded.
    """
    adj = sp.coo_matrix(
        (np.ones(G.m), (G.us, G.vs)), shape=(G.n, G.n)
    )
    ncomp, label = sp.csgraph.connected_components(adj + adj.T, directed=False)
    hasA = np.zeros(ncomp, dtype=bool)
    hasB = np.zeros(ncomp, dtype=bool)
    for v in A:
        hasA[label[v]] = True
    for v in B:
        hasB[label[v]] = True
    connected = bool(np.any(hasA & hasB))

    fixed = np.zeros(G.n, dtype=bool)
    value = np.zeros(G.n)
    for v in A:
        fixed[v] = True
    for v in B:
        fixed[v] = True
        value[v] = 1.0
    live = hasA[label] | hasB[label]
    interior = np.nonzero(live & ~fixed)[0]
    return interior, fixed, value, connected


def effective_resistance(
    G: WeightedGraph,
    A=None,
    B=None,
    rtol=1e-10,
    max_iter=None,
    allow_disconnected=False,
):
    """Effective resistance between terminal sets A and B.

    A and B default to the graph's named boundary sets.  Returns a
    ResistanceResult; a disconnected terminal pair yields infinite
    resistance, which is an error unless allow_disconnected is set.

    The interior block is factored directly unless max_iter is given;
    then Jacobi-preconditioned CG runs to relative residual rtol within
    max_iter iterations or raises SolverError.  rtol only applies to CG.
    """
    A = G.boundary["A"] if A is None else frozenset(A)
    B = G.boundary["B"] if B is None else frozenset(B)
    if not A or not B:
        raise ValueError("terminal sets must be nonempty")
    if A & B:
        raise ValueError("terminal sets overlap")

    method = "direct" if max_iter is None else "cg"
    interior, fixed, value, connected = _active_interior(G, A, B)
    if not connected:
        if not allow_disconnected:
            raise SolverError("terminals lie in different components")
        phi = value.copy()
        return ResistanceResult(
            math.inf, True, 0.0, phi, np.zeros(G.m), 0, 0.0, method
        )

    phi = value.copy()
    iters = 0
    residual = 0.0
    if len(interior):
        L = laplacian(G)[interior]
        rhs = -(L @ value)
        Lii = L[:, interior]
        del L
        if max_iter is None:
            x = _solve_direct(Lii, rhs)
        else:
            x, iters = _solve_cg(Lii, rhs, rtol, max_iter)
        phi[interior] = x
        rnorm = np.linalg.norm(rhs - Lii @ x)
        bnorm = np.linalg.norm(rhs)
        residual = float(rnorm / bnorm) if bnorm else 0.0

    E = energy(G, phi)
    R = 1.0 / E
    flow = R * gradient(G, phi)
    return ResistanceResult(R, False, E, phi, flow, iters, residual, method)


def _solve_direct(Lii, rhs):
    """Sparse LU of the symmetric interior block.

    A symmetric CSR matrix is its own transpose, so its arrays are
    passed to SuperLU as CSC without a copy.  Minimum degree ordering
    on A^T + A with diagonal pivots keeps the fill, and so the peak
    memory, close to that of a Cholesky factor.
    """
    lu = spla.splu(
        sp.csc_matrix((Lii.data, Lii.indices, Lii.indptr), shape=Lii.shape),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        panel_size=1,
        options={"SymmetricMode": True},
    )
    return lu.solve(rhs)


def _solve_cg(Lii, rhs, rtol, max_iter):
    """Jacobi-preconditioned CG from a zero start; (x, iterations)."""
    count = 0

    def cb(_):
        nonlocal count
        count += 1

    x, info = spla.cg(
        Lii,
        rhs,
        x0=np.zeros(len(rhs)),
        M=sp.diags(1.0 / Lii.diagonal()),
        rtol=rtol,
        atol=0.0,
        maxiter=max_iter,
        callback=cb,
    )
    if info != 0:
        raise SolverError(
            f"conjugate gradients stopped after {info} iterations "
            f"without reaching rtol={rtol}"
        )
    return x, count


def oracle_resistance(G: WeightedGraph, A=None, B=None, limit=2000):
    """Dense direct-solve cross-check, for graphs up to `limit` vertices."""
    if G.n > limit:
        raise ValueError(f"oracle limited to {limit} vertices, got {G.n}")
    A = G.boundary["A"] if A is None else frozenset(A)
    B = G.boundary["B"] if B is None else frozenset(B)
    interior, fixed, value, connected = _active_interior(G, A, B)
    if not connected:
        return ResistanceResult(
            math.inf, True, 0.0, value.copy(), np.zeros(G.m), 0, 0.0, "dense"
        )
    L = laplacian(G).toarray()
    phi = value.copy()
    if len(interior):
        Lii = L[np.ix_(interior, interior)]
        rhs = -(L[interior] @ value)
        phi[interior] = np.linalg.solve(Lii, rhs)
    E = energy(G, phi)
    R = 1.0 / E
    return ResistanceResult(
        R, False, E, phi, R * gradient(G, phi), 0, 0.0, "dense"
    )


# -- Thompson minimality ------------------------------------------------


def _spanning_forest(G: WeightedGraph):
    """BFS forest; returns parent edge positions and the non-tree edges."""
    adj = [[] for _ in range(G.n)]
    for i in range(G.m):
        u, v = int(G.us[i]), int(G.vs[i])
        adj[u].append((v, i))
        adj[v].append((u, i))
    seen = [False] * G.n
    parent_edge = [-1] * G.n
    parent = [-1] * G.n
    tree = set()
    for root in range(G.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        while queue:
            u = queue.pop()
            for v, i in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    parent_edge[v] = i
                    tree.add(i)
                    queue.append(v)
    nontree = [i for i in range(G.m) if i not in tree]
    return parent, parent_edge, nontree


def cycle_flow(G: WeightedGraph, parent, parent_edge, edge_pos):
    """Unit circulation around the fundamental cycle of a non-tree edge."""
    K = np.zeros(G.m)
    u, v = int(G.us[edge_pos]), int(G.vs[edge_pos])
    K[edge_pos] = 1.0

    def path_to_root(x):
        out = []
        while parent[x] >= 0:
            out.append((x, parent[x], parent_edge[x]))
            x = parent[x]
        return out

    pu, pv = path_to_root(u), path_to_root(v)
    su = {e for _, _, e in pu}
    sv = {e for _, _, e in pv}
    for x, p, e in pu:
        if e in sv:
            continue
        # walk from v back toward u: edge (x -> p) carries flow v..u side
        K[e] += 1.0 if int(G.us[e]) == p else -1.0
    for x, p, e in pv:
        if e in su:
            continue
        K[e] += -1.0 if int(G.us[e]) == p else 1.0
    return K


def verify_thompson(G: WeightedGraph, result, trials=100, seed=0, tol=1e-8):
    """Check the unit current flow minimizes dissipation.

    Random circulations K built from fundamental cycles must satisfy
    <I, K> = 0 (harmonicity) and D(I + K) >= D(I).
    """
    parent, parent_edge, nontree = _spanning_forest(G)
    if not nontree:
        return 0
    rng = np.random.default_rng(seed)
    I = result.flow
    D0 = dissipation(G, I)
    scale = max(D0, 1.0)
    checked = 0
    for _ in range(trials):
        k = rng.integers(1, min(4, len(nontree) + 1))
        K = np.zeros(G.m)
        for pos in rng.choice(len(nontree), size=k, replace=False):
            K += rng.normal() * cycle_flow(G, parent, parent_edge, nontree[pos])
        cross = dissipation(G, I, K)
        if abs(cross) > tol * scale * max(1.0, float(np.abs(K).max())):
            raise AssertionError(f"current not cycle-orthogonal: {cross}")
        if dissipation(G, I + K) < D0 - tol * scale:
            raise AssertionError("dissipation not minimal")
        checked += 1
    return checked

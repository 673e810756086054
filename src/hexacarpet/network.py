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

The solver eliminates the boundary and solves in the invariant
subspace of the terminal pair's stabiliser: the verified symmetries of
the graph that fix (A, B) or swap it (graphs.stabiliser).  In terms of
psi = phi - 1/2 the potential satisfies psi(g v) = psi(v) for an element
fixing the pair and psi(g v) = -psi(v) for one swapping it, so there is
one unknown per orbit of interior vertices, and a vertex that a swapping
element fixes is pinned at psi = 0.  The projected interior block
P^T L P, with a quarter of the unknowns for the Klein four-groups of the
skeleton, dual and hexacarpet, is factored with a sparse LU (SuperLU,
symmetric mode); a graph without symmetries gets P = I.  P^T L P and
P^T b are assembled over the orbits of the edges, not the edges: the
edges of one orbit add equal terms, so the smallest edge of each orbit
adds its terms times the orbit's size.  The orbits come from the
generators' int32 edge images, which the stabiliser's check leaves
behind.  Every term is a small dyadic rational (halves, signs +-1,
boundary values +-1/2), so the sums, and with them the matrix, the LU
and every output, are bitwise those of the edge-by-edge assembly.  The
potential is expanded back to every vertex, exactly symmetric or
antisymmetric, and the resistance, energy, flow and the residual of the
full interior system are computed on the whole graph.

Working set.  Besides the graph and the LU factors (SuperLU's own
memory), the solve holds at most 5.15 float arrays over the edges at
once, 5.15 * 8m bytes, on the level-6 hexacarpet (test_solve_memory_peak;
5.09 measured, in the stabiliser's match), and 2.6 while SuperLU
factors (2.52 measured).  Its arrays over the vertices are narrow: the
interior ids are int32, the orbit signs int8, and the boundary values
are two masks, of the boundary and of B, formed into values only at the
ends of the orbits' smallest edges and, once psi is known, into phi.
The stabiliser's match builds the image codes in place and frees them
before the conductance check, and the identity's images are made after
the matches; the group's vertex images are dropped once the vertex
orbits are read off them, before the edge orbits, and the generators'
edge images once the edge orbits are; the orbit sizes are counted over
the orbits' smallest edges, the assembly holds arrays over the orbits
only and drops its COO triplets once the CSC matrix is built, psi's
buffer takes phi, the energy is summed before the residual and the flow
formed in place, the divergence sums the int32 ends without an intp
copy, and the right-hand side's norm sums only the edges whose ends
differ in boundary value.

Indices.  Every index array the solve keeps is int32, as the graph's
are, but numpy 2.4 gathers and scatters by an int32 index on a slow
path (a gather of 140k floats takes 364 us by int32 and 122 us by
intp).  So each pass over the edges or vertices indexes by an intp copy
that the function making it frees, one end at a time, and the int32
orbit numbers sum with np.add.at, which needs no copy.  No intp copy of
the ends is kept through the solve: it would hold 2 * 8m more bytes
through the stabiliser.  The vertex orbits gather by the int32 orbit
representatives, as an intp copy there, beside the group's images,
would set the peak.  Measured on the level-6 hexacarpet (2-core VM,
one BLAS thread, process time, in ms, int32 gathers in brackets): the
solve takes 31 (38), SuperLU 15 (15), the stabiliser 5.2 (7.5), the
components 2.9 (2.9), the orbits 2.2 (2.7), the assembly 2.6 (3.7), and
the interior, expansion, energy and residual 4.0 (6.3).

This is the library's one solver.  The tests cross-check it against
the same direct solve on the unreduced system (the graph without its
symmetry action, so P = I) and, for small graphs, against a dense LAPACK
solve that they keep as their reference.  The solve is deterministic.

Thompson's principle, that the unit current has the least dissipation
among unit flows, is checked against random circulations.  They are
built from one breadth-first spanning forest held as arrays (the
vertices grouped by depth in runs of common parent, each one's edge to
its parent, and the non-tree edges, one fundamental cycle each).  A
circulation is its coefficients on the non-tree edges plus the tree
currents that return the charges those put on the edge ends; the tree
currents are subtree sums, taken one depth level at a time from the
deepest up for a whole block of trials at once.  Blocks hold a bounded
number of entries, so the check's memory does not grow with edges times
trials.  A block is one array, (vertices + non-tree edges) x trials:
the coefficients sit in the non-tree rows, and the vertex rows, in
forest order, take the charges and then their subtree sums, which
leaves the current on each vertex's tree edge in that vertex's row.
The check reads the block in that row order, so the circulations are
never copied into edge order; at level 4, 100 trials peak at 1.12
times the 8 m b bytes of one edges x trials array
(test_thompson_memory_peak).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from numbers import Integral

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graphs import WeightedGraph, stabiliser

# largest divergence off the terminals that still counts as a flow
FLOW_TOL = 1e-9


class SolverError(Exception):
    """No solution: the terminals lie in different components."""


class NotAFlowError(Exception):
    """Divergence found off the designated terminal sets."""


@dataclass(kw_only=True)
class ResistanceResult:
    """One effective resistance solve; built by keyword only."""

    resistance: float
    energy: float
    potential: np.ndarray
    flow: np.ndarray
    residual: float
    # size of the system solved, order of the symmetry group used to
    # reduce it, and SuperLU's stored L and U entries (0 without a factor)
    unknowns: int = 0
    group_order: int = 1
    factor_fill: int = 0


def energy(G: WeightedGraph, f, g=None):
    """Dirichlet energy E(f, g) = sum_edges c (f(u) - f(v)) (g(u) - g(v))."""
    f = np.asarray(f, dtype=float)
    g = f if g is None else np.asarray(g, dtype=float)
    c = G.conductances()
    us, vs = G.us, G.vs
    return float(np.sum(c * (f[us] - f[vs]) * (g[us] - g[vs])))


def gradient(G: WeightedGraph, f):
    """Per-edge current c (f(u) - f(v)) in canonical orientation."""
    f = np.asarray(f, dtype=float)
    return G.conductances() * (f[G.us] - f[G.vs])


def divergence(G: WeightedGraph, J):
    """Net inflow per vertex: the flows into each vertex summed in edge
    order, less those out of it.  np.add.at adds the terms in the order
    np.bincount does, and takes the int32 ends without an intp copy."""
    div = np.zeros(G.n)
    np.add.at(div, G.vs, J)
    out = np.zeros(G.n)
    np.add.at(out, G.us, J)
    div -= out
    return div


def dissipation(G: WeightedGraph, J, K=None):
    """Flow inner product sum J K / c."""
    if K is None:
        K = J
    J = np.asarray(J, dtype=float)
    K = np.asarray(K, dtype=float)
    return float(np.sum(J * K / G.conductances()))


def _checked_flow(G: WeightedGraph, J, sources, sinks):
    """(flux, divergence, mask of the non-terminal vertices) of J;
    raises NotAFlowError where the divergence off the terminals exceeds
    FLOW_TOL."""
    a = np.fromiter(sources, np.int64)
    div = divergence(G, J)
    free = np.ones(G.n, dtype=bool)
    free[a] = False
    free[np.fromiter(sinks, np.int64)] = False
    bad = np.nonzero(free & (np.abs(div) > FLOW_TOL))[0]
    if len(bad):
        worst = bad[np.argsort(-np.abs(div[bad]))][:10]
        detail = ", ".join(f"{v}:{div[v]:.3e}" for v in worst)
        raise NotAFlowError(f"divergence off terminals at {detail}")
    return float(div[a].sum()), div, free


def check_flow(G: WeightedGraph, J, sources, sinks):
    """Assert J is divergence-free off the terminals; return flux."""
    return _checked_flow(G, J, sources, sinks)[0]


def _active_interior(G: WeightedGraph, A, B):
    """Split vertices for the Dirichlet solve.

    Returns (int32 interior ids, boundary mask, mask of B, flag whether
    some component contains both terminals).  The boundary value is 1 on
    B and 0 elsewhere, so the mask of B stands for the value vector.
    Components touching only one terminal set are pinned to that value;
    components touching neither are left at zero and excluded.
    """
    ncomp, label = G.components()
    a = np.fromiter(A, np.int64, len(A))
    b = np.fromiter(B, np.int64, len(B))
    hasA = np.zeros(ncomp, dtype=bool)
    hasA[label[a]] = True
    hasB = np.zeros(ncomp, dtype=bool)
    hasB[label[b]] = True
    connected = bool(np.any(hasA & hasB))

    inB = np.zeros(G.n, dtype=bool)
    inB[b] = True
    fixed = inB.copy()
    fixed[a] = True
    live = (hasA | hasB)[label.astype(np.intp)]
    live &= ~fixed
    interior = np.flatnonzero(live).astype(np.int32)
    return interior, fixed, inB, connected


def _vertex_orbits(G: WeightedGraph, group, interior):
    """The orbits of the vertices under the group: (k, col, sign).

    group is a list of (vertex images, sign, edge images), the images
    int32 and the identity (np.arange) first (graphs.stabiliser).  An
    interior vertex v carries sign[v] * x[col[v]], where col (int32)
    numbers the k orbits by their smallest vertex and sign (int8, +-1 or
    0) relates v to that vertex; sign is 0 where a swapping element
    fixes v and off the interior.
    """
    ids = group[0][0]
    unknown = np.zeros(G.n, dtype=bool)
    unknown[interior.astype(np.intp)] = True
    rep, sign = ids.copy(), np.ones(G.n, dtype=np.int8)
    for p, s, _ in group[1:]:
        lower = p < rep
        np.copyto(rep, p, where=lower)
        np.copyto(sign, s, where=lower)
        if s < 0:
            unknown &= p != ids
    sign[~unknown] = 0
    slot = np.cumsum(unknown & (rep == ids), dtype=np.int32)
    slot -= 1
    k = int(slot[-1]) + 1 if G.n else 0
    # gathered by the int32 rep: an intp copy beside the group's images
    # would set the solve's peak
    col = slot[rep]
    del rep, slot
    col[~unknown] = 0
    return k, col, sign


def _edge_orbits(G: WeightedGraph, gens, order):
    """The orbits of the edges under the group of the given order whose
    generators have the int32 edge images gens: (reps, size).

    reps lists the smallest edge of each edge orbit, ascending, as
    int32, and size (int8) the orbit's size: the generators commute, so
    each one carries the orbits of those before it onto orbits, and the
    orbit of an edge and of its image merge.  The size is the group's
    order over the number of its elements that fix the orbit's smallest
    edge r, counted from the generators' images of the reps alone: the
    group is the identity, at most two commuting involutions and their
    product.
    """
    orbit = np.arange(G.m, dtype=np.int32)
    for e in gens:
        np.minimum(orbit, orbit[e.astype(np.intp)], out=orbit)
    # the edges r with orbit[r] == r, read off orbit itself as int32
    reps = orbit[orbit == np.arange(G.m, dtype=np.int32)]
    del orbit
    # an involution g fixes r where g r == r, and the product g h of two
    # where g r == h r; size counts the fixers, then takes the order
    # over them in place
    size = np.ones(len(reps), dtype=np.int8)
    r = reps.astype(np.intp)
    for x, y in combinations([reps] + [e[r] for e in gens], 2):
        size += x == y
    np.floor_divide(order, size, out=size)
    return reps, size


def _reduced_system(G: WeightedGraph, orbits, interior, fixed, inB):
    """The interior block of the Dirichlet problem projected onto the
    group's invariant subspace, in one COO pass over the edge orbits.

    orbits is (k, col, sign, reps, size), what _vertex_orbits and
    _edge_orbits give, and fixed and inB mask the boundary
    and B (_active_interior); the boundary values of psi, -1/2 on A and
    1/2 on B, are formed at the ends of the orbits' smallest edges only.
    The edges of one orbit add equal terms to P^T L P and P^T b, so each
    orbit adds its smallest edge's terms times its size; every term is
    a small dyadic rational, so the sums are exact in any order.
    Returns (P^T L P as CSC, P^T b, col, sign), the last two over
    interior.  Besides col and sign it holds arrays over the orbits
    only, each dropped once read, and the COO triplets until the CSC
    matrix is built.
    """
    k, col, sign, reps, size = orbits
    if not k:
        return sp.csc_matrix((0, 0)), np.zeros(0), col[interior], sign[interior]
    r = reps.astype(np.intp)
    c = G.num[r] / G.den * size
    us, vs = (ends[r].astype(np.intp) for ends in (G.us, G.vs))
    del r
    cu, cv = col[us], col[vs]
    su, sv = sign[us], sign[vs]
    # the int32 orbit numbers sum with np.add.at, which needs no intp
    # copy
    diag, rhs = np.zeros(k), np.zeros(k)
    np.add.at(diag, cu, c * (su != 0))
    np.add.at(diag, cv, c * (sv != 0))
    bu, bv = (inB[w] - 0.5 * fixed[w] for w in (us, vs))
    np.add.at(rhs, cu, c * su * bv)
    np.add.at(rhs, cv, c * sv * bu)
    both = (su != 0) & (sv != 0)
    off = -(c * su * sv)[both]
    cu, cv = cu[both], cv[both]
    del c, us, vs, su, sv, bu, bv, both
    diagonal = np.arange(k, dtype=np.int32)
    M = sp.coo_array(
        (
            np.concatenate([off, off, diag]),
            (np.concatenate([cu, cv, diagonal]), np.concatenate([cv, cu, diagonal])),
        ),
        shape=(k, k),
    )
    del off, cu, cv, diag, diagonal
    M = M.tocsc()
    i = interior.astype(np.intp)
    return M, rhs, col[i], sign[i]


def _terminals(G: WeightedGraph, A, B):
    """The terminal sets A and B, defaulting to the graph's named
    boundary sets; they must be nonempty, disjoint sets of integer
    vertex ids."""
    A = G.boundary["A"] if A is None else frozenset(A)
    B = G.boundary["B"] if B is None else frozenset(B)
    if not A or not B:
        raise ValueError("terminal sets must be nonempty")
    if A & B:
        raise ValueError("terminal sets overlap")
    if not all(isinstance(v, Integral) and 0 <= v < G.n for v in A | B):
        raise ValueError(f"terminal ids must be integer vertex ids 0..{G.n - 1}")
    return A, B


def effective_resistance(G: WeightedGraph, A=None, B=None):
    """Effective resistance between terminal sets A and B.

    A and B default to the graph's named boundary sets.  Returns a
    ResistanceResult; a disconnected terminal pair raises SolverError.
    """
    A, B = _terminals(G, A, B)
    interior, fixed, inB, connected = _active_interior(G, A, B)
    if not connected:
        raise SolverError("terminals lie in different components")

    # psi = phi - 1/2 is +-1/2 on the boundary
    psi, unknowns, group_order, fill = _reduced_solve(G, A, B, interior, fixed, inB)
    del fixed
    # 1 - (1/2 + |psi|) is exact, so a swapped pair of vertices gets
    # phi and 1 - phi bit for bit; phi is the boundary value, 1 on B
    # and 0 elsewhere, off the interior.  psi's buffer takes phi
    below = psi < 0
    half = np.abs(psi, out=psi)
    half += 0.5
    np.subtract(1.0, half, out=half, where=below)
    phi = inB.astype(float)
    phi[interior.astype(np.intp)] = half
    del psi, half, below

    # gradient(G, phi) and energy(G, phi), their products taken in place
    # in the same order
    drop = phi[G.us.astype(np.intp)]
    drop -= phi[G.vs.astype(np.intp)]
    grad = G.conductances()
    grad *= drop
    drop *= grad
    E = float(np.sum(drop))
    del drop
    residual = 0.0
    if len(interior):
        # the full interior system L_II phi_I = -L_IB phi_B, edge by
        # edge: L f = -divergence(gradient(f)), whose sign the norm
        # drops; the boundary values' gradient vanishes off the edges
        # whose ends differ in value, and its exact zeros add nothing
        rnorm = np.linalg.norm(divergence(G, grad)[interior.astype(np.intp)])
        step = np.flatnonzero(inB[G.us.astype(np.intp)] != inB[G.vs.astype(np.intp)])
        us, vs = G.us[step], G.vs[step]
        J = G.num[step] / G.den * np.where(inB[us], 1.0, -1.0)
        bnorm = np.linalg.norm(
            (np.bincount(vs, J, G.n) - np.bincount(us, J, G.n))[interior.astype(np.intp)]
        )
        residual = float(rnorm / bnorm) if bnorm else 0.0

    R = 1.0 / E
    grad *= R
    return ResistanceResult(
        resistance=R, energy=E, potential=phi, flow=grad, residual=residual,
        unknowns=unknowns, group_order=group_order, factor_fill=fill,
    )


def _reduced_solve(G: WeightedGraph, A, B, interior, fixed, inB):
    """The solve in the invariant subspace of the stabiliser of (A, B):
    (psi over interior, unknowns, group order, factor nonzeros).  The
    group's vertex images are dropped once the vertex orbits are read
    off them, before the edge orbits, and the generators' edge images
    once the edge orbits are, before the assembly and the
    factorisation."""
    group = list(stabiliser(G, A, B).values())
    group_order = len(group)
    gens = [e for _, _, e in group if e is not None]
    vertex = _vertex_orbits(G, group, interior)
    del group
    orbits = vertex + _edge_orbits(G, gens, group_order)
    del vertex, gens
    M, rhs, col, sign = _reduced_system(G, orbits, interior, fixed, inB)
    del orbits
    if not len(rhs):
        return np.zeros(len(interior)), 0, group_order, 0
    x, fill = _solve_direct(M, rhs)
    return sign * x[col.astype(np.intp)], len(rhs), group_order, fill


def _solve_direct(M, rhs):
    """Sparse LU of the symmetric CSC matrix M; (x, stored LU entries).

    Minimum degree ordering on A^T + A with diagonal pivots keeps the
    fill, and so the peak memory, close to that of a Cholesky factor.
    """
    lu = spla.splu(
        M,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        panel_size=1,
        options={"SymmetricMode": True},
    )
    return lu.solve(rhs), lu.nnz


# -- Thompson minimality ------------------------------------------------

# float64 entries (32 MiB) over the edges in a verify_thompson block,
# whose one array also has a row per root; bounds the check's
# working set whatever the number of trials, yet holds ~30 trials of
# the level-6 hexacarpet, as every block walks all the BFS depth levels
_TRIAL_BLOCK = 1 << 22


@dataclass(frozen=True)
class SpanningForest:
    """A breadth-first spanning forest of a graph, as arrays.

    Each component is rooted at its smallest vertex.  order lists the
    vertices by depth, the roots first; levels[d] = (lo, hi, starts,
    heads) holds depth d + 1, the vertices order[lo:hi], which come in
    runs of common parent starting at the offsets starts, heads being
    the positions in order of those runs' parents.  tree[i] is the parent edge of order[roots + i], and up[i]
    is +1 where that edge's canonical orientation runs from child to
    parent, -1 where it runs the other way.  nontree holds the
    positions of the remaining edges, one fundamental cycle each.
    """

    order: np.ndarray
    levels: list
    tree: np.ndarray
    up: np.ndarray
    nontree: np.ndarray

    @property
    def edges(self):
        """The tree edges, then the non-tree ones: the edges of the rows
        of _cycle_rows below the roots."""
        return np.concatenate([self.tree, self.nontree])


def spanning_forest(G: WeightedGraph):
    """The BFS spanning forest of G.

    One breadth-first search from a virtual vertex joined to the
    smallest vertex of every component visits the components in turn,
    so isolated vertices and many components cost no extra pass.  A
    breadth-first order lists children in runs, in the order of their
    parents, so the depth levels and the runs are cut from it with
    searchsorted.
    """
    n = G.n
    ncomp, label = G.components()
    roots = np.unique(label, return_index=True)[1]
    rows = np.concatenate([G.us, np.full(ncomp, n)])
    cols = np.concatenate([G.vs, roots])
    adj = sp.csr_array((np.ones(len(rows)), (rows, cols)), shape=(n + 1, n + 1))
    order, pred = sp.csgraph.breadth_first_order(
        adj, n, directed=False, return_predecessors=True
    )
    order = order[1:]
    where = np.empty(n + 1, dtype=np.int64)
    where[order] = np.arange(n)
    where[n] = -1
    # position in order of each vertex's parent, -1 for the roots;
    # nondecreasing along order
    up_pos = where[pred[order]]

    levels = []
    lo = ncomp
    while lo < n:
        hi = int(np.searchsorted(up_pos, lo))
        p = up_pos[lo:hi]
        starts = np.flatnonzero(np.concatenate([[True], p[1:] != p[:-1]]))
        levels.append((lo, hi, starts, p[starts]))
        lo = hi

    child = order[ncomp:]
    par = order[up_pos[ncomp:]]
    tree = G.positions(np.minimum(child, par), np.maximum(child, par))
    intree = np.zeros(G.m, dtype=bool)
    intree[tree] = True
    return SpanningForest(
        order, levels, tree,
        np.where(G.us[tree] == child, 1.0, -1.0), np.flatnonzero(~intree),
    )


def tree_currents(forest: SpanningForest, charge):
    """Currents on the forest's edges that carry every subtree's net
    charge to its parent.

    charge is an (n, b) array, one column per problem, of the net inflow
    other edges put on each vertex, its rows in forest order: row i is
    vertex forest.order[i].  The sums are taken in charge, which is
    overwritten, and the result is a view of it: row i is the canonical
    current on edge forest.tree[i].  Adding these currents leaves every
    vertex but the roots divergence-free, and a root takes the total
    charge of its component.  The subtree sums take one segmented sum
    per depth level, from the deepest up.
    """
    for lo, hi, starts, heads in reversed(forest.levels):
        charge[heads] += np.add.reduceat(charge[lo:hi], starts, axis=0)
    currents = charge[len(forest.order) - len(forest.tree):]
    currents *= forest.up[:, None]
    return currents


def _cycle_rows(G: WeightedGraph, forest: SpanningForest, W):
    """Turn W into circulations in place, in the forest's row layout.

    W is (n + len(nontree), b): zeros in its first n rows and, below
    them, the coefficients on the non-tree edges.  The first n rows, in
    forest order, take the charges the coefficients put on the edge
    ends and then their subtree sums (tree_currents), so that row
    roots + i holds the current on the tree edge forest.tree[i].
    Returns the view W[roots:], whose rows are the edges forest.edges.
    """
    n, nt = G.n, forest.nontree
    b = W.shape[1]
    rank = np.empty(n, dtype=np.int64)
    rank[forest.order] = np.arange(n)
    j, t = np.nonzero(W[n:])
    w = W[n + j, t]
    # the charges over the flat (position in forest order, column)
    # index, summed in turn as a bincount would sum them
    ends = rank[np.concatenate([G.vs[nt[j]], G.us[nt[j]]])] * b + np.concatenate([t, t])
    np.add.at(W[:n].reshape(-1), ends, np.concatenate([w, -w]))
    tree_currents(forest, W[:n])
    return W[n - len(forest.tree):]


def circulations(G: WeightedGraph, forest: SpanningForest, coef):
    """Flows sum_j coef[j, t] Z_j, one column per t.

    Z_j is the fundamental cycle of the non-tree edge forest.nontree[j]:
    a unit flow along that edge in its canonical orientation, returned
    to its start through the forest.  coef is (len(nontree), b); the
    result is the (m, b) array of edge flows: the coefficients on the
    non-tree edges and the tree currents of the charges they put on
    their ends, built in the row layout of _cycle_rows and put in edge
    order.
    """
    W = np.zeros((G.n + len(forest.nontree), coef.shape[1]))
    W[G.n:] = coef
    K = np.empty((G.m, coef.shape[1]))
    K[forest.edges] = _cycle_rows(G, forest, W)
    return K


def verify_thompson(G: WeightedGraph, result, trials=100, seed=0, tol=1e-8):
    """Check the unit current flow minimizes dissipation.

    Random circulations K built from fundamental cycles must satisfy
    <I, K> = 0 (harmonicity) and D(I + K) >= D(I).  Each trial draws
    k in 1..3, k distinct non-tree edges and a normal coefficient for
    each; the trials are checked in blocks of _TRIAL_BLOCK // m, and
    the first failing trial raises.  A block is one array, the
    coefficients written below one row per vertex, in which _cycle_rows
    takes the charges and the subtree sums; the check reads K in that
    array's row order, I and c gathered into that order once.  The
    cross terms are one product with I / c, and D(I + K) is summed from
    K itself, overwritten.
    Returns the number of trials checked, 0 for a forest.
    """
    forest = spanning_forest(G)
    nt = len(forest.nontree)
    if not nt:
        return 0
    rng = np.random.default_rng(seed)
    D0 = dissipation(G, result.flow)
    scale = max(D0, 1.0)
    rows = forest.edges
    I = result.flow[rows]
    c = G.conductances()[rows]
    Ic = I / c
    block = max(1, _TRIAL_BLOCK // G.m)
    checked = 0
    while checked < trials:
        b = int(min(block, trials - checked))
        W = np.zeros((G.n + nt, b))
        for t in range(b):
            k = rng.integers(1, min(4, nt + 1))
            for pos in rng.choice(nt, size=k, replace=False):
                W[G.n + pos, t] = rng.normal()
        K = _cycle_rows(G, forest, W)
        cross = Ic @ K
        # the column maxima of |K|
        kmax = np.maximum(K.max(axis=0), -K.min(axis=0))
        skew = np.abs(cross) > tol * scale * np.maximum(1.0, kmax)
        K += I[:, None]
        np.square(K, out=K)
        K /= c[:, None]
        lower = K.sum(axis=0) < D0 - tol * scale
        bad = np.flatnonzero(skew | lower)
        if len(bad):
            t = bad[0]
            if skew[t]:
                raise AssertionError(f"current not cycle-orthogonal: {cross[t]}")
            raise AssertionError("dissipation not minimal")
        checked += b
    return checked

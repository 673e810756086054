"""Weighted graph families over the subdivided triangle.

Five families per level n >= 1:

  skeleton    the 1-skeleton of the level-n complex; interior edges get
              conductance 1, boundary edges 1/2 (a boundary edge borders
              one triangle instead of two, so it carries half the load)
  dual        triangle-adjacency graph, unit conductances
  hexacarpet  the triangle-edge incidence graph: one vertex per
              triangle, one per edge, an edge of conductance 2 for each
              incidence (resistance 1/2 per hop, so the two hops across
              an interior edge add up to the dual's unit resistance)
  cut / short subgraph and quotient surgeries of the hexacarpet used
              for resistance bounds, below

Terminals: the skeleton joins the side-2 chain to the side-5 chain; the
hexacarpet joins the edge vertices of sides {0,1} to those of sides
{3,4}.  Side k of the hexagonal boundary runs counterclockwise from the
corner at angle 60k degrees.

Edge ends, vertex images and side tables are int32, like the
complex's tables they are read from, and the codes u*n + v that order
edges are int64.  They stay int32 at rest: numpy gathers and counts by
an int32 index on a slow path, so the passes that index by them (the
stabiliser's check, the strand check, the quotient) take a transient
intp copy and free it when done.  Conductances are exact: int64
numerators over a common denominator (halves for every family, and sums
of halves in quotients); the float view divides them on every call.  The
hexacarpet, its cut graph and the dual, each of one conductance, hold
their numerators as one read-only zero-stride value.  Triangle counts
come from the complex.

Every family carries the dihedral symmetry group of the hexagon as a
DihedralAction on its vertices, read lazily from the complex's map
image arrays, with a side table built once from the complex's boundary
table: row s lists the family's vertices on hexagon side s.
stabiliser() picks the elements that fix or swap a terminal pair and
keeps only those it verifies as automorphisms of the actual graph,
conductances included where they are not one value; the solver uses
them to reduce its unknowns.

The hexacarpet lists triangle t's incidences at 3t..3t+2, one per side
in the order of tri_edges[n][t], and incidence_positions reads that
layout for the flow pullbacks and the splice of analysis: (t, e) sits
at 3t plus the number of t's sides below e.  The stabiliser checks a
candidate symmetry of any family by one exact match: the codes u*n + v
of the mapped edges, built in place, are sorted stably and must equal
the graph's own, every edge once (WeightedGraph._match_codes); the
inverse of the sort gives the int32 edge images it keeps for its
generators.  positions() stays for edge sets that are not a
permutation of the edges, such as a spanning tree.

The exports to_edgelist and to_dot hand the edges to the text writer
subdivision.format_rows as one IntRows table: the columns us and vs,
and a tail per row picked by its conductance numerator, each label
text made once.  The boundary header and the dot preamble are its
leading strings.  The writer decodes each block of rows to a string as
it fills and joins them with these strings once, so no export joins
its text afterwards.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Integral

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .subdivision import (
    CELL_SIDES,
    IntRows,
    SubdivisionComplex,
    dihedral_compose,
    dihedral_elements,
    format_rows,
    lookup_sorted,
    pair_codes,
    side_perm,
)

IDENTITY = ("r", 0)

# family conductances as numerators over DEN
DEN = 2
HALF, ONE, TWO = 1, 2, 4
# largest integer a float64 holds exactly
_EXACT = 2 ** 53


class FamilyError(Exception):
    """Invalid family/level request or degenerate surgery result."""


class DihedralAction:
    """The dihedral group of the hexagon acting on a graph's vertices.

    perm(elem) gives the int32 vertex images of one group element, read
    from the arrays the complex caches when a solve asks.  sides is a
    (6, k) int32 table whose row s lists the vertices on hexagon side s,
    built once by the family builder from the complex's boundary table;
    a vertex may sit in two rows, or twice in one.  Graphs on one vertex
    set (a hexacarpet and its cut graph) share one action.
    """

    def __init__(self, perm, sides):
        self.perm = perm
        self.sides = sides

    def candidates(self, A, B):
        """The involutions other than the identity whose side permutation
        carries the sides of (A, B) to those of (A, B) or of (B, A)."""
        a, b = (
            set(np.flatnonzero(
                np.isin(self.sides, np.fromiter(S, np.int64, len(S))).any(axis=1)
            ).tolist())
            for S in (A, B)
        )
        out = []
        for g in dihedral_elements():
            if g == IDENTITY or dihedral_compose(g, g) != IDENTITY:
                continue
            moves = side_perm(g)
            ga, gb = ({moves[s] for s in x} for x in (a, b))
            if (ga, gb) in ((a, b), (b, a)):
                out.append(g)
        return out

    def induced(self, vmap, n):
        """The action on the n classes of a quotient, vmap giving each
        vertex's class, with the classes of the side table's entries as
        its side table; well defined only if the classes are permuted
        whole, which stabiliser() verifies."""

        def perm(elem):
            p = np.empty(n, dtype=np.int32)
            p[vmap] = vmap[self.perm(elem)]
            return p

        return DihedralAction(perm, vmap[self.sides])


def _integers(values, what):
    """values as an array of their own dtype; FamilyError unless
    integers (or empty)."""
    a = np.asarray(values)
    if a.size and a.dtype.kind not in "iu":
        raise FamilyError(f"{what} must be integers")
    return a


class WeightedGraph:
    """Undirected weighted graph with named terminal sets and at most
    one edge between two vertices.

    Edges are stored in canonical orientation us[i] < vs[i], the ends
    as int32 vertex ids; the codes us*n + vs that order them are int64
    (pair_codes).  Conductances are exact: edge i has num[i] / den,
    with int64 numerators over one common denominator (2 for every
    family here).  cond gives one per edge, as rationals, or, when den
    is given, as those numerators: integers > 0 over an integer
    den >= 1.  boundary maps set names (usually "A", "B") to frozensets
    of vertex ids.  Edge ends and terminals must be integer vertex ids
    0..n-1, n an integer 0..2^31.  A bad count, conductance or parallel
    edge raises FamilyError.
    Edges given in canonical order already are stored without a sort,
    and without a copy where the ends are contiguous int32 arrays.
    int64 numerators are kept as given, so one conductance for every
    edge may come as a zero-stride np.broadcast_to value, which a sort
    leaves as it is.  symmetry is the DihedralAction on the vertices,
    or None.
    """

    def __init__(self, n, us, vs, cond, boundary=None, meta=None, den=None,
                 symmetry=None):
        # the ids 0..n-1 must fit the int32 ends
        if not isinstance(n, Integral) or not 0 <= n <= 2 ** 31:
            raise FamilyError(
                f"the vertex count must be an integer >= 0 and at most 2^31, not {n!r}"
            )
        us = _integers(us, "edge ends")
        vs = _integers(vs, "edge ends")
        if not (us < vs).all():
            us, vs = np.minimum(us, vs), np.maximum(us, vs)
            if (us == vs).any():
                raise FamilyError("self-loops are not allowed")
        # ids in range fit int32, so the cast keeps them
        if len(us) and (us.min() < 0 or vs.max() >= n):
            raise FamilyError(f"edge ends must be vertex ids 0..{n - 1}")
        us = np.ascontiguousarray(us, dtype=np.int32)
        vs = np.ascontiguousarray(vs, dtype=np.int32)
        if den is None:
            cond = [Fraction(c) for c in cond]
            den = math.lcm(*(c.denominator for c in cond))
            cond = [c.numerator * (den // c.denominator) for c in cond]
        elif not isinstance(den, Integral) or den < 1:
            raise FamilyError("the conductance denominator must be an integer >= 1")
        num = _integers(cond, "conductance numerators").astype(np.int64, copy=False)
        if len(num) != len(us) or (len(num) and num.min() <= 0):
            raise FamilyError("conductances must be positive, one per edge")
        # float views divide two exactly representable integers
        if den > _EXACT or (len(num) and num.max() > _EXACT):
            raise FamilyError("conductances need numerators and a denominator below 2^53")
        # edges handed over in (lo, hi) order already are kept as they
        # are; else the codes lo * n + hi, which order the pairs alike,
        # are sorted, and a repeated pair is a parallel edge.  Equal
        # numerators need no reordering.
        rises = us[1:] > us[:-1]
        rises |= (us[1:] == us[:-1]) & (vs[1:] > vs[:-1])
        if not rises.all():
            codes = pair_codes(us, vs, n)
            order = np.argsort(codes, kind="stable")
            codes = codes[order]
            if (codes[1:] == codes[:-1]).any():
                raise FamilyError("parallel edges are not allowed")
            del codes
            us = us[order]
            vs = vs[order]
            if num.min() != num.max():
                num = num[order]
        self.n = int(n)
        self.us, self.vs, self.num = us, vs, num
        self.den = int(den)
        self.boundary = {
            k: frozenset(v) for k, v in (boundary or {}).items()
        }
        for k, v in self.boundary.items():
            if not all(isinstance(x, Integral) and 0 <= x < n for x in v):
                raise FamilyError(f"terminal set {k} must hold integer vertex ids 0..{n - 1}")
        self.meta = dict(meta or {})
        self.symmetry = symmetry
        self._components = None

    @property
    def m(self):
        return len(self.num)

    def conductances(self):
        return self.num / self.den

    def components(self):
        """(number of connected components, component label per vertex)."""
        if self._components is None:
            # edges are sorted by their smaller end, so they form CSR rows
            # as is; int32 indices and float data are what scipy works
            # on, so it takes them without a copy
            starts = np.zeros(self.n + 1, dtype=np.int32)
            np.cumsum(np.bincount(self.us, minlength=self.n), out=starts[1:])
            adj = sp.csr_array((np.ones(self.m), self.vs, starts), shape=(self.n, self.n))
            self._components = connected_components(adj, directed=False)
        return self._components

    def positions(self, us, vs):
        """Positions of the canonical edges (us, vs), elementwise over
        arrays; every pair must be an edge."""
        codes = pair_codes(us, vs, self.n)
        return lookup_sorted(pair_codes(self.us, self.vs, self.n), codes, "edge")

    def _match_codes(self, codes):
        """The int32 positions of the edges with the int64 codes u*n + v,
        which must be every edge once, else KeyError: the inverse of the
        codes' stable sort once it equals the graph's own codes.  The
        codes' buffer is overwritten; besides it the match holds the
        sort order, the sorted codes and the positions."""
        order = np.argsort(codes, kind="stable")
        found = codes[order]
        # the codes' buffer takes the graph's own codes
        np.multiply(self.us, self.n, out=codes, dtype=np.int64)
        codes += self.vs
        if (found != codes).any():
            raise KeyError("the mapped edges are not the edges, each once")
        del found
        pos = np.empty(self.m, dtype=np.int32)
        pos[order] = np.arange(self.m, dtype=np.int32)
        return pos

    def degrees(self):
        return np.bincount(self.us, minlength=self.n) + np.bincount(self.vs, minlength=self.n)


def _automorphism(G: WeightedGraph, p, A, B):
    """(sign, edge images) of the vertex images p: sign +1 if p is an
    involutive automorphism of G fixing the terminal sets A and B
    (frozensets), -1 if one swapping them, else 0 with no edge images;
    the edge images are the int32 positions of the images of the
    edges."""
    if len(p) != G.n:
        return 0, None
    try:
        # a negative image wraps, but no involution holds one: p[i] = -k
        # needs p[n - k] = i, and then p[p[n - k]] = -k is not n - k
        if (p[p.astype(np.intp)] != np.arange(G.n, dtype=np.int32)).any():
            return 0, None
    except IndexError:
        return 0, None
    # p is a bijection now, so p(A) within A means p(A) = A
    pa, pb = (p[np.fromiter(S, np.int64, len(S))].tolist() for S in (A, B))
    if A.issuperset(pa) and B.issuperset(pb):
        sign = 1
    elif B.issuperset(pa) and A.issuperset(pb):
        sign = -1
    else:
        return 0, None
    # the int64 codes lo*n + hi of the image edges
    lo, hi = (p[ends.astype(np.intp)] for ends in (G.us, G.vs))
    codes = np.minimum(lo, hi, dtype=np.int64)
    np.maximum(lo, hi, out=hi)
    del lo
    codes *= G.n
    codes += hi
    del hi
    try:
        edges = G._match_codes(codes)
    except KeyError:
        return 0, None
    del codes
    # one conductance is carried onto itself
    if not _one_valued(G.num) and (G.num[edges.astype(np.intp)] != G.num).any():
        return 0, None
    return sign, edges


def stabiliser(G: WeightedGraph, A, B):
    """The symmetries of G that fix the terminal pair (A, B) or swap it.

    Returns a dict from dihedral element to (vertex images, sign, edge
    images), the sign +1 for an element fixing A and B and -1 for one
    swapping them.  The candidates come from G.symmetry, and each is
    kept only if it is an involution of the vertices that maps the edges
    onto themselves with equal conductances (WeightedGraph._match_codes)
    and fixes or swaps (A, B).  Products of the kept elements close the
    group, a commuting set of involutions of order 1, 2 or 4; without a
    symmetry it is the identity alone.  Only the kept elements, the
    group's generators, carry their int32 edge images; the identity and
    the products carry None, so no more than the generators' images are
    held.  The identity comes first; its images are made last, once the
    candidates' checks are done.
    """
    group = {IDENTITY: (None, 1, None)}
    A, B = frozenset(A), frozenset(B)
    for g in () if G.symmetry is None else G.symmetry.candidates(A, B):
        if g in group or any(
            dihedral_compose(g, h) != dihedral_compose(h, g) for h in group
        ):
            continue
        p = G.symmetry.perm(g)
        sign, edges = _automorphism(G, p, A, B)
        if sign:
            products = {
                dihedral_compose(g, h): (p[q.astype(np.intp)], sign * s, None)
                for h, (q, s, _) in group.items() if h != IDENTITY
            }
            group[g] = (p, sign, edges)
            group.update(products)
    group[IDENTITY] = (np.arange(G.n, dtype=np.int32), 1, None)
    return group


def _one_valued(num):
    """Whether the numerators num are one value; min and max copy no
    zero-stride array."""
    return len(num) > 0 and num.min() == num.max()


def _require_positive_level(n):
    if n < 1:
        raise FamilyError("graph families start at level 1")


# -- the three basic families ------------------------------------------


def edge_arc(C: SubdivisionComplex, n, sides):
    """Hexacarpet edge-vertex ids along the given boundary sides."""
    # inserted ascending, so that the set iterates in id order
    on = np.sort(C.boundary_index(n)[list(sides)], axis=None)
    return frozenset((len(C.tri_edges[n]) + on).tolist())


def _hexacarpet_action(C: SubdivisionComplex, n):
    """The dihedral action on hexacarpet vertices: triangle t is vertex
    t, edge e is vertex F + e."""
    F = len(C.tri_edges[n])

    def perm(g):
        return np.concatenate([C.tri_images(g, n), F + C.edge_images(g, n)])

    return DihedralAction(perm, F + C.boundary_index(n))


def build_skeleton(C: SubdivisionComplex, n):
    """1-skeleton of level n with terminals the side-2 / side-5 chains."""
    _require_positive_level(n)
    C.ensure_level(n)
    edges, on = C.edges[n], C.boundary_index(n)
    num = np.full(len(edges), ONE)
    num[on] = HALF
    # the columns of the edge table are contiguous, so the graph keeps
    # them as its edge ends
    return WeightedGraph(
        C.counts(n)[0], edges[:, 0], edges[:, 1], num,
        {
            "A": frozenset(C.side_vertices(n, 2).tolist()),
            "B": frozenset(C.side_vertices(n, 5).tolist()),
        },
        {"family": "skeleton", "level": n}, DEN,
        # a vertex's sides are those of the boundary edges ending at it
        DihedralAction(lambda g: C.vertex_map(g, n), edges[on].reshape(6, -1)),
    )


def build_dual(C: SubdivisionComplex, n):
    """Triangle-adjacency graph; terminals are the triangles touching
    the side-{0,1} and side-{3,4} arcs."""
    _require_positive_level(n)
    C.ensure_level(n)
    sides = C.tri_edges[n]
    T, E = sides.shape[0], len(C.edges[n])
    # the triangle-side incidence as CSR, turned to CSC by a counting
    # sort: column e lists e's triangles ascending, two for an interior
    # edge and one for a boundary edge; the int32 sides are its indices
    # as they are
    inc = sp.csc_array(sp.csr_array(
        (
            np.ones(3 * T, dtype=np.int8),
            sides.ravel(),
            np.arange(0, 3 * T + 1, 3, dtype=np.int32),
        ),
        shape=(T, E),
    ))
    first = inc.indptr[:-1][np.diff(inc.indptr) == 2]
    us, vs = inc.indices[first], inc.indices[first + 1]
    # a boundary edge's one triangle, by side, which is also the side
    # table; the terminal sets are inserted ascending, so that they
    # iterate in id order
    outer = inc.indices[inc.indptr[C.boundary_index(n)]]
    del inc, first
    return WeightedGraph(
        T, us, vs,
        np.broadcast_to(np.int64(ONE), len(us)),
        {
            "A": frozenset(np.sort(outer[[0, 1]], axis=None).tolist()),
            "B": frozenset(np.sort(outer[[3, 4]], axis=None).tolist()),
        },
        {"family": "dual", "level": n}, DEN,
        DihedralAction(lambda g: C.tri_images(g, n), outer),
    )


def build_hexacarpet(C: SubdivisionComplex, n):
    """Triangle-edge incidence graph, conductance 2 per incidence."""
    _require_positive_level(n)
    C.ensure_level(n)
    F = len(C.tri_edges[n])
    # the rows of tri_edges ascend, so the incidences (t, F + e) come out
    # in canonical order already, triangle t's at positions 3t..3t+2
    vs = C.tri_edges[n].ravel() + F
    return WeightedGraph(
        F + len(C.edges[n]), np.repeat(np.arange(F, dtype=np.int32), 3), vs,
        np.broadcast_to(np.int64(TWO), len(vs)),
        {"A": edge_arc(C, n, (0, 1)), "B": edge_arc(C, n, (3, 4))},
        {"family": "hexacarpet", "level": n}, DEN,
        _hexacarpet_action(C, n),
    )


def incidence_positions(C: SubdivisionComplex, n, ts, sides):
    """The level-n hexacarpet's positions of the incidences (t, e), t
    over the triangle ids ts and e over the last axis of sides, as int32
    in the shape of sides: 3t plus the number of t's sides below e, e
    ranked against the first two of them.  KeyError unless every e is a
    side of its t and the positions are every level-n incidence once."""
    table, ts = C.tri_edges[n], np.asarray(ts)
    T = len(table)
    if ts.shape + (3,) != np.shape(sides) or ts.size != T or ts.min() < 0 or ts.max() >= T:
        raise KeyError(f"the level-{n} incidences are 3 sides of each of triangles 0..{T - 1}")
    pos = np.multiply(ts[..., None], 3, out=np.empty(np.shape(sides), np.int32))
    pos += sides > table[ts, :1]
    pos += sides > table[ts, 1:2]
    seen = np.zeros(3 * T, dtype=bool)
    seen[pos] = True
    if not seen.all() or (table.ravel()[pos] != sides).any():
        raise KeyError(f"the incidences are not every level-{n} incidence, each once")
    return pos


# -- the cut family -----------------------------------------------------


def cut_segments(C: SubdivisionComplex, N):
    """Edge segments whose refinements get severed at level N, as a dict
    from level to the sorted edge ids of that level.

    The base pattern is the pair of level-1 spokes from the hexagon
    center to the corners between sides 0/1 and 4/5.  Each level adds
    images of the previous pattern in all six level-1 triangles, carried
    in by the rows of embed(1, k).  The two triangles with an edge on
    side 2 or 3 take the ('r', 4) image of the pattern and the other
    four its ('s', 0) image, a mirrored copy, so that severed lines
    always terminate on cell interfaces or on sides 2, 3, never on the
    terminal arcs.
    """
    C.ensure_level(N)
    # the spokes are the third sides (b, center) of the level-1
    # triangles on sides 0 and 5
    segs = {1: C.tri_edges[1][np.argsort(CELL_SIDES)[[0, 5]], 2]}
    turned = np.isin(CELL_SIDES, (2, 3))[:, None]
    for k in range(1, N):
        es = C.embed(1, k)[0]
        ids = segs[k]
        segs[k + 1] = np.unique(np.where(
            turned,
            es[:, C.edge_images(("r", 4), k)[ids]],
            es[:, C.edge_images(("s", 0), k)[ids]],
        ))
    return segs


def build_cut_graph(C: SubdivisionComplex, n, H):
    """The level-n hexacarpet H with all incidences at the severed edge
    vertices removed; terminals are the side-{0,1} and side-{4,5} arcs,
    which the surviving triangle strands join by disjoint paths."""
    cut = np.zeros(len(C.edges[n]), dtype=bool)
    for lvl, ids in cut_segments(C, n).items():
        cut[C.edge_descendants(lvl, ids, n)] = True
    # H holds triangle t's incidences at 3t..3t+2, in tri_edges order
    keep = ~cut[C.tri_edges[n]].ravel()
    return WeightedGraph(
        H.n, H.us[keep], H.vs[keep],
        np.broadcast_to(H.num[:1], np.count_nonzero(keep)) if _one_valued(H.num)
        else H.num[keep],
        {"A": edge_arc(C, n, (0, 1)), "B": edge_arc(C, n, (4, 5))},
        {**H.meta, "family": "cut"}, H.den, H.symmetry,
    )


def cut_path_lengths(C: SubdivisionComplex, n, G):
    """Triangle counts of the strands of G, the level-n cut graph,
    ordered along the terminal arc from the corner at angle 0.

    Verifies the structure on the way: each strand is a simple path of
    alternating triangle / interior-edge vertices with one end on the
    side-{0,1} arc and one on the side-{4,5} arc, every arc vertex is
    used exactly once, and the strands exhaust all 6^n triangles.

    Measured, not yet derived: strand i has 2^n s(2i + 1) triangles,
    with s Stern's diatomic sequence (Calkin and Wilf, "Recounting the
    rationals", Amer. Math. Monthly 2000), so the s(2i + 1) sum to 3^n.
    The tests check this at levels up to 6; deriving it from
    cut_segments' r4/s0 rule is still open.
    """
    F = len(C.tri_edges[n])
    ncomp, label = G.components()

    # a strand is a component holding triangles; tally what each touches
    tris = np.bincount(label[:F], minlength=ncomp)
    strand = tris > 0
    on_A = np.zeros(G.n, dtype=bool)
    on_A[list(G.boundary["A"])] = True
    on_B = np.zeros(G.n, dtype=bool)
    on_B[list(G.boundary["B"])] = True
    hits_A = np.bincount(label[on_A], minlength=ncomp)[strand]
    hits_B = np.bincount(label[on_B], minlength=ncomp)[strand]
    if (hits_A == 0).any() or (hits_B == 0).any():
        raise FamilyError("cut strand misses a terminal arc")
    if (hits_A != 1).any() or (hits_B != 1).any():
        raise FamilyError("cut strand hits a terminal arc twice")

    # strip pendant edge-vertices hanging off sides 2,3; what is left
    # of each strand must be a simple open path between its two ends
    ends = on_A | on_B
    pendant = (G.degrees() == 1) & (np.arange(G.n) >= F) & ~ends
    core = strand[label.astype(np.intp)] & ~pendant
    inner = core[G.us.astype(np.intp)] & core[G.vs.astype(np.intp)]
    core_deg = np.bincount(G.us[inner], minlength=G.n)
    core_deg += np.bincount(G.vs[inner], minlength=G.n)
    if ((core_deg == 1) != (core & ends)).any():
        raise FamilyError("cut strand is not a simple terminal path")
    if (core & ~ends & (core_deg != 2)).any():
        raise FamilyError("cut strand has a branch")

    # the arc runs along side 0 from the angle-0 corner, then along side
    # 1, whose row starts at its far corner, backwards
    bi = C.boundary_index(n)
    arc = F + np.concatenate([bi[0], bi[1][::-1]])
    out = tris[label[arc[core[arc]]]].tolist()
    if sum(out) != 6 ** n:
        raise FamilyError("cut strands do not exhaust the triangles")
    if len(out) != 2 ** n:
        raise FamilyError("wrong number of cut strands")
    return out


def cut_resistance_formula(lengths):
    """Exact strand-parallel resistance of strands with the given
    triangle counts: each strand of l triangles is 2l hops of resistance
    1/2 in series, hence resistance l."""
    return 1 / sum(Fraction(1, l) for l in lengths)


# -- the short family ---------------------------------------------------


def shorted_classes(C: SubdivisionComplex, n):
    """Representatives of the hexacarpet vertices: for every image of an
    original triangle side under k-fold cell maps (k < n), all level-n
    edge vertices refining it are fused into one class, represented by
    its smallest vertex id; triangles stay alone.  Those images are the
    sides of all level-k triangles, which is every level-k edge."""
    C.ensure_level(n)
    F, E = len(C.tri_edges[n]), len(C.edges[n])
    descs = [C.edge_descendants(k, np.arange(len(C.edges[k])), n) for k in range(n)]
    # edge refinement is a forest, so the descendants of two edges are
    # nested or disjoint, and overlapping classes merge into the coarsest
    # one: assigning from the finest level up leaves each vertex there
    find = np.arange(E, dtype=np.int32)
    for desc in reversed(descs):
        find[desc] = desc.min(axis=1, keepdims=True)
    return np.concatenate([np.arange(F, dtype=np.int32), F + find])


def quotient(G: WeightedGraph, find):
    """Fuse vertices by representative: find is the array of each
    vertex's representative.  Parallel conductances add, internal edges
    vanish.  Terminal sets must stay disjoint.  The quotient inherits
    G's symmetry through the classes."""
    reps, vmap = np.unique(find, return_inverse=True)
    vmap = vmap.astype(np.int32)
    a, b = (vmap[ends.astype(np.intp)] for ends in (G.us, G.vs))
    keep = a != b
    lo, hi = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
    codes, slot = np.unique(pair_codes(lo, hi, len(reps)), return_inverse=True)
    num = np.zeros(len(codes), dtype=np.int64)
    np.add.at(num, slot, G.num[0] if _one_valued(G.num) else G.num[keep])
    new_id = vmap.tolist()
    boundary = {
        name: frozenset(new_id[v] for v in vset)
        for name, vset in G.boundary.items()
    }
    if boundary.get("A", frozenset()) & boundary.get("B", frozenset()):
        raise FamilyError("quotient fuses the two terminal sets")
    return WeightedGraph(
        len(reps), codes // len(reps), codes % len(reps), num,
        boundary, G.meta, G.den,
        None if G.symmetry is None else G.symmetry.induced(vmap, len(reps)),
    )


def build_short_graph(C: SubdivisionComplex, n, H):
    """Quotient of the level-n hexacarpet H that fuses each cell-map
    image of the three original sides into a single node; terminals
    collapse to the fused side-{0,1} arc versus the two fused nodes
    holding sides {3,4}."""
    S = quotient(H, shorted_classes(C, n))
    S.meta["family"] = "short"
    return S


# -- exports ------------------------------------------------------------


def _edge_rows(G: WeightedGraph, head, mid, label):
    """The rows head + u + mid + v + label(conductance), one per edge,
    each label text made once per distinct conductance."""
    # the distinct numerators by sorting and comparing neighbours, which
    # is several times faster than np.unique's hash path here
    num = G.num[:1] if _one_valued(G.num) else np.sort(G.num)
    distinct = np.concatenate([num[:1], num[1:][num[1:] != num[:-1]]])
    tails = {p: label(Fraction(p, G.den)) for p in distinct.tolist()}
    return IntRows((G.us, G.vs), (head, mid), tails, G.num)


def to_edgelist(G: WeightedGraph):
    """Plain-text edge list: header lines with the terminal sets, then
    one `u v p/q` conductance line per edge."""
    lines = []
    for name in sorted(G.boundary):
        members = " ".join(str(v) for v in sorted(G.boundary[name]))
        lines.append(f"#boundary {name}: {members}\n")
    text = format_rows([
        "".join(lines), _edge_rows(G, "", " ", lambda c: f" {c.numerator}/{c.denominator}\n")
    ])
    return text or "\n"


def to_dot(G: WeightedGraph):
    """Graphviz description with the terminal sets colored."""
    A = G.boundary.get("A", frozenset())
    B = G.boundary.get("B", frozenset())
    lines = ["graph G {", "  node [shape=point];"]
    for v in sorted(A):
        lines.append(f'  {v} [color="red"];')
    for v in sorted(B):
        lines.append(f'  {v} [color="blue"];')
    edges = _edge_rows(
        G, "  ", " -- ", lambda c: f' [label="{c.numerator}/{c.denominator}"];\n'
    )
    return format_rows(["".join(line + "\n" for line in lines), edges, "}\n"])

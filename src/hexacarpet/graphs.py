"""Weighted graph families over the subdivided triangle.

Four families per level n >= 1:

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

Conductances are exact: int64 numerators over a common denominator
(halves for every family, and sums of halves in quotients); float views
are derived on demand.

Every family carries the dihedral symmetry group of the hexagon as a
DihedralAction on its vertices, read lazily from the complex's map
image arrays.  stabiliser() picks the elements that fix or swap a
terminal pair and keeps only those it verifies as automorphisms of the
actual graph; the solver uses them to reduce its unknowns.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .subdivision import (
    B01,
    B02,
    CENTER,
    SIDE_BIT,
    SubdivisionComplex,
    dihedral_compose,
    dihedral_elements,
    lookup_sorted,
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

    perm(elem) gives the int64 vertex images of one group element and
    bits() each vertex's bitmask of boundary sides: the two callables
    the family builder passes.  The images are read from the arrays the
    complex caches when a solve asks, and graphs on one vertex set (a
    hexacarpet and its cut graph) share one action.
    """

    def __init__(self, perm, bits):
        self.perm = perm
        self.bits = bits

    def candidates(self, A, B):
        """The involutions other than the identity whose side permutation
        carries the sides of (A, B) to those of (A, B) or of (B, A)."""
        a, b = (
            int(np.bitwise_or.reduce(self.bits()[np.fromiter(S, np.int64, len(S))]))
            for S in (A, B)
        )
        out = []
        for g in dihedral_elements():
            if g == IDENTITY or dihedral_compose(g, g) != IDENTITY:
                continue
            moves = side_perm(g)
            ga, gb = (sum(1 << moves[s] for s in range(6) if x >> s & 1) for x in (a, b))
            if (ga, gb) in ((a, b), (b, a)):
                out.append(g)
        return out

    def induced(self, vmap, n):
        """The action on the n classes of a quotient, vmap giving each
        vertex's class; well defined only if the classes are permuted
        whole, which stabiliser() verifies."""

        def perm(elem):
            p = np.empty(n, dtype=np.int64)
            p[vmap] = vmap[self.perm(elem)]
            return p

        def bits():
            b = np.zeros(n, dtype=np.int64)
            np.bitwise_or.at(b, vmap, self.bits())
            return b

        return DihedralAction(perm, bits)


class WeightedGraph:
    """Undirected multigraph-free weighted graph with named terminal sets.

    Edges are stored in canonical orientation us[i] < vs[i].  Conductances
    are exact: edge i has num[i] / den, with int64 numerators over one
    common denominator (2 for every family here).  cond is given as
    rationals, or, when den is given, as those numerators.  boundary maps
    set names (usually "A", "B") to frozensets of vertex ids.  Edge ends
    and terminals must be vertex ids 0..n-1.  symmetry is the
    DihedralAction on the vertices, or None.
    """

    def __init__(self, n, us, vs, cond, boundary=None, meta=None, den=None,
                 symmetry=None):
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        if len(lo) and (lo == hi).any():
            raise FamilyError("self-loops are not allowed")
        if len(lo) and (lo.min() < 0 or hi.max() >= n):
            raise FamilyError(f"edge ends must be vertex ids 0..{n - 1}")
        if den is None:
            cond = [Fraction(c) for c in cond]
            den = math.lcm(*(c.denominator for c in cond))
            cond = [c.numerator * (den // c.denominator) for c in cond]
        num = np.asarray(cond, dtype=np.int64)
        # float views divide two exactly representable integers
        if den > _EXACT or (len(num) and np.abs(num).max() > _EXACT):
            raise FamilyError("conductances need numerators and a denominator below 2^53")
        # lo * n + hi orders the pairs as (lo, hi) does, and a stable sort
        # keeps ties in input order, so this is the lexsort by (lo, hi)
        order = np.argsort(lo * int(n) + hi, kind="stable")
        self.n = int(n)
        self.us = lo[order]
        self.vs = hi[order]
        self.num = num[order]
        self.den = int(den)
        self.boundary = {
            k: frozenset(v) for k, v in (boundary or {}).items()
        }
        for k, v in self.boundary.items():
            if v and (min(v) < 0 or max(v) >= n):
                raise FamilyError(f"terminal set {k} must hold vertex ids 0..{n - 1}")
        self.meta = dict(meta or {})
        self.symmetry = symmetry
        self._cfloat = None
        self._components = None

    @property
    def m(self):
        return len(self.num)

    @property
    def cond(self):
        """The exact conductances as a list of Fractions."""
        return [Fraction(p, self.den) for p in self.num.tolist()]

    def conductances(self):
        if self._cfloat is None:
            self._cfloat = self.num / self.den
        return self._cfloat

    def components(self):
        """(number of connected components, component label per vertex)."""
        if self._components is None:
            # edges are sorted by their smaller end, so they form CSR rows as is
            starts = np.concatenate([[0], np.cumsum(np.bincount(self.us, minlength=self.n))])
            adj = sp.csr_array((np.ones(self.m), self.vs, starts), shape=(self.n, self.n))
            self._components = connected_components(adj, directed=False)
        return self._components

    def positions(self, us, vs):
        """Positions of the canonical edges (us, vs), elementwise over
        arrays; every pair must be an edge."""
        codes = np.asarray(us, dtype=np.int64) * self.n + np.asarray(vs, dtype=np.int64)
        return lookup_sorted(self.us * self.n + self.vs, codes, "edge")

    def degrees(self):
        return np.bincount(self.us, minlength=self.n) + np.bincount(self.vs, minlength=self.n)


def _automorphism_sign(G: WeightedGraph, p, inA, inB):
    """+1 if the vertex images p are an involutive automorphism of G
    fixing A and B, -1 if one swapping them, else 0."""
    if len(p) != G.n or (G.n and (p.min() < 0 or p.max() >= G.n)):
        return 0
    if (p[p] != np.arange(G.n)).any():
        return 0
    pu, pv = p[G.us], p[G.vs]
    try:
        pos = G.positions(np.minimum(pu, pv), np.maximum(pu, pv))
    except KeyError:
        return 0
    if (G.num[pos] != G.num).any():
        return 0
    a, b = inA[p], inB[p]
    if (a == inA).all() and (b == inB).all():
        return 1
    if (a == inB).all() and (b == inA).all():
        return -1
    return 0


def stabiliser(G: WeightedGraph, A, B):
    """The symmetries of G that fix the terminal pair (A, B) or swap it.

    Returns a dict from dihedral element to (vertex images, sign), the
    sign +1 for an element fixing A and B and -1 for one swapping them.
    The candidates come from G.symmetry, and each is kept only if it is
    an involution of the vertices that maps the edges onto themselves
    with equal conductances and fixes or swaps (A, B).  Products of the
    kept elements close the group, a commuting set of involutions of
    order 1, 2 or 4; without a symmetry it is the identity alone.
    """
    group = {IDENTITY: (np.arange(G.n), 1)}
    if G.symmetry is None:
        return group
    inA = np.zeros(G.n, dtype=bool)
    inA[np.fromiter(A, np.int64, len(A))] = True
    inB = np.zeros(G.n, dtype=bool)
    inB[np.fromiter(B, np.int64, len(B))] = True
    for g in G.symmetry.candidates(A, B):
        if g in group or any(
            dihedral_compose(g, h) != dihedral_compose(h, g) for h in group
        ):
            continue
        p = G.symmetry.perm(g)
        sign = _automorphism_sign(G, p, inA, inB)
        if sign:
            group.update({
                dihedral_compose(g, h): (p[q], sign * s)
                for h, (q, s) in list(group.items())
            })
    return group


def _require_positive_level(n):
    if n < 1:
        raise FamilyError("graph families start at level 1")


# -- the three basic families ------------------------------------------


def edge_arc(C: SubdivisionComplex, n, sides):
    """Hexacarpet edge-vertex ids along the given boundary sides."""
    return frozenset((len(C.tris[n]) + C.side_edges_at(n, sides)).tolist())


def _hexacarpet_action(C: SubdivisionComplex, n):
    """The dihedral action on hexacarpet vertices: triangle t is vertex
    t, edge e is vertex F + e."""
    F = len(C.tris[n])

    def perm(g):
        return np.concatenate([C.tri_images(g, n), F + C.edge_images(g, n)])

    def bits():
        return np.concatenate([np.zeros(F, dtype=np.int64), SIDE_BIT[C.edge_side[n]]])

    return DihedralAction(perm, bits)


def build_skeleton(C: SubdivisionComplex, n):
    """1-skeleton of level n with terminals the side-2 / side-5 chains."""
    _require_positive_level(n)
    C.ensure_level(n)
    edges = C.edges[n]
    return WeightedGraph(
        C.counts(n)[0], edges[:, 0], edges[:, 1],
        np.where(C.edge_side[n] < 0, ONE, HALF),
        {
            "A": frozenset(C.side_vertices(n, 2).tolist()),
            "B": frozenset(C.side_vertices(n, 5).tolist()),
        },
        {"family": "skeleton", "level": n}, DEN,
        DihedralAction(
            lambda g: C.vertex_map(g, n),
            lambda: C.vertex_sides[: C.offsets[n]],
        ),
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
    # edge and one for a boundary edge
    inc = sp.csc_array(sp.csr_array(
        (np.ones(3 * T, dtype=np.int8), sides.ravel(), np.arange(0, 3 * T + 1, 3)),
        shape=(T, E),
    ))
    first = inc.indptr[:-1][np.diff(inc.indptr) == 2]
    bits = np.bitwise_or.reduce(SIDE_BIT[C.edge_side[n]][sides], axis=1)
    return WeightedGraph(
        T, inc.indices[first], inc.indices[first + 1],
        np.full(len(first), ONE),
        {
            "A": frozenset(np.nonzero(bits & 0b000011)[0].tolist()),
            "B": frozenset(np.nonzero(bits & 0b011000)[0].tolist()),
        },
        {"family": "dual", "level": n}, DEN,
        DihedralAction(lambda g: C.tri_images(g, n), lambda: bits),
    )


def build_hexacarpet(C: SubdivisionComplex, n):
    """Triangle-edge incidence graph, conductance 2 per incidence."""
    _require_positive_level(n)
    C.ensure_level(n)
    F = len(C.tris[n])
    # row by row over sorted sides: the incidences (t, F + e) come out in
    # canonical order already, triangle t's at positions 3t..3t+2
    sides = np.sort(C.tri_edges[n], axis=1).ravel()
    return WeightedGraph(
        F + len(C.edges[n]), np.repeat(np.arange(F), 3), F + sides,
        np.full(len(sides), TWO),
        {"A": edge_arc(C, n, (0, 1)), "B": edge_arc(C, n, (3, 4))},
        {"family": "hexacarpet", "level": n, "tri_count": F}, DEN,
        _hexacarpet_action(C, n),
    )


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
    # level-1 edge codes u*V + v, ascending in edge id
    V, edges = C.offsets[1], C.edges[1]
    spokes = np.array([B01, B02]) * V + CENTER
    segs = {1: lookup_sorted(edges[:, 0] * V + edges[:, 1], spokes, "spoke")}
    turned = np.isin(C.edge_side[1][C.tri_edges[1]], (2, 3)).any(axis=1)[:, None]
    for k in range(1, N):
        es = C.embed(1, k)[0]
        ids = segs[k]
        segs[k + 1] = np.unique(np.where(
            turned,
            es[:, C.edge_images(("r", 4), k)[ids]],
            es[:, C.edge_images(("s", 0), k)[ids]],
        ))
    return segs


def cut_edge_vertices(C: SubdivisionComplex, N):
    """Sorted level-N edge ids lying on the severed segments."""
    return np.unique(np.concatenate([
        C.edge_descendants(lvl, ids, N).ravel()
        for lvl, ids in cut_segments(C, N).items()
    ]))


def build_cut_graph(C: SubdivisionComplex, n, H):
    """The level-n hexacarpet H with all incidences at the severed edge
    vertices removed; terminals are the side-{0,1} and side-{4,5} arcs,
    which the surviving triangle strands join by disjoint paths."""
    F = H.meta["tri_count"]
    # incidences run triangle -> edge vertex, so only vs can be hit
    keep = ~np.isin(H.vs, F + cut_edge_vertices(C, n))
    return WeightedGraph(
        H.n, H.us[keep], H.vs[keep], H.num[keep],
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
    """
    F = G.meta["tri_count"]
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
    core = strand[label] & ~pendant
    inner = core[G.us] & core[G.vs]
    core_deg = np.bincount(G.us[inner], minlength=G.n)
    core_deg += np.bincount(G.vs[inner], minlength=G.n)
    if ((core_deg == 1) != (core & ends)).any():
        raise FamilyError("cut strand is not a simple terminal path")
    if (core & ~ends & (core_deg != 2)).any():
        raise FamilyError("cut strand has a branch")

    # sides 0 then 1 sweep from the angle-0 corner with strictly
    # decreasing x, so the x sum of the end edges' endpoints, descending,
    # orders strand ends along the arc
    a_ends = np.nonzero(on_A & core)[0]
    x = C.coords[C.edges[n][a_ends - F], 0].sum(axis=1)
    a_ends = a_ends[np.argsort(-x, kind="stable")]
    out = tris[label[a_ends]].tolist()
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
    F, E = len(C.tris[n]), len(C.edges[n])
    descs = [C.edge_descendants(k, np.arange(len(C.edges[k])), n) for k in range(n)]
    # edge refinement is a forest, so the descendants of two edges are
    # nested or disjoint, and overlapping classes merge into the coarsest
    # one: assigning from the finest level up leaves each vertex there
    find = np.arange(E)
    for desc in reversed(descs):
        find[desc] = desc.min(axis=1, keepdims=True)
    return np.concatenate([np.arange(F), F + find])


def quotient(G: WeightedGraph, find):
    """Fuse vertices by representative: find is the array of each
    vertex's representative.  Parallel conductances add, internal edges
    vanish.  Terminal sets must stay disjoint.  The quotient inherits
    G's symmetry through the classes."""
    reps, vmap = np.unique(np.asarray(find, dtype=np.int64), return_inverse=True)
    a, b = vmap[G.us], vmap[G.vs]
    keep = a != b
    lo, hi = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
    codes, slot = np.unique(lo * len(reps) + hi, return_inverse=True)
    num = np.zeros(len(codes), dtype=np.int64)
    np.add.at(num, slot, G.num[keep])
    new_id = vmap.tolist()
    boundary = {
        name: frozenset(new_id[v] for v in vset)
        for name, vset in G.boundary.items()
    }
    if boundary.get("A", frozenset()) & boundary.get("B", frozenset()):
        raise FamilyError("quotient fuses the two terminal sets")
    H = WeightedGraph(
        len(reps), codes // len(reps), codes % len(reps), num,
        boundary, G.meta, G.den,
        None if G.symmetry is None else G.symmetry.induced(vmap, len(reps)),
    )
    H.meta["vertex_map"] = vmap
    return H


def build_short_graph(C: SubdivisionComplex, n, H):
    """Quotient of the level-n hexacarpet H that fuses each cell-map
    image of the three original sides into a single node; terminals
    collapse to the fused side-{0,1} arc versus the two fused nodes
    holding sides {3,4}."""
    S = quotient(H, shorted_classes(C, n))
    S.meta["family"] = "short"
    S.meta.pop("tri_count", None)
    return S


# -- exports ------------------------------------------------------------


def _put_digits(x, table, keep):
    """Write the decimal digits of the non-negative ints x right-aligned
    into the byte columns table, marking the significant ones in keep;
    x is used as scratch.  Each digit is made in a contiguous row, then
    all are copied across at once."""
    width = table.shape[1]
    digits = np.empty((width, len(x)), dtype=np.uint8)
    big = np.empty((width, len(x)), dtype=bool)
    big[-1] = True
    q, d = np.empty_like(x), np.empty_like(x)
    for j in range(width - 1, -1, -1):
        np.divmod(x, 10, out=(q, d))
        np.add(d, 48, out=digits[j], casting="unsafe")
        if j:
            np.greater(q, 0, out=big[j - 1])
        x, q = q, x
    table[:] = digits.T
    keep[:] = big.T


def _edge_lines(G: WeightedGraph, head, mid, label):
    """One line head + u + mid + v + label(conductance) per edge, as a
    string.  The bytes are laid out in one table, row per edge: the
    digits of u and v come from integer arithmetic on the edge arrays,
    the label text is encoded once per distinct conductance, and one
    boolean compaction drops the padding."""
    vals = np.unique(G.num)
    texts = [label(Fraction(p, G.den)).encode("ascii") for p in vals.tolist()]
    slot = np.searchsorted(vals, G.num)
    digits = [len(str(int(x.max()))) if len(x) else 1 for x in (G.us, G.vs)]
    widths = [len(head), digits[0], len(mid), digits[1], max(map(len, texts), default=0)]
    ends = np.cumsum(widths)
    table = np.zeros((G.m, ends[-1]), dtype=np.uint8)
    keep = np.zeros((G.m, ends[-1]), dtype=bool)
    cols = [slice(e - w, e) for e, w in zip(ends, widths)]
    for c, text in ((cols[0], head), (cols[2], mid)):
        table[:, c] = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        keep[:, c] = True
    # int32 halves the cost of the digit arithmetic where it suffices
    small = np.int32 if G.n < 2 ** 31 else np.int64
    _put_digits(G.us.astype(small), table[:, cols[1]], keep[:, cols[1]])
    _put_digits(G.vs.astype(small), table[:, cols[3]], keep[:, cols[3]])
    labels = np.zeros((len(texts), widths[4]), dtype=np.uint8)
    used = np.zeros((len(texts), widths[4]), dtype=bool)
    for i, t in enumerate(texts):
        labels[i, : len(t)] = np.frombuffer(t, dtype=np.uint8)
        used[i, : len(t)] = True
    table[:, cols[4]] = np.take(labels, slot, axis=0)
    keep[:, cols[4]] = np.take(used, slot, axis=0)
    return table[keep].tobytes().decode("ascii")


def to_edgelist(G: WeightedGraph):
    """Plain-text edge list: header lines with the terminal sets, then
    one `u v p/q` conductance line per edge."""
    lines = []
    for name in sorted(G.boundary):
        members = " ".join(str(v) for v in sorted(G.boundary[name]))
        lines.append(f"#boundary {name}: {members}\n")
    text = "".join(lines) + _edge_lines(
        G, "", " ", lambda c: f" {c.numerator}/{c.denominator}\n"
    )
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
    edges = _edge_lines(
        G, "  ", " -- ", lambda c: f' [label="{c.numerator}/{c.denominator}"];\n'
    )
    return "\n".join(lines) + "\n" + edges + "}\n"

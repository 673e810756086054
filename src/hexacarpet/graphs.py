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

Conductances are exact Fractions, one shared object per distinct value;
float views are derived on demand.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .subdivision import SubdivisionComplex, lookup_sorted

SIGMA_A = ("s", 2)  # reflection fixing the corner between sides 0 and 1

HALF, ONE, TWO = Fraction(1, 2), Fraction(1), Fraction(2)


class FamilyError(Exception):
    """Invalid family/level request or degenerate surgery result."""


class WeightedGraph:
    """Undirected multigraph-free weighted graph with named terminal sets.

    Edges are stored in canonical orientation us[i] < vs[i]; cond holds
    exact Fractions.  boundary maps set names (usually "A", "B") to
    frozensets of vertex ids.
    """

    def __init__(self, n, us, vs, cond, boundary=None, meta=None):
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        if len(lo) and (lo == hi).any():
            raise FamilyError("self-loops are not allowed")
        order = np.lexsort((hi, lo))
        self.n = int(n)
        self.us = lo[order]
        self.vs = hi[order]
        cond = list(cond)
        self.cond = [cond[i] for i in order]
        self.boundary = {
            k: frozenset(v) for k, v in (boundary or {}).items()
        }
        self.meta = dict(meta or {})
        self._cfloat = None
        self._index = None
        self._codes = None

    @property
    def m(self):
        return len(self.cond)

    def conductances(self):
        if self._cfloat is None:
            self._cfloat = np.array([float(c) for c in self.cond])
        return self._cfloat

    def edge_index(self):
        """Dict mapping the canonical pair (u, v) to the edge position."""
        if self._index is None:
            self._index = {
                (int(u), int(v)): i
                for i, (u, v) in enumerate(zip(self.us, self.vs))
            }
        return self._index

    def positions(self, us, vs):
        """Positions of the canonical edges (us, vs), elementwise over
        arrays; every pair must be an edge."""
        if self._codes is None:
            self._codes = self.us * self.n + self.vs
        codes = np.asarray(us, dtype=np.int64) * self.n + np.asarray(vs, dtype=np.int64)
        return lookup_sorted(self._codes, codes, "edge")

    def degrees(self):
        deg = np.zeros(self.n, dtype=np.int64)
        np.add.at(deg, self.us, 1)
        np.add.at(deg, self.vs, 1)
        return deg

    def with_boundary(self, **sets):
        return WeightedGraph(
            self.n, self.us, self.vs, self.cond, sets, self.meta
        )

    def drop_edges(self, positions):
        """A copy without the edges at the given positions."""
        keep = np.ones(self.m, dtype=bool)
        keep[np.asarray(positions, dtype=np.int64)] = False
        return WeightedGraph(
            self.n,
            self.us[keep],
            self.vs[keep],
            [c for c, k in zip(self.cond, keep) if k],
            self.boundary,
            self.meta,
        )


def _require_positive_level(n):
    if n < 1:
        raise FamilyError("graph families start at level 1")


# -- the three basic families ------------------------------------------


def build_skeleton(C: SubdivisionComplex, n):
    """1-skeleton of level n with terminals the side-2 / side-5 chains."""
    _require_positive_level(n)
    C.ensure_level(n)
    nv = C.counts(n)[0]
    us, vs, cond = [], [], []
    for e, (u, v) in enumerate(C.edges[n]):
        us.append(u)
        vs.append(v)
        cond.append(ONE if C.edge_side[n][e] < 0 else HALF)
    A = frozenset(C.side_vertices(n, 2))
    B = frozenset(C.side_vertices(n, 5))
    return WeightedGraph(
        nv, us, vs, cond, {"A": A, "B": B},
        {"family": "skeleton", "level": n},
    )


def build_dual(C: SubdivisionComplex, n):
    """Triangle-adjacency graph; terminals are the triangles touching
    the side-{0,1} and side-{3,4} arcs."""
    _require_positive_level(n)
    C.ensure_level(n)
    us, vs, cond = [], [], []
    side_tris = {s: set() for s in range(6)}
    for e, ts in enumerate(C.edge_tris[n]):
        s = C.edge_side[n][e]
        if len(ts) == 2:
            us.append(ts[0])
            vs.append(ts[1])
            cond.append(ONE)
        else:
            side_tris[s].add(ts[0])
    A = frozenset(side_tris[0] | side_tris[1])
    B = frozenset(side_tris[3] | side_tris[4])
    return WeightedGraph(
        len(C.tris[n]), us, vs, cond, {"A": A, "B": B},
        {"family": "dual", "level": n},
    )


def build_hexacarpet(C: SubdivisionComplex, n):
    """Triangle-edge incidence graph, conductance 2 per incidence."""
    _require_positive_level(n)
    C.ensure_level(n)
    F = len(C.tris[n])
    us, vs, cond = [], [], []
    for e, ts in enumerate(C.edge_tris[n]):
        for t in ts:
            us.append(t)
            vs.append(F + e)
            cond.append(TWO)
    A = frozenset(F + e for s in (0, 1) for e in C.side_edges_at(n, s))
    B = frozenset(F + e for s in (3, 4) for e in C.side_edges_at(n, s))
    return WeightedGraph(
        F + len(C.edges[n]), us, vs, cond, {"A": A, "B": B},
        {"family": "hexacarpet", "level": n, "tri_count": F},
    )


# -- the cut family -----------------------------------------------------


def cut_segments(C: SubdivisionComplex, N):
    """Edge segments whose refinements get severed at level N.

    The base pattern is the pair of level-1 spokes from the hexagon
    center to the corners between sides 0/1 and 4/5.  Each level adds
    images of the previous pattern in all six cells; the four cells
    under sides 0, 1, 4, 5 take a reflected copy (reflect across the
    axis through those two corners first) so that severed lines always
    terminate on cell interfaces or on sides 2, 3, never on the
    terminal arcs.
    """
    C.ensure_level(N)
    b01 = C.edge_bary[0][C.edge_index[0][(0, 1)]]
    b02 = C.edge_bary[0][C.edge_index[0][(0, 2)]]
    center = C.tri_bary[0][0]
    segs = {
        (1, C.edge_index[1][(min(b01, center), max(b01, center))]),
        (1, C.edge_index[1][(min(b02, center), max(b02, center))]),
    }
    out = set(segs)
    for _ in range(N - 1):
        prev, out = out, set(segs)
        for c in range(6):
            for lvl, e in prev:
                if c in (2, 3):
                    img = C.map_edge(("F", c), lvl, e)
                else:
                    img = C.map_edge(
                        ("F", c), lvl, C.map_edge(("auto", SIGMA_A), lvl, e)
                    )
                out.add((lvl + 1, img))
    return out


def cut_edge_vertices(C: SubdivisionComplex, N):
    """Level-N edge ids lying on the severed segments."""
    hit = set()
    for lvl, e in cut_segments(C, N):
        hit.update(C.edge_descendants(lvl, e, N))
    return hit


def build_cut_graph(C: SubdivisionComplex, n):
    """Hexacarpet with all incidences at the severed edge vertices
    removed; terminals are the side-{0,1} and side-{4,5} arcs, which the
    surviving triangle strands join by disjoint paths."""
    G = build_hexacarpet(C, n)
    F = G.meta["tri_count"]
    hit = F + np.fromiter(cut_edge_vertices(C, n), dtype=np.int64)
    # incidences run triangle -> edge vertex, so only vs can be hit
    H = G.drop_edges(np.nonzero(np.isin(G.vs, hit))[0])
    A = frozenset(F + e for s in (0, 1) for e in C.side_edges_at(n, s))
    B = frozenset(F + e for s in (4, 5) for e in C.side_edges_at(n, s))
    H = H.with_boundary(A=A, B=B)
    H.meta["family"] = "cut"
    return H


def cut_path_lengths(C: SubdivisionComplex, n):
    """Triangle counts of the cut graph's strands, ordered along the
    terminal arc from the corner at angle 0.

    Verifies the structure on the way: each strand is a simple path of
    alternating triangle / interior-edge vertices with one end on the
    side-{0,1} arc and one on the side-{4,5} arc, every arc vertex is
    used exactly once, and the strands exhaust all 6^n triangles.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    G = build_cut_graph(C, n)
    F = G.meta["tri_count"]
    data = np.ones(G.m)
    adj = coo_matrix(
        (data, (G.us, G.vs)), shape=(G.n, G.n)
    )
    ncomp, label = connected_components(adj + adj.T, directed=False)

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
    core_deg = np.zeros(G.n, dtype=np.int64)
    np.add.at(core_deg, G.us[inner], 1)
    np.add.at(core_deg, G.vs[inner], 1)
    if ((core_deg == 1) != (core & ends)).any():
        raise FamilyError("cut strand is not a simple terminal path")
    if (core & ~ends & (core_deg != 2)).any():
        raise FamilyError("cut strand has a branch")

    def arc_key(a_end):
        # sides 0 then 1 sweep from the angle-0 corner with strictly
        # decreasing x, so -x orders strand ends along the arc
        u, v = C.edges[n][a_end - F]
        return -(C.coords[u][0] + C.coords[v][0]) / 2

    a_ends = sorted(np.nonzero(on_A & core)[0].tolist(), key=arc_key)
    out = tris[label[a_ends]].tolist()
    if sum(out) != 6 ** n:
        raise FamilyError("cut strands do not exhaust the triangles")
    if len(out) != 2 ** n:
        raise FamilyError("wrong number of cut strands")
    return out


def cut_resistance_formula(C: SubdivisionComplex, n):
    """Exact strand-parallel resistance: each strand of l triangles is
    2l hops of resistance 1/2 in series, hence resistance l."""
    return 1 / sum(Fraction(1, l) for l in cut_path_lengths(C, n))


# -- the short family ---------------------------------------------------


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def shorted_classes(C: SubdivisionComplex, n):
    """Union-find over hexacarpet vertices: for every image of an
    original triangle side under k-fold cell maps (k < n), all level-n
    edge vertices refining it are fused into one node."""
    C.ensure_level(n)
    F = len(C.tris[n])
    uf = _UnionFind(F + len(C.edges[n]))
    img = {(0, e) for e in range(len(C.edges[0]))}
    for k in range(n):
        for lvl, e in img:
            desc = C.edge_descendants(lvl, e, n)
            for d in desc[1:]:
                uf.union(F + desc[0], F + d)
        img = {
            (lvl + 1, C.map_edge(("F", c), lvl, e))
            for c in range(6)
            for lvl, e in img
        }
    return uf


def quotient(G: WeightedGraph, find):
    """Fuse vertices by a representative function; parallel conductances
    add, internal edges vanish.  Terminal sets must stay disjoint."""
    reps = sorted({find(v) for v in range(G.n)})
    new_id = {r: i for i, r in enumerate(reps)}
    vmap = [new_id[find(v)] for v in range(G.n)]
    acc = {}
    for u, v, c in zip(G.us, G.vs, G.cond):
        a, b = vmap[int(u)], vmap[int(v)]
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        acc[key] = acc.get(key, Fraction(0)) + c
    boundary = {}
    for name, vset in G.boundary.items():
        boundary[name] = frozenset(vmap[v] for v in vset)
    for x in boundary.get("A", ()):
        if x in boundary.get("B", ()):
            raise FamilyError("quotient fuses the two terminal sets")
    us = [k[0] for k in acc]
    vs = [k[1] for k in acc]
    cond = [acc[k] for k in acc]
    H = WeightedGraph(len(reps), us, vs, cond, boundary, G.meta)
    H.meta["vertex_map"] = vmap
    return H


def build_short_graph(C: SubdivisionComplex, n):
    """Hexacarpet quotient that fuses each cell-map image of the three
    original sides into a single node; terminals collapse to the fused
    side-{0,1} arc versus the two fused nodes holding sides {3,4}."""
    G = build_hexacarpet(C, n)
    uf = shorted_classes(C, n)
    H = quotient(G, uf.find)
    H.meta["family"] = "short"
    H.meta.pop("tri_count", None)
    return H


# -- exports ------------------------------------------------------------


def to_edgelist(G: WeightedGraph):
    """Plain-text edge list: header lines with the terminal sets, then
    one `u v p/q` conductance line per edge."""
    lines = []
    for name in sorted(G.boundary):
        members = " ".join(str(v) for v in sorted(G.boundary[name]))
        lines.append(f"#boundary {name}: {members}")
    for u, v, c in zip(G.us, G.vs, G.cond):
        lines.append(f"{u} {v} {c.numerator}/{c.denominator}")
    return "\n".join(lines) + "\n"


def to_dot(G: WeightedGraph):
    """Graphviz description with the terminal sets colored."""
    A = G.boundary.get("A", frozenset())
    B = G.boundary.get("B", frozenset())
    lines = ["graph G {", "  node [shape=point];"]
    for v in sorted(A):
        lines.append(f'  {v} [color="red"];')
    for v in sorted(B):
        lines.append(f'  {v} [color="blue"];')
    for u, v, c in zip(G.us, G.vs, G.cond):
        lines.append(f'  {u} -- {v} [label="{c.numerator}/{c.denominator}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

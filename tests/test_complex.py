"""Combinatorics and geometry of the subdivision complex.

Count oracles come from the subdivision recurrences written out
independently here: each step maps (V, E, F) to (V + E + F, 2E + 6F,
6F), starting from (3, 3, 1).
"""

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from hexacarpet import (
    CapacityError,
    MissingLevelError,
    SubdivisionComplex,
)
from hexacarpet import subdivision
from hexacarpet.graphs import ONE, build_dual, build_hexacarpet, cut_segments, to_edgelist
from hexacarpet.subdivision import (
    B01,
    B02,
    B12,
    CELL_SIDES,
    CENTER,
    P0,
    P1,
    P2,
    _SIDE_EDGES,
    _SPLIT_Q,
    _SPLIT_SIDE,
    _base_perm,
    IntRows,
    _check_index_range,
    dihedral_compose,
    dihedral_elements,
    format_rows,
    lookup_sorted,
    pair_codes,
    side_perm,
)

from oracle import traced_peak

MAXN = 4

HEX = {
    P0: (Fraction(1), Fraction(0)),
    B01: (Fraction(1, 2), Fraction(1, 2)),
    P1: (Fraction(-1, 2), Fraction(1, 2)),
    B12: (Fraction(-1), Fraction(0)),
    P2: (Fraction(-1, 2), Fraction(-1, 2)),
    B02: (Fraction(1, 2), Fraction(-1, 2)),
    CENTER: (Fraction(0), Fraction(0)),
}

# The cell map F_c embeds level n in level n + 1 inside the level-1
# triangle c = [center, corner(c), corner(c + 1)], the corners counted
# counterclockwise from p0.  On the level-0 vertices: p0 -> center,
# p1 -> F_P1[c], p2 -> F_P2[c].
F_P1 = (P0, P1, P1, P2, P2, P0)
F_P2 = (B01, B01, B12, B12, B02, B02)

# Sides incident to each hexagon corner, as bitmasks.
SIDE_OF_VERTEX = {
    P0: (1 << 0) | (1 << 5),
    B01: (1 << 0) | (1 << 1),
    P1: (1 << 1) | (1 << 2),
    B12: (1 << 2) | (1 << 3),
    P2: (1 << 3) | (1 << 4),
    B02: (1 << 4) | (1 << 5),
    CENTER: 0,
}


class ReferenceComplex:
    """The per-simplex construction: Python tuples, tuple-keyed dicts
    and Fraction coordinates, built one simplex at a time.  It is the
    oracle for the whole-array build."""

    def __init__(self, top):
        self.edges = [[(P0, P1), (P0, P2), (P1, P2)]]
        self.tris = [[(P0, P1, P2)]]
        self.edge_index = [{e: i for i, e in enumerate(self.edges[0])}]
        self.tri_index = [{t: i for i, t in enumerate(self.tris[0])}]
        self.tri_edges = [[(0, 1, 2)]]
        self.edge_tris = [[(0,), (0,), (0,)]]
        self.edge_bary, self.tri_bary, self.edge_children = [], [], []
        self.edge_side = [[-1, -1, -1]]
        self.edge_parent = [[None, None, None]]
        self.tri_parent = [[None]]
        self.coords = [HEX[P0], HEX[P1], HEX[P2]]
        self.births = [("p",), ("p",), ("p",)]
        self.vertex_sides = [0, 0, 0]
        for n in range(top):
            self._subdivide(n)
        self.top = top

    def _subdivide(self, n):
        edges, tris = self.edges[n], self.tris[n]
        ebary, tbary = [], []
        for i, (u, v) in enumerate(edges):
            ebary.append(len(self.coords))
            cu, cv = self.coords[u], self.coords[v]
            self.coords.append(((cu[0] + cv[0]) / 2, (cu[1] + cv[1]) / 2))
            self.births.append(("e", n, i))
            self.vertex_sides.append(0)
        for i, (u, v, w) in enumerate(tris):
            tbary.append(len(self.coords))
            cu, cv, cw = self.coords[u], self.coords[v], self.coords[w]
            self.coords.append(
                ((cu[0] + cv[0] + cw[0]) / 3, (cu[1] + cv[1] + cw[1]) / 3)
            )
            self.births.append(("t", n, i))
            self.vertex_sides.append(0)
        if n == 0:
            for vid in (B01, B02, B12, CENTER):
                self.coords[vid] = HEX[vid]

        new_edges = {}

        def add_edge(u, v, parent):
            key = (u, v) if u < v else (v, u)
            new_edges.setdefault(key, parent)

        for i, (u, v) in enumerate(edges):
            add_edge(u, ebary[i], ("e", i))
            add_edge(v, ebary[i], ("e", i))
        for i, t in enumerate(tris):
            for q in t:
                add_edge(q, tbary[i], ("t", i))
            for e in self.tri_edges[n][i]:
                add_edge(ebary[e], tbary[i], ("t", i))
        edge_list = sorted(new_edges)
        edge_idx = {e: j for j, e in enumerate(edge_list)}

        new_tris = {}
        for i, t in enumerate(tris):
            for q in t:
                for e in self.tri_edges[n][i]:
                    if q in edges[e]:
                        new_tris[tuple(sorted((q, ebary[e], tbary[i])))] = i
        tri_list = sorted(new_tris)

        tri_edge_ids = []
        edge_tri_lists = [[] for _ in edge_list]
        for j, (a, b, c) in enumerate(tri_list):
            sides = (edge_idx[(a, b)], edge_idx[(a, c)], edge_idx[(b, c)])
            tri_edge_ids.append(sides)
            for e in sides:
                edge_tri_lists[e].append(j)

        children = [[None, None] for _ in edges]
        for key in edge_list:
            kind, i = new_edges[key]
            if kind == "e":
                slot = 0 if min(edges[i]) in key else 1
                children[i][slot] = edge_idx[key]

        side = []
        for key in edge_list:
            kind, i = new_edges[key]
            if n == 0:
                side.append(_SIDE_EDGES.get(key, -1))
            else:
                side.append(self.edge_side[n][i] if kind == "e" else -1)
        for (u, v), s in zip(edge_list, side):
            if s >= 0:
                self.vertex_sides[u] |= 1 << s
                self.vertex_sides[v] |= 1 << s
        if n == 0:
            for vid, mask in SIDE_OF_VERTEX.items():
                self.vertex_sides[vid] = mask

        self.edges.append(edge_list)
        self.tris.append(tri_list)
        self.edge_index.append(edge_idx)
        self.tri_index.append({t: j for j, t in enumerate(tri_list)})
        self.tri_edges.append(tri_edge_ids)
        self.edge_tris.append([tuple(ts) for ts in edge_tri_lists])
        self.edge_bary.append(ebary)
        self.tri_bary.append(tbary)
        self.edge_children.append([tuple(c) for c in children])
        self.edge_side.append(side)
        self.edge_parent.append([new_edges[key] for key in edge_list])
        self.tri_parent.append([new_tris[t] for t in tri_list])

    def to_json(self, n):
        nv = 3 + sum(len(self.edges[k]) + len(self.tris[k]) for k in range(n))
        doc = {
            "level": n,
            "vertices": [
                [x.numerator, x.denominator, y.numerator, y.denominator]
                for x, y in self.coords[:nv]
            ],
            "edges": [list(e) for e in self.edges[n]],
            "triangles": [list(t) for t in self.tris[n]],
            "barycenters": {
                "edges": list(self.edge_bary[n]) if n < self.top else [],
                "triangles": list(self.tri_bary[n]) if n < self.top else [],
            },
        }
        return json.dumps(doc, separators=(",", ":"), sort_keys=False)


@pytest.fixture(scope="module")
def C():
    c = SubdivisionComplex()
    c.ensure_level(MAXN + 1)
    return c


@pytest.fixture(scope="module")
def R():
    return ReferenceComplex(MAXN + 1)


def coord_table(C, n):
    """Exact (x, y/sqrt(3)) of each level-n vertex, as Fractions."""
    num, den = C.coordinates(n)
    return [(Fraction(x, den), Fraction(y, den)) for x, y in num.tolist()]


def dihedral_inverse(a):
    t, k = a
    if t == "r":
        return ("r", (-k) % 6)
    return a


def count_oracle(n):
    v, e, f = 3, 3, 1
    for _ in range(n):
        v, e, f = v + e + f, 2 * e + 6 * f, 6 * f
    return v, e, f


def test_counts_match_recurrence(C):
    for n in range(MAXN + 1):
        assert C.counts(n) == count_oracle(n)


def test_euler_characteristic(C):
    for n in range(MAXN + 1):
        v, e, f = C.counts(n)
        assert v - e + f == 1


def edge_sides(C, n):
    """The boundary side 0..5 of each level-n edge, or -1, read off the
    boundary table."""
    side = np.full(len(C.edges[n]), -1)
    if n >= 1:
        side[C.boundary_index(n)] = np.arange(6)[:, None]
    return side


def side_masks(C, n):
    """The bitmask of boundary sides of each level-n vertex, from
    side_vertices."""
    masks = np.zeros(C.counts(n)[0], dtype=np.int64)
    for s in range(6):
        masks[C.side_vertices(n, s)] |= 1 << s
    return masks


def test_level_one_is_regular_hexagon(C):
    # six boundary vertices on the unit circle (y is stored over sqrt 3,
    # so the squared radius is x^2 + 3 y^2), center at the origin
    xy = coord_table(C, 1)
    on_circle = np.nonzero(side_masks(C, 1))[0].tolist()
    assert len(on_circle) == 6
    for v in on_circle:
        x, y = xy[v]
        assert x * x + 3 * y * y == 1
    assert xy[6] == (0, 0)


def test_barycenters_average_parents(C):
    # level-0 barycenters are pinned to the hexagon; all coordinates
    # of the top level share one denominator, so the averages are
    # integer identities.  The barycenter of edge e is offsets[n] + e,
    # of triangle t offsets[n] + E + t.
    xy = C.coordinates(C.top)[0]
    for n in range(1, MAXN + 1):
        V, E, T = C.counts(n)
        u, v = C.edges[n].T
        assert np.array_equal(2 * xy[V:V + E], xy[u] + xy[v])
        a, b, c = C.tri_vertices(n).T
        assert np.array_equal(3 * xy[V + E:V + E + T], xy[a] + xy[b] + xy[c])


def test_side_counts(C):
    for n in range(1, MAXN + 1):
        for s in range(6):
            assert len(C.boundary_index(n)[s]) == 2 ** (n - 1)
            assert len(C.side_vertices(n, s)) == 2 ** (n - 1) + 1


def test_side_vertices_refuses_a_non_side(C):
    # -1 marks the edges on no side, whose ends are not a side's vertices
    for side in (-1, 6):
        with pytest.raises(ValueError, match="not a boundary side"):
            C.side_vertices(2, side)


def test_corner_vertices_sit_on_two_sides(C):
    for n in range(1, MAXN + 1):
        masks = side_masks(C, n)
        corners = [m for m in masks.tolist() if bin(m).count("1") == 2]
        assert len(corners) == 6
        assert masks[CENTER] == 0


def edge_triangles(C, n):
    """The triangles of each level-n edge, ascending, as lists: the rows
    of tri_edges that hold it."""
    out = [[] for _ in range(len(C.edges[n]))]
    for t, sides in enumerate(C.tri_edges[n].tolist()):
        for e in sides:
            out[e].append(t)
    return out


def test_boundary_edges_have_one_triangle(C):
    for n in range(1, MAXN + 1):
        count = np.bincount(C.tri_edges[n].ravel(), minlength=len(C.edges[n]))
        assert len(count) == len(C.edges[n])
        assert (count >= 1).all()
        side = edge_sides(C, n)
        for e in range(len(count)):
            assert count[e] == (1 if side[e] >= 0 else 2)


def test_edge_triangle_handshake(C, R):
    # summed over the edges, the triangles at an edge count every
    # triangle three times: once per side, and its three sides differ
    for n in range(MAXN + 1):
        ts = edge_triangles(C, n)
        assert sum(map(len, ts)) == 3 * len(C.tri_edges[n])
        assert sum(map(len, R.edge_tris[n])) == 3 * len(C.tri_edges[n])
        assert all(len(set(t)) == 3 for t in C.tri_edges[n].tolist())


def test_edge_children_partition(C, R):
    # every level-(n+1) edge is exactly one of: a half of a level-n
    # edge, or an edge drawn inside a level-n triangle; which one, and
    # whose, is the reference's parent
    for n in range(MAXN + 1):
        E1 = len(C.edges[n + 1])
        kids = np.concatenate([C.edge_children[n].ravel(), C.tri_inner[n].ravel()])
        assert np.array_equal(np.bincount(kids, minlength=E1), np.ones(E1))
        parent = [None] * E1
        for i, pair in enumerate(C.edge_children[n].tolist()):
            for e in pair:
                parent[e] = ("e", i)
        for t, inner in enumerate(C.tri_inner[n].tolist()):
            for e in inner:
                parent[e] = ("t", t)
        assert parent == R.edge_parent[n + 1]


def test_edge_descendants_run_along_the_edge(C):
    # the descendants form a path from the smaller end to the larger:
    # each shares one end with the next
    for n in range(MAXN):
        for m in range(n, MAXN + 2):
            desc = C.edge_descendants(n, np.arange(len(C.edges[n])), m)
            ends = C.edges[m][desc]
            assert (ends[:, 0, :] == C.edges[n][:, :1]).any(axis=1).all()
            assert (ends[:, -1, :] == C.edges[n][:, 1:]).any(axis=1).all()
            shared = (ends[:, 1:, :, None] == ends[:, :-1, None, :]).sum(axis=(2, 3))
            assert (shared == 1).all()


def test_macro_edge_descendants_are_the_sides(C):
    arcs = {0: (0, 1), 1: (4, 5), 2: (2, 3)}
    for n in range(1, MAXN + 1):
        side = edge_sides(C, n)
        tagged = set()
        for macro, sides in arcs.items():
            desc = C.edge_descendants(0, macro, n)
            assert len(desc) == 2 ** n
            assert {side[e] for e in desc} == set(sides)
            tagged.update(desc)
        boundary = {e for e, s in enumerate(side) if s >= 0}
        assert tagged == boundary


def test_dihedral_group_table():
    elems = dihedral_elements()
    assert len(elems) == 12
    for a in elems:
        assert dihedral_compose(a, dihedral_inverse(a)) == ("r", 0)
        for b in elems:
            assert dihedral_compose(a, b) in elems


def dihedral_compose_reference(a, b):
    """a after b by the algebra of rotations r_k and reflections s_k."""
    ta, ka = a
    tb, kb = b
    if ta == "r" and tb == "r":
        return ("r", (ka + kb) % 6)
    if ta == "r" and tb == "s":
        return ("s", (ka + kb) % 6)
    if ta == "s" and tb == "r":
        return ("s", (ka - kb) % 6)
    return ("r", (ka - kb) % 6)


def test_dihedral_compose_matches_algebra_and_vertex_action():
    elems = dihedral_elements()
    for a in elems:
        for b in elems:
            ab = dihedral_compose(a, b)
            assert ab == dihedral_compose_reference(a, b)
            pa, pb = _base_perm(a), _base_perm(b)
            assert _base_perm(ab) == [pa[pb[v]] for v in range(7)]


def rot60(p):
    x, y = p
    return ((x - 3 * y) / 2, (x + y) / 2)


def test_symmetries_act_by_isometries(C):
    rng = np.random.default_rng(4)
    xy = coord_table(C, MAXN)
    sample = rng.integers(0, len(xy), size=40)
    for elem in dihedral_elements():
        t, k = elem
        arr = C.vertex_map(elem, MAXN)
        for vid in sample:
            q = xy[vid]
            if t == "s":
                q = (q[0], -q[1])
            for _ in range(k):
                q = rot60(q)
            assert xy[arr[vid]] == q


def test_side_perm_matches_edge_action(C):
    n = 3
    side = edge_sides(C, n)
    for elem in dihedral_elements():
        sp = side_perm(elem)
        for e in range(len(C.edges[n])):
            s = side[e]
            img = C.edge_images(elem, n)[e]
            expect = -1 if s < 0 else sp[s]
            assert side[img] == expect


def test_symmetries_are_edge_bijections(C):
    n = 3
    for elem in dihedral_elements():
        imgs = {C.edge_images(elem, n)[e] for e in range(len(C.edges[n]))}
        assert len(imgs) == len(C.edges[n])


# The cell maps of the complex are the rows of embed(1, n), one per
# level-1 triangle; test_embedding_matches_cell_maps pins each row to
# the test-side F_c.


def test_cell_maps_partition_triangles(C):
    for n in range(MAXN):
        ts = C.embed(1, n)[1]
        assert sorted(ts.ravel().tolist()) == list(range(6 * len(C.tri_edges[n])))


def test_cell_map_lands_in_its_slice(C):
    # the level-1 triangle on side c is the sector between 60c and
    # 60(c + 1) degrees, which holds the centroid of every triangle
    # inside it
    side = edge_sides(C, 1)[C.tri_edges[1]].max(axis=1)
    assert sorted(side.tolist()) == list(range(6))
    for n in range(MAXN):
        ts = C.embed(1, n)[1]
        num = C.coordinates(n + 1)[0]
        for x in range(6):
            xy = num[C.tri_vertices(n + 1)[ts[x]]].sum(axis=1)
            angle = np.degrees(np.arctan2(np.sqrt(3) * xy[:, 1], xy[:, 0]))
            assert (np.floor(angle % 360 / 60) == side[x]).all()


def test_cell_maps_commute_with_refinement(C):
    for n in range(1, 3):
        es, fine = C.embed(1, n)[0], C.embed(1, n + 1)[0]
        for x in range(6):
            for e in range(len(C.edges[n])):
                kids = {fine[x][k] for k in C.edge_children[n][e]}
                assert kids == set(C.edge_children[n + 1][es[x][e]])


def test_arrays_match_reference(C, R):
    for n in range(MAXN + 2):
        assert C.counts(n)[0] == 3 + sum(
            len(R.edges[k]) + len(R.tris[k]) for k in range(n)
        )
        assert C.edges[n].tolist() == [list(e) for e in R.edges[n]]
        assert C.tri_vertices(n).tolist() == [list(t) for t in R.tris[n]]
        assert C.tri_edges[n].tolist() == [list(t) for t in R.tri_edges[n]]
        assert edge_triangles(C, n) == [list(ts) for ts in R.edge_tris[n]]
        assert edge_sides(C, n).tolist() == R.edge_side[n]
        # the simplex codes the base-level image search looks up are
        # ascending in id order: u*V + v, and edge_id(a, b)*V + c
        V, E, T = C.counts(n)
        V = np.int64(V)  # the int32 ids times V in int64
        assert (np.diff(C.edges[n][:, 0] * V + C.edges[n][:, 1]) > 0).all()
        assert (np.diff(C.tri_edges[n][:, 0] * V + C.tri_vertices(n)[:, 2]) > 0).all()
        if n <= MAXN:
            assert C.edge_children[n].tolist() == [list(c) for c in R.edge_children[n]]
            # barycenter ids follow the edges, then the triangles
            assert R.edge_bary[n] == list(range(V, V + E))
            assert R.tri_bary[n] == list(range(V + E, V + E + T))
        if n >= 1:
            # each triangle's parent is the one whose children hold it
            parent = np.full(T, -1)
            parent[C.tri_children[n - 1]] = np.arange(len(C.tri_edges[n - 1]))[:, None]
            assert parent.tolist() == R.tri_parent[n]
    for n in range(1, MAXN + 2):
        V = C.counts(n)[0]
        for s in range(6):
            want = [v for v in range(V) if R.vertex_sides[v] >> s & 1]
            assert C.side_vertices(n, s).tolist() == want
    for n in range(MAXN + 2):
        assert coord_table(C, n) == R.coords[:C.counts(n)[0]]
        # the denominator is the level's common one, 2 * 6^(n-1)
        assert C.coordinates(n)[1] == 2 * 6 ** max(n - 1, 0)
    assert len(coord_table(C, MAXN + 1)) == len(R.coords)
    tables = [C.edges, C.tri_edges, C.edge_children, C.tri_children, C.tri_inner]
    assert not any(t[-1].flags.writeable for t in tables)


def reference_side_order(R, n, s):
    """The level-n edges the reference tags with side s, in order along
    the side from its level-0 corner: by the distance of their
    midpoints from it, in the (x, y/sqrt(3)) plane."""
    corner = R.coords[min(sorted(_SIDE_EDGES, key=_SIDE_EDGES.get)[s])]

    def dist(e):
        u, v = R.edges[n][e]
        dx, dy = (R.coords[u][i] + R.coords[v][i] - 2 * corner[i] for i in (0, 1))
        return dx * dx + 3 * dy * dy

    return sorted((e for e, t in enumerate(R.edge_side[n]) if t == s), key=dist)


def test_boundary_index_matches_reference(C, R):
    for n in range(1, MAXN + 2):
        table = C.boundary_index(n)
        assert table.shape == (6, 2 ** (n - 1)) and table.dtype == np.int32
        for s in range(6):
            assert table[s].tolist() == reference_side_order(R, n, s)
    with pytest.raises(ValueError, match="from level 1"):
        C.boundary_index(0)


@pytest.fixture(scope="module")
def C7():
    c = SubdivisionComplex()
    c.ensure_level(7)
    return c


def test_boundary_index_matches_side_scan(C7):
    # the per-edge sides as the reference tags them: the level-1 side
    # edges, then at each level the two halves of an edge on its side
    # and every edge drawn inside a triangle on none
    side = np.array([_SIDE_EDGES.get(tuple(e), -1) for e in C7.edges[1].tolist()])
    for n in range(1, 8):
        if n > 1:
            fine = np.full(len(C7.edges[n]), -1)
            fine[C7.edge_children[n - 1]] = side[:, None]
            side = fine
        table = C7.boundary_index(n)
        for s in range(6):
            assert np.array_equal(np.sort(table[s]), np.nonzero(np.isin(side, s))[0])


def test_cell_sides_answer_the_level_one_lookups(C7):
    # references: the side of each level-1 triangle's boundary edge in
    # _SIDE_EDGES, and the lookups of level-1 edge codes u*V + v
    edges = [tuple(e) for e in C7.edges[1].tolist()]
    on = [[_SIDE_EDGES[edges[e]] for e in t if edges[e] in _SIDE_EDGES]
          for t in C7.tri_edges[1].tolist()]
    assert [[s] for s in CELL_SIDES] == on
    V = C7.offsets[1]
    codes = pair_codes(C7.edges[1][:, 0], C7.edges[1][:, 1], V)
    side_edges = [u * V + v for u, v in sorted(_SIDE_EDGES, key=_SIDE_EDGES.get)]
    assert np.array_equal(
        C7.boundary_index(1)[:, 0], lookup_sorted(codes, side_edges, "side edge")
    )
    spokes = cut_segments(C7, 1)[1]
    assert spokes.dtype == np.int32
    assert np.array_equal(spokes, lookup_sorted(codes, pair_codes([B01, B02], CENTER, V), "spoke"))
    # the cells on sides 0-2 tile the upper half-plane, whose triangles
    # have a positive y sum
    for n in range(1, 8):
        upper = np.zeros(len(C7.tri_edges[n]), dtype=bool)
        upper[C7.embed(1, n - 1)[1][np.isin(CELL_SIDES, (0, 1, 2))]] = True
        y = C7.coordinates(n)[0][C7.tri_vertices(n), 1].sum(axis=1)
        assert np.array_equal(upper, y > 0)
        assert (y != 0).all()


def test_triangle_side_rows_ascend(C7):
    # edge ids follow the sorted vertex pairs, so ab < ac < bc
    for n in range(8):
        assert (np.diff(C7.tri_edges[n], axis=1) > 0).all()


def test_dual_matches_reference(C, R):
    # the dual joins the two triangles of every interior edge; its
    # terminals are the triangles of the side-{0,1} and side-{3,4} edges
    for n in range(1, MAXN + 2):
        D = build_dual(C, n)
        pairs = sorted(ts for ts in R.edge_tris[n] if len(ts) == 2)
        assert D.n == len(R.tris[n])
        assert list(zip(D.us.tolist(), D.vs.tolist())) == pairs
        assert (D.num == ONE).all()
        for name, sides in (("A", (0, 1)), ("B", (3, 4))):
            assert D.boundary[name] == {
                R.edge_tris[n][e][0]
                for e, s in enumerate(R.edge_side[n]) if s in sides
            }


def table_bytes(n):
    """Bytes of the tables of a complex built to level n: 4 per entry
    of the int32 index tables, per level k <= n edges (2E) and
    tri_edges (3T), per level k < n edge_children (2E), tri_children
    and tri_inner (6T each).  No coordinates are held."""
    total = 0
    for k in range(n + 1):
        v, e, t = count_oracle(k)
        total += 4 * (2 * e + 3 * t)
        if k < n:
            total += 4 * (2 * e + 12 * t)
    return total


def test_tables_match_sizing_formula():
    # every array the complex holds, map caches aside (none is built)
    c = SubdivisionComplex()
    for n in range(1, 7):
        c.ensure_level(n)
        held = sum(
            a.nbytes
            for value in vars(c).values()
            for a in (value if isinstance(value, list) else [value])
            if isinstance(a, np.ndarray)
        )
        assert held == table_bytes(n)
    assert table_bytes(8) == 68_537_508


def test_to_json_matches_reference(C, R):
    for n in range(1, MAXN + 1):
        assert C.to_json(n) == R.to_json(n)
    # at the top level the barycenter ids come from the numbering alone,
    # as if one level more were built, unless the top is the cap
    top = 3
    assert R.top > top
    below_cap = SubdivisionComplex(cap=top + 1)
    below_cap.ensure_level(top)
    assert below_cap.to_json(top) == R.to_json(top)
    at_cap = SubdivisionComplex(cap=top)
    at_cap.ensure_level(top)
    doc = json.loads(at_cap.to_json(top))
    assert doc["barycenters"] == {"edges": [], "triangles": []}
    assert doc == {**json.loads(R.to_json(top)), "barycenters": doc["barycenters"]}


def json_by_lists(C, n):
    # the document with each table turned into Python lists for json
    V, E, T = C.counts(n)
    num, den = C.coordinates(n)
    g = np.gcd(num, den)
    vertices = np.stack([num // g, den // g], axis=2).reshape(-1, 4)
    below = n < C.cap
    doc = {
        "level": n,
        "vertices": vertices.tolist(),
        "edges": C.edges[n].tolist(),
        "triangles": C.tri_vertices(n).tolist(),
        "barycenters": {
            "edges": list(range(V, V + E)) if below else [],
            "triangles": list(range(V + E, V + E + T)) if below else [],
        },
    }
    return json.dumps(doc, separators=(",", ":"))


@pytest.mark.parametrize("block", [1, 2, 7])
def test_to_json_is_exact_across_text_blocks(monkeypatch, block):
    monkeypatch.setattr(subdivision, "_TEXT_BLOCK", block)
    below_cap = SubdivisionComplex(cap=4)
    below_cap.ensure_level(3)
    at_cap = SubdivisionComplex(cap=3)
    at_cap.ensure_level(3)
    for c, n in ((below_cap, 1), (below_cap, 2), (below_cap, 3), (at_cap, 3)):
        assert c.to_json(n) == json_by_lists(c, n)
    # negative values of every digit count, up to the int64 extremes
    rng = np.random.default_rng(7)
    table = rng.integers(-(10 ** 18), 10 ** 18, (40, 3)) // 10 ** rng.integers(0, 19, (40, 3))
    table[:2] = [[0, -1, 9], [np.iinfo(np.int64).max, -np.iinfo(np.int64).max, -10]]
    rows = IntRows(tuple(table.T), ("[", ",", ","), {0: "]"}, between=",")
    text = format_rows(["[", rows, "]"])
    assert text == json.dumps(table.tolist(), separators=(",", ":"))


def rows_by_fstrings(rows):
    """The text of an IntRows table, a row at a time."""
    out = []
    for i in range(len(rows.cols[0])):
        row = "".join(f"{sep}{int(x[i])}" for sep, x in zip(rows.seps, rows.cols))
        key = next(iter(rows.tails)) if rows.key is None else int(rows.key[i])
        out.append(row + rows.tails[key])
    return rows.between.join(out)


@pytest.mark.parametrize("block", [1, 2, 7, subdivision._TEXT_BLOCK])
def test_format_rows_matches_a_per_row_reference(monkeypatch, block):
    monkeypatch.setattr(subdivision, "_TEXT_BLOCK", block)
    rng = np.random.default_rng(block)
    for m in sorted({0, 1, block - 1, block, block + 1}):
        # the first column's digits grow a place each block, the second
        # is negative only in its last row, the third mixes signs
        grows = 10 ** np.minimum(np.arange(m) // block, 17) * rng.integers(1, 10, m)
        last = rng.integers(0, 1000, m)
        last[-1:] = -7
        mixed = rng.integers(np.iinfo(np.int32).min, np.iinfo(np.int32).max, m, dtype=np.int32)
        mixed[:2] = [0, -1][:m]
        cols = (grows, last, mixed)
        seps = ("<", " ", "--")
        # three tails keyed per row, changing inside a block
        key = rng.choice([3, 5, 11], m)
        for tails, k in (({2: " 2/1\n"}, None), ({2: ""}, np.full(m, 2)),
                         ({3: ";", 5: "", 11: " [x]\n"}, key)):
            for between in ("", ",\n"):
                rows = IntRows(cols, seps, tails, k, between)
                text = format_rows(["{", rows, "}"])
                assert text == "{" + rows_by_fstrings(rows) + "}"


def test_edgelist_export_holds_two_copies_of_its_text(C7):
    G = build_hexacarpet(C7, 7)
    text, peak = traced_peak(lambda: to_edgelist(G))
    assert peak <= 2.02 * len(text)


def test_lookup_sorted_finds_or_raises():
    table = np.array([2, 5, 9])
    assert lookup_sorted(table, np.array([9, 2, 5]), "code").tolist() == [2, 0, 1]
    assert len(lookup_sorted(table, np.array([], dtype=np.int64), "code")) == 0
    # below, between and above the table, and an empty table
    for t, codes in ((table, [1]), (table, [5, 6]), (table, [10, 2]), (table[:0], [0])):
        with pytest.raises(KeyError, match="code not found"):
            lookup_sorted(t, np.array(codes), "code")


def test_int64_overflow_guard():
    # level 11 is the deepest whose ids fit the int32 tables: its
    # hexacarpet has 3 T = 1,088,391,168 incidences and E = 544,198,656
    # edges, while E = 3,265,179,648 at level 12 exceeds 2^31 - 1; the
    # guard refuses level 12 before building anything
    _check_index_range(11)
    c = SubdivisionComplex(cap=20)
    with pytest.raises(CapacityError, match="int32"):
        c.ensure_level(12)
    assert c.top == 0


def reference_vertex_map(R, key, upto):
    """Vertex images extended one barycenter at a time, in birth order,
    by looking up each mapped parent simplex in the level dicts.  key is
    a dihedral element, or ("F", c) for the cell map F_c."""
    if key[0] == "F":
        arr, shift = [CENTER, F_P1[key[1]], F_P2[key[1]]], 1
    else:
        arr, shift = list(_base_perm(key)), 0
    for vid in range(len(arr), upto):
        kind, lvl, idx = R.births[vid]
        tgt = lvl + shift
        if kind == "e":
            u, v = R.edges[lvl][idx]
            ie = R.edge_index[tgt][tuple(sorted((arr[u], arr[v])))]
            arr.append(R.edge_bary[tgt][ie])
        else:
            im = tuple(sorted(arr[q] for q in R.tris[lvl][idx]))
            arr.append(R.tri_bary[tgt][R.tri_index[tgt][im]])
    return arr


def test_image_arrays_match_per_simplex_maps(C, R):
    # the symmetries of the complex, and the test-side cell maps
    F = CellMaps(C)
    for key in [("F", c) for c in range(6)] + dihedral_elements():
        shift = 1 if key[0] == "F" else 0
        for n in range(1 - shift, MAXN + 1 - shift):
            if shift:
                vm, (eimg, timg) = F.vertex_map(key[1], n), F.images(key[1], n)
            else:
                vm, eimg, timg = (
                    C.vertex_map(key, n), C.edge_images(key, n), C.tri_images(key, n)
                )
            nv = C.counts(n)[0]
            arr = reference_vertex_map(R, key, nv)
            assert vm.tolist() == arr[:nv]
            tgt = n + shift
            edges = [
                R.edge_index[tgt][tuple(sorted((arr[u], arr[v])))]
                for u, v in R.edges[n]
            ]
            tris = [
                R.tri_index[tgt][tuple(sorted(arr[q] for q in t))]
                for t in R.tris[n]
            ]
            assert eimg.tolist() == edges
            assert timg.tolist() == tris


def searched_images(C, vm, n, tgt):
    """Edge and triangle images of the level-n simplices under the
    vertex images vm, found by binary search of the sorted image
    vertices in the level-tgt simplex codes; the reference for the
    complex's level-by-level refinement, and the test-side cell maps."""
    nv = np.int64(C.offsets[tgt])  # the int32 ids times nv in int64
    ecodes = C.edges[tgt][:, 0] * nv + C.edges[tgt][:, 1]
    tcodes = C.tri_edges[tgt][:, 0] * nv + C.tri_vertices(tgt)[:, 2]
    ie = vm[C.edges[n]]
    lo, hi = ie.min(axis=1), ie.max(axis=1)
    eimg = lookup_sorted(ecodes, lo * nv + hi, "edge image")
    it = np.sort(vm[C.tri_vertices(n)], axis=1)
    ab = lookup_sorted(ecodes, it[:, 0] * nv + it[:, 1], "triangle image")
    timg = lookup_sorted(tcodes, ab * nv + it[:, 2], "triangle image")
    return eimg, timg


def test_refined_images_match_search():
    # every symmetry at levels 1..6; the vertex images of a level's
    # barycenters are those of the searched edge and triangle images, so
    # by induction the whole map agrees
    top = 6
    C = SubdivisionComplex()
    C.ensure_level(top)
    for g in dihedral_elements():
        for n in range(1, top + 1):
            eimg, timg = searched_images(C, C.vertex_map(g, n), n, n)
            assert np.array_equal(C.edge_images(g, n), eimg)
            assert np.array_equal(C.tri_images(g, n), timg)
            if n < top:
                V, E, _ = C.counts(n)
                vm = np.concatenate([C.vertex_map(g, n), V + eimg, V + E + timg])
                assert np.array_equal(C.vertex_map(g, n + 1), vm)


def test_child_tables_match_reference(C, R):
    for n in range(MAXN):
        idx, eidx = R.tri_index[n + 1], R.edge_index[n + 1]
        children, inner = [], []
        for t, tri in enumerate(R.tris[n]):
            eb = [R.edge_bary[n][e] for e in R.tri_edges[n][t]]
            tb = R.tri_bary[n][t]
            children.append([
                idx[tuple(sorted((tri[q], eb[s], tb)))]
                for q, s in zip(_SPLIT_Q, _SPLIT_SIDE)
            ])
            inner.append([eidx[(v, tb)] for v in list(tri) + eb])
        assert C.tri_children[n].tolist() == children
        assert C.tri_inner[n].tolist() == inner
    tables = [C.tri_children, C.tri_inner]
    assert not any(t[-1].flags.writeable for t in tables)


@dataclass(frozen=True)
class SimplexId:
    """A simplex addressed by (level, dimension, index)."""

    level: int
    dim: int
    index: int


class CellMaps:
    """The cell maps F_0..F_5 of a complex, built from the corner tables
    F_P1, F_P2 a level at a time: F_c sends level n into level n + 1,
    and its images at each level are found by searched_images in the
    level above.  They never go through embed, which they check."""

    def __init__(self, C):
        self.C = C
        self._vm = {c: np.array([CENTER, F_P1[c], F_P2[c]]) for c in range(6)}
        self._images = {}

    def vertex_map(self, c, n):
        """The level-(n+1) images of the level-n vertex ids under F_c."""
        offsets = self.C.offsets
        while len(self._vm[c]) < offsets[n]:
            # the next ids are the level-k barycenters, edges first
            k = offsets.index(len(self._vm[c]))
            eimg, timg = self.images(c, k)
            V, E = offsets[k + 1], len(self.C.edges[k + 1])
            self._vm[c] = np.concatenate([self._vm[c], V + eimg, V + E + timg])
        return self._vm[c][: offsets[n]]

    def images(self, c, n):
        """The level-(n+1) edge and triangle images of the level-n
        simplices under F_c."""
        if (c, n) not in self._images:
            self._images[(c, n)] = searched_images(self.C, self.vertex_map(c, n), n, n + 1)
        return self._images[(c, n)]


def apply_word(F, word, simplex):
    """Apply a composition of the cell maps F (a CellMaps) one letter at
    a time, innermost letter last: word (c_1, ..., c_k) sends a level-n
    simplex s to the level-(n+k) simplex F_{c_1}(F_{c_2}(...F_{c_k}(s)))."""
    level, idx = simplex.level, simplex.index
    for c in reversed(word):
        if simplex.dim == 0:
            idx = F.vertex_map(int(c), level)[idx]
        else:
            idx = F.images(int(c), level)[simplex.dim - 1][idx]
        level += 1
    return SimplexId(level, simplex.dim, int(idx))


def test_embedding_tiles_each_level(C):
    for m in range(4):
        es, ts = C.embed(m, 0)
        assert np.array_equal(es, C.tri_edges[m])
        assert np.array_equal(ts.ravel(), np.arange(len(C.tri_edges[m])))
        for n in range(4 - m):
            es, ts = C.embed(m, n)
            assert ts.shape == (len(C.tri_edges[m]), len(C.tri_edges[n]))
            assert es.shape == (len(C.tri_edges[m]), len(C.edges[n]))
            # every fine triangle lies in one coarse triangle, and every
            # fine edge in one, or on the side shared by two
            assert (np.bincount(ts.ravel(), minlength=len(C.tri_edges[m + n])) == 1).all()
            hits = np.bincount(es.ravel(), minlength=len(C.edges[m + n]))
            assert ((hits == 1) | (hits == 2)).all()


def test_embedding_matches_cell_maps():
    # the embedding keeps the vertex order, so it sends p0, p1, p2 to
    # cell c's two corners and then its center, the largest id; F_c
    # sends p0 to the center, and the turn r2 first cycles p0 -> p1 ->
    # p2 -> p0, so F_c r2 does the same
    c6 = SubdivisionComplex(cap=6)
    c6.ensure_level(6)
    F = CellMaps(c6)
    # cell c is level-1 triangle cells[c], and every row is some cell
    cells = [int(F.images(c, 0)[1][0]) for c in range(6)]
    assert sorted(cells) == list(range(6))
    for n in range(1, 6):
        es, ts = c6.embed(1, n)
        r2e = c6.edge_images(("r", 2), n)
        r2t = c6.tri_images(("r", 2), n)
        for c, x in enumerate(cells):
            eimg, timg = F.images(c, n)
            assert np.array_equal(ts[x], timg[r2t])
            assert np.array_equal(es[x], eimg[r2e])


def test_symmetries_commute_with_embedding():
    # g sends the level-j simplex in slot i of triangle x to the one in
    # slot i of g x once the triangles are (older vertex, edge
    # barycenter, triangle barycenter), from level 2 up.  A level-1
    # triangle is (corner, side barycenter, center), and only the
    # elements that keep the corners p0, p1, p2 keep that order
    c6 = SubdivisionComplex(cap=6)
    c6.ensure_level(6)
    keep = {("r", 0), ("r", 2), ("r", 4), ("s", 0), ("s", 2), ("s", 4)}
    assert keep == {
        g for g in dihedral_elements() if sorted(c6.vertex_map(g, 1)[:3]) == [0, 1, 2]
    }
    for m in (1, 2, 3):
        for j in range(1, 7 - m):
            es, ts = c6.embed(m, j)
            commute = {
                g for g in dihedral_elements()
                if np.array_equal(c6.tri_images(g, m + j)[ts], ts[c6.tri_images(g, m)])
                and np.array_equal(c6.edge_images(g, m + j)[es], es[c6.tri_images(g, m)])
            }
            assert commute == (keep if m == 1 else set(dihedral_elements())), (m, j)


def test_apply_word_on_vertices(C):
    # the level-0 corner p0 maps to the center under every cell map
    F = CellMaps(C)
    for c in range(6):
        img = apply_word(F, (c,), SimplexId(0, 0, 0))
        assert img.index == 6


def test_capacity_and_missing_level():
    c = SubdivisionComplex(cap=2)
    with pytest.raises(CapacityError):
        c.ensure_level(3)
    with pytest.raises(MissingLevelError):
        c.require_level(1)
    c.ensure_level(1)
    with pytest.raises(MissingLevelError):
        c.edge_images(("s", 0), 2)
    # above level 2 the images are refined from the level below; a level
    # above the top is refused even when the one below it is built
    c = SubdivisionComplex(cap=3)
    c.ensure_level(2)
    assert len(c.edge_images(("s", 0), 2)) == len(c.edges[2])
    with pytest.raises(MissingLevelError):
        c.tri_images(("s", 0), 3)
    with pytest.raises(MissingLevelError):
        c.vertex_map(("s", 0), 3)


def test_symmetries_start_at_level_one():
    # the dihedral action does not fix level 0, so no element maps it,
    # not even those that happen to permute the three corners
    c = SubdivisionComplex(cap=2)
    c.ensure_level(2)
    for g in (("r", 0), ("r", 1), ("s", 0)):
        with pytest.raises(ValueError, match="defined from level 1"):
            c.edge_images(g, 0)
        with pytest.raises(ValueError, match="defined from level 1"):
            c.tri_images(g, 0)
        with pytest.raises(ValueError, match="defined from level 1"):
            c.vertex_map(g, 0)
        assert len(c.tri_images(g, 1)) == 6
        assert c.vertex_map(g, 1).tolist() == _base_perm(g)


def test_maps_refuse_what_is_not_a_dihedral_element():
    # a wrapped key must not map as the identity, nor ('r', 7) as
    # ('r', 1) under a cache entry of its own
    c = SubdivisionComplex(cap=2)
    c.ensure_level(2)
    for bad in (("auto", ("x", 0)), ("auto", ("r", 1)), ("r", 7), ("s", -1), ("t", 0)):
        with pytest.raises(ValueError, match="not a dihedral element"):
            c.edge_images(bad, 2)
        with pytest.raises(ValueError, match="not a dihedral element"):
            c.vertex_map(bad, 1)
        with pytest.raises(ValueError, match="not a dihedral element"):
            side_perm(bad)
    assert c._images == {}


def test_levels_out_of_range_are_refused():
    c = SubdivisionComplex(cap=3)
    c.ensure_level(3)
    # a negative level would read the top level from the end of a list
    for call in (
        lambda: c.ensure_level(-3),
        lambda: c.counts(-1),
        lambda: c.side_vertices(-1, 0),
        lambda: c.boundary_index(-1),
        lambda: c.to_json(-1),
        lambda: c.edge_descendants(-1, [0], 1),
    ):
        with pytest.raises(ValueError, match="negative"):
            call()
    for m, n in ((2, -1), (-1, 2), (-1, -1)):
        with pytest.raises(ValueError, match="cannot embed"):
            c.embed(m, n)
    # descendants live at finer levels only
    with pytest.raises(ValueError, match="coarser"):
        c.edge_descendants(3, [0, 1], 1)
    assert c.edge_descendants(2, [0, 1], 2).tolist() == [[0], [1]]


def test_serialization_deterministic(C):
    other = SubdivisionComplex()
    other.ensure_level(3)
    for n in (1, 2):
        assert C.to_json(n) == other.to_json(n)
    doc = C.to_json(2)
    head = '{"level":2,"vertices":'
    assert doc.startswith(head)
    for key in ('"edges":', '"triangles":', '"barycenters":'):
        assert key in doc

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
from hexacarpet.graphs import ONE, build_dual
from hexacarpet.subdivision import (
    B01,
    B02,
    B12,
    CENTER,
    P0,
    P1,
    P2,
    _SIDE_EDGES,
    _SIDE_OF_VERTEX,
    _SPLIT_Q,
    _SPLIT_SIDE,
    _base_perm,
    _check_int64,
    dihedral_compose,
    dihedral_elements,
    lookup_sorted,
    side_perm,
)

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
            for vid, mask in _SIDE_OF_VERTEX.items():
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


def coord(C, v):
    """Exact (x, y/sqrt(3)) of vertex v."""
    return tuple(Fraction(int(c), C.denom) for c in C.coords[v])


def vertices_at(C, n):
    """Ids of the vertices present in the level-n skeleton."""
    return range(C.counts(n)[0])


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


def test_level_one_is_regular_hexagon(C):
    # six boundary vertices on the unit circle (y is stored over sqrt 3,
    # so the squared radius is x^2 + 3 y^2), center at the origin
    on_circle = [v for v in range(7) if C.vertex_sides[v]]
    assert len(on_circle) == 6
    for v in on_circle:
        x, y = coord(C, v)
        assert x * x + 3 * y * y == 1
    assert coord(C, 6) == (0, 0)


def test_barycenters_average_parents(C):
    # level-0 barycenters are pinned to the hexagon; all coordinates
    # share one denominator, so the averages are integer identities.
    # The barycenter of edge e is offsets[n] + e, of triangle t
    # offsets[n] + E + t.
    xy = C.coords
    for n in range(1, MAXN + 1):
        V, E, T = C.counts(n)
        u, v = C.edges[n].T
        assert np.array_equal(2 * xy[V:V + E], xy[u] + xy[v])
        a, b, c = C.tris[n].T
        assert np.array_equal(3 * xy[V + E:V + E + T], xy[a] + xy[b] + xy[c])


def test_side_counts(C):
    for n in range(1, MAXN + 1):
        for s in range(6):
            assert len(C.side_edges_at(n, s)) == 2 ** (n - 1)
            assert len(C.side_vertices(n, s)) == 2 ** (n - 1) + 1


def test_corner_vertices_sit_on_two_sides(C):
    for n in range(1, MAXN + 1):
        masks = [C.vertex_sides[v] for v in vertices_at(C, n)]
        corners = [m for m in masks if bin(m).count("1") == 2]
        assert len(corners) == 6
    assert C.vertex_sides[6] == 0


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
        for e in range(len(count)):
            assert count[e] == (1 if C.edge_side[n][e] >= 0 else 2)


def test_edge_triangle_handshake(C, R):
    # summed over the edges, the triangles at an edge count every
    # triangle three times: once per side, and its three sides differ
    for n in range(MAXN + 1):
        ts = edge_triangles(C, n)
        assert sum(map(len, ts)) == 3 * len(C.tris[n])
        assert sum(map(len, R.edge_tris[n])) == 3 * len(C.tris[n])
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


def test_macro_edge_descendants_are_the_sides(C):
    arcs = {0: (0, 1), 1: (4, 5), 2: (2, 3)}
    for n in range(1, MAXN + 1):
        tagged = set()
        for macro, sides in arcs.items():
            desc = C.edge_descendants(0, macro, n)
            assert len(desc) == 2 ** n
            assert {C.edge_side[n][e] for e in desc} == set(sides)
            tagged.update(desc)
        boundary = {e for e, s in enumerate(C.edge_side[n]) if s >= 0}
        assert tagged == boundary


def test_dihedral_group_table():
    elems = dihedral_elements()
    assert len(elems) == 12
    for a in elems:
        assert dihedral_compose(a, dihedral_inverse(a)) == ("r", 0)
        for b in elems:
            assert dihedral_compose(a, b) in elems


def rot60(p):
    x, y = p
    return ((x - 3 * y) / 2, (x + y) / 2)


def test_symmetries_act_by_isometries(C):
    rng = np.random.default_rng(4)
    nv = C.counts(MAXN)[0]
    sample = rng.integers(0, nv, size=40)
    for elem in dihedral_elements():
        t, k = elem
        arr = C.vertex_map(elem, MAXN)
        for vid in sample:
            q = coord(C, vid)
            if t == "s":
                q = (q[0], -q[1])
            for _ in range(k):
                q = rot60(q)
            assert coord(C, arr[vid]) == q


def test_side_perm_matches_edge_action(C):
    n = 3
    for elem in dihedral_elements():
        sp = side_perm(elem)
        for e in range(len(C.edges[n])):
            s = C.edge_side[n][e]
            img = C.edge_images(elem, n)[e]
            expect = -1 if s < 0 else sp[s]
            assert C.edge_side[n][img] == expect


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
        assert sorted(ts.ravel().tolist()) == list(range(6 * len(C.tris[n])))


def test_cell_map_lands_in_its_slice(C):
    # the level-1 triangle on side c is the sector between 60c and
    # 60(c + 1) degrees, which holds the centroid of every triangle
    # inside it
    side = C.edge_side[1][C.tri_edges[1]].max(axis=1)
    assert sorted(side.tolist()) == list(range(6))
    for n in range(MAXN):
        ts = C.embed(1, n)[1]
        for x in range(6):
            xy = C.coords[C.tris[n + 1][ts[x]]].sum(axis=1)
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
        assert C.tris[n].tolist() == [list(t) for t in R.tris[n]]
        assert C.tri_edges[n].tolist() == [list(t) for t in R.tri_edges[n]]
        assert edge_triangles(C, n) == [list(ts) for ts in R.edge_tris[n]]
        assert C.edge_side[n].tolist() == R.edge_side[n]
        # the simplex codes the base-level image search looks up are
        # ascending in id order: u*V + v, and edge_id(a, b)*V + c
        V, E, T = C.counts(n)
        assert (np.diff(C.edges[n][:, 0] * V + C.edges[n][:, 1]) > 0).all()
        assert (np.diff(C.tri_edges[n][:, 0] * V + C.tris[n][:, 2]) > 0).all()
        if n <= MAXN:
            assert C.edge_children[n].tolist() == [list(c) for c in R.edge_children[n]]
            # barycenter ids follow the edges, then the triangles
            assert R.edge_bary[n] == list(range(V, V + E))
            assert R.tri_bary[n] == list(range(V + E, V + E + T))
        if n >= 1:
            # each triangle's parent is the one whose children hold it
            parent = np.full(T, -1)
            parent[C.tri_children[n - 1]] = np.arange(len(C.tris[n - 1]))[:, None]
            assert parent.tolist() == R.tri_parent[n]
    assert C.vertex_sides.tolist() == R.vertex_sides
    assert [coord(C, v) for v in range(len(R.coords))] == R.coords
    # the stored denominator is the level's common one, 2 * 6^(n-1)
    assert C.denom == 2 * 6 ** MAXN
    tables = [C.edges, C.tris, C.tri_edges, C.edge_children, C.edge_side]
    assert not any(t[-1].flags.writeable for t in tables)


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
    """Bytes of the int64 tables of a complex built to level n: per
    level k <= n, edges (2E), tris and tri_edges (3T each) and edge_side
    (E); per level k < n, edge_children (2E), tri_children and tri_inner
    (6T each); per vertex, coords (2) and vertex_sides (1)."""
    total = 0
    for k in range(n + 1):
        v, e, t = count_oracle(k)
        total += 8 * (3 * e + 6 * t)
        if k < n:
            total += 8 * (2 * e + 12 * t)
    return total + 24 * v


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
    assert table_bytes(8) == 229_805_184


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


def test_lookup_sorted_finds_or_raises():
    table = np.array([2, 5, 9])
    assert lookup_sorted(table, np.array([9, 2, 5]), "code").tolist() == [2, 0, 1]
    assert len(lookup_sorted(table, np.array([], dtype=np.int64), "code")) == 0
    # below, between and above the table, and an empty table
    for t, codes in ((table, [1]), (table, [5, 6]), (table, [10, 2]), (table[:0], [0])):
        with pytest.raises(KeyError, match="code not found"):
            lookup_sorted(t, np.array(codes), "code")


def test_int64_overflow_guard():
    # level 12 is the deepest whose triangle codes edge_id * V + c fit
    # int64; the guard refuses level 13 before building anything
    _check_int64(12)
    c = SubdivisionComplex(cap=20)
    with pytest.raises(CapacityError, match="int64"):
        c.ensure_level(13)
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
    nv = C.offsets[tgt]
    ecodes = C.edges[tgt][:, 0] * nv + C.edges[tgt][:, 1]
    tcodes = C.tri_edges[tgt][:, 0] * nv + C.tris[tgt][:, 2]
    ie = vm[C.edges[n]]
    lo, hi = ie.min(axis=1), ie.max(axis=1)
    eimg = lookup_sorted(ecodes, lo * nv + hi, "edge image")
    it = np.sort(vm[C.tris[n]], axis=1)
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
        assert np.array_equal(ts.ravel(), np.arange(len(C.tris[m])))
        for n in range(4 - m):
            es, ts = C.embed(m, n)
            assert ts.shape == (len(C.tris[m]), len(C.tris[n]))
            assert es.shape == (len(C.tris[m]), len(C.edges[n]))
            # every fine triangle lies in one coarse triangle, and every
            # fine edge in one, or on the side shared by two
            assert (np.bincount(ts.ravel(), minlength=len(C.tris[m + n])) == 1).all()
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
        lambda: c.side_edges_at(-1, 0),
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

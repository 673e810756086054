"""Combinatorics and geometry of the subdivision complex.

Count oracles come from the subdivision recurrences written out
independently here: each step maps (V, E, F) to (V + E + F, 2E + 6F,
6F), starting from (3, 3, 1).
"""

from fractions import Fraction

import numpy as np
import pytest

from hexacarpet import (
    CapacityError,
    MissingLevelError,
    SimplexId,
    SubdivisionComplex,
)
from hexacarpet.subdivision import (
    CENTER,
    _F_P1,
    _F_P2,
    _base_perm,
    dihedral_compose,
    dihedral_elements,
    dihedral_inverse,
    side_perm,
)

MAXN = 4


@pytest.fixture(scope="module")
def C():
    c = SubdivisionComplex()
    c.ensure_level(MAXN + 1)
    return c


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
        x, y = C.coords[v]
        assert x * x + 3 * y * y == 1
    assert C.coords[6] == (0, 0)


def test_barycenters_average_parents(C):
    for vid, birth in enumerate(C.births):
        if birth[0] == "p" or birth[1] == 0:
            continue  # level-0 barycenters are pinned to the hexagon
        kind, lvl, idx = birth
        if kind == "e":
            u, v = C.edges[lvl][idx]
            cx = (C.coords[u][0] + C.coords[v][0]) / 2
            cy = (C.coords[u][1] + C.coords[v][1]) / 2
        else:
            a, b, c = C.tris[lvl][idx]
            cx = (C.coords[a][0] + C.coords[b][0] + C.coords[c][0]) / 3
            cy = (C.coords[a][1] + C.coords[b][1] + C.coords[c][1]) / 3
        assert C.coords[vid] == (cx, cy)


def test_side_counts(C):
    for n in range(1, MAXN + 1):
        for s in range(6):
            assert len(C.side_edges_at(n, s)) == 2 ** (n - 1)
            assert len(C.side_vertices(n, s)) == 2 ** (n - 1) + 1


def test_corner_vertices_sit_on_two_sides(C):
    for n in range(1, MAXN + 1):
        masks = [C.vertex_sides[v] for v in C.vertices_at(n)]
        corners = [m for m in masks if bin(m).count("1") == 2]
        assert len(corners) == 6
    assert C.vertex_sides[6] == 0


def test_boundary_edges_have_one_triangle(C):
    for n in range(1, MAXN + 1):
        for e, ts in enumerate(C.edge_tris[n]):
            assert len(ts) == (1 if C.edge_side[n][e] >= 0 else 2)


def test_edge_triangle_handshake(C):
    for n in range(MAXN + 1):
        total = sum(len(ts) for ts in C.edge_tris[n])
        assert total == 3 * len(C.tris[n])


def test_edge_children_partition(C):
    for n in range(MAXN):
        seen = set()
        for e, kids in enumerate(C.edge_children[n]):
            assert len(kids) == 2
            seen.update(kids)
        assert len(seen) == 2 * len(C.edges[n])
        # the remaining level-(n+1) edges were born from triangles
        for e2 in range(len(C.edges[n + 1])):
            kind, idx = C.edge_parent[n + 1][e2]
            assert (e2 in seen) == (kind == "e")


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
        arr = C.vertex_map(("auto", elem), nv)
        for vid in sample:
            q = C.coords[vid]
            if t == "s":
                q = (q[0], -q[1])
            for _ in range(k):
                q = rot60(q)
            assert C.coords[arr[vid]] == q


def test_side_perm_matches_edge_action(C):
    n = 3
    for elem in dihedral_elements():
        sp = side_perm(elem)
        for e in range(len(C.edges[n])):
            s = C.edge_side[n][e]
            img = C.map_edge(("auto", elem), n, e)
            expect = -1 if s < 0 else sp[s]
            assert C.edge_side[n][img] == expect


def test_symmetries_are_edge_bijections(C):
    n = 3
    for elem in dihedral_elements():
        imgs = {C.map_edge(("auto", elem), n, e) for e in range(len(C.edges[n]))}
        assert len(imgs) == len(C.edges[n])


def test_cell_maps_partition_triangles(C):
    for n in range(MAXN):
        imgs = []
        for c in range(6):
            imgs.extend(
                C.map_tri(("F", c), n, t) for t in range(len(C.tris[n]))
            )
        assert sorted(imgs) == list(range(6 * len(C.tris[n])))


def test_cell_map_lands_in_its_slice(C):
    for n in range(1, MAXN):
        sl = C.tri_slice(n + 1)
        for c in range(6):
            for t in range(0, len(C.tris[n]), 7):
                assert sl[C.map_tri(("F", c), n, t)] == c


def test_cell_maps_commute_with_refinement(C):
    for n in range(1, 3):
        for c in range(6):
            for e in range(len(C.edges[n])):
                ie = C.map_edge(("F", c), n, e)
                kids = {
                    C.map_edge(("F", c), n + 1, k)
                    for k in C.edge_children[n][e]
                }
                assert kids == set(C.edge_children[n + 1][ie])


def reference_vertex_map(C, key, upto):
    """Vertex images extended one barycenter at a time, in birth order,
    by looking up each mapped parent simplex in the level dicts."""
    if key[0] == "F":
        arr, shift = [CENTER, _F_P1[key[1]], _F_P2[key[1]]], 1
    else:
        arr, shift = list(_base_perm(key[1])), 0
    for vid in range(len(arr), upto):
        kind, lvl, idx = C.births[vid]
        tgt = lvl + shift
        if kind == "e":
            u, v = C.edges[lvl][idx]
            ie = C.edge_index[tgt][tuple(sorted((arr[u], arr[v])))]
            arr.append(C.edge_bary[tgt][ie])
        else:
            im = tuple(sorted(arr[q] for q in C.tris[lvl][idx]))
            arr.append(C.tri_bary[tgt][C.tri_index[tgt][im]])
    return arr


def test_image_arrays_match_per_simplex_maps(C):
    keys = [("F", c) for c in range(6)] + [("auto", g) for g in dihedral_elements()]
    for key in keys:
        shift = 1 if key[0] == "F" else 0
        for n in range(1 - shift, MAXN + 1 - shift):
            nv = C.counts(n)[0]
            arr = reference_vertex_map(C, key, nv)
            assert C.vertex_map(key, nv).tolist() == arr[:nv]
            tgt = n + shift
            edges = [
                C.edge_index[tgt][tuple(sorted((arr[u], arr[v])))]
                for u, v in C.edges[n]
            ]
            tris = [
                C.tri_index[tgt][tuple(sorted(arr[q] for q in t))]
                for t in C.tris[n]
            ]
            assert C.edge_images(key, n).tolist() == edges
            assert C.tri_images(key, n).tolist() == tris


def test_words_address_triangles(C):
    for m in (1, 2, 3):
        words = C.tri_words(m)
        assert words.shape == (6 ** m, m)
        assert len(np.unique(words, axis=0)) == 6 ** m
        sl = C.tri_slice(m)
        base = SimplexId(0, 2, 0)
        for i in range(0, 6 ** m, 11):
            assert words[i][0] == sl[i]
            assert C.apply_word(words[i], base).index == i


def test_apply_word_on_vertices(C):
    # the level-0 corner p0 maps to the center under every cell map
    for c in range(6):
        img = C.apply_word((c,), SimplexId(0, 0, 0))
        assert img.index == 6


def test_capacity_and_missing_level():
    c = SubdivisionComplex(cap=2)
    with pytest.raises(CapacityError):
        c.ensure_level(3)
    with pytest.raises(MissingLevelError):
        c.require_level(1)
    c.ensure_level(1)
    with pytest.raises(MissingLevelError):
        c.map_edge(("F", 0), 1, 0)


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

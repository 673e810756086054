"""Iterated barycentric subdivision of a triangle.

Levels are indexed by the number of subdivisions: level 0 is a single
triangle, level n has 6^n triangles.  Every simplex gets a canonical
integer id per (level, dimension); ids are assigned after sorting the
simplex lists, so two runs (or two processes) always agree.

Vertices live in one global table shared by all levels, since sub-
division only ever adds points.  Coordinates are exact rationals in the
hexagonal embedding of the level-1 complex: the seven level-1 vertices
form a regular hexagon plus its center, and every later vertex is the
average of its parents.  The y coordinate is stored in units of
sqrt(3), which keeps everything in Q^2.

The module also carries the combinatorial maps used downstream: the six
cell maps F_0..F_5 embedding level n into level n+1 (one per level-1
triangle around the center), and the dihedral symmetry group of the
hexagon acting on every level at once.  Each map is held as int64 image
arrays, built one level at a time on first use: the vertex images, and
per level the image ids of every edge and triangle, found by binary
search of the sorted image vertices in the target level's simplex table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_CAP = 8

# level-0 vertices
P0, P1, P2 = 0, 1, 2
# level-1 barycenters, in construction order: the three level-0 edges
# (0,1), (0,2), (1,2) come first, then the face center
B01, B02, B12, CENTER = 3, 4, 5, 6

# Hexagon embedding of the level-1 skeleton.  Corners sit at angles
# 60*k degrees in the order p0, b01, p1, b12, p2, b02; radius 1.
# Coordinates are (x, y/sqrt(3)) pairs.
_HEX = {
    P0: (Fraction(1), Fraction(0)),
    B01: (Fraction(1, 2), Fraction(1, 2)),
    P1: (Fraction(-1, 2), Fraction(1, 2)),
    B12: (Fraction(-1), Fraction(0)),
    P2: (Fraction(-1, 2), Fraction(-1, 2)),
    B02: (Fraction(1, 2), Fraction(-1, 2)),
    CENTER: (Fraction(0), Fraction(0)),
}

# The six boundary sides of the hexagon, as level-1 edges (sorted vertex
# pairs).  Side k runs counterclockwise from the corner at angle 60*k.
_SIDE_EDGES = {
    (P0, B01): 0,
    (P1, B01): 1,
    (P1, B12): 2,
    (P2, B12): 3,
    (P2, B02): 4,
    (P0, B02): 5,
}

# Sides incident to each hexagon corner, as bitmasks.
_SIDE_OF_VERTEX = {
    P0: (1 << 0) | (1 << 5),
    B01: (1 << 0) | (1 << 1),
    P1: (1 << 1) | (1 << 2),
    B12: (1 << 2) | (1 << 3),
    P2: (1 << 3) | (1 << 4),
    B02: (1 << 4) | (1 << 5),
    CENTER: 0,
}

# Cell maps F_i: the i-th level-1 triangle is [center, corner(i), corner(i+1)]
# going counterclockwise from p0.  On the level-0 vertices: p0 -> center,
# p1 -> first corner, p2 -> second corner of cell i.
_F_P1 = (P0, P1, P1, P2, P2, P0)
_F_P2 = (B01, B01, B12, B12, B02, B02)

# Dihedral group of the hexagon on the seven level-1 vertex ids.
# rot60 rotates by +60 degrees, refl_h reflects across the x axis.
_ROT60 = (B01, B12, B02, P1, P0, P2, CENTER)
_REFL_H = (P0, P2, P1, B02, B01, B12, CENTER)


class CapacityError(Exception):
    """Requested level exceeds the configured cap."""


class MissingLevelError(Exception):
    """Requested level has not been built yet."""


@dataclass(frozen=True)
class SimplexId:
    """A simplex addressed by (level, dimension, index)."""

    level: int
    dim: int
    index: int


def dihedral_elements():
    """All 12 symmetries as ('r', k) rotations and ('s', k) reflections.

    ('r', k) rotates by 60k degrees; ('s', k) reflects across the axis
    at angle 30k degrees.
    """
    return [("r", k) for k in range(6)] + [("s", k) for k in range(6)]


def dihedral_compose(a, b):
    """Composition a after b in the dihedral group of the hexagon."""
    ta, ka = a
    tb, kb = b
    if ta == "r" and tb == "r":
        return ("r", (ka + kb) % 6)
    if ta == "r" and tb == "s":
        return ("s", (ka + kb) % 6)
    if ta == "s" and tb == "r":
        return ("s", (ka - kb) % 6)
    return ("r", (ka - kb) % 6)


def dihedral_inverse(a):
    t, k = a
    if t == "r":
        return ("r", (-k) % 6)
    return a


def _base_perm(elem):
    """The permutation of the seven level-1 vertex ids for a group element."""
    t, k = elem
    perm = list(range(7))
    for _ in range(k):
        perm = [_ROT60[p] for p in perm]
    if t == "s":
        # s_k = r_k . s_0: reflect first, then rotate
        perm = list(range(7))
        for _ in range(k):
            perm = [_ROT60[p] for p in perm]
        perm = [perm[_REFL_H[i]] for i in range(7)]
    return perm


def lookup_sorted(table, codes, what):
    """Positions of codes in the sorted int64 array table; every code
    must be present."""
    pos = np.searchsorted(table, codes)
    found = pos < len(table)
    found[found] = table[pos[found]] == codes[found]
    if not found.all():
        raise KeyError(f"{what} not found")
    return pos


def side_perm(elem):
    """How a dihedral element permutes the six boundary sides."""
    perm = _base_perm(elem)
    out = [None] * 6
    for (u, v), s in _SIDE_EDGES.items():
        iu, iv = perm[u], perm[v]
        out[s] = _SIDE_EDGES[(min(iu, iv), max(iu, iv))]
    return out


class SubdivisionComplex:
    """All levels 0..top of the subdivided triangle, built incrementally.

    Per-level data (lists indexed by level):
      edges[n]      sorted vertex pairs, position = edge id
      tris[n]       sorted vertex triples, position = triangle id
      tri_edges[n]  the three side edge-ids of each triangle
      edge_tris[n]  triangle ids incident to each edge (1 or 2)
      edge_bary[n]  vertex id of the barycenter of each level-n edge
      tri_bary[n]   vertex id of the barycenter of each level-n triangle
      edge_children[n]  the two level-(n+1) half edges of each edge
      edge_side[n]  boundary side 0..5 of each edge, or -1 (level >= 1)
      edge_parent[n], tri_parent[n]  provenance in level n-1

    Global vertex data:
      coords        exact (x, y/sqrt(3)) Fractions
      births        ('p',) for the corners, else ('e'|'t', level, index)
      vertex_sides  bitmask of incident boundary sides

    Maps, keyed ('F', i) or ('auto', elem), are read-only int64 arrays
    built on first use: vertex_map, edge_images and tri_images.
    """

    def __init__(self, cap=DEFAULT_CAP):
        self.cap = cap
        self.top = 0

        self.edges = [[(P0, P1), (P0, P2), (P1, P2)]]
        self.tris = [[(P0, P1, P2)]]
        self.edge_index = [{e: i for i, e in enumerate(self.edges[0])}]
        self.tri_index = [{t: i for i, t in enumerate(self.tris[0])}]
        self.tri_edges = [[(0, 1, 2)]]
        self.edge_tris = [[(0,), (0,), (0,)]]
        self.edge_bary = []
        self.tri_bary = []
        self.edge_children = []
        self.edge_side = [[-1, -1, -1]]
        self.edge_parent = [[None, None, None]]
        self.tri_parent = [[None]]
        self._tri_slice = [[None]]

        self.coords = [_HEX[P0], _HEX[P1], _HEX[P2]]
        self.births = [("p",), ("p",), ("p",)]
        self.vertex_sides = [0, 0, 0]

        # map images, built a level at a time on first use
        self._tables = {}  # level -> simplex arrays and sorted lookup codes
        self._vmaps = {}  # map key -> vertex images of ids < len
        self._images = {}  # (map key, level) -> (edge images, tri images)
        self._words = {}

    # -- construction ---------------------------------------------------

    def ensure_level(self, n):
        if n > self.cap:
            raise CapacityError(
                f"level {n} exceeds cap {self.cap}; raise the cap to proceed"
            )
        while self.top < n:
            self._subdivide()

    def require_level(self, n):
        if n > self.top:
            raise MissingLevelError(f"level {n} not built (top is {self.top})")

    def _subdivide(self):
        n = self.top
        edges, tris = self.edges[n], self.tris[n]

        ebary = []
        for i, (u, v) in enumerate(edges):
            vid = len(self.coords)
            ebary.append(vid)
            cu, cv = self.coords[u], self.coords[v]
            self.coords.append(((cu[0] + cv[0]) / 2, (cu[1] + cv[1]) / 2))
            self.births.append(("e", n, i))
            self.vertex_sides.append(0)
        tbary = []
        for i, (u, v, w) in enumerate(tris):
            vid = len(self.coords)
            tbary.append(vid)
            cu, cv, cw = self.coords[u], self.coords[v], self.coords[w]
            self.coords.append(
                ((cu[0] + cv[0] + cw[0]) / 3, (cu[1] + cv[1] + cw[1]) / 3)
            )
            self.births.append(("t", n, i))
            self.vertex_sides.append(0)

        if n == 0:
            # the averages above are placeholders; the level-1 skeleton is
            # pinned to the hexagon (the center average happens to agree)
            for vid in (B01, B02, B12, CENTER):
                self.coords[vid] = _HEX[vid]

        new_edges = {}

        def add_edge(u, v, parent):
            key = (u, v) if u < v else (v, u)
            if key not in new_edges:
                new_edges[key] = parent
            return key

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
                        tri = tuple(sorted((q, ebary[e], tbary[i])))
                        new_tris[tri] = i
        tri_list = sorted(new_tris)
        tri_idx = {t: j for j, t in enumerate(tri_list)}

        tri_edge_ids = []
        edge_tri_lists = [[] for _ in edge_list]
        for j, (a, b, c) in enumerate(tri_list):
            sides = (edge_idx[(a, b)], edge_idx[(a, c)], edge_idx[(b, c)])
            tri_edge_ids.append(sides)
            for e in sides:
                edge_tri_lists[e].append(j)

        children = [[None, None] for _ in edges]
        parent_tags = []
        for key in edge_list:
            kind, i = new_edges[key]
            parent_tags.append((kind, i))
            if kind == "e":
                u, v = key
                # the half containing the smaller parent endpoint comes first
                slot = 0 if min(self.edges[n][i]) in key else 1
                children[i][slot] = edge_idx[key]

        side = []
        if n == 0:
            for u, v in edge_list:
                side.append(_SIDE_EDGES.get((u, v), -1))
        else:
            for j, key in enumerate(edge_list):
                kind, i = new_edges[key]
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
        self.tri_index.append(tri_idx)
        self.tri_edges.append(tri_edge_ids)
        self.edge_tris.append([tuple(ts) for ts in edge_tri_lists])
        self.edge_bary.append(ebary)
        self.tri_bary.append(tbary)
        self.edge_children.append([tuple(c) for c in children])
        self.edge_side.append(side)
        self.edge_parent.append(parent_tags)
        self.tri_parent.append([new_tris[t] for t in tri_list])
        self._tri_slice.append(None)
        self.top += 1

    # -- counts and boundary sets ---------------------------------------

    def counts(self, n):
        self.require_level(n)
        nv = 3 if n == 0 else len(self.coords) if n == self.top else None
        if nv is None:
            nv = 3 + sum(
                len(self.edges[k]) + len(self.tris[k]) for k in range(n)
            )
        return nv, len(self.edges[n]), len(self.tris[n])

    def vertices_at(self, n):
        """Ids of the vertices present in the level-n skeleton."""
        self.require_level(n)
        count = self.counts(n)[0]
        return range(count)

    def side_vertices(self, n, side):
        """Level-n skeleton vertices on boundary side 0..5, sorted by id."""
        return [v for v in self.vertices_at(n) if self.vertex_sides[v] >> side & 1]

    def side_edges_at(self, n, side):
        self.require_level(n)
        return [i for i, s in enumerate(self.edge_side[n]) if s == side]

    # -- triangle ancestry ----------------------------------------------

    def tri_slice(self, n):
        """For each level-n triangle, its level-1 ancestor (0..5); n >= 1."""
        self.require_level(n)
        if self._tri_slice[n] is None:
            if n == 1:
                # level-1 triangle i lies in cell k iff its vertices are
                # those of cell k = [center, corner(k), corner(k+1)]
                cells = {}
                order = [P0, B01, P1, B12, P2, B02]
                for k in range(6):
                    tri = tuple(sorted((CENTER, order[k], order[(k + 1) % 6])))
                    cells[tri] = k
                self._tri_slice[1] = [cells[t] for t in self.tris[1]]
            else:
                parent_slice = self.tri_slice(n - 1)
                self._tri_slice[n] = [
                    parent_slice[p] for p in self.tri_parent[n]
                ]
        return self._tri_slice[n]

    def edge_descendants(self, n, edge_id, m):
        """Level-m edge ids refining the level-n edge (m >= n)."""
        self.require_level(m)
        ids = [edge_id]
        for k in range(n, m):
            ids = [c for e in ids for c in self.edge_children[k][e]]
        return ids

    # -- vertex maps -----------------------------------------------------

    def _table(self, n):
        """(V, edges, triangles, edge codes, triangle codes) of level n.

        An edge (u, v) is coded u*V + v and a triangle (a, b, c) as
        edge_id(a, b)*V + c, with V the level's vertex count; both follow
        the lexicographic order of the simplex lists, so they are sorted.
        """
        if n not in self._tables:
            nv = self.counts(n)[0]
            edges = np.array(self.edges[n], dtype=np.int64)
            tris = np.array(self.tris[n], dtype=np.int64)
            first = np.array([s[0] for s in self.tri_edges[n]], dtype=np.int64)
            self._tables[n] = (
                nv, edges, tris, edges[:, 0] * nv + edges[:, 1],
                first * nv + tris[:, 2],
            )
        return self._tables[n]

    def _map_images(self, key, n):
        """Edge and triangle image ids of the level-n simplices."""
        if (key, n) not in self._images:
            tgt = n + (1 if key[0] == "F" else 0)
            if tgt > self.top:
                raise MissingLevelError(
                    f"need level {tgt} built to map level {n}"
                )
            _, edges, tris, _, _ = self._table(n)
            nv, _, _, ecodes, tcodes = self._table(tgt)
            vm = self.vertex_map(key, self.counts(n)[0])
            ie = vm[edges]
            lo, hi = ie.min(axis=1), ie.max(axis=1)
            eimg = lookup_sorted(ecodes, lo * nv + hi, "edge image")
            it = np.sort(vm[tris], axis=1)
            ab = lookup_sorted(ecodes, it[:, 0] * nv + it[:, 1], "triangle image")
            timg = lookup_sorted(tcodes, ab * nv + it[:, 2], "triangle image")
            eimg.flags.writeable = False
            timg.flags.writeable = False
            self._images[(key, n)] = (eimg, timg)
        return self._images[(key, n)]

    def vertex_map(self, key, upto=None):
        """The vertex images of a map on ids < upto, as an int64 array.

        key is ('F', i) for a cell map or ('auto', elem) for a dihedral
        symmetry.  Cell maps shift barycenter levels up by one, so the
        target level must already be built.
        """
        if upto is None:
            upto = len(self.coords)
        arr = self._vmaps.get(key)
        if arr is None:
            if key[0] == "F":
                # defined a priori on the level-0 corners only
                base = [CENTER, _F_P1[key[1]], _F_P2[key[1]]]
            else:
                # the dihedral action is defined on levels >= 1; the base
                # covers all seven level-1 ids (it does not fix level 0)
                base = _base_perm(key[1])
            arr = self._vmaps[key] = np.array(base, dtype=np.int64)
        shift = 1 if key[0] == "F" else 0
        while len(arr) < upto:
            # the next ids are the level-lvl barycenters, edges first
            lvl = self.births[len(arr)][1]
            tgt = lvl + shift
            if tgt + 1 > self.top:
                raise MissingLevelError(
                    f"need level {tgt + 1} built to map a level-{lvl} barycenter"
                )
            eimg, timg = self._map_images(key, lvl)
            arr = self._vmaps[key] = np.concatenate([
                arr,
                np.asarray(self.edge_bary[tgt], dtype=np.int64)[eimg],
                np.asarray(self.tri_bary[tgt], dtype=np.int64)[timg],
            ])
        arr.flags.writeable = False
        return arr[:upto]

    def edge_images(self, key, n):
        """Image edge ids of all level-n edges (level n+1 for cell maps)."""
        return self._map_images(key, n)[0]

    def tri_images(self, key, n):
        """Image triangle ids of all level-n triangles."""
        return self._map_images(key, n)[1]

    def map_edge(self, key, n, edge_id):
        """Image edge id of a level-n edge (level n+1 for cell maps)."""
        return int(self.edge_images(key, n)[edge_id])

    def map_tri(self, key, n, tri_id):
        return int(self.tri_images(key, n)[tri_id])

    def apply_word(self, word, simplex):
        """Apply a composition of cell maps, innermost letter last.

        word = (c_1, ..., c_k) sends a level-n simplex to the level-(n+k)
        simplex F_{c_1}(F_{c_2}(...F_{c_k}(s))).
        """
        level, idx = simplex.level, simplex.index
        for c in reversed(word):
            key = ("F", int(c))
            if simplex.dim == 0:
                idx = self.vertex_map(key, idx + 1)[idx]
            elif simplex.dim == 1:
                idx = self.edge_images(key, level)[idx]
            else:
                idx = self.tri_images(key, level)[idx]
            level += 1
        return SimplexId(level, simplex.dim, int(idx))

    def apply_words(self, words, dim, n, ids):
        """apply_word over arrays of edges (dim 1) or triangles (dim 2).

        words is a (X, k) letter array and ids holds level-n simplex ids,
        shaped (X, M) or (M,); entry [x, j] of the result is the level-
        (n+k) image of ids[x, j] (or ids[j]) under word x.
        """
        images = self.edge_images if dim == 1 else self.tri_images
        out = np.asarray(ids)
        for j in range(words.shape[1] - 1, -1, -1):
            table = np.stack([images(("F", c), n) for c in range(6)])
            out = table[words[:, j, None], out]
            n += 1
        return out

    def tri_words(self, m):
        """The (6^m, m) array of cell letters addressing each level-m
        triangle.

        The word of the image of the level-0 triangle under
        F_{c_1} . ... . F_{c_m} is (c_1, ..., c_m); every level-m
        triangle arises exactly once.
        """
        self.require_level(m)
        if m not in self._words:
            cur = np.zeros((1, 0), dtype=np.int64)
            for k in range(1, m + 1):
                imgs = [self.tri_images(("F", c), k - 1) for c in range(6)]
                hits = np.bincount(np.concatenate(imgs), minlength=len(self.tris[k]))
                if (hits != 1).any():
                    raise AssertionError(
                        f"cell maps do not tile the level-{k} triangles"
                    )
                nxt = np.empty((len(self.tris[k]), k), dtype=np.int64)
                for c, j in enumerate(imgs):
                    nxt[j, 0] = c
                    nxt[j, 1:] = cur
                cur = nxt
            cur.flags.writeable = False
            self._words[m] = cur
        return self._words[m]

    # -- serialization ---------------------------------------------------

    def to_json(self, n):
        """Deterministic JSON description of level n."""
        self.require_level(n)
        nv = self.counts(n)[0]
        doc = {
            "level": n,
            "vertices": [
                [
                    self.coords[v][0].numerator,
                    self.coords[v][0].denominator,
                    self.coords[v][1].numerator,
                    self.coords[v][1].denominator,
                ]
                for v in range(nv)
            ],
            "edges": [list(e) for e in self.edges[n]],
            "triangles": [list(t) for t in self.tris[n]],
            "barycenters": {
                "edges": list(self.edge_bary[n]) if n < self.top else [],
                "triangles": list(self.tri_bary[n]) if n < self.top else [],
            },
        }
        return json.dumps(doc, separators=(",", ":"), sort_keys=False)

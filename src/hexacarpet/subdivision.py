"""Iterated barycentric subdivision of a triangle.

Levels are indexed by the number of subdivisions: level 0 is a single
triangle, level n has 6^n triangles.  Every simplex gets a canonical
integer id per (level, dimension): its position in the lexicographic
order of the sorted vertex tuples, so two runs (or two processes)
always agree.  Each level is built from the one below in whole-array
numpy passes, and every per-level table is a read-only int64 array.

Vertices live in one global table shared by all levels, since sub-
division only ever adds points: level n holds the ids below offsets[n],
and the barycenters of its edges, then of its triangles, take the next
ids in simplex order: offsets[n] + e for edge e and offsets[n] + E_n + t
for triangle t, with E_n the level's edge count.  Coordinates are exact
in the hexagonal embedding of the level-1 complex: the seven level-1
vertices form a regular hexagon plus its center, and every later vertex
is the average of its parents.  The y coordinate is stored in units of
sqrt(3), which keeps everything in Q^2, and both coordinates are int64
numerators over the common denominator 2*6^(n-1) of the top level n.

The children tables also address the refinement of any triangle
directly: embed(m, n) gives the level-(m+n) images of the level-n
simplices inside every level-m triangle, slot for slot.  Its rows at
m = 1 are the six cell maps of the self-similarity, one per level-1
triangle around the center.

The other maps used downstream are the dihedral symmetries of the
hexagon, acting on every level from 1 up and keyed by the group
element.  Each is held as the int64 image ids of every edge and
triangle, built one level at a time on first use; the vertex images
are the seven level-1 ones followed by those of each level's
barycenters, which are the edge and triangle images.  Levels 1 and 2
are looked up in their own simplex codes.  Every level above is refined
from the one below by the step embed takes, each child going to the
child of g s in the same slot.  That is exact from level 2 up: there
every triangle is (older vertex, edge barycenter, triangle barycenter)
and every edge joins two kinds of vertex, and g keeps each kind, so it
keeps the sorted vertex order.  On level 1 it does not, as r1 sends
corners to side barycenters.
"""

from __future__ import annotations

import json

import numpy as np

DEFAULT_CAP = 8

# level-0 vertices
P0, P1, P2 = 0, 1, 2
# level-1 barycenters, in construction order: the three level-0 edges
# (0,1), (0,2), (1,2) come first, then the face center
B01, B02, B12, CENTER = 3, 4, 5, 6

# Hexagon embedding of the level-1 skeleton.  Corners sit at angles
# 60*k degrees in the order p0, b01, p1, b12, p2, b02; radius 1.
# Rows are (x, y/sqrt(3)) numerators over 2, in vertex id order
# p0, p1, p2, b01, b02, b12, center.
_HEX = np.array(
    [[2, 0], [-1, 1], [-1, -1], [1, 1], [1, -1], [-2, 0], [0, 0]], dtype=np.int64
)

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
# the bitmask of side s at index s, and 0 at index -1 (no side)
SIDE_BIT = np.array([1, 2, 4, 8, 16, 32, 0], dtype=np.int64)

# Dihedral group of the hexagon on the seven level-1 vertex ids.
# rot60 rotates by +60 degrees, refl_h reflects across the x axis.
_ROT60 = (B01, B12, B02, P1, P0, P2, CENTER)
_REFL_H = (P0, P2, P1, B02, B01, B12, CENTER)

# A triangle (a, b, c) with sides (ab, ac, bc) splits into six triangles
# (q, eb, tb): q is vertex _SPLIT_Q[j], eb the barycenter of side
# _SPLIT_SIDE[j], and (q, eb) is half _SPLIT_HALF[j] of that side.
_SPLIT_Q = [0, 0, 1, 1, 2, 2]
_SPLIT_SIDE = [0, 1, 0, 2, 1, 2]
_SPLIT_HALF = [0, 0, 1, 0, 1, 1]


class CapacityError(Exception):
    """Requested level exceeds the configured cap."""


class MissingLevelError(Exception):
    """Requested level has not been built yet."""


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


def _base_perm(elem):
    """The permutation of the seven level-1 vertex ids for a group element."""
    if elem not in dihedral_elements():
        raise ValueError(f"{elem!r} is not a dihedral element ('r', k) or ('s', k), k < 6")
    t, k = elem
    perm = list(range(7))
    for _ in range(k):
        perm = [_ROT60[p] for p in perm]
    if t == "s":
        # s_k = r_k . s_0: reflect first, then rotate
        perm = [perm[_REFL_H[i]] for i in range(7)]
    return perm


def lookup_sorted(table, codes, what):
    """Positions of codes in the sorted int64 array table; every code
    must be present."""
    pos = np.searchsorted(table, codes)
    if len(pos) and (pos.max() >= len(table) or (table[pos] != codes).any()):
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


def _frozen(a):
    a = np.asarray(a, dtype=np.int64)
    a.flags.writeable = False
    return a


def _check_int64(n):
    """Refuse a level whose simplex codes (below E*V) or coordinate
    numerators (at most 2*6^(n-1)) would overflow int64."""
    v, e, f = 3, 3, 1
    for _ in range(n):
        v, e, f = v + e + f, 2 * e + 6 * f, 6 * f
    if max(e * v, 2 * 6 ** n) > np.iinfo(np.int64).max:
        raise CapacityError(f"level {n} would overflow the int64 simplex tables")


class SubdivisionComplex:
    """All levels 0..top of the subdivided triangle, built incrementally.

    Per-level data (lists indexed by level of read-only int64 arrays):
      edges[n]      (E, 2) sorted vertex pairs, row = edge id, rows ascending
      tris[n]       (T, 3) sorted vertex triples, row = triangle id,
                    rows ascending
      tri_edges[n]  (T, 3) the side edge ids (ab, ac, bc) of each triangle
      edge_children[n]  (E, 2) the two level-(n+1) half edges of each
                    edge, the one at its smaller endpoint first
      tri_children[n]   (T, 6) the level-(n+1) triangles of triangle t:
                    slot j is (tris[n][t][_SPLIT_Q[j]], barycenter of
                    side _SPLIT_SIDE[j], barycenter of t)
      tri_inner[n]  (T, 6) the level-(n+1) edges drawn inside triangle
                    t: (tris[n][t][j], barycenter of t) in slot j, then
                    (barycenter of side j, barycenter of t) in slot 3 + j
      edge_side[n]  boundary side 0..5 of each edge, or -1 (level >= 1)
      offsets[n]    vertex count of level n, the first barycenter id

    Global vertex data, indexed by vertex id:
      coords        (V, 2) numerators of (x, y/sqrt(3)) over denom
      vertex_sides  bitmask of incident boundary sides

    The triangles of an edge are not stored: they are the rows of
    tri_edges that hold it.  Each table is int64, so a complex built to
    level n holds 8 * (3 E_k + 6 T_k) bytes per level k <= n, 8 *
    (2 E_k + 12 T_k) of child tables per level k < n, and 24 bytes per
    vertex.

    The dihedral symmetries, keyed by element, are read-only int64
    arrays: edge_images and tri_images, cached on first use, and
    vertex_map, put together from them.
    """

    def __init__(self, cap=DEFAULT_CAP):
        self.cap = cap
        self.top = 0

        self.edges = [_frozen([(P0, P1), (P0, P2), (P1, P2)])]
        self.tris = [_frozen([(P0, P1, P2)])]
        self.tri_edges = [_frozen([(0, 1, 2)])]
        self.edge_children = []
        self.tri_children = []
        self.tri_inner = []
        self.edge_side = [_frozen([-1, -1, -1])]
        self.offsets = [3]

        self.coords = _frozen(_HEX[:3])
        self.denom = 2
        self.vertex_sides = _frozen([0, 0, 0])

        # symmetry images, built a level at a time on first use
        self._images = {}  # (element, level) -> (edge images, tri images)

    # -- construction ---------------------------------------------------

    def ensure_level(self, n):
        if n < 0:
            raise ValueError(f"level {n} is negative")
        if n > self.cap:
            raise CapacityError(
                f"level {n} exceeds cap {self.cap}; raise the cap to proceed"
            )
        if n > self.top:
            _check_int64(n)
        while self.top < n:
            self._subdivide()

    def require_level(self, n):
        if n < 0:
            raise ValueError(f"level {n} is negative")
        if n > self.top:
            raise MissingLevelError(f"level {n} not built (top is {self.top})")

    def _subdivide(self):
        n = self.top
        edges, tris, tri_edges = self.edges[n], self.tris[n], self.tri_edges[n]
        V, E, T = self.offsets[n], len(edges), len(tris)
        nv = V + E + T
        eb = np.arange(V, V + E)
        tb = np.arange(V + E, nv)

        # the new edges are (u, eb), (v, eb), (q, tb) and (eb, tb), each
        # once and smaller id first, so sorting the codes u*V' + v of
        # these candidates gives the edge ids
        codes = (
            np.concatenate([edges[:, 0], edges[:, 1], tris.ravel(), eb[tri_edges].ravel()]) * nv
            + np.concatenate([eb, eb, np.repeat(tb, 3), np.repeat(tb, 3)])
        )
        order = np.argsort(codes)
        codes = codes[order]
        new_edges = np.stack([codes // nv, codes % nv], axis=1)
        del codes
        eid = np.empty_like(order)
        eid[order] = np.arange(len(order))
        children = np.stack([eid[:E], eid[E:2 * E]], axis=1)
        q_tb = eid[2 * E:2 * E + 3 * T].reshape(T, 3)
        eb_tb = eid[2 * E + 3 * T:].reshape(T, 3)
        if n == 0:
            new_side = [_SIDE_EDGES.get(e, -1) for e in map(tuple, new_edges.tolist())]
        else:
            # the halves of a boundary edge stay on its side, as does
            # its barycenter; everything drawn inside a triangle is not
            old_side = self.edge_side[n]
            new_side = np.concatenate([old_side, old_side, np.full(6 * T, -1)])[order]
        del order

        side = tri_edges[:, _SPLIT_SIDE]
        first = children[side, _SPLIT_HALF]
        tcodes = (first * nv + tb[:, None]).ravel()
        torder = np.argsort(tcodes)
        tid = np.empty_like(torder)
        tid[torder] = np.arange(len(torder))
        new_tris = np.stack(
            [tris[:, _SPLIT_Q], eb[side], np.broadcast_to(tb[:, None], side.shape)],
            axis=-1,
        ).reshape(-1, 3)[torder]
        new_tri_edges = np.stack(
            [first, q_tb[:, _SPLIT_Q], eb_tb[:, _SPLIT_SIDE]], axis=-1
        ).reshape(-1, 3)[torder]
        inner = np.concatenate([q_tb, eb_tb], axis=1)
        del eid, q_tb, eb_tb, first, side

        if n == 0:
            self.coords = _frozen(_HEX)
            sides = [_SIDE_OF_VERTEX[v] for v in range(nv)]
        else:
            c = self.coords
            self.coords = _frozen(np.concatenate([
                6 * c,
                3 * (c[edges[:, 0]] + c[edges[:, 1]]),
                2 * c[tris].sum(axis=1),
            ]))
            self.denom *= 6
            sides = np.concatenate(
                [self.vertex_sides, SIDE_BIT[old_side], np.zeros(T, dtype=np.int64)]
            )
        self.vertex_sides = _frozen(sides)

        self.edges.append(_frozen(new_edges))
        self.tris.append(_frozen(new_tris))
        self.tri_edges.append(_frozen(new_tri_edges))
        self.edge_children.append(_frozen(children))
        self.tri_children.append(_frozen(tid.reshape(T, 6)))
        self.tri_inner.append(_frozen(inner))
        self.edge_side.append(_frozen(new_side))
        self.offsets.append(nv)
        self.top += 1

    # -- counts and boundary sets ---------------------------------------

    def counts(self, n):
        self.require_level(n)
        return self.offsets[n], len(self.edges[n]), len(self.tris[n])

    def side_vertices(self, n, side):
        """Level-n skeleton vertices on boundary side 0..5, ascending."""
        self.require_level(n)
        return np.nonzero(self.vertex_sides[: self.offsets[n]] >> side & 1)[0]

    def side_edges_at(self, n, sides):
        """Level-n edge ids on a boundary side, or on any of several."""
        self.require_level(n)
        return np.nonzero(np.isin(self.edge_side[n], sides))[0]

    # -- refinement ------------------------------------------------------

    def edge_descendants(self, n, edge_id, m):
        """Level-m edge ids refining the level-n edge (m >= n), in order
        along the edge from its smaller endpoint; for an array of edge
        ids, one row per edge."""
        if m < n:
            raise ValueError(f"level {m} is coarser than the edges' level {n}")
        self.require_level(n)
        self.require_level(m)
        ids = np.asarray(edge_id, dtype=np.int64)
        for k in range(n, m):
            ids = self.edge_children[k][ids]
        return ids.reshape(np.shape(edge_id) + (-1,))

    def _refine(self, es, ts, k, j):
        """The level-(j+1) images of the level-(k+1) edges and triangles,
        from the level-j images es and ts of the level-k ones, leading
        axes kept: every child goes to the child of the image in the
        same slot."""
        e = np.empty(es.shape[:-1] + (len(self.edges[k + 1]),), dtype=np.int64)
        e[..., self.edge_children[k]] = self.edge_children[j][es]
        e[..., self.tri_inner[k]] = self.tri_inner[j][ts]
        t = np.empty(ts.shape[:-1] + (len(self.tris[k + 1]),), dtype=np.int64)
        t[..., self.tri_children[k]] = self.tri_children[j][ts]
        return e, t

    def embed(self, m, n):
        """The level-(m+n) images of the level-n edges and triangles
        inside every level-m triangle, as (T_m, E_n) and (T_m, T_n) id
        arrays.

        Row x holds the images under the affine map of the level-0
        triangle onto x that keeps the vertex order.  A new vertex always
        takes a larger id than its parents, so every child of a triangle
        lists its corner, side barycenter and own barycenter in that
        order, and the map sends each child slot to the same child slot:
        the images refine a level at a time through the children tables.
        """
        if min(m, n) < 0:
            raise ValueError(f"cannot embed level {n} in level {m}")
        self.require_level(m + n)
        es, ts = self.tri_edges[m], np.arange(len(self.tris[m]))[:, None]
        for k in range(n):
            es, ts = self._refine(es, ts, k, m + k)
        return es, ts

    # -- symmetries ------------------------------------------------------

    def _map_images(self, g, n):
        """Edge and triangle image ids of the level-n simplices under g."""
        if (g, n) not in self._images:
            if n < 1:
                raise ValueError(f"the symmetry {g} is defined from level 1")
            self.require_level(n)
            if n <= 2:
                images = self._search_images(g, n)
            else:
                images = self._refine(*self._map_images(g, n - 1), n - 1, n - 1)
            self._images[(g, n)] = tuple(map(_frozen, images))
        return self._images[(g, n)]

    def _search_images(self, g, n):
        """Level-n images, by lookup of the image vertices in the level's
        simplex codes: u*V + v for an edge (u, v) and edge_id(a, b)*V + c
        for a triangle (a, b, c), with V = offsets[n].  Both run in id
        order, as the rows are sorted."""
        nv, edges, tris = self.offsets[n], self.edges[n], self.tris[n]
        ecodes = edges[:, 0] * nv + edges[:, 1]
        tcodes = self.tri_edges[n][:, 0] * nv + tris[:, 2]
        vm = self.vertex_map(g, n)
        ie = vm[edges]
        lo, hi = ie.min(axis=1), ie.max(axis=1)
        eimg = lookup_sorted(ecodes, lo * nv + hi, "edge image")
        it = np.sort(vm[tris], axis=1)
        ab = lookup_sorted(ecodes, it[:, 0] * nv + it[:, 1], "triangle image")
        timg = lookup_sorted(tcodes, ab * nv + it[:, 2], "triangle image")
        return eimg, timg

    def vertex_map(self, g, n):
        """The images of the level-n vertex ids (below offsets[n]) under
        the dihedral element g, as a read-only int64 array."""
        if n < 1:
            raise ValueError(f"the symmetry {g} is defined from level 1")
        self.require_level(n)
        # the seven level-1 ids, then each level's barycenters, edges first
        parts = [_base_perm(g)]
        for k in range(1, n):
            eimg, timg = self._map_images(g, k)
            V, E = self.offsets[k], len(self.edges[k])
            parts += [V + eimg, V + E + timg]
        return _frozen(np.concatenate(parts))

    def edge_images(self, g, n):
        """Image edge ids of all level-n edges under g."""
        return self._map_images(g, n)[0]

    def tri_images(self, g, n):
        """Image triangle ids of all level-n triangles under g."""
        return self._map_images(g, n)[1]

    # -- serialization ---------------------------------------------------

    def to_json(self, n):
        """Deterministic JSON description of level n; each coordinate is
        [x numerator, x denominator, y numerator, y denominator] in
        lowest terms."""
        self.require_level(n)
        V, E, T = self.counts(n)
        num = self.coords[:V]
        g = np.gcd(num, self.denom)
        den = self.denom // g
        vertices = np.stack([num // g, den], axis=2).reshape(-1, 4)
        # the barycenter ids follow the numbering, so they need no
        # deeper level built; the cap has no barycenters
        below = n < self.cap
        bary_e = np.arange(V, V + E) if below else []
        bary_t = np.arange(V + E, V + E + T) if below else []

        def dump(table):
            # one table at a time is held as Python lists
            return json.dumps(np.asarray(table).tolist(), separators=(",", ":"))

        return "".join([
            f'{{"level":{n},"vertices":', dump(vertices),
            ',"edges":', dump(self.edges[n]),
            ',"triangles":', dump(self.tris[n]),
            ',"barycenters":{"edges":', dump(bary_e),
            ',"triangles":', dump(bary_t), "}}",
        ])

"""Iterated barycentric subdivision of a triangle.

Levels are indexed by the number of subdivisions: level 0 is a single
triangle, level n has 6^n triangles.  Every simplex gets a canonical
integer id per (level, dimension): its position in the lexicographic
order of the sorted vertex tuples, so two runs (or two processes)
always agree.  Each level is built from the one below in whole-array
numpy passes, and every per-level table is a read-only int32 array:
ids stay below 2^31 up to level 11, and deeper levels are refused.
Only the codes that order simplices, u*V + v for a pair of ids, are
int64, each formed by pair_codes.

Vertex ids are shared by all levels, since subdivision only ever adds
points: level n holds the ids below offsets[n], and the barycenters of
its edges, then of its triangles, take the next ids in simplex order:
offsets[n] + e for edge e and offsets[n] + E_n + t for triangle t, with
E_n the level's edge count.  Only index tables are stored; the exact
coordinates of a level are derived when it is printed.

The children tables also address the refinement of any triangle
directly: embed(m, n) gives the level-(m+n) images of the level-n
simplices inside every level-m triangle, slot for slot.  Its rows at
m = 1 are the six cell maps of the self-similarity, one per level-1
triangle around the center, and CELL_SIDES names each one's hexagon
side.

The other maps used downstream are the dihedral symmetries of the
hexagon, acting on every level from 1 up and keyed by the group
element.  Each is held as the int32 image ids of every edge and
triangle, built one level at a time on first use; the vertex images
are the seven level-1 ones followed by those of each level's
barycenters, which are the edge and triangle images.  Levels 1 and 2
are looked up in their own simplex codes.  Every level above is refined
from the one below by the step embed takes, each child going to the
child of g s in the same slot.  That is exact from level 2 up: there
every triangle is (older vertex, edge barycenter, triangle barycenter)
and every edge joins two kinds of vertex, and g keeps each kind, so it
keeps the sorted vertex order.  On level 1 it does not, as r1 sends
corners to side barycenters.  The group law, dihedral_compose, is a
table read off the level-1 vertex permutations at import.  The boundary
is an index-only (side, position) table of edge ids, boundary_index; a
side's vertices are its edges' ends.

Text output, this module's to_json and the graph exports alike, goes
through one writer, format_rows: literal strings and IntRows tables of
int columns (signed), each row with fixed separators and a tail picked
from a few texts.  A table's byte layout is fixed once, from its whole
columns' extremes, and laid into one template block that holds the
separators, and the tail when there is one; each block of _TEXT_BLOCK
rows starts from a fresh copy of it and writes only its digits (from
integer arithmetic), its signs and, with several tails, each row's
tail.  Each block is decoded to a string as it fills and the strings
are joined once, so an export holds about two copies of its text at
its peak: the block strings and the joined string.
"""

from __future__ import annotations

from typing import NamedTuple

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
_HEX.flags.writeable = False

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

# The hexagon side of each level-1 triangle (q, b, center): that of its
# edge (q, b), the triangles in id order, [0, 5, 1, 2, 4, 3].
CELL_SIDES = tuple(s for _, s in sorted(_SIDE_EDGES.items()))

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


# the group law, a after b for every pair, read off the permutations of
# the level-1 vertex ids: v goes to a(b(v))
_PERMS = {g: _base_perm(g) for g in dihedral_elements()}
_NAMED = {tuple(p): g for g, p in _PERMS.items()}
_PRODUCT = {
    (a, b): _NAMED[tuple(pa[v] for v in pb)]
    for a, pa in _PERMS.items() for b, pb in _PERMS.items()
}


def dihedral_compose(a, b):
    """Composition a after b in the dihedral group of the hexagon."""
    return _PRODUCT[a, b]


def pair_codes(us, vs, n):
    """The int64 codes us*n + vs of id pairs, elementwise (broadcast):
    the order of the codes is that of the pairs when vs < n.  The
    product is taken in int64, as int32 ids times n would wrap."""
    codes = np.multiply(us, n, dtype=np.int64)
    codes += vs
    return codes


def lookup_sorted(table, codes, what):
    """The int32 positions of codes in the sorted int64 array table;
    every code must be present."""
    pos = np.searchsorted(table, codes)
    if len(pos) and (pos.max() >= len(table) or (table[pos] != codes).any()):
        raise KeyError(f"{what} not found")
    return pos.astype(np.int32)


def side_perm(elem):
    """How a dihedral element permutes the six boundary sides."""
    perm = _base_perm(elem)
    out = [None] * 6
    for (u, v), s in _SIDE_EDGES.items():
        iu, iv = perm[u], perm[v]
        out[s] = _SIDE_EDGES[(min(iu, iv), max(iu, iv))]
    return out


def _frozen(a):
    a.flags.writeable = False
    return a


def _check_index_range(n):
    """Refuse a level whose ids would overflow the int32 tables.  The
    largest ids any table or graph of a level holds are the
    hexacarpet's: T + E vertices and 3T incidences, below 2^31 up to
    level 11.  Ids in range keep the pair codes below 2^62 and the
    coordinate numerators, at most 2*6^(n-1), are far inside int64."""
    e, f = 3, 1
    for _ in range(n):
        e, f = 2 * e + 6 * f, 6 * f
    if max(f + e, 3 * f) > np.iinfo(np.int32).max:
        raise CapacityError(f"level {n} would overflow the int32 index tables")


class SubdivisionComplex:
    """All levels 0..top of the subdivided triangle, built incrementally.

    Per-level data (lists indexed by level of read-only int32 arrays):
      edges[n]      (E, 2) sorted vertex pairs, row = edge id, rows
                    ascending; column-major, so each column is contiguous
      tri_edges[n]  (T, 3) the side edge ids (ab, ac, bc) of each
                    triangle (a < b < c), row = triangle id; each row
                    ascends, since edge ids follow the sorted pairs
      edge_children[n]  (E, 2) the two level-(n+1) half edges of each
                    edge, the one at its smaller endpoint first
      tri_children[n]   (T, 6) the level-(n+1) triangles of triangle t:
                    slot j is (vertex _SPLIT_Q[j] of t, barycenter of
                    side _SPLIT_SIDE[j], barycenter of t)
      tri_inner[n]  (T, 6) the level-(n+1) edges drawn inside triangle
                    t: (vertex j of t, barycenter of t) in slot j, then
                    (barycenter of side j, barycenter of t) in slot 3 + j
      offsets[n]    vertex count of level n, the first barycenter id

    The rest is derived where it is read: tri_vertices, boundary_index
    and coordinates, and the triangles of an edge, the rows of tri_edges
    that hold it.  Each index table is int32, so a complex built to
    level n holds 4 * (2 E_k + 3 T_k) bytes per level k <= n and 4 *
    (2 E_k + 12 T_k) of child tables per level k < n.

    The dihedral symmetries, keyed by element, are read-only int32
    arrays: edge_images and tri_images, cached on first use, and
    vertex_map, put together from them.
    """

    def __init__(self, cap=DEFAULT_CAP):
        self.cap = cap
        self.top = 0

        self.edges = [
            _frozen(np.asfortranarray([(P0, P1), (P0, P2), (P1, P2)], dtype=np.int32))
        ]
        self.tri_edges = [_frozen(np.array([(0, 1, 2)], dtype=np.int32))]
        self.edge_children = []
        self.tri_children = []
        self.tri_inner = []
        self.offsets = [3]

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
            _check_index_range(n)
        while self.top < n:
            self._subdivide()

    def require_level(self, n):
        if n < 0:
            raise ValueError(f"level {n} is negative")
        if n > self.top:
            raise MissingLevelError(f"level {n} not built (top is {self.top})")

    def _subdivide(self):
        n = self.top
        edges, tri_edges = self.edges[n], self.tri_edges[n]
        tris = self.tri_vertices(n)
        V, E, T = self.offsets[n], len(edges), len(tris)
        nv = V + E + T
        eb = np.arange(V, V + E, dtype=np.int32)
        tb = np.arange(V + E, nv, dtype=np.int32)

        # the new edges are (u, eb), (v, eb), (q, tb) and (eb, tb), each
        # once and smaller id first, so sorting the int64 codes u*V' + v
        # of these candidates gives the edge ids; the smaller ends are
        # scaled and the larger added in place
        codes = np.concatenate(
            [edges[:, 0], edges[:, 1], tris.ravel(), eb[tri_edges].ravel()], dtype=np.int64
        )
        codes *= nv
        ends = codes[:2 * E].reshape(2, E)
        ends += eb
        ends = codes[2 * E:].reshape(2, T, 3)
        ends += tb[:, None]
        del ends
        order = np.argsort(codes)
        codes = codes[order]
        # column-major, so that each end's column is contiguous
        new_edges = np.empty((2, len(codes)), dtype=np.int32)
        np.divmod(codes, nv, out=tuple(new_edges))
        new_edges = new_edges.T
        del codes
        eid = np.empty(len(order), dtype=np.int32)
        eid[order] = np.arange(len(order), dtype=np.int32)
        del order
        children = np.stack([eid[:E], eid[E:2 * E]], axis=1)
        q_tb = eid[2 * E:2 * E + 3 * T].reshape(T, 3)
        eb_tb = eid[2 * E + 3 * T:].reshape(T, 3)

        side = tri_edges[:, _SPLIT_SIDE]
        first = children[side, _SPLIT_HALF]
        tcodes = pair_codes(first, tb[:, None], nv).ravel()
        torder = np.argsort(tcodes)
        del tcodes
        tid = np.empty(len(torder), dtype=np.int32)
        tid[torder] = np.arange(len(torder), dtype=np.int32)
        new_tri_edges = np.stack(
            [first, q_tb[:, _SPLIT_Q], eb_tb[:, _SPLIT_SIDE]], axis=-1
        ).reshape(-1, 3)[torder]
        inner = np.concatenate([q_tb, eb_tb], axis=1)
        del eid, q_tb, eb_tb, first, side

        self.edges.append(_frozen(new_edges))
        self.tri_edges.append(_frozen(new_tri_edges))
        self.edge_children.append(_frozen(children))
        self.tri_children.append(_frozen(tid.reshape(T, 6)))
        self.tri_inner.append(_frozen(inner))
        self.offsets.append(nv)
        self.top += 1

    # -- counts, triangle vertices and boundary sides --------------------

    def counts(self, n):
        self.require_level(n)
        return self.offsets[n], len(self.edges[n]), len(self.tri_edges[n])

    def tri_vertices(self, n):
        """Level-n sorted vertex triples (T, 3), row = triangle id: the
        ends of side ab, then the far end of ac; column-major."""
        self.require_level(n)
        edges, sides = self.edges[n], self.tri_edges[n]
        out = np.empty((3, len(sides)), dtype=np.int32)
        np.take(edges[:, 0], sides[:, 0], out=out[0])
        np.take(edges[:, 1], sides[:, 0], out=out[1])
        np.take(edges[:, 1], sides[:, 1], out=out[2])
        return out.T

    def boundary_index(self, n):
        """The level-n boundary edge ids as a (6, 2^(n-1)) int32 table:
        row s holds side s, in order along it from its level-0 corner,
        the smaller end of the level-1 side edge (level >= 1)."""
        self.require_level(n)
        if n < 1:
            raise ValueError("the boundary sides are defined from level 1")
        # a level-1 triangle's first side is its boundary edge
        return self.edge_descendants(1, self.tri_edges[1][np.argsort(CELL_SIDES), 0], n)

    def side_vertices(self, n, side):
        """Level-n vertices on boundary side 0..5, ascending: its edges' ends."""
        self.require_level(n)
        if side not in range(6):
            raise ValueError(f"{side!r} is not a boundary side 0..5")
        return np.unique(self.edges[n][self.boundary_index(n)[side]])

    # -- refinement ------------------------------------------------------

    def edge_descendants(self, n, edge_id, m):
        """Level-m edge ids refining the level-n edge (m >= n), in order
        along the edge from its smaller endpoint; for an array of edge
        ids, one row per edge."""
        if m < n:
            raise ValueError(f"level {m} is coarser than the edges' level {n}")
        self.require_level(n)
        self.require_level(m)
        ids = np.asarray(edge_id)[..., None]
        for k in range(n, m):
            kids = self.edge_children[k][ids]
            # every half lists its own halves from its older end, which
            # along the edge comes first for the first half of a pair
            # and last for the second
            kids[..., 1::2, :] = kids[..., 1::2, ::-1]
            ids = kids.reshape(kids.shape[:-2] + (-1,))
        return ids

    def _refine(self, es, ts, k, j):
        """The level-(j+1) images of the level-(k+1) edges and triangles,
        from the level-j images es and ts of the level-k ones, leading
        axes kept: every child goes to the child of the image in the
        same slot."""
        e = np.empty(es.shape[:-1] + (len(self.edges[k + 1]),), dtype=np.int32)
        e[..., self.edge_children[k]] = self.edge_children[j][es]
        e[..., self.tri_inner[k]] = self.tri_inner[j][ts]
        t = np.empty(ts.shape[:-1] + (len(self.tri_edges[k + 1]),), dtype=np.int32)
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
        es, ts = self.tri_edges[m], np.arange(len(self.tri_edges[m]), dtype=np.int32)[:, None]
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
        nv, edges, tris = self.offsets[n], self.edges[n], self.tri_vertices(n)
        ecodes = pair_codes(edges[:, 0], edges[:, 1], nv)
        tcodes = pair_codes(self.tri_edges[n][:, 0], tris[:, 2], nv)
        vm = self.vertex_map(g, n)
        ie = vm[edges]
        lo, hi = ie.min(axis=1), ie.max(axis=1)
        eimg = lookup_sorted(ecodes, pair_codes(lo, hi, nv), "edge image")
        it = np.sort(vm[tris], axis=1)
        ab = lookup_sorted(ecodes, pair_codes(it[:, 0], it[:, 1], nv), "triangle image")
        timg = lookup_sorted(tcodes, pair_codes(ab, it[:, 2], nv), "triangle image")
        return eimg, timg

    def vertex_map(self, g, n):
        """The images of the level-n vertex ids (below offsets[n]) under
        the dihedral element g, as a read-only int32 array."""
        if n < 1:
            raise ValueError(f"the symmetry {g} is defined from level 1")
        self.require_level(n)
        # the seven level-1 ids, then each level's barycenters, edges first
        parts = [np.array(_base_perm(g), dtype=np.int32)]
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

    # -- coordinates and serialization -----------------------------------

    def coordinates(self, n):
        """The level-n vertices' exact coordinates (x, y/sqrt(3)), in Q^2,
        as (V, 2) int64 numerators and their common denominator
        2*6^(n-1) (2 at level 0).  The seven level-1 vertices form a
        regular hexagon and its center, and every later vertex is the
        average of its parents."""
        self.require_level(n)
        c = _HEX if n else _HEX[:3]
        for k in range(1, n):
            c = np.concatenate([
                6 * c,
                3 * c[self.edges[k]].sum(axis=1),
                2 * c[self.tri_vertices(k)].sum(axis=1),
            ])
        return c, 2 * 6 ** max(n - 1, 0)

    def to_json(self, n):
        """Deterministic JSON description of level n; each coordinate is
        [x numerator, x denominator, y numerator, y denominator] in
        lowest terms."""
        self.require_level(n)
        V, E, T = self.counts(n)
        num, denom = self.coordinates(n)
        g = np.gcd(num, denom)
        den = denom // g
        vertices = np.stack([num // g, den], axis=2).reshape(-1, 4)
        del num, g, den
        # the barycenter ids follow the numbering, so they need no
        # deeper level built; the cap has no barycenters
        below = n < self.cap
        bary_e = np.arange(V, V + E) if below else np.arange(0)
        bary_t = np.arange(V + E, V + E + T) if below else np.arange(0)

        def pairs(table):
            # [a,b,...] per row, rows joined by commas
            seps = ("[",) + (",",) * (table.shape[1] - 1)
            return IntRows(tuple(table.T), seps, {0: "]"}, between=",")

        def ids(column):
            return IntRows((column,), ("",), {0: ""}, between=",")

        return format_rows([
            f'{{"level":{n},"vertices":[', pairs(vertices),
            '],"edges":[', pairs(self.edges[n]),
            '],"triangles":[', pairs(self.tri_vertices(n)),
            '],"barycenters":{"edges":[', ids(bary_e),
            '],"triangles":[', ids(bary_t), "]}}",
        ])


# -- text output ----------------------------------------------------------

# rows per block of format_rows: a block's scratch, some 80 bytes a row,
# stays near 1 MB, and the level-7 exports time the same from 2^13 to
# 2^16 rows a block
_TEXT_BLOCK = 1 << 14


class IntRows(NamedTuple):
    """A table of integer rows for format_rows.

    Row i reads seps[0], cols[0][i], seps[1], cols[1][i], ... and then
    its tail tails[key[i]], or the one text in tails when key is None;
    the rows are joined by between.  The columns are int arrays of one
    length, and may hold negative values.
    """

    cols: tuple
    seps: tuple
    tails: dict
    key: np.ndarray | None = None
    between: str = ""


def _ascii(text):
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


def _row_blocks(rows):
    """The rows' text, a string per block of _TEXT_BLOCK rows.

    The layout is fixed once per table, from each whole column's
    extremes: a column takes a sign slot if any value is negative and as
    many digit slots as its widest value.  One template block holds the
    bytes every row shares, between and the separators, with the tail
    too when there is one, and the keep mask of those bytes; every block
    starts from a fresh copy of it and writes only its own digits, the
    keep bits of its signs and leading digits, and with several tails
    the tail each row's key picks.  A boolean compaction drops the
    padding, so the digits of a column are right-aligned behind its
    sign.
    """
    m = len(rows.cols[0])
    if m == 0:
        return
    keys = sorted(rows.tails)
    between, seps = _ascii(rows.between), [_ascii(s) for s in rows.seps]
    texts = [_ascii(rows.tails[k]) for k in keys]
    tails = np.zeros((len(texts), max(map(len, texts))), dtype=np.uint8)
    used = np.zeros(tails.shape, dtype=bool)
    for i, t in enumerate(texts):
        tails[i, : len(t)] = t
        used[i, : len(t)] = True
    signs = [int(x.min() < 0) for x in rows.cols]
    widths = [len(str(max(int(x.max()), -int(x.min())))) for x in rows.cols]
    width = (len(between) + sum(len(s) for s in seps) + sum(signs)
             + sum(widths) + tails.shape[1])

    # the template: the shared bytes and every units digit kept
    rows_max = min(_TEXT_BLOCK, m)
    template = np.zeros((rows_max, width), dtype=np.uint8)
    kept = np.zeros((rows_max, width), dtype=bool)
    c = 0

    def put(text):
        nonlocal c
        template[:, c : c + len(text)] = text
        kept[:, c : c + len(text)] = True
        c += len(text)

    put(between)
    starts = []  # the first digit slot of each column
    for sep, sign, w in zip(seps, signs, widths):
        put(sep)
        if sign:
            template[:, c] = ord("-")
            c += 1
        starts.append(c)
        kept[:, c + w - 1] = True
        c += w
    if len(texts) == 1:
        template[:, c:] = tails[0]
        kept[:, c:] = used[0]

    for a in range(0, m, _TEXT_BLOCK):
        b = min(a + _TEXT_BLOCK, m)
        table = template[: b - a].copy()
        keep = kept[: b - a].copy()
        if a == 0:
            keep[0, : len(between)] = False
        for x, sign, s, w in zip(rows.cols, signs, starts, widths):
            x = x[a:b]
            if sign:
                np.less(x, 0, out=keep[:, s - 1])
            # int32 halves the cost of the digit arithmetic where it
            # suffices; a floor division and a multiply-add beat divmod
            v = np.empty(b - a, dtype=np.int32 if w < 10 else np.int64)
            np.abs(x, out=v, casting="unsafe")
            q, d = np.empty_like(v), np.empty_like(v)
            for j in range(s + w - 1, s - 1, -1):
                np.floor_divide(v, 10, out=q)
                np.multiply(q, -10, out=d)
                np.add(d, v, out=d)
                np.add(d, ord("0"), out=table[:, j], casting="unsafe")
                if j > s:
                    np.greater(q, 0, out=keep[:, j - 1])
                v, q = q, v
        if len(texts) > 1:
            slot = np.searchsorted(keys, rows.key[a:b])
            table[:, c:] = np.take(tails, slot, axis=0)
            keep[:, c:] = np.take(used, slot, axis=0)
        yield str(table[keep].data, "ascii")


def format_rows(parts):
    """The text of parts, a sequence of strings and IntRows tables, one
    after the other.

    Each table is written a block of _TEXT_BLOCK rows at a time, and
    each block is decoded to a string as soon as it is filled; the
    strings are joined once, so the block strings and the returned
    string are the only full-size copies of the text.  The digits come
    from integer arithmetic on the columns; the separators, and a lone
    tail, are laid out once per table (see _row_blocks).
    """
    texts = []
    for part in parts:
        if isinstance(part, str):
            texts.append(part)
        else:
            texts += _row_blocks(part)
    return "".join(texts)

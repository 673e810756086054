"""Graph family builders, surgeries and exports."""

from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from hexacarpet import SubdivisionComplex, analysis, graphs, subdivision
from hexacarpet.analysis import LevelCache, cut_report, estimate_rho
from hexacarpet.graphs import (
    FamilyError,
    WeightedGraph,
    build_cut_graph,
    build_dual,
    build_hexacarpet,
    build_short_graph,
    build_skeleton,
    cut_path_lengths,
    cut_resistance_formula,
    cut_segments,
    incidence_positions,
    quotient,
    shorted_classes,
    stabiliser,
    strand_lengths,
    to_dot,
    to_edgelist,
)
from hexacarpet.network import effective_resistance
from hexacarpet.subdivision import dihedral_elements, lookup_sorted, pair_codes
from oracle import oracle_resistance, traced_peak
from test_complex import CellMaps, edge_sides

F1 = Fraction(1)
SIGMA_A = ("s", 2)  # reflection fixing the corner between sides 0 and 1


@pytest.fixture(scope="module")
def C():
    c = SubdivisionComplex()
    c.ensure_level(4)
    return c


def fractions(G):
    """G's exact conductances as a list of Fractions."""
    return [Fraction(p, G.den) for p in G.num.tolist()]


def cut_graph(C, n):
    return build_cut_graph(C, n, build_hexacarpet(C, n))


def short_graph(C, n):
    return build_short_graph(C, n, build_hexacarpet(C, n))


def strands(C, n):
    return cut_path_lengths(C, n, cut_graph(C, n))


# -- basic families -----------------------------------------------------


def test_skeleton_conductances(C):
    for n in (1, 2, 3):
        G = build_skeleton(C, n)
        assert G.n == C.counts(n)[0]
        assert G.m == C.counts(n)[1]
        n64 = np.int64(G.n)  # the int32 ids times n in int64
        codes = C.edges[n][:, 0] * n64 + C.edges[n][:, 1]
        edge = lookup_sorted(codes, G.us * n64 + G.vs, "edge")
        side = edge_sides(C, n)
        for e, c in zip(edge, fractions(G)):
            want = Fraction(1, 2) if side[e] >= 0 else Fraction(1)
            assert c == want


def test_skeleton_terminals(C):
    for n in (1, 2, 3):
        G = build_skeleton(C, n)
        assert len(G.boundary["A"]) == 2 ** (n - 1) + 1
        assert len(G.boundary["B"]) == 2 ** (n - 1) + 1
        assert not (G.boundary["A"] & G.boundary["B"])


def test_dual_level_one_is_six_cycle(C):
    G = build_dual(C, 1)
    assert G.n == 6 and G.m == 6
    assert (G.degrees() == 2).all()
    assert all(c == 1 for c in fractions(G))


def test_dual_counts(C):
    for n in (1, 2, 3):
        G = build_dual(C, n)
        boundary_edges = 6 * 2 ** (n - 1)
        assert G.n == 6 ** n
        assert G.m == C.counts(n)[1] - boundary_edges


def test_hexacarpet_counts(C):
    for n in (1, 2, 3):
        G = build_hexacarpet(C, n)
        E = C.counts(n)[1]
        boundary_edges = 6 * 2 ** (n - 1)
        assert G.n == 6 ** n + E
        assert G.m == 2 * E - boundary_edges
        assert all(c == 2 for c in fractions(G))
        assert len(G.boundary["A"]) == 2 ** n
        assert len(G.boundary["B"]) == 2 ** n


def test_arc_hop_distance_follows_the_jacobsthal_recursion(C6):
    # the fewest hops between the hexacarpet's terminal arcs, by one
    # breadth-first search from the whole of A: 6, 16, 36, 84, 188 and
    # 420 at levels 1-6, so dist_n = 2 dist_{n-1} + 4 J_{n-1} with J the
    # Jacobsthal numbers (J_k = J_{k-1} + 2 J_{k-2}), and dist grows as
    # (2/3) n 2^n, not as a power of 2
    jacobsthal = [0, 1]
    dist = []
    for n in range(1, 7):
        G = build_hexacarpet(C6, n)
        adj = coo_matrix((np.ones(G.m), (G.us, G.vs)), shape=(G.n, G.n)).tocsr()
        hops = dijkstra(
            adj, directed=False, indices=sorted(G.boundary["A"]), unweighted=True, min_only=True
        )
        dist.append(int(hops[sorted(G.boundary["B"])].min()))
        jacobsthal.append(jacobsthal[-1] + 2 * jacobsthal[-2])
    assert dist == [6, 16, 36, 84, 188, 420]
    assert jacobsthal[1:6] == [1, 1, 3, 5, 11]
    for n in range(2, 7):
        assert dist[n - 1] == 2 * dist[n - 2] + 4 * jacobsthal[n - 1]


def test_family_builds_keep_their_tables_as_views(C):
    # the skeleton's ends are the columns of the complex's edge table;
    # the hexacarpet, its cut graph and the dual hold their one
    # numerator once
    for n in (1, 2, 3, 4):
        S = build_skeleton(C, n)
        assert np.shares_memory(S.us, C.edges[n]) and np.shares_memory(S.vs, C.edges[n])
        H = build_hexacarpet(C, n)
        for G in (H, build_cut_graph(C, n, H), build_dual(C, n)):
            assert G.num.strides == (0,) and not G.num.flags.writeable
            assert G.num.dtype == np.int64 and G.num[0] == G.num.max()


def test_index_arrays_are_int32():
    # one index dtype: the complex's tables, its symmetry images and the
    # families' edge ends, side tables and vertex and edge images are
    # int32; the coordinates, the numerators and the pair codes int64
    cache = LevelCache(cap=5)
    C = cache.C
    C.ensure_level(5)
    index = [a for t in (C.edges, C.tri_edges, C.edge_children, C.tri_children, C.tri_inner)
             for a in t]
    for n in range(1, 6):
        index += [C.tri_vertices(n), C.boundary_index(n), *C.embed(n - 1, 1), *C.embed(1, n - 1)]
        for g in dihedral_elements():
            index += [C.edge_images(g, n), C.tri_images(g, n), C.vertex_map(g, n)]
        for family in analysis.BUILDERS:
            G = cache.graph(family, n)
            index += [G.us, G.vs, G.symmetry.sides]
            index += [G.symmetry.perm(g) for g in dihedral_elements()]
            for p, _, e in stabiliser(G, G.boundary["A"], G.boundary["B"]).values():
                index += [p] if e is None else [p, e]
            assert G.num.dtype == np.int64, (family, n)
        # the skeleton's ends are the edge table's columns, uncopied
        S = cache.graph("skeleton", n)
        for ends, column in ((S.us, C.edges[n][:, 0]), (S.vs, C.edges[n][:, 1])):
            assert ends.flags.c_contiguous and ends.ctypes.data == column.ctypes.data
    assert [a.dtype for a in index] == [np.dtype(np.int32)] * len(index)
    assert C.coordinates(5)[0].dtype == np.int64
    assert pair_codes(C.edges[5][:, 0], C.edges[5][:, 1], C.offsets[5]).dtype == np.int64
    # the solves, the strand check and the short quotient index by
    # transient intp casts, so what the complex and the graphs hold
    # afterwards, their cached components included, is still int32
    for family in analysis.BUILDERS:
        cache.result(family, 5)
    cut_path_lengths(C, 5, cache.graph("cut", 5))
    held = [a for t in (C.edges, C.tri_edges, C.edge_children, C.tri_children, C.tri_inner)
            for a in t]
    held += [a for images in C._images.values() for a in images]
    for G in cache._graphs.values():
        held += [a for name, a in vars(G).items() if isinstance(a, np.ndarray) and name != "num"]
        held += [G.symmetry.sides, G.components()[1]]
        assert G.num.dtype == np.int64
    assert len(held) > len(cache._graphs) * 4
    assert {a.dtype for a in held} == {np.dtype(np.int32)}


# the bitmask of side s at index s, and 0 at index -1 (no side)
SIDE_BIT = np.array([1, 2, 4, 8, 16, 32, 0], dtype=np.int64)


def reference_bits(C, G):
    """Each vertex's bitmask of boundary sides over the whole graph, from
    every edge's side."""
    n, family = G.meta["level"], G.meta["family"]
    side = edge_sides(C, n)
    side_bit = SIDE_BIT[side]
    if family == "skeleton":
        b = np.zeros(G.n, dtype=np.int64)
        on = side >= 0
        np.bitwise_or.at(b, C.edges[n][on], side_bit[on, None])
        return b
    if family == "dual":
        return np.bitwise_or.reduce(side_bit[C.tri_edges[n]], axis=1)
    carpet = np.concatenate([np.zeros(len(C.tri_edges[n]), dtype=np.int64), side_bit])
    if family != "short":
        return carpet
    vmap = np.unique(shorted_classes(C, n), return_inverse=True)[1]
    b = np.zeros(G.n, dtype=np.int64)
    np.bitwise_or.at(b, vmap, carpet)
    return b


def test_symmetry_sides_of_the_ids_asked(C):
    # the rows of the side table that meet the ids are the sides set in
    # the ids' reference bits
    rng = np.random.default_rng(9)
    builds = (build_skeleton, build_dual, build_hexacarpet, cut_graph, short_graph)
    for G in [build(C, n) for n in (1, 2, 3, 4) for build in builds]:
        want = reference_bits(C, G)
        some = rng.choice(G.n, size=min(G.n, 40), replace=False)
        for ids in (np.arange(G.n), some, np.zeros(0, dtype=np.int64)):
            met = np.isin(G.symmetry.sides, ids).any(axis=1)
            bits = int(np.bitwise_or.reduce(want[ids]))
            assert met.tolist() == [bool(bits >> s & 1) for s in range(6)], G.meta


def test_side_tables_list_each_sides_vertices():
    c = SubdivisionComplex()
    c.ensure_level(5)
    for n in range(1, 6):
        bi, F = c.boundary_index(n), len(c.tri_edges[n])
        S = build_skeleton(c, n).symmetry.sides
        assert S.dtype == np.int32 and S.shape == (6, 2 ** n)
        for s in range(6):
            assert np.array_equal(np.unique(S[s]), c.side_vertices(n, s)), (n, s)
        H = build_hexacarpet(c, n)
        assert np.array_equal(H.symmetry.sides, F + bi)
        assert build_cut_graph(c, n, H).symmetry is H.symmetry
        # the dual's rows hold the one triangle of each boundary edge
        outer = [np.flatnonzero((c.tri_edges[n] == e).any(axis=1)) for e in bi.ravel()]
        assert all(len(t) == 1 for t in outer)
        D = build_dual(c, n).symmetry.sides
        assert D.dtype == np.int32
        assert np.array_equal(D, np.concatenate(outer).reshape(bi.shape))
        # the short graph's rows hold the classes of the hexacarpet's
        vmap = np.unique(shorted_classes(c, n), return_inverse=True)[1]
        assert np.array_equal(build_short_graph(c, n, H).symmetry.sides, vmap[F + bi])


# each family's terminal sides, A then B
TERMINAL_SIDES = {
    "skeleton": ((2,), (5,)),
    "dual": ((0, 1), (3, 4)),
    "hexacarpet": ((0, 1), (3, 4)),
    "cut": ((0, 1), (4, 5)),
    "short": ((0, 1), (3, 4)),
}


def parent_terminals(C, family, n):
    """A family's (A, B) built straight from the complex's boundary
    table, as a reference independent of the side tables: the
    skeleton's chains by side_vertices, the hexacarpet's arcs by their
    sorted edge ids, the dual's outer triangles sorted, and the short
    graph's classes of the hexacarpet's arcs, in their order."""
    bi, F = C.boundary_index(n), len(C.tri_edges[n])
    if family == "skeleton":
        return tuple(frozenset(C.side_vertices(n, s).tolist()) for (s,) in TERMINAL_SIDES[family])
    if family == "dual":
        # a triangle per edge; a boundary edge has only the one
        owner = np.empty(len(C.edges[n]), dtype=np.int64)
        owner[C.tri_edges[n].ravel()] = np.repeat(np.arange(F), 3)
        return tuple(
            frozenset(np.sort(owner[bi[list(s)]], axis=None).tolist())
            for s in TERMINAL_SIDES[family]
        )
    arcs = tuple(
        frozenset((F + np.sort(bi[list(s)], axis=None)).tolist())
        for s in TERMINAL_SIDES[family]
    )
    if family != "short":
        return arcs
    vmap = np.unique(shorted_classes(C, n), return_inverse=True)[1]
    return tuple(frozenset(vmap[np.fromiter(S, np.intp, len(S))].tolist()) for S in arcs)


def test_terminals_are_read_off_the_side_table():
    cache = LevelCache(cap=7)
    for family, sides in TERMINAL_SIDES.items():
        for n in range(1, 7 if family == "short" else 8):
            G = cache.graph(family, n)
            got = G.boundary["A"], G.boundary["B"]
            assert got == tuple(G.symmetry.vertices_on(s) for s in sides), (family, n)
            # as lists, so that the iteration order is checked too
            want = parent_terminals(cache.C, family, n)
            assert [list(S) for S in got] == [list(S) for S in want], (family, n)


def test_builders_read_the_boundary_table_once(monkeypatch):
    c = SubdivisionComplex()
    c.ensure_level(4)
    calls = []
    real = SubdivisionComplex.boundary_index

    def counting(self, n):
        calls.append(n)
        return real(self, n)

    monkeypatch.setattr(SubdivisionComplex, "boundary_index", counting)
    for build in (build_skeleton, build_dual, build_hexacarpet):
        calls.clear()
        G = build(c, 4)
        assert calls == [4], build.__name__
    calls.clear()
    cut = build_cut_graph(c, 4, G)
    assert cut_path_lengths(c, 4, cut) == strand_lengths(4).tolist()
    assert calls == []
    for sides in ((6,), (-1,)):
        with pytest.raises(ValueError, match="boundary sides"):
            G.symmetry.vertices_on(sides)


def test_family_build_memory_peaks():
    # traced peaks of the level-6 builds in 8 bytes per edge built: the
    # hexacarpet writes its sorted sides as its int32 edge ends, and the
    # dual sorts its edges once, its incidence dropped first; measured
    # 1.51 and 4.18, bounded 10% above
    c = SubdivisionComplex()
    c.ensure_level(6)
    for build, bound in ((build_hexacarpet, 1.67), (build_dual, 4.6)):
        G, peak = traced_peak(lambda: build(c, 6))
        assert peak <= bound * 8 * G.m, (build.__name__, peak / (8 * G.m))


def test_hexacarpet_reduces_to_dual(C):
    # shorting through every interior degree-2 edge vertex replaces two
    # resistance-1/2 hops with one unit resistor: exactly the dual graph
    for n in (1, 2, 3):
        H = build_hexacarpet(C, n)
        D = build_dual(C, n)
        F = len(C.tri_edges[n])
        # the triangle neighbours of each edge vertex
        at_edge = {}
        for t, v in zip(H.us.tolist(), H.vs.tolist()):
            assert t < F <= v
            at_edge.setdefault(v, []).append(t)
        reduced = set()
        for ts in at_edge.values():
            if len(ts) == 2:
                reduced.add((min(ts), max(ts)))
        dual_edges = {
            (int(u), int(v)) for u, v in zip(D.us, D.vs)
        }
        assert reduced == dual_edges
        assert all(c == 1 for c in fractions(D))


def test_families_reject_level_zero(C):
    for builder in (build_skeleton, build_dual, build_hexacarpet):
        with pytest.raises(FamilyError):
            builder(C, 0)


# -- WeightedGraph plumbing --------------------------------------------


def test_canonical_edge_order():
    G = WeightedGraph(4, [3, 0, 2], [1, 2, 1], [Fraction(1)] * 3)
    assert list(G.us) == [0, 1, 1]
    assert list(G.vs) == [2, 2, 3]


def test_parallel_edges_rejected():
    # (0, 1) twice, in either orientation
    for us, vs in (([0, 0, 1], [1, 1, 2]), ([0, 1, 1], [1, 0, 2])):
        with pytest.raises(FamilyError, match="parallel"):
            WeightedGraph(3, us, vs, [Fraction(1)] * 3)


def test_shuffled_and_canonical_edge_lists_agree():
    # a canonical list is kept as given, any other is sorted into it
    rng = np.random.default_rng(5)
    S = build_skeleton(SubdivisionComplex(), 2)
    # distinct numerators, so that each edge's is seen to follow it
    G = WeightedGraph(S.n, S.us, S.vs, 1 + np.arange(S.m), den=S.den)
    for _ in range(3):
        perm = rng.permutation(G.m)
        flip = rng.random(G.m) < 0.5
        H = WeightedGraph(
            G.n, np.where(flip, G.vs, G.us)[perm], np.where(flip, G.us, G.vs)[perm],
            G.num[perm], den=G.den,
        )
        for got, want in ((H.us, S.us), (H.vs, S.vs), (H.num, G.num)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    assert G.num.tolist() == list(range(1, G.m + 1))


def test_equal_numerators_are_kept_through_the_sort():
    # one numerator for every edge, as one zero-stride value: sorting
    # the edges leaves it as it is
    S = build_skeleton(SubdivisionComplex(), 2)
    perm = np.random.default_rng(6).permutation(S.m)
    num = np.broadcast_to(np.int64(3), S.m)
    G = WeightedGraph(S.n, S.vs[perm], S.us[perm], num, den=2)
    assert np.array_equal(G.us, S.us) and np.array_equal(G.vs, S.vs)
    assert G.num.strides == (0,) and G.num.tolist() == [3] * S.m


def test_self_loops_rejected():
    with pytest.raises(FamilyError):
        WeightedGraph(2, [1], [1], [Fraction(1)])


def test_vertex_ids_outside_the_graph_rejected():
    for us, vs in (([0, 1], [1, 5]), ([0, -1], [1, 2]), ([0], [3])):
        with pytest.raises(FamilyError, match="vertex ids"):
            WeightedGraph(3, us, vs, [Fraction(1)] * len(us))
    for A, B in (({0}, {7}), ({-1}, {2}), ({0.5}, {2})):
        with pytest.raises(FamilyError, match="vertex ids"):
            WeightedGraph(3, [0, 1], [1, 2], [Fraction(1)] * 2, {"A": A, "B": B})
    G = WeightedGraph(3, [0, 1], [1, 2], [Fraction(1)] * 2, {"A": {0}, "B": {2}})
    for A, B in (({0}, {7}), ({-1}, {2}), ({0}, {3}), ({0}, {1.5})):
        with pytest.raises(ValueError, match="vertex ids"):
            effective_resistance(G, A, B)
    assert effective_resistance(G).resistance == pytest.approx(2.0)


def test_fractional_edge_ends_rejected():
    # once truncated silently to the edges (0, 1) and (1, 2)
    with pytest.raises(FamilyError, match="edge ends must be integers"):
        WeightedGraph(3, [0.5, 1.9], [1.2, 2.0], [1, 1])
    # an empty edge list is valid on both input paths
    assert WeightedGraph(3, [], [], []).m == 0
    assert WeightedGraph(3, [], [], [], den=2).m == 0


@pytest.mark.parametrize("n", [2.5, -1, "3", 2 ** 31 + 1])
def test_vertex_count_must_be_a_nonnegative_integer(n):
    # 2.5 was once truncated to 2, -1 kept, and "3" raised numpy's
    # UFuncTypeError; ids past 2^31 - 1 would not fit the int32 ends; a
    # graph with no vertex and no edge stays valid
    edges = ([], []) if n == -1 else ([0], [1])
    with pytest.raises(FamilyError, match="vertex count must be an integer >= 0"):
        WeightedGraph(n, *edges, [1] * len(edges[0]), den=1)
    assert WeightedGraph(0, [], [], [], den=1).n == 0


def test_fractional_numerators_rejected():
    # once truncated to [0, 1], a zero-conductance edge
    with pytest.raises(FamilyError, match="numerators must be integers"):
        WeightedGraph(3, [0, 1], [1, 2], [0.5, 1.5], den=2)


def test_denominator_must_be_a_positive_integer():
    # den = 0 once gave infinite conductances
    for den in (0, -2, 2.0):
        with pytest.raises(FamilyError, match="denominator must be an integer >= 1"):
            WeightedGraph(3, [0, 1], [1, 2], [1, 1], den=den)


def test_nonpositive_conductances_rejected():
    # once a singular factor (-1) or a division by zero (0) in the solve
    for cond, den in (([-1, 2], 2), ([0, 2], 2), ([Fraction(-1, 2), F1], None), ([0, F1], None)):
        with pytest.raises(FamilyError, match="conductances must be positive"):
            WeightedGraph(3, [0, 1], [1, 2], cond, {"A": {0}, "B": {2}}, den=den)


def test_one_conductance_per_edge():
    # a short list once built a graph of one conductance and two edges
    for cond in ([2], [2, 2, 2]):
        with pytest.raises(FamilyError, match="one per edge"):
            WeightedGraph(3, [0, 1], [1, 2], cond, den=2)


def test_conductances_must_be_exact_as_floats():
    # float views divide numerator by denominator, exact below 2^53
    G = WeightedGraph(3, [0, 1], [1, 2], [Fraction(1, 3), Fraction(5, 7)])
    assert G.conductances().tolist() == [1 / 3, 5 / 7]
    assert fractions(G) == [Fraction(1, 3), Fraction(5, 7)]
    with pytest.raises(FamilyError):
        WeightedGraph(2, [0], [1], [Fraction(1, 2 ** 60)])


def drop_edges(G, positions):
    """A copy of G without the edges at the given positions."""
    keep = np.ones(G.m, dtype=bool)
    keep[np.asarray(positions, dtype=np.int64)] = False
    return WeightedGraph(
        G.n, G.us[keep], G.vs[keep], G.num[keep],
        G.boundary, G.meta, G.den, G.symmetry,
    )


def test_drop_edges():
    G = WeightedGraph(3, [0, 1, 0], [1, 2, 2], [Fraction(k) for k in (1, 2, 3)])
    pos = G.positions([0], [2])
    H = drop_edges(G, pos)
    assert H.m == 2
    assert list(zip(H.us.tolist(), H.vs.tolist())) == [(0, 1), (1, 2)]
    assert fractions(H) == [Fraction(1), Fraction(2)]


def match(G, us, vs):
    """The stabiliser's exact match on the canonical edges (us, vs),
    which must be one per edge of G, else KeyError."""
    if len(us) != G.m or len(vs) != G.m:
        raise KeyError(f"{len(us)} mapped edges for {G.m} edges")
    codes = np.asarray(us, dtype=np.int64) * G.n + np.asarray(vs, dtype=np.int64)
    return G._match_codes(codes)


def test_match_inverts_an_edge_permutation():
    # a 4-cycle with a chord
    G = WeightedGraph(4, [0, 1, 2, 0, 0], [1, 2, 3, 3, 2], [Fraction(1)] * 5)
    rng = np.random.default_rng(3)
    for _ in range(4):
        perm = rng.permutation(G.m)
        pos = match(G, G.us[perm], G.vs[perm])
        assert pos.dtype == np.int32
        assert pos.tolist() == perm.tolist()
        assert pos.tolist() == G.positions(G.us[perm], G.vs[perm]).tolist()
    empty = WeightedGraph(2, [], [], [])
    assert match(empty, [], []).tolist() == []


@pytest.mark.parametrize("us,vs", [
    ([0, 1, 2, 0, 1], [1, 2, 3, 3, 3]),  # edge (0, 2) missing for a non-edge
    ([0, 1, 2, 0, 0], [1, 2, 3, 3, 3]),  # edge (0, 3) twice, (0, 2) missing
    ([0, 1, 2, 0], [1, 2, 3, 3]),  # one edge short
    ([0, 1, 2, 0, 0, 0], [1, 2, 3, 3, 2, 2]),  # one edge over
    ([0, 1, 2, 0, 0], [1, 2, 3, 3]),  # ends of unequal counts
], ids=["non-edge", "edge-twice", "short", "over", "unequal-ends"])
def test_match_refuses_anything_but_every_edge_once(us, vs):
    G = WeightedGraph(4, [0, 1, 2, 0, 0], [1, 2, 3, 3, 2], [Fraction(1)] * 5)
    with pytest.raises(KeyError):
        match(G, np.array(us), np.array(vs))


# -- the hexacarpet's incidence layout ----------------------------------


@pytest.fixture(scope="module")
def C6():
    c = SubdivisionComplex()
    c.ensure_level(6)
    return c


def sorted_code_positions(G, us, vs):
    """Positions of the canonical edges (us, vs) in G, found by sorting
    their codes u*n + v, which must be G's own, every edge once."""
    codes = np.asarray(us, dtype=np.int64) * G.n + np.asarray(vs, dtype=np.int64)
    order = np.argsort(codes, kind="stable")
    assert np.array_equal(codes[order], G.us.astype(np.int64) * G.n + G.vs)
    pos = np.empty(len(codes), dtype=np.int64)
    pos[order] = np.arange(len(codes))
    return pos


def test_embeddings_keep_every_triangles_side_order(C6):
    for total in range(7):
        for m in range(total + 1):
            n = total - m
            es, ts = C6.embed(m, n)
            assert np.array_equal(es[:, C6.tri_edges[n]], C6.tri_edges[total][ts]), (m, n)


def test_symmetries_keep_side_order_from_level_two(C6):
    permuting = set()
    for g in dihedral_elements():
        for n in range(1, 7):
            images = C6.edge_images(g, n)[C6.tri_edges[n]]
            rows = C6.tri_edges[n][C6.tri_images(g, n)]
            # the sides of the image triangle, in some order
            assert np.array_equal(np.sort(images, axis=1), rows), (g, n)
            if not np.array_equal(images, rows):
                assert n == 1, g
                permuting.add(g)
    assert permuting == {("r", 1), ("r", 3), ("r", 5), ("s", 1), ("s", 3), ("s", 5)}


def test_incidence_positions_match_sorted_codes(C6):
    for n in range(1, 6):
        H = build_hexacarpet(C6, n)
        for g in dihedral_elements():
            p = H.symmetry.perm(g)
            got = incidence_positions(
                C6, n, C6.tri_images(g, n), C6.edge_images(g, n)[C6.tri_edges[n]]
            )
            assert got.dtype == np.int32
            assert got.shape == (H.m // 3, 3)
            assert np.array_equal(got.ravel(), sorted_code_positions(H, p[H.us], p[H.vs]))
    for total in range(2, 6):
        for m in range(1, total):
            n = total - m
            Gn, Gf = build_hexacarpet(C6, n), build_hexacarpet(C6, total)
            Fn, Ff = len(C6.tri_edges[n]), len(C6.tri_edges[total])
            es, ts = C6.embed(m, n)
            got = incidence_positions(C6, total, ts, es[:, C6.tri_edges[n]])
            assert got.dtype == np.int32
            want = sorted_code_positions(
                Gf, ts[:, Gn.us].ravel(), (Ff + es[:, Gn.vs - Fn]).ravel()
            )
            assert np.array_equal(got.ravel(), want), (m, n)


def _off_side(C, n, ts, sides):
    # the last triangle's smallest side replaced by the edge below it,
    # which ranks into the same slot, so the positions still cover all
    sides[-1, 0] -= 1
    return ts, sides


def _twice(C, n, ts, sides):
    ts[1], sides[1] = ts[0], sides[0]
    return ts, sides


def _missing(C, n, ts, sides):
    return ts[1:], sides[1:]


def _negative(C, n, ts, sides):
    # -T wraps to triangle 0, whose sides are given
    ts[0] = -len(ts)
    return ts, sides


def _past_the_end(C, n, ts, sides):
    ts[0] = len(ts)
    return ts, sides


@pytest.mark.parametrize("mutate", [_off_side, _twice, _missing, _negative, _past_the_end])
def test_incidence_positions_refuse_anything_but_every_incidence_once(C, mutate):
    n = 2
    ts, sides = np.arange(len(C.tri_edges[n])), C.tri_edges[n].copy()
    assert np.array_equal(incidence_positions(C, n, ts, sides).ravel(), np.arange(ts.size * 3))
    with pytest.raises(KeyError):
        incidence_positions(C, n, *mutate(C, n, ts, sides))


# -- cut surgery --------------------------------------------------------


def reference_cut_segments(C, N):
    """(level, edge) pairs grown one segment and one map call at a time:
    the cell maps F_c under sides 2 and 3 take each segment as it is,
    the other four its mirror image under SIGMA_A."""
    F = CellMaps(C)
    # the level-1 spokes from the center (6) to b01 (3) and b02 (4)
    segs = {(1, C.edges[1].tolist().index([b, 6])) for b in (3, 4)}
    out = set(segs)
    for _ in range(N - 1):
        prev, out = out, set(segs)
        for c in range(6):
            for lvl, e in prev:
                if c not in (2, 3):
                    e = C.edge_images(SIGMA_A, lvl)[e]
                out.add((lvl + 1, int(F.images(c, lvl)[0][e])))
    return out


def test_cut_segment_counts(C):
    for n, want in [(1, 2), (2, 14), (3, 86), (4, 518)]:
        segs = cut_segments(C, n)
        assert sum(len(ids) for ids in segs.values()) == want
        pairs = {(lvl, e) for lvl, ids in segs.items() for e in ids.tolist()}
        assert pairs == reference_cut_segments(C, n)


def stern(k):
    """Stern's diatomic sequence: s(0) = 0, s(1) = 1, s(2k) = s(k) and
    s(2k + 1) = s(k) + s(k + 1)."""
    if k < 2:
        return k
    return stern(k // 2) + (stern(k // 2 + 1) if k % 2 else 0)


def test_cut_strand_lengths(C):
    assert strands(C, 1) == [2, 4]
    assert strands(C, 2) == [4, 8, 12, 12]
    for n in (1, 2, 3):
        lengths = strands(C, n)
        assert len(lengths) == 2 ** n
        assert sum(lengths) == 6 ** n
    # strand i of level n has 2^n s(2i + 1) triangles
    deep = SubdivisionComplex()
    deep.ensure_level(6)
    for n in range(1, 7):
        a = [stern(2 * i + 1) for i in range(2 ** n)]
        assert strands(deep, n) == [2 ** n * x for x in a]
        assert sum(a) == 3 ** n


def test_strand_lengths_are_the_cut_strands():
    cache = LevelCache()
    for n in range(1, 8):
        lengths = strand_lengths(n)
        assert lengths.dtype == np.int64
        assert lengths.tolist() == [2 ** n * stern(2 * i + 1) for i in range(2 ** n)]
        assert cut_path_lengths(cache.C, n, cache.graph("cut", n)) == lengths.tolist()
    deep = strand_lengths(10)
    assert len(deep) == 2 ** 10 and deep.sum() == 6 ** 10


def test_strand_lengths_start_at_level_1():
    # the families start at level 1, and so do the strands and R_hat
    for n in (0, -1):
        with pytest.raises(FamilyError, match="start at level 1"):
            strand_lengths(n)
        with pytest.raises(FamilyError, match="start at level 1"):
            LevelCache().R_hat(n)


def test_strands_refuse_lengths_off_sterns_sequence(monkeypatch):
    monkeypatch.setattr(analysis, "strand_lengths", lambda n: strand_lengths(n)[::-1])
    with pytest.raises(FamilyError, match="not Stern's sequence"):
        cut_report(LevelCache(), 3)


def test_cut_strand_lengths_match_walk(C):
    # reference: walk each strand from its side-{0,1} end, arc order
    for n in (1, 2, 3, 4):
        G = cut_graph(C, n)
        F = len(C.tri_edges[n])
        xy = C.coordinates(n)[0]
        adj = {v: [] for v in range(G.n)}
        for u, v in zip(G.us.tolist(), G.vs.tolist()):
            adj[u].append(v)
            adj[v].append(u)
        walks = []
        for a in G.boundary["A"]:
            seen, todo = {a}, [a]
            while todo:
                for w in adj[todo.pop()]:
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
            if any(v < F for v in seen):
                u, v = C.edges[n][a - F]
                x = xy[u][0] + xy[v][0]
                walks.append((-x, sum(1 for v in seen if v < F)))
        assert cut_path_lengths(C, n, G) == [l for _, l in sorted(walks)]


def test_cut_resistance_formula(C):
    assert cut_resistance_formula(strands(C, 1)) == Fraction(4, 3)
    assert cut_resistance_formula(strands(C, 2)) == Fraction(24, 13)
    # independent: fold the strands pairwise as parallel resistors
    for n in (1, 2, 3):
        lengths = strands(C, n)
        want = reduce(lambda a, b: a * b / (a + b), map(Fraction, lengths))
        assert cut_resistance_formula(lengths) == want


def test_cut_graph_matches_formula(C):
    for n in (1, 2):
        G = cut_graph(C, n)
        r = oracle_resistance(G)
        want = cut_resistance_formula(cut_path_lengths(C, n, G))
        assert abs(r.resistance - float(want)) < 1e-10


def test_cut_graph_is_a_subgraph(C):
    n = 2
    H = build_hexacarpet(C, n)
    G = build_cut_graph(C, n, H)
    F = len(C.tri_edges[n])
    hit = {
        F + e
        for lvl, ids in cut_segments(C, n).items()
        for e in C.edge_descendants(lvl, ids, n).ravel().tolist()
    }
    removed = sum(
        1 for u, v in zip(H.us, H.vs) if u in hit or v in hit
    )
    assert G.m == H.m - removed
    assert G.n == H.n
    assert set(zip(G.us, G.vs)) <= set(zip(H.us, H.vs))


def _strand_of_triangle(G):
    """Component label of each triangle vertex of a cut graph: the
    6^n vertices of lowest id at level n."""
    adj = coo_matrix((np.ones(G.m), (G.us, G.vs)), shape=(G.n, G.n))
    _, label = connected_components(adj + adj.T, directed=False)
    return label[: 6 ** G.meta["level"]]


def _join_strands(G):
    # one edge between triangles of two different strands
    strand = _strand_of_triangle(G)
    t = int(np.nonzero(strand != strand[0])[0][0])
    return G.n, [(0, t)], []


def _drop_a_end(G):
    # the only incidence of one A-arc vertex
    a = min(G.boundary["A"])
    pos = int(np.nonzero((G.us == a) | (G.vs == a))[0][0])
    return G.n, [], [pos]


def _dangle_chain(G):
    # triangle 0 - new vertex - new pendant vertex: the stripped pendant
    # leaves a core vertex of degree 1 that is not a terminal
    return G.n + 2, [(0, G.n), (G.n, G.n + 1)], []


def _chord_in_strand(G):
    # two triangles of one strand joined directly: a cycle, so a branch
    strand = _strand_of_triangle(G)
    t = int(np.nonzero(strand == strand[0])[0][1])
    return G.n, [(0, t)], []


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_join_strands, "hits a terminal arc twice"),
        (_drop_a_end, "misses a terminal arc"),
        (_dangle_chain, "not a simple terminal path"),
        (_chord_in_strand, "has a branch"),
    ],
)
def test_cut_strand_checks_reject_broken_strands(C, mutate, message):
    G = cut_graph(C, 2)
    assert cut_path_lengths(C, 2, G) == [4, 8, 12, 12]
    n_vertices, add, drop = mutate(G)
    keep = np.ones(G.m, dtype=bool)
    keep[drop] = False
    broken = WeightedGraph(
        n_vertices,
        list(G.us[keep]) + [u for u, _ in add],
        list(G.vs[keep]) + [v for _, v in add],
        [c for c, k in zip(fractions(G), keep) if k] + [Fraction(2)] * len(add),
        G.boundary,
        G.meta,
    )
    with pytest.raises(FamilyError, match=message):
        cut_path_lengths(C, 2, broken)


# -- short surgery ------------------------------------------------------


def test_short_level_one_value(C):
    G = short_graph(C, 1)
    r = oracle_resistance(G)
    assert abs(r.resistance - 15 / 16) < 1e-12


def reference_short_graph(C, n):
    """Union-find over single edges and a Fraction dict for the quotient."""
    H = build_hexacarpet(C, n)
    F, E = len(C.tri_edges[n]), len(C.edges[n])
    cells = CellMaps(C)
    parent = list(range(F + E))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    img = {(0, e) for e in range(3)}
    for k in range(n):
        for lvl, e in img:
            desc = C.edge_descendants(lvl, e, n).tolist()
            for d in desc[1:]:
                ra, rb = sorted((find(F + desc[0]), find(F + d)))
                parent[rb] = ra
        img = {
            (lvl + 1, int(cells.images(c, lvl)[0][e]))
            for c in range(6) for lvl, e in img
        }
    reps = sorted({find(v) for v in range(F + E)})
    new_id = {r: i for i, r in enumerate(reps)}
    acc = {}
    for u, v, c in zip(H.us.tolist(), H.vs.tolist(), fractions(H)):
        a, b = sorted((new_id[find(u)], new_id[find(v)]))
        if a != b:
            acc[(a, b)] = acc.get((a, b), Fraction(0)) + c
    boundary = {
        name: frozenset(new_id[find(v)] for v in vs) for name, vs in H.boundary.items()
    }
    return [new_id[find(v)] for v in range(F + E)], sorted(acc.items()), boundary


def test_short_graph_matches_reference(C):
    for n in (1, 2, 3, 4):
        S = short_graph(C, n)
        vmap, edges, boundary = reference_short_graph(C, n)
        # the quotient numbers the classes by representative
        rep = shorted_classes(C, n)
        classes = np.unique(rep, return_inverse=True)[1]
        assert classes.tolist() == vmap
        assert list(zip(zip(S.us.tolist(), S.vs.tolist()), fractions(S))) == edges
        assert S.boundary == boundary
        assert (rep <= np.arange(len(rep))).all()
        assert (rep[rep] == rep).all()


def test_short_terminal_classes(C):
    for n in (1, 2, 3):
        G = short_graph(C, n)
        assert len(G.boundary["A"]) == 1
        assert len(G.boundary["B"]) == 2


def test_quotient_parallel_sum():
    #   0 -- 1 and 0 -- 2 with 2 and 3; fusing 1 and 2 stacks them
    G = WeightedGraph(
        3, [0, 0], [1, 2], [Fraction(2), Fraction(3)],
        {"A": {0}, "B": {1, 2}},
    )
    H = quotient(G, np.array([0, 1, 1]))
    assert H.n == 2 and H.m == 1
    assert fractions(H)[0] == Fraction(5)


def test_quotient_drops_internal_edges():
    G = WeightedGraph(3, [0, 1], [1, 2], [Fraction(1), Fraction(1)],
                      {"A": {0}, "B": {2}})
    H = quotient(G, np.array([0, 1, 1]))
    assert H.n == 2 and H.m == 1


def test_quotient_rejects_terminal_fusion():
    G = WeightedGraph(2, [0], [1], [Fraction(1)], {"A": {0}, "B": {1}})
    with pytest.raises(FamilyError):
        quotient(G, np.array([0, 0]))


# -- exports ------------------------------------------------------------


def test_exports_match_per_edge_format(C):
    for G in (build_skeleton(C, 2), short_graph(C, 3), cut_graph(C, 2)):
        want = [f"{u} {v} {c.numerator}/{c.denominator}" for u, v, c in zip(G.us, G.vs, fractions(G))]
        assert to_edgelist(G).splitlines()[len(G.boundary):] == want
        dot = to_dot(G).splitlines()
        assert [l for l in dot if " -- " in l] == [
            f'  {w.split()[0]} -- {w.split()[1]} [label="{w.split()[2]}"];' for w in want
        ]


def _reference_edgelist(G):
    # one f-string per edge, as the exports were first written
    lines = [
        f"#boundary {name}: " + " ".join(str(v) for v in sorted(G.boundary[name]))
        for name in sorted(G.boundary)
    ]
    lines += [f"{u} {v} {c.numerator}/{c.denominator}" for u, v, c in zip(G.us.tolist(), G.vs.tolist(), fractions(G))]
    return "\n".join(lines) + "\n"


def _reference_dot(G):
    # one f-string per line, as the exports were first written
    lines = ["graph G {", "  node [shape=point];"]
    lines += [f'  {v} [color="red"];' for v in sorted(G.boundary.get("A", ()))]
    lines += [f'  {v} [color="blue"];' for v in sorted(G.boundary.get("B", ()))]
    lines += [
        f'  {u} -- {v} [label="{c.numerator}/{c.denominator}"];'
        for u, v, c in zip(G.us.tolist(), G.vs.tolist(), fractions(G))
    ]
    return "\n".join(lines) + "\n}\n"


def _odd_graphs():
    return [
        WeightedGraph(3, [], [], [], {}),
        WeightedGraph(3, [], [], [], {"A": {0}, "B": {2}}),
        # ids across digit widths, unequal widths of u and v, rationals
        WeightedGraph(
            1001, [0, 9, 10, 99, 7, 999], [1, 10, 100, 1000, 8, 1000],
            [Fraction(1, 3), Fraction(7, 2), 5, Fraction(10, 7), Fraction(1, 3), 1],
            {"A": {0, 9}, "B": {1000}},
        ),
    ]


def test_exports_match_per_edge_format_on_odd_graphs():
    for G in _odd_graphs():
        assert to_edgelist(G) == _reference_edgelist(G)
        dot = to_dot(G).splitlines()
        body = [l for l in _reference_edgelist(G).splitlines() if l and l[0] != "#"]
        assert [l for l in dot if " -- " in l] == [
            f'  {w.split()[0]} -- {w.split()[1]} [label="{w.split()[2]}"];' for w in body
        ]
        assert dot[-1] == "}"


@pytest.mark.parametrize("block", [1, 2, 7])
def test_exports_are_exact_across_text_blocks(C, monkeypatch, block):
    monkeypatch.setattr(subdivision, "_TEXT_BLOCK", block)
    builds = (build_skeleton, build_dual, build_hexacarpet, cut_graph, short_graph)
    for G in [build(C, n) for n in (1, 2, 3) for build in builds] + _odd_graphs():
        assert to_edgelist(G) == _reference_edgelist(G)
        assert to_dot(G) == _reference_dot(G)


def test_exports_hold_at_most_three_copies_of_their_text():
    cache = LevelCache()
    G = cache.graph("hexacarpet", 6)
    for export in (
        lambda: to_edgelist(G), lambda: to_dot(G), lambda: cache.C.to_json(6)
    ):
        text, peak = traced_peak(export)
        assert peak <= 3 * len(text)


def test_unknown_family_is_a_family_error():
    with pytest.raises(FamilyError, match="skeleton, dual, hexacarpet, cut, short"):
        LevelCache().graph("bogus", 2)


def test_each_hexacarpet_is_built_once(monkeypatch):
    built = []
    real = graphs.build_hexacarpet

    def counting(C, n):
        built.append(n)
        return real(C, n)

    monkeypatch.setattr(graphs, "build_hexacarpet", counting)
    monkeypatch.setitem(analysis.BUILDERS, "hexacarpet", counting)
    cache = LevelCache()
    estimate_rho(cache, 4, short_max=4)
    cut_report(cache, 4)
    for family in ("cut", "short"):
        cache.graph(family, 4)
    assert sorted(built) == [1, 2, 3, 4]


def test_each_level_strands_are_checked_once(monkeypatch):
    checked = []
    real = graphs.cut_path_lengths

    def counting(C, n, G):
        checked.append(n)
        return real(C, n, G)

    monkeypatch.setattr(graphs, "cut_path_lengths", counting)
    monkeypatch.setattr(analysis, "cut_path_lengths", counting)
    cache = LevelCache()
    rep = estimate_rho(cache, 4)
    assert checked == []
    rows = cut_report(cache, 4)
    assert sorted(checked) == [1, 2, 3, 4]
    for n, hat, row in zip(rep.levels, rep.R_hat, rows):
        assert row["lengths"] == strand_lengths(n).tolist()
        assert row["R_hat"] == cache.R_hat(n) == cut_resistance_formula(row["lengths"])
        assert hat == float(row["R_hat"])


def test_rho_sweep_builds_no_cut_graph(monkeypatch):
    # R_hat is Stern's closed form: the sweep neither builds nor walks
    # a cut graph at any level
    def refuse(*args):
        raise AssertionError("the rho sweep touched the cut family")

    monkeypatch.setitem(analysis.BUILDERS, "cut", refuse)
    monkeypatch.setattr(analysis, "cut_path_lengths", refuse)
    cache = LevelCache()
    rep = estimate_rho(cache, 6)
    assert not [key for key in cache._graphs if key[0] == "cut"]
    assert rep.R_hat == [
        float(cut_resistance_formula(strand_lengths(n).tolist())) for n in rep.levels
    ]


def test_r_hat_builds_nothing_past_the_cap():
    # the sweeps still refuse a level past the cap, in ensure_level
    # (tests/test_cli.py::test_capacity_exit_code)
    cache = LevelCache(cap=2)
    assert cache.R_hat(7) == cut_resistance_formula(strand_lengths(7).tolist())
    assert cache.C.top == 0


def test_edgelist_format(C):
    G = build_hexacarpet(C, 2)
    text = to_edgelist(G)
    lines = text.strip().split("\n")
    headers = [l for l in lines if l.startswith("#boundary")]
    body = [l for l in lines if not l.startswith("#")]
    assert len(headers) == 2
    assert len(body) == G.m == 108
    u, v, c = body[0].split()
    num, den = c.split("/")
    assert int(u) < int(v)
    assert Fraction(int(num), int(den)) == fractions(G)[0]


def test_dot_format(C):
    G = build_dual(C, 1)
    text = to_dot(G)
    assert text.startswith("graph G {")
    assert text.count(" -- ") == 6
    assert text.count('color="red"') == len(G.boundary["A"])
    assert text.count('color="blue"') == len(G.boundary["B"])

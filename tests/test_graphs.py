"""Graph family builders, surgeries and exports."""

from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from hexacarpet import SubdivisionComplex, analysis, graphs
from hexacarpet.analysis import LevelCache, cut_report, estimate_rho
from hexacarpet.graphs import (
    FamilyError,
    WeightedGraph,
    build_cut_graph,
    build_dual,
    build_hexacarpet,
    build_short_graph,
    build_skeleton,
    cut_edge_vertices,
    cut_path_lengths,
    cut_resistance_formula,
    cut_segments,
    quotient,
    shorted_classes,
    to_dot,
    to_edgelist,
)
from hexacarpet.network import effective_resistance, oracle_resistance
from hexacarpet.subdivision import lookup_sorted
from test_complex import CellMaps

SIGMA_A = ("s", 2)  # reflection fixing the corner between sides 0 and 1


@pytest.fixture(scope="module")
def C():
    c = SubdivisionComplex()
    c.ensure_level(4)
    return c


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
        codes = C.edges[n][:, 0] * G.n + C.edges[n][:, 1]
        edge = lookup_sorted(codes, G.us * G.n + G.vs, "edge")
        for e, c in zip(edge, G.cond):
            want = Fraction(1, 2) if C.edge_side[n][e] >= 0 else Fraction(1)
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
    assert all(c == 1 for c in G.cond)


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
        assert all(c == 2 for c in G.cond)
        assert len(G.boundary["A"]) == 2 ** n
        assert len(G.boundary["B"]) == 2 ** n


def test_hexacarpet_reduces_to_dual(C):
    # shorting through every interior degree-2 edge vertex replaces two
    # resistance-1/2 hops with one unit resistor: exactly the dual graph
    for n in (1, 2, 3):
        H = build_hexacarpet(C, n)
        D = build_dual(C, n)
        F = H.meta["tri_count"]
        # the triangles holding each edge among their sides
        at_edge = {}
        for t, sides in enumerate(C.tri_edges[n].tolist()):
            for e in sides:
                at_edge.setdefault(e, []).append(t)
        reduced = set()
        for ts in at_edge.values():
            if len(ts) == 2:
                reduced.add((min(ts), max(ts)))
        dual_edges = {
            (int(u), int(v)) for u, v in zip(D.us, D.vs)
        }
        assert reduced == dual_edges
        assert all(c == 1 for c in D.cond)


def test_families_reject_level_zero(C):
    for builder in (build_skeleton, build_dual, build_hexacarpet):
        with pytest.raises(FamilyError):
            builder(C, 0)


# -- WeightedGraph plumbing --------------------------------------------


def test_canonical_edge_order():
    G = WeightedGraph(4, [3, 0, 2], [1, 2, 1], [Fraction(1)] * 3)
    assert list(G.us) == [0, 1, 1]
    assert list(G.vs) == [2, 2, 3]


def test_self_loops_rejected():
    with pytest.raises(FamilyError):
        WeightedGraph(2, [1], [1], [Fraction(1)])


def test_vertex_ids_outside_the_graph_rejected():
    for us, vs in (([0, 1], [1, 5]), ([0, -1], [1, 2]), ([0], [3])):
        with pytest.raises(FamilyError, match="vertex ids"):
            WeightedGraph(3, us, vs, [Fraction(1)] * len(us))
    for A, B in (({0}, {7}), ({-1}, {2})):
        with pytest.raises(FamilyError, match="vertex ids"):
            WeightedGraph(3, [0, 1], [1, 2], [Fraction(1)] * 2, {"A": A, "B": B})
    G = WeightedGraph(3, [0, 1], [1, 2], [Fraction(1)] * 2, {"A": {0}, "B": {2}})
    for A, B in (({0}, {7}), ({-1}, {2}), ({0}, {3})):
        with pytest.raises(ValueError, match="vertex ids"):
            effective_resistance(G, A, B)
    assert effective_resistance(G).resistance == pytest.approx(2.0)


def test_conductances_must_be_exact_as_floats():
    # float views divide numerator by denominator, exact below 2^53
    G = WeightedGraph(3, [0, 1], [1, 2], [Fraction(1, 3), Fraction(5, 7)])
    assert G.conductances().tolist() == [1 / 3, 5 / 7]
    assert G.cond == [Fraction(1, 3), Fraction(5, 7)]
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
    assert H.cond == [Fraction(1), Fraction(2)]


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


def test_cut_strand_lengths(C):
    assert strands(C, 1) == [2, 4]
    assert strands(C, 2) == [4, 8, 12, 12]
    for n in (1, 2, 3):
        lengths = strands(C, n)
        assert len(lengths) == 2 ** n
        assert sum(lengths) == 6 ** n


def test_cut_strand_lengths_match_walk(C):
    # reference: walk each strand from its side-{0,1} end, arc order
    for n in (1, 2, 3, 4):
        G = cut_graph(C, n)
        F = G.meta["tri_count"]
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
                x = C.coords[u][0] + C.coords[v][0]
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
    F = H.meta["tri_count"]
    hit = {F + e for e in cut_edge_vertices(C, n)}
    removed = sum(
        1 for u, v in zip(H.us, H.vs) if u in hit or v in hit
    )
    assert G.m == H.m - removed
    assert G.n == H.n
    assert set(zip(G.us, G.vs)) <= set(zip(H.us, H.vs))


def _strand_of_triangle(G):
    """Component label of each triangle vertex of a cut graph."""
    adj = coo_matrix((np.ones(G.m), (G.us, G.vs)), shape=(G.n, G.n))
    _, label = connected_components(adj + adj.T, directed=False)
    return label[: G.meta["tri_count"]]


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
        [c for c, k in zip(G.cond, keep) if k] + [Fraction(2)] * len(add),
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
    F, E = len(C.tris[n]), len(C.edges[n])
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
    for u, v, c in zip(H.us.tolist(), H.vs.tolist(), H.cond):
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
        assert S.meta["vertex_map"].tolist() == vmap
        assert list(zip(zip(S.us.tolist(), S.vs.tolist()), S.cond)) == edges
        assert S.boundary == boundary
        rep = shorted_classes(C, n)
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
    assert H.cond[0] == Fraction(5)


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
        want = [f"{u} {v} {c.numerator}/{c.denominator}" for u, v, c in zip(G.us, G.vs, G.cond)]
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
    lines += [f"{u} {v} {c.numerator}/{c.denominator}" for u, v, c in zip(G.us.tolist(), G.vs.tolist(), G.cond)]
    return "\n".join(lines) + "\n"


def test_exports_match_per_edge_format_on_odd_graphs():
    cases = [
        WeightedGraph(3, [], [], [], {}),
        WeightedGraph(3, [], [], [], {"A": {0}, "B": {2}}),
        # ids across digit widths, unequal widths of u and v, rationals
        WeightedGraph(
            1001, [0, 9, 10, 99, 7, 999], [1, 10, 100, 1000, 8, 1000],
            [Fraction(1, 3), Fraction(7, 2), 5, Fraction(10, 7), Fraction(1, 3), 1],
            {"A": {0, 9}, "B": {1000}},
        ),
    ]
    for G in cases:
        assert to_edgelist(G) == _reference_edgelist(G)
        dot = to_dot(G).splitlines()
        body = [l for l in _reference_edgelist(G).splitlines() if l and l[0] != "#"]
        assert [l for l in dot if " -- " in l] == [
            f'  {w.split()[0]} -- {w.split()[1]} [label="{w.split()[2]}"];' for w in body
        ]
        assert dot[-1] == "}"


def test_each_hexacarpet_is_built_once(monkeypatch):
    built = []
    real = graphs.build_hexacarpet

    def counting(C, n):
        built.append(n)
        return real(C, n)

    monkeypatch.setattr(graphs, "build_hexacarpet", counting)
    monkeypatch.setattr(analysis, "build_hexacarpet", counting)
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
    rows = cut_report(cache, 4)
    assert sorted(checked) == [1, 2, 3, 4]
    for n, hat, row in zip(rep.levels, rep.R_hat, rows):
        assert row["lengths"] == cache.strands(n)
        assert row["R_hat"] == cache.R_hat(n) == cut_resistance_formula(row["lengths"])
        assert hat == float(row["R_hat"])


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
    assert Fraction(int(num), int(den)) == G.cond[0]


def test_dot_format(C):
    G = build_dual(C, 1)
    text = to_dot(G)
    assert text.startswith("graph G {")
    assert text.count(" -- ") == 6
    assert text.count('color="red"') == len(G.boundary["A"])
    assert text.count('color="blue"') == len(G.boundary["B"])

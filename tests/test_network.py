"""Solver conventions and cross-checks on small networks."""

import dataclasses
import hashlib
import json
import math
import pathlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from hexacarpet import network
from hexacarpet.analysis import LevelCache
from hexacarpet.graphs import WeightedGraph, stabiliser
from hexacarpet.subdivision import dihedral_compose
from hexacarpet.network import (
    NotAFlowError,
    ResistanceResult,
    SolverError,
    check_flow,
    circulations,
    dissipation,
    divergence,
    effective_resistance,
    gradient,
    spanning_forest,
    tree_currents,
    verify_thompson,
)
from hexacarpet.network import _active_interior, _edge_orbits, _reduced_system, _vertex_orbits
from oracle import laplacian, oracle_resistance, traced_peak

F1 = Fraction(1)


def path_graph(k, cond=None):
    cond = cond or [F1] * k
    return WeightedGraph(
        k + 1, list(range(k)), list(range(1, k + 1)), cond,
        {"A": {0}, "B": {k}},
    )


def random_graph(rng, n, extra=4):
    """Connected graph: a random spanning tree plus extra chords."""
    us, vs = [], []
    for v in range(1, n):
        us.append(int(rng.integers(0, v)))
        vs.append(v)
    added = set(zip(us, vs))
    tries = 0
    while len(us) < n - 1 + extra and tries < 50 * extra:
        tries += 1
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v and (u, v) not in added:
            added.add((u, v))
            us.append(u)
            vs.append(v)
    cond = [
        Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        for _ in us
    ]
    A = {0}
    B = {n - 1}
    return WeightedGraph(n, us, vs, cond, {"A": A, "B": B})


# -- closed forms -------------------------------------------------------


def test_series_path():
    for k in (1, 2, 5):
        r = oracle_resistance(path_graph(k))
        assert abs(r.resistance - k) < 1e-13


def test_series_with_conductances():
    cond = [Fraction(1, 2), Fraction(2), Fraction(3, 4)]
    want = sum(1 / c for c in cond)
    r = oracle_resistance(path_graph(3, cond))
    assert abs(r.resistance - float(want)) < 1e-13


def test_parallel_square():
    # two series pairs in parallel: (1+1) || (1+1) = 1
    G = WeightedGraph(
        4, [0, 1, 0, 2], [1, 3, 2, 3], [F1] * 4, {"A": {0}, "B": {3}}
    )
    assert abs(oracle_resistance(G).resistance - 1.0) < 1e-13


def test_balanced_bridge_carries_no_bridge_current():
    # the middle edge of a balanced bridge is dead
    G = WeightedGraph(
        4,
        [0, 0, 1, 2, 1],
        [1, 2, 3, 3, 2],
        [F1] * 5,
        {"A": {0}, "B": {3}},
    )
    r = oracle_resistance(G)
    assert abs(r.resistance - 1.0) < 1e-13
    pos = G.positions([1], [2])[0]
    assert abs(r.flow[pos]) < 1e-13


def test_two_terminal_sets():
    # a 6-path with two-vertex terminals: only the middle 3 edges live
    G = WeightedGraph(
        6,
        [0, 1, 2, 3, 4],
        [1, 2, 3, 4, 5],
        [F1] * 5,
        {"A": {0, 1}, "B": {4, 5}},
    )
    assert abs(oracle_resistance(G).resistance - 3.0) < 1e-13


# -- conventions --------------------------------------------------------


def test_flux_and_divergence_conventions():
    G = path_graph(3)
    r = oracle_resistance(G)
    div = divergence(G, r.flow)
    assert abs(div[list(G.boundary["A"])].sum() - 1.0) < 1e-12
    assert abs(div[list(G.boundary["B"])].sum() + 1.0) < 1e-12
    assert np.abs(div[1:3]).max() < 1e-12


def test_gradient_sign():
    G = path_graph(1)
    J = gradient(G, np.array([1.0, 0.0]))
    # positive along the canonical direction when potential drops
    assert J[0] == 1.0


def test_adjointness():
    rng = np.random.default_rng(11)
    for _ in range(20):
        G = random_graph(rng, 8)
        f = rng.normal(size=G.n)
        J = rng.normal(size=G.m)
        lhs = dissipation(G, gradient(G, f), J)
        rhs = -float(np.sum(f * divergence(G, J)))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_energy_chain():
    rng = np.random.default_rng(12)
    for _ in range(20):
        G = random_graph(rng, 10)
        r = oracle_resistance(G)
        assert abs(r.resistance * r.energy - 1.0) < 1e-12
        assert abs(dissipation(G, r.flow) - r.resistance) < 1e-12 * r.resistance


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(13)
    G = random_graph(rng, 7)
    L = laplacian(G)
    assert np.abs(np.asarray(L.sum(axis=1)).ravel()).max() < 1e-14


def test_check_flow_rejects_divergence():
    G = path_graph(3)
    bad = np.array([1.0, 0.5, 1.0])
    with pytest.raises(NotAFlowError):
        check_flow(G, bad, G.boundary["A"], G.boundary["B"])


# -- solver behavior ----------------------------------------------------


def test_direct_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(21)
    for _ in range(30):
        G = random_graph(rng, int(rng.integers(5, 40)))
        a = effective_resistance(G)
        b = oracle_resistance(G)
        assert abs(a.resistance - b.resistance) < 1e-9 * b.resistance


def test_disconnected_terminals():
    G = WeightedGraph(
        4, [0, 2], [1, 3], [F1, F1], {"A": {0}, "B": {3}}
    )
    with pytest.raises(SolverError):
        effective_resistance(G)
    assert math.isinf(oracle_resistance(G).resistance)


def test_oracle_refuses_what_the_solver_refuses():
    G = path_graph(2)
    for A, B, why in (
        ({0, 1}, {1, 2}, "overlap"),
        ({0}, {7}, "vertex ids"),
        ({-1}, {2}, "vertex ids"),
        ({0}, {1.5}, "integer vertex ids"),
        (set(), {2}, "nonempty"),
        ({0}, set(), "nonempty"),
    ):
        for solve in (effective_resistance, oracle_resistance):
            with pytest.raises(ValueError, match=why):
                solve(G, A, B)


def test_stray_component_is_pinned():
    # an A-only island must not disturb the main solve
    G = WeightedGraph(
        5, [0, 1, 3], [1, 2, 4], [F1] * 3, {"A": {0, 3}, "B": {2}}
    )
    r = effective_resistance(G)
    assert abs(r.resistance - 2.0) < 1e-10
    assert r.potential[3] == 0.0 and r.potential[4] == 0.0


FAMILIES = ("skeleton", "dual", "hexacarpet", "cut", "short")


def plain_copy(G, num=None, symmetry=None):
    """The same graph from its arrays, without the dihedral action
    unless one is given."""
    return WeightedGraph(
        G.n, G.us, G.vs, G.num if num is None else num,
        G.boundary, G.meta, G.den, symmetry,
    )


@pytest.fixture(scope="module")
def cache6():
    cache = LevelCache(cap=6)
    cache.C.ensure_level(6)
    return cache


@pytest.fixture(scope="module")
def cache7():
    return LevelCache(cap=7)


# the recorded solves: every ResistanceResult field of cache.result(f, n)
# for these families up to these levels, the arrays by SHA-256 of their
# bytes; written by running this module as a script,
# PYTHONPATH=src python tests/test_network.py
SOLVE_HASHES = pathlib.Path(__file__).parent / "golden" / "solve-sha256.json"
# the level-7 skeleton and hexacarpet are deep7's solve and the next
# level of rho, and the level-7 dual and level-6 cut and short graphs
# pin the terminals each builder reads off its side table; they need a
# cap-7 cache
SOLVE_LEVELS = {"skeleton": 7, "dual": 7, "hexacarpet": 7, "cut": 6, "short": 6}


def solve_digests(cache):
    """{"family-n": the digest of each field} over SOLVE_LEVELS."""
    out = {}
    for family, top in SOLVE_LEVELS.items():
        for n in range(1, top + 1):
            r = cache.result(family, n)
            out[f"{family}-{n}"] = {
                **{
                    name: f"{a.dtype.str} {hashlib.sha256(a.tobytes()).hexdigest()}"
                    for name, a in (("potential", r.potential), ("flow", r.flow))
                },
                **{
                    name: repr(getattr(r, name))
                    for name in (
                        "resistance", "energy", "residual", "unknowns",
                        "group_order", "factor_fill",
                    )
                },
            }
    return out


def test_solves_match_the_recorded_hashes(cache7):
    assert solve_digests(cache7) == json.loads(SOLVE_HASHES.read_text())


def test_reduced_solve_matches_full_solve(cache6):
    for family in FAMILIES:
        for n in range(1, 6):
            G = cache6.graph(family, n)
            red = effective_resistance(G)
            full = effective_resistance(plain_copy(G))
            assert full.group_order == 1 and red.group_order > 1
            assert red.unknowns < full.unknowns
            assert 0 < red.factor_fill < full.factor_fill or red.unknowns == 0
            assert red.residual < 1e-12
            rel = abs(red.resistance - full.resistance) / full.resistance
            assert rel <= 1e-12, (family, n, rel)


def test_reduced_solve_matches_oracle(cache6):
    for family in FAMILIES:
        for n in range(1, 4):
            G = cache6.graph(family, n)
            red = effective_resistance(G)
            dense = oracle_resistance(G)
            rel = abs(red.resistance - dense.resistance) / dense.resistance
            assert rel <= 1e-12, (family, n, rel)


# the elements fixing (+1) or swapping (-1) each family's terminal pair
STABILISERS = {
    "skeleton": {("s", 5): 1, ("r", 3): -1, ("s", 2): -1},
    "dual": {("s", 2): 1, ("r", 3): -1, ("s", 5): -1},
    "hexacarpet": {("s", 2): 1, ("r", 3): -1, ("s", 5): -1},
    "cut": {("s", 0): -1},
    "short": {("s", 2): 1},
}


# the candidates each family's terminal pair is given, in order
CANDIDATES = {
    "skeleton": [("r", 3), ("s", 2), ("s", 5)],
    "dual": [("r", 3), ("s", 2), ("s", 5)],
    "hexacarpet": [("r", 3), ("s", 2), ("s", 5)],
    "cut": [("s", 0)],
    "short": [("s", 2)],
}


def test_candidates_of_the_terminal_pairs(cache6):
    C = cache6.C
    for n in range(1, 7):
        for family, want in CANDIDATES.items():
            G = cache6.graph(family, n)
            assert G.symmetry.candidates(G.boundary["A"], G.boundary["B"]) == want, (family, n)
        # the hexacarpet between the cut arcs, and the skeleton's side-0
        # to side-3 pair
        H = cache6.graph("hexacarpet", n)
        arcs = H.symmetry.vertices_on((0, 1)), H.symmetry.vertices_on((4, 5))
        assert H.symmetry.candidates(*arcs) == [("s", 0)]
        S = cache6.graph("skeleton", n)
        A, B = (frozenset(C.side_vertices(n, s).tolist()) for s in (0, 3))
        assert S.symmetry.candidates(A, B) == [("r", 3), ("s", 1), ("s", 4)]


def test_stabiliser_group_orders(cache6):
    for family, want in STABILISERS.items():
        for n in range(1, 7):
            G = cache6.graph(family, n)
            group = stabiliser(G, G.boundary["A"], G.boundary["B"])
            assert len(group) == len(want) + 1, (family, n)
            assert group.pop(("r", 0))[1] == 1
            assert {g: s for g, (_, s, _) in group.items()} == want


def test_pair_codes_are_int64_at_level_seven(cache7):
    # the codes u*n + v of the int32 edge ends pass 2^31 at level 7 (the
    # skeleton's last edge has u * n = 1.97e10), so a code formed in
    # int32 would wrap: the stabilisers would lose their elements, the
    # last edges would not be found, and a re-sort would misorder
    for family, want in STABILISERS.items():
        G = cache7.graph(family, 7)
        group = stabiliser(G, G.boundary["A"], G.boundary["B"])
        assert group.pop(("r", 0))[1] == 1
        assert {g: s for g, (_, s, _) in group.items()} == want, family
    S = cache7.graph("skeleton", 7)
    assert int(S.us[-1]) * S.n >= 2 ** 31
    last = np.arange(S.m - 8, S.m)
    assert S.positions(S.us[last], S.vs[last]).tolist() == last.tolist()
    # the dual's ends reversed and swapped: every pair runs high to low
    D = cache7.graph("dual", 7)
    R = WeightedGraph(D.n, D.vs[::-1], D.us[::-1], D.num, den=D.den)
    for got, want in ((R.us, D.us), (R.vs, D.vs)):
        assert got.dtype == np.int32 and np.array_equal(got, want)


def test_stabiliser_follows_the_terminals(cache6):
    # the uncut hexacarpet between the cut graph's arcs keeps only s0
    for n in range(1, 5):
        G = cache6.graph("hexacarpet", n)
        A, B = G.symmetry.vertices_on((0, 1)), G.symmetry.vertices_on((4, 5))
        group = stabiliser(G, A, B)
        assert {g: s for g, (_, s, _) in group.items()} == {("r", 0): 1, ("s", 0): -1}
        red = effective_resistance(G, A=A, B=B)
        full = effective_resistance(plain_copy(G), A=A, B=B)
        assert red.group_order == 2
        assert abs(red.resistance - full.resistance) <= 1e-12 * full.resistance


def test_potential_is_exactly_symmetric(cache6):
    C = cache6.C
    cases = [
        (family, n, G.boundary["A"], G.boundary["B"])
        for family in FAMILIES
        for n in range(1, 5)
        for G in [cache6.graph(family, n)]
    ]
    # the skeleton side-0 to side-3 pair, the standard pair turned by
    # r4, fixed by s1 and swapped by r3 and s4
    cases += [
        ("skeleton", n, frozenset(C.side_vertices(n, 0).tolist()),
         frozenset(C.side_vertices(n, 3).tolist()))
        for n in range(1, 5)
    ]
    for family, n, A, B in cases:
        G = cache6.graph(family, n)
        phi = effective_resistance(G, A=A, B=B).potential
        # isolated vertices (severed edge vertices of the cut graph)
        # are left at zero
        live = G.degrees() > 0
        group = stabiliser(G, A, B)
        assert len(group) > 1, (family, n)
        for g, (p, sign, _) in group.items():
            want = phi if sign > 0 else 1.0 - phi
            assert np.array_equal(phi[p][live], want[live]), (family, n, g)


def test_broken_symmetry_is_dropped(cache6):
    # one conductance changed: the elements that move that edge are no
    # longer automorphisms and must be dropped
    def fixing(G, group, g):
        p = group[g][0]
        lo, hi = np.minimum(p[G.us], p[G.vs]), np.maximum(p[G.us], p[G.vs])
        return (lo == G.us) & (hi == G.vs)

    for family, n, keep, carries in [
        ("skeleton", 3, ("s", 5), True),  # an edge on the s5 mirror axis
        # the s2 axis sits at potential 1/2, so its edges carry no current
        ("skeleton", 3, ("s", 2), False),
        ("skeleton", 3, None, True),
        ("hexacarpet", 3, None, True),  # each incidence has four images
    ]:
        G = cache6.graph(family, n)
        A, B = G.boundary["A"], G.boundary["B"]
        group = stabiliser(G, A, B)
        moved = {g: ~fixing(G, group, g) for g in group if g != ("r", 0)}
        pick = np.ones(G.m, dtype=bool)
        for g, mask in moved.items():
            pick &= ~mask if g == keep else mask
        # the picked edge that carries the most current
        i = np.argmax(np.where(pick, np.abs(cache6.result(family, n).flow), -1.0))
        assert pick[i]
        num = G.num.copy()
        num[i] += 1
        H = plain_copy(G, num, G.symmetry)
        survivors = {("r", 0)} | ({keep} if keep else set())
        assert set(stabiliser(H, A, B)) == survivors
        red = effective_resistance(H)
        full = effective_resistance(plain_copy(H))
        assert red.group_order == len(survivors)
        changed = abs(red.resistance - cache6.result(family, n).resistance)
        assert (changed > 1e-6) == carries
        assert abs(red.resistance - full.resistance) <= 1e-12 * full.resistance, (family, keep)


def test_stabiliser_rejects_false_candidates():
    # on a 4-edge path the reversal swaps the end terminals; every other
    # candidate map fails one of the checks and must be dropped
    class Action:
        def __init__(self, images):
            self.images = images

        def candidates(self, A, B):
            return [("s", 0)]

        def perm(self, g):
            return np.array(self.images)

    G = path_graph(4)
    ident, rev = ("r", 0), ("s", 0)
    for images, B, want in [
        ([4, 3, 2, 1, 0], {4}, {ident: 1, rev: -1}),
        ([4, 2, 1, 3, 0], {4}, {ident: 1}),  # breaks edges
        ([1, 2, 3, 4, 0], {4}, {ident: 1}),  # not an involution
        ([4, 3, 2, 1, 5], {4}, {ident: 1}),  # not a vertex permutation
        ([4, 3, 2, 1, 0], {3}, {ident: 1}),  # moves the terminals
    ]:
        H = plain_copy(G, symmetry=Action(images))
        assert {g: s for g, (_, s, _) in stabiliser(H, {0}, B).items()} == want
        R = effective_resistance(H, A={0}, B=B).resistance
        assert abs(R - max(B)) < 1e-12

    # three arms of two edges from a hub: turning the arms is an
    # automorphism fixing both terminal sets, but of order 3
    star = WeightedGraph(
        7, [0, 0, 0, 1, 2, 3], [1, 2, 3, 4, 5, 6], [F1] * 6,
        {"A": {0}, "B": {4, 5, 6}}, symmetry=Action([0, 2, 3, 1, 5, 6, 4]),
    )
    assert list(stabiliser(star, {0}, {4, 5, 6})) == [ident]
    assert abs(effective_resistance(star).resistance - 2 / 3) < 1e-12


def test_stabiliser_rejects_negative_images():
    # a negative image indexes from the end; -1 in place of 4 would
    # still pair the reversal's ends by index, yet it is no involution
    class Action:
        def candidates(self, A, B):
            return [("s", 0)]

        def perm(self, g):
            return np.array([-1, 3, 2, 1, 0])

    H = plain_copy(path_graph(4), symmetry=Action())
    assert list(stabiliser(H, {0}, {4})) == [("r", 0)]


def test_stabiliser_edge_images(cache6):
    # the generators carry the positions of their edges' images; the
    # identity and the products carry none, and composing the
    # generators' images gives theirs
    ident = ("r", 0)
    for family in FAMILIES:
        for n in range(1, 6):
            G = cache6.graph(family, n)
            group = stabiliser(G, G.boundary["A"], G.boundary["B"])
            gens = {g: e for g, (_, _, e) in group.items() if e is not None}
            assert gens and ident not in gens, (family, n)
            assert all(e.dtype == np.int32 for e in gens.values())
            images = {ident: np.arange(G.m), **gens}
            if len(gens) == 2:
                (a, ea), (b, eb) = gens.items()
                images[dihedral_compose(a, b)] = ea[eb]
            assert set(images) == set(group), (family, n)
            for g, (p, _, _) in group.items():
                pu, pv = p[G.us], p[G.vs]
                want = G.positions(np.minimum(pu, pv), np.maximum(pu, pv))
                assert np.array_equal(images[g], want), (family, n, g)


def all_edge_system(G, group, interior, bval):
    """network._reduced_system as it was before the orbit assembly: one
    COO pass over every edge, so each orbit adds its terms edge by edge.
    The signs are float here and returned as the library's int8."""
    ids = np.arange(G.n)
    unknown = np.zeros(G.n, dtype=bool)
    unknown[interior] = True
    rep, sign = ids, np.ones(G.n)
    for p, s, *_ in group[1:]:
        lower = p < rep
        rep = np.where(lower, p, rep)
        sign = np.where(lower, s, sign)
        if s < 0:
            unknown &= p != ids
    sign[~unknown] = 0.0
    slot = np.cumsum(unknown & (rep == ids)) - 1
    k = int(slot[-1]) + 1 if G.n else 0
    col = np.where(unknown, slot[rep], 0).astype(np.int32)
    if not k:
        return sp.csc_matrix((0, 0)), np.zeros(0), col[interior], sign[interior].astype(np.int8)

    c = G.conductances()
    cu, cv = col[G.us], col[G.vs]
    su, sv = sign[G.us], sign[G.vs]
    diag = np.bincount(cu, c * (su != 0), k) + np.bincount(cv, c * (sv != 0), k)
    rhs = np.bincount(cu, c * su * bval[G.vs], k) + np.bincount(cv, c * sv * bval[G.us], k)
    both = (su != 0) & (sv != 0)
    off = -(c * su * sv)[both]
    cu, cv = cu[both], cv[both]
    diagonal = np.arange(k, dtype=np.int32)
    M = sp.coo_array(
        (
            np.concatenate([off, off, diag]),
            (np.concatenate([cu, cv, diagonal]), np.concatenate([cv, cu, diagonal])),
        ),
        shape=(k, k),
    ).tocsc()
    return M, rhs, col[interior], sign[interior].astype(np.int8)


def test_orbit_assembly_matches_all_edges(cache6):
    C = cache6.C
    cases = [
        (cache6.graph(family, n), None, None)
        for family in FAMILIES
        for n in range(1, 6)
    ]
    for n in range(1, 6):
        # the skeleton side-0 to side-3 pair and the hexacarpet
        # between the cut graph's arcs
        H = cache6.graph("hexacarpet", n)
        cases += [
            (cache6.graph("skeleton", n), frozenset(C.side_vertices(n, 0).tolist()),
             frozenset(C.side_vertices(n, 3).tolist())),
            (H, H.symmetry.vertices_on((0, 1)), H.symmetry.vertices_on((4, 5))),
        ]
    for G, A, B in cases:
        A = G.boundary["A"] if A is None else A
        B = G.boundary["B"] if B is None else B
        interior, fixed, inB, _ = _active_interior(G, A, B)
        group = list(stabiliser(G, A, B).values())
        assert len(group) > 1
        bval = inB - 0.5 * fixed
        gens = [e for _, _, e in group if e is not None]
        orbits = _vertex_orbits(G, group, interior) + _edge_orbits(G, gens, len(group))
        M, rhs, col, sign = _reduced_system(G, orbits, interior, fixed, inB)
        W, want_rhs, want_col, want_sign = all_edge_system(G, group, interior, bval)
        where = (G.meta["family"], G.meta["level"], len(A))
        assert M.format == W.format and M.shape == W.shape, where
        for got, want in [
            (M.indptr, W.indptr), (M.indices, W.indices), (M.data, W.data),
            (rhs, want_rhs), (col, want_col), (sign, want_sign),
        ]:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), where


def solve_memory(cache6, family):
    """(traced peak, traced bytes held on entering _solve_direct) of the
    level-6 solve, in float arrays over the edges.  A fresh copy of the
    graph has nothing cached; its components and the complex's symmetry
    images are made first, so the peak is the solve's own."""
    H = cache6.graph(family, 6)
    G = plain_copy(H, symmetry=H.symmetry)
    stabiliser(G, G.boundary["A"], G.boundary["B"])
    G.components()
    held = []
    solve = network._solve_direct

    def entered(M, rhs):
        held.append(tracemalloc.get_traced_memory()[0])
        return solve(M, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "_solve_direct", entered)
        peak = traced_peak(lambda: effective_resistance(G))[1]
    (before,) = held
    return peak / (8 * G.m), before / (8 * G.m)


def test_solve_memory_peak(cache6):
    # the level-6 hexacarpet solve holds at most 5.15 float arrays over
    # the edges at once (5.09 measured, in the stabiliser's match): the
    # interior ids are int32 and the orbit signs int8, the boundary
    # values are formed at the orbits' smallest edges only and phi from
    # the mask of B, the identity's images are made after the matches,
    # only the generators' edge images are kept, the group's vertex
    # images are dropped before the edge orbits, which gather by an intp
    # copy, the COO triplets go before the LU, and the reduced
    # potential's buffer takes phi
    peak, _ = solve_memory(cache6, "hexacarpet")
    assert peak <= 5.15, peak


def test_solve_memory_peak_skeleton_and_dual(cache6):
    # measured 4.22 and 4.13
    for family, bound in (("skeleton", 4.25), ("dual", 4.2)):
        peak, _ = solve_memory(cache6, family)
        assert peak <= bound, (family, peak)


def test_memory_held_while_factoring(cache6):
    # what the hexacarpet solve holds while SuperLU factors: the matrix
    # and right-hand side, the orbit numbers and int8 signs over the
    # interior, the int32 interior ids and the masks of the boundary and
    # B, 2.52 float arrays over the edges measured
    _, held = solve_memory(cache6, "hexacarpet")
    assert held <= 2.6, held


def test_thompson_memory_peak(cache6):
    # a block of b trials is one (m + roots) x b array, its
    # coefficients below the vertex rows in which the charges and the
    # subtree sums are taken; at level 4 the 100 trials are one block,
    # measured 1.12
    G = cache6.graph("hexacarpet", 4)
    r = cache6.result("hexacarpet", 4)
    checked, peak = traced_peak(lambda: verify_thompson(G, r, trials=100))
    assert checked == 100
    assert peak <= 1.2 * 8 * G.m * 100, peak / (8 * G.m * 100)


def test_solver_statistics(cache6):
    G = cache6.graph("hexacarpet", 3)
    red = effective_resistance(G)
    full = effective_resistance(plain_copy(G))
    interior = G.n - len(G.boundary["A"] | G.boundary["B"])
    assert (red.unknowns, red.group_order) == (interior // 4, 4)
    assert red.factor_fill >= red.unknowns
    assert (full.unknowns, full.group_order) == (interior, 1)
    assert full.factor_fill >= full.unknowns


def test_deterministic_solve():
    rng = np.random.default_rng(41)
    G = random_graph(rng, 50, extra=20)
    a = effective_resistance(G)
    b = effective_resistance(G)
    assert a.resistance == b.resistance
    assert (a.potential == b.potential).all()


# -- Thompson minimality ------------------------------------------------


def forest_parents(G, forest):
    """(parent, parent_edge) of every vertex, -1 at a root, read off the
    forest's depth levels and tree edges."""
    parent = np.full(G.n, -1, dtype=np.int64)
    parent_edge = np.full(G.n, -1, dtype=np.int64)
    for lo, hi, starts, heads in forest.levels:
        runs = np.diff(np.append(starts, hi - lo))
        parent[forest.order[lo:hi]] = np.repeat(forest.order[heads], runs)
    parent_edge[forest.order[G.n - len(forest.tree):]] = forest.tree
    return parent, parent_edge


def cycle_flow_reference(G, forest, edge_pos):
    """Unit circulation around the fundamental cycle of a non-tree edge,
    walking both of its ends up to the root one edge at a time."""
    parent, parent_edge = forest_parents(G, forest)
    K = np.zeros(G.m)
    u, v = int(G.us[edge_pos]), int(G.vs[edge_pos])
    K[edge_pos] = 1.0

    def path_to_root(x):
        out = []
        while parent[x] >= 0:
            out.append((x, int(parent[x]), int(parent_edge[x])))
            x = int(parent[x])
        return out

    pu, pv = path_to_root(u), path_to_root(v)
    su = {e for _, _, e in pu}
    sv = {e for _, _, e in pv}
    for x, p, e in pu:
        if e in sv:
            continue
        # walk from v back toward u: edge (x -> p) carries flow v..u side
        K[e] += 1.0 if int(G.us[e]) == p else -1.0
    for x, p, e in pv:
        if e in su:
            continue
        K[e] += -1.0 if int(G.us[e]) == p else 1.0
    return K


def forest_cases(cache):
    rng = np.random.default_rng(61)
    cases = [
        random_graph(rng, int(rng.integers(2, 30)), extra=int(rng.integers(0, 12)))
        for _ in range(20)
    ]
    # a square with a chord, a triangle and the isolated vertex 4
    cases.append(WeightedGraph(
        8, [0, 0, 1, 2, 0, 5, 5, 6], [1, 3, 2, 3, 2, 6, 7, 7], [F1] * 8,
        {"A": {0}, "B": {2}},
    ))
    cases += [cache.graph("hexacarpet", n) for n in range(1, 5)]
    return cases


def test_spanning_forest_arrays(cache6):
    for G in forest_cases(cache6):
        f = spanning_forest(G)
        parent, parent_edge = forest_parents(G, f)
        adj = coo_matrix((np.ones(G.m), (G.us, G.vs)), shape=(G.n, G.n))
        ncomp = connected_components(adj, directed=False)[0]
        roots = np.flatnonzero(parent < 0)
        assert len(roots) == ncomp and len(f.tree) == G.n - ncomp
        assert sorted(f.order.tolist()) == list(range(G.n))
        assert parent_edge[roots].tolist() == [-1] * ncomp
        # tree and non-tree edges partition the edges
        assert sorted(f.tree.tolist() + f.nontree.tolist()) == list(range(G.m))
        child = f.order[ncomp:]
        ends = np.sort(np.stack([child, parent[child]]), axis=0)
        assert np.array_equal(ends, np.stack([G.us[f.tree], G.vs[f.tree]]))
        assert np.array_equal(f.up, np.where(G.us[f.tree] == child, 1.0, -1.0))
        # the levels cover the non-roots in order, in runs whose parents
        # come in order too, each vertex one level below its parent
        bounds = [ncomp] + [hi for _, hi, _, _ in f.levels]
        assert [lo for lo, _, _, _ in f.levels] == bounds[:-1] and bounds[-1] == G.n
        depth = np.zeros(G.n, dtype=np.int64)
        for d, (lo, hi, starts, heads) in enumerate(f.levels, 1):
            depth[f.order[lo:hi]] = d
            assert starts[0] == 0 and (np.diff(starts) > 0).all() and starts[-1] < hi - lo
            assert (np.diff(heads) > 0).all()
        assert np.array_equal(depth[child], depth[parent[child]] + 1)


def test_fundamental_circulations_match_path_walk(cache6):
    for G in forest_cases(cache6):
        f = spanning_forest(G)
        Z = circulations(G, f, np.eye(len(f.nontree)))
        for j, e in enumerate(f.nontree.tolist()):
            assert np.abs(Z[:, j] - cycle_flow_reference(G, f, e)).max() <= 1e-15
            assert np.abs(divergence(G, Z[:, j])).max() == 0.0


def test_tree_currents_cancel_the_charges(cache6):
    rng = np.random.default_rng(62)
    for G in forest_cases(cache6):
        f = spanning_forest(G)
        charge = rng.normal(size=(G.n, 3))
        T = tree_currents(f, charge[f.order])
        roots = forest_parents(G, f)[0] < 0
        for t in range(3):
            J = np.zeros(G.m)
            J[f.tree] = T[:, t]
            div = divergence(G, J) + charge[:, t]
            assert np.abs(div[~roots]).max(initial=0.0) <= 1e-12
            # each root takes its whole tree's charge
            assert abs(div[roots].sum() - charge[:, t].sum()) <= 1e-12


def test_thompson_on_random_graphs():
    rng = np.random.default_rng(51)
    for _ in range(10):
        G = random_graph(rng, 12, extra=6)
        r = oracle_resistance(G)
        checked = verify_thompson(G, r, trials=20, seed=7)
        assert type(checked) is int and checked == 20


def test_thompson_on_a_tree_checks_nothing():
    G = path_graph(4)
    assert verify_thompson(G, oracle_resistance(G)) == 0
    # a star with an isolated vertex: still a forest
    H = WeightedGraph(5, [0, 0, 0], [1, 2, 3], [F1] * 3, {"A": {1}, "B": {2}})
    assert verify_thompson(H, oracle_resistance(H)) == 0


def test_thompson_detects_non_minimal_flow():
    G = WeightedGraph(
        3, [0, 0, 1], [1, 2, 2], [F1] * 3, {"A": {0}, "B": {2}}
    )
    r = oracle_resistance(G)
    fake = r.flow.copy()
    fake += 0.3 * np.array([1.0, -1.0, 1.0])  # add a circulation
    bad = dataclasses.replace(r, flow=fake)
    with pytest.raises(AssertionError, match="not cycle-orthogonal"):
        verify_thompson(G, bad, trials=5, seed=1)


def test_resistance_result_is_built_by_keyword():
    with pytest.raises(TypeError):
        ResistanceResult(1.0, 1.0, np.zeros(2), np.zeros(1), 0.0)


def perturbed_current(G, r):
    """r with 1e-3 of one fundamental cycle added to its current."""
    f = spanning_forest(G)
    coef = np.zeros((len(f.nontree), 1))
    coef[len(coef) // 2] = 1e-3
    return dataclasses.replace(r, flow=r.flow + circulations(G, f, coef)[:, 0])


def test_thompson_detects_a_perturbed_hexacarpet_current(cache6):
    G = cache6.graph("hexacarpet", 3)
    r = cache6.result("hexacarpet", 3)
    checked = verify_thompson(G, r)
    assert type(checked) is int and checked == 100
    with pytest.raises(AssertionError, match="not cycle-orthogonal"):
        verify_thompson(G, perturbed_current(G, r))


def test_thompson_does_not_depend_on_the_block_size(cache6, monkeypatch):
    # one, seven and forty trials per block against the default's one
    # block of 100.  The reported cross term is a BLAS product whose
    # rounding follows the block's width, so it agrees to 1e-9, which
    # still tells the failing trial apart from every other
    G = cache6.graph("hexacarpet", 3)
    r = cache6.result("hexacarpet", 3)
    bad = perturbed_current(G, r)

    def outcome():
        with pytest.raises(AssertionError) as err:
            verify_thompson(G, bad)
        head, value = str(err.value).rsplit(": ", 1)
        return verify_thompson(G, r), head, float(value)

    want = outcome()
    assert want[:2] == (100, "current not cycle-orthogonal")
    for per_block in (1, 7, 40):
        monkeypatch.setattr(network, "_TRIAL_BLOCK", per_block * G.m)
        checked, head, value = outcome()
        assert (checked, head) == want[:2], per_block
        assert value == pytest.approx(want[2], rel=1e-9), per_block


def test_thompson_dissipation_check_stands_alone():
    # I is the triangle's current plus 2.9 Z, Z its one cycle.  At
    # tol = 3 D(Z) / D(I) the orthogonality test passes every trial
    # K = a Z, as |<I, a Z>| = 2.9 |a| D(Z) < 3 D(Z) max(1, |a|); yet
    # D(I + a Z) < D(I) - 3 D(Z) for a in (-5.23, -0.57), which only the
    # dissipation test catches
    G = WeightedGraph(
        3, [0, 0, 1], [1, 2, 2], [F1] * 3, {"A": {0}, "B": {2}}
    )
    r = oracle_resistance(G)
    Z = circulations(G, spanning_forest(G), np.ones((1, 1)))[:, 0]
    bad = dataclasses.replace(r, flow=r.flow + 2.9 * Z)
    tol = 3 * dissipation(G, Z) / dissipation(G, bad.flow)
    with pytest.raises(AssertionError, match="dissipation not minimal"):
        verify_thompson(G, bad, trials=50, seed=3, tol=tol)


if __name__ == "__main__":
    digests = solve_digests(LevelCache(cap=7))
    SOLVE_HASHES.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

"""Flows, decompositions, bounds and the scaling fit."""

import itertools
import math

import numpy as np
import pytest

from hexacarpet import analysis
from hexacarpet.analysis import (
    LevelCache,
    YDecomposition,
    arc_flows,
    compose_flow,
    cut_report,
    estimate_rho,
    extrapolate,
    flux_profile,
    hex_pullback,
    potential_decomposition,
    rho_fit_upto,
    short_report,
    side_flows,
    spectral_dimension,
    unit_flow,
    verify_duality,
    verify_supermultiplicative,
    y_decomposition,
)
from hexacarpet.graphs import incidence_positions
from hexacarpet.network import (
    NotAFlowError,
    check_flow,
    dissipation,
    effective_resistance,
    energy,
)
from hexacarpet.subdivision import side_perm
from oracle import traced_peak
from test_complex import CellMaps, SimplexId, apply_word, edge_sides

# boundary arcs by the original side they refine: the level-0 edge
# (p0,p1) carries hexagon sides {0,1}, (p1,p2) sides {2,3}, (p0,p2)
# sides {4,5}
ARC_OF_MACRO = {0: (0, 1), 2: (2, 3), 1: (4, 5)}
MACRO_OF_ARC = {frozenset(v): k for k, v in ARC_OF_MACRO.items()}

# the six symmetries permuting the three original triangle sides; they
# act simply transitively on assignments of the three boundary arcs
FRAME = [("r", 0), ("r", 2), ("r", 4), ("s", 0), ("s", 2), ("s", 4)]


@pytest.fixture(scope="module")
def cache():
    return LevelCache()


def test_level_one_resistances(cache):
    assert abs(cache.R(1) - 1.5) < 1e-12
    assert abs(cache.RT(1) - 2 / 3) < 1e-12


def test_duality(cache):
    rows = verify_duality(cache, [1, 2, 3], tol=1e-8)
    assert all(r[4] for r in rows)


def test_unit_flow_is_unit(cache):
    for n in range(1, 6):
        G = cache.graph("hexacarpet", n)
        I = unit_flow(cache, n)
        f = check_flow(G, I, G.boundary["A"], G.boundary["B"])
        assert abs(f - 1) < 1e-9
        assert abs(dissipation(G, I) - cache.R(n)) < 1e-9
        # s2 preserves the terminal pair, r3 and s5 swap it; the flow is
        # even and odd under them bit for bit
        assert np.array_equal(hex_pullback(cache, n, I, ("s", 2)), I)
        assert np.array_equal(hex_pullback(cache, n, I, ("r", 3)), -I)
        assert np.array_equal(hex_pullback(cache, n, I, ("s", 5)), -I)


def test_arc_flows_have_standard_energy(cache):
    for n in (1, 2, 3):
        H01, H02 = arc_flows(cache, n)
        G = cache.graph("hexacarpet", n)
        assert abs(dissipation(G, H01) - cache.R(n)) < 1e-8
        assert abs(dissipation(G, H02) - cache.R(n)) < 1e-8
        # cross energy bounded by the common energy (Cauchy-Schwarz)
        assert abs(dissipation(G, H01, H02)) <= cache.R(n) + 1e-9


def test_side_flows(cache):
    for n in range(1, 5):
        K = side_flows(cache, n)
        G = cache.graph("hexacarpet", n)
        for s, d in itertools.permutations(range(3), 2):
            arcs = (G.symmetry.vertices_on(ARC_OF_MACRO[k]) for k in (s, d))
            assert abs(check_flow(G, K[s, d], *arcs) - 1) < 1e-9, (n, s, d)
            assert abs(dissipation(G, K[s, d]) - cache.R(n)) <= 1e-12 * cache.R(n)
        for s in range(3):
            assert not K[s, s].any()
        H01, H02 = arc_flows(cache, n)
        assert np.array_equal(K[0, 2], H01)
        assert np.array_equal(K[0, 1], H02)
        # the paper's arc flows: the standard flow mirrored onto the lower
        # half-plane, and its s2 image, which fixes the source arc
        I = unit_flow(cache, n)
        xy = cache.C.coordinates(n)[0]
        upper = xy[cache.C.tri_vertices(n)[G.us], 1].sum(axis=1) > 0
        ref02 = np.where(upper, I, hex_pullback(cache, n, I, ("s", 3)))
        assert np.array_equal(K[0, 1], ref02)
        assert np.array_equal(K[0, 2], hex_pullback(cache, n, ref02, ("s", 2)))


def test_y_decomposition_invariants(cache):
    for m in (1, 2, 3):
        Y = y_decomposition(cache, m)
        assert np.abs(Y.a.sum(axis=1)).max() < 1e-9
        assert (Y.a[:, 1] * Y.a[:, 2] >= 0).all()
        assert (
            Y.a[:, 1] ** 2 + Y.a[:, 2] ** 2 >= Y.a[:, 0] ** 2 / 2 - 1e-15
        ).all()
        assert abs(Y.energy() - cache.R(m)) < 1e-8


def test_y_decomposition_level_one_values(cache):
    # six symmetric cells: each terminal side carries half the current
    Y = y_decomposition(cache, 1)
    assert abs(Y.a.max() - 0.5) < 1e-9


def test_composed_flow_certificate(cache):
    # every split of every level up to 7
    for m, n in [(m, t - m) for t in range(2, 8) for m in range(1, t)]:
        cf = compose_flow(cache, m, n)
        assert cf.max_divergence <= 1e-9, (m, n)
        assert abs(cf.flux - 1) < 1e-8, (m, n)
        assert cf.energy <= cf.bound + 1e-8, (m, n)
        assert cache.R(m + n) <= cf.energy + 1e-8, (m, n)


def test_composed_one_one_energy(cache):
    # the (1,1) splice has energy R(1)^2 = 9/4 exactly
    cf = compose_flow(cache, 1, 1)
    assert abs(cf.energy - 2.25) < 1e-9


# -- per-incidence references for the whole-array passes ---------------


def edge_index(G):
    """Dict from the canonical pair (u, v) to the edge position."""
    return {(u, v): i for i, (u, v) in enumerate(zip(G.us.tolist(), G.vs.tolist()))}


def branch_sides(C, Y):
    """The edge ids of the branch sides named by Y's slots."""
    return np.take_along_axis(C.tri_edges[Y.level], Y.slot, axis=1)


def y_decomposition_reference(cache, m, zero_tol=1e-12):
    """Triangle-by-triangle branch currents, through side first."""
    G = cache.graph("hexacarpet", m)
    F = len(cache.C.tri_edges[m])
    I = unit_flow(cache, m)
    idx = edge_index(G)
    a = np.zeros((F, 3))
    side = np.zeros((F, 3), dtype=np.int64)
    scale = float(np.abs(I).max())
    for x in range(F):
        es = sorted(cache.C.tri_edges[m][x])
        vals = [
            0.0 if abs(I[idx[(x, F + e)]]) < zero_tol * scale
            else I[idx[(x, F + e)]]
            for e in es
        ]
        best = None
        for k in range(3):
            rest = [vals[j] for j in range(3) if j != k]
            if rest[0] * rest[1] >= 0.0:
                best = k
                break
        assert best is not None
        order = [best] + [j for j in range(3) if j != best]
        a[x] = [vals[j] for j in order]
        side[x] = [es[j] for j in order]
    return a, side


def frame_reference(F, word, y_sides):
    """The one frame symmetry matching a single triangle's sides."""
    x_side = {k: apply_word(F, word, SimplexId(0, 1, k)).index for k in range(3)}
    want = {0: y_sides[0], 2: y_sides[1], 1: y_sides[2]}
    hits = [
        g for g in FRAME
        if all(
            x_side[MACRO_OF_ARC[frozenset(side_perm(g)[s] for s in ARC_OF_MACRO[k])]]
            == want[k]
            for k in range(3)
        )
    ]
    assert len(hits) == 1
    return hits[0]


def compose_flow_reference(cache, m, n):
    """The spliced flow, one cell and one incidence at a time."""
    C = cache.C
    F = CellMaps(C)
    Y = y_decomposition(cache, m)
    H01, H02 = arc_flows(cache, n)
    sides = branch_sides(C, Y)
    Gn = cache.graph("hexacarpet", n)
    Gf = cache.graph("hexacarpet", m + n)
    Fn, Ff = len(C.tri_edges[n]), len(C.tri_edges[m + n])
    idx_f = edge_index(Gf)
    J = np.zeros(Gf.m)
    written = np.zeros(Gf.m, dtype=np.int8)
    for word in itertools.product(range(6), repeat=m):
        x = apply_word(F, word, SimplexId(0, 2, 0)).index
        g = frame_reference(F, word, sides[x])
        a1, a2 = Y.a[x][1], Y.a[x][2]
        for i in range(Gn.m):
            gt = C.tri_images(g, n)[Gn.us[i]]
            ge = C.edge_images(g, n)[Gn.vs[i] - Fn]
            ft = apply_word(F, word, SimplexId(n, 2, gt)).index
            fe = apply_word(F, word, SimplexId(n, 1, ge)).index
            pos = idx_f[(ft, Ff + fe)]
            J[pos] = -(a1 * H01[i] + a2 * H02[i])
            written[pos] += 1
    assert (written == 1).all()
    return J


def test_y_decomposition_matches_reference(cache):
    for m in (1, 2, 3, 4):
        Y = y_decomposition(cache, m)
        a, side = y_decomposition_reference(cache, m)
        assert np.array_equal(Y.a, a)
        assert np.array_equal(branch_sides(cache.C, Y), side)


def test_composed_flow_matches_reference(cache):
    for total in range(2, 6):
        for m in range(1, total):
            cf = compose_flow(cache, m, total - m)
            assert np.array_equal(cf.flow, compose_flow_reference(cache, m, total - m))


def test_compose_flow_splice_keeps_the_sign_of_zero(cache):
    # the in-place splice against the one-expression form at level 6,
    # bit for bit: a zero product keeps its sign, which (-a1) K1 - a2 K2
    # would flip on some of the level-6 zeros
    C = cache.C
    for m, n in ((3, 3), (1, 5), (5, 1)):
        Y = y_decomposition(cache, m)
        K = side_flows(cache, n)
        t, j1, j2 = Y.slot.T
        es, ts = C.embed(m, n)
        pos = incidence_positions(C, m + n, ts, es[:, C.tri_edges[n]]).ravel()
        want = np.zeros(cache.graph("hexacarpet", m + n).m)
        want[pos] = -(Y.a[:, 1:2] * K[t, j1] + Y.a[:, 2:3] * K[t, j2]).ravel()
        got = compose_flow(cache, m, n).flow
        assert np.signbit(want[want == 0]).any(), (m, n)
        assert np.array_equal(got, want), (m, n)
        assert np.array_equal(np.signbit(got), np.signbit(want)), (m, n)


def test_compose_flow_memory_peak(cache):
    # traced peaks of the level-6 splice in 8 bytes per fine incidence,
    # on a warm cache: the splice is formed in one buffer besides its
    # second term, the side flows and positions go before the flow
    # check, and the divergence, summed without an intp copy of the
    # ends, before the dissipation; measured 4.04, 4.42 and 4.44, the
    # nine level-5 side flows alone 1.5 of that unit
    for (m, n), bound in (((3, 3), 4.1), ((1, 5), 4.45), ((5, 1), 4.45)):
        compose_flow(cache, m, n)
        G = cache.graph("hexacarpet", m + n)
        peak = traced_peak(lambda: compose_flow(cache, m, n))[1]
        assert peak <= bound * 8 * G.m, ((m, n), peak / (8 * G.m))


# -- the certificate's own consistency checks ---------------------------


def test_compose_flow_rejects_overlapping_cells(monkeypatch):
    fresh = LevelCache(cap=3)
    real = fresh.C.embed

    def aliased(m, n):
        # the refinement of triangle 1 lands on top of that of triangle 0
        es, ts = (a.copy() for a in real(m, n))
        es[1], ts[1] = es[0], ts[0]
        return es, ts

    monkeypatch.setattr(fresh.C, "embed", aliased)
    with pytest.raises(AssertionError, match="do not tile the fine"):
        compose_flow(fresh, 1, 1)


def test_compose_flow_rejects_branch_sides_off_the_triangle(monkeypatch):
    # at m = 2 triangle x carries current on all three branches; naming
    # one of its sides twice splices a flow that leaves divergence.  At
    # m = 1 every triangle has a zero branch, where a repeat is harmless.
    fresh = LevelCache(cap=4)
    Y = y_decomposition(fresh, 2)
    x = int(np.flatnonzero((Y.a != 0).all(axis=1))[0])
    for k, j in itertools.permutations(range(3), 2):
        slot = Y.slot.copy()
        slot[x, k] = slot[x, j]
        monkeypatch.setattr(
            analysis, "y_decomposition",
            lambda cache, m, slot=slot: YDecomposition(m, Y.a, slot),
        )
        with pytest.raises(NotAFlowError, match="divergence off terminals"):
            compose_flow(fresh, 2, 1)


def test_potential_decomposition(cache):
    for n in (2, 3):
        P = potential_decomposition(cache, n)
        assert abs(P.E_phi - 1.0 / cache.RT(n)) < 1e-8
        assert abs(P.E_phi - 2 * P.E_u - 4 * P.E_v) < 1e-8
        assert abs(P.cross) <= 1e-8 * P.E_u
        assert P.sym_u == 0.0
        assert P.sym_vw == 0.0
        assert abs(P.E_w - P.E_v) < 1e-12


def sides_03_energies(cache, n):
    """E(phi), E(u), E(v), E(w) and E(u, v - w) of potential_decomposition,
    phi from a fresh solve between the side-0 and side-3 chains of the
    level-n skeleton and sliced as potential_decomposition slices it."""
    C = cache.C
    G = cache.graph("skeleton", n)
    A = frozenset(C.side_vertices(n, 0).tolist())
    B = frozenset(C.side_vertices(n, 3).tolist())
    phi = effective_resistance(G, A=A, B=B).potential
    Gm = cache.graph("skeleton", n - 1)
    cell = np.argsort(edge_sides(C, 1)[C.tri_edges[1]].max(axis=1))
    ts = C.embed(1, n - 1)[1][cell[[0, 1, 5]]]
    vm = np.empty((3, Gm.n), dtype=np.int64)
    vm[:, C.tri_vertices(n - 1)] = C.tri_vertices(n)[ts]
    u, v, w = phi[vm[:, C.vertex_map(("r", 4), n - 1)]]
    return [energy(G, phi), energy(Gm, u), energy(Gm, v), energy(Gm, w),
            energy(Gm, u, v - w)]


def test_sliced_potentials_solve_nothing(monkeypatch):
    # the side-0 to side-3 potential is the cached standard skeleton
    # potential turned by r4; no problem is solved for it
    fresh = LevelCache()
    levels = range(2, 6)
    for n in levels:
        fresh.RT(n)

    def no_solve(*args, **kwargs):
        raise AssertionError("potential_decomposition solved a problem")

    monkeypatch.setattr(analysis, "effective_resistance", no_solve)
    for n in levels:
        P = potential_decomposition(fresh, n)
        want = sides_03_energies(fresh, n)
        got = [P.E_phi, P.E_u, P.E_v, P.E_w, P.cross]
        # the cross term vanishes, so it is held to the scale of E(u)
        scale = [abs(x) for x in want[:4]] + [want[1]]
        for g, x, s in zip(got, want, scale):
            assert abs(g - x) <= 1e-12 * s, (n, got, want)
        assert P.sym_u == P.sym_vw == 0.0


def test_supermultiplicative(cache):
    rows = verify_supermultiplicative(cache, 4)
    assert len(rows) == 1 + 1 + 2
    for r in rows:
        assert r["upper"] and r["lower"] and r["t_upper"] and r["t_lower"]


def test_cut_report(cache):
    rows = cut_report(cache, 3)
    assert [r["lengths"] for r in rows[:2]] == [[2, 4], [4, 8, 12, 12]]
    for r in rows:
        assert r["triangles"] == 6 ** r["n"]
        assert r["strands"] == 2 ** r["n"]
        assert r["formula_gap"] <= 1e-9
        assert r["hat_le_pow"] and r["R_le_pow"]
        assert r["monotone"] and r["step_ratio"]


def test_short_report(cache):
    rows, const = short_report(cache, 3)
    for r in rows:
        assert r["le_R"] and r["ratio_ok"]
    assert abs(rows[0]["R_tilde"] - 15 / 16) < 1e-10
    assert 0 < const <= 0.75 + 1e-9


def test_spectral_dimension_formula():
    # closed form checked against an independent evaluation
    for rho in (1.25, 1.306, 1.5):
        want = 2 * math.log(6) / (math.log(6) + math.log(rho))
        assert abs(spectral_dimension(rho) - want) < 1e-14


def test_rho_fit_excludes_level_one():
    levels = [1, 2, 3, 4]
    R = [10.0, 2.0, 2.6, 3.38]
    fit = rho_fit_upto(levels, R, 4)
    # pure geometric growth from level 2 on; level 1 must not distort it
    assert abs(fit - 1.3) < 1e-9


def test_extrapolate_is_exact_on_a_geometric_correction():
    # Aitken's delta squared is exact for r_n = L + c q^n: every limit
    # is L and the last two agree
    L, c, q = 1.3064216, -0.1, 0.27
    ratios = [L + c * q ** n for n in range(2, 10)]
    got = extrapolate(ratios)
    assert got["ratios"] == ratios
    assert abs(got["limit"] - L) <= 1e-15
    assert got["error"] <= 1e-15
    assert abs(got["q"] - q) <= 1e-8
    # too short for a limit, or for its error
    assert extrapolate(ratios[:2]) == {"ratios": ratios[:2], "q": None, "limit": None, "error": None}
    three = extrapolate(ratios[:3])
    assert abs(three["limit"] - L) <= 1e-15 and three["error"] is None
    # constant ratios have no second difference: no q and no limit
    assert extrapolate([1.5] * 4) == {"ratios": [1.5] * 4, "q": None, "limit": None, "error": None}


def test_extrapolated_exponents_at_level_six(cache):
    # measured: rho = 1.3064217395, q = 0.26954, |rho rho^T - 1| = 6.6e-8
    # and a gap of 1.1e-6 between the level-5 and level-6 limits (the
    # level-7 limit is 1.3064216190)
    doc = estimate_rho(cache, 6).to_json_dict()["extrapolation"]
    for key in ("R", "RT"):
        xs = [getattr(cache, key)(n) for n in range(1, 7)]
        assert doc[key]["ratios"] == [b / a for a, b in zip(xs, xs[1:])]
    R, RT = doc["R"], doc["RT"]
    assert abs(R["limit"] - 1.3064217395) < 1e-10
    assert abs(R["q"] - 0.26954) < 1e-5
    assert abs(R["limit"] * RT["limit"] - 1) < 1e-7
    assert 1e-6 < R["error"] < 1.2e-6
    assert abs(R["limit"] - 1.3064216190) < R["error"]


# measured KL divergences of the exit flux from uniform at n = 2..6
FLUX_KL = [0.01677, 0.03916, 0.06358, 0.08862, 0.11382]


def incidence_profile(cache, n):
    """The exit flux on the level-n A arc from the current on each arc
    vertex's one incidence, in arc order (side 0 from the angle-0
    corner, then side 1 backwards), normalised to sum 1."""
    C, G = cache.C, cache.graph("hexacarpet", n)
    bi = C.boundary_index(n)
    arc = len(C.tri_edges[n]) + np.concatenate([bi[0], bi[1][::-1]])
    # the incidences run triangle -> edge vertex, so each current flows in
    pos = [np.flatnonzero(G.vs == v) for v in arc.tolist()]
    assert all(len(x) == 1 for x in pos)
    current = cache.result("hexacarpet", n).flow[np.concatenate(pos)]
    assert (current > 0).all()
    return current / current.sum()


def test_flux_profile_matches_the_incidence_currents(cache):
    doc = flux_profile(cache, 5)
    p4, p5 = incidence_profile(cache, 4), incidence_profile(cache, 5)
    assert doc["levels"] == [1, 2, 3, 4, 5]
    assert abs(doc["kl"][4] - float(np.sum(p5 * np.log(32 * p5)))) <= 1e-12
    assert abs(doc["kl"][4] - doc["kl"][3] - doc["gain"][4]) <= 1e-15
    assert abs(doc["max"][4] - 32 * p5.max()) <= 1e-12
    assert abs(doc["min"][4] - 32 * p5.min()) <= 1e-12
    bins = [p.reshape(4, -1).sum(axis=1) for p in (p4, p5)]
    assert abs(doc["l1"][4] - np.abs(bins[1] - bins[0]).sum()) <= 1e-12
    assert doc["gain"][0] is None and doc["l1"][:2] == [None, None]


def test_flux_profile_gains_settle():
    # the gain per level does not fall toward 0: the exit flux tends to
    # a measure singular with respect to length on the arc
    doc = flux_profile(LevelCache(cap=7), 7)
    assert doc["mirror"] == [True] * 7
    assert doc["kl"][0] == 0.0
    for got, want in zip(doc["kl"][1:6], FLUX_KL):
        assert abs(got - want) <= 5e-5
    assert abs(doc["gain"][6] - doc["gain"][5]) <= 1e-4
    fit = doc["extrapolation"]
    assert fit["ratios"] == doc["gain"][1:]
    assert doc["information_dimension"] == 1 - fit["limit"] / math.log(2)


def test_estimate_rho(cache):
    rep = estimate_rho(cache, 4)
    assert 1.25 <= rep.rho_fit <= 1.5
    assert abs(rep.rho_fit * rep.rho_T_fit - 1.0) < 1e-6
    assert abs(rep.d_S - spectral_dimension(rep.rho_fit)) < 1e-14
    csv = rep.to_csv_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "n,R_n,R_n_T,product,R_hat,R_tilde,ratio,fit_rho,d_S"
    assert len(lines) == 5
    doc = rep.to_json_dict()
    assert doc["levels"] == [1, 2, 3, 4]
    assert abs(doc["rho_product"] - 1.0) < 1e-6

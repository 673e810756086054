"""Resistance scaling: duality, flow surgery, and exponent estimates.

Everything here works over a LevelCache, which owns one subdivision
complex plus memoized graphs and solves per level.  The headline
quantities per level n:

  R(n)        hexacarpet resistance, side-{0,1} arc to side-{3,4} arc
  RT(n)       skeleton resistance, side-2 chain to side-5 chain
  R_hat(n)    exact strand formula for the severed (cut) hexacarpet
  R_tilde(n)  resistance after fusing the refinement of each edge of
              a coarser level (the shorted quotient)

Duality says R(n) * RT(n) = 1.  The cut and short surgeries sandwich
R(n) between c (5/4)^n and (3/2)^n, and the flow/potential machinery
below turns level products into the multiplicative bounds

  R(m) R(n) / 2  <=  R(m+n)  <=  4/3 R(m) R(n).

The upper bound is certified constructively: compose_flow builds an
explicit unit flow on level m+n out of a level-m flow skeleton and two
side-to-side unit flows on level n, and its energy is the certificate.
Splicing is one whole-array pass: each level-m triangle reads its two
flows off a table of the six flows between the original triangle's
sides, by the slots of its branch sides in tri_edges; the complex's
embedding of level n carries them into the triangle, side order kept,
and graphs.incidence_positions addresses each (triangle, side) carried
there in the target graph, every fine incidence exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .subdivision import CELL_SIDES, DEFAULT_CAP, SubdivisionComplex, dihedral_elements
from .graphs import (
    FamilyError,
    build_cut_graph,
    build_dual,
    build_hexacarpet,
    build_short_graph,
    build_skeleton,
    cut_path_lengths,
    cut_resistance_formula,
    incidence_positions,
    strand_lengths,
)
from .network import (
    _checked_flow,
    check_flow,
    dissipation,
    divergence,
    effective_resistance,
    energy,
)

# branch currents below this fraction of the largest current are solver
# noise, snapped to zero by y_decomposition
ZERO_TOL = 1e-12
# slack of the cut report's float comparisons
CUT_TOL = 1e-9
# slack of the short report's R_tilde <= R comparison
SHORT_TOL = 1e-9
# how far a shorted step ratio may sit from 5/4
RATIO_TOL = 1e-3
# how far the flux of an arc flow may sit from 1
UNIT_TOL = 1e-8
# top level of the short family in the sweeps
SHORT_MAX_LEVEL = 5

# the graph families by name, in the order the command line lists them
BUILDERS = {
    "skeleton": build_skeleton,
    "dual": build_dual,
    "hexacarpet": build_hexacarpet,
    "cut": build_cut_graph,
    "short": build_short_graph,
}

# dihedral elements by role: s3 mirrors across the vertical axis, s0
# across the horizontal axis
S0, S3 = ("s", 0), ("s", 3)


class LevelCache:
    """Memoized graphs and resistance solves per level.

    Every solve is the sparse direct solve in the invariant subspace of
    the terminal pair's symmetry group, so potentials and flows are
    exactly symmetric as returned and each (family, level) is solved
    once, by result(family, n); only cut_report's uncut hexacarpet, a
    pair of its own, is solved elsewhere.  R_hat(n) is the exact formula
    of Stern's strand lengths and builds nothing; cut_report checks them
    against each level's cut graph.
    """

    def __init__(self, cap=DEFAULT_CAP):
        self.C = SubdivisionComplex(cap)
        self._graphs = {}
        self._results = {}

    def graph(self, family, n):
        key = (family, n)
        if key not in self._graphs:
            if family not in BUILDERS:
                raise FamilyError(
                    f"unknown family {family!r}; the families are {', '.join(BUILDERS)}"
                )
            # the surgeries cut the held hexacarpet, so each level's
            # hexacarpet is built once
            held = (self.graph("hexacarpet", n),) if family in ("cut", "short") else ()
            self._graphs[key] = BUILDERS[family](self.C, n, *held)
        return self._graphs[key]

    def result(self, family, n):
        key = (family, n)
        if key not in self._results:
            self._results[key] = effective_resistance(self.graph(family, n))
        return self._results[key]

    def R(self, n):
        return self.result("hexacarpet", n).resistance

    def RT(self, n):
        return self.result("skeleton", n).resistance

    def R_hat(self, n):
        return cut_resistance_formula(strand_lengths(n).tolist())

    def R_tilde(self, n):
        return self.result("short", n).resistance


# -- duality ------------------------------------------------------------


def verify_duality(cache: LevelCache, levels, tol=1e-8):
    """R(n) * RT(n) = 1 per level; returns (n, R, RT, product, ok) rows."""
    rows = []
    for n in levels:
        R, RT = cache.R(n), cache.RT(n)
        prod = R * RT
        rows.append((n, R, RT, prod, abs(prod - 1.0) <= tol))
    return rows


# -- symmetrized unit flows --------------------------------------------


def hex_pullback(cache: LevelCache, n, J, elem):
    """Flow pullback (J o g)[(t, e)] = J[(g t, g e)] on the hexacarpet.

    Incidence edges are canonically triangle -> edge-vertex, and the
    symmetry preserves that typing, so no orientation signs appear.
    """
    C = cache.C
    sides = C.edge_images(elem, n)[C.tri_edges[n]]
    return J[incidence_positions(C, n, C.tri_images(elem, n), sides).ravel()]


def unit_flow(cache: LevelCache, n):
    """The unit current of the standard problem.

    The terminal pair (sides {0,1} versus {3,4}) is preserved by s2 and
    reversed by r3 and s5.  The solve works in the subspace of
    potentials with exactly that symmetry, so the returned flow is
    invariant under s2 and odd under r3 and s5 bit for bit.
    """
    return cache.result("hexacarpet", n).flow


def side_flows(cache: LevelCache, n):
    """Unit flows between the sides of the original triangle on the
    level-n hexacarpet, as a (3, 3, edges) array.

    K[s, d] joins side s to side d, sides in the level-0 tri_edges order
    (ab, ac, bc), whose arcs are hexagon sides {0,1}, {4,5} and {2,3}:
    check_flow(G, K[s, d], arc of s, arc of d) is 1.  K[s, s] is 0.

    K[0, 1] is the symmetrized standard flow on the upper half-plane
    (the triangles inside the level-1 cells on sides 0-2, which the
    horizontal axis bounds) and its vertical-mirror pullback on the
    lower half; divergence cancels along the seam because the standard
    flow is odd under the half turn.  The six symmetries keeping the
    original triangle carry it onto the other five, each of energy R(n):
    g sends the flow from ab to ac to the flow from g ab to g ac, side
    (a, b) being slot a + b - 1.
    """
    C = cache.C
    G = cache.graph("hexacarpet", n)
    I = unit_flow(cache, n)
    mirror = hex_pullback(cache, n, I, S3)
    # the level-n triangles inside the level-1 cells on sides 0-2
    cells = np.flatnonzero(np.isin(CELL_SIDES, (0, 1, 2)))
    for k in range(1, n):
        cells = C.tri_children[k][cells].ravel()
    upper = np.zeros(len(C.tri_edges[n]), dtype=bool)
    upper[cells] = True
    H02 = np.where(upper[G.us], I, mirror)
    if abs(check_flow(G, H02, G.boundary["A"], G.symmetry.vertices_on((4, 5))) - 1) > UNIT_TOL:
        raise AssertionError("the side flow is not a unit flow")

    K = np.zeros((3, 3, G.m))
    for g in dihedral_elements():
        a, b, c = C.vertex_map(g, 1)[:3]
        if sorted((a, b, c)) == [0, 1, 2]:
            sides = C.edge_images(g, n)[C.tri_edges[n]]
            pos = incidence_positions(C, n, C.tri_images(g, n), sides)
            K[a + b - 1, a + c - 1, pos.ravel()] = H02
    return K


def arc_flows(cache: LevelCache, n):
    """Unit flows from the side-{0,1} arc to each adjacent arc: H01 to
    sides {2,3} and H02 to sides {4,5}, as K[0, 2] and K[0, 1] of
    side_flows."""
    K = side_flows(cache, n)
    return K[0, 2], K[0, 1]


# -- Y-decomposition and flow composition -------------------------------


@dataclass
class YDecomposition:
    """Per-triangle branch currents of the symmetrized unit flow.

    For triangle x, slot[x] = (s0, s1, s2) are the slots in
    tri_edges[m][x] of its three sides, the through side first, and
    a[x] = (a0, a1, a2) are the currents from x into those edge
    vertices.  They sum to zero, a1 and a2 share a sign, and the
    dissipation identity sum(a^2) / 2 = R(m) holds because every
    incidence has resistance 1/2 and belongs to exactly one triangle.
    """

    level: int
    a: np.ndarray
    slot: np.ndarray

    def energy(self):
        return float(np.sum(self.a ** 2) / 2.0)


def y_decomposition(cache: LevelCache, m):
    # the hexacarpet lists triangle x's incidences at 3x..3x+2, in the
    # order of tri_edges[m][x] (graphs.incidence_positions)
    raw = unit_flow(cache, m).reshape(-1, 3)
    # branch currents sit far above solver noise or are true zeros;
    # snapping the noise makes the sign invariants exact
    scale = float(np.abs(raw).max())
    vals = np.where(np.abs(raw) < ZERO_TOL * scale, 0.0, raw)
    # the through side is the odd sign out: the one whose removal
    # leaves a same-signed pair; ties resolve to the smallest edge id
    same = np.stack(
        [vals[:, j] * vals[:, k] >= 0.0 for j, k in ((1, 2), (0, 2), (0, 1))],
        axis=1,
    )
    none = np.nonzero(~same.any(axis=1))[0]
    if len(none):
        x = int(none[0])
        raise AssertionError(f"no through side at triangle {x}: {vals[x].tolist()}")
    order = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1]])[same.argmax(axis=1)]
    # incidence j is side slot j, so the slots are the order itself
    return YDecomposition(m, np.take_along_axis(vals, order, axis=1), order)


@dataclass
class ComposedFlow:
    m: int
    n: int
    flow: np.ndarray
    max_divergence: float
    flux: float
    energy: float
    bound: float


def compose_flow(cache: LevelCache, m, n):
    """Splice side flows of level n into the level-m flow skeleton.

    Every level-m triangle x carries branch currents (a0, a1, a2) on
    its sides (through, a1 side, a2 side).  Its embedding sends original
    side slot k (ab, ac, bc) to x's side tri_edges[m][x, k], so with t,
    j1, j2 the slots of those three sides, Y.slot[x], the refinement of
    x gets a1 * K[t, j1] + a2 * K[t, j2] of side_flows.  Currents then
    match across cell interfaces (the arcs all carry one symmetric flux
    profile), producing a unit flow on level m+n whose energy is at
    most 4/3 R(m) R(n): the certificate for the upper resistance bound.
    A slot names one of x's own sides by construction; a slot repeated
    on a branch that carries current leaves divergence off the
    terminals, which the flow check refuses with NotAFlowError.
    """
    C = cache.C
    Y = y_decomposition(cache, m)
    K = side_flows(cache, n)
    Gf = cache.graph("hexacarpet", m + n)
    es, ts = C.embed(m, n)
    t, j1, j2 = Y.slot.T

    # row x: the level-n incidences its embedding carries into x
    try:
        pos = incidence_positions(C, m + n, ts, es[:, C.tri_edges[n]]).ravel()
    except KeyError:
        raise AssertionError("cells do not tile the fine incidences") from None
    # a1, a2 count current leaving x through its branch sides, while
    # the side flows deposit into their source arc, so the splice flips
    # sign to keep the fine flow coarse-oriented: -(a1 K1 + a2 K2), in
    # place and negated last, so that a zero product keeps its sign
    spliced = K[t, j1]
    spliced *= Y.a[:, 1:2]
    term = K[t, j2]
    term *= Y.a[:, 2:3]
    del K
    spliced += term
    del term
    np.negative(spliced, out=spliced)
    J = np.zeros(Gf.m)
    J[pos] = spliced.ravel()
    del spliced, pos

    fl, div, free = _checked_flow(Gf, J, Gf.boundary["A"], Gf.boundary["B"])
    maxdiv = float(np.abs(div[free]).max())
    del div, free
    E = dissipation(Gf, J)
    return ComposedFlow(
        m, n, J, maxdiv, fl, E, 4.0 / 3.0 * cache.R(m) * cache.R(n)
    )


# -- potential decomposition -------------------------------------------


@dataclass
class PotentialDecomposition:
    """Slice potentials of the skeleton problem in the rotated frame.

    phi is harmonic on the level-n skeleton with value 0 on the side-0
    chain and 1 on the side-3 chain: the cached standard potential
    turned by r4, so nothing is solved here.  It is exactly invariant
    under s1, the reflection fixing both chains.
    u, v, w are its pullbacks to level n-1 under the cell maps of the
    slices at angles 0-60, 60-120 and 300-360: the embeddings of level
    n-1 in the level-1 triangles on sides 0, 1 and 5, after the turn r4,
    which sends p0 to p2 and so to the center of the hexagon.
    Energy splits as E(phi) = 2 E(u) + 4 E(v) with E(u, v - w) = 0, and
    E(phi) equals the reciprocal skeleton resistance.
    """

    level: int
    E_phi: float
    E_u: float
    E_v: float
    E_w: float
    cross: float
    sym_u: float
    sym_vw: float


def potential_decomposition(cache: LevelCache, n):
    C = cache.C
    G = cache.graph("skeleton", n)
    # r4 sends side 2 to side 0 and side 5 to side 3
    phi = np.empty(G.n)
    phi[C.vertex_map(("r", 4), n)] = cache.result("skeleton", n).potential

    Gm = cache.graph("skeleton", n - 1)
    # the level-1 triangles on sides 0, 1 and 5.  The embedding keeps
    # the vertex order, so it sends each end of a level-(n-1) edge to
    # the same end of its image, and every vertex ends some edge.
    es = C.embed(1, n - 1)[0][np.argsort(CELL_SIDES)[[0, 1, 5]]]
    vm = np.empty((3, Gm.n), dtype=np.int32)
    vm[:, C.edges[n - 1]] = C.edges[n][es]
    u, v, w = phi[vm[:, C.vertex_map(("r", 4), n - 1)]]
    sigma = C.vertex_map(S0, n - 1)
    sym_u = float(np.abs(u - u[sigma]).max())
    sym_vw = float(np.abs(w - v[sigma]).max())

    return PotentialDecomposition(
        n,
        energy(G, phi),
        energy(Gm, u),
        energy(Gm, v),
        energy(Gm, w),
        energy(Gm, u, v - w),
        sym_u,
        sym_vw,
    )


# -- multiplicative bounds ---------------------------------------------


def verify_supermultiplicative(cache: LevelCache, max_total, tol=1e-8):
    """All four product inequalities for every split m + n <= max_total.

    Upper: R(m+n) <= 4/3 R(m) R(n), equivalently RT super to factor 3/4.
    Lower: R(m+n) >= 1/2 R(m) R(n), equivalently RT(m+n) <= 2 RT RT.
    """
    rows = []
    for total in range(2, max_total + 1):
        for m in range(1, total // 2 + 1):
            n = total - m
            R, Rm, Rn = cache.R(total), cache.R(m), cache.R(n)
            T, Tm, Tn = cache.RT(total), cache.RT(m), cache.RT(n)
            rows.append(
                {
                    "m": m,
                    "n": n,
                    "upper": R <= 4.0 / 3.0 * Rm * Rn + tol,
                    "lower": R >= 0.5 * Rm * Rn - tol,
                    "t_upper": T <= 2.0 * Tm * Tn + tol,
                    "t_lower": T >= 0.5 * Tm * Tn - tol,
                    "R": R,
                    "RmRn": Rm * Rn,
                    "T": T,
                    "TmTn": Tm * Tn,
                }
            )
    return rows


def cut_report(cache: LevelCache, max_level):
    """Severed-graph checks per level: strand inventory, exact formula
    versus solver, and the (3/2)^n upper bounds.  Each level's cut graph
    is walked once, and its strands must be Stern's strand_lengths(n)."""
    rows = []
    for n in range(1, max_level + 1):
        cut = cache.graph("cut", n)
        lengths = cut_path_lengths(cache.C, n, cut)
        if lengths != strand_lengths(n).tolist():
            raise FamilyError(f"the level-{n} cut strands are not Stern's sequence")
        hat = cache.R_hat(n)
        solved = cache.result("cut", n).resistance
        R = cache.R(n)
        # severing edges can only raise resistance between the same
        # terminal pair (sides {0,1} to {4,5})
        uncut = effective_resistance(
            cache.graph("hexacarpet", n), A=cut.boundary["A"], B=cut.boundary["B"]
        ).resistance
        rows.append(
            {
                "n": n,
                "lengths": lengths,
                "strands": len(lengths),
                "triangles": sum(lengths),
                "R_hat": hat,
                "R_hat_solver": solved,
                "formula_gap": abs(float(hat) - solved),
                "hat_le_pow": float(hat) <= 1.5 ** n + CUT_TOL,
                "R_le_pow": R <= 1.5 ** n + CUT_TOL,
                "monotone": solved >= uncut - CUT_TOL,
                "step_ratio": (
                    cache.R(n) <= 1.5 * cache.R(n - 1) + CUT_TOL if n > 1 else True
                ),
            }
        )
    return rows


def short_report(cache: LevelCache, max_level):
    """Shorted-quotient checks: R_tilde grows by almost exactly 5/4 per
    level and lower-bounds R from below."""
    rows = []
    for n in range(1, max_level + 1):
        rt = cache.R_tilde(n)
        ratio = rt / cache.R_tilde(n - 1) if n > 1 else None
        rows.append(
            {
                "n": n,
                "R_tilde": rt,
                "le_R": rt <= cache.R(n) + SHORT_TOL,
                "ratio": ratio,
                "ratio_ok": n == 1 or abs(ratio - 1.25) <= RATIO_TOL,
            }
        )
    # constant for the (5/4)^n lower bound R >= c (5/4)^n
    c = min(cache.R_tilde(k) * 0.8 ** k for k in range(1, max_level + 1))
    return rows, c


# -- tables -------------------------------------------------------------


def _csv_cell(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def csv_text(header, rows):
    """The header line, then one line per row.  Every table is written
    through here: floats as %.17g, bools as true/false, None (a missing
    value) as an empty cell, anything else as str."""
    return "\n".join([header, *(",".join(map(_csv_cell, r)) for r in rows)]) + "\n"


# -- scaling exponents --------------------------------------------------


def spectral_dimension(rho):
    """d_S = 2 log 6 / log(6 rho)."""
    return 2.0 * math.log(6.0) / math.log(6.0 * rho)


def step_ratios(xs):
    """The ratios x(n) / x(n - 1) of successive values."""
    return [b / a for a, b in zip(xs, xs[1:])]


def extrapolate(ratios):
    """The limit of a sequence of step ratios r_n by Aitken's delta
    squared (Brezinski and Redivo Zaglia, Extrapolation Methods, 1991).

    With the differences d_n = r_n - r_{n-1}, each r_n with two
    differences behind it gives the limit r_n - d_n^2 / (d_n - d_{n-1}),
    which is exact for r_n = L + c q^n.  Returns a dict: the ratios as
    given, q, the last ratio d_n / d_{n-1} of successive differences,
    the last limit, and the gap between the last two limits as its
    error; each is None where the sequence is too short for it or a
    denominator vanishes.
    """
    r = [float(x) for x in ratios]
    d = [b - a for a, b in zip(r, r[1:])]
    limits = [
        x - dn * dn / (dn - dp) if dn != dp else None
        for x, dp, dn in zip(r[2:], d, d[1:])
    ]
    last = limits[-2:]
    return {
        "ratios": r,
        "q": d[-1] / d[-2] if len(d) >= 2 and d[-2] else None,
        "limit": last[-1] if last else None,
        "error": abs(last[1] - last[0]) if len(last) == 2 and None not in last else None,
    }


@dataclass
class ScalingReport:
    levels: list
    R: list
    RT: list
    R_hat: list
    R_tilde: list
    rho_fit: float
    rho_T_fit: float
    d_S: float

    def ratios(self):
        """The step ratios R(n) / R(n - 1), None at the first level."""
        return [None] + step_ratios(self.R)

    def to_csv_text(self):
        rows = []
        ratios = self.ratios()
        for i, n in enumerate(self.levels):
            fit = rho_fit_upto(self.levels, self.R, n)
            ds = spectral_dimension(fit) if fit is not None else None
            rows.append(
                [n, self.R[i], self.RT[i], self.R[i] * self.RT[i],
                 self.R_hat[i], self.R_tilde[i], ratios[i], fit, ds]
            )
        return csv_text(
            "n,R_n,R_n_T,product,R_hat,R_tilde,ratio,fit_rho,d_S", rows
        )

    def to_json_dict(self):
        return {
            "levels": self.levels,
            "R": self.R,
            "RT": self.RT,
            "R_hat": self.R_hat,
            "R_tilde": self.R_tilde,
            "ratio": self.ratios(),
            "rho_fit": self.rho_fit,
            "rho_T_fit": self.rho_T_fit,
            "rho_product": (
                self.rho_fit * self.rho_T_fit if self.rho_fit is not None else None
            ),
            "d_S": self.d_S,
            "extrapolation": {
                "R": extrapolate(step_ratios(self.R)),
                "RT": extrapolate(step_ratios(self.RT)),
            },
        }


def flux_profile(cache: LevelCache, max_level):
    """The exit flux of the unit current along the hexacarpet's A arc,
    levels 1..max_level, as a dict of per-level lists and three limits.

    At level n the profile p is the divergence of the standard unit
    flow on the arc's 2^n edge vertices, read off the side table in arc
    order as cut_path_lengths reads it, and normalised to sum 1.  Per
    level: kl, the KL divergence of p from uniform in nats; gain,
    kl_n - kl_{n-1}; max and min, the extreme entries of p times 2^n;
    l1, the L1 distance between the 4-bin profiles of levels n and
    n - 1; mirror, whether p equals p reversed bit for bit.  Then
    extrapolation, extrapolate over the gains; information_dimension,
    1 - its limit / ln 2; and q, the last ratio of successive l1.  A
    value a level does not have yet is None.
    """
    doc = {k: [] for k in ("levels", "kl", "gain", "max", "min", "l1", "mirror")}
    bins = None
    for n in range(1, max_level + 1):
        G = cache.graph("hexacarpet", n)
        arc = np.concatenate([G.symmetry.sides[0], G.symmetry.sides[1][::-1]])
        p = divergence(G, cache.result("hexacarpet", n).flow)[arc]
        p /= p.sum()
        kl = float(np.sum(p * np.log(p * len(p))))
        last = bins
        if n > 1:
            bins = p.reshape(4, -1).sum(axis=1)
        doc["levels"].append(n)
        doc["gain"].append(kl - doc["kl"][-1] if n > 1 else None)
        doc["kl"].append(kl)
        doc["max"].append(float(p.max() * len(p)))
        doc["min"].append(float(p.min() * len(p)))
        doc["l1"].append(float(np.abs(bins - last).sum()) if n > 2 else None)
        doc["mirror"].append(bool(np.array_equal(p, p[::-1])))
    fit = extrapolate(doc["gain"][1:])
    l1 = doc["l1"][2:]
    return {
        **doc,
        "extrapolation": fit,
        "information_dimension": (
            1 - fit["limit"] / math.log(2) if fit["limit"] is not None else None
        ),
        "q": l1[-1] / l1[-2] if len(l1) >= 2 and l1[-2] else None,
    }


def rho_fit_upto(levels, R, n):
    """Least-squares growth rate of log R over levels 2..n (n >= 3)."""
    xs = [lv for lv in levels if 2 <= lv <= n]
    if len(xs) < 2:
        return None
    ys = [math.log(R[levels.index(lv)]) for lv in xs]
    slope = np.polyfit(np.array(xs, dtype=float), np.array(ys), 1)[0]
    return float(np.exp(slope))


def estimate_rho(cache: LevelCache, max_level, short_max=None):
    """Resistance sweep and growth-rate fit over levels 1..max_level.

    Level 1 is excluded from the fit (boundary effects dominate the
    first subdivision); the fitted rate uses levels 2..max_level.
    """
    if short_max is None:
        short_max = min(max_level, SHORT_MAX_LEVEL)
    levels = list(range(1, max_level + 1))
    R = [cache.R(n) for n in levels]
    RT = [cache.RT(n) for n in levels]
    hats = [float(cache.R_hat(n)) for n in levels]
    tildes = [
        cache.R_tilde(n) if n <= short_max else None for n in levels
    ]
    rho = rho_fit_upto(levels, R, max_level)
    rho_T = rho_fit_upto(levels, RT, max_level)
    dS = spectral_dimension(rho) if rho is not None else None
    return ScalingReport(levels, R, RT, hats, tildes, rho, rho_T, dS)

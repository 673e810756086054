"""Acceptance gate: every headline claim at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s or -v to see them all
live).  The module-scoped cache shares one complex and one solve sweep
across the criteria; the whole file is budgeted to run in well under
five minutes.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hexacarpet.analysis import (
    LevelCache,
    compose_flow,
    cut_report,
    estimate_rho,
    potential_decomposition,
    short_report,
    spectral_dimension,
    verify_supermultiplicative,
)
from hexacarpet.cli import main
from hexacarpet.graphs import WeightedGraph, quotient
from hexacarpet.network import (
    dissipation,
    divergence,
    effective_resistance,
    gradient,
    oracle_resistance,
    verify_thompson,
)
from test_graphs import drop_edges

MAX_LEVEL = 6
DUALITY_BUDGET_S = 300.0


@pytest.fixture(scope="module")
def cache():
    return LevelCache()


def verdict(tag, ok, detail):
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"{tag}: {detail}"


def test_01_duality(cache):
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, MAX_LEVEL + 1):
        worst = max(worst, abs(cache.R(n) * cache.RT(n) - 1.0))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt <= DUALITY_BUDGET_S
    verdict(
        "01 duality R*RT=1 (n=1..6)", ok,
        f"max|R*RT-1|={worst:.2e}, {dt:.1f}s",
    )


def test_02_resistance_exponent(cache):
    rep = estimate_rho(cache, MAX_LEVEL)
    rho, rho_T = rep.rho_fit, rep.rho_T_fit
    ok = (
        1.29 <= rho <= 1.32
        and 1.25 - 0.01 <= rho <= 1.5 + 0.01
        and abs(rho * rho_T - 1.0) <= 1e-6
    )
    verdict(
        "02 exponent fit (levels 2..6)", ok,
        f"rho={rho:.6f}, rho_T={rho_T:.6f}, product-1={rho*rho_T-1:.2e}",
    )


def test_03_spectral_dimension_formula():
    checks = [
        (1.306, 1.7406, 5e-4),
        (1.5, 1.631, 1e-3),
        (1.25, 1.778, 1e-3),
    ]
    gaps = [abs(spectral_dimension(r) - want) for r, want, _ in checks]
    ok = all(g <= tol for g, (_, _, tol) in zip(gaps, checks))
    verdict(
        "03 spectral dimension formula", ok,
        "gaps=" + ", ".join(f"{g:.1e}" for g in gaps),
    )


def test_04_multiplicative_bounds(cache):
    rows = verify_supermultiplicative(cache, MAX_LEVEL, tol=1e-8)
    worst_up = max(r["R"] - 4.0 / 3.0 * r["RmRn"] for r in rows)
    worst_lo = max(0.5 * r["RmRn"] - r["R"] for r in rows)
    ok = all(r["upper"] and r["lower"] for r in rows)
    verdict(
        "04 product bounds (m+n<=6)", ok,
        f"{len(rows)} splits, upper slack={-worst_up:.3f}, "
        f"lower slack={-worst_lo:.3f}",
    )


def test_05_composed_flow(cache):
    cf = compose_flow(cache, 2, 2)
    ok = (
        cf.max_divergence <= 1e-9
        and abs(cf.flux - 1.0) <= 1e-8
        and cf.energy <= cf.bound + 1e-8
        and cache.R(4) <= cf.energy + 1e-8
    )
    verdict(
        "05 spliced flow (2,2)", ok,
        f"maxdiv={cf.max_divergence:.1e}, flux={cf.flux:.9f}, "
        f"E={cf.energy:.6f} <= {cf.bound:.6f}, R4={cache.R(4):.6f}",
    )


def test_06_potential_decomposition(cache):
    gaps = []
    ok = True
    for n in (2, 3, 4):
        P = potential_decomposition(cache, n)
        cross_rel = abs(P.cross) / P.E_u
        split_gap = abs(1.0 / cache.RT(n) - 2 * P.E_u - 4 * P.E_v)
        ok = ok and cross_rel <= 1e-8 and split_gap <= 1e-8
        gaps.append(f"n={n}: cross={cross_rel:.1e}, split={split_gap:.1e}")
    verdict("06 slice potentials (n=2,3,4)", ok, "; ".join(gaps))


def test_07_cut_bounds(cache):
    rows = cut_report(cache, MAX_LEVEL)
    ok = rows[0]["lengths"] == [2, 4]
    worst_gap = 0.0
    for r in rows:
        ok = ok and r["triangles"] == 6 ** r["n"]
        ok = ok and r["formula_gap"] <= 1e-9
        ok = ok and r["hat_le_pow"] and r["R_le_pow"]
        worst_gap = max(worst_gap, r["formula_gap"])
    verdict(
        "07 severed strands (n<=6)", ok,
        f"l1={rows[0]['lengths']}, max formula gap={worst_gap:.1e}, "
        f"R_hat6={float(rows[-1]['R_hat']):.4f} <= {1.5 ** 6:.4f}",
    )


def test_08_short_bounds(cache):
    rows, _ = short_report(cache, 5)
    ratios = [r["ratio"] for r in rows if r["n"] >= 3]
    ok = all(r["le_R"] for r in rows) and all(
        abs(x - 1.25) <= 1e-3 for x in ratios
    )
    verdict(
        "08 shorted quotient (n<=5)", ok,
        "ratios=" + ", ".join(f"{x:.6f}" for x in ratios),
    )


def _random_graph(rng, n, extra):
    us, vs = [], []
    for v in range(1, n):
        us.append(int(rng.integers(0, v)))
        vs.append(v)
    have = set(zip(us, vs))
    for _ in range(extra * 6):
        if len(us) >= n - 1 + extra:
            break
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v and (u, v) not in have:
            have.add((u, v))
            us.append(u)
            vs.append(v)
    cond = [
        Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        for _ in us
    ]
    return WeightedGraph(n, us, vs, cond, {"A": {0}, "B": {n - 1}})


def test_09_network_calculus(cache):
    rng = np.random.default_rng(2024)
    # adjointness and the energy chain at machine precision
    worst = 0.0
    for _ in range(25):
        G = _random_graph(rng, int(rng.integers(6, 30)), 5)
        f = rng.normal(size=G.n)
        J = rng.normal(size=G.m)
        lhs = dissipation(G, gradient(G, f), J)
        rhs = -float(np.sum(f * divergence(G, J)))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        r = oracle_resistance(G)
        worst = max(worst, abs(r.resistance * r.energy - 1.0))
        worst = max(
            worst,
            abs(dissipation(G, r.flow) - r.resistance) / r.resistance,
        )
    ok = worst < 1e-12

    # Thompson: 100 random cycle perturbations around the level-2 flow
    res2 = cache.result("hexacarpet", 2)
    n_checked = verify_thompson(
        cache.graph("hexacarpet", 2), res2, trials=100, seed=5
    )
    ok = ok and n_checked == 100

    # Rayleigh monotonicity under edge removal and vertex fusion
    mono = 0
    for _ in range(50):
        G = _random_graph(rng, int(rng.integers(8, 24)), 6)
        R0 = oracle_resistance(G).resistance
        drop = rng.choice(G.m, size=2, replace=False)
        sub = drop_edges(G, list(drop))
        Rs = oracle_resistance(sub).resistance
        interior = list(range(1, G.n - 1))
        u, v = rng.choice(interior, size=2, replace=False)
        find = np.arange(G.n)
        find[v] = u
        fused = quotient(G, find)
        Rq = oracle_resistance(fused).resistance
        if Rs >= R0 - 1e-10 and Rq <= R0 + 1e-10:
            mono += 1
    ok = ok and mono == 50

    # direct solver against the dense oracle on every small graph
    corpus, worst_direct = 0, 0.0
    for family in ("skeleton", "dual", "hexacarpet", "cut", "short"):
        for n in range(1, MAX_LEVEL + 1):
            G = cache.graph(family, n)
            if G.n > 2000:
                break
            a = effective_resistance(G)
            b = oracle_resistance(G)
            worst_direct = max(
                worst_direct, abs(a.resistance - b.resistance) / b.resistance
            )
            corpus += 1
    ok = ok and worst_direct <= 1e-9
    verdict(
        "09 network calculus core", ok,
        f"identity err={worst:.1e}, thompson=100, monotone={mono}/50, "
        f"direct-vs-dense on {corpus} graphs, worst={worst_direct:.1e}",
    )


def test_10_csv_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1 = main(["rho", "--max-level", "5", "--out", str(out1)])
    code2 = main(["rho", "--max-level", "5", "--out", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and same
    verdict(
        "10 sweep determinism", ok,
        f"two rho runs to level 5, byte-identical={same}",
    )

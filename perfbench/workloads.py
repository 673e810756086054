"""The three benchmark workloads, written against the public library API.

Each workload gets a LevelCache whose complex is already built to
SIZES[name][size]["top"] (that is the set-up), a Checker, a seeded
random.Random and an output directory.  The seed only permutes the
order of independent calls; no output depends on it.

rho6     what `hexacarpet rho --max-level 6 --format csv` computes:
         hexacarpet and skeleton solves at 1..6, the cut strand formula
         at 1..6, short solves at 1..5, the fit and the CSV.  Mostly
         `network` (hexacarpet CG at 5..6) and `graphs.cut_path_lengths`.
certify  the flow and potential certificates: compose_flow for every
         split m+n=6, potential_decomposition at 2..6, cut_report and
         short_report to 5, verify_thompson at 4.  Mostly `analysis`
         and the `subdivision` maps (per-edge Python loops).
deep7    the deepest level that fits comfortably: build the level-7
         complex, the skeleton, hexacarpet and dual graphs, solve the
         skeleton and export the hexacarpet edge list (14.8 MB).
         Mostly `subdivision` construction, `graphs` building, `cli`
         output and memory.
"""

from __future__ import annotations

import hashlib
import os

from hexacarpet import analysis, graphs, network

SIZES = {
    "rho6": {
        "full": {"top": 6, "short_max": 5},
        "smoke": {"top": 3, "short_max": 3},
    },
    "certify": {
        "full": {"top": 6, "total": 6, "pd": (2, 6), "report": 5, "thompson": 4},
        "smoke": {"top": 4, "total": 4, "pd": (2, 4), "report": 3, "thompson": 2},
    },
    "deep7": {
        "full": {"top": 7},
        "smoke": {"top": 4},
    },
}

FAMILIES_DEEP = ("skeleton", "hexacarpet", "dual")


def write_output(text, path):
    """The output stage: write text to path, return the bytes written."""
    data = text.encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _written(path, text):
    # the byte count itself is not compared: %.17g floats may change
    # length in the last bits (the edge list is checked by its hash)
    return lambda nbytes: {"on_disk": os.path.getsize(path) == nbytes == len(text.encode())}


def _csv_rows(text):
    """CSV text as its header and rows of numbers; empty fields become None."""
    lines = text.splitlines()
    rows = [
        [int(f) if i == 0 else (float(f) if f else None) for i, f in enumerate(line.split(","))]
        for line in lines[1:]
    ]
    return {"header": lines[0], "rows": rows}


def rho6(cache, chk, rng, out_dir, top, short_max):
    levels = list(range(1, top + 1))
    jobs = _shuffled(rng, [(f, n) for f in ("hexacarpet", "skeleton") for n in levels])
    # graphs are built serially before any solve, as `hexacarpet rho` does
    for f, n in jobs:
        cache.graph(f, n)
    for f, n in jobs:
        chk.op(
            f"resistance {f} {n}",
            lambda: cache.result(f, n),
            lambda r: {"R": r.resistance},
        )
    for n in _shuffled(rng, levels):
        chk.op(f"R_hat {n}", lambda: cache.R_hat(n))
    for n in _shuffled(rng, range(1, short_max + 1)):
        chk.op(f"R_tilde {n}", lambda: cache.R_tilde(n))
    chk.op(
        "verify_duality",
        lambda: analysis.verify_duality(cache, levels),
        lambda rows: {"ok": [r[4] for r in rows]},
    )
    rep = chk.op(
        "estimate_rho",
        lambda: analysis.estimate_rho(cache, top, short_max=short_max),
        lambda rep: {"rho_fit": rep.rho_fit, "rho_T_fit": rep.rho_T_fit, "d_S": rep.d_S},
    )
    text = chk.op("to_csv_text", rep.to_csv_text, _csv_rows) if rep else None
    if text is not None:
        path = os.path.join(out_dir, "rho.csv")
        chk.op("write csv", lambda: write_output(text, path), _written(path, text))


def certify(cache, chk, rng, out_dir, top, total, pd, report, thompson):
    for m, n in _shuffled(rng, [(m, total - m) for m in range(1, total)]):
        chk.op(
            f"compose_flow {m},{n}",
            lambda: analysis.compose_flow(cache, m, n),
            lambda cf: {
                "energy": cf.energy,
                "bound": cf.bound,
                "div_ok": cf.max_divergence <= 1e-9,
                "flux_ok": abs(cf.flux - 1.0) <= 1e-8,
                "bound_ok": cf.energy <= cf.bound + 1e-8,
            },
        )
    for n in _shuffled(rng, range(pd[0], pd[1] + 1)):
        chk.op(
            f"potential_decomposition {n}",
            lambda: analysis.potential_decomposition(cache, n),
            lambda P: {
                "E_phi": P.E_phi,
                "E_u": P.E_u,
                "E_v": P.E_v,
                "cross_ok": abs(P.cross) / P.E_u <= 1e-8,
                "split_ok": abs(1.0 / cache.RT(P.level) - 2 * P.E_u - 4 * P.E_v) <= 1e-8,
            },
        )
    chk.op(
        "cut_report",
        lambda: analysis.cut_report(cache, report),
        lambda rows: [
            {
                "n": r["n"],
                "lengths": r["lengths"],
                "R_hat": r["R_hat"],
                "R_hat_solver": r["R_hat_solver"],
                "gap_ok": r["formula_gap"] <= 1e-9,
                "triangles_ok": r["triangles"] == 6 ** r["n"],
                "hat_le_pow": r["hat_le_pow"],
                "R_le_pow": r["R_le_pow"],
                "monotone": r["monotone"],
                "step_ratio": r["step_ratio"],
            }
            for r in rows
        ],
    )
    chk.op(
        "short_report",
        lambda: analysis.short_report(cache, report),
        lambda out: {"rows": out[0], "c": out[1]},
    )
    chk.op(
        f"verify_thompson hexacarpet {thompson}",
        lambda: network.verify_thompson(
            cache.graph("hexacarpet", thompson),
            cache.result("hexacarpet", thompson),
            trials=100,
            seed=rng.randrange(2 ** 32),
        ),
    )


def deep7(cache, chk, rng, out_dir, top):
    for f in _shuffled(rng, FAMILIES_DEEP):
        chk.op(
            f"build {f} {top}",
            lambda: cache.graph(f, top),
            lambda G: {"n": G.n, "m": G.m, "A": len(G.boundary["A"]), "B": len(G.boundary["B"])},
        )
    chk.op(
        f"resistance skeleton {top}",
        lambda: cache.result("skeleton", top),
        lambda r: {"R": r.resistance},
    )
    text = chk.op(
        f"to_edgelist hexacarpet {top}",
        lambda: graphs.to_edgelist(cache.graph("hexacarpet", top)),
        lambda t: {"bytes": len(t), "sha256": hashlib.sha256(t.encode()).hexdigest()},
    )
    if text is not None:
        path = os.path.join(out_dir, "hexacarpet.edgelist")
        chk.op("write edgelist", lambda: write_output(text, path), _written(path, text))


WORKLOADS = {"rho6": rho6, "certify": certify, "deep7": deep7}

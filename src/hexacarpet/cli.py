"""Command line front end.

Subcommands:

  build       emit a level's graph (edgelist, dot) or complex (json)
  resistance  effective resistance of one family at one level
  rho         resistance sweep with growth-rate fit (csv or json)
  duality     check R * RT = 1 per level
  submult     check the multiplicative resistance bounds
  bounds      cut and short surgery estimates per level

Exit codes: 0 success / checks pass, 1 a verification verdict failed,
2 bad configuration or an unwritable --out (refused before anything is
built), 3 level exceeds the cap, 4 solver failure.  The environment
variable HEXACARPET_CAP overrides the default level cap.

CSV output is deterministic byte-for-byte across runs; wall-clock
timings appear only in JSON manifests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

import numpy as np
import scipy

from . import __version__
from .subdivision import DEFAULT_CAP, CapacityError
from .graphs import FamilyError, to_dot, to_edgelist
from .network import SolverError
from .analysis import (
    BUILDERS,
    SHORT_MAX_LEVEL,
    LevelCache,
    csv_text,
    cut_report,
    estimate_rho,
    flux_profile,
    short_report,
    spectral_dimension,
    verify_duality,
    verify_supermultiplicative,
)

FAMILIES = tuple(BUILDERS)


def _manifest(args, timings):
    return {
        "tool": "hexacarpet",
        "version": __version__,
        "command": args.command,
        "args": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("command", "fn")
        },
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "timings": timings,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _probe_out(path):
    """Raise OSError now if path cannot be opened for writing, leaving
    the file system as it was, so that an unwritable --out is refused
    before anything is built."""
    fresh = not os.path.lexists(path)
    with open(path, "a"):
        pass
    if fresh:
        os.remove(path)


def _emit(out, *texts):
    """Write the texts one after another to the file out, or to stdout
    when out is empty; they are not joined first."""
    if out:
        with open(out, "w") as fh:
            fh.writelines(texts)
    else:
        sys.stdout.writelines(texts)


def _report(args, csv, doc):
    """Emit a subcommand's result: the CSV text or the JSON document,
    as --format asks."""
    text = csv if args.format == "csv" else json.dumps(doc, indent=2) + "\n"
    _emit(args.out, text)


def _cache():
    return LevelCache(int(os.environ.get("HEXACARPET_CAP", DEFAULT_CAP)))


# -- subcommands --------------------------------------------------------


def cmd_build(args):
    cache = _cache()
    if args.format == "json":
        cache.C.ensure_level(args.level)
        _emit(args.out, cache.C.to_json(args.level), "\n")
        return 0
    G = cache.graph(args.family, args.level)
    text = to_edgelist(G) if args.format == "edgelist" else to_dot(G)
    _emit(args.out, text)
    return 0


def cmd_resistance(args):
    cache = _cache()
    t0 = time.perf_counter()
    G = cache.graph(args.family, args.level)
    t1 = time.perf_counter()
    res = cache.result(args.family, args.level)
    t2 = time.perf_counter()
    # disconnected terminals exit 4 and the direct solve does not
    # iterate; the columns stay so the table keeps its shape
    row = [args.family, args.level, res.resistance, False, 0]
    doc = {
        "family": args.family,
        "level": args.level,
        "resistance": res.resistance,
        "disconnected": False,
        "energy": res.energy,
        "iterations": 0,
        "residual": res.residual,
        "manifest": {
            **_manifest(args, {"build_s": t1 - t0, "solve_s": t2 - t1}),
            "solver": {
                "method": "direct",
                "unknowns": res.unknowns,
                "group_order": res.group_order,
                "factor_fill": res.factor_fill,
            },
        },
    }
    _report(
        args,
        csv_text("family,level,resistance,disconnected,iterations", [row]),
        doc,
    )
    return 0


def _sweep(compute):
    """A sweep subcommand: build the complex to --max-level, run
    compute(cache, args) -> (csv text, JSON document, ok), append the
    manifest to the document and report; exit 1 when a check failed."""

    def run(args):
        cache = _cache()
        t0 = time.perf_counter()
        cache.C.ensure_level(args.max_level)
        csv, doc, ok = compute(cache, args)
        doc["manifest"] = _manifest(args, {"total_s": time.perf_counter() - t0})
        _report(args, csv, doc)
        return 0 if ok else 1

    return run


def _rho(cache, args):
    rep = estimate_rho(cache, args.max_level)
    doc = rep.to_json_dict()
    rho_T = rep.rho_T_fit
    doc["meta"] = {
        "d_S_of_fit": rep.d_S,
        "d_S_upper_formula": spectral_dimension(1.5),
        "d_S_lower_formula": spectral_dimension(1.25),
        "d_S_skeleton_formula": (
            spectral_dimension(rho_T) if rho_T and 6 * rho_T > 1 else None
        ),
        "skeleton_note": (
            "the abstract's 2.38 endpoint is spectral_dimension(3/4) = 2.3825 "
            "and its 2.28 is spectral_dimension(4/5) = 2.2845; its stated "
            "end rho^T = 2/3 would give 2.585"
        ),
    }
    doc["flux"] = flux_profile(cache, args.max_level)
    return rep.to_csv_text(), doc, True


def _duality(cache, args):
    rows = verify_duality(cache, range(1, args.max_level + 1), tol=args.tol)
    ok = all(r[4] for r in rows)
    doc = {
        "rows": [
            {"n": n, "R": R, "RT": RT, "product": p, "ok": g}
            for n, R, RT, p, g in rows
        ],
        "pass": ok,
    }
    return csv_text("n,R_n,R_n_T,product,ok", rows), doc, ok


def _submult(cache, args):
    rows = verify_supermultiplicative(cache, args.max_level, tol=args.tol)
    ok = all(
        r["upper"] and r["lower"] and r["t_upper"] and r["t_lower"]
        for r in rows
    )
    csv = csv_text(
        "m,n,R_mn,R_m_R_n,upper_ok,lower_ok,t_upper_ok,t_lower_ok",
        [
            [r[k] for k in ("m", "n", "R", "RmRn", "upper", "lower",
                            "t_upper", "t_lower")]
            for r in rows
        ],
    )
    return csv, {"rows": rows, "pass": ok}, ok


def _bounds(cache, args):
    cuts = cut_report(cache, args.max_level)
    shorts, const = short_report(cache, min(args.max_level, SHORT_MAX_LEVEL))
    ok = all(
        r["hat_le_pow"] and r["R_le_pow"] and r["monotone"]
        and r["step_ratio"] and r["formula_gap"] <= args.tol
        for r in cuts
    ) and all(r["le_R"] and r["ratio_ok"] for r in shorts)
    tilde = {r["n"]: r for r in shorts}
    rows = []
    for r in cuts:
        s = tilde.get(r["n"], {})
        rows.append(
            [r["n"], r["strands"], float(r["R_hat"]), r["R_hat_solver"],
             s.get("R_tilde"), r["hat_le_pow"], r["R_le_pow"], r["monotone"],
             s.get("ratio_ok")]
        )
    doc = {
        "cut": [
            {
                **{k: v for k, v in r.items() if k != "R_hat"},
                "R_hat": [r["R_hat"].numerator, r["R_hat"].denominator],
            }
            for r in cuts
        ],
        "short": shorts,
        "lower_bound_constant": const,
        "pass": ok,
    }
    csv = csv_text(
        "n,strands,R_hat,R_hat_solver,R_tilde,hat_le_pow,R_le_pow,"
        "monotone,ratio_ok",
        rows,
    )
    return csv, doc, ok


# -- argument parsing ---------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="hexacarpet",
        description="resistance scaling on barycentric-subdivision graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="emit a graph or complex")
    b.add_argument("--family", required=True, choices=FAMILIES)
    b.add_argument("--level", type=int, required=True)
    b.add_argument(
        "--format", default="edgelist", choices=("edgelist", "dot", "json")
    )
    b.add_argument("--out", default=None)
    b.set_defaults(fn=cmd_build)

    r = sub.add_parser("resistance", help="solve one family at one level")
    r.add_argument("--family", required=True, choices=FAMILIES)
    r.add_argument("--level", type=int, required=True)
    r.add_argument("--format", default="json", choices=("csv", "json"))
    r.add_argument("--out", default=None)
    r.set_defaults(fn=cmd_resistance)

    for name, compute, helptext in [
        ("rho", _rho, "resistance sweep and growth-rate fit"),
        ("duality", _duality, "check R * RT = 1 per level"),
        ("submult", _submult, "check multiplicative bounds"),
        ("bounds", _bounds, "cut and short surgery estimates"),
    ]:
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--max-level", type=int, default=5)
        if compute is not _rho:  # the slack of checks; rho has none
            sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--format", default="csv", choices=("csv", "json"))
        sp.add_argument("--out", default=None)
        sp.set_defaults(fn=_sweep(compute))
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "level", 1) < 1 or getattr(args, "max_level", 1) < 1:
        parser.exit(2, "levels start at 1\n")
    # nan fails both comparisons
    if not 0 <= getattr(args, "tol", 0.0) < math.inf:
        parser.exit(2, "--tol must be a finite number >= 0\n")
    try:
        if args.out:
            _probe_out(args.out)
        return args.fn(args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver: {exc}", file=sys.stderr)
        return 4
    except (FamilyError, ValueError) as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

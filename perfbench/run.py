"""hexacarpet benchmark: run one workload in fresh single-threaded processes.

Run from the root of a checkout (it builds nothing; the program is the
checkout's `src/hexacarpet`):

    python3 perfbench/run.py --workload rho6 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25     # every workload, table
    python3 perfbench/run.py --workload certify --smoke      # small levels, seconds

Each workload process (see child.py) sets up, runs the workload once and
checks its outputs against reference.json.  Processes are started one
after another until --seconds have passed; then set-up-only processes
are added until there are at least SETUPS set-up samples.  Each metric
is the median over the processes of this run.

--trace 0 prints the end-to-end metrics run_s, setup_s and peak_rss_mb.
--trace 1 alternates untraced and traced processes and prints the
per-layer metrics of the traced ones (see tracer.py), plus
trace.overhead_frac.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A full record of
every process goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("rho6", "certify", "deep7")
SETUPS = 3  # set-up samples per run, for the median setup_s
BUDGET_S = 165.0  # a run must end well within 180 s
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "subdivision.build_s": "s",
    "subdivision.simplices": "count",
    "subdivision.rss_grow_mb": "MB",
    "subdivision.map_calls": "count",
    "subdivision.map_s": "s",
    "graphs.build_s": "s",
    "graphs.edges": "count",
    "graphs.rss_grow_mb": "MB",
    "graphs.cert_s": "s",
    "network.solve_s": "s",
    "network.solves": "count",
    "network.unknowns": "count",
    "network.cg_iters": "count",
    "network.max_residual": "ratio",
    "network.check_s": "s",
    "network.errors": "count",
    "analysis.errors": "count",
    "analysis.self_s": "s",
    "analysis.cache_hit_ratio": "ratio",
    "cli.emit_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_frac": "ratio",
}

# ROADMAP baseline rows the traced run reproduces: (label, workload,
# span name, family, level, ROADMAP seconds (low, high), CG iterations).
ROADMAP = [
    ("complex build, level 6", "rho6", "ensure_level", None, 6, (0.8, 1.0), None),
    ("complex build, level 7", "deep7", "ensure_level", None, 7, (5.7, 7.1), None),
    ("hexacarpet CG, level 5", "rho6", "effective_resistance", "hexacarpet", 5, (1.2, 1.4), 1029),
    ("hexacarpet CG, level 6", "rho6", "effective_resistance", "hexacarpet", 6, (4.0, 4.6), 2775),
    ("skeleton CG, level 7", "deep7", "effective_resistance", "skeleton", 7, None, 625),
    ("cut_path_lengths, level 6", "rho6", "cut_path_lengths", None, 6, (3.6, 3.6), None),
]


def environment(seed):
    """Machine facts recorded with every result."""
    def cache_size(level):
        base = "/sys/devices/system/cpu/cpu0/cache"
        try:
            for d in sorted(os.listdir(base)):
                with open(os.path.join(base, d, "level")) as fh:
                    lvl = fh.read().strip()
                with open(os.path.join(base, d, "type")) as fh:
                    kind = fh.read().strip()
                if lvl == str(level) and kind in ("Unified", "Data"):
                    with open(os.path.join(base, d, "size")) as fh:
                        return fh.read().strip()
        except OSError:
            pass
        return None

    mem = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem = line.split(":", 1)[1].strip()
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "l2": cache_size(2),
        "l3": cache_size(3),
        "mem_total": mem,
        "machine": platform.machine(),
        "threads_pinned": PINNED,
    }


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the child imports the checkout's src/ only
    env.update(PINNED)
    return env


def run_child(workload, seed, smoke, trace=False, setup_only=False, record=False,
              reference=REFERENCE, timeout=BUDGET_S):
    """One fresh process.  Returns its result dict, or None if it crashed."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--reference", reference]
    cmd += ["--smoke"] * smoke + ["--trace"] * trace + ["--setup-only"] * setup_only + ["--record"] * record
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"{workload}: process timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: process exited with {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.perf_counter() - t0
    return out


def quartiles(values):
    """(q1, median, q3); a single value stands for all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(workload, seed, seconds, trace, smoke=False, reference=REFERENCE):
    """Run processes for `seconds`; return (metrics, summary record)."""
    start = time.perf_counter()
    with open(reference) as fh:
        n_ops = len(json.load(fh)["smoke" if smoke else "full"][workload])
    plain, traced, setups = [], [], []
    attempted = failed = crashed = 0
    longest = 0.0

    def left():
        return BUDGET_S - (time.perf_counter() - start)

    turn = 0
    while True:
        with_trace = bool(trace) and turn % 2 == 1
        r = run_child(workload, seed, smoke, trace=with_trace, reference=reference, timeout=left())
        turn += 1
        if r is None:
            crashed += 1
            attempted += n_ops
            failed += n_ops
        else:
            longest = max(longest, r["wall_s"])
            attempted += r["attempted"]
            failed += r["failed"]
            for f in r["failures"]:
                print(f"FAILED {workload}: {f}", file=sys.stderr)
            (traced if with_trace else plain).append(r)
            if not with_trace:
                setups.append(r)
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds and (not trace or turn % 2 == 0)
        if done or r is None or left() < longest * 1.2:
            break
    if not trace:
        while len(setups) < SETUPS and plain and left() > 2 * max(s["wall_setup_s"] for s in setups) + 5:
            r = run_child(workload, seed, smoke, setup_only=True, timeout=left())
            if r is None:
                break
            setups.append(r)

    metrics = {}
    stats = {}
    if not trace and plain:
        samples = {
            "run_s": [r["run_s"] for r in plain],
            "setup_s": [r["setup_s"] for r in setups],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            "wall_run_s": [r["wall_run_s"] for r in plain],
            "wall_setup_s": [r["wall_setup_s"] for r in setups],
        }
        for name, values in samples.items():
            stats[name] = quartiles(values) + (len(values),)
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": stats[name][1], "unit": unit}
    if trace and traced and plain:
        untraced = statistics.median(r["run_s"] for r in plain)
        with_t = statistics.median(r["run_s"] for r in traced)
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_frac":
                value = (with_t - untraced) / untraced
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
    record = {
        "workload": workload,
        "size": "smoke" if smoke else "full",
        "trace": int(bool(trace)),
        "seconds": seconds,
        "environment": {**environment(seed), **(plain or traced or [{}])[0].get("versions", {})},
        "attempted": attempted,
        "failed": failed,
        "crashed": crashed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "quartiles": {k: {"q1": v[0], "median": v[1], "q3": v[2], "runs": v[3]} for k, v in stats.items()},
        "metrics": metrics,
        "processes": plain + traced,
        "setup_samples": [r["setup_s"] for r in setups],
    }
    return metrics, record


def print_summary(record):
    w = record["workload"]
    for name, q in record["quartiles"].items():
        unit = END_TO_END.get(name, "s")
        print(f"{w:8s} {name:12s} median {q['median']:10.4f} {unit:3s} "
              f"q1 {q['q1']:.4f} q3 {q['q3']:.4f} runs {q['runs']}")
    if record["trace"]:
        for name, m in record["metrics"].items():
            print(f"{w:8s} {name:26s} {m['value']:.6g} {m['unit']}")
    print(f"{w:8s} fail_frac    {record['fail_frac']:.4g} ratio "
          f"({record['failed']} of {record['attempted']} checked operations failed)")


def roadmap_rows(records):
    """Compare traced spans with the ROADMAP baseline table.

    Per traced process the longest matching span counts (ensure_level
    is also called, as a no-op, inside every graph build); the row
    gives the median over processes.
    """
    procs = [(rec["workload"], p) for rec in records if rec["trace"]
             for p in rec["processes"] if "spans" in p]
    rows = []
    for label, workload, name, family, level, secs, iters in ROADMAP:
        took = [
            max(s["end"] - s["start"] for s in spans)
            for w, p in procs if w == workload
            for spans in [[s for s in p["spans"] if s["name"] == name and s.get("level") == level
                           and (family is None or s.get("family") == family)]]
            if spans
        ]
        if not took:
            continue
        row = {"what": label, "seconds": statistics.median(took), "roadmap_seconds": secs}
        if iters is not None:
            row["cg_iters"] = sorted({s["iterations"] for w, p in procs if w == workload
                                      for s in p["solves"]
                                      if s.get("family") == family and s.get("level") == level})
            row["roadmap_cg_iters"] = iters
        rows.append(row)
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--smoke", action="store_true", help="small levels, for self-tests")
    p.add_argument("--reference", default=REFERENCE, help="reference values file")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "hexacarpet", "__init__.py")):
        print("perfbench: run from the root of a hexacarpet checkout "
              "(src/hexacarpet not found)", file=sys.stderr)
        return 2
    if not os.path.isfile(args.reference):
        print(f"perfbench: reference file {args.reference} not found", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.workload == "all":
        records = []
        for w in WORKLOADS:
            for trace in (0, 1):
                records.append(measure(w, args.seed, args.seconds, trace, args.smoke, args.reference)[1])
                print_summary(records[-1])
        rows = roadmap_rows(records)
        for r in rows:
            print("roadmap", json.dumps(r))
        for rec in records:  # spans were needed only for the rows above
            for proc in rec["processes"]:
                proc.pop("spans", None)
        path = os.path.join(OUT_DIR, f"all{'-smoke' * args.smoke}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"records": records, "roadmap": rows}, fh, indent=1)
        ok = all(r["failed"] == 0 and r["metrics"] for r in records)
        print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for r in records),
                          "failed": sum(r["failed"] for r in records), "metrics": {}}))
        return 0 if ok else 1

    metrics, record = measure(args.workload, args.seed, args.seconds, args.trace, args.smoke, args.reference)
    path = os.path.join(OUT_DIR, f"{args.workload}{'-smoke' * args.smoke}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print_summary(record)
    print(json.dumps({"environment": record["environment"]}))
    correct = record["failed"] == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())

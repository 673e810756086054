"""One benchmark process: set up, run one workload, print one JSON line.

Started by run.py in a fresh interpreter with BLAS threads pinned to 1,
from the root of a checkout.  It imports `hexacarpet` from that
checkout's `src/` and refuses to run against any other copy.

    python3 perfbench/child.py --workload rho6 --seed 1 [--smoke]
        [--trace] [--setup-only] [--record] [--reference FILE]

setup_s covers the import of hexacarpet, creating the LevelCache and
building the complex to the workload's top level; run_s covers the
workload from the end of set-up until its outputs are written and
checked.  Both are wall seconds scaled to a reference CPU speed by
SpeedSampler; the unscaled wall seconds are reported alongside.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import signal
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import Checker  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

CAL_LOOPS = 3000
# Time of the calibration loop on the reference CPU.  It is close to the
# loop's median on the 2-core Xeon VM the baseline was taken on, so
# scaled figures stay near that machine's wall seconds.
CAL_REF_S = 150e-6
CAL_EVERY_S = 0.05


class SpeedSampler:
    """Samples this process's CPU speed while it runs.

    On a shared host the speed of a core drifts by up to ~2x over
    seconds to minutes.  Every CAL_EVERY_S a SIGALRM handler times a
    fixed Python loop of CAL_LOOPS additions on the same core, between
    the workload's own bytecodes.  A phase's wall time times
    CAL_REF_S / (median loop time in that phase) is its time on the
    reference CPU.  The sampling costs about 0.3% of the run.
    """

    def __init__(self):
        self.samples = []  # (start, loop seconds)

    def sample(self, *_):
        t = perf_counter()
        s = 0
        for i in range(CAL_LOOPS):
            s += i
        self.samples.append((t, perf_counter() - t))

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scale(self, first):
        """Reference-speed factor over the samples from index `first` on."""
        return CAL_REF_S / statistics.median(c for _, c in self.samples[first:])


def _library_versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record", action="store_true")
    p.add_argument("--reference", default=REFERENCE)
    args = p.parse_args(argv)
    size = "smoke" if args.smoke else "full"
    src = os.path.abspath("src")

    speed = SpeedSampler()
    speed.start()
    t0 = perf_counter()
    speed.sample()
    sys.path.insert(0, src)
    import hexacarpet

    if not os.path.abspath(hexacarpet.__file__).startswith(src + os.sep):
        sys.exit(f"hexacarpet imported from {hexacarpet.__file__}, not from {src}")
    from hexacarpet.analysis import LevelCache

    import workloads

    params = workloads.SIZES[args.workload][size]
    tracer = None
    span = lambda name, bucket: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        span = tracer.span
    with span("setup", "bench.setup"):
        cache = LevelCache()
        cache.C.ensure_level(params["top"])
    wall = perf_counter() - t0
    speed.sample()
    scale = speed.scale(0)
    result = {"setup_s": wall * scale, "wall_setup_s": wall, "setup_scale": scale}

    if not args.setup_only:
        if args.record:
            chk = Checker(None)
        else:
            with open(args.reference) as fh:
                chk = Checker(json.load(fh)[size][args.workload])
        os.makedirs(OUT_DIR, exist_ok=True)
        rng = random.Random(args.seed)
        run = workloads.WORKLOADS[args.workload]
        first = len(speed.samples)
        speed.sample()
        t1 = perf_counter()
        with span("run", "bench.run") as run_span:
            run(cache, chk, rng, OUT_DIR, **params)
        wall = perf_counter() - t1
        speed.sample()
        scale = speed.scale(first)
        result.update(run_s=wall * scale, wall_run_s=wall, run_scale=scale)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(attempted=chk.attempted, failed=chk.failed, failures=chk.failures)
        if args.record:
            result["recorded"] = chk.recorded
        if tracer:
            C = cache.C
            result["layers"] = {
                **tracer.metrics(),
                "subdivision.simplices": sum(C.counts(C.top)),
            }
            result["run_self_s"] = tracer.self_by_bucket(run_span)
            result["run_map_s"] = tracer.map_s
            result["traced_run_s"] = run_span.end - run_span.start
            result["map_calls"] = tracer.map_calls
            result["solves"] = tracer.solves
            result["unwrapped"] = tracer.unwrapped
            result["spans"] = tracer.span_table()
    speed.stop()
    result["speed_samples"] = len(speed.samples)
    result["versions"] = _library_versions()
    print(json.dumps(result))


if __name__ == "__main__":
    main()

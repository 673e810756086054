"""Regenerate reference.json from the program in this checkout.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted: every later run is
checked against these values.  Each workload is recorded with two seeds,
and the script refuses to write if the outputs depend on the seed.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import mismatches  # noqa: E402
from run import REFERENCE, WORKLOADS, run_child  # noqa: E402


def main():
    ref = {}
    for size in ("smoke", "full"):
        ref[size] = {}
        for w in WORKLOADS:
            a, b = (run_child(w, seed, size == "smoke", record=True) for seed in (1, 2))
            if a is None or b is None:
                sys.exit(f"{size} {w}: workload process failed")
            if a["failures"] or b["failures"]:
                sys.exit(f"{size} {w}: false verdicts {a['failures'] + b['failures']}")
            bad = mismatches(a["recorded"], b["recorded"])
            if bad:
                sys.exit(f"{size} {w}: outputs depend on the seed at {bad}")
            ref[size][w] = a["recorded"]
            print(f"{size} {w}: {len(a['recorded'])} operations", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

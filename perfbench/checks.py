"""Checked operations: each public call whose output the benchmark verifies.

An operation fails if the call raises, if any boolean in its output (a
verdict) is false, or if its output is off the committed reference.
Floats are held to a relative tolerance, everything else (integers,
strings, exact fractions, lists of them) must match exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Relative tolerance on floats.  The repository's own checks hold
# R * RT to 1e-8; CG and a sparse direct solve agree to ~1e-15.
REL_TOL = 1e-9


def encode(value):
    """JSON-able form of an operation output; fractions become 'p/q'."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return encode(value.item())  # numpy scalars
    return value


def _false_verdicts(got, path=""):
    if isinstance(got, bool):
        return [] if got else [path or "verdict"]
    if isinstance(got, dict):
        return [p for k, v in got.items() for p in _false_verdicts(v, f"{path}.{k}")]
    if isinstance(got, list):
        return [p for i, v in enumerate(got) for p in _false_verdicts(v, f"{path}[{i}]")]
    return []


def mismatches(got, ref, path=""):
    """Paths at which an encoded output differs from its reference."""
    if isinstance(ref, bool) or isinstance(got, bool):
        return [] if got is ref else [path]
    if isinstance(ref, float) or (isinstance(got, float) and isinstance(ref, int)):
        if not isinstance(got, (int, float)) or not math.isfinite(got):
            return [path]
        return [] if abs(got - ref) <= REL_TOL * abs(ref) else [path]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [path]
        return [p for k in ref for p in mismatches(got[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [path]
        return [p for i, (g, r) in enumerate(zip(got, ref)) for p in mismatches(g, r, f"{path}[{i}]")]
    return [] if got == ref and type(got) is type(ref) else [path]


class Checker:
    """Runs operations, compares them with a reference, counts failures.

    With reference=None it records outputs instead (used to regenerate
    the reference file from a trusted commit).
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.recorded = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def op(self, name, call, facts=lambda out: out):
        """Run call(), check facts(output) under `name`; return the output.

        A failure is recorded, never raised: the workload goes on.
        """
        self.attempted += 1
        try:
            out = call()
            got = encode(facts(out))
        except Exception as exc:  # any failing call is a failed operation
            self._fail(name, f"{type(exc).__name__}: {exc}")
            return None
        bad = _false_verdicts(got)
        if self.reference is None:
            self.recorded[name] = got
        elif name not in self.reference:
            bad.append("no reference value")
        else:
            bad += mismatches(got, self.reference[name])
        if bad:
            bad = list(dict.fromkeys(p or "value" for p in bad))
            self._fail(name, "off at " + ", ".join(bad[:5]))
        return out

    def _fail(self, name, why):
        self.failed += 1
        self.failures.append(f"{name}: {why}")

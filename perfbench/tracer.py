"""Layer tracing from outside the program, for the traced run.

The layers are the package modules.  Each public function listed in
SPANS is rebound, in every loaded module namespace that holds it, to a
wrapper that records a span (name, bucket, start, end, parent).  Calls
nested inside a wrapped call become child spans; a span's self time is
its duration minus the time its children cover.  The per-simplex maps
in MAPS are called hundreds of thousands of times, so they get counters
and accumulated time (outermost call only) instead of spans.  The
LevelCache memo lookups in MEMOS are counted as hits when no build or
solve span opens inside them.

Spans are kept in memory and summarised by metrics() at the end.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import resource
import sys
from time import perf_counter

# (module, attribute path, bucket).  The bucket is "<layer>.<kind>";
# the layer is the package module a per-layer metric belongs to.
SPANS = [
    ("hexacarpet.subdivision", "SubdivisionComplex.ensure_level", "subdivision.build"),
    ("hexacarpet.graphs", "build_skeleton", "graphs.build"),
    ("hexacarpet.graphs", "build_dual", "graphs.build"),
    ("hexacarpet.graphs", "build_hexacarpet", "graphs.build"),
    ("hexacarpet.graphs", "build_cut_graph", "graphs.build"),
    ("hexacarpet.graphs", "build_short_graph", "graphs.build"),
    ("hexacarpet.graphs", "cut_path_lengths", "graphs.cert"),
    ("hexacarpet.graphs", "cut_resistance_formula", "graphs.cert"),
    ("hexacarpet.graphs", "shorted_classes", "graphs.cert"),
    ("hexacarpet.graphs", "quotient", "graphs.cert"),
    ("hexacarpet.network", "effective_resistance", "network.solve"),
    ("hexacarpet.network", "check_flow", "network.check"),
    ("hexacarpet.network", "divergence", "network.check"),
    ("hexacarpet.network", "dissipation", "network.check"),
    ("hexacarpet.network", "energy", "network.check"),
    ("hexacarpet.network", "verify_thompson", "network.check"),
    ("hexacarpet.analysis", "estimate_rho", "analysis.self"),
    ("hexacarpet.analysis", "compose_flow", "analysis.self"),
    ("hexacarpet.analysis", "y_decomposition", "analysis.self"),
    ("hexacarpet.analysis", "hex_pullback", "analysis.self"),
    ("hexacarpet.analysis", "unit_flow", "analysis.self"),
    ("hexacarpet.analysis", "arc_flows", "analysis.self"),
    ("hexacarpet.analysis", "potential_decomposition", "analysis.self"),
    ("hexacarpet.analysis", "cut_report", "analysis.self"),
    ("hexacarpet.analysis", "short_report", "analysis.self"),
    ("hexacarpet.analysis", "verify_duality", "analysis.self"),
    ("hexacarpet.analysis", "verify_supermultiplicative", "analysis.self"),
    ("hexacarpet.analysis", "ScalingReport.to_csv_text", "cli.emit"),
    ("hexacarpet.graphs", "to_edgelist", "cli.emit"),
    ("hexacarpet.subdivision", "SubdivisionComplex.to_json", "cli.emit"),
    ("workloads", "write_output", "cli.emit"),
]
MAPS = [
    ("hexacarpet.subdivision", "SubdivisionComplex.map_tri"),
    ("hexacarpet.subdivision", "SubdivisionComplex.map_edge"),
    ("hexacarpet.subdivision", "SubdivisionComplex.vertex_map"),
    ("hexacarpet.subdivision", "SubdivisionComplex.apply_word"),
    ("hexacarpet.subdivision", "SubdivisionComplex.tri_words"),
]
MEMOS = [
    ("hexacarpet.analysis", "LevelCache.graph"),
    ("hexacarpet.analysis", "LevelCache.result"),
]
# buckets whose spans also record resident-memory growth
RSS_BUCKETS = ("subdivision.build", "graphs.build")

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes():
    """Current resident set size of this process."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Span:
    __slots__ = ("name", "bucket", "parent", "start", "end", "child", "attrs", "rss0")

    def __init__(self, name, bucket, parent, attrs):
        self.name = name
        self.bucket = bucket
        self.parent = parent
        self.attrs = attrs
        self.child = 0.0
        self.rss0 = None

    @property
    def self_s(self):
        return self.end - self.start - self.child


def _resolve(module, attr):
    """The object holding attr ("f" or "Class.f") in a loaded module."""
    owner = sys.modules.get(module)
    parts = attr.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p, None)
    return owner, parts[-1]


def _graph_attrs(G):
    meta = getattr(G, "meta", None) or {}
    return {"family": meta.get("family"), "level": meta.get("level")}


def _attrs(args):
    """Family and level of a call, read from its first graph or int arg."""
    for a in args:
        if hasattr(a, "meta") and hasattr(a, "boundary"):
            return _graph_attrs(a)
    for a in args:
        if isinstance(a, int) and not isinstance(a, bool):
            return {"level": a}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []  # closed spans, in closing order
        self.stack = []
        self.counts = {"graphs.edges": 0, "cli.bytes_out": 0,
                       "network.solves": 0, "network.unknowns": 0, "network.cg_iters": 0,
                       "memo.calls": 0, "memo.hits": 0}
        self.max_residual = 0.0
        self.rss_grow = {b: 0 for b in RSS_BUCKETS}
        self.errors = {}
        self._map_counts = {}
        self._map_state = [0, 0.0]
        self._seen_exc = set()
        self.solves = []
        self.unwrapped = []
        self._opened = 0

    # -- installation --------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name.startswith("hexacarpet") or name == "workloads")]
        for module, attr, bucket in SPANS:
            self._rebind(module, attr, modules, self._span_wrapper(attr, bucket))
        for module, attr in MAPS:
            self._rebind(module, attr, modules, self._map_wrapper(attr.split(".")[-1]))
        for module, attr in MEMOS:
            self._rebind(module, attr, modules, self._memo_wrapper)

    def _rebind(self, module, attr, modules, make):
        owner, name = _resolve(module, attr)
        fn = getattr(owner, name, None) if owner is not None else None
        if fn is None:
            self.unwrapped.append(f"{module}.{attr}")
            return
        wrapped = functools.wraps(fn)(make(fn))
        if inspect.isclass(owner):
            setattr(owner, name, wrapped)
            return
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, key, wrapped)

    # -- spans ---------------------------------------------------------

    def _span_wrapper(self, name, bucket):
        short = name.split(".")[-1]

        def make(fn):
            sig = inspect.signature(fn) if bucket == "network.solve" else None

            def wrapper(*args, **kw):
                rec = self._open(short, bucket, args)
                try:
                    out = fn(*args, **kw)
                except BaseException as exc:
                    self._close(rec)
                    self._error(rec, exc)
                    raise
                self._close(rec)
                if rec.bucket == "graphs.build":
                    self.counts["graphs.edges"] += out.m
                elif short == "write_output":
                    self.counts["cli.bytes_out"] += out
                elif short == "effective_resistance" and rec.bucket == "network.solve":
                    self._solved(rec, sig.bind(*args, **kw).arguments, out)
                return out

            return wrapper

        return make

    def _open(self, name, bucket, args):
        parent = self.stack[-1] if self.stack else None
        if parent is not None and parent.bucket == "network.solve" and bucket.startswith("network."):
            bucket = "network.solve"  # the solver's own energy() call is solve work
        rec = Span(name, bucket, parent, _attrs(args))
        self._opened += 1
        if bucket in RSS_BUCKETS and (parent is None or parent.bucket != bucket):
            rec.rss0 = rss_bytes()
        self.stack.append(rec)
        rec.start = perf_counter()
        return rec

    def _close(self, rec):
        rec.end = perf_counter()
        self.stack.pop()
        if rec.parent is not None:
            rec.parent.child += rec.end - rec.start
        if rec.rss0 is not None:
            self.rss_grow[rec.bucket] += rss_bytes() - rec.rss0
        self.spans.append(rec)

    def _error(self, rec, exc):
        if id(exc) not in self._seen_exc:
            self._seen_exc.add(id(exc))
            layer = rec.bucket.split(".")[0]
            self.errors[layer] = self.errors.get(layer, 0) + 1

    def _solved(self, rec, arguments, res):
        G = next(iter(arguments.values()))
        A = arguments.get("A")
        B = arguments.get("B")
        A = G.boundary["A"] if A is None else frozenset(A)
        B = G.boundary["B"] if B is None else frozenset(B)
        unknowns = G.n - len(A | B)
        iters = int(getattr(res, "iterations", 0))
        residual = float(getattr(res, "residual", 0.0))
        self.counts["network.solves"] += 1
        self.counts["network.unknowns"] += unknowns
        self.counts["network.cg_iters"] += iters
        self.max_residual = max(self.max_residual, residual)
        self.solves.append({**rec.attrs, "unknowns": unknowns, "iterations": iters,
                            "residual": residual, "seconds": rec.end - rec.start})

    @contextlib.contextmanager
    def span(self, name, bucket):
        """A span around the benchmark's own code, e.g. a root span."""
        rec = self._open(name, bucket, ())
        try:
            yield rec
        finally:
            self._close(rec)

    # -- per-simplex maps and memo lookups -----------------------------

    def _map_wrapper(self, name):
        # Called millions of times on certify: closure cells instead of
        # attribute lookups keep the per-call cost down.
        count = self._map_counts[name] = [0]
        state = self._map_state  # [depth, accumulated seconds]
        stack = self.stack
        clock = perf_counter

        def make(fn):
            def wrapper(*args, **kw):
                count[0] += 1
                if state[0]:
                    return fn(*args, **kw)
                state[0] = 1
                t0 = clock()
                try:
                    return fn(*args, **kw)
                finally:
                    dt = clock() - t0
                    state[0] = 0
                    state[1] += dt
                    if stack:
                        stack[-1].child += dt

            return wrapper

        return make

    def _memo_wrapper(self, fn):
        def wrapper(*args, **kw):
            before = self._opened
            out = fn(*args, **kw)
            self.counts["memo.calls"] += 1
            if self._opened == before:
                self.counts["memo.hits"] += 1
            return out

        return wrapper

    # -- summaries -----------------------------------------------------

    @property
    def map_calls(self):
        return {name: c[0] for name, c in self._map_counts.items()}

    @property
    def map_s(self):
        return self._map_state[1]

    def self_by_bucket(self, root=None):
        """Self seconds per bucket, over all spans or under one root span."""
        out = {}
        for s in self.spans:
            if root is not None:
                top = s
                while top.parent is not None:
                    top = top.parent
                if top is not root:
                    continue
            out[s.bucket] = out.get(s.bucket, 0.0) + s.self_s
        return out

    def metrics(self):
        """The per-layer metrics of this traced process (set-up and run)."""
        b = self.self_by_bucket()
        c = self.counts
        calls = c["memo.calls"]
        return {
            "subdivision.build_s": b.get("subdivision.build", 0.0),
            "subdivision.rss_grow_mb": self.rss_grow["subdivision.build"] / 2 ** 20,
            "subdivision.map_calls": sum(self.map_calls.values()),
            "subdivision.map_s": self.map_s,
            "graphs.build_s": b.get("graphs.build", 0.0),
            "graphs.edges": c["graphs.edges"],
            "graphs.rss_grow_mb": self.rss_grow["graphs.build"] / 2 ** 20,
            "graphs.cert_s": b.get("graphs.cert", 0.0),
            "network.solve_s": b.get("network.solve", 0.0),
            "network.solves": c["network.solves"],
            "network.unknowns": c["network.unknowns"],
            "network.cg_iters": c["network.cg_iters"],
            "network.max_residual": self.max_residual,
            "network.check_s": b.get("network.check", 0.0),
            "network.errors": self.errors.get("network", 0),
            "analysis.errors": self.errors.get("analysis", 0),
            "analysis.self_s": b.get("analysis.self", 0.0),
            "analysis.cache_hit_ratio": c["memo.hits"] / calls if calls else 0.0,
            "cli.emit_s": b.get("cli.emit", 0.0),
            "cli.bytes_out": c["cli.bytes_out"],
        }

    def span_table(self):
        """Closed spans as rows, parents referenced by row index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        return [
            {
                "name": s.name,
                "bucket": s.bucket,
                "parent": index.get(id(s.parent)) if s.parent is not None else None,
                "start": s.start - t0,
                "end": s.end - t0,
                "self": s.self_s,
                **s.attrs,
            }
            for s in self.spans
        ]

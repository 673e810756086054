"""The dense reference solve the tests check the library's solver against,
and the traced peak the memory tests bound.

Not a test module: test_network, test_graphs, test_analysis and
test_acceptance import it.  oracle_resistance solves the full interior
system with LAPACK on the dense Laplacian, with no symmetry reduction
and no sparse factor, and refuses the terminal sets that
network.effective_resistance refuses.
"""

import math
import tracemalloc

import numpy as np
import scipy.sparse as sp

from hexacarpet.graphs import WeightedGraph
from hexacarpet.network import (
    ResistanceResult,
    _active_interior,
    _terminals,
    energy,
    gradient,
)

# largest graph, in vertices, that oracle_resistance solves densely
ORACLE_LIMIT = 2000


def laplacian(G: WeightedGraph):
    """Weighted graph Laplacian as CSR."""
    c = G.conductances()
    us, vs = G.us, G.vs
    rows = np.concatenate([us, vs, us, vs])
    cols = np.concatenate([vs, us, us, vs])
    vals = np.concatenate([-c, -c, c, c])
    return sp.csr_matrix((vals, (rows, cols)), shape=(G.n, G.n))


def oracle_resistance(G: WeightedGraph, A=None, B=None):
    """Dense direct-solve cross-check, for graphs up to ORACLE_LIMIT
    vertices; it refuses the terminal sets that effective_resistance
    refuses, and a disconnected pair has infinite resistance."""
    if G.n > ORACLE_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_LIMIT} vertices, got {G.n}")
    A, B = _terminals(G, A, B)
    interior, fixed, inB, connected = _active_interior(G, A, B)
    value = inB.astype(float)
    phi = value.copy()
    R, E, flow = math.inf, 0.0, np.zeros(G.m)
    if connected:
        L = laplacian(G).toarray()
        if len(interior):
            Lii = L[np.ix_(interior, interior)]
            phi[interior] = np.linalg.solve(Lii, -(L[interior] @ value))
        E = energy(G, phi)
        R = 1.0 / E
        flow = R * gradient(G, phi)
    return ResistanceResult(
        resistance=R, energy=E, potential=phi, flow=flow, residual=0.0,
    )


def traced_peak(call):
    """(call(), the peak bytes tracemalloc traced while it ran): numpy's
    buffers as well as Python objects, the result included."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak

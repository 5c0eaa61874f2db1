"""Stationarity of geodesic nets: residuals and the vertex balance.

A net is stationary when every edge is a geodesic and the
multiplicity-weighted inward unit tangents cancel at every vertex.  This
script builds the honeycomb net on a hexagonal flat torus, checks both
conditions, and then breaks them on purpose.
"""

import numpy as np

from geodesicnets import (
    first_variation,
    length,
    make_case,
    stationarity_residual,
)
from geodesicnets.jacobi import random_reduced_field

case = make_case("honeycomb-torus", n_samples=64)
chart, net = case.chart, case.net

print("== honeycomb net on the hexagonal flat torus ==")
print(f"total length (three unit edges): {length(chart, net):.12f}")

rep = stationarity_residual(chart, net)
print(f"aggregate stationarity residual: {rep.aggregate:.3e}")
for v in net.graph.vertices:
    print(f"  balance at {v}: {np.linalg.norm(rep.vertex_balance[v]):.3e}")

print("\ninward unit tangents at vertex A (120 degrees apart):")
for eid, i in net.graph.incident_pairs("A"):
    print(f"  {eid} end {i}: {np.round(rep.tangents[eid, i], 6)}")

print("\nfirst variation along random reduced fields (critical point):")
rng = np.random.default_rng(0)
worst = max(
    abs(first_variation(chart, net, random_reduced_field(chart, net, rng)))
    for _ in range(20)
)
print(f"  worst of 20 draws: {worst:.3e}")

print("\nnow move vertex A by (0.05, 0) and look again:")
moved = net.copy()
shift = np.array([0.05, 0.0])
for e in moved.graph.edges:
    s = moved.edge_samples[e.id]
    t = np.linspace(0, 1, s.shape[0])
    if e.endpoint(0) == "A":
        s += np.outer(1 - t, shift)
moved.vertex_positions["A"] = moved.vertex_positions["A"] + shift
rep = stationarity_residual(chart, moved)
print(f"  balance at A: {np.linalg.norm(rep.vertex_balance['A']):.3e}")
print(f"  aggregate residual: {rep.aggregate:.3e}")

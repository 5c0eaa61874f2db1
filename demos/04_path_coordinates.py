"""Path coordinates: immersed curves modulo reparametrization.

A tube around each edge of a smooth reference net identifies nearby
curves with a triple (a, b, u): longitudinal endpoint coordinates plus a
normal displacement profile indexed by the rescaled longitudinal
coordinate.  Reparametrizations collapse to the same triple, the vertex
continuity constraint C picks out genuine nets, and the coordinate
residual (H1, H2) vanishes exactly where the ambient stationarity
residual does.
"""

import numpy as np

from geodesicnets import (
    PathCoord,
    build_net_chart,
    constraint_C,
    coordinates_of,
    lagrangian_integral,
    lambda_map,
    length,
    make_case,
    mean_curvature_H,
    stationarity_equivalence_check,
    xi,
    xi_prime,
)
from geodesicnets.stencils import evaluate_curve

case = make_case("sphere-theta", n_samples=64)
chart, net = case.chart, case.net
nc = build_net_chart(chart, net)

print("== chart centered at the theta net ==")
coords = coordinates_of(nc, net)
for eid, pc in coords.coords.items():
    print(f"  {eid}: a={pc.a:+.2e}  b-1={pc.b - 1:+.2e}  |u|={np.abs(pc.u).max():.2e}")

print("\nround trip through a random in-radius coordinate:")
rng = np.random.default_rng(4)
t = np.linspace(0, 1, 65)
tube = nc.tubes["E1"]
u = 0.4 * tube.delta_norm * np.sin(np.pi * t)[:, None]
pc = PathCoord(a=0.04, b=0.95, u=u)
back = xi_prime(xi(pc))
print(f"  |a - a'| = {abs(back.a - pc.a):.2e}, |u - u'| max = {np.abs(back.u - pc.u).max():.2e}")

print("\nreparametrization invariance of the coordinates:")
curve = xi(pc)
re_curve = evaluate_curve(curve, t + 0.06 * np.sin(2 * np.pi * t) * t * (1 - t) * 4)
got = xi_prime(re_curve)
print(f"  coordinate drift under a smooth reparametrization: {np.abs(got.u - pc.u).max():.2e}")

print("\nvertex continuity constraint:")
res = constraint_C(nc, coords)
print(f"  residual at the genuine net: {res.norm:.2e} (stacked dimension {res.stacked().shape[0]})")

print("\ncoordinate stationarity residual (H1 interior, H2 vertex):")
h1, h2 = mean_curvature_H(chart, nc, coords)
print(f"  |H1| max = {max(np.abs(v).max() for v in h1.values()):.2e}")
print(f"  |H2| max = {max(np.linalg.norm(v) for v in h2.values()):.2e}")
print(f"  equivalence with the ambient residual: {stationarity_equivalence_check(chart, nc, coords)}")

print("\nlength through the coordinate Lagrangian vs the net quadrature:")
coords.coords["E1"].u[:, 0] += 0.2 * tube.delta_norm * np.sin(np.pi * t)
net2 = lambda_map(nc, coords)
a = lagrangian_integral(chart, nc, coords)
b = length(chart, net2)
print(f"  sum of integrals of L: {a:.10f}")
print(f"  length of mapped net : {b:.10f}")

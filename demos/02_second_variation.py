"""The second variation of length and its finite-difference oracle.

The Hessian at a stationary net is assembled from an edge operator
(covariant second derivative plus curvature, projected normal to the
edge) and a vertex operator (signed perpendicular endpoint derivatives).
Every value is cross-checked against a mixed central difference of the
length functional, which knows nothing about either operator.
"""

import numpy as np

from geodesicnets import (
    NetField,
    apply_A_E,
    edge_lengths,
    hessian_fd_oracle,
    hessian_form,
    make_case,
    parallel_frame,
    tangential_field,
)
from geodesicnets import stencils as st
from geodesicnets.geometry import g_norm

case = make_case("sphere-equator", n_samples=256)
chart, net = case.chart, case.net
l_e = edge_lengths(chart, net)["E"]
print(f"== equator of the unit sphere (length {l_e:.6f}) ==")

# a parallel unit normal field along the equator
s = net.edge_samples["E"]
v = st.velocity(s, loop="E" in net.periodic_edges)
frames = parallel_frame(chart, s, v, chart.factor_jet_many(s, 0)[0])
normal = NetField({"E": frames[:, 0, :].copy()})

print("\nsecond variation along the unit normal (the classical -length):")
val = hessian_form(chart, net, normal, normal)
oracle = hessian_fd_oracle(chart, net, normal, normal, step=1e-4)
print(f"  hessian_form : {val:.8f}")
print(f"  FD oracle    : {oracle:.8f}")
print(f"  reference    : {-2 * np.pi:.8f}  (d^2/ds^2 of 2 pi cos(s) at 0)")

print("\nthe edge operator annihilates Jacobi solutions:")
t = np.linspace(0, 1, 257)
jacobi_like = NetField({"E": np.sin(2 * np.pi * t)[:, None] * frames[:, 0, :]})
out = apply_A_E(chart, net, "E", jacobi_like)
print(f"  |A_E(sin-profile normal)| max: {g_norm(chart, s, out).max():.3e}")

print("\ntangential fields are null directions:")
tang = tangential_field(net, {"E": 0.4 * np.sin(2 * np.pi * t)})
rng = np.random.default_rng(1)
probe = NetField({"E": rng.normal(size=(257, 2))})
print(f"  Hess(probe, tangential) = {hessian_form(chart, net, probe, tang):.3e}")

print("\nrandom-field agreement with the oracle (10 pairs):")
worst = 0.0
scale = 0.0
for _ in range(10):
    mk = lambda: NetField({"E": sum(
        np.outer(np.sin(2 * np.pi * (k + 1) * t), rng.normal(size=2)) for k in range(3)
    )})
    x_fld, y_fld = mk(), mk()
    x_fld = x_fld.scaled(1.0 / x_fld.max_norm(chart, net))
    y_fld = y_fld.scaled(1.0 / y_fld.max_norm(chart, net))
    a = hessian_form(chart, net, x_fld, y_fld)
    b = hessian_fd_oracle(chart, net, x_fld, y_fld, step=1e-4)
    worst = max(worst, abs(a - b))
    scale = max(scale, abs(a))
print(f"  worst difference {worst:.2e} on values of size up to {scale:.2f}")

"""Breaking degenerate kernels with conformal bumps.

Both experiment nets carry symmetry kernels: the honeycomb can translate
on its torus, the equator can tilt on its sphere.  A conformal bump that
vanishes along the net and pairs positively with a chosen Jacobi field
makes the mixed derivative of length in (metric amplitude, field
displacement) strictly positive; the pinning variant of the same bump
lifts the kernel eigenvalue, and Newton continuation keeps the net
stationary while the kernel empties.  ``continue_family`` follows one
conformal family (base chart, bump field, amplitudes) and judges no
kernel, so the last step asks ``is_nondegenerate`` for the verdict.
"""

import numpy as np

from geodesicnets import (
    break_degeneracy,
    build_condition_C_bump,
    conformal_family,
    continue_family,
    is_nondegenerate,
    jacobi_kernel,
    make_case,
    mixed_second_derivative,
)
from geodesicnets.geometry import RadialBumpField, SumField

for name in ("honeycomb-torus", "sphere-equator"):
    case = make_case(name, n_samples=64)
    ker = jacobi_kernel(case.chart, case.net)
    print(f"== {name}: kernel dimension {ker.dimension} ==")
    for j, j_fld in enumerate(ker.ambient):
        eid, idx, h_fld = build_condition_C_bump(case.chart, case.net, j_fld)
        closed, fd = mixed_second_derivative(case.chart, h_fld, case.net, j_fld)
        print(
            f"  field {j}: bump on {eid} at sample {idx} "
            f"(radius {h_fld.radius:.3f}); pairing {closed:+.4e} (FD {fd:+.4e})"
        )
    _, _, ker, history = break_degeneracy(case.chart, case.net)
    dims = [h["kernel_dimension"] for h in history]
    print(f"  kernel dimensions across bumps: {dims} -> nondegenerate: {ker.nondegenerate}\n")

print("== honeycomb under a generic seeded bump metric ==")
rng = np.random.default_rng(2024)
case = make_case("honeycomb-torus", 64)
fields = []
for _ in range(3):
    center = rng.uniform(-0.5, 1.0, size=2)
    radius = rng.uniform(0.25, 0.45)
    amp = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
    fields.append(RadialBumpField(center, radius, amp, chart=case.chart))
h_fld = SumField(fields)
amps = [0.0, 0.0125, 0.025, 0.0375, 0.05]
results = continue_family(case.chart, h_fld, amps, case.net)
print("continuation gradient norms:", ["%.1e" % r.gradient_norm for r in results])
ker = is_nondegenerate(conformal_family(case.chart, h_fld, amps[-1]), results[-1].net,
                       residual_tol=5e-3)
print(f"final kernel dimension {ker.dimension}, nondegenerate: {ker.nondegenerate}")
moved = np.linalg.norm(results[-1].net.vertex_positions["A"] - case.net.vertex_positions["A"])
print(f"vertex A moved by {moved:.4f} under the continuation")

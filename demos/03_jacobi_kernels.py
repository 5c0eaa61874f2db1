"""Jacobi kernels by shooting, certified against a brute-force Hessian.

The kernel of the second variation is computed two independent ways:

  * shooting: propagate the normal Jacobi ODE u'' + K(t) u = 0 along each
    edge and couple the boundary data through the vertex conditions (loops
    reduce to a monodromy periodicity condition);
  * brute force: the dense exact Hessian of the discrete length over the
    reduced displacement basis, followed by its |eigenvalues|.

Both must count the same dimension: 2 translations for the honeycomb,
2 rotation profiles (sin/cos) for the equator, 3 ambient rotations for
the theta net.
"""

import numpy as np

from geodesicnets import (
    classify_field,
    is_nondegenerate,
    jacobi_kernel,
    make_case,
    reduced_hessian_fd,
    reduced_kernel_dimension,
)

for name in ("honeycomb-torus", "sphere-equator", "sphere-theta"):
    case = make_case(name, n_samples=64)
    ker = is_nondegenerate(case.chart, case.net)
    h_mat, _ = reduced_hessian_fd(case.chart, case.net)
    fd_dim, svals, fd_gap = reduced_kernel_dimension(h_mat)
    print(f"== {name} ==")
    print(f"  shooting kernel dimension : {ker.dimension} (spectral gap {ker.gap:.2e})")
    print(f"  reduced Hessian dimension : {fd_dim} (spectral gap {fd_gap:.2e})")
    print(f"  verdict                   : {'nondegenerate' if ker.nondegenerate else 'degenerate'}")
    for j, fld in enumerate(ker.ambient):
        kind, _ = classify_field(case.chart, case.net, fld)
        vals = np.concatenate([v.ravel() for v in fld.edge_values.values()])
        print(f"  kernel field {j}: {kind}, max component {np.abs(vals).max():.3f}")
    print()

print("kernel profiles of the equator correlate with sin/cos:")
case = make_case("sphere-equator", 64)
ker = jacobi_kernel(case.chart, case.net)
t = np.linspace(0, 1, 65)
basis = np.stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)], axis=1)
q_mat, _ = np.linalg.qr(basis)
for j, red in enumerate(ker.basis):
    prof = red.u["E"][:, 0]
    corr = np.linalg.norm(q_mat @ (q_mat.T @ prof)) / np.linalg.norm(prof)
    print(f"  field {j}: correlation {corr:.6f}")

"""The Jacobi kernel and the length under isometries, refinement, loop
multiplicity and constant metric scaling, as hypothesis properties.

Each example places a built-in case by a random isometry of its chart (a
translation of the flat torus, a rotation of the stereographic sphere
about the origin), at N = 48, 56 or 64, with a loop multiplicity of 1 to 3
and the metric scaled by a constant c^2.  Both routes must keep the kernel
dimension: 2 on honeycomb-torus, 3 on sphere-theta and 2 on
sphere-equator.  N <= 32 is left out, because there shooting undercounts
on the sphere (ROADMAP item 12).  The examples are derandomized by the
conftest profile.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from geodesicnets import conformal_family, jacobi_kernel, length, make_case
from geodesicnets import reduced_hessian_fd, reduced_kernel_dimension
from geodesicnets.geometry import ConstantField, FlatTorusChart

KERNEL_DIMENSION = {"honeycomb-torus": 2, "sphere-theta": 3, "sphere-equator": 2}


def placed(chart, net, shift, angle):
    """net moved by an isometry of its chart: translated by shift on a flat
    torus, else rotated by angle about the origin."""
    if isinstance(chart, FlatTorusChart):
        def move(p):
            return p + np.asarray(shift)
    else:
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])

        def move(p):
            return p @ rot.T
    return replace(net, edge_samples={e: move(s) for e, s in net.edge_samples.items()},
                   vertex_positions={v: move(p) for v, p in net.vertex_positions.items()})


@settings(max_examples=50, deadline=None)
@given(name=st.sampled_from(sorted(KERNEL_DIMENSION)), n_samples=st.sampled_from([48, 56, 64]),
       multiplicity=st.integers(1, 3), scale=st.floats(0.5, 2.0),
       shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
       angle=st.floats(0.0, 2.0 * np.pi))
def test_kernel_dimension_is_invariant(name, n_samples, multiplicity, scale, shift, angle):
    case = make_case(name, n_samples, multiplicity=multiplicity)
    net = placed(case.chart, case.net, shift, angle)
    chart = conformal_family(case.chart, ConstantField(1.0), scale * scale - 1.0)
    base = length(case.chart, case.net)
    assert abs(length(case.chart, net) - base) <= 1e-12 * base
    assert abs(length(chart, net) - scale * base) <= 1e-10 * base
    dim = KERNEL_DIMENSION[name]
    assert jacobi_kernel(chart, net).dimension == dim
    assert reduced_kernel_dimension(reduced_hessian_fd(chart, net)[0])[0] == dim

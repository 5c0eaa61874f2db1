"""The Jacobi kernel and the length under isometries, refinement, loop
multiplicity and constant metric scaling, as hypothesis properties.

Each example places a built-in case by a random isometry of its chart (a
translation of the flat torus, a rotation of the stereographic sphere
about the origin), at N = 48, 56 or 64, with a loop multiplicity of 1 to 3
and the metric scaled by a constant c^2.  Both routes must keep the kernel
dimension: 2 on honeycomb-torus, 3 on sphere-theta and 2 on
sphere-equator.  N <= 32 is left out, because there shooting undercounts
on the sphere (ROADMAP item 12).  A straight closed loop along the first
row of a random lattice, built through a net-spec, has kernel dimension 1
by both routes and the length of that row.  The examples are derandomized
by the conftest profile.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ConstantField

from geodesicnets import conformal_family, jacobi_kernel, length, make_case, specfile
from geodesicnets import reduced_hessian_fd, reduced_kernel_dimension
from geodesicnets.geometry import FlatTorusChart

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


@settings(max_examples=20, deadline=None)
@given(n_samples=st.sampled_from([48, 56, 64]),
       norms=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
       turn=st.floats(0.0, 2.0 * np.pi), between=st.floats(0.25 * np.pi, 0.75 * np.pi),
       start=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_flat_loop_on_a_random_lattice(n_samples, norms, turn, between, start):
    # rows at an angle of 45 to 135 degrees keep the lattice far from singular
    lattice = np.array(norms)[:, None] * np.array(
        [[np.cos(a), np.sin(a)] for a in (turn, turn + between)])
    doc = {
        "graph": {"vertices": ["V"], "edges": [{"id": "E", "v0": "V", "v1": "V"}]},
        "metric": {"kind": "flat-torus", "lattice": lattice.tolist()},
        "net": {"vertices": {"V": list(start)},
                "edges": {"E": {"generator": "straight", "to": list(start + lattice[0])}},
                "periodic_edges": ["E"]},
        "options": {"n_samples": n_samples},
    }
    spec = specfile.parse_spec(doc)
    chart, net = spec.chart(), spec.net
    row = np.linalg.norm(lattice[0])
    assert abs(length(chart, net) - row) <= 1e-13 * row
    assert jacobi_kernel(chart, net).dimension == 1
    assert reduced_kernel_dimension(reduced_hessian_fd(chart, net)[0])[0] == 1

from collections import Counter

import numpy as np
import pytest

from conftest import ConstantField, edge_frames, jitter_net

from geodesicnets import (
    StereographicSphereChart,
    g_dot,
    length,
    make_case,
    reparametrize_constant_speed,
    stationarity_residual,
)
from geodesicnets.cases import HEX_LATTICE
from geodesicnets import stencils
from geodesicnets.geometry import (
    DirectionalBumpField,
    FlatTorusChart,
    RadialBumpField,
    conformal_family,
)
from geodesicnets.jacobi import reduced_gradient
from geodesicnets.multigraph import WeightedMultigraph
from geodesicnets.net import EdgeGroup, GeodesicNet, check_net, edge_lengths
from geodesicnets.solver import _anchor_spline_data
from geodesicnets.variation import length_sample_gradient

SPHERE = StereographicSphereChart(radius=1.0)


def sphere_arc_net(n=64, graded=False):
    """Quarter of the unit circle |x| = 1 as a single open edge."""
    graph = WeightedMultigraph.build(["P", "Q"], [("E", "P", "Q"), ("E2", "P", "Q")])
    t = np.linspace(0.0, 1.0, n + 1)
    if graded:
        t = t + 0.08 * np.sin(np.pi * t) * t * (1 - t) * 4
    ang = 0.5 * np.pi * t
    samples = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    chord = np.linspace(samples[0], samples[-1], n + 1)
    net = GeodesicNet(
        graph=graph,
        edge_samples={"E": samples, "E2": chord},
        vertex_positions={"P": samples[0], "Q": samples[-1]},
    )
    return net


def test_honeycomb_length():
    case = make_case("honeycomb-torus", 64)
    assert abs(length(case.chart, case.net) - 3.0) < 1e-6


def test_equator_length_and_multiplicity():
    case = make_case("sphere-equator", 256)
    assert abs(length(case.chart, case.net) - 2 * np.pi) < 1e-5
    case2 = make_case("sphere-equator", 256, multiplicity=2)
    assert abs(length(case2.chart, case2.net) - 4 * np.pi) < 1e-5


def test_multiplicity_linearity_exact():
    case = make_case("sphere-equator", 64)
    base = length(case.chart, case.net)
    for mult in (2, 3):
        c2 = make_case("sphere-equator", 64, multiplicity=mult)
        assert length(c2.chart, c2.net) == pytest.approx(mult * base, rel=1e-15)


def test_metric_scaling_scales_length():
    case = make_case("sphere-theta", 64)
    base = length(case.chart, case.net)
    for c in (0.5, 2.0):
        scaled = conformal_family(case.chart, ConstantField(1.0), c**2 - 1.0)
        assert abs(length(scaled, case.net) - c * base) < 1e-10 * base


def test_length_invariant_under_edge_flip_and_relabel():
    case = make_case("honeycomb-torus", 64)
    net = case.net
    flipped_edges = [("F3", "B", "A", 1), ("F2", "A", "B", 1), ("F1", "B", "A", 1)]
    graph2 = WeightedMultigraph.build(["A", "B"], flipped_edges)
    samples2 = {
        "F3": net.edge_samples["E3"][::-1].copy(),
        "F2": net.edge_samples["E2"].copy(),
        "F1": net.edge_samples["E1"][::-1].copy(),
    }
    net2 = GeodesicNet(graph=graph2, edge_samples=samples2,
                       vertex_positions=dict(net.vertex_positions))
    assert abs(length(case.chart, net2) - length(case.chart, net)) < 1e-12


def test_length_refinement_convergence_order():
    errs = []
    ns = (32, 64, 128)
    for n in ns:
        net = sphere_arc_net(n, graded=True)
        per_edge = edge_lengths(SPHERE, net)
        errs.append(abs(per_edge["E"] - 0.5 * np.pi))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert min(order1, order2) >= 1.9


def test_reparametrize_idempotent_on_straight_edge():
    case = make_case("honeycomb-torus", 64)
    out = reparametrize_constant_speed(case.chart, case.net)
    worst = max(
        np.abs(out.edge_samples[e] - case.net.edge_samples[e]).max()
        for e in out.edge_samples
    )
    assert worst < 1e-12


def test_reparametrize_graded_line_becomes_uniform():
    torus = FlatTorusChart(HEX_LATTICE)
    graph = WeightedMultigraph.build(["A", "B"], [("E", "A", "B"), ("E2", "A", "B")])
    t = np.linspace(0, 1, 65)
    graded = (t**2 * (3 - 2 * t))[:, None] * np.array([1.0, 0.0])
    straight = t[:, None] * np.array([1.0, 0.0]) + np.array([0.0, 0.001])  # distinct second edge
    net = GeodesicNet(
        graph=graph,
        edge_samples={"E": graded, "E2": straight.copy()},
        vertex_positions={"A": np.zeros(2), "B": np.array([1.0, 0.0])},
    )
    out = reparametrize_constant_speed(torus, net)
    uniform = t[:, None] * np.array([1.0, 0.0])
    assert np.abs(out.edge_samples["E"] - uniform).max() < 5e-9


def test_reparametrize_preserves_length_on_sphere_arc():
    net = sphere_arc_net(512, graded=True)
    before = edge_lengths(SPHERE, net)["E"]
    out = reparametrize_constant_speed(SPHERE, net)
    after = edge_lengths(SPHERE, out)["E"]
    assert abs(after - before) / before < 1e-8


def test_reparametrize_rejects_zero_speed():
    torus = FlatTorusChart(HEX_LATTICE)
    graph = WeightedMultigraph.build(["A", "B"], [("E", "A", "B"), ("E2", "A", "B")])
    t = np.linspace(0, 1, 65)
    stalled = np.where(t[:, None] < 0.5, 0.0, (t[:, None] - 0.5) * 2) * np.array([1.0, 0.0])
    net = GeodesicNet(
        graph=graph,
        edge_samples={"E": stalled, "E2": t[:, None] * np.array([1.0, 0.0])},
        vertex_positions={"A": np.zeros(2), "B": np.array([1.0, 0.0])},
    )
    with pytest.raises(ValueError):
        reparametrize_constant_speed(torus, net)


def _inward_tangents(case, v):
    """The stationarity report's inward unit tangents at v, in incident-pair order."""
    rep = stationarity_residual(case.chart, case.net)
    return [rep.tangents[pair] for pair in case.net.graph.incident_pairs(v)]


def test_vertex_unit_tangents_honeycomb_angles():
    case = make_case("honeycomb-torus", 64)
    vecs = _inward_tangents(case, "A")
    assert len(vecs) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            ang = np.degrees(np.arccos(np.clip(vecs[i] @ vecs[j], -1, 1)))
            assert abs(ang - 120.0) < 1e-6 / np.pi * 180


def test_vertex_unit_tangents_loop_opposite():
    case = make_case("flat-loop", 64)
    t1, t2 = _inward_tangents(case, "V")
    assert np.abs(t1 + t2).max() < 1e-10


def test_vertex_unit_tangents_theta_g_angles():
    case = make_case("sphere-theta", 64)
    for v in ("N", "S"):
        p = case.net.vertex_positions[v]
        vecs = _inward_tangents(case, v)
        for i in range(3):
            for j in range(i + 1, 3):
                cosang = g_dot(case.chart, p[None, :], vecs[i][None, :], vecs[j][None, :])[0]
                ang = np.arccos(np.clip(cosang, -1, 1))
                assert abs(ang - 2 * np.pi / 3) < 1e-4


def test_check_net_catches_endpoint_mismatch():
    case = make_case("honeycomb-torus", 32)
    net = case.net.copy()
    net.edge_samples["E1"][0] += np.array([0.01, 0.0])
    problems = check_net(case.chart, net)
    assert problems and "E1" in problems[0]


def test_resample_preserves_geometry():
    case = make_case("sphere-equator", 64)
    fine = reparametrize_constant_speed(case.chart, case.net, n_samples=128)
    assert fine.edge_samples["E"].shape[0] == 129
    # quadrature scale at the new resolution, not interpolation error
    assert abs(length(case.chart, fine) - 2 * np.pi) < 5e-6


# -- stacked edge groups -----------------------------------------------------

def _two_group_theta():
    """sphere-theta with edge E2 resampled to 40 intervals: two groups."""
    case = make_case("sphere-theta", 32)
    net = jitter_net(case.net, np.random.default_rng(7), amp=0.02)
    s = net.edge_samples["E2"]
    out = stencils.evaluate_curve(s, np.linspace(0.0, 1.0, 41), loop=False)
    out[0], out[-1] = s[0], s[-1]
    net.edge_samples["E2"] = out
    return case.chart, net


def _bumped_honeycomb(kind):
    case = make_case("honeycomb-torus", 32)
    if kind == "radial":
        fld = RadialBumpField([0.4, 0.1], 0.3, 1.0, chart=case.chart)
    else:
        # the ball meets its anchor edge only, as for the bumps the solver builds
        pts, vel, center = _anchor_spline_data(case.net, "E1", 16)
        fld = DirectionalBumpField(center, 0.2, [0.6, 0.8], pts, vel, chart=case.chart, power=2)
    chart = conformal_family(case.chart, fld, 0.5)
    return chart, jitter_net(case.net, np.random.default_rng(8), amp=0.02)


def _group_configs():
    equator = make_case("sphere-equator", 32)
    return {
        "theta-two-groups": _two_group_theta(),
        "equator-loop": (equator.chart, jitter_net(equator.net, np.random.default_rng(9), amp=0.02)),
        "honeycomb-radial": _bumped_honeycomb("radial"),
        "honeycomb-directional": _bumped_honeycomb("directional"),
    }


def _per_edge_results(chart, net):
    basis, reduced = reduced_gradient(chart, net)
    return {
        "reparametrize": reparametrize_constant_speed(chart, net).edge_samples,
        "lengths": edge_lengths(chart, net),
        "gradient": length_sample_gradient(chart, net),
        "frames": {e.id: edge_frames(basis)[e.id] for e in net.graph.edges},
        "reduced": {"all": reduced},
    }


@pytest.mark.parametrize("name", ["theta-two-groups", "equator-loop", "honeycomb-radial",
                                  "honeycomb-directional"])
def test_stacked_groups_match_groups_of_one_bitwise(name, monkeypatch):
    chart, net = _group_configs()[name]
    grouped = GeodesicNet.edge_groups
    sizes = [len(g.ids) for g in net.edge_groups()]
    assert sum(sizes) == len(net.graph.edges)
    if name != "equator-loop":
        assert max(sizes) > 1
    stacked = _per_edge_results(chart, net)

    def groups_of_one(self):
        return [EdgeGroup(ids=(eid,), samples=g.samples[k : k + 1], loop=g.loop,
                          multiplicities=g.multiplicities[k : k + 1])
                for g in grouped(self) for k, eid in enumerate(g.ids)]

    monkeypatch.setattr(GeodesicNet, "edge_groups", groups_of_one)
    alone = _per_edge_results(chart, net)
    for what, per_edge in stacked.items():
        assert per_edge.keys() == alone[what].keys(), what
        for key, value in per_edge.items():
            assert np.array_equal(value, alone[what][key]), (what, key)


@pytest.mark.parametrize("two_groups", [False, True])
def test_one_trial_evaluates_the_metric_once_per_group(two_groups, monkeypatch):
    """One line-search trial on sphere-theta: reparametrizing, and then the
    reduced gradient, each make one factor-jet call per group, not per edge."""
    if two_groups:
        chart, net = _two_group_theta()
    else:
        case = make_case("sphere-theta", 32)
        chart, net = case.chart, jitter_net(case.net, np.random.default_rng(7), amp=0.02)
    calls = Counter()
    method = StereographicSphereChart.factor_jet_many

    def counted(self, points, order=2):
        calls[order] += 1
        return method(self, points, order)

    monkeypatch.setattr(StereographicSphereChart, "factor_jet_many", counted)
    moved = reparametrize_constant_speed(chart, net)
    groups = 2 if two_groups else 1
    assert len(net.edge_groups()) == groups < len(net.graph.edges)
    assert calls == {0: groups}
    reduced_gradient(chart, moved)
    assert calls == {0: groups, 1: groups}

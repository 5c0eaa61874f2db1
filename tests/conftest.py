import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from geodesicnets import NetField, ScalarField, make_case, specfile, stencils
from geodesicnets.geometry import StereographicSphereChart, _constant_jet

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


NUMBER = re.compile(r"(\d+(?:\.\d*)?(?:e[-+]\d+)?)")
# A spectral gap over a singular value at rounding level moves with the
# BLAS thread count; a recorded ratio this large need only stay this large.
HUGE_RATIO = 1e10


def _agrees(got: str, want: str) -> bool:
    """A printed number against its recording."""
    if not any(c in want for c in ".e"):
        return got == want
    if float(want) >= HUGE_RATIO:
        return float(got) >= HUGE_RATIO
    mantissa, _, exponent = want.partition("e")
    unit = 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))
    return abs(float(got) - float(want)) <= unit * (1.0 + 1e-9)


def text_agrees(got: str, want: str) -> bool:
    """Printed text against its recording: the words and integers exactly,
    every other number by ``_agrees`` (within one unit of its last recorded
    digit, or at or above ``HUGE_RATIO`` where the recording is)."""
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    return (len(got_parts) == len(want_parts) and got_parts[::2] == want_parts[::2]
            and all(map(_agrees, got_parts[1::2], want_parts[1::2])))


class ConstantField(ScalarField):
    """The constant scalar field c: a constant conformal factor."""

    def __init__(self, c: float):
        self.c = float(c)

    def jet_many(self, points, order):
        return _constant_jet(self.c, points, order)

    def bounds(self):
        return (self.c, self.c)


def case(name, n=64, **kw):
    return make_case(name, n_samples=n, **kw)


def random_ambient_field(chart, net, rng, modes=2, normalize=True):
    """Smooth random field, vertex-consistent, tangential parts included."""
    vals = {}
    vvals = {v: rng.normal(size=net.dim) for v in net.graph.vertices}
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        t = np.linspace(0.0, 1.0, s.shape[0])
        base = np.outer(1 - t, vvals[e.endpoint(0)]) + np.outer(t, vvals[e.endpoint(1)])
        for k in range(1, modes + 1):
            base = base + np.outer(np.sin(np.pi * k * t), rng.normal(size=net.dim))
        vals[e.id] = base
    fld = NetField(vals)
    if normalize:
        mx = fld.max_norm(chart, net)
        fld = fld.scaled(1.0 / mx)
    return fld


def jitter_net(net, rng, amp=0.05, vertex_only=False):
    """Displace vertices (and optionally interior samples) smoothly."""
    out = net.copy()
    jit = {v: rng.uniform(-amp, amp, size=net.dim) for v in net.graph.vertices}
    for e in net.graph.edges:
        s = out.edge_samples[e.id]
        t = np.linspace(0.0, 1.0, s.shape[0])
        s += np.outer(1 - t, jit[e.endpoint(0)]) + np.outer(t, jit[e.endpoint(1)])
        if not vertex_only:
            s += np.outer(np.sin(np.pi * t), rng.uniform(-amp, amp, size=net.dim))
    for v in out.vertex_positions:
        out.vertex_positions[v] = out.vertex_positions[v] + jit[v]
    return out


def edge_frames(basis):
    """The frames (N+1, n-1, n) of every edge of a one-copy ``ReducedBasis``,
    by edge id in group order."""
    return {e: fr for ids, frames in zip(basis.ids, basis.frames)
            for e, fr in zip(ids, frames)}


def theta3d_doc():
    """Spec document of a theta net in flat 3-space (not planar)."""
    t = np.linspace(0.0, 1.0, 17)
    bend = np.sin(np.pi * t)
    zero = np.zeros_like(t)
    curves = {"E1": np.stack([t, 0.3 * bend, zero], axis=1),
              "E2": np.stack([t, -0.3 * bend, zero], axis=1),
              "E3": np.stack([t, zero, 0.3 * bend], axis=1)}
    return {
        "graph": {"vertices": ["A", "B"],
                  "edges": [{"id": e, "v0": "A", "v1": "B"} for e in curves]},
        "metric": {"kind": "euclidean", "dim": 3},
        "net": {"vertices": {"A": [0.0, 0.0, 0.0], "B": [1.0, 0.0, 0.0]},
                "edges": {e: {"samples": c.tolist()} for e, c in curves.items()}},
        "options": {},
    }


def interleaved_theta(n_samples=32):
    """(chart, net): sphere-theta with edge E2 resampled to twice the
    intervals, so that the sample counts 33/65/33 (at N = 32) give two edge
    groups, [E1, E3] and [E2], which interleave in graph order."""
    case = make_case("sphere-theta", n_samples)
    net = case.net.copy()
    s = net.edge_samples["E2"]
    out = stencils.evaluate_curve(s, np.linspace(0.0, 1.0, 2 * n_samples + 1), loop=False)
    out[0], out[-1] = s[0], s[-1]
    net.edge_samples["E2"] = out
    return case.chart, net


def lifted_sphere(name, n_samples):
    """(chart, net): a built-in case on the unit sphere drawn in the
    stereographic chart of the unit 3-sphere with a zero third coordinate.
    That coordinate plane is a totally geodesic 2-sphere, so the net stays
    stationary."""
    net = make_case(name, n_samples).net

    def lift(a):
        return np.concatenate([a, np.zeros(a.shape[:-1] + (1,))], axis=-1)

    return StereographicSphereChart(1.0, dim=3), replace(
        net, edge_samples={e: lift(s) for e, s in net.edge_samples.items()},
        vertex_positions={v: lift(p) for v, p in net.vertex_positions.items()})


def jittered(name, n_samples=24, seed=8):
    """(chart, net), jittered: a built-in case, the theta net in flat
    3-space ("theta3d") or ``interleaved_theta`` ("interleaved", at N = 32)."""
    if name == "theta3d":
        spec = specfile.parse_spec(theta3d_doc())
        chart, net = spec.chart(), spec.net
    elif name == "interleaved":
        chart, net = interleaved_theta()
    else:
        case = make_case(name, n_samples)
        chart, net = case.chart, case.net
    return chart, jitter_net(net, np.random.default_rng(seed), amp=0.02)


def metric_tensor_jet(chart, points):
    """The dense metric jet of a conformally flat chart, from its factor jet:
    g_ij, d_k g_ij and d_k d_l g_ij, indexed [.., i, j], [.., k, i, j] and
    [.., k, l, i, j].  With g = lam delta and lam = e^(2 phi):
    d_k g = 2 lam phi_k delta and d_k d_l g = lam (4 phi_k phi_l + 2 phi_kl) delta."""
    lam, dphi, ddphi = chart.factor_jet_many(points, 2)
    eye = np.eye(points.shape[1])
    g = lam[:, None, None] * eye
    dg = (2.0 * lam[:, None] * dphi)[:, :, None, None] * eye
    ddg = (lam[:, None, None] * (4.0 * dphi[:, :, None] * dphi[:, None, :] + 2.0 * ddphi)
           )[:, :, :, None, None] * eye
    return g, dg, ddg

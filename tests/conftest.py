import numpy as np
import pytest
from hypothesis import settings

from geodesicnets import NetField, make_case
from geodesicnets.net import displace

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


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
    out.lengths = {}
    return out


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

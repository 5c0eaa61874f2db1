"""Seeded benchmark inputs built from ``geodesicnets generate`` documents.

Every function takes a net-spec document (the JSON written by
``geodesicnets generate``) and returns a new document; the input document
is never modified.  All randomness comes from the ``numpy`` generator the
caller passes, so one seed always gives the same inputs.

The benchmark seed picks an isometric placement of each input.  The shape
of a perturbation comes from the fixed ``SHAPE_SEED`` instead: a Newton
solve's iteration count depends on that shape, and a benchmark whose work
changed from seed to seed could not tell a slower program from a harder
input.
"""

from __future__ import annotations

import copy

import numpy as np

# Smooth three-mode normal noise and vertex jitter, both of this size in
# chart coordinates.
PERTURB_AMPLITUDE = 1e-2

# The conformal bump family that ``continue`` follows on the honeycomb torus.
CONTINUE_BUMP = {"center": [0.5, 0.05], "radius": 0.2, "amplitude": 0.4}
CONTINUE_SCHEDULE = [0.0, 0.25, 0.5, 0.75, 1.0]

# Seed of the generator that draws perturbation shapes.
SHAPE_SEED = 2107


def _unit_normals(samples: np.ndarray) -> np.ndarray:
    tangent = np.gradient(samples, axis=0)
    normal = np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)
    return normal / np.linalg.norm(normal, axis=1, keepdims=True)


def _edge_arrays(doc: dict) -> dict[str, np.ndarray]:
    return {eid: np.asarray(e["samples"], dtype=float) for eid, e in doc["net"]["edges"].items()}


def _store(doc: dict, samples: dict[str, np.ndarray], vertices: dict[str, np.ndarray],
           move=None) -> dict:
    """A copy of ``doc`` with new edges and vertices; ``move`` maps each
    ``metric.bumps`` center along, so that the metric moves with the net."""
    out = copy.deepcopy(doc)
    for eid, s in samples.items():
        out["net"]["edges"][eid]["samples"] = s.tolist()
    out["net"]["vertices"] = {v: p.tolist() for v, p in vertices.items()}
    if move is not None:
        for bump in out["metric"].get("bumps", []):
            bump["center"] = move(np.asarray(bump["center"], dtype=float)).tolist()
    return out


def perturbed(doc: dict, rng: np.random.Generator, amplitude: float = PERTURB_AMPLITUDE) -> dict:
    """Vertex jitter plus smooth three-mode normal noise on every edge.

    Open edges carry the jitter of their end vertices as linear ramps and
    noise modes sin(k pi t), which vanish at both ends; periodic edges move
    rigidly with their vertex and carry seam-periodic modes sin(2 k pi t).
    Endpoint samples keep matching their vertices, so the result is a valid
    spec that is no longer stationary.
    """
    if len(next(iter(doc["net"]["vertices"].values()))) != 2:
        raise ValueError("perturbed inputs are defined for planar charts only")
    periodic = set(doc["net"].get("periodic_edges", []))
    jitter = {
        v: amplitude * rng.uniform(-1.0, 1.0, size=2) for v in sorted(doc["net"]["vertices"])
    }
    vertices = {v: np.asarray(p, dtype=float) + jitter[v] for v, p in doc["net"]["vertices"].items()}
    edges = {e["id"]: e for e in doc["graph"]["edges"]}
    samples = {}
    for eid, s in sorted(_edge_arrays(doc).items()):
        t = np.linspace(0.0, 1.0, s.shape[0])
        e = edges[eid]
        if eid in periodic:
            moved = s + jitter[e["v0"]]
            modes = [np.sin(2.0 * np.pi * k * t) for k in (1, 2, 3)]
        else:
            moved = s + np.outer(1.0 - t, jitter[e["v0"]]) + np.outer(t, jitter[e["v1"]])
            modes = [np.sin(np.pi * k * t) for k in (1, 2, 3)]
        profile = sum(c * m for c, m in zip(rng.normal(size=3), modes))
        profile *= amplitude / max(float(np.abs(profile).max()), 1e-300)
        samples[eid] = moved + profile[:, None] * _unit_normals(s)
    return _store(doc, samples, vertices)


def translated(doc: dict, rng: np.random.Generator) -> dict:
    """Rigid translation by a random vector: an isometry of a flat torus.
    Bump centers move along."""
    if doc["metric"]["kind"] != "flat-torus":
        raise ValueError("translations are isometries of flat-torus specs only")
    shift = rng.uniform(-0.5, 0.5, size=len(doc["metric"]["lattice"]))
    samples = {eid: s + shift for eid, s in _edge_arrays(doc).items()}
    vertices = {v: np.asarray(p, dtype=float) + shift for v, p in doc["net"]["vertices"].items()}
    return _store(doc, samples, vertices, lambda p: p + shift)


def rotated(doc: dict, rng: np.random.Generator, half_turns: bool = False) -> dict:
    """Rotation about the chart origin: an isometry of the stereographic
    sphere metric, whose conformal factor depends on |x| only.  Bump
    centers move along.

    With ``half_turns`` the angle is 0 or pi.  Negating both coordinates is
    exact in floating point, so a Newton solve takes the same steps; any
    other angle changes rounding, and with it the iteration at which the
    stalled sphere-theta solve stops (16 instead of 20 for a quarter turn).
    """
    if doc["metric"]["kind"] != "stereographic-sphere" or doc["metric"].get("dim", 2) != 2:
        raise ValueError("rotations are isometries of planar stereographic-sphere specs only")
    if half_turns:
        rot = np.eye(2) * (1.0 if rng.integers(2) else -1.0)
    else:
        angle = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    samples = {eid: s @ rot.T for eid, s in _edge_arrays(doc).items()}
    vertices = {v: rot @ np.asarray(p, dtype=float) for v, p in doc["net"]["vertices"].items()}
    return _store(doc, samples, vertices, lambda p: rot @ p)


def isometric(doc: dict, rng: np.random.Generator, half_turns: bool = False) -> dict:
    """A random isometric copy: the net stays exactly as stationary as before.
    ``half_turns`` is passed to ``rotated``."""
    if doc["metric"]["kind"] == "flat-torus":
        return translated(doc, rng)
    return rotated(doc, rng, half_turns)


def with_continue_bump(doc: dict) -> dict:
    """Add the conformal bump and amplitude schedule that ``continue`` needs."""
    out = copy.deepcopy(doc)
    out["metric"]["bumps"] = [dict(CONTINUE_BUMP)]
    out["metric"]["amplitude_schedule"] = list(CONTINUE_SCHEDULE)
    return out

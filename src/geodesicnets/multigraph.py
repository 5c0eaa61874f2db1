"""Weighted multigraphs underlying nets: validation, classification, preferred pairs."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["WeightedMultigraph", "GraphClass", "validate", "classify", "preferred_pair"]


@dataclass(frozen=True)
class EdgeRecord:
    id: str
    v0: str
    v1: str
    multiplicity: int = 1

    def endpoint(self, i: int) -> str:
        return self.v0 if i == 0 else self.v1


@dataclass(frozen=True)
class WeightedMultigraph:
    """Multigraph with positive integer edge multiplicities.

    Each edge is identified with the parameter interval [0, 1]; endpoint 0
    maps to ``v0`` and endpoint 1 to ``v1``.  Self-loops (v0 == v1) are
    allowed and contribute two incident edge-ends to their vertex.
    """

    vertices: tuple[str, ...]
    edges: tuple[EdgeRecord, ...]

    @staticmethod
    def build(vertices, edges) -> "WeightedMultigraph":
        """edges: iterable of (id, v0, v1) or (id, v0, v1, multiplicity)."""
        recs = []
        for e in edges:
            if isinstance(e, EdgeRecord):
                recs.append(e)
            elif len(e) == 3:
                recs.append(EdgeRecord(e[0], e[1], e[2], 1))
            else:
                recs.append(EdgeRecord(e[0], e[1], e[2], int(e[3])))
        return WeightedMultigraph(tuple(vertices), tuple(recs))

    def edge(self, edge_id: str) -> EdgeRecord:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(f"unknown edge {edge_id!r}")

    def incident_pairs(self, v: str) -> list[tuple[str, int]]:
        """All (edge id, endpoint index) with that endpoint at v, in edge order."""
        pairs = []
        for e in self.edges:
            for i in (0, 1):
                if e.endpoint(i) == v:
                    pairs.append((e.id, i))
        return pairs


class GraphClass(Enum):
    GOOD_STAR = "good*"
    LOOP_WITH_MULTIPLICITY = "loop"
    NOT_GOOD = "not-good"


def validate(graph: WeightedMultigraph) -> list[str]:
    """Return a list of invariant violations (empty when the graph is valid)."""
    problems: list[str] = []
    seen_v = set()
    for v in graph.vertices:
        if v in seen_v:
            problems.append(f"duplicate vertex id {v!r}")
        seen_v.add(v)
    seen_e = set()
    for e in graph.edges:
        if e.id in seen_e:
            problems.append(f"duplicate edge id {e.id!r}")
        seen_e.add(e.id)
        if e.multiplicity < 1:
            problems.append(f"edge {e.id!r} has multiplicity {e.multiplicity} < 1")
        for i in (0, 1):
            if e.endpoint(i) not in seen_v and e.endpoint(i) not in graph.vertices:
                problems.append(f"edge {e.id!r} endpoint {i} references unknown vertex {e.endpoint(i)!r}")
    for v in graph.vertices:
        ends = len(graph.incident_pairs(v))
        if ends < 2:
            problems.append(f"vertex {v!r} has {ends} incident edge-end(s); at least 2 required")
    return problems


def _connected(graph: WeightedMultigraph) -> bool:
    if not graph.vertices:
        return False
    adj: dict[str, set[str]] = {v: set() for v in graph.vertices}
    for e in graph.edges:
        adj[e.v0].add(e.v1)
        adj[e.v1].add(e.v0)
    stack = [graph.vertices[0]]
    seen = set()
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    return len(seen) == len(graph.vertices)


def classify(graph: WeightedMultigraph) -> GraphClass:
    """good*: connected with >= 3 distinct incident edges per vertex;
    loop: a single self-loop edge (a circle with multiplicity); anything
    else, including cycles subdivided by degree-2 vertices, is not good."""
    if validate(graph):
        raise ValueError("cannot classify an invalid graph")
    if not _connected(graph):
        return GraphClass.NOT_GOOD
    distinct = {
        v: len({eid for eid, _ in graph.incident_pairs(v)}) for v in graph.vertices
    }
    if all(d >= 3 for d in distinct.values()):
        return GraphClass.GOOD_STAR
    if len(graph.vertices) == 1 and len(graph.edges) == 1:
        e = graph.edges[0]
        if e.v0 == e.v1:
            return GraphClass.LOOP_WITH_MULTIPLICITY
    return GraphClass.NOT_GOOD


def preferred_pair(graph: WeightedMultigraph, v: str) -> tuple[str, int]:
    """The deterministic preferred (edge id, endpoint index) at v: the
    incident pair with the lowest edge id, breaking ties by the lower
    endpoint index.  An unknown vertex raises KeyError.
    """
    if v not in graph.vertices:
        raise KeyError(f"unknown vertex {v!r}")
    return min(graph.incident_pairs(v))

import pytest

from geodesicnets import GraphClass, WeightedMultigraph, classify, star, validate


def theta_graph():
    return WeightedMultigraph.build(
        ["A", "B"], [("E1", "A", "B"), ("E2", "A", "B"), ("E3", "A", "B")]
    )


def loop_graph(mult=2):
    return WeightedMultigraph.build(["V"], [("E", "V", "V", mult)])


def test_validate_honeycomb_clean():
    assert validate(theta_graph()) == []


def test_validate_loop_with_multiplicity_clean():
    assert validate(loop_graph(2)) == []


def test_validate_names_degree_one_vertex():
    g = WeightedMultigraph.build(["A", "B", "C"], [("E1", "A", "B"), ("E2", "A", "B"), ("E3", "A", "C")])
    problems = validate(g)
    assert len(problems) == 1
    assert "'C'" in problems[0]


def test_validate_rejects_bad_multiplicity_and_unknown_vertex():
    g = WeightedMultigraph.build(["A"], [("E1", "A", "A", 0), ("E2", "A", "Z")])
    problems = validate(g)
    assert any("multiplicity" in p for p in problems)
    assert any("unknown vertex" in p for p in problems)


def test_classify_theta_good_star():
    assert classify(theta_graph()) is GraphClass.GOOD_STAR


def test_classify_self_loop():
    assert classify(loop_graph(2)) is GraphClass.LOOP_WITH_MULTIPLICITY
    assert classify(loop_graph(1)) is GraphClass.LOOP_WITH_MULTIPLICITY


def test_classify_two_parallel_edges_not_good():
    g = WeightedMultigraph.build(["A", "B"], [("E1", "A", "B"), ("E2", "A", "B")])
    assert classify(g) is GraphClass.NOT_GOOD


def test_classify_subdivided_edge_not_good():
    # theta graph with one edge split by a degree-2 vertex
    g = WeightedMultigraph.build(
        ["A", "B", "M"],
        [("E1", "A", "M"), ("E1b", "M", "B"), ("E2", "A", "B"), ("E3", "A", "B")],
    )
    assert classify(g) is GraphClass.NOT_GOOD


def test_classify_subdivided_circle_not_good():
    g = WeightedMultigraph.build(
        ["A", "B", "C"], [("E1", "A", "B", 2), ("E2", "B", "C", 2), ("E3", "C", "A", 2)]
    )
    assert classify(g) is GraphClass.NOT_GOOD


def test_classify_rejects_invalid_graph():
    g = WeightedMultigraph.build(["A", "B"], [("E1", "A", "B")])
    with pytest.raises(ValueError):
        classify(g)


def test_classify_invariant_under_relabeling(rng):
    base = theta_graph()
    for _ in range(10):
        vperm = {v: f"v{rng.integers(1e6)}" for v in base.vertices}
        eperm = {e.id: f"e{rng.integers(1e6)}" for e in base.edges}
        g2 = WeightedMultigraph.build(
            [vperm[v] for v in base.vertices],
            [(eperm[e.id], vperm[e.v0], vperm[e.v1], e.multiplicity) for e in base.edges],
        )
        assert classify(g2) is classify(base)


def test_edge_end_count_identity():
    for g in (theta_graph(), loop_graph()):
        total = sum(len(g.incident_pairs(v)) for v in g.vertices)
        assert total == 2 * len(g.edges)


def test_star_preferred_pair_deterministic():
    g = theta_graph()
    s = star(g, "A")
    assert s.preferred == ("E1", 0)
    assert s.m == 3


def test_star_self_loop_two_pairs():
    g = loop_graph()
    s = star(g, "V")
    assert s.pairs == (("E", 0), ("E", 1))
    assert s.m == 2


def test_star_vertex_b_all_incoming():
    g = theta_graph()
    s = star(g, "B")
    assert all(i == 1 for _, i in s.pairs)
    assert s.preferred == ("E1", 1)


def test_star_unknown_vertex():
    with pytest.raises(KeyError):
        star(theta_graph(), "Z")

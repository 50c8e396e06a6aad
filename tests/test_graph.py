"""Labelled open graph structure: odd neighbourhoods and graph rewrites."""

import random
from fractions import Fraction

import pytest

from pauliflow.graph import LabelledOpenGraph, MeasurementPattern, edge
from tests.conftest import random_labelled_graph
from tests.reference_extract import input_extend

F = Fraction


def test_odd_neighbourhood_empty(worked_pattern):
    assert worked_pattern.graph.odd_neighbourhood([]) == frozenset()


def test_odd_neighbourhood_worked_example_rows(worked_pattern):
    g = worked_pattern.graph
    assert g.odd_neighbourhood({"a", "c", "d", "o2"}) == {"d", "o1", "o2"}
    assert g.odd_neighbourhood({"c", "o2"}) == {"a", "o1"}
    # remaining flow-table rows, re-verified for fixture consistency
    assert g.odd_neighbourhood({"b", "o2"}) == {"i", "a"}
    assert g.odd_neighbourhood({"c", "d", "o1"}) == {"b", "d", "o1", "o2"}
    assert g.odd_neighbourhood({"o1"}) == {"c"}
    assert g.odd_neighbourhood({"o2"}) == {"d"}


def test_worked_example_fixture_counts(worked_pattern):
    g = worked_pattern.graph
    p_a = {"a", "c", "d", "o2"}
    assert sum(set(e) <= p_a for e in g.edges) == 4
    assert len(p_a & g.odd_neighbourhood(p_a)) == 2


def test_odd_neighbourhood_unknown_vertex(worked_pattern):
    with pytest.raises(KeyError):
        worked_pattern.graph.odd_neighbourhood({"nope"})


def test_odd_symmetric_difference_property():
    rng = random.Random(4)
    for _ in range(200):
        g = random_labelled_graph(rng, rng.randrange(2, 9))
        verts = sorted(g.vertices)
        a = frozenset(v for v in verts if rng.random() < 0.5)
        b = frozenset(v for v in verts if rng.random() < 0.5)
        assert g.odd_neighbourhood(a ^ b) == g.odd_neighbourhood(a) ^ g.odd_neighbourhood(b)


def test_local_complement_isolated():
    g = LabelledOpenGraph.make(["u", "o"], [], [], ["u", "o"], {})
    assert g.local_complement("u") == g


def test_local_complement_worked_example_d(worked_pattern):
    g = worked_pattern.graph
    g2 = g.local_complement("d")
    # connectivity within N(d) = {a, b, c, o2} complemented
    for pair, was in ((("a", "b"), True), (("a", "c"), True), (("b", "c"), False),
                      (("a", "o2"), False), (("b", "o2"), False), (("c", "o2"), False)):
        assert g2.adjacent(*pair) == (not was)
    # edges at d itself and outside N(d) untouched
    assert g2.adjacent("i", "b") and g2.adjacent("a", "d") and g2.adjacent("d", "o2")


def test_local_complement_star():
    g = LabelledOpenGraph.make(
        ["u", "a", "b", "c"], [("u", "a"), ("u", "b"), ("u", "c")],
        [], ["u", "a", "b", "c"], {})
    g2 = g.local_complement("u")
    assert g2.adjacent("a", "b") and g2.adjacent("a", "c") and g2.adjacent("b", "c")


def test_local_complement_involution():
    rng = random.Random(5)
    for _ in range(100):
        g = random_labelled_graph(rng, rng.randrange(2, 9))
        u = rng.choice(sorted(g.vertices))
        assert g.local_complement(u).local_complement(u) == g


def test_pivot_single_edge():
    g = LabelledOpenGraph.make(["u", "v"], [("u", "v")], [], ["u", "v"], {})
    assert g.pivot("u", "v") == g


def test_pivot_requires_edge(worked_pattern):
    with pytest.raises(ValueError):
        worked_pattern.graph.pivot("i", "c")


def test_pivot_order_independent():
    rng = random.Random(6)
    done = 0
    while done < 200:
        g = random_labelled_graph(rng, rng.randrange(3, 9))
        if not g.edges:
            continue
        u, v = sorted(rng.choice(sorted(g.edges)))
        a = g.local_complement(u).local_complement(v).local_complement(u)
        b = g.local_complement(v).local_complement(u).local_complement(v)
        assert a == b == g.pivot(u, v)
        done += 1


def test_pivot_path_by_definition():
    g = LabelledOpenGraph.make(
        ["a", "u", "v", "b"], [("a", "u"), ("u", "v"), ("v", "b")],
        [], ["a", "u", "v", "b"], {})
    got = g.pivot("u", "v")
    step = g.local_complement("u").local_complement("v").local_complement("u")
    assert got == step


def test_input_extend(worked_pattern):
    g = worked_pattern.graph
    g2, ext = input_extend(g, ["i"])
    assert ext == {"i": "i'"}
    assert len(g2.inputs) == len(g.inputs)
    assert g2.inputs == {"i'"}
    assert g2.adjacent("i'", "i")
    assert g2.labels["i'"] == "XY"
    with pytest.raises(ValueError):
        input_extend(g, ["a"])


def test_input_extend_names_around_taken_ids():
    # i' is already a vertex, and j's first choice j' is another input:
    # inputs are taken in sorted order, each id getting ' appended while it
    # is a vertex or an earlier extension id.
    g = LabelledOpenGraph.make(
        ["i", "i'", "j", "j'", "o"], [("i", "i'"), ("i'", "o"), ("j", "o"), ("j'", "o")],
        ["i", "j", "j'"], ["o"], {"i": "XY", "i'": "XY", "j": "XY", "j'": "XY"})
    g2, ext = input_extend(g, g.inputs)
    assert ext == {"i": "i''", "j": "j''", "j'": "j'''"}
    assert g2.inputs == {"i''", "j''", "j'''"}
    assert g2.vertices == g.vertices | set(ext.values())
    assert g2.edges == g.edges | {edge(u, new) for u, new in ext.items()}
    assert all(g2.labels[new] == "XY" for new in ext.values())
    step = g  # extending one input at a time gives the same ids and graph
    for u in sorted(g.inputs):
        step, one = input_extend(step, [u])
        assert one == {u: ext[u]}
    assert step == g2


def test_remove_vertex(worked_pattern):
    g = worked_pattern.graph
    g2 = g.remove_vertex("a")
    assert "a" not in g2.vertices
    assert not any("a" in e for e in g2.edges)
    assert len(g2.edges) == len(g.edges) - 3
    with pytest.raises(ValueError):
        g.remove_vertex("i")
    with pytest.raises(ValueError):
        g.remove_vertex("o1")


def test_remove_vertex_odd_property():
    rng = random.Random(7)
    done = 0
    while done < 100:
        g = random_labelled_graph(rng, rng.randrange(3, 9))
        candidates = sorted(g.measured - g.inputs)
        if not candidates:
            continue
        u = rng.choice(candidates)
        g2 = g.remove_vertex(u)
        sub = frozenset(v for v in sorted(g.vertices) if v != u and rng.random() < 0.5)
        assert g2.odd_neighbourhood(sub) == g.odd_neighbourhood(sub) - {u}
        done += 1


def test_isolated_measured_vertex_removal():
    g = LabelledOpenGraph.make(["u", "o"], [], [], ["o"], {"u": "Z"})
    assert len(g.remove_vertex("u").vertices) == 1


def test_pattern_validation():
    with pytest.raises(ValueError):
        MeasurementPattern.make(["a", "o"], [("a", "o")], [], ["o"],
                                {"a": "XY"}, {})  # missing angle
    with pytest.raises(ValueError):
        MeasurementPattern.make(["a", "o"], [("a", "o")], [], ["o"],
                                {"a": "Y"}, {"a": F(1, 2)})  # Pauli needs 0/pi
    p = MeasurementPattern.make(["a", "o"], [("a", "o")], [], ["o"],
                                {"a": "XY"}, {"a": F(7, 2)})
    assert p.angles["a"] == F(3, 2)


def test_overlapping_input_output_allowed():
    g = LabelledOpenGraph.make(["w"], [], ["w"], ["w"], {})
    assert g.measured == frozenset()
    p = MeasurementPattern(g, {})
    assert p.graph.inputs == p.graph.outputs == {"w"}

"""Differential tests: the bit-mask flow and focus checks and extraction
strings against the string-set code kept in reference_flow.py.

Violation lists (order included), booleans, focussed sets with their odd
neighbourhoods and fired vertices, and extraction strings must match
exactly, as must the exception type whenever one side raises.  Inputs are
random labelled graphs with random, mostly invalid, correction sets and
random orders (some omit graph vertices, some list vertices outside the
graph), found and focussed flows of circuit-shaped patterns, and patterns
after local complementations and pivots, which carry XZ, YZ and Z labels.
"""

import random

import pytest

from pauliflow.extract import extraction_string, primary_axis
from pauliflow.flow import (
    FlowOrder,
    PauliFlowData,
    find_pauli_flow,
    focus_flow,
    focus_over,
    focussed_set_generators,
    is_flow_focussed,
    verify_flow,
    verify_focussed,
)
from pauliflow.graph import MeasurementPattern
from pauliflow.rewrite import local_complement_pattern, pivot_pattern
from tests import reference_flow as ref
from tests.conftest import random_angle, random_circuit_pattern, random_labelled_graph

FOREIGN = ("w0", "w1")  # order entries that are not graph vertices


def outcome(call, *args):
    """The result of a call, or the type of the exception it raised."""
    try:
        return call(*args)
    except (KeyError, ValueError) as exc:
        return type(exc)


def random_subset(rng, items, share=0.3):
    return frozenset(v for v in sorted(items) if rng.random() < share)


def random_order(rng, graph):
    """A depth or pair order over a random part of the graph's vertices,
    sometimes with vertices the graph lacks."""
    verts = sorted(random_subset(rng, graph.vertices, rng.random()))
    if rng.random() < 0.3:
        verts += FOREIGN[:rng.randrange(3)]
    rng.shuffle(verts)
    if rng.random() < 0.4:
        depth = {v: rng.randrange(4) for v in verts}
        spread = sorted(random_subset(rng, graph.vertices, 0.5))
        return FlowOrder.from_depth(depth, spread if rng.random() < 0.5 else ())
    pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:] if rng.random() < 0.3]
    return FlowOrder.from_pairs(pairs)


def random_flow(rng, graph):
    """Correction sets of non-input vertices, mostly not a flow."""
    p = {v: random_subset(rng, graph.prepared) for v in sorted(graph.measured)}
    return PauliFlowData(p, random_order(rng, graph))


def random_pattern(rng, graph):
    angles = {v: random_angle(rng, pauli=graph.is_pauli(v)) for v in sorted(graph.measured)}
    return MeasurementPattern(graph, angles)


def assert_same_checks(pattern, flow, rng, sets=4):
    """Every replaced check, old against new, on one pattern and flow."""
    g = pattern.graph
    assert verify_flow(g, flow) == ref.verify_flow(g, flow)
    assert is_flow_focussed(g, flow) == ref.is_flow_focussed(g, flow)
    for v in sorted(g.measured):
        assert outcome(primary_axis, g, flow, v) == outcome(ref.primary_axis, g, flow, v)
        assert (outcome(extraction_string, pattern, flow, v)
                == outcome(ref.extraction_string, pattern, flow, v))
    for _ in range(sets):
        members = random_subset(rng, g.vertices, rng.random())
        over = list(random_subset(rng, g.measured, 0.6)) + list(FOREIGN[:rng.randrange(3)])
        assert verify_focussed(g, members, over) == ref.verify_focussed(g, members, over)
        assert (outcome(extraction_string, pattern, members)
                == outcome(ref.extraction_string, pattern, members))


def assert_same_focus(graph, p, order, v):
    odd, ref_odd = {}, {}
    assert focus_over(graph, p, odd, order, p[v], v) == ref.focus_over(graph, p, ref_odd, order, v)
    assert odd == ref_odd


def test_random_graphs_random_flows():
    rng = random.Random(1101)
    found = set()
    for _ in range(600):
        g = random_labelled_graph(rng, rng.randrange(2, 16))
        pattern = random_pattern(rng, g)
        flow = random_flow(rng, g)
        assert_same_checks(pattern, flow, rng)
        found.update(c for _, c in verify_flow(g, flow))
        measured = sorted(g.measured)
        if measured:
            order = measured + list(FOREIGN[:rng.randrange(3)])
            rng.shuffle(order)
            assert_same_focus(g, flow.p, order, rng.choice(measured))
    # the sample reaches every condition
    assert found == {f"PF{k}" for k in range(1, 10)}


def test_malformed_flows_fail_alike():
    rng = random.Random(1102)
    for _ in range(200):
        g = random_labelled_graph(rng, rng.randrange(2, 10))
        flow = random_flow(rng, g)
        if not g.measured:
            continue
        p = dict(flow.p)
        v = rng.choice(sorted(g.measured))
        kind = rng.randrange(3)
        if kind == 0:
            del p[v]
        elif kind == 1:
            p[v] = p[v] | {"zz"}
        else:
            p[v] = p[v] | g.inputs | {v}
        bad = PauliFlowData(p, flow.order)
        assert outcome(verify_flow, g, bad) == outcome(ref.verify_flow, g, bad)
        assert outcome(is_flow_focussed, g, bad) == outcome(ref.is_flow_focussed, g, bad)


def test_unknown_members_raise_alike():
    rng = random.Random(1103)
    g = random_labelled_graph(rng, 6)
    pattern = random_pattern(rng, g)
    members = frozenset({"zz"}) | random_subset(rng, g.vertices)
    assert outcome(verify_focussed, g, members, g.measured) is KeyError
    assert outcome(ref.verify_focussed, g, members, g.measured) is KeyError
    assert outcome(extraction_string, pattern, members) is KeyError
    assert outcome(ref.extraction_string, pattern, members) is KeyError


def _circuit_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        pattern = random_circuit_pattern(rng, rng.randrange(1, 5), rng.randrange(2, 16))
        flow = find_pauli_flow(pattern.graph)
        yield rng, pattern, flow


def test_found_and_focussed_flows():
    for rng, pattern, flow in _circuit_cases(1104, 80):
        g = pattern.graph
        assert_same_checks(pattern, flow, rng)
        focussed = focus_flow(g, flow)
        assert_same_checks(pattern, focussed, rng)
        # focussing along the reference: the same sets, vertex by vertex
        order = flow.order.temporal_order(g.measured)
        p = dict(flow.p)
        odd = {}
        for v in order:
            p[v], odd[v], _ = ref.focus_over(g, p, odd, order, v)
        assert p == focussed.p
        for fs in focussed_set_generators(g):
            assert (outcome(extraction_string, pattern, fs)
                    == outcome(ref.extraction_string, pattern, fs))
        # a perturbed flow, focussed vertex by vertex, then each input's
        # own set focussed with no vertex skipped (the X-row sweep; the
        # reference focusses it as the set of an extra key None)
        unfocussed = dict(focussed.p)
        for v in sorted(g.measured):
            if rng.random() < 0.3:
                unfocussed[v] = unfocussed[v] ^ random_subset(rng, g.prepared)
        for v in sorted(g.measured):
            assert_same_focus(g, unfocussed, order, v)
        for u in sorted(g.inputs):
            odd, ref_odd = {}, {}
            with_start = {**unfocussed, None: frozenset({u})}
            assert (focus_over(g, unfocussed, odd, order, {u})
                    == ref.focus_over(g, with_start, ref_odd, order, None))
            assert odd == ref_odd
        assert_same_checks(pattern, PauliFlowData(unfocussed, flow.order), rng)


@pytest.mark.parametrize("kind", ["lc", "pivot"])
def test_patterns_after_rewrites(kind):
    labels = set()
    for rng, pattern, flow in _circuit_cases(1105 if kind == "lc" else 1106, 40):
        g = pattern.graph
        focussed = focus_flow(g, flow)
        fsets = focussed_set_generators(g)
        if kind == "lc":
            u = rng.choice(sorted(g.vertices - g.inputs))
            report = local_complement_pattern(pattern, focussed, fsets, u, rng.choice((1, -1)))
        else:
            edges = sorted((a, b) for a, b in g.edges if not {a, b} & g.inputs)
            if not edges:
                continue
            report = pivot_pattern(pattern, focussed, fsets, *rng.choice(edges))
        after, flow2 = report.pattern_after, report.flow_after
        labels.update(after.graph.labels.values())
        assert_same_checks(after, flow2, rng, sets=8)
        for fs in report.fsets_after:
            assert (outcome(extraction_string, after, fs)
                    == outcome(ref.extraction_string, after, fs))
        order = flow2.order.temporal_order(after.graph.measured)
        for v in sorted(after.graph.measured):
            assert_same_focus(after.graph, flow2.p, order, v)
    # lc turns an XY centre into XZ, a pivot its XY ends into YZ
    assert {"lc": "XZ", "pivot": "YZ"}[kind] in labels

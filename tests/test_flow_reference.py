"""Differential tests: the bit-mask flow and focus checks, the one-pass
focussing and the extraction strings against the string-set code kept in
reference_flow.py.

Violation lists (order included), booleans and extraction strings must
match exactly, as must the exception type whenever one side raises.
Inputs are random labelled graphs with random, mostly invalid, correction
sets and random orders (some omit graph vertices, some list vertices
outside the graph), found and focussed flows of circuit-shaped patterns,
and patterns after local complementations and pivots, which carry XZ, YZ
and Z labels.  ``focus_flow`` must give the sets of the reference sweep,
which focusses each correction set in temporal order, vertex by vertex:
on found flows, on flows after ``switch_flow``, on ``add_correction_sets``
perturbations that stay valid, and on the flows after lc and pivot.
"""

import random

import pytest

from pauliflow.extract import extraction_string, primary_axis
from pauliflow.flow import (
    PauliFlowData,
    _check_shape,
    add_correction_sets,
    find_pauli_flow,
    focus_flow,
    focussed_set_generators,
    is_flow_focussed,
    switch_flow,
    verify_flow,
    verify_focussed,
)
from pauliflow.rewrite import local_complement_pattern, pivot_pattern
from tests import reference_flow as ref
from tests.conftest import (
    FOREIGN,
    random_circuit_pattern,
    random_flow,
    random_labelled_graph,
    random_pattern,
    random_subset,
    with_prepared_wires,
)


def outcome(call, *args):
    """The result of a call, or the type of the exception it raised."""
    try:
        return call(*args)
    except (KeyError, ValueError) as exc:
        return type(exc)


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


def assert_same_focus(graph, flow):
    """focus_flow against the reference sweep; returns the focussed flow."""
    focussed = focus_flow(graph, flow)
    order = flow.order.temporal_order(graph.measured)
    p, odd = dict(flow.p), {}
    for v in order:
        p[v], odd[v], _ = ref.focus_over(graph, p, odd, order, v)
    assert focussed.p == p
    assert focussed.order is flow.order
    return focussed


def test_random_graphs_random_flows():
    rng = random.Random(1101)
    found = set()
    for _ in range(600):
        g = random_labelled_graph(rng, rng.randrange(2, 16))
        pattern = random_pattern(rng, g)
        flow = random_flow(rng, g)
        assert_same_checks(pattern, flow, rng)
        found.update(c for _, c in verify_flow(g, flow))
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
        # the focus check rejects a malformed shape first, as verify_flow does
        shape_error = outcome(_check_shape, g, bad)
        assert outcome(is_flow_focussed, g, bad) == (
            shape_error or outcome(ref.is_flow_focussed, g, bad))


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
    switched = perturbed = 0
    for rng, pattern, _ in _circuit_cases(1104, 80):
        # prepared wires give focussed sets to switch with
        pattern = with_prepared_wires(pattern, rng.randrange(len(pattern.graph.inputs) + 1))
        g = pattern.graph
        flow = find_pauli_flow(g)
        assert_same_checks(pattern, flow, rng)
        focussed = assert_same_focus(g, flow)
        assert_same_checks(pattern, focussed, rng)
        fsets = focussed_set_generators(g)
        for fs in fsets:
            assert (outcome(extraction_string, pattern, fs)
                    == outcome(ref.extraction_string, pattern, fs))
        # the found flow with a focussed set added at a vertex, where the
        # switch is not blocked
        measured = sorted(g.measured)
        for fs in fsets:
            try:
                after = switch_flow(g, flow, rng.choice(measured), fs)
            except ValueError:
                continue
            assert_same_focus(g, after)
            switched += 1
        # p(b) added to p(a) for a before b, where the flow stays valid
        pairs = [(a, b) for a in measured for b in measured if flow.order.precedes(a, b)]
        for a, b in rng.sample(pairs, min(len(pairs), 8)):
            for base in (flow, focussed):
                changed = add_correction_sets(base, a, b)
                if verify_flow(g, changed) == []:
                    assert_same_focus(g, changed)
                    perturbed += 1
        # a perturbed, mostly invalid flow: the checks only
        unfocussed = dict(focussed.p)
        for v in measured:
            if rng.random() < 0.3:
                unfocussed[v] = unfocussed[v] ^ random_subset(rng, g.prepared)
        assert_same_checks(pattern, PauliFlowData(unfocussed, flow.order), rng)
    assert switched >= 40 and perturbed >= 200, (switched, perturbed)


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
        assert_same_focus(after.graph, flow2)
    # lc turns an XY centre into XZ, a pivot its XY ends into YZ
    assert {"lc": "XZ", "pivot": "YZ"}[kind] in labels

"""Differential tests: maximally delayed flow identification and the
focussed-set generators against the code kept in reference_flow.py, which
solved each GF(2) system on column-compressed copies of its rows.

Correction sets, depth maps and stuck fronts must be identical, as must the
generators (or the rank error) of the focussed-set group.  Inputs are
random labelled graphs with all six labels, random circuit-shaped patterns
(also with some inputs prepared instead, so there are free generators)
and the sized patterns the stage table times.
"""

import random

import pytest

from pauliflow.flow import FocussedRankError, find_pauli_flow_detailed, focussed_set_generators
from tests import reference_flow as ref
from tests.conftest import (
    random_circuit_pattern,
    random_labelled_graph,
    sized_circuit_pattern,
    with_prepared_wires,
)


def identified(find, graph):
    """(correction sets, depth map, stuck front) of a detailed finder."""
    flow, stuck = find(graph)
    if flow is None:
        return None, None, stuck
    return dict(flow.p), flow.order.depth, stuck


def generators(find, graph):
    try:
        return find(graph)
    except FocussedRankError:
        return FocussedRankError


def reference_generators(graph):
    gens = ref.focussed_set_generators(graph)
    if len(gens) != len(graph.outputs) - len(graph.inputs) or \
            not all(ref.verify_focussed(graph, g, graph.measured) for g in gens):
        return FocussedRankError
    return gens


def assert_same(graph):
    got = identified(find_pauli_flow_detailed, graph)
    assert got == identified(ref.find_pauli_flow_detailed, graph)
    assert generators(focussed_set_generators, graph) == reference_generators(graph)
    return got


def test_random_labelled_graphs():
    rng = random.Random(1201)
    flowful = rank_errors = 0
    labels = set()
    for _ in range(2000):
        g = random_labelled_graph(rng, rng.randrange(2, 16))
        labels.update(g.labels.values())
        p, _, stuck = assert_same(g)
        flowful += p is not None
        assert (p is None) == bool(stuck)
        rank_errors += generators(focussed_set_generators, g) is FocussedRankError
    assert labels == {"XY", "XZ", "YZ", "X", "Y", "Z"}
    assert 200 < flowful < 1800 and rank_errors > 200  # both outcomes well represented


def test_random_circuit_patterns():
    rng = random.Random(1202)
    free = 0
    for _ in range(200):
        pattern = random_circuit_pattern(rng, rng.randrange(1, 6), rng.randrange(5, 40))
        assert assert_same(pattern.graph)[0] is not None
        prepared = with_prepared_wires(pattern, rng.randrange(len(pattern.graph.inputs) + 1))
        assert_same(prepared.graph)
        free += len(prepared.graph.outputs) - len(prepared.graph.inputs)
    assert free > 200


@pytest.mark.parametrize("n", [40, 80, 160])
def test_sized_circuit_patterns(n):
    pattern = sized_circuit_pattern(n, n // 10, seed=n)
    assert assert_same(pattern.graph)[0] is not None
    assert_same(with_prepared_wires(pattern, n // 20).graph)

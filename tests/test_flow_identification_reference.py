"""Differential tests: maximally delayed flow identification and the
focussed-set generators against the code kept in reference_flow.py, which
solved each GF(2) system on column-compressed copies of its rows; and the
round solver against that module's per-candidate bit-mask solve, system by
system.

Correction sets, depth maps and stuck fronts must be identical, as must the
generators (or the rank error) of the focussed-set group.  Inputs are
random labelled graphs with all six labels, random circuit-shaped patterns
(also with some inputs prepared instead, so there are free generators)
and the sized patterns the stage table times.
"""

import random
from collections import Counter

import pytest

from pauliflow import f2
from pauliflow.f2 import bits
from pauliflow.flow import (
    FocussedRankError, _round_solver, find_pauli_flow_detailed, focussed_set_generators)
from pauliflow.graph import BitView
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


# label -> planes identification tries (an input tries only XY)
PLANES = {"XY": ("XY",), "XZ": ("XZ",), "YZ": ("YZ",), "X": ("XY", "XZ"),
          "Y": ("XY", "YZ"), "Z": ("XZ", "YZ")}


def branch(bv, noninput, a_mask, u, plane, want):
    """The branch the round solver takes for u's system: the rank-1 edit of
    the round's shared system it needs and how that ends, read from an
    f2.solve of the shared system itself."""
    lab, adj, n = bv.label, bv.adj, len(bv.verts)
    cols = (a_mask | lab["X"] | lab["Y"]) & noninput
    rows = {w: adj[w] & cols for w in bits(((1 << n) - 1) & ~(a_mask | lab["Y"] | lab["Z"]))}
    rows.update({w: (adj[w] ^ (1 << w)) & cols for w in bits(lab["Y"] & ~a_mask)})
    b = 1 << u if plane == "XY" else adj[u] ^ (1 << u) if plane == "XZ" else adj[u]
    x = f2.solve([r | ((b >> w) & 1) << n for w, r in rows.items()], cols, 1 << n)
    if x is None:
        assert want is None
        return "left-null rejection"
    if (x >> u) & 1:
        return "column dropped, " + ("replaced" if want is not None else "no replacement")
    if (lab["Z"] >> u) & 1:
        if (adj[u] & cols & x).bit_count() % 2 == (b >> u) & 1:
            assert want == x
            return "Z row consistent"
        return "Z row flipped" if want is not None else "Z row in the row space"
    assert want == x
    return "shared system"


def compare_round_systems(graph, branches):
    """Run the finder's rounds, asking the round solver and the per-candidate
    reference every (unsolved u, plane) of every round, not just until the
    first plane that solves."""
    bv = BitView(graph)
    full = (1 << len(bv.verts)) - 1
    noninput = full & ~bv.mask(graph.inputs)
    solved, k = bv.outputs, 0
    while solved != full:
        a_mask = solved if k else 0
        solve = _round_solver(bv, noninput, a_mask)
        found = 0
        for u in bits(full & ~solved):
            for plane in PLANES[graph.labels[bv.verts[u]]]:
                if plane != "XY" and not (noninput >> u) & 1:
                    continue
                want = ref.solve_witness_bits(bv, noninput, u, a_mask, plane)
                assert solve(u, plane) == want, (k, bv.verts[u], plane)
                branches[branch(bv, noninput, a_mask, u, plane, want)] += 1
                found |= (want is not None) << u
        if not found and k:
            break
        solved |= found
        k += 1


def test_round_solver_answers_every_system():
    rng = random.Random(1203)
    branches = Counter()
    for _ in range(600):
        compare_round_systems(random_labelled_graph(rng, rng.randrange(2, 16)), branches)
    for _ in range(60):
        pattern = random_circuit_pattern(rng, rng.randrange(1, 6), rng.randrange(5, 40))
        compare_round_systems(pattern.graph, branches)
        prepared = with_prepared_wires(pattern, rng.randrange(len(pattern.graph.inputs) + 1))
        compare_round_systems(prepared.graph, branches)
    for name in ("left-null rejection", "column dropped, replaced", "column dropped, no replacement",
                 "Z row consistent", "Z row flipped", "Z row in the row space"):
        assert branches[name] >= 20, (name, branches)

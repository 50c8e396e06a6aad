"""Differential tests: the bit-mask order code against reference_order.py.

Flow orders (closure, restriction, extension, emission order), the Pddag
partial order, Hasse diagram and relinearisation must match the naive
pair-set implementations exactly, on random DAGs and on the orders the
pipeline really builds.
"""

import random
from fractions import Fraction

import pytest

from pauliflow.extract import extract_pddag
from pauliflow.flow import (
    FlowFormatError,
    FlowOrder,
    find_pauli_flow,
    focus_flow,
    focussed_set_generators,
    paulis_first,
    switch_flow,
)
from pauliflow.graph import LabelledOpenGraph, MeasurementPattern
from pauliflow.pauli import Rotation, SignedPauliString, commutes, identity_string, multiply
from pauliflow.pddag import IsometryTableau, build_pddag
from tests.conftest import random_clifford_rows, sized_circuit_pattern
from tests.reference_extract import extend_all_inputs
from tests.reference_order import (
    closed_order,
    depth_pairs,
    emission_order,
    hasse,
    pddag_partial_order,
    restrict,
    stabilizer_relinearized,
)


def random_dag(rng, n, density):
    """Pairs that follow a random listing of shuffled ids, plus the ids."""
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    pairs = {(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density}
    return names, pairs


def random_extra(rng, names, count):
    """Forward pairs (acyclic with the DAG) and pairs with fresh vertices."""
    extra = set()
    for _ in range(count):
        i, j = sorted(rng.sample(range(len(names)), 2))
        extra.add((names[i], names[j]))
    extra.add(("fresh-a", rng.choice(names)))
    extra.add((rng.choice(names), "fresh-b"))
    return extra


@pytest.mark.parametrize("seed", range(40))
def test_random_dag_orders_match_reference(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 26)
    names, pairs = random_dag(rng, n, rng.choice((0.05, 0.2, 0.5, 0.9)))
    order = FlowOrder.from_pairs(pairs)
    ref = closed_order(pairs)

    assert order.as_pairs(names) == ref
    for a in names:
        for b in names:
            assert order.precedes(a, b) == ((a, b) in ref)

    subset = rng.sample(names, rng.randrange(0, n + 1)) + ["unlisted"]
    assert order.emission_order(subset) == emission_order(ref, subset)
    assert order.temporal_order(subset) == emission_order(ref, subset)[::-1]
    assert order.emission_order(names) == emission_order(ref, names)

    keep = set(rng.sample(names, rng.randrange(0, n + 1)))
    targets = set(rng.sample(names, rng.randrange(0, n + 1)))
    assert order.restricted(keep).as_pairs(names) == restrict(ref, keep)
    assert order.restricted(keep, targets).as_pairs(names) == frozenset(
        (a, b) for a, b in restrict(ref, keep) if b in targets)

    extra = random_extra(rng, names, rng.randrange(0, 6))
    grown = order.extended(keep, extra)
    grown_ref = closed_order(restrict(ref, keep) | extra)
    everything = names + ["fresh-a", "fresh-b"]
    assert grown.as_pairs(everything) == grown_ref
    assert grown.emission_order(everything) == emission_order(grown_ref, everything)


def random_stabilized_pddag(rng):
    """A random tableau with at least one free row, and 2-12 random nodes."""
    n = rng.randrange(2, 6)
    m = rng.randrange(0, n)
    z_rows, x_rows, _ = random_clifford_rows(rng, n)
    tab = IsometryTableau(tuple(range(m)), tuple(range(n)), dict(enumerate(z_rows[:m])),
                          dict(enumerate(x_rows[:m])), tuple(z_rows[m:]))
    nodes = []
    for i in range(rng.randrange(2, 13)):
        letters = {k: letter for k in range(n) if (letter := rng.choice("IXYZ")) != "I"}
        string = SignedPauliString(letters, rng.choice((0, 2)))
        nodes.append((f"n{i}", Rotation(string, Fraction(rng.randrange(1, 16), 8))))
    return build_pddag(tab, nodes)


@pytest.mark.parametrize("seed", range(20))
def test_linearize_matches_reference(seed):
    """Stabilizer rewrites relinearise like the reference's first-fit order.

    Each node is rewritten by a product of a random subset of free rows;
    the rewrite must be refused exactly when the new string anticommutes
    with the node or one of its ancestors.
    """
    rng = random.Random(seed)
    legal = moved = 0
    while legal < 100:
        dag = random_stabilized_pddag(rng)
        po = pddag_partial_order(dag)
        rows = dag.tableau.free_rows
        for nid in dag.node_ids:
            string = identity_string()
            for row in [r for r in rows if rng.random() < 0.5] or [rng.choice(rows)]:
                string = multiply(string, row)
            allowed = all(commutes(dag.nodes[a].string, string)
                          for a in {nid} | {a for a, b in po if b == nid})
            try:
                after = dag.stabilizer_rewrite_by_string(nid, string)
            except ValueError:
                assert not allowed
                continue
            assert allowed
            assert after.node_ids == stabilizer_relinearized(dag, nid, string)
            legal += 1
            moved += after.node_ids != dag.node_ids
    assert moved >= 20


@pytest.mark.parametrize("seed", range(20))
def test_depth_orders_match_reference(seed):
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(rng.randrange(1, 30))]
    depth = {v: rng.randrange(5) for v in names if rng.random() < 0.8}
    order = FlowOrder.from_depth(depth, names)
    ref = depth_pairs(depth, names)
    assert order.depth == depth
    assert order.as_pairs(names) == ref
    assert order.emission_order(names) == emission_order(ref, names)
    assert order.emission_order(names) == sorted(names, key=lambda v: (depth.get(v, 0), v))
    kept = set(rng.sample(names, rng.randrange(0, len(names) + 1)))
    smaller = order.restricted(kept)
    assert smaller.depth == {v: d for v, d in depth.items() if v in kept}
    assert smaller.as_pairs(names) == restrict(ref, kept)


def test_cyclic_orders_are_rejected():
    with pytest.raises(FlowFormatError):
        FlowOrder.from_pairs([("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(FlowFormatError):
        FlowOrder.from_pairs([("a", "a")])
    with pytest.raises(FlowFormatError):
        FlowOrder.from_pairs([("x", "a"), ("a", "b"), ("b", "a")])
    order = FlowOrder.from_pairs([("a", "b"), ("b", "c")])
    with pytest.raises(FlowFormatError):
        order.extended(["a", "b", "c"], [("c", "a")])
    with pytest.raises(FlowFormatError):
        order.extended(["a", "b", "c"], [("b", "b")])
    with pytest.raises(FlowFormatError):
        order.extended(["a", "b", "c"], [("c", "d"), ("d", "a")])


def with_prepared_wire(pattern):
    """The same pattern with its last input prepared instead, so |O|-|I| = 1."""
    g = pattern.graph
    graph = LabelledOpenGraph(g.vertices, g.edges, frozenset(sorted(g.inputs)[:-1]),
                              g.outputs, g.labels)
    return MeasurementPattern(graph, pattern.angles)


@pytest.mark.parametrize("n", [40, 80])
def test_pipeline_flow_orders_match_reference(n):
    pattern = with_prepared_wire(sized_circuit_pattern(n, n // 10, seed=n))
    g = pattern.graph
    flow = focus_flow(g, find_pauli_flow(g))
    base = depth_pairs(flow.order.depth, g.vertices)
    assert flow.order.as_pairs(g.vertices) == base
    assert flow.order.emission_order(g.measured) == emission_order(base, g.measured)

    pauli = {v for v in g.measured if g.is_pauli(v)}
    stripped = paulis_first(g, flow)
    stripped_ref = closed_order({(a, b) for a, b in base if b not in pauli})
    assert stripped.order.as_pairs(g.vertices) == stripped_ref
    assert stripped.order.temporal_order(g.measured) == \
        emission_order(stripped_ref, g.measured)[::-1]

    epattern, eflow, ext = extend_all_inputs(pattern, stripped)
    eg = epattern.graph
    ext_ref = closed_order(stripped_ref | {
        (ext[u], w) for u in ext for w in g.neighbours(u) | {u}})
    assert eflow.order.as_pairs(eg.vertices) == ext_ref
    assert eflow.order.emission_order(eg.measured) == emission_order(ext_ref, eg.measured)

    (fset,) = focussed_set_generators(g)
    affected = fset | g.odd_neighbourhood(fset)
    switched = 0
    for u in sorted(g.measured):
        try:
            flow2 = switch_flow(g, flow, u, fset)
        except ValueError:
            continue
        switch_ref = closed_order(base | {
            (u, w) for w in affected if g.is_planar(w) or w in g.outputs})
        assert flow2.order.as_pairs(g.vertices) == switch_ref
        assert flow2.order.emission_order(g.measured) == emission_order(switch_ref, g.measured)
        switched += 1
        if switched == 3:
            break
    assert switched


@pytest.mark.parametrize("n", [40, 80])
def test_pipeline_pddag_orders_match_reference(n):
    dag = extract_pddag(sized_circuit_pattern(n, n // 10, seed=n))
    po = pddag_partial_order(dag)
    assert dag.partial_order() == po
    assert dag.hasse() == hasse(dag.node_ids, po)

    dag = extract_pddag(with_prepared_wire(sized_circuit_pattern(n, n // 10, seed=n)))
    (stab,) = dag.tableau.free_rows
    rewritten = 0
    for nid in dag.node_ids:
        try:
            after = dag.stabilizer_rewrite_by_string(nid, stab)
        except ValueError:
            continue
        assert after.node_ids == stabilizer_relinearized(dag, nid, stab)
        after_po = pddag_partial_order(after)
        assert after.partial_order() == after_po
        assert after.hasse() == hasse(after.node_ids, after_po)
        rewritten += 1
        if rewritten == 3:
            break
    assert rewritten

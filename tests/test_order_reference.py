"""Differential tests: the bit-mask order code against reference_order.py.

Flow orders (closure, restriction, extension, emission order, and the
pair lists flow documents carry), the Pddag partial order, Hasse diagram
and relinearisation must match the naive pair-set implementations
exactly, on random DAGs and on the orders the pipeline really builds.
"""

import random
from fractions import Fraction

import pytest

from pauliflow.cli import flow_json, parse_flow
from pauliflow.extract import extract_pddag
from pauliflow.flow import (
    FlowFormatError,
    FlowOrder,
    PauliFlowData,
    find_pauli_flow,
    focus_flow,
    focussed_set_generators,
    switch_flow,
)
from pauliflow.graph import LabelledOpenGraph, MeasurementPattern
from pauliflow.pauli import Rotation, SignedPauliString, commutes, identity_string, multiply
from pauliflow.pddag import IsometryTableau, build_pddag
from tests.conftest import random_clifford_rows, sized_circuit_pattern
from tests.reference_extract import extend_all_inputs, paulis_first
from tests.reference_order import (
    closed_order,
    depth_pairs,
    emission_order,
    hasse,
    pddag_partial_order,
    restrict,
    stabilizer_relinearized,
    transitive_closure,
)


def pairs_of(order, vertices):
    """The order's (before, after) pairs among the vertices, as a set."""
    return frozenset(map(tuple, order.pair_lists(vertices)))


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

    assert pairs_of(order, names) == ref
    for a in names:
        for b in names:
            assert order.precedes(a, b) == ((a, b) in ref)

    subset = rng.sample(names, rng.randrange(0, n + 1)) + ["unlisted"]
    assert order.emission_order(subset) == emission_order(ref, subset)
    assert order.temporal_order(subset) == emission_order(ref, subset)[::-1]
    assert order.emission_order(names) == emission_order(ref, names)

    keep = set(rng.sample(names, rng.randrange(0, n + 1)))
    assert pairs_of(order.restricted(keep), names) == restrict(ref, keep)

    extra = random_extra(rng, names, rng.randrange(0, 6))
    grown = order.extended(keep, extra)
    grown_ref = closed_order(restrict(ref, keep) | extra)
    everything = names + ["fresh-a", "fresh-b"]
    assert pairs_of(grown, everything) == grown_ref
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
    assert pairs_of(order, names) == ref
    assert order.emission_order(names) == emission_order(ref, names)
    assert order.emission_order(names) == sorted(names, key=lambda v: (depth.get(v, 0), v))
    kept = set(rng.sample(names, rng.randrange(0, len(names) + 1)))
    smaller = order.restricted(kept)
    assert smaller.depth == {v: d for v, d in depth.items() if v in kept}
    assert pairs_of(smaller, names) == restrict(ref, kept)


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
    assert pairs_of(flow.order, g.vertices) == base
    assert flow.order.emission_order(g.measured) == emission_order(base, g.measured)

    pauli = {v for v in g.measured if g.is_pauli(v)}
    stripped = paulis_first(g, flow)
    stripped_ref = closed_order({(a, b) for a, b in base if b not in pauli})
    assert pairs_of(stripped.order, g.vertices) == stripped_ref
    assert stripped.order.temporal_order(g.measured) == \
        emission_order(stripped_ref, g.measured)[::-1]

    epattern, eflow, ext = extend_all_inputs(pattern, stripped)
    eg = epattern.graph
    ext_ref = closed_order(stripped_ref | {
        (ext[u], w) for u in ext for w in g.neighbours(u) | {u}})
    assert pairs_of(eflow.order, eg.vertices) == ext_ref
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
        assert pairs_of(flow2.order, g.vertices) == switch_ref
        assert flow2.order.emission_order(g.measured) == emission_order(switch_ref, g.measured)
        switched += 1
        if switched == 3:
            break
    assert switched


@pytest.mark.parametrize("n", [40, 80])
def test_pipeline_pddag_orders_match_reference(n):
    dag = extract_pddag(sized_circuit_pattern(n, n // 10, seed=n))
    po = pddag_partial_order(dag)
    assert closed_order(dag.hasse()) == po
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
        assert closed_order(after.hasse()) == after_po
        assert after.hasse() == hasse(after.node_ids, after_po)
        rewritten += 1
        if rewritten == 3:
            break
    assert rewritten


# -- order I/O: reading pair lists and writing them back --------------------------------


def stuck_message(pairs):
    """FlowFormatError's message for cyclic pairs: the vertices that reach a cycle."""
    closure = transitive_closure(pairs)
    on_cycle = {a for a, b in closure if a == b}
    stuck = {a for a, b in closure if b in on_cycle}
    return f"order has a cycle through some of {sorted(stuck)}"


@pytest.mark.parametrize("seed", range(40))
def test_from_pairs_matches_reference(seed):
    """Closed, covering-only and cyclic pair lists, in shuffled order with
    repeats; a closed list keeps its listing by successor count."""
    rng = random.Random(1000 + seed)
    n = rng.randrange(1, 40)
    names, pairs = random_dag(rng, n, rng.choice((0.05, 0.2, 0.5, 0.9)))
    closed = closed_order(pairs)
    covers = hasse(names, closed)
    for given in (closed, covers, pairs):
        listed = [list(p) for p in given] + [list(p) for p in given if rng.random() < 0.1]
        rng.shuffle(listed)
        order = FlowOrder.from_pairs(listed)
        assert pairs_of(order, names) == closed
        for i, succ in enumerate(order.succ):  # the highest bit is a covering successor
            assert not succ or (order.verts[i], order.verts[succ.bit_length() - 1]) in covers
    listed = {v for pair in closed for v in pair}
    count = {v: sum(1 for a, _ in closed if a == v) for v in listed}
    assert FlowOrder.from_pairs(closed).verts == tuple(
        sorted(listed, key=lambda v: (count[v], v)))

    if closed:
        a, b = rng.choice(sorted(closed))
        for back in ((b, a), (a, a), (b, b)):
            cyclic = sorted(pairs | {back})
            rng.shuffle(cyclic)
            with pytest.raises(FlowFormatError) as err:
                FlowOrder.from_pairs(cyclic)
            assert str(err.value) == stuck_message(cyclic)


@pytest.mark.parametrize("seed", range(20))
def test_from_pairs_closes_covers_listed_first(seed):
    """Covering pairs padded with pairs into fresh sinks, more of them the
    earlier the vertex, so that listing by successor count lists every
    successor first and the covers are closed without Kahn's algorithm."""
    rng = random.Random(3000 + seed)
    n = rng.randrange(2, 14)
    names, pairs = random_dag(rng, n, rng.choice((0.2, 0.5, 0.9)))
    closed = closed_order(pairs)
    sinks = {(v, f"{v}-sink{t}") for i, v in enumerate(names) for t in range(n * (n - i))}
    order = FlowOrder.from_pairs(hasse(names, closed) | sinks)
    assert order.verts[-1] == names[0]  # the listing by successor count was kept
    assert pairs_of(order, names) == closed
    for v, sink in rng.sample(sorted(sinks), min(50, len(sinks))):
        assert all(order.precedes(u, sink) == ((u, v) in closed or u == v) for u in names)


@pytest.mark.parametrize("seed", range(20))
def test_flow_json_order_matches_reference(seed):
    """The written order is every closed pair among the graph's vertices,
    sorted, for orders built from pairs and restricted or extended ones."""
    rng = random.Random(2000 + seed)
    n = rng.randrange(1, 30)
    names, pairs = random_dag(rng, n, rng.choice((0.05, 0.3, 0.8)))
    vertices = set(rng.sample(names, rng.randrange(0, n + 1))) | {"only-in-graph"}
    graph = LabelledOpenGraph.make(vertices, [], [], vertices, {})
    order = FlowOrder.from_pairs(pairs)
    keep = set(rng.sample(names, rng.randrange(0, n + 1)))
    extra = random_extra(rng, names, 3)
    for built, ref in ((order, closed_order(pairs)),
                       (order.restricted(keep), restrict(closed_order(pairs), keep)),
                       (order.extended(keep, extra),
                        closed_order(restrict(closed_order(pairs), keep) | extra))):
        written = flow_json(PauliFlowData({}, built), graph)["order"]
        assert written == sorted([list(p) for p in restrict(ref, vertices)])
        assert written == sorted([list(p) for p in pairs_of(built, vertices)])
        back = parse_flow({"p": {}, "order": written}, "/flow", sorted(vertices))
        assert pairs_of(back.order, vertices) == restrict(ref, vertices)


def test_switched_pipeline_flow_round_trips():
    """After a switch the flow has no depth map; its document lists the closed
    order, and parsing it gives the same order back."""
    pattern = with_prepared_wire(sized_circuit_pattern(80, 8, seed=80))
    g = pattern.graph
    flow = focus_flow(g, find_pauli_flow(g))
    (fset,) = focussed_set_generators(g)
    for u in sorted(g.measured):
        try:
            switched = switch_flow(g, flow, u, fset)
        except ValueError:
            continue
        break
    doc = flow_json(switched, g)
    assert "depth" not in doc
    assert doc["order"] == sorted([list(p) for p in pairs_of(switched.order, g.vertices)])
    assert len(doc["order"]) > 1000
    back = parse_flow(doc, "/flow", sorted(g.vertices))
    assert pairs_of(back.order, g.vertices) == pairs_of(switched.order, g.vertices)
    assert back.order.emission_order(g.measured) == switched.order.emission_order(g.measured)

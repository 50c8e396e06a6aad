"""Pauli flow verification, identification, focussing and flow surgery."""

import random
from fractions import Fraction

import pytest

from pauliflow import f2
from pauliflow.flow import (
    FlowFormatError,
    FlowOrder,
    PauliFlowData,
    add_correction_sets,
    find_pauli_flow,
    find_pauli_flow_detailed,
    focus_flow,
    focussed_set_generators,
    is_flow_focussed,
    switch_flow,
    verify_flow,
    verify_focussed,
)
from pauliflow.graph import LabelledOpenGraph
from tests.brute import (
    CandidateSpaceTooLarge,
    brute_force_flows,
    brute_force_has_flow,
    delay_profile_from_depth,
    delay_profile_from_pairs,
    dominates,
)
from tests.conftest import (
    worked_example_fset,
    random_circuit_pattern,
    random_flowful_pattern,
    random_labelled_graph,
    sized_circuit_pattern,
)

F = Fraction


def test_verify_worked_example_flow(worked_pattern, worked_flow):
    assert verify_flow(worked_pattern.graph, worked_flow) == []


def test_verify_measured_v0_table_flow(v0_pattern, v0_flow):
    assert verify_flow(v0_pattern.graph, v0_flow) == []


def test_verify_reports_pf4(worked_pattern, worked_flow):
    p = dict(worked_flow.p)
    p["b"] = frozenset()  # b is XY; now b not in Odd(p(b))
    broken = PauliFlowData(p, worked_flow.order)
    assert ("b", "PF4") in verify_flow(worked_pattern.graph, broken)


def test_verify_reports_ordering_conditions(worked_pattern, worked_flow):
    g = worked_pattern.graph
    # break PF1: a's correction set gains a planar vertex measured before it
    p = dict(worked_flow.p)
    p["a"] = p["a"] | {"b"}  # b is XY and not after a
    viols = verify_flow(g, PauliFlowData(p, worked_flow.order))
    assert ("a", "PF1") in viols
    # break PF2: c's odd neighbourhood hits an XY vertex not after it
    p = dict(worked_flow.p)
    p["c"] = frozenset({"d", "o2"})  # Odd includes a (YZ) and b (XY)
    viols = verify_flow(g, PauliFlowData(p, worked_flow.order))
    assert any(cond in ("PF2", "PF4") for _, cond in viols)


def test_verify_reports_pf3_y_condition():
    g = LabelledOpenGraph.make(
        ["u", "y", "o"], [("u", "o"), ("y", "o"), ("u", "y")], [], ["o"],
        {"u": "XY", "y": "Y"})
    # u's set {o}: Odd({o}) = {u, y}: y is Y-labelled, unordered vs u,
    # y in Odd but not in p(u) -> PF3
    flow = PauliFlowData(
        {"u": frozenset({"o"}), "y": frozenset({"o"})},
        FlowOrder.from_depth({"u": 1, "y": 1, "o": 0}),
    )
    viols = verify_flow(g, flow)
    assert ("u", "PF3") in viols


def test_verify_rejects_malformed(worked_pattern, worked_flow):
    p = dict(worked_flow.p)
    p["o1"] = frozenset()
    with pytest.raises(FlowFormatError):
        verify_flow(worked_pattern.graph, PauliFlowData(p, worked_flow.order))
    p = dict(worked_flow.p)
    p["b"] = frozenset({"i"})  # inputs are not allowed in correction sets
    with pytest.raises(FlowFormatError):
        verify_flow(worked_pattern.graph, PauliFlowData(p, worked_flow.order))


def test_find_measured_v0(v0_pattern):
    flow = find_pauli_flow(v0_pattern.graph)
    assert flow is not None
    assert verify_flow(v0_pattern.graph, flow) == []
    assert flow.order.depth["b"] == 0  # a measured vertex at depth zero


def test_find_all_output_graph():
    g = LabelledOpenGraph.make(["o1", "o2"], [("o1", "o2")], [], ["o1", "o2"], {})
    flow = find_pauli_flow(g)
    assert flow.p == {} and set(flow.order.depth.values()) == {0}


def test_find_worked_example_maximally_delayed(worked_pattern, worked_flow):
    g = worked_pattern.graph
    flow = find_pauli_flow(g)
    assert flow is not None and verify_flow(g, flow) == []
    found = delay_profile_from_depth(g.vertices, flow.order.depth)
    table = delay_profile_from_pairs(
        sorted(g.vertices), worked_flow.order.pair_lists(g.vertices))
    assert dominates(found, table)


def test_find_reports_stuck_front():
    g = LabelledOpenGraph.make(
        ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], [], [],
        {"a": "XY", "b": "XY", "c": "XY"})
    flow, stuck = find_pauli_flow_detailed(g)
    assert flow is None and stuck == {"a", "b", "c"}


def test_find_eliminates_once_per_depth_round(monkeypatch):
    """One GF(2) elimination per round (a flow of depth d takes d + 1 rounds,
    d + 2 at most), not one per candidate vertex and plane."""
    calls = []
    gauss = f2.gauss
    monkeypatch.setattr(f2, "gauss", lambda rows, cols: calls.append(1) or gauss(rows, cols))
    flow = find_pauli_flow(sized_circuit_pattern(160, 16, seed=160).graph)
    assert flow is not None
    assert 0 < len(calls) <= max(flow.order.depth.values()) + 2


def test_witness_sets_satisfy_layer_conditions():
    """Recheck that each found p(v) is a valid witness set at its depth."""
    rng = random.Random(20)
    for _ in range(40):
        pattern, flow = random_flowful_pattern(rng, max_vertices=7)
        g = pattern.graph
        d = flow.order.depth
        for v in sorted(g.measured):
            k = d[v]
            a_set = {w for w in g.vertices if d.get(w, 0) < k} if k else set()
            lam = {w: g.labels.get(w) for w in g.vertices}
            kset = flow.p[v] - {v}
            assert all(
                w in a_set or lam[w] in ("X", "Y")
                for w in kset
            ) and not (kset & g.inputs)
            odd = g.odd_neighbourhood(flow.p[v])
            p_zone = {
                w for w in g.vertices
                if w not in a_set and not (w != v and lam[w] in ("Y", "Z"))
            }
            in_odd_zone = odd & p_zone
            if v in flow.p[v]:
                assert in_odd_zone <= {v}
            else:
                assert in_odd_zone == {v}
            y_zone = {w for w in g.measured
                      if w != v and lam[w] == "Y" and w not in a_set}
            assert (flow.p[v] & y_zone) == (odd & y_zone)


def test_exhaustive_existence_small_graphs():
    rng = random.Random(21)
    checked = 0
    while checked < 120:
        g = random_labelled_graph(rng, rng.randrange(2, 6))
        try:
            expect = brute_force_has_flow(g)
        except CandidateSpaceTooLarge:
            continue
        assert (find_pauli_flow(g) is not None) == expect
        checked += 1


def test_no_shallower_reassignment_stays_valid():
    """Keeping p fixed, measuring any vertex later than the found depth must
    break a flow condition, else the output was not maximally delayed."""
    rng = random.Random(27)
    for _ in range(200):
        pattern, flow = random_flowful_pattern(rng, max_vertices=8)
        g = pattern.graph
        candidates = [v for v in sorted(g.measured) if flow.order.depth[v] > 0]
        rng.shuffle(candidates)
        for v in candidates[:3]:
            for shallower in range(flow.order.depth[v]):
                depth = dict(flow.order.depth)
                depth[v] = shallower
                perturbed = PauliFlowData(dict(flow.p), FlowOrder.from_depth(depth))
                assert verify_flow(g, perturbed) != [], (v, shallower)


def test_found_flow_dominates_all_flows_small():
    rng = random.Random(22)
    checked = 0
    while checked < 30:
        g = random_labelled_graph(rng, rng.randrange(2, 6))
        flow = find_pauli_flow(g)
        if flow is None:
            checked += 1
            continue
        found = delay_profile_from_depth(g.vertices, flow.order.depth)
        try:
            for p, pairs in brute_force_flows(g, cap=120_000):
                other = delay_profile_from_pairs(sorted(g.vertices), pairs)
                assert dominates(found, other)
        except CandidateSpaceTooLarge:
            continue
        checked += 1


# -- focussing ---------------------------------------------------------------


def test_worked_example_flow_is_focussed_fixpoint(worked_pattern, worked_flow):
    assert is_flow_focussed(worked_pattern.graph, worked_flow)
    focussed = focus_flow(worked_pattern.graph, worked_flow)
    assert focussed.p == worked_flow.p


def test_focus_random_flows():
    rng = random.Random(23)
    for _ in range(40):
        pattern, flow = random_flowful_pattern(rng, max_vertices=8)
        g = pattern.graph
        focussed = focus_flow(g, flow)
        assert verify_flow(g, focussed) == []
        assert is_flow_focussed(g, focussed)


def test_focussed_flow_is_unique():
    """The focussed flow reached from a valid flow is unique: focussing a
    focussed flow changes nothing, and so does first adding p(b) to p(a)
    for any a before b that keeps the flow valid."""
    rng = random.Random(24)
    cases = [random_flowful_pattern(rng, max_vertices=10) for _ in range(60)]
    cases += [(p, find_pauli_flow(p.graph)) for p in
              (random_circuit_pattern(rng, rng.randrange(1, 5), rng.randrange(2, 16))
               for _ in range(40))]
    perturbed = 0
    for pattern, flow in cases:
        g = pattern.graph
        focussed = focus_flow(g, flow)
        assert focus_flow(g, focussed).p == focussed.p
        measured = sorted(g.measured)
        pairs = [(a, b) for a in measured for b in measured if flow.order.precedes(a, b)]
        for a, b in rng.sample(pairs, min(len(pairs), 12)):
            for base in (flow, focussed):
                changed = add_correction_sets(base, a, b)
                if verify_flow(g, changed) == []:
                    assert focus_flow(g, changed).p == focussed.p
                    perturbed += 1
    assert perturbed >= 500


def test_verify_focussed_examples(worked_pattern):
    g = worked_pattern.graph
    assert verify_focussed(g, frozenset(), g.measured)
    assert verify_focussed(g, {"c", "o2"}, g.measured)
    # {c}: Odd = {a, d, o1}; d has label Y, in Odd but not in the set
    assert not verify_focussed(g, {"c"}, g.measured)


def test_focussed_set_generators_worked_example(worked_pattern):
    g = worked_pattern.graph
    gens = focussed_set_generators(g)
    assert len(gens) == 1
    assert gens[0] == worked_example_fset()
    # the group they span has size 2 ** (|O| - |I|)
    span = {frozenset()}
    for gen in gens:
        span |= {s ^ gen for s in span}
    assert len(span) == 2
    for s in span:
        assert verify_focussed(g, s, g.measured)


def test_focussed_sets_exhaustive_worked_example(worked_pattern):
    from itertools import combinations

    g = worked_pattern.graph
    pool = sorted(g.prepared)
    found = {
        frozenset(c)
        for r in range(len(pool) + 1)
        for c in combinations(pool, r)
        if verify_focussed(g, frozenset(c), g.measured)
    }
    assert found == {frozenset(), worked_example_fset()}


def test_unitary_pattern_has_no_generators():
    g = LabelledOpenGraph.make(
        ["i", "m", "o"], [("i", "m"), ("m", "o")], ["i"], ["o"], {"i": "XY", "m": "XY"})
    assert focussed_set_generators(g) == []


def test_focussed_group_closure_random():
    rng = random.Random(24)
    for _ in range(30):
        pattern, _ = random_flowful_pattern(rng, max_vertices=7)
        g = pattern.graph
        gens = focussed_set_generators(g)
        span = [frozenset()]
        for gen in gens:
            span += [s ^ gen for s in span]
        for s in span:
            assert verify_focussed(g, s, g.measured)


# -- surgery -----------------------------------------------------------------


def test_add_correction_sets(worked_pattern, worked_flow):
    g = worked_pattern.graph
    new = add_correction_sets(worked_flow, "i", "a")
    assert new.p["i"] == worked_flow.p["i"] ^ worked_flow.p["a"]
    assert verify_flow(g, new) == []
    again = add_correction_sets(new, "i", "a")
    assert again.p == worked_flow.p
    with pytest.raises(ValueError):
        add_correction_sets(worked_flow, "a", "a")
    with pytest.raises(ValueError):
        add_correction_sets(worked_flow, "a", "i")  # a does not precede i


def test_switch_flow_at_b(worked_pattern, worked_flow):
    g = worked_pattern.graph
    new = switch_flow(g, worked_flow, "b", worked_example_fset())
    assert new.p["b"] == {"d", "o1", "o2"}
    assert g.odd_neighbourhood(new.p["b"]) == {"a", "b", "d", "o2"}
    assert verify_flow(g, new) == []
    assert is_flow_focussed(g, new)
    assert new.order.precedes("b", "a")


def test_switch_flow_empty_fset(worked_pattern, worked_flow):
    new = switch_flow(worked_pattern.graph, worked_flow, "b", frozenset())
    assert new.p == worked_flow.p


def test_switch_flow_at_d(worked_pattern, worked_flow):
    g = worked_pattern.graph
    new = switch_flow(g, worked_flow, "d", worked_example_fset())
    assert new.p["d"] == {"c"}
    assert verify_flow(g, new) == []
    assert is_flow_focussed(g, new)


def test_switch_flow_blocked(worked_pattern, worked_flow):
    # switching at c is blocked: c itself is planar and inside the fset
    with pytest.raises(ValueError):
        switch_flow(worked_pattern.graph, worked_flow, "c", worked_example_fset())


def test_even_overlap_invariant():
    rng = random.Random(25)
    for _ in range(50):
        pattern, flow = random_flowful_pattern(rng, max_vertices=8)
        g = pattern.graph
        for v in g.measured:
            assert len(flow.p[v] & g.odd_neighbourhood(flow.p[v])) % 2 == 0


def test_add_not_focussed_combination():
    """Two sets unfocussed over the same vertex combine to a focussed one."""
    rng = random.Random(26)
    from pauliflow.flow import verify_focussed

    hits = 0
    for _ in range(60):
        pattern, flow = random_flowful_pattern(rng, max_vertices=7)
        g = pattern.graph
        measured = sorted(g.measured)
        for v in measured:
            bad = [flow.p[w] for w in measured
                   if not verify_focussed(g, flow.p[w], [v])]
            for i in range(len(bad)):
                for j in range(i + 1, len(bad)):
                    assert verify_focussed(g, bad[i] ^ bad[j], [v])
                    hits += 1
    assert hits >= 20

"""Acceptance suite: worked-example reproductions and property sweeps.

One test per criterion; each prints a PASS line when its assertions hold.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from pauliflow.extract import extract_pddag, extraction_string
from pauliflow.flow import (
    find_pauli_flow,
    focus_flow,
    focussed_set_generators,
    verify_flow,
    verify_focussed,
)
from pauliflow.oracle import (
    circuit_semantics,
    equal_up_to_phase,
    pattern_semantics,
    pddag_semantics,
)
from pauliflow.pauli import commutes, from_letter_map
from pauliflow.pddag import synthesize
from pauliflow.rewrite import (
    eliminate_z,
    local_complement_pattern,
    pivot_pattern,
    relabel_pauli,
    switch_flow_rewrite,
)
from tests.brute import CandidateSpaceTooLarge, brute_force_has_flow
from tests.conftest import (
    measured_v0,
    worked_example,
    worked_example_flow,
    worked_example_fset,
    random_flowful_pattern,
    random_labelled_graph,
    sized_circuit_pattern,
)
from tests.reference_order import pddag_partial_order
from tests.test_pddag import two_wire_expected_nodes, two_wire_reduced_dag

F = Fraction
TOL = 1e-9


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def sgn(k):
    return 1 if k % 2 == 0 else -1


def test_criterion_1_worked_example_pddag():
    """Extraction reproduces the seven-vertex example's PDDAG exactly."""
    for a_d in (0, 1):
        pattern = worked_example(a_d=a_d)
        dag = extract_pddag(pattern, worked_example_flow(), [worked_example_fset()])
        assert set(dag.node_ids) == {"i", "a", "b", "c"}
        assert dag.nodes["i"].string == from_letter_map({"o2": "X"})
        assert dag.nodes["a"].string == from_letter_map({"o1": "Z", "o2": "Y"}, sgn(a_d))
        assert dag.nodes["b"].string == from_letter_map({"o1": "Y", "o2": "Z"}, sgn(a_d + 1))
        assert dag.nodes["c"].string == from_letter_map({"o1": "X"})
        for v in "iabc":
            assert dag.nodes[v].angle == pattern.angles[v]
        tab = dag.tableau
        assert tab.x_rows["i"] == from_letter_map({"o1": "Y", "o2": "Z"}, sgn(a_d + 1))
        assert tab.z_rows["i"] == from_letter_map({"o2": "X"})
        assert tab.free_rows == (from_letter_map({"o1": "Z", "o2": "X"}),)
        assert dag.hasse() == {("i", "a"), ("i", "b"), ("a", "c"), ("b", "c")}
    report(1, "worked-example PDDAG matches node for node at a_d in {0, 1}")


def test_criterion_2_worked_example_semantics():
    """Synthesized circuit is oracle-equal to the pattern at concrete angles."""
    pattern = worked_example(a_d=0)  # angles pi/4, pi/3, pi/5, pi/7
    dag = extract_pddag(pattern, worked_example_flow(), [worked_example_fset()])
    want = pattern_semantics(pattern)
    for lower in (False, True):
        got = circuit_semantics(synthesize(dag, lower_exp=lower))
        assert equal_up_to_phase(got, want, TOL)
    report(2, "synthesized circuit oracle-equal to the pattern, tol 1e-9")


def test_criterion_3_rewrite_reproductions():
    """The four worked rewrites give identical Pddags along both routes."""
    flow = worked_example_flow()
    fset = worked_example_fset()
    for a_d in (0, 1):
        r1 = relabel_pauli(worked_example(a_d=a_d, alpha_c=F(1, 2)), flow, [fset], "c")
        assert r1.consistent
        assert r1.pddag_via_simulation.nodes["b"].string == \
            from_letter_map({"o1": "Z", "o2": "Z"}, sgn(a_d))
        r2 = eliminate_z(worked_example(a_d=a_d, alpha_a=F(1)), flow, [fset], "a")
        assert r2.consistent
        assert r2.pddag_via_simulation.nodes["b"].string == \
            from_letter_map({"o1": "Y", "o2": "Z"}, sgn(a_d))
        r3 = local_complement_pattern(worked_example(a_d=a_d), flow, [fset], "d")
        assert r3.consistent
        assert r3.pddag_via_simulation.nodes["b"].string == \
            from_letter_map({"o1": "Z", "o2": "Z"}, sgn(a_d + 1))
        assert r3.pddag_via_simulation.nodes["t:0"].string == from_letter_map({"o2": "Z"})
        r4 = switch_flow_rewrite(worked_example(a_d=a_d), flow, [fset], "b", fset)
        assert r4.consistent
        assert r4.pddag_via_simulation.nodes["b"].string == \
            from_letter_map({"o1": "X", "o2": "Y"}, sgn(a_d))
        assert r4.pddag_via_simulation.tableau.x_rows["i"] == \
            from_letter_map({"o1": "X", "o2": "Y"}, sgn(a_d))
        r5 = switch_flow_rewrite(worked_example(a_d=a_d), flow, [fset], "d", fset)
        assert r5.consistent
        base = extract_pddag(worked_example(a_d=a_d), flow, [fset])
        assert r5.pddag_via_simulation.structurally_equal(base)
    report(3, "relabel/eliminate/local-complement/switch match along both routes")


def test_criterion_4_measured_vertex_at_depth_zero():
    pattern = measured_v0()
    flow = find_pauli_flow(pattern.graph)
    assert flow is not None
    assert verify_flow(pattern.graph, flow) == []
    assert flow.order.depth["b"] == 0
    report(4, "identification puts measured vertex b at depth 0")


def test_criterion_5_two_wire_circuit_dag():
    dag = two_wire_reduced_dag()
    assert len(dag.node_ids) == 8
    expected = two_wire_expected_nodes()
    label = {nid: next(k for k, rot in expected.items()
                       if dag.nodes[nid].equivalent(rot))
             for nid in dag.node_ids}
    assert sorted(label.values()) == list(range(8))
    edges = {(label[a], label[b]) for a, b in dag.hasse()}
    assert edges == {
        (0, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5),
        (3, 6), (3, 7), (5, 6), (5, 7), (4, 7),
    }
    inv = {v: k for k, v in label.items()}
    po = pddag_partial_order(dag)
    assert (inv[3], inv[5]) not in po and (inv[5], inv[3]) not in po
    merged = dag.merge_nodes(inv[3], inv[5])
    assert len(merged.node_ids) == 7
    assert (inv[1], inv[4]) in po and (inv[4], inv[7]) in po
    report(5, "two-wire circuit reduces to the expected 8-node DAG; merge and chain hold")


def test_criterion_6_roundtrip_200_random_patterns():
    rng = random.Random(600)
    for i in range(200):
        pattern, flow = random_flowful_pattern(rng, max_vertices=8)
        dag = extract_pddag(pattern, flow)
        want = pattern_semantics(pattern)
        assert equal_up_to_phase(pddag_semantics(dag), want, TOL), f"case {i}"
        if i % 20 == 0:
            got = circuit_semantics(synthesize(dag, lower_exp=True))
            assert equal_up_to_phase(got, want, TOL), f"case {i} lowered"
    report(6, "extract->synth oracle-equal on 200 random flowful patterns")


def test_criterion_7_flow_law_properties():
    rng = random.Random(700)
    cases = [(worked_example(), focus_flow(worked_example().graph, worked_example_flow()))]
    for _ in range(30):
        pattern, flow = random_flowful_pattern(rng, max_vertices=7)
        cases.append((pattern, focus_flow(pattern.graph, flow)))
    for pattern, flow in cases:
        g = pattern.graph
        # even overlap of correction sets with their odd neighbourhoods
        for v in g.measured:
            assert len(flow.p[v] & g.odd_neighbourhood(flow.p[v])) % 2 == 0
        # string product homomorphism on the focussed-set group, signs exact
        gens = focussed_set_generators(g)
        span = [frozenset()]
        for gen in gens:
            span += [s ^ gen for s in span]
        for s in span:
            for t in span:
                ps = extraction_string(pattern, s).string
                pt = extraction_string(pattern, t).string
                assert ps * pt == extraction_string(pattern, s ^ t).string
        # anticommutation iff exactly one vertex corrects through the other
        for u in sorted(g.measured):
            for v in sorted(g.measured):
                if u >= v:
                    continue
                f_uv = int(v in (flow.p[u] | g.odd_neighbourhood(flow.p[u])))
                f_vu = int(u in (flow.p[v] | g.odd_neighbourhood(flow.p[v])))
                su = extraction_string(pattern, flow, u).string
                sv = extraction_string(pattern, flow, v).string
                assert commutes(su, sv) == ((f_uv + f_vu) % 2 == 0)
        # focussed-set count, exhaustively on small fixtures
        if len(g.vertices) <= 7:
            pool = sorted(g.prepared)
            found = sum(
                1 for r in range(len(pool) + 1)
                for c in combinations(pool, r)
                if verify_focussed(g, frozenset(c), g.measured)
            )
            assert found == 2 ** (len(g.outputs) - len(g.inputs))
    report(7, "parity, homomorphism, sign law and 2^(|O|-|I|) count all hold")


def test_criterion_8_exhaustive_identification():
    rng = random.Random(800)
    checked = 0
    seed_graphs = []
    # fixed enumeration: every 1..3-vertex labelled graph pattern the sampler
    # yields plus random 4/5-vertex ones, >= 500 total
    while checked < 500:
        g = random_labelled_graph(rng, 2 + checked % 4)
        try:
            expect = brute_force_has_flow(g)
        except CandidateSpaceTooLarge:
            continue
        got = find_pauli_flow(g) is not None
        assert got == expect, f"graph #{checked}"
        checked += 1
    report(8, "identification agrees with brute force on 500 graphs (<= 5 vertices)")


def test_criterion_9_rewrite_semantics_100_each():
    rng = random.Random(900)
    counts = {"relabel": 0, "zelim": 0, "lc": 0, "pivot": 0}
    budget = 3000
    while min(counts.values()) < 100 and budget > 0:
        budget -= 1
        pattern, flow = random_flowful_pattern(rng, max_vertices=7)
        g = pattern.graph
        flow = focus_flow(g, flow)
        fsets = focussed_set_generators(g)
        before = pattern_semantics(pattern)

        def check(report_obj, kind):
            after = pattern_semantics(report_obj.pattern_after)
            assert equal_up_to_phase(before, after, TOL), kind
            assert report_obj.consistent, kind
            counts[kind] += 1

        planar_clifford = [v for v in g.measured if g.is_planar(v)
                           and (pattern.angles[v] * 2).denominator == 1]
        if planar_clifford and counts["relabel"] < 100:
            check(relabel_pauli(pattern, flow, fsets, rng.choice(sorted(planar_clifford))),
                  "relabel")
        z_like = [v for v in g.measured
                  if g.labels[v] in ("XZ", "YZ", "Z") and pattern.angles[v] in (0, 1)]
        if z_like and counts["zelim"] < 100:
            check(eliminate_z(pattern, flow, fsets, rng.choice(sorted(z_like))), "zelim")
        non_inputs = sorted(g.vertices - g.inputs)
        if non_inputs and counts["lc"] < 100:
            check(local_complement_pattern(pattern, flow, fsets,
                                           rng.choice(non_inputs), rng.choice((1, -1))),
                  "lc")
        pivot_edges = [e for e in sorted(g.edges) if not (set(e) & g.inputs)]
        if pivot_edges and counts["pivot"] < 100:
            u, v = rng.choice(pivot_edges)
            check(pivot_pattern(pattern, flow, fsets, u, v), "pivot")
    assert all(c >= 100 for c in counts.values()), counts
    report(9, f"100+ applications of each rewrite preserve semantics: {counts}")


def test_criterion_10_identification_scales():
    times = {}
    for n in (20, 40, 80):
        pattern = sized_circuit_pattern(n, max(2, n // 10), seed=n)
        assert len(pattern.graph.vertices) == n
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            flow = find_pauli_flow(pattern.graph)
            best = min(best, time.perf_counter() - t0)
        assert flow is not None
        assert verify_flow(pattern.graph, flow) == []
        times[n] = max(best, 1e-4)  # floor to keep tiny-time ratios meaningful
    assert times[40] / times[20] < 64, times
    assert times[80] / times[40] < 64, times
    report(10, f"identification times {times}; successive ratios below 2^6")

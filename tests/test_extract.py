"""Circuit extraction: exact strings/signs of the worked example, oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pauliflow.extract import (
    extract_circuit,
    extract_pddag,
    extraction_string,
    primary_axis,
)
from pauliflow.flow import (
    PauliFlowData,
    add_correction_sets,
    find_pauli_flow,
    focus_flow,
    focussed_set_generators,
    verify_flow,
)
from pauliflow.graph import BitView, LabelledOpenGraph, MeasurementPattern
from pauliflow.oracle import (
    DenseMap,
    circuit_semantics,
    equal_up_to_phase,
    pattern_semantics,
    pddag_semantics,
)
from pauliflow.pauli import from_letter_map
from tests.conftest import (
    worked_example,
    worked_example_flow,
    worked_example_fset,
    random_circuit_pattern,
    random_flowful_pattern,
    sized_circuit_pattern,
)
from tests.reference_extract import input_extend

F = Fraction


def test_primary_axes_worked_example(worked_pattern, worked_flow):
    g = worked_pattern.graph
    assert primary_axis(g, worked_flow, "i") == "Z"
    assert primary_axis(g, worked_flow, "a") == "X"
    assert primary_axis(g, worked_flow, "b") == "Z"
    assert primary_axis(g, worked_flow, "c") == "Z"
    assert primary_axis(g, worked_flow, "d") == "Z"


def test_primary_axis_invalid():
    g = LabelledOpenGraph.make(["u", "o"], [], [], ["o"], {"u": "XY"})
    flow = PauliFlowData({"u": frozenset()}, worked_example_flow().order)
    with pytest.raises(ValueError):
        primary_axis(g, flow, "u")


@pytest.mark.parametrize("a_d", [0, 1])
def test_extraction_strings_worked_example(a_d):
    pattern = worked_example(a_d=a_d)
    flow = worked_example_flow()
    sign = lambda k: 1 if k % 2 == 0 else -1

    def string_of(v):
        return extraction_string(pattern, flow, v).string

    assert string_of("i") == from_letter_map({"o2": "X"})
    assert string_of("a") == from_letter_map({"o1": "Z", "o2": "Y"}, sign(a_d + 1))
    assert string_of("b") == from_letter_map({"o1": "Y", "o2": "Z"}, sign(a_d + 1))
    assert string_of("c") == from_letter_map({"o1": "X"})
    assert string_of("d") == from_letter_map({"o2": "X"})
    assert extraction_string(pattern, worked_example_fset()).string == \
        from_letter_map({"o1": "Z", "o2": "X"})


@pytest.mark.parametrize("a_d", [0, 1])
def test_extract_pddag_worked_example_exact(a_d):
    pattern = worked_example(a_d=a_d)
    flow = worked_example_flow()
    dag = extract_pddag(pattern, flow, [worked_example_fset()])
    sign = lambda k: 1 if k % 2 == 0 else -1

    assert set(dag.node_ids) == {"i", "a", "b", "c"}
    assert dag.nodes["i"].string == from_letter_map({"o2": "X"})
    assert dag.nodes["i"].angle == pattern.angles["i"]
    assert dag.nodes["a"].string == from_letter_map({"o1": "Z", "o2": "Y"}, sign(a_d))
    assert dag.nodes["a"].angle == pattern.angles["a"]
    assert dag.nodes["b"].string == from_letter_map({"o1": "Y", "o2": "Z"}, sign(a_d + 1))
    assert dag.nodes["b"].angle == pattern.angles["b"]
    assert dag.nodes["c"].string == from_letter_map({"o1": "X"})
    assert dag.nodes["c"].angle == pattern.angles["c"]

    tab = dag.tableau
    assert tab.z_rows["i"] == from_letter_map({"o2": "X"})
    assert tab.x_rows["i"] == from_letter_map({"o1": "Y", "o2": "Z"}, sign(a_d + 1))
    assert tab.free_rows == (from_letter_map({"o1": "Z", "o2": "X"}),)

    assert dag.hasse() == {("i", "a"), ("i", "b"), ("a", "c"), ("b", "c")}


@pytest.mark.parametrize("a_d", [0, 1])
def test_extract_worked_example_synth_oracle(a_d):
    pattern = worked_example(a_d=a_d)
    flow = worked_example_flow()
    dag = extract_pddag(pattern, flow, [worked_example_fset()])
    want = pattern_semantics(pattern)
    assert equal_up_to_phase(pddag_semantics(dag), want, 1e-9)
    circuit = circuit_semantics(
        __import__("pauliflow.pddag", fromlist=["synthesize"]).synthesize(dag, lower_exp=True))
    assert equal_up_to_phase(circuit, want, 1e-9)


def test_extract_worked_example_with_found_flow(worked_pattern):
    dag = extract_pddag(worked_pattern)
    assert equal_up_to_phase(
        pddag_semantics(dag), pattern_semantics(worked_pattern), 1e-9)


def test_extract_rejects_unfocussed_fset():
    # {o1, o2} gives a stabilizer row the isometry lacks; it used to compile
    # to a circuit the oracle finds unequal to the pattern
    with pytest.raises(ValueError, match="not focussed"):
        extract_pddag(worked_example(), worked_example_flow(), [frozenset({"o1", "o2"})])


def test_extract_measured_v0_identity_string(v0_pattern, v0_flow):
    dag = extract_pddag(v0_pattern, v0_flow)
    # b's primary extraction string is the identity: the measurement angle
    # has no effect on the process (the node is a pure global phase)
    assert dag.nodes["b"].string.is_identity_string()
    assert dag.hasse() == {("i", "a")} or not any(
        "b" in e for e in dag.hasse())
    assert equal_up_to_phase(
        pddag_semantics(dag), pattern_semantics(v0_pattern), 1e-9)


def test_extract_all_output_pattern():
    pattern = MeasurementPattern.make(
        ["o1", "o2", "o3"], [("o1", "o2"), ("o2", "o3")], [],
        ["o1", "o2", "o3"], {}, {})
    dag = extract_pddag(pattern)
    assert dag.node_ids == ()
    assert equal_up_to_phase(
        pddag_semantics(dag), pattern_semantics(pattern), 1e-9)


def test_extract_identity_pattern():
    pattern = MeasurementPattern.make(["w"], [], ["w"], ["w"], {}, {})
    circuit = extract_circuit(pattern)
    assert circuit.gates == ()
    assert equal_up_to_phase(
        circuit_semantics(circuit), pattern_semantics(pattern), 1e-9)


def test_extract_with_through_wire():
    # w is both input and output: neither prepared nor measured
    pattern = MeasurementPattern.make(
        ["w", "m", "o"], [("m", "w"), ("m", "o")], ["w"], ["w", "o"],
        {"m": "XY"}, {"m": F(1, 5)})
    dag = extract_pddag(pattern)
    assert dag.tableau.z_rows["w"].letter("w") == "Z"
    assert equal_up_to_phase(
        pddag_semantics(dag), pattern_semantics(pattern), 1e-9)
    circuit = extract_circuit(pattern, lower_exp=True)
    assert equal_up_to_phase(
        circuit_semantics(circuit), pattern_semantics(pattern), 1e-9)


def test_extract_single_xy_chain():
    alpha = F(1, 5)
    pattern = MeasurementPattern.make(
        ["i", "o"], [("i", "o")], ["i"], ["o"], {"i": "XY"}, {"i": alpha})
    got = circuit_semantics(extract_circuit(pattern))
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    half = float(alpha) * math.pi / 2
    rz_neg = np.diag([np.exp(1j * half), np.exp(-1j * half)])
    want = DenseMap(h @ rz_neg, ("i",), ("o",))
    assert equal_up_to_phase(got, want, 1e-9)
    assert equal_up_to_phase(got, pattern_semantics(pattern), 1e-9)


def test_input_extension_flow_and_semantics():
    pattern = MeasurementPattern.make(
        ["i", "m", "o"], [("i", "m"), ("m", "o")], ["i"], ["o"],
        {"i": "XY", "m": "XY"}, {"i": F(1, 3), "m": F(1, 5)})
    g = pattern.graph
    g2, ext = input_extend(g, ["i"])
    new = ext["i"]
    flow = find_pauli_flow(g)
    assert flow is not None
    p2 = dict(flow.p)
    p2[new] = frozenset({"i"})
    flow2 = find_pauli_flow(g2)
    assert flow2 is not None and verify_flow(g2, flow2) == []
    angles2 = dict(pattern.angles)
    angles2[new] = F(0)
    pattern2 = MeasurementPattern(g2, angles2)
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    lhs = pattern_semantics(pattern2)
    rhs = pattern_semantics(pattern)
    assert equal_up_to_phase(lhs, DenseMap(rhs.matrix @ h, lhs.input_order,
                                           lhs.output_order), 1e-9)


def test_extract_random_roundtrip():
    rng = random.Random(50)
    for _ in range(30):
        pattern, flow = random_flowful_pattern(rng, max_vertices=8)
        dag = extract_pddag(pattern, flow)
        assert equal_up_to_phase(
            pddag_semantics(dag), pattern_semantics(pattern), 1e-9)


def test_extracted_circuits_are_isometries():
    rng = random.Random(56)
    for _ in range(10):
        pattern, flow = random_flowful_pattern(rng, max_vertices=7)
        m = circuit_semantics(extract_circuit(pattern, flow)).matrix
        gram = m.conj().T @ m
        gram = gram / gram[0, 0]
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-9


def test_extract_pattern_without_outputs():
    # two X measurements correcting each other; the map is a scalar
    pattern = MeasurementPattern.make(
        ["u", "v"], [("u", "v")], [], [], {"u": "X", "v": "X"}, {"u": 0, "v": 1})
    flow = find_pauli_flow(pattern.graph)
    assert flow is not None and verify_flow(pattern.graph, flow) == []
    dag = extract_pddag(pattern, flow)
    assert dag.tableau.outputs == ()
    assert equal_up_to_phase(
        pddag_semantics(dag), pattern_semantics(pattern), 1e-9)


def test_extract_empty_pattern():
    pattern = MeasurementPattern.make([], [], [], [], {}, {})
    circuit = extract_circuit(pattern)
    assert circuit.n_wires == 0 and circuit.gates == ()
    assert equal_up_to_phase(
        circuit_semantics(circuit), pattern_semantics(pattern), 1e-9)


def test_extract_twelve_vertex_pattern():
    from tests.conftest import sized_circuit_pattern

    pattern = sized_circuit_pattern(12, 3, seed=5)
    dag = extract_pddag(pattern)
    assert equal_up_to_phase(
        pddag_semantics(dag), pattern_semantics(pattern), 1e-9)
    circuit = extract_circuit(pattern, lower_exp=True)
    assert equal_up_to_phase(
        circuit_semantics(circuit), pattern_semantics(pattern), 1e-9)


def test_extract_circuit_pattern_roundtrip():
    rng = random.Random(51)
    for _ in range(15):
        pattern = random_circuit_pattern(rng, rng.randrange(1, 4), rng.randrange(2, 10))
        circuit = extract_circuit(pattern, lower_exp=True)
        assert all(g.name != "EXP" for g in circuit.gates)
        assert equal_up_to_phase(
            circuit_semantics(circuit), pattern_semantics(pattern), 1e-9)


# -- string-law properties --------------------------------------------------------


def test_multiply_strings_homomorphism():
    rng = random.Random(52)
    for _ in range(25):
        pattern, flow = random_flowful_pattern(rng, max_vertices=7)
        g = pattern.graph
        prepared = sorted(g.prepared)
        # arbitrary subsets: equality up to phase
        for _ in range(10):
            s = frozenset(v for v in prepared if rng.random() < 0.5)
            t = frozenset(v for v in prepared if rng.random() < 0.5)
            ps = extraction_string(pattern, s).string
            pt = extraction_string(pattern, t).string
            pst = extraction_string(pattern, s ^ t).string
            assert (ps * pt).unsigned() == pst.unsigned()
        # focussed sets: stabilizers of one map, so signs are exact too
        gens = focussed_set_generators(g)
        span = [frozenset()]
        for gen in gens:
            span += [x ^ gen for x in span]
        for s in span:
            for t in span:
                ps = extraction_string(pattern, s).string
                pt = extraction_string(pattern, t).string
                pst = extraction_string(pattern, s ^ t).string
                assert ps * pt == pst


def test_anticommuting_strings_sign_law(worked_pattern, worked_flow):
    from pauliflow.pauli import commutes

    rng = random.Random(53)
    cases = [(worked_pattern, focus_flow(worked_pattern.graph, worked_flow))]
    for _ in range(20):
        pattern, flow = random_flowful_pattern(rng, max_vertices=7)
        cases.append((pattern, focus_flow(pattern.graph, flow)))
    for pattern, flow in cases:
        g = pattern.graph
        for u in sorted(g.measured):
            for v in sorted(g.measured):
                if u >= v:
                    continue
                pu, pv = flow.p[u], flow.p[v]
                f_uv = int(v in (pu | g.odd_neighbourhood(pu)))
                f_vu = int(u in (pv | g.odd_neighbourhood(pv)))
                su = extraction_string(pattern, flow, u).string
                sv = extraction_string(pattern, flow, v).string
                assert commutes(su, sv) == ((f_uv + f_vu) % 2 == 0)


def test_empty_focussed_set_nondegeneracy():
    rng = random.Random(54)
    for _ in range(25):
        pattern, _ = random_flowful_pattern(rng, max_vertices=7)
        g = pattern.graph
        for fset in focussed_set_generators(g):
            touched = (fset | g.odd_neighbourhood(fset)) & g.outputs
            assert bool(fset) == bool(touched)


def test_stab_bijection_injective(worked_pattern):
    g = worked_pattern.graph
    gens = focussed_set_generators(g)
    span = [frozenset()]
    for gen in gens:
        span += [s ^ gen for s in span]
    strings = {extraction_string(worked_pattern, s).string for s in span}
    assert len(strings) == len(span)


def test_unitary_pattern_focussed_flow_unique():
    rng = random.Random(55)
    checked = 0
    while checked < 12:
        pattern = random_circuit_pattern(rng, rng.randrange(1, 4), rng.randrange(2, 9))
        g = pattern.graph
        flow = find_pauli_flow(g)
        f1 = focus_flow(g, flow)
        # perturb: fold a later correction set into an earlier one, refocus
        candidates = [
            (u, v) for u in sorted(g.measured) for v in sorted(g.measured)
            if u != v and flow.order.precedes(u, v)
        ]
        if not candidates:
            continue
        from pauliflow.flow import add_correction_sets
        u, v = candidates[rng.randrange(len(candidates))]
        f2 = focus_flow(g, add_correction_sets(flow, u, v))
        assert f1.p == f2.p
        checked += 1


def test_extract_rejects_non_vertex_fset():
    # used to raise KeyError('zz') from the focus check
    with pytest.raises(ValueError, match="not focussed"):
        extract_pddag(worked_example(), None, [frozenset({"zz"})])


@pytest.mark.parametrize("sets, named", [
    ({"i": {"zz"}}, "i"),  # not a vertex: used to raise KeyError('zz')
    ({"zz": {"i"}}, "zz"),  # not an input: used to be ignored
    ({"i": set()}, "i"),  # without i: the error used to name i'
    ({"i": {"b", "o2"}}, "i"),  # without i
    ({"i": {"i"}}, "i"),  # not focussed over b
])
def test_extract_rejects_bad_extension_sets(sets, named):
    with pytest.raises(ValueError, match=f"^extension set for '{named}': "):
        extract_pddag(worked_example(), extension_sets=sets)


def test_extract_rejects_extension_set_with_another_input():
    pattern = MeasurementPattern.make(
        ["i", "j", "o1", "o2"], [("i", "o1"), ("j", "o2"), ("o1", "o2")], ["i", "j"],
        ["o1", "o2"], {"i": "XY", "j": "XY"}, {"i": F(1, 3), "j": F(1, 5)})
    dag = extract_pddag(pattern)
    ext = dag.tableau.x_corrections
    assert extract_pddag(pattern, extension_sets=ext).tableau.rows_equal(dag.tableau)
    both = ext["i"] ^ ext["j"]  # focussed, but holds both inputs
    with pytest.raises(ValueError, match="^extension set for 'i': "):
        extract_pddag(pattern, extension_sets={"i": both})


def test_extract_computes_each_odd_neighbourhood_once(monkeypatch):
    """The flow's verification computes Odd(p(v)) once per measured vertex
    (144 at this size); the focus check, the primary extraction strings and
    the inputs' Z and X rows read those masks, so an extraction stays at
    most 160 odd neighbourhoods (it took 432 when each recomputed them)."""
    pattern = sized_circuit_pattern(160, 16, seed=160)
    g = pattern.graph
    flow = focus_flow(g, find_pauli_flow(g))
    fsets = focussed_set_generators(g)
    calls = []
    odd = BitView.odd
    monkeypatch.setattr(BitView, "odd", lambda bv, m: calls.append(1) or odd(bv, m))
    extract_pddag(pattern, flow, fsets)
    assert 0 < len(calls) <= 160


def _corrected(**sets):
    """The worked example's flow with the given correction sets (None drops one)."""
    flow = worked_example_flow()
    p = dict(flow.p)
    for v, s in sets.items():
        if s is None:
            del p[v]
        else:
            p[v] = frozenset(s)
    return PauliFlowData(p, flow.order)


_NOT_EXTENSION = "ValueError: extension set for 'i': not a focussed set holding 'i' and no other input"


@pytest.mark.parametrize("flow, fsets, ext, message", [
    (_corrected(c={"o2"}), None, None,
     "ValueError: supplied flow is invalid: [('c', 'PF1'), ('c', 'PF3'), ('c', 'PF4')]"),
    (_corrected(c=None), None, None, "FlowFormatError: missing correction sets for ['c']"),
    (_corrected(o1=()), None, None,
     "FlowFormatError: correction sets on non-measured vertices ['o1']"),
    (_corrected(a={"a", "c", "d", "o2", "i"}), None, None,
     "FlowFormatError: correction set of 'a' contains inputs ['i']"),
    (_corrected(a={"a", "c", "d", "o2", "zz"}), None, None,
     "FlowFormatError: correction set of 'a' leaves the graph"),
    (None, [{"o1"}, worked_example_fset(), {"zz", "o2"}], None,
     "ValueError: supplied focussed sets are not focussed: [['o1'], ['o2', 'zz']]"),
    (add_correction_sets(worked_example_flow(), "b", "c"), [{"o1"}], None,
     "ValueError: supplied focussed sets are not focussed: [['o1']]"),
    (None, None, {"zz": {"i"}}, "ValueError: extension set for 'zz': not an input"),
    (None, None, {"i": {"zz"}}, _NOT_EXTENSION),
    (None, None, {"i": set()}, _NOT_EXTENSION),
    (None, None, {"i": {"b", "o2"}}, _NOT_EXTENSION),
    (None, None, {"i": {"i"}}, _NOT_EXTENSION),
])
def test_extract_error_messages(flow, fsets, ext, message):
    """Each flow, focus and extension-set error names its type and message
    exactly as before the checks shared the flow's masks."""
    with pytest.raises(ValueError) as info:
        extract_pddag(worked_example(), flow or worked_example_flow(),
                      fsets and [frozenset(fs) for fs in fsets], ext)
    assert f"{type(info.value).__name__}: {info.value}" == message

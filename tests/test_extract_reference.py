"""Differential tests: extraction against reference_extract.py.

The library reads each input's X row from the set {u} focussed on the
pattern's own graph; the reference builds the input extension the paper
uses.  Both must give the same rotation nodes (ids, order, strings and
angles, trailing gates included) and the same tableau: Z, X and free rows
and X-row correction sets.  The vertices whose sets the reference's X-row
sweep adds to {u} must be exactly the measured vertices {u} is not
focussed over, the ones the library adds in one pass.  The families are
random graphs whose inputs may also be outputs, with all six labels;
circuit-shaped patterns with and without prepared wires, at random and
fixed sizes; the patterns after each of the five rewrites, extracted
with the extension sets the rewrite supplies; the patterns before each
rewrite, extracted from the masks of the rewrite's check of its input
flow; and unfocussed flows, focussed together with their masks.  The
library orders the nodes by the focussed flow's own order; the reference
builds the paper's Pauli-first order, and the planar vertices must come
out in the same order on random patterns, their switched and refocussed
flows, pair-form re-parses of all of them, and circuit-shaped patterns
up to 320 vertices.
"""

import random
from fractions import Fraction

import pytest

from pauliflow import flow as flow_mod
from pauliflow import rewrite
from pauliflow.cli import flow_json, parse_flow
from pauliflow.extract import extract_pddag
from pauliflow.flow import (add_correction_sets, find_pauli_flow, focus_flow,
                            focussed_set_generators, switch_flow)
from pauliflow.graph import ALL_LABELS, LabelledOpenGraph, MeasurementPattern, TrailingGate
from tests import reference_extract as ref
from tests import reference_flow
from tests.conftest import (
    random_angle,
    random_circuit_pattern,
    random_flowful_pattern,
    sized_circuit_pattern,
    with_prepared_wires,
    worked_example,
)
from tests.test_order_reference import with_prepared_wire
from tests.test_rewrite_chains import _applicable, _apply


def assert_same_extraction(pattern, flow=None, fsets=None, extension_sets=None):
    """Returns the library's Pddag and the reference's X-row traces."""
    got = extract_pddag(pattern, flow, fsets, extension_sets)
    want, traces = ref.extract_pddag(pattern, flow, fsets, extension_sets)
    assert got.node_ids == want.node_ids
    assert got.nodes == want.nodes
    t, r = got.tableau, want.tableau
    assert (t.inputs, t.outputs, t.free_rows) == (r.inputs, r.outputs, r.free_rows)
    assert t.z_rows == r.z_rows
    assert t.x_rows == r.x_rows
    assert t.x_corrections == r.x_corrections
    g = pattern.graph
    for u in g.inputs - set(extension_sets or ()):
        assert traces[u] == reference_flow.unfocussed(g, {u})
    return got, traces


def random_open_graph(rng, n):
    """Random graph with all six labels whose inputs may also be outputs."""
    verts = [f"v{i}" for i in range(n)]
    edges = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]
             if rng.random() < min(0.8, 2.5 / n)]
    outputs = rng.sample(verts, rng.randrange(1, n + 1))
    inputs = rng.sample(verts, rng.randrange(0, len(outputs) + 1))
    labels = {v: rng.choice(ALL_LABELS) for v in verts if v not in outputs}
    return LabelledOpenGraph.make(verts, edges, inputs, outputs, labels)


def test_random_graphs_inputs_overlapping_outputs():
    rng = random.Random(1301)
    cases = overlapping = 0
    input_labels = set()
    self_fired = 0
    while cases < 1000:
        g = random_open_graph(rng, rng.randrange(2, 10))
        flow = find_pauli_flow(g)
        if flow is None:
            continue
        angles = {v: random_angle(rng, pauli=g.is_pauli(v)) for v in sorted(g.measured)}
        _, traces = assert_same_extraction(MeasurementPattern(g, angles), flow)
        cases += 1
        overlapping += bool(g.inputs & g.outputs)
        for u in g.inputs - g.outputs:
            input_labels.add(g.labels[u])
            self_fired += u in traces[u]
    assert overlapping >= 300
    assert {"X", "Y"} <= input_labels
    assert self_fired >= 10


def test_pauli_labelled_inputs():
    # An input's own correction set joins its X row when the input is not
    # focussed over itself: always for a Y input, whose set {u} is not in
    # its own odd neighbourhood.  An X input never fires its own set, as
    # the flow is focussed first and each set it adds toggles only the
    # focus of its own vertex.
    rng = random.Random(1302)
    fired = {"X": 0, "Y": 0}
    seen = {"X": 0, "Y": 0}
    while min(seen.values()) < 40:
        pattern, flow = random_flowful_pattern(rng, max_vertices=8)
        g = pattern.graph
        pauli_inputs = [u for u in sorted(g.inputs - g.outputs) if g.labels[u] in seen]
        if not pauli_inputs:
            continue
        _, traces = assert_same_extraction(pattern, flow)
        for u in pauli_inputs:
            seen[g.labels[u]] += 1
            fired[g.labels[u]] += u in traces[u]
    assert fired == {"X": 0, "Y": seen["Y"]}


@pytest.mark.parametrize("prepared", [False, True])
def test_random_circuit_patterns(prepared):
    rng = random.Random(1303 + prepared)
    for _ in range(60):
        pattern = random_circuit_pattern(rng, rng.randrange(1, 5), rng.randrange(2, 16))
        if prepared:
            pattern = with_prepared_wires(pattern, rng.randrange(len(pattern.graph.inputs) + 1))
        assert_same_extraction(pattern)


@pytest.mark.parametrize("n", [40, 80, 160])
def test_sized_circuit_patterns(n):
    pattern = sized_circuit_pattern(n, n // 10, seed=n)
    g = pattern.graph
    flow = focus_flow(g, find_pauli_flow(g))
    assert_same_extraction(pattern, flow, focussed_set_generators(g))
    assert_same_extraction(with_prepared_wires(pattern, 1), flow)


def test_trailing_gates():
    # zero-angle rotations are left out; ids count from the outermost gate
    gates = [TrailingGate("o1", "H"), TrailingGate("o2", "RZ", Fraction(0)),
             TrailingGate("o1", "RX", Fraction(1, 3)), TrailingGate("o2", "S"),
             TrailingGate("o1", "RZ", Fraction(2))]
    pattern = worked_example()
    dag, _ = assert_same_extraction(pattern.with_graph(pattern.graph, trailing=gates))
    assert [i for i in dag.node_ids if i.startswith("t:")] == ["t:4.0", "t:4.1", "t:4.2", "t:2", "t:1"]


def test_rewrites_with_supplied_extension_sets():
    """Each rewrite report extracts the pattern after it with the extension
    sets it updated; the reference must read the same rows from them."""
    rng = random.Random(1305)
    kinds = dict.fromkeys(("relabel", "zelim", "lc", "pivot", "switch"), 0)
    starts = [worked_example()] + [random_flowful_pattern(rng, max_vertices=8)[0]
                                   for _ in range(80)]
    for start in starts:
        g = start.graph
        pattern, flow = start, focus_flow(g, find_pauli_flow(g))
        fsets = focussed_set_generators(g)
        for _ in range(6):
            moves = _applicable(rng, pattern, flow, fsets)
            if not moves or not pattern.graph.measured:
                break
            kind, arg = moves[rng.randrange(len(moves))]
            report = _apply(kind, arg, pattern, flow, fsets, rng)
            assert report.consistent
            pattern, flow, fsets = report.pattern_after, report.flow_after, report.fsets_after
            supplied = report.pddag_via_pattern.tableau.x_corrections
            got, _ = assert_same_extraction(pattern, flow, fsets, supplied)
            assert got.node_ids == report.pddag_via_pattern.node_ids
            assert got.nodes == report.pddag_via_pattern.nodes
            assert got.tableau == report.pddag_via_pattern.tableau
            kinds[kind] += 1
    assert min(kinds.values()) >= 10, kinds


def test_rewrite_inputs_extracted_from_their_masks():
    """A rewrite extracts its input's Pddag from the masks its one check of
    the input flow built (``rewrite._base_pddag``); along chains of every
    rewrite kind that Pddag must equal the reference's, row for row."""
    rng = random.Random(1306)
    kinds = dict.fromkeys(("relabel", "zelim", "lc", "pivot", "switch"), 0)
    for _ in range(60):
        start = random_flowful_pattern(rng, max_vertices=8)[0]
        g = start.graph
        pattern, flow = start, focus_flow(g, find_pauli_flow(g))
        fsets = focussed_set_generators(g)
        for _ in range(5):
            moves = _applicable(rng, pattern, flow, fsets)
            if not moves or not pattern.graph.measured:
                break
            masks = rewrite._require_focussed(pattern, flow)
            got = rewrite._base_pddag(pattern, flow, masks, fsets)
            want, _ = ref.extract_pddag(pattern, flow, fsets)
            assert (got.node_ids, got.nodes, got.tableau) == (want.node_ids, want.nodes,
                                                              want.tableau)
            kind, arg = moves[rng.randrange(len(moves))]
            report = _apply(kind, arg, pattern, flow, fsets, rng)
            pattern, flow, fsets = report.pattern_after, report.flow_after, report.fsets_after
            kinds[kind] += 1
    assert min(kinds.values()) >= 5, kinds


def test_unfocussed_flows():
    """``extract_pddag`` focusses an unfocussed flow together with its masks
    (an odd neighbourhood follows its set's XORs); the masks must be those
    the focussed flow's own verification builds, and the Pddag the
    reference's."""
    rng = random.Random(1307)
    checked = 0
    while checked < 150:
        pattern, flow = random_flowful_pattern(rng, max_vertices=9)
        g = pattern.graph
        pairs = [(u, v) for u in sorted(g.measured) for v in sorted(g.measured)
                 if u != v and flow.order.precedes(u, v)]
        if pairs:
            flow = add_correction_sets(flow, *pairs[rng.randrange(len(pairs))])
        bad, masks = flow_mod._verify(g, flow)
        assert bad == []
        if flow_mod._focussed(masks):
            continue
        focussed, derived = flow_mod._focus(g, flow, masks)
        assert focussed == focus_flow(g, flow)
        fresh = flow_mod._verify(g, focussed)[1]
        assert (derived.bv.verts, derived.p, derived.odd) == (fresh.bv.verts, fresh.p, fresh.odd)
        assert_same_extraction(pattern, flow)
        checked += 1


def flow_variants(rng, g, flow, fsets, switches):
    """The focussed flow; its switches by each focussed set at up to
    ``switches`` vertices; one sum of correction sets, refocussed; and each
    of these re-parsed from a document listing its order as pairs."""
    flows = [focus_flow(g, flow)]
    for fs in fsets:
        done = 0
        for u in sorted(g.measured):
            if done == switches:
                break
            try:
                flows.append(focus_flow(g, switch_flow(g, flows[0], u, fs)))
            except ValueError:
                continue
            done += 1
    pairs = [(u, v) for u in sorted(g.measured) for v in sorted(g.measured)
             if u != v and flow.order.precedes(u, v)]
    if pairs:
        summed = add_correction_sets(flows[0], *pairs[rng.randrange(len(pairs))])
        flows.append(focus_flow(g, summed))
    for f in list(flows):
        doc = {"p": flow_json(f, g)["p"], "order": f.order.pair_lists(g.vertices)}
        flows.append(parse_flow(doc, "/flow", sorted(g.vertices)))
    return flows


def assert_paulis_first_node_order(pattern, flow, fsets):
    """The library's rotation nodes follow the temporal order of the
    reference's Pauli-first flow, filtered to the planar vertices."""
    g = pattern.graph
    dag = extract_pddag(pattern, flow, fsets)
    order = ref.paulis_first(g, flow).order
    want = [v for v in order.temporal_order(g.measured) if g.is_planar(v)]
    assert [nid for nid in dag.node_ids if not nid.startswith("t:")] == want


def test_node_order_is_the_paulis_first_order():
    rng = random.Random(1308)
    flows = 0
    for _ in range(150):
        pattern, flow = random_flowful_pattern(rng, max_vertices=9)
        g = pattern.graph
        fsets = focussed_set_generators(g)
        for f in flow_variants(rng, g, flow, fsets, switches=2):
            assert_paulis_first_node_order(pattern, f, fsets)
            flows += 1
    assert flows >= 1000


@pytest.mark.parametrize("n", [40, 80, 160, 320])
def test_sized_node_order_is_the_paulis_first_order(n):
    pattern = with_prepared_wire(sized_circuit_pattern(n, n // 10, seed=n))
    g = pattern.graph
    fsets = focussed_set_generators(g)
    flows = flow_variants(random.Random(n), g, find_pauli_flow(g), fsets, switches=1)
    assert len(flows) == 6
    for f in flows:
        assert_paulis_first_node_order(pattern, f, fsets)

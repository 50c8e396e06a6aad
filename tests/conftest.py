"""Shared fixtures: the two worked-example patterns and random generators."""

import random
from fractions import Fraction

import pytest

from pauliflow.flow import FlowOrder, PauliFlowData
from pauliflow.graph import LabelledOpenGraph, MeasurementPattern
from pauliflow.pauli import single
from pauliflow.pddag import Gate
from tests.reference_synth import conj_gate

F = Fraction


def worked_example(a_d=0, alpha_i=F(1, 4), alpha_a=F(1, 3), alpha_b=F(1, 5),
                  alpha_c=F(1, 7)):
    """Seven-vertex pattern with one input, two outputs and a Y vertex."""
    return MeasurementPattern.make(
        vertices=["i", "a", "b", "c", "d", "o1", "o2"],
        edges=[("i", "b"), ("a", "b"), ("a", "c"), ("a", "d"),
               ("b", "d"), ("c", "d"), ("c", "o1"), ("d", "o2")],
        inputs=["i"],
        outputs=["o1", "o2"],
        labels={"i": "XY", "a": "YZ", "b": "XY", "c": "XY", "d": "Y"},
        angles={"i": alpha_i, "a": alpha_a, "b": alpha_b, "c": alpha_c, "d": F(a_d)},
    )


def worked_example_flow():
    """The focussed flow tabulated for the worked_example fixture."""
    p = {
        "i": frozenset({"b", "o2"}),
        "a": frozenset({"a", "c", "d", "o2"}),
        "b": frozenset({"c", "d", "o1"}),
        "c": frozenset({"o1"}),
        "d": frozenset({"o2"}),
    }
    after = {
        "i": {"a", "b", "c", "o1", "o2"},
        "a": {"c", "o1", "o2"},
        "b": {"c", "o1", "o2"},
        "c": {"o1"},
        "d": {"o2"},
    }
    pairs = {(v, w) for v, ws in after.items() for w in ws}
    return PauliFlowData(p, FlowOrder.from_pairs(pairs))


def worked_example_fset():
    return frozenset({"c", "o2"})


def measured_v0(alpha_i=F(1, 4), alpha_a=F(0), alpha_b=F(1, 3), alpha_c=F(1)):
    """Four measured vertices, one of them correctable at depth zero."""
    return MeasurementPattern.make(
        vertices=["i", "a", "b", "c", "o"],
        edges=[("i", "a"), ("a", "b"), ("a", "o"), ("b", "c")],
        inputs=["i"],
        outputs=["o"],
        labels={"i": "XY", "a": "X", "b": "XY", "c": "X"},
        angles={"i": alpha_i, "a": alpha_a, "b": alpha_b, "c": alpha_c},
    )


def measured_v0_flow():
    p = {
        "i": frozenset({"a"}),
        "a": frozenset({"o"}),
        "b": frozenset({"c"}),
        "c": frozenset({"b", "o"}),
    }
    after = {"i": {"b", "o"}, "a": {"o"}, "b": set(), "c": {"b", "o"}}
    pairs = {(v, w) for v, ws in after.items() for w in ws}
    return PauliFlowData(p, FlowOrder.from_pairs(pairs))


@pytest.fixture
def worked_pattern():
    return worked_example()


@pytest.fixture
def worked_flow():
    return worked_example_flow()


@pytest.fixture
def v0_pattern():
    return measured_v0()


@pytest.fixture
def v0_flow():
    return measured_v0_flow()


# -- random generators ---------------------------------------------------------

ANGLE_DENS = (1, 2, 3, 4, 5, 8)


def random_angle(rng, pauli=False):
    if pauli:
        return F(rng.choice((0, 1)))
    return F(rng.randrange(0, 2 * rng.choice(ANGLE_DENS)), rng.choice(ANGLE_DENS)) % 2


def random_labelled_graph(rng, n, labels=("XY", "XZ", "YZ", "X", "Y", "Z")):
    """A random labelled open graph; no flow guarantee."""
    verts = [f"v{i}" for i in range(n)]
    edges = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]
             if rng.random() < min(0.8, 2.5 / n)]
    n_out = rng.randrange(1, max(2, n // 2 + 1))
    outputs = verts[-n_out:]
    n_in = rng.randrange(0, min(n_out, n - n_out) + 1)
    inputs = verts[:n_in]
    lab = {v: rng.choice(labels) for v in verts if v not in outputs}
    return LabelledOpenGraph.make(verts, edges, inputs, outputs, lab)


FOREIGN = ("w0", "w1")  # order entries that are not graph vertices


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


def random_flowful_pattern(rng, max_vertices=8, attempts=4000):
    """Rejection-sample a labelled graph until it has a Pauli flow."""
    from pauliflow.flow import find_pauli_flow

    for _ in range(attempts):
        n = rng.randrange(3, max_vertices + 1)
        g = random_labelled_graph(rng, n)
        flow = find_pauli_flow(g)
        if flow is None:
            continue
        angles = {
            v: random_angle(rng, pauli=g.is_pauli(v)) for v in sorted(g.measured)
        }
        return MeasurementPattern(g, angles), flow
    raise RuntimeError("no flowful pattern found")


def random_circuit_pattern(rng, wires, moves):
    """Pattern built like a circuit translation: chains per wire plus CZ edges.

    Always admits a Pauli flow (wire successors give a causal flow).
    """
    verts = []
    edges = []
    last = {}
    for w in range(wires):
        v = f"q{w}x0"
        verts.append(v)
        last[w] = (v, 0)
    for _ in range(moves):
        if wires >= 2 and rng.random() < 0.4:
            a, b = rng.sample(range(wires), 2)
            e = tuple(sorted((last[a][0], last[b][0])))
            if list(e) not in [sorted(x) for x in edges] and e[0] != e[1]:
                edges.append(e)
        else:
            w = rng.randrange(wires)
            v, k = last[w]
            nv = f"q{w}x{k + 1}"
            verts.append(nv)
            edges.append((v, nv))
            last[w] = (nv, k + 1)
    for w in range(wires):
        v, k = last[w]
        if k == 0:  # ensure every wire has at least one measured vertex
            nv = f"q{w}x1"
            verts.append(nv)
            edges.append((v, nv))
            last[w] = (nv, 1)
    outputs = [last[w][0] for w in range(wires)]
    inputs = [f"q{w}x0" for w in range(wires)]
    labels = {}
    angles = {}
    for v in verts:
        if v in outputs:
            continue
        if rng.random() < 0.3:
            labels[v] = rng.choice(("X", "Y"))
            angles[v] = F(rng.choice((0, 1)))
        else:
            labels[v] = "XY"
            angles[v] = random_angle(rng)
    return MeasurementPattern.make(verts, edges, inputs, outputs, labels, angles)


def sized_circuit_pattern(n_vertices, wires, seed):
    """Circuit-shaped flowful pattern with exactly n_vertices vertices."""
    rng = random.Random(seed)
    verts = [f"q{w}x0" for w in range(wires)]
    edges = []
    last = {w: (f"q{w}x0", 0) for w in range(wires)}
    count = wires
    while count < n_vertices:
        if wires >= 2 and rng.random() < 0.35:
            a, b = rng.sample(range(wires), 2)
            e = tuple(sorted((last[a][0], last[b][0])))
            if e not in edges:
                edges.append(e)
        else:
            w = rng.randrange(wires)
            v, k = last[w]
            nv = f"q{w}x{k + 1}"
            verts.append(nv)
            edges.append((v, nv))
            last[w] = (nv, k + 1)
            count += 1
    outputs = [last[w][0] for w in range(wires)]
    inputs = [f"q{w}x0" for w in range(wires)]
    labels = {}
    angles = {}
    for v in verts:
        if v in outputs:
            continue
        if rng.random() < 0.3:
            labels[v] = rng.choice(("X", "Y"))
            angles[v] = F(rng.choice((0, 1)))
        else:
            labels[v] = "XY"
            angles[v] = random_angle(rng)
    return MeasurementPattern.make(verts, edges, inputs, outputs, labels, angles)


def with_prepared_wires(pattern, k):
    """The same pattern with k of its inputs prepared instead."""
    g = pattern.graph
    graph = LabelledOpenGraph(g.vertices, g.edges, frozenset(sorted(g.inputs)[k:]),
                              g.outputs, g.labels)
    return MeasurementPattern(graph, pattern.angles)


def random_clifford_rows(rng, n):
    """Exact Z/X images of a random Clifford circuit, plus the circuit."""
    gates = []
    for _ in range(rng.randrange(4, 25)):
        kind = rng.choice(["H", "S", "Sdg", "X", "Z", "CX", "CZ"])
        if kind in ("CX", "CZ") and n >= 2:
            a, b = rng.sample(range(n), 2)
            gates.append(Gate(kind, (a, b)))
        else:
            gates.append(Gate(rng.choice(["H", "S", "Sdg", "X", "Z"]), (rng.randrange(n),)))
    z_rows = []
    x_rows = []
    for k in range(n):
        z, x = single(k, "Z"), single(k, "X")
        for gate in gates:
            z = conj_gate(gate.name, gate.qubits, z)
            x = conj_gate(gate.name, gate.qubits, x)
        z_rows.append(z)
        x_rows.append(x)
    return z_rows, x_rows, gates

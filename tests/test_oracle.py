"""The dense oracle itself: hand-checked values and self-consistency."""

import ast
import inspect
import json
import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from pauliflow import oracle
from pauliflow.extract import extract_pddag
from pauliflow.flow import focus_flow, focussed_set_generators
from pauliflow.graph import ALL_LABELS, MeasurementPattern, TrailingGate
from pauliflow.oracle import (
    DenseMap,
    circuit_semantics,
    equal_up_to_phase,
    pattern_semantics,
    pddag_semantics,
    string_matrix,
    tableau_isometry,
)
from pauliflow.pauli import from_letter_map, gate_to_exponentials
from pauliflow.pddag import Circuit, Gate, _complete_tableau, synthesize
from pauliflow.rewrite import local_complement_pattern, pivot_pattern
from tests import reference_pauli, reference_synth
from tests.conftest import (
    random_angle,
    random_circuit_pattern,
    random_flowful_pattern,
    sized_circuit_pattern,
    with_prepared_wires,
)
from tests.reference_oracle import eager_pattern_semantics, graph_state_matrix

F = Fraction


def test_empty_pattern_identity_wire():
    p = MeasurementPattern.make(["o"], [], ["o"], ["o"], {}, {})
    m = pattern_semantics(p)
    assert np.allclose(m.matrix, np.eye(2))


def test_single_yz_vertex_hand_value():
    # o is prepared too (no inputs): <0|_u CZ |+>_u |+>_o = (|0>+|1>)/2
    p = MeasurementPattern.make(
        ["u", "o"], [("u", "o")], [], ["o"], {"u": "YZ"}, {"u": 0})
    m = pattern_semantics(p)
    assert np.allclose(m.matrix, np.array([[0.5], [0.5]]))


def test_single_yz_vertex_with_input_wire():
    # with o an input as well, the wire passes through: <0|+> * I
    p = MeasurementPattern.make(
        ["u", "o"], [("u", "o")], ["o"], ["o"], {"u": "YZ"}, {"u": 0})
    m = pattern_semantics(p)
    assert np.allclose(m.matrix, np.eye(2) / math.sqrt(2))


def test_graph_state_stabilizer_identity():
    rng = random.Random(30)
    for _ in range(20):
        pattern, _ = random_flowful_pattern(rng, max_vertices=6)
        g = pattern.graph
        state = graph_state_matrix(pattern)
        verts = sorted(g.vertices)
        for u in sorted(g.prepared):
            stab = from_letter_map({u: "X", **{v: "Z" for v in g.neighbours(u)}})
            lhs = string_matrix(stab, verts) @ state.matrix
            assert np.max(np.abs(lhs - state.matrix)) < 1e-12


def test_empty_circuit_identity():
    m = circuit_semantics(Circuit(2))
    assert np.allclose(m.matrix, np.eye(4))


def test_cx_decomposition_matches_cx_matrix():
    gates = tuple(
        Gate("EXP", tuple(sorted(r.string.letters)), angle=r.angle, string=r.string)
        for r in reversed(gate_to_exponentials("CX", (0, 1)))
    )
    m = circuit_semantics(Circuit(2, gates))
    cx = circuit_semantics(Circuit(2, (Gate("CX", (0, 1)),)))
    assert equal_up_to_phase(m, cx, 1e-12)


def test_trailing_gates_applied_in_order():
    p = MeasurementPattern.make(
        ["o"], [], ["o"], ["o"], {}, {},
        trailing=[TrailingGate("o", "H"), TrailingGate("o", "S")])
    m = pattern_semantics(p)
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    s = np.diag([1, 1j])
    assert np.allclose(m.matrix, s @ h)


def test_equal_up_to_phase_basics():
    a = DenseMap(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex), (0,), (0,))
    b = DenseMap(1j * a.matrix, (0,), (0,))
    assert equal_up_to_phase(a, a)
    assert equal_up_to_phase(a, b)
    c = DenseMap(a.matrix + 1e-6, (0,), (0,))
    assert not equal_up_to_phase(a, c, tol=1e-9)
    with pytest.raises(ValueError):
        equal_up_to_phase(a, DenseMap(np.eye(4, dtype=complex), (0,), (0, 1)))


@pytest.mark.parametrize("name", ["worked-example", "measured-v0", "no-flow"])
def test_equal_up_to_phase_exact_at_zero_tolerance(name):
    """Identical and negated maps compare equal with no tolerance at all."""
    from pauliflow.cli import parse_pattern_document

    path = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / f"{name}.json"
    pattern, _, _ = parse_pattern_document(json.loads(path.read_text()))
    m = pattern_semantics(pattern)
    negated = DenseMap(-m.matrix, m.input_order, m.output_order)
    assert equal_up_to_phase(m, m, tol=0)
    assert equal_up_to_phase(m, negated, tol=0)
    assert equal_up_to_phase(negated, m, tol=0)


def test_equal_up_to_phase_does_not_depend_on_scale():
    m = np.array([[1, 2], [3, 4j]], dtype=complex)
    tiny = DenseMap(1e-12 * m, (0,), (0,))
    assert equal_up_to_phase(DenseMap(m, (0,), (0,)), tiny)
    assert not equal_up_to_phase(tiny, DenseMap(1e-12 * np.eye(2, dtype=complex), (0,), (0,)))
    assert not equal_up_to_phase(DenseMap(1e-12 * np.eye(2, dtype=complex), (0,), (0,)), tiny)


def test_equal_up_to_phase_zero_equals_only_zero():
    zero = DenseMap(np.zeros((2, 2), dtype=complex), (0,), (0,))
    tiny = DenseMap(1e-15 * np.eye(2, dtype=complex), (0,), (0,))
    assert equal_up_to_phase(zero, zero, tol=0)
    assert not equal_up_to_phase(zero, tiny)
    assert not equal_up_to_phase(tiny, zero)


def test_equal_up_to_scalar_not_just_unit_phase():
    a = DenseMap(np.eye(2, dtype=complex), (0,), (0,))
    b = DenseMap(np.eye(2, dtype=complex) / math.sqrt(2), (0,), (0,))
    assert equal_up_to_phase(a, b)


def test_pattern_norm_bound_and_determinism():
    rng = random.Random(31)
    for _ in range(15):
        pattern, _ = random_flowful_pattern(rng, max_vertices=7)
        m1 = pattern_semantics(pattern).matrix
        m2 = pattern_semantics(pattern).matrix
        assert np.array_equal(m1, m2)
        assert np.linalg.norm(m1, 2) <= 1 + 1e-9


_TRAILING = (("Z",), ("X",), ("S",), ("Sdg",), ("H",), ("RZ", F(1, 4)), ("RX", F(3, 8)))


def _random_open_pattern(rng):
    """A pattern on any open graph, flow or not: inputs and outputs are
    independent subsets, so some vertices are both, some inputs are measured
    and some patterns have no outputs; sparse edges leave some vertices
    isolated; outputs carry random trailing gates."""
    verts = [f"v{i}" for i in range(rng.randrange(1, 8))]
    edges = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:] if rng.random() < 0.35]
    inputs = [v for v in verts if rng.random() < 0.3]
    outputs = [v for v in verts if rng.random() < 0.35]
    labels = {v: rng.choice(ALL_LABELS) for v in verts if v not in outputs}
    angles = {v: random_angle(rng, pauli=len(label) == 1) for v, label in labels.items()}
    trailing = [TrailingGate(rng.choice(outputs), *rng.choice(_TRAILING))
                for _ in range(rng.randrange(3) if outputs else 0)]
    return MeasurementPattern.make(verts, edges, inputs, outputs, labels, angles, trailing)


def _rewritten_pattern(rng):
    """A flowful pattern after a local complementation or a pivot, which
    leave trailing gates on output neighbours."""
    while True:
        pattern, flow = random_flowful_pattern(rng, max_vertices=7)
        g = pattern.graph
        flow, fsets = focus_flow(g, flow), focussed_set_generators(g)
        pivots = [e for e in sorted(g.edges) if not set(e) & g.inputs]
        if rng.random() < 0.5:
            u, direction = rng.choice(sorted(g.prepared)), rng.choice((1, -1))
            return local_complement_pattern(pattern, flow, fsets, u, direction).pattern_after
        if pivots:
            return pivot_pattern(pattern, flow, fsets, *rng.choice(pivots)).pattern_after


def test_lazy_pattern_semantics_matches_eager_reference():
    rng = random.Random(33)
    patterns = [_random_open_pattern(rng) for _ in range(360)]
    patterns += [_rewritten_pattern(rng) for _ in range(60)]
    for wires in (1, 2, 3):
        pattern = random_circuit_pattern(rng, wires, 5)
        patterns += [pattern, with_prepared_wires(pattern, 1)]
    g_kinds = [p.graph for p in patterns]
    assert any(g.inputs & g.outputs for g in g_kinds)
    assert any(g.inputs - g.outputs for g in g_kinds)
    assert any(not g.outputs for g in g_kinds)
    assert any(any(not any(v in e for e in g.edges) for v in g.vertices) for g in g_kinds)
    assert sum(bool(p.trailing) for p in patterns[360:420]) >= 20
    for pattern in patterns:
        lazy, eager = pattern_semantics(pattern), eager_pattern_semantics(pattern)
        assert (lazy.input_order, lazy.output_order) == (eager.input_order, eager.output_order)
        assert np.max(np.abs(lazy.matrix - eager.matrix)) <= 1e-12


@pytest.mark.parametrize("n", [60, 80])
def test_dense_round_trip_at_benchmark_size(n):
    """Pattern, Pddag and circuit agree on a benchmark-shaped pattern; its
    entries are tiny (2^(-1/2) per measurement), which the scale-free
    comparison must not mistake for zero."""
    pattern = sized_circuit_pattern(n, n // 10, seed=n)
    dag = extract_pddag(pattern)
    want = pattern_semantics(pattern, cap=n)
    assert equal_up_to_phase(want, pddag_semantics(dag, cap=n))
    assert equal_up_to_phase(want, circuit_semantics(synthesize(dag, lower_exp=True), cap=n))


def test_qubit_cap(monkeypatch):
    monkeypatch.setenv("PAULIFLOW_MAX_QUBITS", "3")
    p = MeasurementPattern.make(
        ["a", "b", "c", "o"], [("a", "o")], [], ["o"],
        {"a": "XY", "b": "XY", "c": "XY"}, {"a": 0, "b": 0, "c": 0})
    from pauliflow.oracle import QubitCapExceeded
    with pytest.raises(QubitCapExceeded):
        pattern_semantics(p)


def test_tableau_isometry_matches_synthesized_clifford():
    # the isometry built from the rows equals INIT0 on the fresh wires
    # followed by the (reference) synthesized Clifford
    rng = random.Random(32)
    patterns = [random_flowful_pattern(rng, max_vertices=8)[0] for _ in range(20)]
    for wires in (2, 3, 4):
        pattern = random_circuit_pattern(rng, wires, 6)
        patterns += [pattern, with_prepared_wires(pattern, 1)]
    for pattern in patterns:
        tab = extract_pddag(pattern).tableau
        n, m = len(tab.outputs), len(tab.inputs)
        v = tableau_isometry(tab)
        assert v.shape == (2 ** n, 2 ** m)
        assert np.allclose(v.conj().T @ v, np.eye(2 ** m), atol=1e-9)
        z_out, x_out = reference_pauli.unpacked(*_complete_tableau(tab), n)
        gates = tuple(Gate("INIT0", (w,)) for w in range(m, n)) \
            + tuple(reference_synth.clifford_circuit_from_rows(z_out, x_out))
        want = circuit_semantics(Circuit(n, gates)).matrix
        assert equal_up_to_phase(DenseMap(v, (), ()), DenseMap(want, (), ()))


def test_oracle_imports_only_data_types_from_pddag():
    tree = ast.parse(inspect.getsource(oracle))
    names = [a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "pddag"
             for a in node.names]
    assert names and all(isinstance(getattr(oracle, n), type) for n in names)

"""Differential tests: the X/Z-set Pauli strings against reference_pauli.py.

Products, commutation, the ``[x | z]`` row layout the PDDAG layer reads
(tableau rows, node rows, completed tableaux) and its ``[z | x]`` swap must
match the letter-dict code exactly, on seeded random strings with every
phase, on random signed tableaux and on the tableaux and nodes the pipeline
really builds.
"""

import ast
import inspect
import pickle
import random

import pytest

from pauliflow import f2, pddag
from pauliflow.extract import extract_pddag
from pauliflow.pauli import SignedPauliString, commutes, multiply, parse_string
from pauliflow.pddag import IsometryTableau, _complete_tableau, _packed, _swapped
from tests import reference_pauli as ref
from tests.conftest import random_clifford_rows, sized_circuit_pattern, with_prepared_wires


def random_string(rng, qubits, density=0.5):
    letters = {q: rng.choice("XYZ") for q in qubits if rng.random() < density}
    return SignedPauliString(letters, rng.randrange(4))


QUBIT_SETS = [["a", "b", "c"], [f"v{i}" for i in range(12)], list(range(40))]


@pytest.mark.parametrize("qubits", QUBIT_SETS, ids=["3", "12", "40-int"])
def test_multiply_and_commutes_match_reference(qubits):
    rng = random.Random(len(qubits))
    phases = set()
    for _ in range(400):
        density = rng.choice((0.1, 0.5, 0.9))
        a, b = random_string(rng, qubits, density), random_string(rng, qubits, density)
        phases.add(multiply(a, b).phase_pow)
        assert multiply(a, b) == ref.multiply(a, b)
        assert commutes(a, b) == ref.commutes(a, b) == commutes(b, a)
    assert phases == {0, 1, 2, 3}


def test_letter_views_round_trip():
    rng = random.Random(5)
    qubits = [f"q{i}" for i in range(8)]
    for _ in range(200):
        s = random_string(rng, qubits)
        assert SignedPauliString(s.letters, s.phase_pow) == s
        assert SignedPauliString.from_xz(s.x, s.z, s.phase_pow) == s
        assert parse_string(s.format()) == s
        assert pickle.loads(pickle.dumps(s)) == s
        assert hash(SignedPauliString(dict(s.letters), s.phase_pow)) == hash(s)
        for q in qubits:
            assert s.letter(q) == s.letters.get(q, "I")
        assert s.x == {q for q, l in s.letters.items() if l != "Z"}
        assert s.z == {q for q, l in s.letters.items() if l != "X"}


def test_strings_are_immutable():
    s = SignedPauliString({"a": "X"})
    with pytest.raises(AttributeError):
        s.phase_pow = 1
    with pytest.raises(ValueError):
        SignedPauliString({"a": "W"})


def test_relabelled_matches_letter_rekeying():
    rng = random.Random(9)
    qubits = [f"o{i}" for i in range(10)]
    wire = {q: i for i, q in enumerate(qubits)}
    for _ in range(100):
        s = random_string(rng, qubits)
        rekeyed = SignedPauliString({wire[q]: l for q, l in s.letters.items()}, s.phase_pow)
        assert s.relabelled(wire) == rekeyed


def test_bit_layouts_match_reference_packers():
    rng = random.Random(13)
    outputs = tuple(f"o{i}" for i in range(9))
    pos = {q: i for i, q in enumerate(outputs)}
    n = len(outputs)
    for _ in range(200):
        s = random_string(rng, outputs)
        x, z = s.bits(pos)
        assert (x, z) == ref.xz_bits(s, pos)
        if s.is_hermitian():
            assert _packed([s], outputs) == ref.packed([s], outputs)
        assert x | z << n == ref.tableau_bits(s, outputs)
        w = s.relabelled(pos)
        assert _swapped(x | z << n, n) == ref.partner_bits(w, n)
        assert SignedPauliString.from_xz(f2.bits(x), f2.bits(z)) == ref.bits_to_string(x, z)


@pytest.mark.parametrize("n", [40, 80])
def test_pipeline_bit_layouts_match_reference(n):
    pattern = sized_circuit_pattern(n, n // 10, seed=n)
    for prepared in (0, 1, n // 20):
        dag = extract_pddag(with_prepared_wires(pattern, prepared))
        tab = dag.tableau
        assert len(tab.free_rows) == prepared
        rows = [tab.z_rows[u] for u in tab.inputs] + list(tab.free_rows) \
            + [tab.x_rows[u] for u in tab.inputs]
        assert tab._rows == ref.packed(rows, tab.outputs)
        pos = {q: i for i, q in enumerate(tab.outputs)}
        for nid in dag.node_ids:
            string = dag.nodes[nid].string
            assert string.bits(pos) == ref.xz_bits(string, pos)
        strings = [dag.nodes[nid].string for nid in dag.node_ids]
        assert _packed(strings, tab.outputs) == ref.packed(strings, tab.outputs)
        z_out, x_out = ref.complete_tableau(tab)
        assert _complete_tableau(tab) == ref.packed(z_out + x_out, range(len(z_out)))


def test_random_signed_tableaux_complete_as_reference():
    """Random Clifford images split into inputs and at least two free rows,
    over output names whose sorted order is not their numeric one."""
    rng = random.Random(30)
    negative = 0
    for _ in range(150):
        n = rng.randrange(2, 13)
        m = rng.randrange(0, n - 1)
        z, x, _ = random_clifford_rows(rng, n)
        name = {k: f"o{k}" for k in range(n)}
        z, x = [s.relabelled(name) for s in z], [s.relabelled(name) for s in x]
        inputs = [f"in{k:02d}" for k in range(m)]
        tab = IsometryTableau(tuple(inputs), tuple(name.values()), dict(zip(inputs, z)),
                              dict(zip(inputs, x)), tuple(z[m:]))
        assert len(tab.free_rows) >= 2
        negative += any(s.sign == -1 for s in z + x[:m])
        z_out, x_out = ref.complete_tableau(tab)
        assert _complete_tableau(tab) == ref.packed(z_out + x_out, range(n))
    assert negative > 75  # the sign mask is exercised


def test_only_the_packer_reads_string_bits():
    """``SignedPauliString.bits`` is called in pddag.py only inside
    ``_packed``, so the PDDAG layer keeps one row layout."""
    tree = ast.parse(inspect.getsource(pddag))
    packer = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_packed")
    inside = {id(node) for node in ast.walk(packer)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "bits"
             and not (isinstance(node.func.value, ast.Name) and node.func.value.id == "f2")]
    assert calls and all(id(node) in inside for node in calls)

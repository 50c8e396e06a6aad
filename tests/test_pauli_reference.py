"""Differential tests: the X/Z-set Pauli strings against reference_pauli.py.

Products, commutation and the three bit layouts (tableau rank and span,
Pddag order masks, partner completion) must match the letter-dict code
exactly, on seeded random strings with every phase and on the tableaux
and nodes the pipeline really builds.
"""

import pickle
import random

import pytest

from pauliflow import f2
from pauliflow.extract import extract_pddag
from pauliflow.pauli import SignedPauliString, commutes, multiply, parse_string
from pauliflow.pddag import _complete_tableau
from tests import reference_pauli as ref
from tests.conftest import sized_circuit_pattern, with_prepared_wires


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
        assert x | z << n == ref.tableau_bits(s, outputs)
        w = s.relabelled(pos)
        wx, wz = w.bits(range(n))
        assert wz | wx << n == ref.partner_bits(w, n)
        assert SignedPauliString.from_xz(f2.bits(wx), f2.bits(wz)) == ref.bits_to_string(wx, wz)


@pytest.mark.parametrize("n", [40, 80])
def test_pipeline_bit_layouts_match_reference(n):
    pattern = sized_circuit_pattern(n, n // 10, seed=n)
    for prepared in (0, 1, n // 20):
        dag = extract_pddag(with_prepared_wires(pattern, prepared))
        tab = dag.tableau
        assert len(tab.free_rows) == prepared
        rows = [tab.z_rows[u] for u in tab.inputs] + [tab.x_rows[u] for u in tab.inputs] \
            + list(tab.free_rows)
        assert tab._symplectic(rows) == [ref.tableau_bits(r, tab.outputs) for r in rows]
        pos = {q: i for i, q in enumerate(tab.outputs)}
        for nid in dag.node_ids:
            string = dag.nodes[nid].string
            assert string.bits(pos) == ref.xz_bits(string, pos)
        assert _complete_tableau(tab) == ref.complete_tableau(tab)

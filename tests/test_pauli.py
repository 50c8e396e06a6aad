"""Tests for the signed Pauli string algebra, against dense matrices."""

import random
from fractions import Fraction

import numpy as np
import pytest

from pauliflow.oracle import rotation_matrix, string_matrix
from pauliflow.pauli import (
    Rotation,
    SignedPauliString,
    commutes,
    from_letter_map,
    gate_to_exponentials,
    identity_string,
    multiply,
    parse_string,
    reorder_push,
    single,
)
from tests.reference_synth import conj_gate

F = Fraction


def up_to_phase(a, b, tol=1e-12):
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < tol:
        return np.max(np.abs(a)) < tol
    scale = a[idx] / b[idx]
    return abs(abs(scale) - 1) < 1e-9 and np.max(np.abs(a - scale * b)) < tol


def random_string(rng, qubits):
    letters = {q: rng.choice("IXYZ") for q in qubits}
    return SignedPauliString({q: l for q, l in letters.items() if l != "I"},
                             rng.randrange(4))


def test_multiply_single_qubit():
    assert multiply(single("1", "X"), single("1", "Z")) == SignedPauliString({"1": "Y"}, 3)


def test_multiply_identity():
    p = from_letter_map({"a": "X", "b": "Y"})
    assert multiply(identity_string(), p) == p
    assert multiply(p, identity_string()) == p


def test_multiply_two_qubit_example():
    a = from_letter_map({"1": "Z", "2": "Y"})
    b = from_letter_map({"1": "Z", "2": "X"})
    # Z*Z = I, Y*X = -iZ
    assert multiply(a, b) == SignedPauliString({"2": "Z"}, 3)


def test_multiply_agrees_with_dense():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randrange(1, 7)
        qubits = [f"q{i}" for i in range(n)]
        a, b = random_string(rng, qubits), random_string(rng, qubits)
        prod = multiply(a, b)
        lhs = string_matrix(a, qubits) @ string_matrix(b, qubits)
        assert np.max(np.abs(lhs - string_matrix(prod, qubits))) < 1e-12


def test_multiply_associative():
    rng = random.Random(8)
    qubits = ["x", "y", "z"]
    for _ in range(300):
        a, b, c = (random_string(rng, qubits) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_square_of_real_string_is_identity():
    rng = random.Random(9)
    for _ in range(100):
        s = random_string(rng, ["a", "b", "c"])
        s = SignedPauliString(s.letters, rng.choice((0, 2)))
        assert multiply(s, s) == identity_string()


def test_commutes_examples():
    xx = from_letter_map({"1": "X", "2": "X"})
    zz = from_letter_map({"1": "Z", "2": "Z"})
    assert commutes(xx, zz)
    assert not commutes(single("1", "X"), single("1", "Z"))
    assert not commutes(from_letter_map({"1": "Z", "2": "Y"}), from_letter_map({"2": "X"}))


def test_commutes_matches_dense():
    rng = random.Random(10)
    qubits = ["a", "b", "c", "d"]
    for _ in range(200):
        a, b = random_string(rng, qubits), random_string(rng, qubits)
        ab = string_matrix(a, qubits) @ string_matrix(b, qubits)
        ba = string_matrix(b, qubits) @ string_matrix(a, qubits)
        assert commutes(a, b) == bool(np.allclose(ab, ba))
        assert commutes(a, b) == (multiply(a, b) == multiply(b, a))


def test_reorder_push_quarter_example():
    quarter = Rotation(single("1", "X"), F(1, 2))
    assert reorder_push(quarter, single("1", "Z")) == single("1", "Y")


def test_reorder_push_commuting_unchanged():
    quarter = Rotation(single("1", "X"), F(1, 2))
    b = from_letter_map({"2": "Z"})
    assert reorder_push(quarter, b) == b


def test_reorder_push_pi_flips_sign():
    # Conjugation oracle: exp(i pi Z/2) X exp(-i pi Z/2) = -X.
    half_turn = Rotation(single("1", "Z"), F(1))
    assert reorder_push(half_turn, single("1", "X")) == -single("1", "X")


def test_reorder_soundness_dense():
    rng = random.Random(11)
    qubits = ["a", "b", "c"]
    for _ in range(300):
        a = random_string(rng, qubits)
        a = SignedPauliString(a.letters, rng.choice((0, 2)))
        theta = F(rng.randrange(4), 2)  # multiples of pi/2 in [0, 2pi)
        b = random_string(rng, qubits)
        b = SignedPauliString(b.letters, rng.choice((0, 2)))
        rot = Rotation(a, theta)
        bp = reorder_push(rot, b)
        exp = rotation_matrix(a, theta, qubits)
        lhs = exp @ string_matrix(b, qubits)
        rhs = string_matrix(bp, qubits) @ exp
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def dense_gate(name, qubits, wires, angle=None):
    mats = {
        "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
        "S": np.diag([1, 1j]), "Sdg": np.diag([1, -1j]),
        "X": np.array([[0, 1], [1, 0]]), "Z": np.diag([1, -1]),
    }
    n = len(wires)
    if name in ("CX", "CZ"):
        dim = 2 ** n
        m = np.zeros((dim, dim), dtype=complex)
        for row in range(dim):
            bits = [(row >> (n - 1 - i)) & 1 for i in range(n)]
            pos = {q: wires.index(q) for q in qubits}
            out = list(bits)
            if name == "CZ":
                m[row, row] = -1 if bits[pos[qubits[0]]] and bits[pos[qubits[1]]] else 1
                continue
            if name == "CX" and bits[pos[qubits[0]]]:
                out[pos[qubits[1]]] ^= 1
            col = sum(b << (n - 1 - i) for i, b in enumerate(out))
            m[col, row] = 1
        return m
    if name in mats:
        base = mats[name]
    elif name == "RZ":
        half = float(angle) * np.pi / 2
        base = np.diag([np.exp(-1j * half), np.exp(1j * half)])
    elif name == "RX":
        half = float(angle) * np.pi / 2
        base = np.cos(half) * np.eye(2) - 1j * np.sin(half) * np.array([[0, 1], [1, 0]])
    m = np.array([[1]], dtype=complex)
    for w in wires:
        m = np.kron(m, base if w == qubits[0] else np.eye(2))
    return m


@pytest.mark.parametrize("name,qubits,angle", [
    ("CX", ("c", "t"), None),
    ("CZ", ("c", "t"), None),
    ("RZ", ("q",), F(1, 3)),
    ("RX", ("q",), F(2, 5)),
    ("H", ("q",), None),
    ("S", ("q",), None),
    ("Sdg", ("q",), None),
    ("X", ("q",), None),
    ("Z", ("q",), None),
])
def test_gate_decompositions_reproduce_gates(name, qubits, angle):
    wires = sorted(set(qubits))
    rotations = gate_to_exponentials(name, qubits, angle)
    prod = np.eye(2 ** len(wires), dtype=complex)
    for rot in rotations:
        prod = prod @ rotation_matrix(rot.string, rot.angle, wires)
    assert up_to_phase(prod, dense_gate(name, qubits, wires, angle))


def test_cz_decomposition_exact_terms():
    rots = gate_to_exponentials("CZ", ("c", "t"))
    assert rots[0] == Rotation(from_letter_map({"c": "Z", "t": "Z"}), F(-1, 2))
    assert rots[1] == Rotation(single("c", "Z"), F(1, 2))
    assert rots[2] == Rotation(single("t", "Z"), F(1, 2))


def test_rz_decomposition():
    (rot,) = gate_to_exponentials("RZ", ("q",), F(1, 3))
    assert rot == Rotation(single("q", "Z"), F(-1, 3))


def test_unknown_gate_rejected():
    with pytest.raises(ValueError):
        gate_to_exponentials("SWAP", ("a", "b"))
    with pytest.raises(TypeError):
        gate_to_exponentials("CX", ("a",))
    with pytest.raises(TypeError):
        gate_to_exponentials("H", ("a", "b"))


def test_multiply_example():
    # a rotation axis times a commuting stabilizer, as in a stabilizer rewrite
    axis = from_letter_map({"1": "Y", "2": "Z"})
    stab = from_letter_map({"1": "Z", "2": "X"})
    assert multiply(axis, stab) == -from_letter_map({"1": "X", "2": "Y"})


def test_rotation_normalization_and_equivalence():
    r1 = Rotation(single("q", "Z"), F(-1, 2))
    assert r1.angle == F(3, 2)
    r2 = Rotation(-single("q", "Z"), F(1, 2))
    assert r1.equivalent(r2)
    assert not r1.equivalent(Rotation(single("q", "Z"), F(1, 2)))
    with pytest.raises(ValueError):
        Rotation(SignedPauliString({"q": "Z"}, 1), F(1, 2))


def test_rotation_angle_range_up_to_phase():
    rng = random.Random(5)
    qubits = ["a", "b"]
    for _ in range(200):
        string = SignedPauliString(random_string(rng, qubits).letters, rng.choice((0, 2)))
        angle = F(rng.randrange(-40, 40), rng.choice((1, 2, 3, 4, 8)))
        rot = Rotation(string, angle)
        assert 0 <= rot.angle < 2
        assert rot == Rotation(string, angle + 2 * rng.randrange(-3, 4))
        assert up_to_phase(rotation_matrix(string, rot.angle, qubits),
                           rotation_matrix(string, angle, qubits))


def test_parse_format_roundtrip():
    for text in ("-iX(a)Z(o1)", "I", "-I", "Y(q0)", "iZ(a)Y(b)X(c)"):
        assert parse_string(text).format() == text
    s = from_letter_map({"o1": "Z", "o2": "Y"}, sign=-1)
    assert s.format(["o1", "o2"]) == "-Z(o1)Y(o2)"
    assert parse_string(s.format()) == s


def test_conjugate_by_gate_matches_dense():
    rng = random.Random(12)
    gates = [(name, ("0",)) for name in ("H", "S", "Sdg", "X", "Z")]
    for name, qubits in gates + [("CX", ("0", "1")), ("CZ", ("0", "1"))]:
        wires = sorted(set(qubits)) if len(qubits) > 1 else ["0", "1"]
        for _ in range(60):
            s = random_string(rng, wires)
            s = SignedPauliString(s.letters, rng.choice((0, 2)))
            out = conj_gate(name, qubits, s)
            g = dense_gate(name, qubits, wires)
            lhs = g @ string_matrix(s, wires) @ g.conj().T
            assert np.max(np.abs(lhs - string_matrix(out, wires))) < 1e-12

"""Dense brute-force semantics for patterns, circuits and Pddags.

Everything here is the ground truth the rest of the library is tested
against, so it deliberately shares no machinery with the fast paths: maps
are complex matrices built gate by gate / projector by projector, and all
comparisons are up to a global scalar.  A pattern's vertices are prepared
lazily and measured as soon as their CZs are in (see ``pattern_semantics``).
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .graph import MeasurementPattern
from .pauli import SignedPauliString
from .pddag import Circuit, IsometryTableau, Pddag

DEFAULT_TOL = 1e-9

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)


def qubit_cap() -> int:
    return int(os.environ.get("PAULIFLOW_MAX_QUBITS", "14"))


class QubitCapExceeded(ValueError):
    pass


@dataclass
class DenseMap:
    """A 2^|outputs| x 2^|inputs| complex matrix with fixed wire orders."""

    matrix: np.ndarray
    input_order: Tuple
    output_order: Tuple


def measurement_bra(plane: str, angle_pi: Fraction) -> np.ndarray:
    """Row vector <+_{plane,alpha}| for planar and Pauli labels."""
    alpha = float(angle_pi) * math.pi
    if plane == "XY":
        vec = np.array([1, cmath.exp(1j * alpha)]) / math.sqrt(2)
    elif plane == "XZ":
        vec = np.array([math.cos(alpha / 2), math.sin(alpha / 2)], dtype=complex)
    elif plane == "YZ":
        vec = np.array([math.cos(alpha / 2), 1j * math.sin(alpha / 2)])
    elif plane in ("X", "Y", "Z"):
        a = int(Fraction(angle_pi) % 2)
        if plane == "X":
            vec = np.array([1, (-1) ** a], dtype=complex) / math.sqrt(2)
        elif plane == "Y":
            vec = np.array([1, 1j * (-1) ** a]) / math.sqrt(2)
        else:
            vec = np.array([1 - a, a], dtype=complex)
    else:
        raise ValueError(f"unknown label {plane!r}")
    return vec.conj()


def string_matrix(string: SignedPauliString, wire_order: Sequence) -> np.ndarray:
    m = np.array([[1]], dtype=complex)
    for q in wire_order:
        m = np.kron(m, _PAULI_MATS[string.letter(q)])
    return complex(string.phase) * m


def rotation_matrix(string: SignedPauliString, angle_pi: Fraction,
                    wire_order: Sequence) -> np.ndarray:
    """exp(i * angle/2 * string) with angle in units of pi."""
    half = float(angle_pi) * math.pi / 2
    n = len(wire_order)
    smat = string_matrix(string, wire_order)
    return math.cos(half) * np.eye(2 ** n) + 1j * math.sin(half) * smat


def _single_qubit_gate(name: str, angle_pi: Optional[Fraction]) -> np.ndarray:
    if name == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if name == "X":
        return _PAULI_MATS["X"]
    if name == "Z":
        return _PAULI_MATS["Z"]
    if name == "S":
        return np.diag([1, 1j]).astype(complex)
    if name == "Sdg":
        return np.diag([1, -1j]).astype(complex)
    half = float(angle_pi) * math.pi / 2
    if name == "RZ":
        return np.diag([cmath.exp(-1j * half), cmath.exp(1j * half)])
    if name == "RX":
        return math.cos(half) * np.eye(2) - 1j * math.sin(half) * _PAULI_MATS["X"]
    raise ValueError(f"unknown single-qubit gate {name!r}")


def _apply_on_wire(mat: np.ndarray, gate2: np.ndarray, wire: int, n: int) -> np.ndarray:
    shaped = mat.reshape(2 ** wire, 2, -1)
    return np.einsum("ab,ibj->iaj", gate2, shaped).reshape(mat.shape)


def _apply_cz(mat: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    rows = np.arange(2 ** n)
    ba = (rows >> (n - 1 - a)) & 1
    bb = (rows >> (n - 1 - b)) & 1
    signs = np.where((ba & bb) == 1, -1.0, 1.0)
    return mat * signs[:, None]


# -- pattern semantics --------------------------------------------------------


def pattern_semantics(pattern: MeasurementPattern, cap: Optional[int] = None) -> DenseMap:
    """Dense linear map of the intended branch, trailing gates included.

    The inputs start live, as the identity on sorted inputs.  While a
    measured vertex is left, the one bringing in the fewest new qubits (ties
    by name) is measured: it and its neighbours are brought in (|+> as the
    last axis), its CZs not yet applied are applied, and it is contracted
    with its bra.  Last the outputs come in, the CZs left among them are
    applied, the axes are put in sorted output order and the trailing gates
    applied.  Preparations, CZs and measurements on different vertices
    commute, so this is E_G N followed by the measurements; the order, read
    from the edges alone, only bounds the live width.  Memory is
    2^(live + |I|) entries, but the cap still counts all vertices.
    """
    g = pattern.graph
    cap = qubit_cap() if cap is None else cap
    if len(g.vertices) > cap:
        raise QubitCapExceeded(f"{len(g.vertices)} qubits exceeds cap {cap}")
    pending = {v: set() for v in g.vertices}  # CZs not yet applied
    for a, b in g.edges:
        pending[a].add(b)
        pending[b].add(a)
    live = sorted(g.inputs)
    mat = np.eye(2 ** len(live), dtype=complex)

    def entangle(verts):
        nonlocal mat
        for u in sorted(set(verts).union(*(pending[v] for v in verts)) - set(live)):
            mat = np.kron(mat, _PLUS[:, None])
            live.append(u)
        for v in verts:
            for u in sorted(pending.pop(v)):
                pending[u].discard(v)
                mat = _apply_cz(mat, live.index(v), live.index(u), len(live))

    todo = set(g.measured)
    while todo:
        known = set(live)
        v = min(todo, key=lambda u: (len(({u} | pending[u]) - known), u))
        todo.remove(v)
        entangle([v])
        bra = measurement_bra(g.labels[v], pattern.angles[v])
        shaped = mat.reshape(2 ** live.index(v), 2, -1)
        live.remove(v)
        mat = (bra[0] * shaped[:, 0, :] + bra[1] * shaped[:, 1, :]).reshape(2 ** len(live), -1)
    outputs = sorted(g.outputs)
    entangle(outputs)
    n = len(live)
    mat = mat.reshape([2] * n + [-1]).transpose([live.index(o) for o in outputs] + [n])
    mat = mat.reshape(2 ** n, -1)
    for tg in pattern.trailing:
        gate2 = _single_qubit_gate(tg.name, tg.angle)
        mat = _apply_on_wire(mat, gate2, outputs.index(tg.qubit), n)
    return DenseMap(mat, tuple(sorted(g.inputs)), tuple(outputs))


# -- circuit and pddag semantics ----------------------------------------------


def circuit_semantics(circuit: Circuit, cap: Optional[int] = None) -> DenseMap:
    cap = qubit_cap() if cap is None else cap
    if circuit.n_wires > cap:
        raise QubitCapExceeded(f"{circuit.n_wires} wires exceeds cap {cap}")
    n = circuit.n_wires
    init = set(circuit.init_wires)
    mat = np.array([[1]], dtype=complex)
    for w in range(n):
        if w in init:
            mat = np.kron(mat, np.array([[1], [0]], dtype=complex))
        else:
            mat = np.kron(mat, np.eye(2, dtype=complex))
    seen_non_init = False
    for gate in circuit.gates:
        if gate.name == "INIT0":
            if seen_non_init:
                raise ValueError("INIT0 gates must come first")
            continue
        seen_non_init = True
        if gate.name in ("CZ", "CX"):
            a, b = gate.qubits
            mat = _apply_cz(mat, a, b, n) if gate.name == "CZ" else _apply_cx(mat, a, b, n)
        elif gate.name == "EXP":
            rot = rotation_matrix(gate.string, gate.angle, tuple(range(n)))
            mat = rot @ mat
        else:
            mat = _apply_on_wire(mat, _single_qubit_gate(gate.name, gate.angle), gate.qubits[0], n)
    return DenseMap(mat, tuple(w for w in range(n) if w not in init), tuple(range(n)))


def _apply_cx(mat: np.ndarray, c: int, t: int, n: int) -> np.ndarray:
    rows = np.arange(2 ** n)
    ctrl = (rows >> (n - 1 - c)) & 1
    flipped = rows ^ (ctrl << (n - 1 - t))
    return mat[flipped, :]


def _apply_pauli(vec: np.ndarray, x: int, z: int, k: int) -> np.ndarray:
    """i^k X^x Z^z applied to a state vector (x, z: index bit masks).

    Z^z signs each amplitude by the parity of its index on z; X^x flips
    the index bits in x.
    """
    idx = np.arange(vec.size)
    sign = np.where(np.bitwise_count(idx & z) & 1, -1.0, 1.0)
    return 1j ** (k % 4) * (sign * vec)[idx ^ x]


def tableau_isometry(tab: IsometryTableau) -> np.ndarray:
    """The tableau's isometry V, a 2^|O| x 2^|I| matrix, built from its rows.

    The Choi state sum_i |i>_in (x) V|i>_out is the unique joint +1
    eigenvector of Z_u (x) z_row(u), X_u (x) x_row(u) and I (x) free_row, so a
    fixed random vector is projected onto each of those +1 eigenspaces in
    turn, then reshaped and scaled to unit columns.  Output q sits at index
    bit n-1-pos(q) and input u at bit n+m-1-pos(u), both in sorted order.
    """
    m, n = len(tab.inputs), len(tab.outputs)
    bit = {q: 1 << (n - 1 - i) for i, q in enumerate(tab.outputs)}

    def masks(row: SignedPauliString) -> Tuple[int, int, int]:
        # With Y = iXZ the row is i^(k + |x&z|) X^x Z^z.
        return (sum(bit[q] for q in row.x), sum(bit[q] for q in row.z),
                row.phase_pow + len(row.x & row.z))

    stabilizers = [masks(r) for r in tab.free_rows]
    for i, u in enumerate(tab.inputs):
        in_bit = 1 << (n + m - 1 - i)
        x, z, k = masks(tab.z_rows[u])
        stabilizers.append((x, z | in_bit, k))
        x, z, k = masks(tab.x_rows[u])
        stabilizers.append((x | in_bit, z, k))
    rng = np.random.default_rng(0)
    vec = rng.standard_normal(2 ** (m + n)) + 1j * rng.standard_normal(2 ** (m + n))
    for x, z, k in stabilizers:
        vec = (vec + _apply_pauli(vec, x, z, k)) / 2
    vec *= math.sqrt(2 ** m) / np.linalg.norm(vec)
    return vec.reshape(2 ** m, 2 ** n).T


def pddag_semantics(pddag: Pddag, cap: Optional[int] = None) -> DenseMap:
    """Rotation product times the tableau isometry."""
    outputs = list(pddag.tableau.outputs)
    n = len(outputs)
    cap = qubit_cap() if cap is None else cap
    if n > cap:
        raise QubitCapExceeded(f"{n} wires exceeds cap {cap}")
    mat = tableau_isometry(pddag.tableau)
    for nid in pddag.node_ids:
        rot = pddag.nodes[nid]
        mat = rotation_matrix(rot.string, rot.angle, outputs) @ mat
    return DenseMap(mat, tuple(pddag.tableau.inputs), tuple(outputs))


# -- comparison ----------------------------------------------------------------


def equal_up_to_phase(a: DenseMap, b: DenseMap, tol: float = DEFAULT_TOL) -> bool:
    """True iff the matrices agree up to one global (complex) scalar.

    Normalization constants are ignored throughout the library, so the
    scalar is not constrained to unit modulus.  Each map is first scaled by
    its own largest entry, so ``tol`` is relative and the answer does not
    depend on the maps' scale; an identically zero map equals only another.
    """
    ma, mb = np.asarray(a.matrix), np.asarray(b.matrix)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch {ma.shape} vs {mb.shape}")
    scale_a, scale_b = np.max(np.abs(ma)), np.max(np.abs(mb))
    if scale_a == 0 or scale_b == 0:
        return bool(scale_a == scale_b)
    ma, mb = ma / scale_a, mb / scale_b
    idx = np.unravel_index(np.argmax(np.abs(mb)), mb.shape)
    # ma == (ma[idx] / mb[idx]) * mb, multiplied through by mb[idx]: no
    # division, and both products array x scalar, so equal maps leave
    # exactly zero
    return bool(np.max(np.abs(ma * mb[idx] - mb * ma[idx])) <= tol)
